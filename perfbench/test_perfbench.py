"""The benchmark's own tests, at a smoke scale.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import report  # noqa: E402
import workloads as W  # noqa: E402
from graphgen import WriteLog  # noqa: E402

SMOKE = ["--scale", "9", "--seconds", "1.5", "--seed", "3"]

CLASS_METRICS = {
    "oltp_read": ("point_p50_us", "point_p99_us", "hop2_p50_us", "hop2_p99_us"),
    "oltp_mixed": ("point_p50_us", "point_p99_us", "hop2_p50_us", "hop2_p99_us", "write_p50_us", "write_p99_us",
                   "recovery_s"),
    "embedded_mix": ("point_p50_us", "point_p99_us", "hop2_p50_us", "hop2_p99_us", "adhoc_p50_us", "khop3_p50_ms",
                     "varlen_p50_ms", "agg_p50_ms", "algo_p50_ms"),
}
COMMON = ("setup_s", "throughput_ops_s", "error_rate", "peak_rss_mb")

# layers that do work on each workload, as named in the traced output
TRACED_LAYERS = {
    "oltp_read": (
        "rediskv.client.encode_us", "rediskv.client.decode_us", "rediskv.server.decode_us",
        "rediskv.threadpool.queue_wait_us", "rediskv.graph_module.param_parse_us",
        "rediskv.graph_module.reply_build_us", "rediskv.resp.encode_us", "rediskv.unattributed_us",
        "execplan.get_plan_us", "execplan.execute_us", "execplan.rows_per_query", "graph.rwlock.read_wait_us",
        "grblas.kernel_ms",
    ),
    "oltp_mixed": (
        "rediskv.durability.log_us", "graph.wal.append_us", "graph.rwlock.write_wait_us",
        "graph.rwlock.write_hold_us", "rediskv.unattributed_us",
    ),
    "embedded_mix": (
        "execplan.compile_us", "cypher.parse_us", "procedures.algo_ms", "grblas.kernel_ms",
        "execplan.op.CondVarLenTraverse_ms", "execplan.op.Aggregate_ms",
    ),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def metric_lines(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"]:
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


@pytest.mark.parametrize("workload", sorted(CLASS_METRICS))
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = bench("--workload", workload, "--trace", "0", *SMOKE)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    printed = metric_lines(proc.stdout)
    for name in CLASS_METRICS[workload] + COMMON:
        unit = report.UNITS.get(name) or name.rsplit("_", 1)[1]
        assert printed[name][1] == unit, name
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert printed["error_rate"][0] == 0
    assert set(result["metrics"]) == set(report.GATED)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == printed[name][1] and metric["value"] > 0


@pytest.mark.parametrize("workload", sorted(TRACED_LAYERS))
def test_traced_run_reports_the_layers(workload):
    proc = bench("--workload", workload, "--trace", "1", *SMOKE)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for layer in TRACED_LAYERS[workload]:
        assert f" {layer}" in proc.stdout, layer
    assert "overhead=" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == report.PER_LAYER


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    return W.Run(seed=5, seconds=1, work=tmp_path_factory.mktemp("work"), scale=8)


def test_checker_rejects_a_wrong_answer(small_run):
    run = small_run
    node = int(run.graph.key_nodes[0])
    right = [(int(run.graph.uid[b]), int(run.graph.age[b])) for b in run.graph.neighbours([node])]
    wrong = right[1:] + [(-1, 0)]
    before = run.failures.count
    assert W.check_read(run, "point", node, W.compact("point", SimpleNamespace(rows=right)))
    assert not W.check_read(run, "point", node, W.compact("point", SimpleNamespace(rows=wrong)))
    assert not W.check_read(run, "hop2", node, W.compact("hop2", SimpleNamespace(rows=[(run.expected("hop2", node) + 1,)])))
    assert run.failures.count == before + 2


def test_mixed_reads_accept_only_the_allowed_write_prefixes(small_run):
    run = small_run
    g = run.graph
    node = int(g.key_nodes[0])
    target = next(b for b in range(g.n) if b != node and b not in set(g.neighbours([node]).tolist()))
    wlog = WriteLog(g)
    wlog.record(("edge", node, target))
    writes = [("edge", None, 10, 20, "Q:0", None)]  # sent at 10, acknowledged at 20
    before = wlog.point(node, 0)
    after = wlog.point(node, 1)
    failures = run.failures.count
    # in flight: either state is allowed
    W.check_mixed_reads(run, [("point", node, 15, 25, "RO:0", before), ("point", node, 15, 25, "RO:1", after)],
                        writes, wlog)
    assert run.failures.count == failures
    # sent after the acknowledgement: only the new state is allowed
    W.check_mixed_reads(run, [("point", node, 30, 40, "RO:2", before)], writes, wlog)
    assert run.failures.count == failures + 1


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = bench("--workload", "oltp_read", "--trace", "0", *SMOKE, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
