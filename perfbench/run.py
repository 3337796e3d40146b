"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload oltp_mixed --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the workload twice with the same seed, untraced and
then traced, and reports per-layer metrics from the spans plus the
tracing overhead per request class.  Every answer is checked; the last
line of standard output is one JSON object, and the exit code is 1 when
any operation failed or returned a wrong answer.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
if not (HERE.parent / "src" / "repro").is_dir():
    # measure the checkout's own program, never an installed copy
    sys.exit(f"perfbench: no src/repro beside {HERE}; run from a full checkout")
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import report  # noqa: E402
import workloads as W  # noqa: E402
from graphgen import SCALE  # noqa: E402
from tracing import Tracer, install_client, install_engine, operator_self_ms  # noqa: E402

from repro.graph.config import GraphConfig  # noqa: E402

WORKLOADS = ("oltp_read", "oltp_mixed", "embedded_mix")
PROFILE_SAMPLE = {"point": 20, "khop3": 3, "varlen": 2, "agg": 2}


def host_facts() -> str:
    cfg = GraphConfig()
    return (
        f"host nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} server_config=default(thread_count={cfg.thread_count}, "
        f"io_threads={cfg.io_threads}, parallel_workers={cfg.parallel_workers}, "
        f"plan_cache_size={cfg.plan_cache_size}, delta_max_pending={cfg.delta_max_pending}, "
        f"wal_fsync={cfg.wal_fsync})"
    )


def measure(run: W.Run, workload: str, setups: int, tracer=None, trace_out=None) -> dict:
    if workload == "embedded_mix":
        return W.run_embedded(run, setups, tracer=tracer)
    return W.run_resp(run, workload == "oltp_mixed", setups, trace_out=trace_out, tracer=tracer)


def untraced(run: W.Run, workload: str) -> report.Metrics:
    out = measure(run, workload, W.SETUPS)
    m = report.Metrics()
    times = out["setup_times"]
    m.add("setup_s", report.median(times), report.UNITS["setup_s"], f"n={len(times)} median of set-ups " + " ".join(f"{t:.3f}" for t in times))
    records = out["reads"] + out["writes"]
    m.add_classes(report.latencies(records))
    m.add("throughput_ops_s", len(records) / out["window_s"], report.UNITS["throughput_ops_s"],
          f"n={len(records)} over {out['window_s']:.2f}s, closed loop")
    m.add("error_rate", run.failures.count / max(1, run.attempted), report.UNITS["error_rate"],
          f"failed={run.failures.count} attempted={run.attempted}")
    m.add("peak_rss_mb", out["peak_rss_mb"], report.UNITS["peak_rss_mb"], "VmHWM of the process holding the graph")
    if out["recovery_s"] is not None:
        m.add("recovery_s", out["recovery_s"], report.UNITS["recovery_s"],
              f"n=1 restart of the last server, replaying {out['replayed_writes']} acknowledged writes; "
              "wal_fsync=everysec")
    return m


def traced(run: W.Run, workload: str):
    base = measure(run, workload, 1)
    base_p50 = {c: float(np.median(v)) for c, v in report.latencies(base["reads"] + base["writes"]).items()}
    del base
    gc.collect()
    tracer = Tracer()
    server_summary = None
    if workload == "embedded_mix":
        install_engine(tracer)
        try:
            out = measure(run, workload, 1, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        trace_out = run.work / "server-spans.json"
        install_client(tracer)
        try:
            out = measure(run, workload, 1, tracer=tracer, trace_out=trace_out)
        finally:
            tracer.uninstall()
        server_summary = json.loads(trace_out.read_text())
    by_req, loose = report.merge_summaries(tracer.summary(), server_summary)
    requests = [(rec[4], rec[0]) for rec in out["reads"] + out["writes"]]
    metrics, lines = report.layer_report(by_req, loose, requests, out["window"], base_p50, out)
    if workload == "embedded_mix":
        lines += profile_operators(run, out["db"])
    return metrics, lines


def profile_operators(run: W.Run, db) -> list:
    """``execplan.op.<Operator>_ms``: operator self time from PROFILE."""
    lines = []
    rng = np.random.default_rng([run.seed, 5])
    g = run.graph
    for cls, count in PROFILE_SAMPLE.items():
        totals: dict = {}
        for _ in range(count):
            arg = None
            if cls in ("point", "khop3"):
                arg = int(g.key_nodes[rng.integers(len(g.key_nodes))])
            elif cls == "varlen":
                arg = sorted(int(x) for x in rng.choice(g.key_nodes, W.VARLEN_SOURCES, replace=False))
            result = db.profile(*W.query_for(g, cls, arg))
            W.check_read(run, cls, arg, W.compact(cls, result))
            for op, ms in operator_self_ms(result.profile).items():
                totals[op] = totals.get(op, 0.0) + ms
        for op, ms in sorted(totals.items(), key=lambda kv: -kv[1]):
            lines.append(f"trace   {cls:<7} execplan.op.{op}_ms{'':<{max(1, 26 - len(op))}} {ms / count:12.5f} ms/req")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=SCALE, help="Graph500 scale (tests use a smaller one)")
    args = ap.parse_args(argv)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = W.Run(args.seed, args.seconds, work, args.scale)
        g = run.graph
        print(host_facts())
        print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
              f"persons={g.n} knows={g.m} key_persons={len(g.key_nodes)} max_out_degree={g.out_degree.max()}")
        if args.trace:
            metrics, lines = traced(run, args.workload)
            print("\n".join(lines))
            result_metrics = {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}
        else:
            m = untraced(run, args.workload)
            print("\n".join(m.lines))
            result_metrics = m.json_metrics(report.GATED)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for example in run.failures.examples:
        print(f"FAILED {example}")
    correct = run.failures.count == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failures.count,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
