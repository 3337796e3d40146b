"""Metrics from a run's records and spans, and the lines that print them."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

# class -> (unit, percentiles reported as end-to-end metrics)
CLASS_METRICS = {
    "point": ("us", (50, 99)),
    "hop2": ("us", (50, 99)),
    "write": ("us", (50, 99)),
    "adhoc": ("us", (50,)),
    "khop3": ("ms", (50,)),
    "varlen": ("ms", (50,)),
    "agg": ("ms", (50,)),
    "algo": ("ms", (50,)),
}
UNIT_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}
WRITE_KINDS = ("edge", "set", "create")
TAIL_PERCENTILES = (99.9, 99, 90, 50)

# every workload reports these; BENCHMARK.json gates them.  The p99s are
# printed but not gated: on a 2-vCPU VM their run-to-run spread exceeds
# the largest bound (0.25).
GATED = ("setup_s", "point_p50_us", "hop2_p50_us", "throughput_ops_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "error_rate": "ratio", "peak_rss_mb": "MB", "recovery_s": "s"}


def class_of(cls: str) -> str:
    return "write" if cls in WRITE_KINDS else cls


def latencies(records: Iterable[tuple]) -> Dict[str, np.ndarray]:
    """Class -> latencies in ns of the records (class, arg, t0, t1, ...)."""
    out: Dict[str, list] = defaultdict(list)
    for rec in records:
        out[class_of(rec[0])].append(rec[3] - rec[2])
    return {c: np.array(v, dtype=np.float64) for c, v in out.items()}


def tail_percentile(n: int) -> float:
    """The highest reported percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def median(values: List[float]) -> float:
    return float(np.median(np.array(values, dtype=np.float64)))


class Metrics:
    """Named metrics with units, sample counts and printable lines."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}
        self.lines: List[str] = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.values[name] = (float(value), unit)
        self.lines.append(f"metric {name:<18} {value:>14.4f} {unit:<5} {note}".rstrip())

    def add_classes(self, lat: Dict[str, np.ndarray]) -> None:
        for cls, (unit, percentiles) in CLASS_METRICS.items():
            arr = lat.get(cls)
            if arr is None or not len(arr):
                continue
            tail = tail_percentile(len(arr))
            tail_value = np.percentile(arr, tail) / UNIT_NS[unit]
            for p in percentiles:
                note = f"n={len(arr)} p{tail:g}={tail_value:.4f}{unit}"
                if p > tail:
                    note += f" (p{p} has <10 samples beyond it)"
                self.add(f"{cls}_p{p}_{unit}", np.percentile(arr, p) / UNIT_NS[unit], unit, note)

    def json_metrics(self, names: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        return {n: {"value": self.values[n][0], "unit": self.values[n][1]} for n in names}


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------
RESP_ATTRIBUTED = (
    "rediskv.client.encode",
    "rediskv.client.decode",
    "rediskv.server.decode",
    "rediskv.threadpool.queue_wait",
    "rediskv.graph_module.cmd",
    "rediskv.resp.encode",
)
# layer -> (metric name, unit) of its mean self time per request (the
# printed line adds the inclusive time)
LAYER_METRIC = {
    "rediskv.client.encode": ("rediskv.client.encode_us", "us"),
    "rediskv.client.decode": ("rediskv.client.decode_us", "us"),
    "rediskv.server.decode": ("rediskv.server.decode_us", "us"),
    "rediskv.threadpool.queue_wait": ("rediskv.threadpool.queue_wait_us", "us"),
    "rediskv.graph_module.param_parse": ("rediskv.graph_module.param_parse_us", "us"),
    "rediskv.graph_module.cmd": ("rediskv.graph_module.reply_build_us", "us"),
    "rediskv.resp.encode": ("rediskv.resp.encode_us", "us"),
    "rediskv.durability.log": ("rediskv.durability.log_us", "us"),
    "execplan.get_plan": ("execplan.get_plan_us", "us"),
    "execplan.compile": ("execplan.compile_us", "us"),
    "cypher.parse": ("cypher.parse_us", "us"),
    "execplan.execute": ("execplan.execute_us", "us"),
    "graph.rwlock.read_wait": ("graph.rwlock.read_wait_us", "us"),
    "graph.rwlock.write_wait": ("graph.rwlock.write_wait_us", "us"),
    "graph.rwlock.write_hold": ("graph.rwlock.write_hold_us", "us"),
    "graph.delta_matrix.flush": ("graph.delta_matrix.flush_ms", "ms"),
    "graph.wal.append": ("graph.wal.append_us", "us"),
    "graph.wal.fsync": ("graph.wal.fsync_ms", "ms"),
    "procedures.algo": ("procedures.algo_ms", "ms"),
    "grblas": ("grblas.kernel_ms", "ms"),
}
# BENCHMARK.json per_layer names and units, reported by every workload
PER_LAYER = {
    "execplan.execute_us.point": "us",
    "execplan.execute_us.hop2": "us",
    "execplan.get_plan_us": "us",
    "execplan.plan_cache.hit_ratio": "ratio",
    "execplan.plan_cache.misses": "count",
    "execplan.compile_us": "us",
    "cypher.parse_us": "us",
    "grblas.calls_per_req": "count",
    "grblas.kernel_ms.hop2": "ms",
    "graph.rwlock.read_wait_us": "us",
    "graph.rwlock.write_wait_us": "us",
    "graph.rwlock.write_hold_us": "us",
    "graph.delta_matrix.flushes": "count",
    "graph.bulk.commit_s": "s",
    "graph.index.build_s": "s",
    "graph.wal.fsyncs": "count",
    "graph.wal.bytes_per_write": "B",
    "procedures.algo_calls": "count",
    "rediskv.resp.reply_bytes": "B",
    "rediskv.client.codec_pct": "%",
    "rediskv.server.decode_pct": "%",
    "rediskv.threadpool.queue_wait_pct": "%",
    "rediskv.resp.encode_pct": "%",
    "rediskv.unattributed_pct": "%",
    "trace.overhead_pct.point": "%",
}


def merge_summaries(*summaries: Optional[dict]) -> Tuple[Dict[str, Dict[str, list]], List[list]]:
    by_req: Dict[str, Dict[str, list]] = defaultdict(dict)
    loose: List[list] = []
    for summary in summaries:
        if summary is None:
            continue
        for req, layers in summary["by_req"].items():
            for name, rec in layers.items():
                into = by_req[req].setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    into[i] += rec[i]
        loose.extend(summary["loose"])
    return by_req, loose


def _totals(by_req, reqs, loose, window=None) -> Dict[str, list]:
    """Layer -> [self ns, incl ns, calls, value] over ``reqs`` plus the
    loose spans (those starting inside ``window`` when it is given)."""
    out: Dict[str, list] = defaultdict(lambda: [0, 0, 0, 0])
    for req in reqs:
        for name, rec in by_req.get(req, {}).items():
            into = out[name]
            for i in range(4):
                into[i] += rec[i]
    for name, start, end, self_ns, value in loose:
        if window is None or window[0] <= start < window[1]:
            into = out[name]
            into[0] += self_ns
            into[1] += end - start
            into[2] += 1
            into[3] += value or 0
    return out


def _per_call(totals, name: str, scale: float) -> float:
    """Mean self time per call of one layer."""
    rec = totals.get(name)
    return rec[0] / rec[2] / scale if rec and rec[2] else 0.0


def layer_report(
    by_req: Dict[str, Dict[str, list]],
    loose: List[list],
    requests: List[Tuple[str, str]],
    window: Tuple[int, int],
    untraced_p50_ns: Dict[str, float],
    extra: Dict[str, float],
) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics (``PER_LAYER``) and the per-class lines.

    ``requests`` are (request id, class) of the traced window."""
    lines: List[str] = []
    by_class: Dict[str, List[str]] = defaultdict(list)
    for req, cls in requests:
        by_class[class_of(cls)].append(req)
    window_tot = _totals(by_req, [r for r, _ in requests], loose, window)
    all_tot = _totals(by_req, list(by_req), loose)
    resp = any("rediskv.server.decode" in by_req.get(r, {}) for r, _ in requests)

    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float) -> None:
        metrics[name] = (float(value), PER_LAYER[name])

    shares = defaultdict(float)
    for cls in CLASS_METRICS:
        reqs = by_class.get(cls)
        if not reqs:
            continue
        tot = _totals(by_req, reqs, [])
        rt = np.array([by_req[r]["request"][1] for r in reqs if "request" in by_req.get(r, {})], dtype=np.float64)
        traced_p50 = float(np.median(rt)) if len(rt) else 0.0
        base = untraced_p50_ns.get(cls)
        overhead = (traced_p50 / base - 1) * 100 if base else 0.0
        lines.append(
            f"trace class={cls} n={len(reqs)} traced_p50={traced_p50 / 1e3:.2f}us "
            f"untraced_p50={(base or 0) / 1e3:.2f}us overhead={overhead:+.2f}%"
        )
        if cls == "point":
            put("trace.overhead_pct.point", overhead)
        n = len(reqs)
        for layer, (metric, unit) in LAYER_METRIC.items():
            rec = tot.get(layer)
            if rec and rec[2]:
                lines.append(f"trace   {cls:<7} {metric:<38} {rec[0] / n / UNIT_NS[unit]:12.4f} {unit}/req"
                             f"  incl={rec[1] / n / UNIT_NS[unit]:.4f}  calls/req={rec[2] / n:.3f}")
        if "execplan.execute" in tot:
            rows = tot["execplan.execute"][3] / n
            lines.append(f"trace   {cls:<7} {'execplan.rows_per_query':<38} {rows:12.2f} rows")
        if resp:
            unattributed = np.mean([
                by_req[r]["request"][1] - sum(by_req[r].get(l, [0, 0])[1] for l in RESP_ATTRIBUTED) for r in reqs
            ])
            lines.append(f"trace   {cls:<7} {'rediskv.unattributed_us':<38} {unattributed / 1e3:12.3f} us/req")
            if cls == "point":
                total_rt = float(rt.sum())
                for layer in RESP_ATTRIBUTED:
                    shares[layer] = tot.get(layer, [0, 0])[1] / total_rt * 100
                shares["unattributed"] = unattributed * n / total_rt * 100
        if cls in ("point", "hop2"):
            exe = tot.get("execplan.execute", [0, 0, 0, 0])
            put(f"execplan.execute_us.{cls}", exe[0] / n / 1e3)
            if cls == "hop2":
                put("grblas.kernel_ms.hop2", tot.get("grblas", [0, 0])[1] / n / 1e6)

    plans = window_tot.get("execplan.get_plan", [0, 0, 0, 0])
    put("execplan.get_plan_us", plans[0] / plans[2] / 1e3 if plans[2] else 0.0)
    put("execplan.plan_cache.hit_ratio", plans[3] / plans[2] if plans[2] else 0.0)
    put("execplan.plan_cache.misses", plans[2] - plans[3])
    put("execplan.compile_us", _per_call(all_tot, "execplan.compile", 1e3))
    put("cypher.parse_us", _per_call(all_tot, "cypher.parse", 1e3))
    put("grblas.calls_per_req", window_tot.get("grblas", [0, 0, 0])[2] / max(1, len(requests)))
    put("graph.rwlock.read_wait_us", _per_call(window_tot, "graph.rwlock.read_wait", 1e3))
    put("graph.rwlock.write_wait_us", _per_call(all_tot, "graph.rwlock.write_wait", 1e3))
    put("graph.rwlock.write_hold_us", _per_call(all_tot, "graph.rwlock.write_hold", 1e3))
    put("graph.delta_matrix.flushes", window_tot.get("graph.delta_matrix.flush", [0, 0, 0])[2])
    put("graph.bulk.commit_s", all_tot.get("graph.bulk.commit", [0, 0])[1] / 1e9)
    put("graph.index.build_s", all_tot.get("graph.index.build", [0, 0])[1] / 1e9)
    put("graph.wal.fsyncs", window_tot.get("graph.wal.fsync", [0, 0, 0])[2])
    put("graph.wal.bytes_per_write", extra.get("wal_bytes_per_write", 0.0))
    put("procedures.algo_calls", window_tot.get("procedures.algo", [0, 0, 0])[2])
    reads = [r for r, c in requests if class_of(c) != "write"]
    enc = _totals(by_req, reads, []).get("rediskv.resp.encode", [0, 0, 0, 0])
    put("rediskv.resp.reply_bytes", enc[3] / enc[2] if enc[2] else 0.0)
    put("rediskv.client.codec_pct", shares["rediskv.client.encode"] + shares["rediskv.client.decode"])
    put("rediskv.server.decode_pct", shares["rediskv.server.decode"])
    put("rediskv.threadpool.queue_wait_pct", shares["rediskv.threadpool.queue_wait"])
    put("rediskv.resp.encode_pct", shares["rediskv.resp.encode"])
    put("rediskv.unattributed_pct", shares["unattributed"])
    for name in ("graph.delta_matrix.flush", "graph.wal.append", "graph.wal.fsync", "rediskv.durability.log",
                 "graph.rwlock.write_wait", "graph.rwlock.write_hold", "execplan.compile", "cypher.parse",
                 "procedures.algo", "grblas"):
        rec = window_tot.get(name)
        if rec and rec[2]:
            lines.append(f"trace window {name:<32} calls={rec[2]:<7} mean={rec[1] / rec[2] / 1e3:.3f}us "
                         f"total={rec[1] / 1e6:.3f}ms")
    for name, (value, unit) in metrics.items():
        lines.append(f"layer {name:<36} {value:14.4f} {unit}")
    return metrics, lines
