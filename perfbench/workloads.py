"""The three workloads: their request streams, closed loops and answer checks.

* ``oltp_read``: one RESP connection, 80% ``point`` / 20% ``hop2``.
* ``oltp_mixed``: the same reads on one connection beside single-row
  writes on a second, against a server with a data dir; then a clean
  ``SHUTDOWN``, a restart on the same dir and a durability check.
* ``embedded_mix``: an in-process ``GraphDB`` cycling through seven
  read classes, from point reads to a whole-graph algorithm.

Every loop is closed: a connection sends its next request only after
the previous reply.  Every answer is checked against :mod:`graphgen`.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import shutil
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from graphgen import AGE_RANGE, N_CITIES, Oracle, SocialGraph, WriteLog
from launch import ServerProcess, peak_rss_mb
from tracing import Tracer, now_ns

from repro.api import GraphDB
from repro.errors import ResponseError
from repro.rediskv.client import RedisClient

KEY = "social"
SETUPS = 3  # set-ups per untraced run; setup_s is their median
WARMUP_READS = 300
WARMUP_WRITES = 60
WRITE_INTERVAL_S = 0.005  # the writer sends at most one write per 5 ms
NODE_CHUNK = 8192
EDGE_CHUNK = 65536

INDEX = "CREATE INDEX ON :Person(uid)"
POINT = "MATCH (a:Person {uid: $u})-[:KNOWS]->(b) RETURN b.uid, b.age"
HOP2 = "MATCH (a:Person)-[:KNOWS]->(:Person)-[:KNOWS]->(c) WHERE a.uid = $u RETURN count(DISTINCT c)"
# khop3/varlen exclude the seed (c <> s), as the paper's k-hop count does
KHOP3 = "MATCH (s:Person)-[:KNOWS*1..3]->(c) WHERE s.uid = $u AND c <> s RETURN count(DISTINCT c)"
VARLEN = "MATCH (s:Person)-[:KNOWS*1..2]->(c) WHERE s.uid IN $us AND c <> s RETURN count(DISTINCT c)"
AGG = "MATCH (p:Person) RETURN p.city, count(p), sum(p.age)"
ALGO = "CALL algo.wcc() YIELD componentId RETURN count(DISTINCT componentId)"
ADHOC = "MATCH (a:Person {uid: %d})-[:KNOWS]->(b) RETURN b.uid, b.age"
W_EDGE = "MATCH (a:Person {uid: $a}), (b:Person {uid: $b}) CREATE (a)-[:KNOWS]->(b)"
W_SET = "MATCH (a:Person {uid: $u}) SET a.age = $age"
W_CREATE = "CREATE (:Person {uid: $u, city: $city, age: $age})"
W_STAT = {"edge": "Relationships created: 1", "set": "Properties set: 1", "create": "Nodes created: 1"}

READ_MIX = {"point": 4, "hop2": 1}  # per block of five reads: 80% / 20%
KEY_STRATA = 100
# one embedded cycle: class -> requests per cycle (shuffled per cycle)
EMBEDDED_CYCLE = {"point": 400, "hop2": 200, "adhoc": 60, "khop3": 4, "varlen": 1, "agg": 2, "algo": 1}
EMBEDDED_WARMUP = {"point": 20, "hop2": 5, "adhoc": 5, "khop3": 1, "agg": 1}
VARLEN_SOURCES = 32


class Failures:
    """Failed or wrong operations, with the first few described."""

    def __init__(self) -> None:
        self.count = 0
        self.examples: List[str] = []
        self._lock = threading.Lock()

    def add(self, what: str) -> None:
        with self._lock:
            self.count += 1
            if len(self.examples) < 5:
                self.examples.append(what)


class Run:
    """State shared by one benchmark invocation."""

    def __init__(self, seed: int, seconds: float, work: Path, scale: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.graph = SocialGraph(seed, scale)
        self.oracle = Oracle(self.graph)
        self.columns = self.graph.node_columns()
        self.failures = Failures()
        self.attempted = 0
        self._cache: Dict[tuple, Any] = {}
        self._dirs = itertools.count()

    def fresh_dir(self, stem: str) -> Path:
        return self.work / f"{stem}{next(self._dirs)}"

    def expected(self, cls: str, arg) -> Any:
        key = (cls, arg if not isinstance(arg, list) else tuple(arg))
        if key not in self._cache:
            o = self.oracle
            if cls in ("point", "adhoc"):
                value = o.point(arg)
            elif cls == "hop2":
                value = o.hop2(arg)
            elif cls == "khop3":
                value = o.khop(arg, 3)
            elif cls == "varlen":
                value = o.varlen(arg, 2)
            elif cls == "agg":
                value = o.agg()
            else:
                value = o.wcc()
            self._cache[key] = value
        return self._cache[key]


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------
def query_for(g: SocialGraph, cls: str, arg) -> Tuple[str, Optional[dict]]:
    if cls == "point":
        return POINT, {"u": int(g.uid[arg])}
    if cls == "hop2":
        return HOP2, {"u": int(g.uid[arg])}
    if cls == "adhoc":
        return ADHOC % int(g.uid[arg]), None
    if cls == "khop3":
        return KHOP3, {"u": int(g.uid[arg])}
    if cls == "varlen":
        return VARLEN, {"us": [int(g.uid[a]) for a in arg]}
    if cls == "agg":
        return AGG, None
    return ALGO, None


def answer_of(cls: str, rows: List[tuple]) -> Any:
    """The comparable form of a read's rows."""
    if cls in ("point", "adhoc"):
        return sorted((int(r[0]), int(r[1])) for r in rows)
    if cls == "agg":
        return {r[0]: (int(r[1]), int(r[2])) for r in rows}
    return int(rows[0][0]) if len(rows) == 1 else None


def compact(cls: str, result) -> Any:
    """What a record keeps of a read: its answer, or the exception.
    Records hold no result objects, so the loop's own garbage stays
    small and the collector does not pause the timed requests."""
    if isinstance(result, Exception):
        return result
    try:
        return answer_of(cls, result.rows)
    except (TypeError, ValueError, IndexError) as exc:
        return exc


def key_draws(g: SocialGraph, rng: np.random.Generator):
    """Endless key persons, each equally likely, drawn stratified: the
    key persons are ranked by the size of their 2-hop expansion and cut
    into ``KEY_STRATA`` equal strata, and every block of ``KEY_STRATA``
    draws takes one key from each.  Every run then sees the same share
    of hub keys, whose few requests would otherwise swing its figures."""
    ranked = g.key_nodes[np.argsort(g.two_hop_size[g.key_nodes], kind="stable")]
    strata = np.array_split(ranked, KEY_STRATA)
    while True:
        block = [int(s[rng.integers(len(s))]) for s in strata]
        rng.shuffle(block)
        yield from block


def read_stream(g: SocialGraph, seed: int):
    """Endless seeded ``oltp`` reads: (class, node)."""
    rng = np.random.default_rng([seed, 2])
    keys = {c: key_draws(g, np.random.default_rng([seed, 2, i])) for i, c in enumerate(READ_MIX)}
    block = [c for c, k in READ_MIX.items() for _ in range(k)]
    while True:
        rng.shuffle(block)
        for cls in block:
            yield cls, next(keys[cls])


def write_stream(g: SocialGraph, seed: int):
    """Endless seeded single-row writes.  New edges join two persons
    not yet connected, so the edge set stays simple."""
    rng = np.random.default_rng([seed, 3])
    created = set()
    next_uid = g.n
    indptr, indices = g.csr.indptr, g.csr.indices
    while True:
        kind = ("edge", "set", "create")[int(rng.integers(3))]
        if kind == "edge":
            while True:
                a = int(g.key_nodes[rng.integers(len(g.key_nodes))])
                b = int(rng.integers(g.n))
                row = indices[indptr[a] : indptr[a + 1]]
                pos = np.searchsorted(row, b)
                if a != b and (a, b) not in created and not (pos < len(row) and row[pos] == b):
                    created.add((a, b))
                    yield ("edge", a, b)
                    break
        elif kind == "set":
            node = int(g.key_nodes[rng.integers(len(g.key_nodes))])
            yield ("set", node, int(rng.integers(*AGE_RANGE)))
        else:
            yield ("create", next_uid, g.city_name(int(rng.integers(N_CITIES))), int(rng.integers(*AGE_RANGE)))
            next_uid += 1


def write_query(g: SocialGraph, write: tuple) -> Tuple[str, dict]:
    if write[0] == "edge":
        return W_EDGE, {"a": int(g.uid[write[1]]), "b": int(g.uid[write[2]])}
    if write[0] == "set":
        return W_SET, {"u": int(g.uid[write[1]]), "age": write[2]}
    return W_CREATE, {"u": write[1], "city": write[2], "age": write[3]}


def embedded_stream(g: SocialGraph, seed: int):
    """Endless seeded ``embedded_mix`` cycles: (class, argument)."""
    rng = np.random.default_rng([seed, 4])
    adhoc_nodes = itertools.cycle(rng.permutation(g.key_nodes).tolist())  # a distinct text each time
    keys = {c: key_draws(g, np.random.default_rng([seed, 4, i])) for i, c in enumerate(("point", "hop2", "khop3"))}
    while True:
        cycle = [c for c, k in EMBEDDED_CYCLE.items() for _ in range(k)]
        rng.shuffle(cycle)
        for cls in cycle:
            if cls == "adhoc":
                yield cls, next(adhoc_nodes)
            elif cls == "varlen":
                picks = rng.choice(len(g.key_nodes), VARLEN_SOURCES, replace=False)
                yield cls, sorted(int(x) for x in g.key_nodes[picks])
            elif cls in ("agg", "algo"):
                yield cls, None
            else:
                yield cls, next(keys[cls])


# ---------------------------------------------------------------------------
# RESP side
# ---------------------------------------------------------------------------
class Conn:
    """One RESP connection.  Numbers its ``GRAPH.*`` requests in the same
    per-command sequences as the traced server."""

    def __init__(self, port: int, seqs: dict, tracer: Optional[Tracer] = None) -> None:
        self.client = RedisClient(port=port, timeout=120.0)
        self.seqs = seqs
        self.tracer = tracer

    def send(self, command: str, text: str, params: Optional[dict]):
        """(result, send ns, reply ns); ``result`` is an exception on failure."""
        tag = "RO" if command == "GRAPH.RO_QUERY" else "Q"
        req = f"{tag}:{next(self.seqs[tag])}"
        call = self.client.graph_ro_query if tag == "RO" else self.client.graph_query
        if self.tracer is not None:
            self.tracer.set_req(req)
        t0 = now_ns()
        try:
            result = call(KEY, text, params)
        except ResponseError as exc:
            result = exc
        t1 = now_ns()
        if self.tracer is not None:
            self.tracer.record("request", t0, t1, req)
            self.tracer.set_req(None)
        return result, t0, t1, req

    def close(self) -> None:
        self.client.close()


def new_seqs() -> dict:
    return {"RO": itertools.count(), "Q": itertools.count()}


def bulk_load_resp(client: RedisClient, run: Run) -> None:
    g = run.graph
    token = client.graph_bulk_begin(KEY)
    for lo in range(0, g.n, NODE_CHUNK):
        hi = min(lo + NODE_CHUNK, g.n)
        client.graph_bulk_nodes(
            KEY, token, count=hi - lo, labels=["Person"],
            properties={k: v[lo:hi] for k, v in run.columns.items()},
        )
    for lo in range(0, g.m, EDGE_CHUNK):
        client.graph_bulk_edges(KEY, token, "KNOWS", g.src[lo : lo + EDGE_CHUNK].tolist(), g.dst[lo : lo + EDGE_CHUNK].tolist())
    client.graph_bulk_commit(KEY, token)


def check_read(run: Run, cls: str, arg, got, expected=None) -> bool:
    """``got`` is a read's answer (see :func:`compact`) or its exception."""
    run.attempted += 1
    if isinstance(got, Exception):
        run.failures.add(f"{cls}({arg}): error {got}")
        return False
    want = run.expected(cls, arg) if expected is None else expected
    if got != want:
        run.failures.add(f"{cls}({arg}): got {str(got)[:120]} want {str(want)[:120]}")
        return False
    return True


class ServerSession:
    """A server with the graph loaded and indexed, and its connections."""

    def __init__(self, run: Run, data_dir: Optional[Path], trace_out: Optional[Path] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.seqs = new_seqs()
        t0 = now_ns()
        self.server = ServerProcess(run.work, data_dir=data_dir, trace_out=trace_out).start()
        try:
            self.conn = Conn(self.server.port, self.seqs, tracer)
            bulk_load_resp(self.conn.client, run)
            result, *_ = self.conn.send("GRAPH.QUERY", INDEX, None)
            if isinstance(result, Exception):
                raise result
            node = int(run.graph.key_nodes[0])
            result, *_ = self.conn.send("GRAPH.RO_QUERY", *query_for(run.graph, "point", node))
            self.setup_s = (now_ns() - t0) / 1e9
            check_read(run, "point", node, compact("point", result))
        except BaseException:
            self.server.kill()
            raise

    def shutdown(self) -> None:
        self.server.shutdown(self.conn.client)
        self.conn.close()

    def kill(self) -> None:
        self.conn.close()
        self.server.kill()


def read_loop(run: Run, conn: Conn, reads, t_end: int, out: list, limit: Optional[int] = None) -> None:
    g = run.graph
    while now_ns() < t_end and (limit is None or len(out) < limit):
        cls, node = next(reads)
        result, t0, t1, req = conn.send("GRAPH.RO_QUERY", *query_for(g, cls, node))
        out.append((cls, node, t0, t1, req, compact(cls, result)))


def write_loop(run: Run, conn: Conn, writes, wlog: WriteLog, t_end: int, out: list,
               limit: Optional[int] = None) -> None:
    """Writes, each sent at least ``WRITE_INTERVAL_S`` after the previous
    one was sent and only after its reply: a paced closed loop."""
    g = run.graph
    while now_ns() < t_end and (limit is None or len(out) < limit):
        write = next(writes)
        wlog.record(write)
        result, t0, t1, req = conn.send("GRAPH.QUERY", *write_query(g, write))
        if not isinstance(result, Exception):
            result = True if W_STAT[write[0]] in result.statistics else tuple(result.statistics)
        out.append((write[0], write, t0, t1, req, result))
        pause = t0 + WRITE_INTERVAL_S * 1e9 - now_ns()
        if pause > 0:
            time.sleep(pause / 1e9)


def check_writes(run: Run, records: list) -> None:
    for kind, write, _, _, _, result in records:
        run.attempted += 1
        if isinstance(result, Exception):
            run.failures.add(f"write {write}: error {result}")
        elif result is not True:
            run.failures.add(f"write {write}: statistics {result}")


def check_mixed_reads(run: Run, reads: list, writes: list, wlog: WriteLog) -> None:
    """A read may see any prefix of the write sequence from the writes
    acknowledged before it was sent to the writes sent before its reply."""
    acked = [w[3] for w in writes]
    sent = [w[2] for w in writes]
    for cls, node, t0, t1, _, got in reads:
        lo = bisect.bisect_left(acked, t0)
        hi = bisect.bisect_left(sent, t1)
        if isinstance(got, Exception):
            check_read(run, cls, node, got)
            continue
        for k in range(lo, hi + 1):
            if got == (wlog.point(node, k) if cls == "point" else wlog.hop2(node, k)):
                run.attempted += 1
                break
        else:
            check_read(run, cls, node, got, expected=wlog.point(node, lo) if cls == "point" else wlog.hop2(node, lo))


def check_durable(run: Run, conn: Conn, wlog: WriteLog) -> None:
    """After restart every acknowledged write is readable: created
    edges, final property values and new persons."""
    g = run.graph
    created = wlog.created
    sources = sorted({a for a in wlog.extra_out})
    ages = wlog.final_ages()
    checks = [
        ("persons", "MATCH (p:Person) RETURN count(p)", None, lambda r: r.rows == [(g.n + len(created),)]),
        ("edges", "MATCH (:Person)-[r:KNOWS]->(:Person) RETURN count(r)", None,
         lambda r: r.rows == [(g.m + sum(len(v) for v in wlog.extra_out.values()),)]),
        ("new persons", "MATCH (p:Person) WHERE p.uid >= $n RETURN p.uid, p.city, p.age", {"n": g.n},
         lambda r: sorted(r.rows) == sorted(created)),
    ]
    if sources:
        want_edges = wlog.final_edges(sources)
        checks.append((
            "created edges", "MATCH (a:Person)-[:KNOWS]->(b) WHERE a.uid IN $us RETURN a.uid, b.uid",
            {"us": [int(g.uid[a]) for a in sources]},
            lambda r: Counter((int(a), int(b)) for a, b in r.rows) == want_edges,
        ))
    if ages:
        checks.append((
            "set ages", "MATCH (p:Person) WHERE p.uid IN $us RETURN p.uid, p.age", {"us": sorted(ages)},
            lambda r: dict(r.rows) == ages,
        ))
    for what, text, params, ok in checks:
        result, *_ = conn.send("GRAPH.RO_QUERY", text, params)
        run.attempted += 1
        if isinstance(result, Exception) or not ok(result):
            run.failures.add(f"durability: {what} after restart: {str(result)[:200]}")


def wal_bytes(data_dir: Path) -> int:
    return sum(p.stat().st_size for p in (data_dir / "wal").iterdir() if p.is_file())


def combine(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One run's result from its sessions (each measured for a share of the window)."""
    writes = sum(len(p["writes"]) for p in parts)
    return {
        "setup_times": [p["setup_s"] for p in parts],
        "reads": [r for p in parts for r in p["reads"]],
        "writes": [w for p in parts for w in p["writes"]],
        "window": parts[-1]["window"],
        "window_s": sum((p["window"][1] - p["window"][0]) / 1e9 for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "recovery_s": next((p["recovery_s"] for p in parts if "recovery_s" in p), None),
        "replayed_writes": next((p["n_writes"] for p in parts if "recovery_s" in p), 0),
        "wal_bytes_per_write": sum(p.get("wal_bytes", 0) for p in parts) / max(1, writes),
        "db": parts[-1].get("db"),
    }


def run_resp(run: Run, mixed: bool, setups: int, trace_out: Optional[Path] = None,
             tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """``setups`` fresh servers, each set up and then measured for an
    equal share of the window, so one run does not hinge on one
    process's thread placement."""
    streams = (read_stream(run.graph, run.seed), write_stream(run.graph, run.seed))
    parts = []
    for i in range(setups):
        data_dir = run.fresh_dir("data") if mixed else None
        session = ServerSession(run, data_dir, trace_out=trace_out, tracer=tracer)
        restart = tracer is None and i == setups - 1
        try:
            parts.append(_measure_resp(run, session, streams, data_dir, run.seconds / setups, tracer, restart))
        except BaseException:
            session.kill()
            raise
    return combine(parts)


def _measure_resp(run, session, streams, data_dir, seconds, tracer, restart) -> Dict[str, Any]:
    g = run.graph
    reads_src, writes_src = streams
    far = now_ns() + 10**15
    warm: list = []
    read_loop(run, session.conn, reads_src, far, warm, limit=WARMUP_READS)
    out: Dict[str, Any] = {"setup_s": session.setup_s}
    reads: list = []
    if data_dir is None:
        t_start = now_ns()
        read_loop(run, session.conn, reads_src, t_start + int(seconds * 1e9), reads)
        t_stop = now_ns()
        out["peak_rss_mb"] = session.server.peak_rss_mb()
        session.shutdown()
        for cls, node, _, _, _, got in warm + reads:
            check_read(run, cls, node, got)
        out.update(reads=reads, writes=[], window=(t_start, t_stop))
        return out

    wlog = WriteLog(g)
    wconn = Conn(session.server.port, session.seqs, tracer)
    warm_writes: list = []
    try:
        write_loop(run, wconn, writes_src, wlog, far, warm_writes, limit=WARMUP_WRITES)
        wal_before = wal_bytes(data_dir)
        writes: list = []
        t_start = now_ns()
        t_end = t_start + int(seconds * 1e9)
        writer = threading.Thread(target=write_loop, args=(run, wconn, writes_src, wlog, t_end, writes),
                                  name="bench-writer", daemon=True)
        writer.start()
        read_loop(run, session.conn, reads_src, t_end, reads)
        writer.join()
        t_stop = now_ns()
        out["wal_bytes"] = wal_bytes(data_dir) - wal_before
    finally:
        wconn.close()
    out["peak_rss_mb"] = session.server.peak_rss_mb()
    session.shutdown()
    all_writes = warm_writes + writes
    check_writes(run, all_writes)
    check_mixed_reads(run, warm + reads, all_writes, wlog)
    out.update(reads=reads, writes=writes, window=(t_start, t_stop), n_writes=len(all_writes))
    if restart:
        # restart on the same data dir: recovery time, then durability
        t0 = now_ns()
        with ServerProcess(run.work, data_dir=data_dir) as server:
            conn = Conn(server.port, new_seqs())
            node = int(g.key_nodes[0])
            result, *_ = conn.send("GRAPH.RO_QUERY", *query_for(g, "point", node))
            out["recovery_s"] = (now_ns() - t0) / 1e9
            check_read(run, "point", node, compact("point", result), expected=wlog.point(node, len(wlog.writes)))
            check_durable(run, conn, wlog)
            server.shutdown(conn.client)
            conn.close()
    shutil.rmtree(data_dir)
    return out


# ---------------------------------------------------------------------------
# embedded side
# ---------------------------------------------------------------------------
def embedded_setup(run: Run) -> Tuple[GraphDB, float]:
    g = run.graph
    t0 = now_ns()
    db = GraphDB(KEY)
    db.bulk_insert(
        nodes=[{"labels": ["Person"], "count": g.n, "properties": run.columns}],
        edges=[{"type": "KNOWS", "src": g.src, "dst": g.dst}],
    )
    db.query(INDEX)
    node = int(g.key_nodes[0])
    result = db.query(*query_for(g, "point", node))
    setup_s = (now_ns() - t0) / 1e9
    check_read(run, "point", node, compact("point", result))
    return db, setup_s


def embedded_loop(run: Run, db: GraphDB, stream, t_end: int, out: list, tracer: Optional[Tracer] = None,
                  limit: Optional[int] = None) -> None:
    g = run.graph
    seq = itertools.count(len(out))
    while now_ns() < t_end and (limit is None or len(out) < limit):
        cls, arg = next(stream)
        text, params = query_for(g, cls, arg)
        req = f"E:{next(seq)}"
        if tracer is not None:
            tracer.set_req(req)
        t0 = now_ns()
        try:
            result = db.query(text, params)
        except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
            result = exc
        t1 = now_ns()
        if tracer is not None:
            tracer.record("request", t0, t1, req)
            tracer.set_req(None)
        out.append((cls, arg, t0, t1, req, compact(cls, result)))


def embedded_warmup(g: SocialGraph, seed: int):
    """A few requests of each cheap class: plan cache and lazy state
    filled before timing (the heavy classes' compile is negligible)."""
    rng = np.random.default_rng([seed, 6])
    for cls, count in EMBEDDED_WARMUP.items():
        for _ in range(count):
            yield cls, int(g.key_nodes[rng.integers(len(g.key_nodes))]) if cls != "agg" else None


def run_embedded(run: Run, setups: int, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
    """``setups`` fresh graphs in this process, each measured for an
    equal share of the window."""
    stream = embedded_stream(run.graph, run.seed)
    parts = []
    db = None
    for _ in range(setups):
        db = None  # drop the previous graph before building the next
        gc.collect()
        db, setup_s = embedded_setup(run)
        warm: list = []
        embedded_loop(run, db, embedded_warmup(run.graph, run.seed), now_ns() + 10**15, warm,
                      limit=sum(EMBEDDED_WARMUP.values()))
        reads: list = []
        t_start = now_ns()
        embedded_loop(run, db, stream, t_start + int(run.seconds / setups * 1e9), reads, tracer=tracer)
        t_stop = now_ns()
        for cls, arg, _, _, _, got in warm + reads:
            check_read(run, cls, arg, got)
        parts.append({"setup_s": setup_s, "reads": reads, "writes": [], "window": (t_start, t_stop),
                      "peak_rss_mb": peak_rss_mb("self")})
    parts[-1]["db"] = db  # kept for the PROFILE sample of a traced run
    return combine(parts)
