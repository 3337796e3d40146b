"""Span tracing for the benchmark's traced runs, installed from outside the program.

Each wrapper replaces one public function or method of a ``repro``
module with a version that records a span around the original call:
name, start, end, the span that caused it, and the request it belongs
to.  Spans of one request share a request id.  Requests over RESP are
numbered per command (``RO:n`` for the n-th ``GRAPH.RO_QUERY`` the server
parsed, ``Q:n`` for ``GRAPH.QUERY``), which is their order on the one
connection that sends that command; the client numbers the requests it
sends the same way, so server and client spans of a request line up.

Spans stay in memory.  :meth:`Tracer.summary` folds them, per request,
into per-layer self time (a span's duration minus the part of it its
child spans cover), inclusive time, call count and a per-call value
(rows, bytes, cache hits).  Nothing here is imported by the program
under test, and an untraced run installs nothing.
"""

from __future__ import annotations

import functools
import itertools
import re
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

now_ns = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes

GRBLAS_ENTRY_POINTS = {
    "Matrix": ("mxm", "mxv", "ewise_add", "ewise_mult", "reduce_rows", "reduce_cols", "reduce_scalar"),
    "Vector": ("vxm", "ewise_add", "ewise_mult", "reduce"),
}


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        # (span id, name, start ns, end ns, parent span id, request id, value)
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_req(self) -> Optional[str]:
        return getattr(self._local, "req", None)

    def set_req(self, req: Optional[str]) -> None:
        self._local.req = req

    # -- recording -------------------------------------------------------
    def record(self, name: str, start: int, end: int, req: Optional[str], value: Any = None) -> None:
        """A span off the call stack (nothing nests in it)."""
        self.spans.append((next(self._ids), name, start, end, 0, req, value))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, value_of=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        start = now_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = now_ns()
            stack.pop()
            value = value_of(result) if value_of is not None and result is not None else None
            self.spans.append((sid, name, start, end, parent, self.current_req(), value))

    # -- patching ----------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, value_of=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, value_of)

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding -----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """``by_req``: request id -> layer -> [self ns, incl ns, calls, value sum];
        ``loose``: [name, start, end, self ns, value] of spans outside any request."""
        spans = list(self.spans)
        name_of = {s[0]: s[1] for s in spans}
        covered: Dict[int, int] = defaultdict(int)
        for sid, name, start, end, parent, req, value in spans:
            if parent:
                covered[parent] += end - start
        by_req: Dict[str, Dict[str, list]] = defaultdict(dict)
        loose = []
        for sid, name, start, end, parent, req, value in spans:
            self_ns = end - start - covered.get(sid, 0)
            if req is None:
                loose.append([name, start, end, self_ns, value])
                continue
            rec = by_req[req].setdefault(name, [0, 0, 0, 0])
            rec[0] += self_ns
            if name_of.get(parent) != name:  # count outermost calls of a layer once
                rec[1] += end - start
                rec[2] += 1
            rec[3] += value or 0
        return {"by_req": dict(by_req), "loose": loose}


def _rows(result) -> int:
    return len(result.rows)


def install_engine(tracer: Tracer) -> None:
    """Wrappers on the layers every workload runs through: plan cache,
    compile, parse, execute, locks, delta matrices, bulk load, index
    build, write-ahead log, procedures and GraphBLAS entry points."""
    import repro.execplan.compiled as compiled_mod
    import repro.execplan.executor as executor_mod
    import repro.graph.wal as wal_mod
    import repro.procedures.algos as algos_mod
    from repro.graph.bulk import BulkWriter
    from repro.graph.delta_matrix import DeltaMatrix
    from repro.graph.graph import Graph
    from repro.graph.rwlock import RWLock
    from repro.graph.wal import WriteAheadLog
    from repro.grblas.matrix import Matrix
    from repro.grblas.vector import Vector

    engine = executor_mod.QueryEngine
    tracer.wrap(engine, "get_plan", "execplan.get_plan", value_of=lambda r: 1 if r[1] else 0)
    tracer.wrap(engine, "execute", "execplan.execute", value_of=_rows)
    tracer.wrap(executor_mod, "compile_query", "execplan.compile")
    tracer.wrap(compiled_mod, "parse", "cypher.parse")

    tracer.wrap(RWLock, "acquire_read", "graph.rwlock.read_wait")
    acquire_write = RWLock.__dict__["acquire_write"]
    release_write = RWLock.__dict__["release_write"]

    def traced_acquire_write(lock):
        tracer.call("graph.rwlock.write_wait", acquire_write, (lock,), {})
        tracer._local.hold_start = now_ns()

    def traced_release_write(lock):
        start = getattr(tracer._local, "hold_start", None)
        if start is not None:
            tracer.record("graph.rwlock.write_hold", start, now_ns(), tracer.current_req())
            tracer._local.hold_start = None
        release_write(lock)

    tracer.patch(RWLock, "acquire_write", traced_acquire_write)
    tracer.patch(RWLock, "release_write", traced_release_write)

    flush = DeltaMatrix.__dict__["flush"]

    def traced_flush(matrix):
        if not matrix.dirty:  # a no-op flush is not a flush
            return flush(matrix)
        return tracer.call("graph.delta_matrix.flush", flush, (matrix,), {})

    tracer.patch(DeltaMatrix, "flush", traced_flush)
    tracer.wrap(BulkWriter, "commit", "graph.bulk.commit")
    tracer.wrap(Graph, "create_index", "graph.index.build")
    tracer.wrap(WriteAheadLog, "append", "graph.wal.append")
    tracer.patch(wal_mod, "os", _FsyncTimer(tracer, wal_mod.os))
    for fn in ("connected_components", "pagerank"):
        tracer.wrap(algos_mod, fn, "procedures.algo")
    for cls in (Matrix, Vector):
        for method in GRBLAS_ENTRY_POINTS[cls.__name__]:
            tracer.wrap(cls, method, "grblas")


class _FsyncTimer:
    """Stands in for ``os`` inside the write-ahead-log module: times
    ``fsync`` and passes every other name through."""

    def __init__(self, tracer: Tracer, real_os) -> None:
        self._real = real_os

        def fsync(fd):
            return tracer.call("graph.wal.fsync", real_os.fsync, (fd,), {})

        self.fsync = fsync

    def __getattr__(self, name: str):
        return getattr(self._real, name)


def install_server(tracer: Tracer) -> None:
    """Server-side wrappers: RESP decode on the I/O thread (which also
    numbers the request), pool queue wait, the graph command, parameter
    parsing, reply encoding and the durability append."""
    import repro.rediskv.graph_module as gm
    import repro.rediskv.server as server_mod
    from repro.rediskv.durability import DurabilityManager
    from repro.rediskv.resp import RespParser
    from repro.rediskv.threadpool import ThreadPool

    sequences = {"GRAPH.RO_QUERY": ("RO", itertools.count()), "GRAPH.QUERY": ("Q", itertools.count())}
    parse_one = RespParser.__dict__["parse_one"]

    def traced_parse_one(parser):
        start = now_ns()
        result = parse_one(parser)
        end = now_ns()
        if isinstance(result, list) and result:
            tag = sequences.get(str(result[0]).upper())
            tracer.set_req(f"{tag[0]}:{next(tag[1])}" if tag else None)
        tracer.record("rediskv.server.decode", start, end, tracer.current_req())
        return result

    tracer.patch(RespParser, "parse_one", traced_parse_one)

    submit = ThreadPool.__dict__["submit"]

    def traced_submit(pool, fn, *args, callback=None):
        req = tracer.current_req()
        submitted = now_ns()

        def job(*job_args):
            tracer.set_req(req)
            tracer.record("rediskv.threadpool.queue_wait", submitted, now_ns(), req)
            try:
                return fn(*job_args)
            finally:
                tracer.set_req(None)

        return submit(pool, job, *args, callback=callback)

    tracer.patch(ThreadPool, "submit", traced_submit)
    tracer.wrap(gm.GraphModule, "query", "rediskv.graph_module.cmd")
    tracer.wrap(gm.GraphModule, "ro_query", "rediskv.graph_module.cmd")
    tracer.wrap(gm, "parse_cypher_params", "rediskv.graph_module.param_parse")
    tracer.wrap(server_mod, "encode", "rediskv.resp.encode", value_of=len)
    tracer.wrap(DurabilityManager, "log_query", "rediskv.durability.log")
    install_engine(tracer)


def install_client(tracer: Tracer) -> None:
    """Client-side wrappers in the benchmark process: request encoding,
    reply decoding and the ``GraphResult`` rebuild."""
    import repro.rediskv.client as client_mod
    from repro.rediskv.resp import RespParser

    tracer.wrap(client_mod, "encode", "rediskv.client.encode")
    tracer.wrap(RespParser, "parse_one", "rediskv.client.decode")
    tracer.wrap(client_mod.GraphResult, "__init__", "rediskv.client.decode")


_PROFILE_LINE = re.compile(r"^( *)(\w+) \|.*Execution time: ([0-9.]+) ms")


def operator_self_ms(profile: str) -> Dict[str, float]:
    """Self time per operator from a ``GraphDB.profile`` report, whose
    per-operator times include their children's."""
    parsed = []
    for line in profile.splitlines():
        match = _PROFILE_LINE.match(line)
        if match:
            parsed.append((len(match.group(1)), match.group(2), float(match.group(3))))
    out: Dict[str, float] = defaultdict(float)
    for i, (depth, name, ms) in enumerate(parsed):
        child_ms = 0.0
        for d, _, c_ms in parsed[i + 1 :]:
            if d <= depth:
                break
            if d == depth + 4:
                child_ms += c_ms
        out[name] += ms - child_ms
    return dict(out)
