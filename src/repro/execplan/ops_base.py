"""Plan-operation base class and trivial leaves.

Operations form a tree evaluated Volcano-style at *batch* granularity:
``produce_batches(ctx)`` returns a fresh generator of
:class:`~repro.execplan.batch.RecordBatch` columnar batches, and
``produce(ctx)`` the equivalent row stream.  Both must be re-invocable
(Apply-style operators re-run their subtree once per outer record) **and
re-entrant across threads**: compiled plans are cached and shared (see
:mod:`repro.execplan.plan_cache`), so an operation object may be executed
by many concurrent readers at once.  Subclasses therefore implement
``_produce_batches`` (batch-native operators) or ``_produce``
(row-oriented operators — updates, Apply subplans) with all state in
generator locals or in the per-run :class:`~repro.execplan.expressions.
ExecContext` — never on the operation object; the base class derives the
missing form automatically (rows are chunked into ``ctx.batch_size``
batches, batches explode into rows), so batch-native and row operators
compose freely in one tree.  The public ``produce``/``produce_batches``
wrappers are also where per-run PROFILE metering attaches
(``ctx.profile``), so profiling never mutates a cached plan.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional

from repro.execplan.batch import RecordBatch
from repro.execplan.expressions import ExecContext
from repro.execplan.record import Layout, Record

__all__ = ["PlanOp", "Unit", "Argument"]

_argument_ids = itertools.count()


class PlanOp:
    """Base plan operation."""

    name: str = "Op"

    def __init__(self, children: List["PlanOp"], out_layout: Layout) -> None:
        self.children = children
        self.out_layout = out_layout

    def produce(self, ctx: ExecContext) -> Iterator[Record]:
        """The operation's record stream for one execution (metered when
        the run profiles).  Final: subclasses implement ``_produce`` or
        ``_produce_batches``."""
        gen = self._produce(ctx)
        if ctx.profile is not None:
            return ctx.profile.wrap(self, gen)
        return gen

    def produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        """The operation's columnar batch stream for one execution
        (metered when the run profiles)."""
        gen = self._produce_batches(ctx)
        if ctx.profile is not None:
            return ctx.profile.wrap_batches(self, gen)
        return gen

    # Exactly one of the following is overridden by each concrete
    # operation; the other derives from it.  The derivations call the
    # *private* sibling so a pull is metered once, at the public entry
    # the parent actually used.
    def _produce(self, ctx: ExecContext) -> Iterator[Record]:
        for batch in self._produce_batches(ctx):
            yield from batch.iter_rows()

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        size = ctx.batch_size
        layout = self.out_layout
        rows: List[Record] = []
        for record in self._produce(ctx):
            rows.append(record)
            if len(rows) >= size:
                yield RecordBatch.from_rows(layout, rows)
                rows = []
        if rows:
            yield RecordBatch.from_rows(layout, rows)

    # -- morsel parallelism ----------------------------------------------
    def partitions(self, ctx: ExecContext) -> Optional[List[Callable[[], Iterator[RecordBatch]]]]:
        """Split this operation's batch stream into independent morsel
        thunks, each a zero-argument callable returning the batches of
        one disjoint slice — concatenated in list order they must equal
        the serial ``produce_batches`` stream exactly.  Returns None when
        the operation (or the subtree below it) cannot partition; the
        caller then falls back to the serial stream.  Final: subclasses
        implement ``_partitions``."""
        if ctx.driver is None:
            return None
        parts = self._partitions(ctx)
        if parts is None:
            return None
        if ctx.profile is not None:
            profile = ctx.profile
            parts = [
                (lambda t=t: profile.wrap_partition(self, t())) for t in parts
            ]
        return parts

    def _partitions(self, ctx: ExecContext) -> Optional[List[Callable[[], Iterator[RecordBatch]]]]:
        return None

    def child_stream(self, ctx: ExecContext, index: int = 0) -> Iterator[RecordBatch]:
        """The child's batch stream, evaluated morsel-parallel when the
        run has a driver and the child can partition — the entry point
        stateful operators (Aggregate, Sort, Results, ...) use instead of
        calling ``produce_batches`` directly."""
        child = self.children[index]
        if ctx.driver is not None:
            stream = ctx.driver.stream(child, ctx)
            if stream is not None:
                return stream
        return child.produce_batches(ctx)

    # -- plan rendering --------------------------------------------------
    def describe(self) -> str:
        """One-line description used by EXPLAIN/PROFILE."""
        return self.name

    def tree_lines(self, indent: int = 0, *, profile=None) -> List[str]:
        """The indented plan tree; ``profile`` is the run's ProfileRun
        (or None for a bare EXPLAIN)."""
        line = "    " * indent + self.describe()
        est = getattr(self, "est_rows", None)
        if est is not None:
            # cost-based planning: the estimate the plan was priced with;
            # under PROFILE it sits next to the actual Records produced.
            # A positive estimate shows as at least 1: "0" would claim an
            # operator that may well produce rows produces none
            shown = int(round(est))
            line += f" | est_rows: {max(shown, 1) if est > 0 else shown}"
        if profile is not None:
            line += profile.suffix(self)
        lines = [line]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1, profile=profile))
        return lines


class Unit(PlanOp):
    """Produces exactly one empty record — the leaf under a bare CREATE."""

    name = "Unit"

    def __init__(self) -> None:
        super().__init__([], Layout())

    def _produce(self, ctx: ExecContext) -> Iterator[Record]:
        yield self.out_layout.new_record()


class Argument(PlanOp):
    """Leaf that replays a seeded record — the entry point of Apply-style
    subplans (OPTIONAL MATCH / MERGE match arms), as in RedisGraph.

    The seed lives in ``ctx.args`` keyed by this Argument's compile-time
    id, NOT on the operation: concurrent executions of one cached plan
    each seed their own context.
    """

    name = "Argument"

    def __init__(self, layout: Layout) -> None:
        super().__init__([], layout)
        self._arg_id = next(_argument_ids)

    def seed(self, ctx: ExecContext, record: Record) -> None:
        ctx.args[self._arg_id] = record

    def _produce(self, ctx: ExecContext) -> Iterator[Record]:
        record: Optional[Record] = ctx.args.get(self._arg_id)
        assert record is not None, "Argument not seeded"
        yield list(record)
