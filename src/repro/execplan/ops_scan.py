"""Scan operations: the leaves that put nodes into the record stream.

Batch-native: a childless scan slices its id vector (label-matrix
diagonal, DataBlock slot array, index postings) straight into
:class:`~repro.execplan.batch.EntityColumn` batches — no per-row record
lists, no per-row ``Node`` handle construction.  Scans extending a child
stream (correlated / cross-product forms) repeat the child batch
columnarly (``np.repeat`` × ``np.tile``) in the same record-major order
the row engine produced.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import CypherTypeError
from repro.execplan.batch import EntityColumn, RecordBatch
from repro.execplan.expressions import CompiledExpr, ExecContext, _compare, _equal, sort_key
from repro.execplan.ops_base import PlanOp
from repro.execplan.record import Layout, Record
from repro.graph.index import _family_of

__all__ = [
    "AllNodeScan",
    "NodeByLabelScan",
    "NodeByIdSeek",
    "IndexRangeScan",
    "IndexOrderScan",
    "SeekSpec",
]

_I64 = np.int64


def _chunks(n: int, size: int) -> Iterator[slice]:
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


class _NodeEmitScan(PlanOp):
    """Shared machinery: emit an id vector under ``var``, optionally as a
    nested-loop extension of a child stream."""

    def __init__(self, var: str, child: Optional[PlanOp]) -> None:
        base = child.out_layout if child is not None else Layout()
        super().__init__([child] if child else [], base.extend(var))
        self._var_slot = self.out_layout.slot(var)
        self._var = var

    def _node_ids(self, ctx: ExecContext, record: Optional[Record]) -> np.ndarray:
        """The ids this scan emits; ``record`` is the child row for
        correlated scans (None for the childless form)."""
        raise NotImplementedError  # pragma: no cover

    def _record_dependent(self) -> bool:
        """Whether _node_ids varies per child record (index probes with
        correlated value expressions)."""
        return False

    def _partitions(self, ctx: ExecContext):
        """Childless scans split their id vector into morsel-sized slices;
        each morsel emits its slice in ``ctx.batch_size`` chunks, so the
        concatenation equals the serial stream row-for-row.  Scans that
        extend a child stream do not partition (the parallel split, if
        any, happens below them)."""
        if self.children:
            return None
        ids = np.asarray(self._node_ids(ctx, None), dtype=_I64)
        morsel = max(1, ctx.morsel_size)
        if len(ids) <= morsel:
            return None
        graph = ctx.graph
        layout = self.out_layout
        size = ctx.batch_size

        def emit(part: np.ndarray):
            def batches() -> Iterator[RecordBatch]:
                for sl in _chunks(len(part), size):
                    yield RecordBatch(layout, [EntityColumn("node", part[sl], graph)])

            return batches

        return [emit(ids[sl]) for sl in _chunks(len(ids), morsel)]

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        size = ctx.batch_size
        graph = ctx.graph
        layout = self.out_layout
        if not self.children:
            ids = np.asarray(self._node_ids(ctx, None), dtype=_I64)
            for sl in _chunks(len(ids), size):
                col = EntityColumn("node", ids[sl], graph)
                yield RecordBatch(layout, [col])
            return
        if not self._record_dependent():
            ids = np.asarray(self._node_ids(ctx, None), dtype=_I64)
            k = len(ids)
            for batch in self.children[0].produce_batches(ctx):
                if k == 0 or batch.length == 0:
                    continue
                # cross-product indices generated one output chunk at a
                # time — never the full batch×k arrays (O(size) memory)
                total = batch.length * k
                for sl in _chunks(total, size):
                    flat = np.arange(sl.start, sl.stop, dtype=_I64)
                    out = batch.take(flat // k).extend(
                        layout, [EntityColumn("node", ids[flat % k], graph)]
                    )
                    yield out
            return
        # correlated probe: the id set depends on each child record
        for batch in self.children[0].produce_batches(ctx):
            rows = batch.materialize_rows()
            idx_parts: List[np.ndarray] = []
            dst_parts: List[np.ndarray] = []
            for i, record in enumerate(rows):
                ids = np.asarray(self._node_ids(ctx, record), dtype=_I64)
                if len(ids):
                    idx_parts.append(np.full(len(ids), i, dtype=_I64))
                    dst_parts.append(ids)
            if not idx_parts:
                continue
            idx = np.concatenate(idx_parts)
            dst = np.concatenate(dst_parts)
            for sl in _chunks(len(idx), size):
                yield batch.take(idx[sl]).extend(
                    layout, [EntityColumn("node", dst[sl], graph)]
                )


class NodeByIdSeek(_NodeEmitScan):
    """O(1) node lookup from a ``WHERE id(n) = <expr>`` predicate — the
    access path the k-hop benchmark's seed queries rely on."""

    name = "NodeByIdSeek"

    def __init__(self, var: str, id_expr: "CompiledExpr", child: Optional["PlanOp"] = None) -> None:
        super().__init__(var, child)
        self._id_expr = id_expr

    def describe(self) -> str:
        return f"NodeByIdSeek | ({self._var})"

    def _record_dependent(self) -> bool:
        return True

    def _node_ids(self, ctx: ExecContext, record: Optional[Record]) -> np.ndarray:
        node_id = self._id_expr(record if record is not None else [], ctx)
        # exactly the ids the consumed `id(n) = expr` conjunct holds True
        # for under _equal: integral floats match, bools, NaN and
        # non-integral numbers match nothing
        if type(node_id) is float and node_id.is_integer():
            node_id = int(node_id)
        if type(node_id) is not int or not ctx.graph.has_node(node_id):
            return np.empty(0, dtype=_I64)
        return np.asarray([node_id], dtype=_I64)


class AllNodeScan(_NodeEmitScan):
    """Emit every live node bound to ``var`` (optionally extending a child
    stream as a nested-loop cross product)."""

    name = "AllNodeScan"

    def describe(self) -> str:
        return f"AllNodeScan | ({self._var})"

    def _node_ids(self, ctx: ExecContext, record: Optional[Record]) -> np.ndarray:
        return ctx.graph.all_node_ids()


class NodeByLabelScan(_NodeEmitScan):
    """Emit nodes carrying a label — reads the label matrix diagonal."""

    name = "NodeByLabelScan"

    def __init__(self, var: str, label: str, child: Optional[PlanOp] = None) -> None:
        super().__init__(var, child)
        self._label = label

    def describe(self) -> str:
        return f"NodeByLabelScan | ({self._var}:{self._label})"

    def _node_ids(self, ctx: ExecContext, record: Optional[Record]) -> np.ndarray:
        return ctx.graph.nodes_with_label(self._label)


class IndexOrderScan(_NodeEmitScan):
    """Stream one label's nodes in ``ORDER BY n.attr`` order straight off
    the range index's sorted arrays — the planner installs this in place
    of ``NodeByLabelScan + Sort`` when the sort key is a single indexed
    attribute and no residual filter sits between scan and projection,
    so ``ORDER BY ... LIMIT k`` stops after streaming k rows instead of
    sorting the whole label.

    Order contract (must match ``Sort`` over an ascending-id label scan
    exactly): values rank by Cypher's type classes, equal values break
    toward the lower node id, and nodes the index skips are spliced back
    around the indexed block — non-null unindexable values (lists, maps)
    rank *before* the indexed families, nulls after; ``NaN`` (numeric but
    unindexable) lands adjacent to the numeric family.  Descending
    reverses the blocks and each ordering, keeping the ascending-id
    tie-break.  An index dropped between planning and execution degrades
    to the label scan + stable sort this op replaced."""

    name = "IndexOrderScan"

    def __init__(
        self,
        var: str,
        label: str,
        attribute: str,
        ascending: bool,
        child: Optional[PlanOp] = None,
    ) -> None:
        super().__init__(var, child)
        self._label = label
        self._attribute = attribute
        self._ascending = ascending

    def describe(self) -> str:
        direction = "ASC" if self._ascending else "DESC"
        return f"IndexOrderScan | ({self._var}:{self._label}) [{self._attribute} {direction}]"

    def _node_ids(self, ctx: ExecContext, record: Optional[Record]) -> np.ndarray:
        graph = ctx.graph
        members = np.asarray(graph.nodes_with_label(self._label), dtype=_I64)
        index = graph.get_index(self._label, self._attribute)
        if index is None:
            return self._sorted_fallback(graph, members)
        ordered = index.ordered_ids(self._ascending)
        if len(ordered) == len(members):
            return ordered
        leftover = np.setdiff1d(members, ordered, assume_unique=True)
        before: List[tuple] = []  # non-null unindexable: map/node/edge/list
        nans: List[int] = []  # numeric class, but the index never holds NaN
        after: List[tuple] = []  # null (and unknown classes)
        for nid in leftover.tolist():
            value = graph.node_property(int(nid), self._attribute)
            key = sort_key(value)
            if key[0] <= 3:
                before.append((key, nid))
            elif key[0] == 6:
                nans.append(nid)
            else:
                after.append((key[0], nid))
        reverse = not self._ascending
        before.sort(key=lambda t: t[0], reverse=reverse)
        after.sort(key=lambda t: t[0], reverse=reverse)
        blocks = [
            np.asarray([nid for _k, nid in before], dtype=_I64),
            ordered,
            np.asarray(nans, dtype=_I64),
            np.asarray([nid for _k, nid in after], dtype=_I64),
        ]
        if reverse:
            blocks.reverse()
        return np.concatenate([b for b in blocks if len(b)] or [np.empty(0, dtype=_I64)])

    def _sorted_fallback(self, graph, members: np.ndarray) -> np.ndarray:
        ids = [int(n) for n in members]
        ids.sort(
            key=lambda nid: sort_key(graph.node_property(nid, self._attribute)),
            reverse=not self._ascending,
        )
        return np.asarray(ids, dtype=_I64)


#: SeekSpec.literal when the predicate's value is not a plan-time literal
NOT_LITERAL = object()


class SeekSpec:
    """One WHERE conjunct a secondary-index seek consumes: ``attribute op
    <value_fn>``.  ``literal`` carries the plan-time constant (or
    :data:`NOT_LITERAL`) so the cost model can rank range bounds against
    the index's numeric sample without executing anything."""

    __slots__ = ("attribute", "op", "value_fn", "display", "literal")

    def __init__(
        self,
        attribute: str,
        op: str,
        value_fn: CompiledExpr,
        display: str,
        literal=NOT_LITERAL,
    ) -> None:
        self.attribute = attribute
        self.op = op  # '=', '<', '<=', '>', '>=', 'STARTS WITH', 'IN'
        self.value_fn = value_fn
        self.display = display
        self.literal = literal


def _spec_true(op: str, prop, value) -> bool:
    """The scan-side predicate one spec stands for — exactly the residual
    filter's semantics (``_equal`` / ``_compare`` / STARTS WITH), so the
    fallback path and the seek path agree row-for-row."""
    if op == "=":
        return _equal(prop, value) is True
    if op == "STARTS WITH":
        return isinstance(prop, str) and isinstance(value, str) and prop.startswith(value)
    if op == "IN":
        if not isinstance(value, list):
            return False  # null haystack matches nothing
        return any(_equal(prop, item) is True for item in value)
    return _compare(op, prop, value) is True


class IndexRangeScan(_NodeEmitScan):
    """Batch-native seek over a range or composite secondary index.

    Emits exactly the nodes every consumed conjunct holds True for, so
    the planner can drop those conjuncts from the residual WHERE filter.
    Range kind: one index on (label, attr), each spec's seek intersected.
    Composite kind: eq specs covering a leading prefix of the index's
    attribute tuple, answered as one sorted-slice seek.

    Values that could match non-indexed property types (lists, maps — a
    list-valued property is never indexed but ``_equal`` can still match
    it) route to a filtered label scan with identical semantics; the same
    fallback covers an index dropped between planning and execution.
    """

    name = "IndexRangeScan"

    def __init__(
        self,
        var: str,
        label: str,
        kind: str,
        attributes: Sequence[str],
        specs: Sequence[SeekSpec],
        child: Optional[PlanOp] = None,
    ) -> None:
        super().__init__(var, child)
        self._label = label
        self._kind = kind  # 'range' | 'composite'
        self._attributes = tuple(attributes)
        self._specs = list(specs)

    def describe(self) -> str:
        preds = ", ".join(spec.display for spec in self._specs)
        return f"IndexRangeScan | ({self._var}:{self._label}) [{self._kind}: {preds}]"

    def _record_dependent(self) -> bool:
        return True

    def _node_ids(self, ctx: ExecContext, record: Optional[Record]) -> np.ndarray:
        rec = record if record is not None else []
        graph = ctx.graph
        values = [spec.value_fn(rec, ctx) for spec in self._specs]
        # the filter this scan replaced would raise on a non-list haystack
        for spec, value in zip(self._specs, values):
            if spec.op == "IN" and value is not None and not isinstance(value, list):
                raise CypherTypeError("IN expects a list on the right")
        if self._kind == "composite":
            index = graph.get_composite_index(self._label, self._attributes)
        else:
            index = graph.get_index(self._label, self._attributes[0])
        if index is None or self._needs_fallback(values):
            return self._scan_fallback(ctx, values)
        if self._kind == "composite":
            return index.seek_prefix_eq(values)
        result: Optional[np.ndarray] = None
        for spec, value in zip(self._specs, values):
            ids = self._seek_one(index, spec.op, value)
            result = ids if result is None else np.intersect1d(result, ids, assume_unique=True)
            if len(result) == 0:
                break
        return result if result is not None else np.empty(0, dtype=_I64)

    @staticmethod
    def _seek_one(index, op: str, value) -> np.ndarray:
        if op == "=":
            return index.seek_eq(value)
        if op == "STARTS WITH":
            return index.seek_prefix(value) if isinstance(value, str) else np.empty(0, dtype=_I64)
        if op == "IN":
            return index.seek_in(value if isinstance(value, list) else ())
        return index.seek_cmp(op, value)

    def _needs_fallback(self, values) -> bool:
        """A comparison value only an *unindexed* property type could
        match (list/map) makes the seek lossy — scan instead."""
        for spec, value in zip(self._specs, values):
            if spec.op == "IN":
                items = value if isinstance(value, list) else ()
                if any(_family_of(v) is None and v is not None for v in items):
                    return True
            elif spec.op != "STARTS WITH":
                if _family_of(value) is None and value is not None:
                    return True
        return False

    def _scan_fallback(self, ctx: ExecContext, values) -> np.ndarray:
        out: List[int] = []
        for nid in ctx.graph.nodes_with_label(self._label):
            nid = int(nid)
            if all(
                _spec_true(spec.op, ctx.graph.node_property(nid, spec.attribute), value)
                for spec, value in zip(self._specs, values)
            ):
                out.append(nid)
        return np.asarray(out, dtype=_I64)
