"""Record-stream operations: filter, project, aggregate, sort, distinct,
skip/limit, unwind, cartesian product, optional (apply) and results.

Batch-native since the vectorized-engine refactor: operators consume and
emit :class:`~repro.execplan.batch.RecordBatch` columns —

* Filter   = predicate kernel → boolean-mask compress,
* Project  = column-at-a-time expression evaluation,
* Aggregate= group keys factorized by the ``factorize`` dedup kernel,
  then ``bincount``/first-hit accumulation per group for every aggregate
  kind; DISTINCT aggregates dedup their (group, value) pairs with the
  same kernel first (object-dict row loop for keys or values no dtype
  represents exactly),
* Distinct = ``factorize`` first occurrences per batch, checked against
  the cross-batch ``seen`` set (per-row loop for unkeyable columns),
* Sort     = ``np.lexsort`` on typed key columns (+ top-k slice),
* Skip/Limit = batch slicing with cross-batch carry,
* Unwind/CartesianProduct = ``np.repeat``/``np.tile`` row gathers.

Semantics guard rail: every vectorized evaluation that raises a Cypher
error is retried per row (the scalar closures), so batching can only
change *when* an error surfaces, never *whether* one does or what a
result contains; ``exec_batch_size=1`` is exactly the row engine.  One
documented exception: ``sum``/``avg`` over *floats* may differ in the
last ULP across batch sizes — per-batch subtotals re-associate float
addition (integer sums stay exact below 2**53).
``ApplyOptional`` stays row-oriented — its contract is inherently
one-outer-record-at-a-time — and interoperates through the base-class
row/batch bridges.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CypherError, CypherSemanticError, CypherTypeError
from repro.execplan.batch import (
    Column,
    EntityColumn,
    RecordBatch,
    ValueColumn,
    factorize,
    float64_exact as _float64_exact,
    object_column,
    row_keys,
    value_key,
)
from repro.execplan.batch_expr import as_column, true_mask, vectorize
from repro.execplan.expressions import CompiledExpr, ExecContext, sort_key
from repro.execplan.ops_base import Argument, PlanOp
from repro.execplan.record import Layout, Record

__all__ = [
    "Filter",
    "Project",
    "Aggregate",
    "AggSpec",
    "Sort",
    "Distinct",
    "Skip",
    "Limit",
    "Unwind",
    "CartesianProduct",
    "ApplyOptional",
    "Results",
]

_I64 = np.int64
_NUMERIC_TYPES = frozenset((int, float))


def _eval_column(batch_fn, scalar_fn, batch: RecordBatch, ctx: ExecContext) -> Column:
    """One expression as a column over the batch, vectorized with the
    exact-semantics fallback: a Cypher error re-runs the rows through the
    scalar closure, reproducing row-engine error order.  At
    ``exec_batch_size=1`` the scalar closure runs directly — the
    differential hook must exercise the row engine, not 1-row kernels."""
    if ctx.batch_size == 1:
        rows = batch.materialize_rows()
        return ValueColumn(object_column([scalar_fn(r, ctx) for r in rows]))
    try:
        return as_column(batch_fn(batch, ctx), batch.length)
    except CypherError:
        rows = batch.materialize_rows()
        return ValueColumn(object_column([scalar_fn(r, ctx) for r in rows]))


def _chunk_rows(layout: Layout, rows: List[Record], size: int) -> Iterator[RecordBatch]:
    for start in range(0, len(rows), size):
        yield RecordBatch.from_rows(layout, rows[start : start + size])


class Filter(PlanOp):
    """Keep records whose predicate evaluates to exactly true.

    Holds a *list* of predicates (the optimizer's filter fusion appends
    instead of composing closures): each predicate compresses the batch
    before the next evaluates, preserving the fused row engine's
    short-circuit at batch granularity.
    """

    name = "Filter"

    def __init__(self, child: PlanOp, predicate, label: str = "", selectivities=None) -> None:
        super().__init__([child], child.out_layout)
        self._predicates: List[CompiledExpr] = (
            list(predicate) if isinstance(predicate, (list, tuple)) else [predicate]
        )
        # per-predicate price the planner chose it by (None: the cost
        # model's default); read only by the est_rows annotation
        self._selectivities: List[Optional[float]] = (
            list(selectivities) if selectivities is not None else [None] * len(self._predicates)
        )
        self._batch_predicates = [vectorize(p) for p in self._predicates]
        self._pairs = list(zip(self._predicates, self._batch_predicates))
        self._label = label

    def describe(self) -> str:
        return f"Filter | {self._label}" if self._label else "Filter"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return self._transform(ctx, self.children[0].produce_batches(ctx))

    def _partitions(self, ctx: ExecContext):
        # a pure per-batch map: rides its child's partitions
        parts = self.children[0].partitions(ctx)
        if parts is None:
            return None
        return [(lambda t=t: self._transform(ctx, t())) for t in parts]

    def _transform(self, ctx: ExecContext, stream: Iterator[RecordBatch]) -> Iterator[RecordBatch]:
        scalar_only = ctx.batch_size == 1  # the row engine, exactly
        for batch in stream:
            for scalar, batched in self._pairs:
                if not batch.length:
                    break
                if scalar_only:
                    rows = batch.materialize_rows()
                    mask = np.fromiter(
                        (scalar(r, ctx) is True for r in rows),
                        dtype=np.bool_,
                        count=len(rows),
                    )
                    batch = batch.compress(mask)
                    continue
                try:
                    mask = true_mask(batched(batch, ctx), batch.length)
                except CypherError:
                    rows = batch.materialize_rows()
                    mask = np.fromiter(
                        (scalar(r, ctx) is True for r in rows),
                        dtype=np.bool_,
                        count=len(rows),
                    )
                batch = batch.compress(mask)
            if batch.length:
                yield batch


class Project(PlanOp):
    """Evaluate projections into a fresh, narrower record."""

    name = "Project"

    def __init__(self, child: PlanOp, items: Sequence[Tuple[str, CompiledExpr]]) -> None:
        super().__init__([child], Layout([name for name, _ in items]))
        self._items = list(items)
        self._batch_items = [vectorize(fn) for _, fn in self._items]

    def describe(self) -> str:
        return f"Project | {', '.join(n for n, _ in self._items)}"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return self._transform(ctx, self.children[0].produce_batches(ctx))

    def _partitions(self, ctx: ExecContext):
        # a pure per-batch map: rides its child's partitions
        parts = self.children[0].partitions(ctx)
        if parts is None:
            return None
        return [(lambda t=t: self._transform(ctx, t())) for t in parts]

    def _transform(self, ctx: ExecContext, stream: Iterator[RecordBatch]) -> Iterator[RecordBatch]:
        fns = [fn for _, fn in self._items]
        scalar_only = ctx.batch_size == 1  # the row engine, exactly
        for batch in stream:
            n = batch.length
            if not n:
                continue
            if not scalar_only:
                try:
                    cols = [as_column(bfn(batch, ctx), n) for bfn in self._batch_items]
                except CypherError:
                    pass
                else:
                    yield RecordBatch(self.out_layout, cols, length=n)
                    continue
            rows = batch.materialize_rows()
            out_rows = [[fn(r, ctx) for fn in fns] for r in rows]
            yield RecordBatch.from_rows(self.out_layout, out_rows)


class AggSpec:
    """One aggregation: kind, argument expression, DISTINCT flag."""

    __slots__ = ("kind", "expr", "distinct")

    def __init__(self, kind: str, expr: Optional[CompiledExpr], distinct: bool) -> None:
        self.kind = kind  # count/sum/avg/min/max/collect; expr None = count(*)
        self.expr = expr
        self.distinct = distinct


class _AggState:
    __slots__ = ("count", "total", "values", "best", "seen")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.values: List[Any] = []
        self.best: Any = None
        self.seen: set = set()


class Aggregate(PlanOp):
    """Hash aggregation: group keys + aggregate columns.

    With no group keys, exactly one output row is emitted even on empty
    input (``count(*)`` over nothing is 0, ``sum`` is 0, others null).

    Per batch the group keys — any number of id vectors or homogeneous
    int/float/string/bool columns, nulls included — factorize through the
    :func:`~repro.execplan.batch.factorize` kernel, and each aggregate
    accumulates per group: count/sum/avg via ``bincount``, min/max via
    sorted first-hit gathers, collect via one stable sort by group.  A
    DISTINCT aggregate first dedups the batch's (group, value) pairs with
    the same kernel and feeds only values its group has not seen to those
    accumulators.  Keys or values no dtype represents exactly (lists,
    maps, mixed types, NaN, huge ints) take the object-dict row loop, for
    the whole batch (keys) or that one aggregate (values).  Group
    *emission order* is first-appearance order in both paths, like the
    row engine's insertion-ordered dict.
    """

    name = "Aggregate"

    def __init__(
        self,
        child: PlanOp,
        group_items: Sequence[Tuple[str, CompiledExpr]],
        agg_items: Sequence[Tuple[str, AggSpec]],
    ) -> None:
        names = [n for n, _ in group_items] + [n for n, _ in agg_items]
        super().__init__([child], Layout(names))
        self._group = list(group_items)
        self._aggs = list(agg_items)
        self._batch_group = [vectorize(fn) for _, fn in self._group]
        self._batch_aggs = [
            vectorize(spec.expr) if spec.expr is not None else None
            for _, spec in self._aggs
        ]

    def describe(self) -> str:
        return (
            f"Aggregate | keys=[{', '.join(n for n, _ in self._group)}] "
            f"aggs=[{', '.join(n for n, _ in self._aggs)}]"
        )

    # ------------------------------------------------------------------
    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        specs = [spec for _, spec in self._aggs]
        groups = self._parallel_groups(ctx, specs)
        if groups is None:
            groups = {}
            for batch in self.child_stream(ctx):
                if batch.length:
                    self._absorb_batch(ctx, groups, batch, specs)
        if not groups and not self._group:
            groups[()] = ([], [_AggState() for _ in specs])
        out_rows: List[Record] = []
        for key_values, states in groups.values():
            row = list(key_values)
            for spec, state in zip(specs, states):
                row.append(self._finalize(spec, state))
            out_rows.append(row)
        yield from _chunk_rows(self.out_layout, out_rows, ctx.batch_size)

    def _absorb_batch(self, ctx, groups, batch: RecordBatch, specs) -> None:
        n = batch.length
        key_cols: List[Column] = []
        for (name, fn), bfn in zip(self._group, self._batch_group):
            key_cols.append(_eval_column(bfn, fn, batch, ctx))
        val_cols: List[Optional[Column]] = []
        for (name, spec), bfn in zip(self._aggs, self._batch_aggs):
            if bfn is None:
                val_cols.append(None)  # count(*)
            else:
                val_cols.append(_eval_column(bfn, spec.expr, batch, ctx))
        self._absorb(ctx, groups, key_cols, val_cols, specs, n)

    # -- morsel parallelism --------------------------------------------
    def _parallel_groups(self, ctx, specs) -> Optional[dict]:
        """Accumulate partition-local group dicts on the morsel workers,
        then merge them in partition order — first-appearance group order
        and collect()/tie semantics come out identical to the serial
        absorb because partition order IS serial stream order.  DISTINCT
        aggregates cannot merge (partition-local ``seen`` sets would
        double-count across partitions), so they take the serial path."""
        if ctx.driver is None or any(spec.distinct for spec in specs):
            return None
        parts = self.children[0].partitions(ctx)
        if parts is None or len(parts) < 2:
            return None
        ctx.driver.morsels += len(parts)

        def absorb_part(t):
            def run() -> dict:
                local: dict = {}
                for batch in t():
                    if batch.length:
                        self._absorb_batch(ctx, local, batch, specs)
                return local

            return run

        groups: dict = {}
        for local in ctx.driver.run_ordered([absorb_part(t) for t in parts]):
            for key, (key_values, states) in local.items():
                entry = groups.get(key)
                if entry is None:
                    groups[key] = (key_values, states)
                else:
                    for spec, dst, src in zip(specs, entry[1], states):
                        self._merge_state(spec, dst, src)
        return groups

    @staticmethod
    def _merge_state(spec: AggSpec, dst: _AggState, src: _AggState) -> None:
        """Fold a later partition's partial state into an earlier one.
        Deterministic for every non-DISTINCT aggregate: counts and sums
        add, collect concatenates in partition order, min/max keep the
        earlier value on ties (``src`` only wins strictly)."""
        dst.count += src.count
        dst.total += src.total
        dst.values.extend(src.values)
        if src.best is not None:
            if dst.best is None:
                dst.best = src.best
            elif spec.kind == "min":
                if sort_key(src.best) < sort_key(dst.best):
                    dst.best = src.best
            elif sort_key(src.best) > sort_key(dst.best):
                dst.best = src.best

    # ------------------------------------------------------------------
    def _absorb(self, ctx, groups, key_cols, val_cols, specs, n) -> None:
        # exec_batch_size=1 must BE the row engine: the vectorized
        # group-by is gated off so the differential leg really exercises
        # the scalar accumulation path
        codes_info = self._group_codes(key_cols, n) if ctx.batch_size > 1 else None
        if codes_info is None:
            self._absorb_rows(groups, key_cols, val_cols, specs, n)
            return
        codes, keys, key_values = codes_info
        states_by_code: List[list] = []
        for pos, key in enumerate(keys):
            entry = groups.get(key)
            if entry is None:
                entry = (key_values[pos], [_AggState() for _ in specs])
                groups[key] = entry
            states_by_code.append(entry[1])
        for spec_idx, (spec, col) in enumerate(zip(specs, val_cols)):
            accumulate = self._accumulate_distinct if spec.distinct else self._accumulate_fast
            if not accumulate(spec, col, codes, states_by_code, spec_idx, n):
                self._accumulate_rows_one(
                    spec, col.to_objects(), codes, states_by_code, spec_idx, n
                )

    @staticmethod
    def _group_codes(key_cols: List[Column], n: int):
        """Factorize the group key: ``(codes, dict_keys, key_values)`` or
        None when the key shape needs the row loop.  Codes index both
        lists in first-appearance order, so dict insertion order matches
        the row engine; ``key_values[code]`` is the group's first-seen key
        values.

        ``dict_keys`` entries are the row loop's own :func:`row_keys` of
        each code's first row — one run may route different batches
        through different paths, and both must land in the same
        ``groups`` entry."""
        if not key_cols:
            return np.zeros(n, dtype=_I64), [()], [()]
        fact = factorize(key_cols)
        if fact is None:
            return None
        codes, first = fact
        firsts = [c.take(first) for c in key_cols]
        key_values = list(zip(*[c.to_objects().tolist() for c in firsts]))
        return codes, row_keys(firsts, len(first)), key_values

    def _accumulate_fast(self, spec, col: Optional[Column], codes, states_by_code, spec_idx, n) -> bool:
        k = len(states_by_code)
        if spec.expr is None:  # count(*)
            if k == 1:
                states_by_code[0][spec_idx].count += n
                return True
            counts = np.bincount(codes, minlength=k)
            for code in range(k):
                c = int(counts[code])
                if c:
                    states_by_code[code][spec_idx].count += c
            return True
        nulls = col.null_mask()
        if spec.kind == "count":
            # handle-free: counting an entity column never materializes it
            if k == 1:
                states_by_code[0][spec_idx].count += n - int(nulls.sum())
                return True
            counts = np.bincount(codes[np.flatnonzero(~nulls)], minlength=k)
            for code in range(k):
                c = int(counts[code])
                if c:
                    states_by_code[code][spec_idx].count += c
            return True
        nz = np.flatnonzero(~nulls)
        if not len(nz):
            return True
        values = col.to_objects()
        if spec.kind == "collect":
            # one stable sort by group keeps each group's row order
            nz_codes = codes[nz]
            order = np.argsort(nz_codes, kind="stable")
            collected = values[nz[order]].tolist()
            group_codes, starts = np.unique(nz_codes[order], return_index=True)
            bounds = starts.tolist() + [len(collected)]
            for j, code in enumerate(group_codes.tolist()):
                part = collected[bounds[j] : bounds[j + 1]]
                state = states_by_code[code][spec_idx]
                state.count += len(part)
                state.values.extend(part)
            return True
        present = [values[i] for i in nz.tolist()]
        ptypes = set(map(type, present))
        if not ptypes <= _NUMERIC_TYPES:
            return False  # row loop raises/compares exactly like the scalar path
        nz_codes = codes[nz]
        counts = np.bincount(nz_codes, minlength=k)
        if spec.kind in ("sum", "avg"):
            # float64 accumulation like the row engine (state.total is a
            # Python float there too), but per-batch subtotals re-associate
            # the additions: float sums may differ in the last ULP across
            # batch sizes (integer sums below 2**53 stay exact).  Ints
            # beyond float64 overflow in the row loop instead, at the
            # exact offending record
            try:
                floats = np.array(present, dtype=np.float64)
            except OverflowError:
                return False
            sums = np.bincount(nz_codes, weights=floats, minlength=k)
            for code in range(k):
                c = int(counts[code])
                if c:
                    state = states_by_code[code][spec_idx]
                    state.count += c
                    state.total += float(sums[code])
            return True
        # min/max: stable first-hit per group so ties keep the earliest
        # value object, like the row engine.  Pure-int columns order as
        # int64 so values past 2**53 keep their exact order; anything the
        # dtype cannot represent exactly drops to the row loop.
        if ptypes == {int}:
            try:
                ordkeys = np.array(present, dtype=_I64)
            except OverflowError:
                return False
        else:
            if not _float64_exact(present):
                return False  # ints past 2**53 would misorder ties
            try:
                ordkeys = np.array(present, dtype=np.float64)
            except OverflowError:
                return False
            if np.isnan(ordkeys).any():
                return False  # NaN ordering: row loop matches sort_key
        if spec.kind == "min":
            primary = ordkeys
        else:
            if ordkeys.dtype == _I64 and bool(
                (ordkeys == np.iinfo(np.int64).min).any()
            ):
                return False  # negating INT64_MIN wraps onto itself
            primary = -ordkeys
        order = np.lexsort((np.arange(len(nz)), primary))
        sorted_codes = nz_codes[order]
        uniq_codes, first_pos = np.unique(sorted_codes, return_index=True)
        for code, pos in zip(uniq_codes.tolist(), first_pos.tolist()):
            value = present[int(order[pos])]
            state = states_by_code[code][spec_idx]
            state.count += int(counts[code])
            if state.best is None:
                state.best = value
            elif spec.kind == "min":
                if sort_key(value) < sort_key(state.best):
                    state.best = value
            elif sort_key(value) > sort_key(state.best):
                state.best = value
        return True

    def _accumulate_distinct(self, spec, col: Column, codes, states_by_code, spec_idx, n) -> bool:
        """A DISTINCT aggregate over one batch: the (group, value) pairs
        dedup through ``factorize``, and only first occurrences whose key
        their group's ``seen`` lacks reach :meth:`_accumulate_fast` — Python
        work per distinct pair, never per row.  ``seen`` holds the row
        loop's own ``value_key`` keys, so batches taking either path agree.
        False, with nothing accumulated, when the values need the row
        loop."""
        nz = np.flatnonzero(~col.null_mask())
        if not len(nz):
            return True
        if len(nz) < n:
            col = col.take(nz)
            codes = codes[nz]
        one_group = len(states_by_code) == 1
        # one group: the pairs are just the values
        fact = factorize([col] if one_group else [ValueColumn(codes), col])
        if fact is None:
            return False
        firsts = fact[1]
        keys = col.take(firsts).hash_keys()
        if one_group:
            seen, seens = states_by_code[0][spec_idx].seen, None
            keep = [key not in seen for key in keys] if seen else None
        else:
            seens = [states_by_code[g][spec_idx].seen for g in codes[firsts].tolist()]
            keep = [key not in seen for seen, key in zip(seens, keys)]
        rows = firsts if keep is None else firsts[np.array(keep, dtype=np.bool_)]
        if not len(rows):
            return True
        if not self._accumulate_fast(
            spec, col.take(rows), codes[rows], states_by_code, spec_idx, len(rows)
        ):
            return False
        if seens is None:
            seen.update(keys if keep is None else compress(keys, keep))
        else:
            for seen, key in compress(zip(seens, keys), keep):
                seen.add(key)
        return True

    def _accumulate_rows_one(self, spec, col, codes, states_by_code, spec_idx, n) -> None:
        codes_list = codes.tolist()
        for i in range(n):
            state = states_by_code[codes_list[i]][spec_idx]
            self._accumulate_value(spec, state, None if col is None else col[i])

    def _absorb_rows(self, groups, key_cols, val_cols, specs, n) -> None:
        keys = row_keys(key_cols, n)
        obj_cols: List[Optional[np.ndarray]] = [None] * len(key_cols)
        vals = [None if c is None else c.to_objects() for c in val_cols]
        for i in range(n):
            key = keys[i]
            entry = groups.get(key)
            if entry is None:
                key_values = []
                for c_idx, col in enumerate(key_cols):
                    if obj_cols[c_idx] is None:
                        obj_cols[c_idx] = col.to_objects()
                    key_values.append(obj_cols[c_idx][i])
                entry = (key_values, [_AggState() for _ in specs])
                groups[key] = entry
            states = entry[1]
            for spec, state, col in zip(specs, states, vals):
                self._accumulate_value(spec, state, None if col is None else col[i])

    @staticmethod
    def _accumulate_value(spec: AggSpec, state: _AggState, value) -> None:
        if spec.expr is None:  # count(*)
            state.count += 1
            return
        if value is None:
            return
        if spec.distinct:
            key = value_key(value)
            if key in state.seen:
                return
            state.seen.add(key)
        state.count += 1
        if spec.kind == "sum" or spec.kind == "avg":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise CypherTypeError(f"{spec.kind}() expects numeric values")
            state.total += value
        elif spec.kind == "collect":
            state.values.append(value)
        elif spec.kind in ("min", "max"):
            if state.best is None:
                state.best = value
            else:
                if spec.kind == "min":
                    if sort_key(value) < sort_key(state.best):
                        state.best = value
                elif sort_key(value) > sort_key(state.best):
                    state.best = value

    @staticmethod
    def _finalize(spec: AggSpec, state: _AggState):
        if spec.kind == "count":
            return state.count
        if spec.kind == "sum":
            total = state.total
            return int(total) if float(total).is_integer() else total
        if spec.kind == "avg":
            return None if state.count == 0 else state.total / state.count
        if spec.kind == "collect":
            return state.values
        if spec.kind in ("min", "max"):
            return state.best
        raise CypherTypeError(f"unknown aggregate {spec.kind}")  # pragma: no cover


class Sort(PlanOp):
    """Materializing sort with the Cypher type-aware ordering.

    The whole input is gathered into one batch; homogeneous numeric (any
    direction) or string (ascending) key columns sort via a stable
    ``np.lexsort``, anything else through the type-ranked ``sort_key``
    row sort — both stable, so tie order always matches the row engine.
    When the optimizer sets ``top`` (a following LIMIT with a literal
    count) only the head of the order is emitted.
    """

    name = "Sort"

    def __init__(self, child: PlanOp, keys: Sequence[Tuple[CompiledExpr, bool]]) -> None:
        super().__init__([child], child.out_layout)
        self._keys = list(keys)
        self._batch_keys = [vectorize(fn) for fn, _ in self._keys]
        self.top = -1  # set by the optimizer

    def describe(self) -> str:
        return f"Sort | top={self.top}" if self.top >= 0 else "Sort"

    @staticmethod
    def _descending(arr: np.ndarray) -> Optional[np.ndarray]:
        """The key negated for a descending lexsort, or None when the
        negation would wrap (INT64_MIN)."""
        if arr.dtype == _I64 and bool((arr == np.iinfo(np.int64).min).any()):
            return None
        return -arr

    def _sort_array(self, res, n: int, ascending: bool) -> Optional[np.ndarray]:
        """A lexsort-able key array, or None when this key needs sort_key."""
        col = as_column(res, n)
        if isinstance(col, EntityColumn):
            # entities order by id within one type class (sort_key does the
            # same); nulls would need type-rank handling — bail on those
            if col.null_mask().any():
                return None
            return col.ids if ascending else self._descending(col.ids)
        values = col.to_objects()
        lst = values.tolist()
        types = set(map(type, lst))
        if types == {int}:
            # exact: int64 keys never collapse ties like float64 would
            # past 2**53 (beyond int64 -> sort_key row sort)
            try:
                arr = np.array(lst, dtype=_I64)
            except OverflowError:
                return None
        elif types and types <= _NUMERIC_TYPES:
            if not _float64_exact(lst):
                return None  # ints past 2**53 would misorder ties
            try:
                arr = np.array(lst, dtype=np.float64)
            except OverflowError:
                return None
            if np.isnan(arr).any():
                return None
        elif types == {str} and ascending:
            if any("\x00" in s for s in lst):
                return None  # numpy U-dtype NUL padding would tie keys
            return np.array(lst)
        else:
            return None
        return arr if ascending else self._descending(arr)

    def _sorted_batch(self, big: RecordBatch, ctx: ExecContext, limit: int) -> RecordBatch:
        """``big`` stably sorted on the keys (head only when ``limit`` is
        set).  exec_batch_size=1 must BE the row engine: the lexsort fast
        path stays off so the differential leg exercises the sort_key
        sort."""
        n = big.length
        arrays: Optional[List[np.ndarray]] = [] if ctx.batch_size > 1 else None
        for bfn, (fn, ascending) in zip(self._batch_keys, self._keys):
            if arrays is None:
                break
            try:
                res = bfn(big, ctx)
            except CypherError:
                arrays = None
                break
            arr = self._sort_array(res, n, ascending)
            if arr is None:
                arrays = None
                break
            arrays.append(arr)
        if arrays is not None:
            # np.lexsort: last key is primary; append row index for
            # explicit stability
            order = np.lexsort(tuple([np.arange(n)] + list(reversed(arrays))))
            if limit >= 0:
                order = order[:limit]
            return big.take(order)
        rows = list(big.materialize_rows())
        # stable multi-key sort: apply keys right-to-left
        for expr, ascending in reversed(self._keys):
            rows.sort(key=lambda rec: sort_key(expr(rec, ctx)), reverse=not ascending)
        if limit >= 0:
            rows = rows[:limit]
        return RecordBatch.from_rows(self.out_layout, rows)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        size = ctx.batch_size
        if ctx.driver is not None:
            parts = self.children[0].partitions(ctx)
            if parts is not None and len(parts) >= 2:
                yield from self._parallel_sort(ctx, parts, size)
                return
        stream = self.child_stream(ctx)
        if 0 <= self.top <= 16 * size:
            # streaming top-k: fold each batch into the kept head, holding
            # O(top + batch) rows instead of materializing the input (ties
            # stay stable — kept rows precede the new batch in the merge).
            # Huge literal LIMITs fall through to the single full sort.
            kept: Optional[RecordBatch] = None
            for batch in stream:
                if not batch.length:
                    continue
                merged = (
                    batch
                    if kept is None
                    else RecordBatch.concat(self.out_layout, [kept, batch])
                )
                kept = self._sorted_batch(merged, ctx, self.top)
            if kept is not None:
                yield from kept.chunks(size)
            return
        batches = [b for b in stream if b.length]
        if not batches:
            return
        big = RecordBatch.concat(self.out_layout, batches)
        yield from self._sorted_batch(big, ctx, self.top).chunks(size)

    def _parallel_sort(self, ctx: ExecContext, parts, size: int) -> Iterator[RecordBatch]:
        """Each morsel stably sorts (and top-k truncates) its own slice;
        the partials concatenate in partition order and one final stable
        sort merges them.  Stable-sorting a concatenation whose equal-key
        rows kept their original relative order yields exactly the serial
        stable sort, and per-partition top-k truncation can never drop a
        row of the global top-k."""
        ctx.driver.morsels += len(parts)
        limit = self.top if self.top >= 0 else -1

        def sort_part(t):
            def run() -> Optional[RecordBatch]:
                batches = [b for b in t() if b.length]
                if not batches:
                    return None
                big = RecordBatch.concat(self.out_layout, batches)
                return self._sorted_batch(big, ctx, limit)

            return run

        partials = [
            p for p in ctx.driver.run_ordered([sort_part(t) for t in parts]) if p is not None
        ]
        if not partials:
            return
        big = RecordBatch.concat(self.out_layout, partials)
        yield from self._sorted_batch(big, ctx, self.top).chunks(size)


def _admit_unseen(keys, positions, seen: set, n: int) -> Tuple[np.ndarray, List[Any]]:
    """Admit each candidate row whose key ``seen`` lacks, adding the key
    as it passes: the ``n``-row keep mask plus the admitted keys, in
    order."""
    mask = np.zeros(n, dtype=np.bool_)
    admitted: List[Any] = []
    rows: List[int] = []
    for pos, key in zip(positions, keys):
        if key not in seen:
            seen.add(key)
            admitted.append(key)
            rows.append(pos)
    mask[rows] = True
    return mask, admitted


class Distinct(PlanOp):
    """Keep the first occurrence of every row key.

    Per batch the ``factorize`` kernel finds the first occurrence of each
    key, and only those rows' keys are checked against (and added to) the
    run's ``seen`` set — Python work per distinct key in the batch, not
    per row.  Columns the kernel refuses (lists, maps, mixed types), and
    ``exec_batch_size=1``, check every row's key instead."""

    name = "Distinct"

    def __init__(self, child: PlanOp) -> None:
        super().__init__([child], child.out_layout)

    @staticmethod
    def _dedup(batch: RecordBatch, seen: set, vectorized: bool) -> Tuple[RecordBatch, List[Any]]:
        """The batch filtered against (and added to) ``seen``; also returns
        the kept rows' keys, in emission order."""
        n = batch.length
        fact = factorize(batch.columns) if vectorized else None
        if fact is None:
            positions = range(n)
            keys = row_keys(batch.columns, n)
        else:
            first = fact[1]
            positions = first.tolist()
            keys = row_keys([c.take(first) for c in batch.columns], len(first))
        mask, kept = _admit_unseen(keys, positions, seen, n)
        return batch.compress(mask), kept

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        if ctx.driver is not None:
            parts = self.children[0].partitions(ctx)
            if parts is not None and len(parts) >= 2:
                yield from self._parallel_distinct(ctx, parts)
                return
        seen: set = set()
        vectorized = ctx.batch_size > 1  # 1 is the row engine, exactly
        for batch in self.child_stream(ctx):
            if not batch.length:
                continue
            out, _ = self._dedup(batch, seen, vectorized)
            if out.length:
                yield out

    def _parallel_distinct(self, ctx: ExecContext, parts) -> Iterator[RecordBatch]:
        """Morsels dedup locally; the coordinator re-filters the survivors
        against the global seen set in partition order, so the first
        occurrence of every key — in serial stream order — is the one
        emitted, exactly like the serial pass."""
        ctx.driver.morsels += len(parts)
        vectorized = ctx.batch_size > 1

        def dedup_part(t):
            def run() -> List[Tuple[RecordBatch, List[Any]]]:
                local_seen: set = set()
                out = []
                for batch in t():
                    if not batch.length:
                        continue
                    kept_batch, kept_keys = self._dedup(batch, local_seen, vectorized)
                    if kept_batch.length:
                        out.append((kept_batch, kept_keys))
                return out

            return run

        seen: set = set()
        for part_out in ctx.driver.run_ordered([dedup_part(t) for t in parts]):
            for batch, keys in part_out:
                mask, _ = _admit_unseen(keys, range(len(keys)), seen, len(keys))
                out = batch.compress(mask)
                if out.length:
                    yield out


def _checked_count(count_fn: CompiledExpr, ctx: ExecContext, keyword: str) -> int:
    """SKIP/LIMIT operand: evaluated once per run, must be a non-negative
    integer (matching RedisGraph's semantic check)."""
    value = count_fn([], ctx)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CypherSemanticError(
            f"{keyword} must be a non-negative integer (got {value!r})"
        )
    return value


class Skip(PlanOp):
    name = "Skip"

    def __init__(self, child: PlanOp, count: CompiledExpr) -> None:
        super().__init__([child], child.out_layout)
        self._count = count

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        n = _checked_count(self._count, ctx, "SKIP")
        skipped = 0
        for batch in self.child_stream(ctx):
            if skipped < n:
                take = min(batch.length, n - skipped)
                skipped += take
                if take >= batch.length:
                    continue
                batch = batch.slice(take, batch.length)
            if batch.length:
                yield batch


class Limit(PlanOp):
    name = "Limit"

    def __init__(self, child: PlanOp, count: CompiledExpr) -> None:
        super().__init__([child], child.out_layout)
        self._count = count

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        remaining = _checked_count(self._count, ctx, "LIMIT")
        if remaining <= 0:
            return
        for batch in self.child_stream(ctx):
            if batch.length >= remaining:
                yield batch.slice(0, remaining)
                return
            if batch.length:
                yield batch
                remaining -= batch.length


class Unwind(PlanOp):
    """Fan a list value out into one record per element.  Null produces
    zero rows; any other non-list value is a type error (openCypher)."""

    name = "Unwind"

    def __init__(self, child: PlanOp, expr: CompiledExpr, alias: str) -> None:
        super().__init__([child], child.out_layout.extend(alias))
        self._expr = expr
        self._batch_expr = vectorize(expr)
        self._slot = self.out_layout.slot(alias)
        self._alias = alias

    def describe(self) -> str:
        return f"Unwind | {self._alias}"

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        return self._transform(ctx, self.children[0].produce_batches(ctx))

    def _partitions(self, ctx: ExecContext):
        # a pure per-batch fan-out: rides its child's partitions
        parts = self.children[0].partitions(ctx)
        if parts is None:
            return None
        return [(lambda t=t: self._transform(ctx, t())) for t in parts]

    def _transform(self, ctx: ExecContext, stream: Iterator[RecordBatch]) -> Iterator[RecordBatch]:
        for batch in stream:
            n = batch.length
            if not n:
                continue
            values = _eval_column(self._batch_expr, self._expr, batch, ctx).to_objects()
            idx: List[int] = []
            items: List[Any] = []
            for i in range(n):
                value = values[i]
                if value is None:
                    continue
                if not isinstance(value, list):
                    raise CypherTypeError(
                        f"UNWIND expects a list or null, got {type(value).__name__}"
                    )
                idx.extend([i] * len(value))
                items.extend(value)
            if not idx:
                continue
            out = batch.take(np.asarray(idx, dtype=_I64)).extend(
                self.out_layout, [ValueColumn(object_column(items))]
            )
            yield out


class CartesianProduct(PlanOp):
    """Cross product of disconnected pattern streams (right side
    materialized once, then tiled columnarly against each left batch)."""

    name = "CartesianProduct"

    def __init__(self, left: PlanOp, right: PlanOp) -> None:
        merged = left.out_layout.extend(*right.out_layout.names)
        super().__init__([left, right], merged)
        self._right_slots = [merged.slot(n) for n in right.out_layout.names]
        # columnar tiling requires the right columns to land in fresh
        # trailing slots; overlapping names fall back to the row loop
        left_width = len(left.out_layout)
        self._disjoint = all(slot >= left_width for slot in self._right_slots)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        right_layout = self.children[1].out_layout
        right_batches = [b for b in self.child_stream(ctx, 1) if b.length]
        if not right_batches:
            return
        right = RecordBatch.concat(right_layout, right_batches)
        m = len(right)
        size = ctx.batch_size
        width = len(self.out_layout)
        if not self._disjoint:
            right_rows = right.materialize_rows()
            for batch in self.child_stream(ctx):
                out_rows = []
                for left_rec in batch.iter_rows():
                    for right_rec in right_rows:
                        out = left_rec + [None] * (width - len(left_rec))
                        for slot, value in zip(self._right_slots, right_rec):
                            out[slot] = value
                        out_rows.append(out)
                yield from _chunk_rows(self.out_layout, out_rows, size)
            return
        for batch in self.child_stream(ctx):
            n = batch.length
            if not n:
                continue
            # gather indices generated one output chunk at a time — never
            # the full n×m arrays (O(size) memory)
            total = n * m
            for start in range(0, total, size):
                flat = np.arange(start, min(start + size, total), dtype=_I64)
                out = batch.take(flat // m).extend(
                    self.out_layout, [c.take(flat % m) for c in right.columns]
                )
                yield out


class ApplyOptional(PlanOp):
    """OPTIONAL MATCH: run the right subtree once per left record (seeded
    through its Argument leaf); emit null-extended records when empty.
    Inherently one-outer-record-at-a-time; the base-class bridges batch
    its output."""

    name = "Optional"

    def __init__(self, left: PlanOp, right: PlanOp, argument: Argument) -> None:
        super().__init__([left, right], right.out_layout)
        self._argument = argument

    def _produce(self, ctx: ExecContext) -> Iterator[Record]:
        width = len(self.out_layout)
        for record in self.children[0].produce(ctx):
            self._argument.seed(ctx, record + [None] * (len(self._argument.out_layout) - len(record)))
            matched = False
            for out in self.children[1].produce(ctx):
                matched = True
                yield out
            if not matched:
                yield record + [None] * (width - len(record))


class Results(PlanOp):
    """Plan root: passes records through (column naming happens in the
    executor, which owns the final projection and serializes straight
    from the batch columns)."""

    name = "Results"

    def __init__(self, child: PlanOp) -> None:
        super().__init__([child], child.out_layout)

    def _produce(self, ctx: ExecContext) -> Iterator[Record]:
        return self.children[0].produce(ctx)

    def _produce_batches(self, ctx: ExecContext) -> Iterator[RecordBatch]:
        # the root's pull is where morsel parallelism enters plans whose
        # operator stack is entirely stateless (scan→filter→project→...)
        return self.child_stream(ctx)
