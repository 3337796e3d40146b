"""Plan rewrites applied after construction.

The planner already performs the big structural choices RedisGraph makes
(index-scan selection, folding labels into algebraic expressions, using
ExpandInto for closed patterns).  This pass adds stream-level rewrites:

* **top-k sort**: ``Limit(Sort(x))`` annotates the sort with the limit so
  it keeps a bounded heap instead of materializing + sorting everything,
* **filter fusion**: adjacent Filters merge into one (fewer generator
  hops per record).

Rewrites run exactly once, at compile time, before the plan is frozen
into a cached :class:`~repro.execplan.compiled.CompiledQuery` — they may
restructure the tree and set compile-time annotations (``Sort.top``), but
must never install run-scoped state: the optimized tree is executed
concurrently by every request that hits the cache.
"""

from __future__ import annotations

from repro.execplan.ops_base import PlanOp
from repro.execplan.ops_stream import Filter, Limit, Sort

__all__ = ["optimize"]


def optimize(root: PlanOp) -> PlanOp:
    root = _rewrite(root)
    return root


def _literal_count(limit: Limit) -> int:
    """The LIMIT's count when it is a literal (no record/params needed);
    -1 when it is dynamic and only knowable per execution.

    Only the errors a dynamic count raises when probed without a record
    or parameters are treated as "dynamic" — anything else is a planner
    bug and must propagate instead of silently degrading the top-k sort."""
    try:
        value = limit._count([], None)
    except (AttributeError, IndexError, KeyError, TypeError):
        return -1
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        return -1  # execution raises the proper type error for these
    return value


def _rewrite(op: PlanOp) -> PlanOp:
    op.children = [_rewrite(c) for c in op.children]

    # Limit(Sort(x)) -> Sort with top-k bound (keep the Limit: Skip needs it)
    if isinstance(op, Limit) and op.children and isinstance(op.children[0], Sort):
        sort = op.children[0]
        n = _literal_count(op)
        if n >= 0:
            sort.top = n

    # Filter(Filter(x)) -> one Filter holding both predicate lists (the
    # inner predicates compress each batch before the outer ones run, so
    # fusion keeps the row engine's short-circuit order)
    if isinstance(op, Filter) and op.children and isinstance(op.children[0], Filter):
        inner = op.children[0]
        fused_op = Filter(
            inner.children[0],
            inner._predicates + op._predicates,
            f"{inner._label} AND {op._label}".strip(" AND "),
            inner._selectivities + op._selectivities,
        )
        return fused_op
    return op
