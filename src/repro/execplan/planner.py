"""The query planner: AST clauses → plan-operation tree.

Mirrors RedisGraph's ExecutionPlan construction:

* every MATCH path picks an *anchor* — a bound variable when the path
  connects to earlier clauses, otherwise the cheapest scan (index probe >
  label scan > all-node scan) — and is walked outward from the anchor,
  one traversal operation per relationship,
* each traversal step compiles to an algebraic expression (relation
  matrix × destination label diagonals); single hops become
  ConditionalTraverse / ExpandInto, variable-length hops become
  CondVarLenTraverse,
* inline property maps lower to ``var.key = value`` WHERE conjuncts, so
  both spellings share one extraction: the anchor's NodeByIdSeek or
  IndexRangeScan consumes the conjuncts it answers, every other conjunct
  becomes a Filter right above the first operation that binds all its
  variables, and what no single path binds filters after the paths join,
* WITH/RETURN lower to Project or Aggregate (+ Distinct/Sort/Skip/Limit),
  with aggregate calls rewritten into placeholder slots and implicit
  grouping keys lifted from mixed expressions.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import CypherSemanticError
from repro.cypher import ast_nodes as A
from repro.cypher.semantic import AGGREGATE_FUNCTIONS, has_aggregate
from repro.execplan.algebraic import build_traverse_expression
from repro.execplan.batch import ValueColumn, as_entity_ids
from repro.execplan.expressions import CompiledExpr, compile_expr
from repro.execplan.ops_base import Argument, PlanOp, Unit
from repro.execplan.ops_call import ProcedureCall
from repro.execplan.ops_path import PathSegment, ProjectPath
from repro.execplan.ops_scan import (
    NOT_LITERAL,
    AllNodeScan,
    IndexOrderScan,
    IndexRangeScan,
    NodeByIdSeek,
    NodeByLabelScan,
    SeekSpec,
)
from repro.execplan.ops_stream import (
    AggSpec,
    Aggregate,
    ApplyOptional,
    CartesianProduct,
    Distinct,
    Filter,
    Limit,
    Project,
    Results,
    Skip,
    Sort,
    Unwind,
)
from repro.execplan.ops_traverse import CondVarLenTraverse, ConditionalTraverse, ExpandInto
from repro.execplan.ops_update import (
    Create,
    CreateIndexOp,
    Delete,
    DropIndexOp,
    EdgeCreateSpec,
    Merge,
    NodeCreateSpec,
    RemoveOp,
    SetOp,
)
from repro.graph.entities import Node
from repro.procedures import registry as proc_registry

if TYPE_CHECKING:  # avoid a runtime cycle with repro.execplan.compiled
    from repro.execplan.compiled import PlanSchema

__all__ = ["plan_single_query", "PlannedQuery"]


class PlannedQuery:
    """A compiled query part: plan root + output column names (None for
    update-only queries) + whether it writes."""

    def __init__(self, root: PlanOp, columns: Optional[List[str]], writes: bool) -> None:
        self.root = root
        self.columns = columns
        self.writes = writes

    def explain(self, *, profile=None) -> str:
        """The plan tree; ``profile`` is a ProfileRun to decorate with."""
        return "\n".join(self.root.tree_lines(profile=profile))


class _Planner:
    def __init__(self, schema: "PlanSchema") -> None:
        self.schema = schema
        self.root: Optional[PlanOp] = None
        self.visible: List[str] = []  # user-visible variable names, in order
        self._anon = itertools.count()
        self.writes = False
        self.columns: Optional[List[str]] = None
        # the current MATCH's AND-conjuncts (inline maps lowered in) with
        # their identifiers; seeks and placed Filters consume them by
        # node identity, what is left is the residual WHERE filter
        self._conjuncts: List[Tuple[A.Expr, Set[str]]] = []
        self._id_seeks: Dict[str, Tuple[A.Expr, A.Expr]] = {}
        self._range_preds: Dict[str, List["_RangeConjunct"]] = {}
        self._consumed_conjuncts: Set[int] = set()
        stats = getattr(schema, "stats", None)
        if stats is not None:
            from repro.execplan.cost import CostModel  # planner<->cost cycle

            self.cost: Optional["CostModel"] = CostModel(stats)
        else:
            # cost_based_planner=0: no statistics snapshot, every choice
            # below falls back to the syntactic rules verbatim
            self.cost = None

    # ------------------------------------------------------------------
    def _anon_var(self) -> str:
        return f"@anon{next(self._anon)}"

    def _layout(self):
        from repro.execplan.record import Layout

        return self.root.out_layout if self.root is not None else Layout()

    def _bound(self) -> Set[str]:
        return set(self._layout().names)

    def _expose(self, name: Optional[str]) -> None:
        if name and not name.startswith("@") and name not in self.visible:
            self.visible.append(name)

    # ------------------------------------------------------------------
    # Clause dispatch
    # ------------------------------------------------------------------
    def add_clause(self, clause) -> None:
        # only a *terminal* result-producing clause (RETURN, or a trailing
        # CALL ... YIELD) decides the output columns; anything planned
        # after one of those would have re-set it anyway, so reset first
        self.columns = None
        if isinstance(clause, A.MatchClause):
            self._plan_match(clause)
        elif isinstance(clause, A.CreateClause):
            self._plan_create(clause)
        elif isinstance(clause, A.MergeClause):
            self._plan_merge(clause)
        elif isinstance(clause, A.DeleteClause):
            self._plan_delete(clause)
        elif isinstance(clause, A.SetClause):
            self._plan_set(clause)
        elif isinstance(clause, A.RemoveClause):
            self._plan_remove(clause)
        elif isinstance(clause, A.UnwindClause):
            self._plan_unwind(clause)
        elif isinstance(clause, A.WithClause):
            self._plan_projection_clause(clause, is_return=False)
        elif isinstance(clause, A.ReturnClause):
            self._plan_projection_clause(clause, is_return=True)
        elif isinstance(clause, A.CallClause):
            self._plan_call(clause)
        elif isinstance(clause, A.CreateIndexClause):
            self.root = CreateIndexOp(
                clause.label,
                attributes=clause.attributes,
                kind=clause.kind,
                options=clause.options,
            )
            self.writes = True
        elif isinstance(clause, A.DropIndexClause):
            self.root = DropIndexOp(
                clause.label, attributes=clause.attributes, kind=clause.kind
            )
            self.writes = True
        else:  # pragma: no cover
            raise CypherSemanticError(f"unsupported clause {clause!r}")

    # ------------------------------------------------------------------
    # CALL ... YIELD
    # ------------------------------------------------------------------
    def _plan_call(self, clause: A.CallClause) -> None:
        from repro.execplan.record import Layout

        proc = proc_registry.resolve(clause.procedure)
        # the semantic pass already expanded/validated YIELD; an empty
        # tuple here is the trailing implicit-star form
        yields = clause.yields or tuple(A.YieldItem(c.name) for c in proc.yields)
        child = self.root
        layout = child.out_layout if child is not None else Layout()
        arg_fns = [compile_expr(a, layout) for a in clause.args]
        outputs = [(proc.column(item.column), item.output_name()) for item in yields]
        out_layout = layout.extend(*[name for _, name in outputs])
        self.root = ProcedureCall(child, proc, arg_fns, outputs, out_layout)
        for _, name in outputs:
            self._expose(name)
        if clause.where is not None:
            self.root = Filter(self.root, compile_expr(clause.where, out_layout), "WHERE")
        # a trailing CALL produces the query's result columns (overwritten
        # by the add_clause reset if anything follows)
        self.columns = [name for _, name in outputs]

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------
    def _plan_match(self, clause: A.MatchClause) -> None:
        if clause.optional:
            self._plan_optional_match(clause)
            return
        self._plan_patterns(clause.patterns, clause.where)

    def _plan_optional_match(self, clause: A.MatchClause) -> None:
        if self.root is None:
            # OPTIONAL MATCH as the first clause: a bare match that may
            # produce an all-null row
            left: PlanOp = Unit()
        else:
            left = self.root
        argument = Argument(left.out_layout)
        sub = self._subplanner(argument)
        sub._plan_patterns(clause.patterns, clause.where)
        self.root = ApplyOptional(left, sub.root, argument)
        for name in sub.visible:
            self._expose(name)

    def _subplanner(self, argument: Argument) -> "_Planner":
        """A planner for an Apply-style arm rooted at ``argument``; it
        shares the anonymous-name counter, so the arm's planner names
        never collide with the outer stream's."""
        sub = _Planner(self.schema)
        sub.root = argument
        sub.visible = list(self.visible)
        sub._anon = self._anon
        return sub

    def _plan_patterns(self, patterns: Sequence[A.Path], where: Optional[A.Expr]) -> None:
        """Plan one MATCH (or MERGE match arm): lower the inline property
        maps into ``where``'s AND-conjuncts, walk every path, and filter
        whatever no seek consumed and no path could place on its own."""
        patterns, conjuncts = self._lower_property_maps(patterns, where)
        self._conjuncts = [(c, _identifier_names(c)) for c in conjuncts]
        self._id_seeks = _extract_id_seeks(conjuncts)
        self._range_preds = _extract_range_conjuncts(conjuncts)
        self._consumed_conjuncts = set()
        try:
            for path in patterns:
                self._plan_path(path)
            residual = [c for c in conjuncts if id(c) not in self._consumed_conjuncts]
        finally:
            self._conjuncts = []
            self._id_seeks = {}
            self._range_preds = {}
            self._consumed_conjuncts = set()
        if residual:
            self.root = self._conjunct_filter(self.root, residual)

    def _conjunct_filter(self, child: PlanOp, conjuncts: Sequence[A.Expr]) -> Filter:
        """One WHERE Filter over ``conjuncts``, each carrying the
        selectivity the cost model prices it at (EXPLAIN's est_rows then
        matches the frontier the join order was chosen by)."""
        layout = child.out_layout
        sel = [self.cost.conjunct_selectivity(c) for c in conjuncts] if self.cost is not None else None
        return Filter(child, [compile_expr(c, layout) for c in conjuncts], "WHERE", sel)

    def _lower_property_maps(
        self, patterns: Sequence[A.Path], where: Optional[A.Expr]
    ) -> Tuple[List[A.Path], List[A.Expr]]:
        """Rewrite every inline property map ``{k: v}`` into the
        AND-conjunct ``var.k = v`` (anonymous elements get planner names),
        so inline maps and WHERE take one predicate path.  Returns the
        map-free patterns and the conjuncts: the maps' in pattern order,
        then ``where``'s."""
        conjuncts: List[A.Expr] = []

        def lower(element, var):
            for key, value in element.properties:
                conjuncts.append(A.Comparison("=", A.PropertyAccess(A.Identifier(var), key), value))
            return dataclasses.replace(element, var=var, properties=())

        lowered = []
        for path in patterns:
            nodes, rels = [], []
            for i, node in enumerate(path.nodes):
                if node.properties:
                    node = lower(node, node.var or self._anon_var())
                nodes.append(node)
                if i == len(path.rels):
                    break
                rel = path.rels[i]
                if rel.properties:
                    if rel.variable_length:
                        raise CypherSemanticError(
                            "property maps on variable-length relationships are not supported"
                        )
                    rel = lower(rel, rel.var or self._anon_var())
                rels.append(rel)
            lowered.append(dataclasses.replace(path, nodes=tuple(nodes), rels=tuple(rels)))
        return lowered, conjuncts + _split_and(where)

    def _conjuncts_on(self, var: str, bound: Set[str]) -> List[A.Expr]:
        """Unconsumed conjuncts a Filter would place on ``var`` once it
        binds: those naming ``var`` and otherwise only ``bound`` names."""
        return [
            c
            for c, names in self._conjuncts
            if var in names and names <= bound | {var} and id(c) not in self._consumed_conjuncts
        ]

    def _plan_path(self, path: A.Path) -> None:
        path_var = path.var
        nodes = list(path.nodes)
        rels = list(path.rels)
        if path_var is not None:
            # every fixed-length hop of a named path must bind an edge
            # variable (anonymous ones get planner-internal names) so
            # ProjectPath can read the realized edge from the record
            rels = [
                dataclasses.replace(rel, var=self._anon_var())
                if rel.var is None and not rel.variable_length
                else rel
                for rel in rels
            ]
        bound = self._bound()

        # resolve variables: give anonymous nodes internal names
        node_vars: List[str] = []
        for node in nodes:
            node_vars.append(node.var if node.var is not None else self._anon_var())

        # anchor selection: a bound node wins; otherwise best scan
        anchor = None
        for i, var in enumerate(node_vars):
            if var in bound:
                anchor = i
                break
        connected = anchor is not None
        correlated = False
        anchor_est = 1.0

        if anchor is None:
            if self.cost is not None:
                anchor = self._cost_scan_anchor(nodes, node_vars, rels)
                # priced before scan_anchor consumes the anchor's conjuncts
                anchor_est = self._anchor_access_estimate(nodes[anchor], node_vars[anchor])[0]
            else:
                anchor = self._best_scan_anchor(nodes, node_vars)
            # a path is *correlated* when a conjunct on its anchor reads a
            # bound variable (UNWIND xs AS x MATCH (n:P) WHERE n.uid = x):
            # the anchor's seek or scan runs per stream row.  A conjunct
            # further along the path filters above a CartesianProduct
            # instead, so the path's traversals run once.
            anchor_var = node_vars[anchor]
            correlated = any(
                _identifier_names(c) - {anchor_var} for c in self._conjuncts_on(anchor_var, bound)
            )

        # build the path subtree; disconnected paths start their own chain
        chain_root = self.root if (connected or correlated) else None
        chain = _PathChain(self, chain_root)
        if not connected:
            chain.scan_anchor(nodes[anchor], node_vars[anchor])
        else:
            # a restated bound anchor's labels still need checking
            chain.constrain(node_vars[anchor], nodes[anchor].labels)

        if self.cost is not None:
            # greedy join order: at each point extend whichever side of the
            # bound [l, r] range keeps the estimated frontier smallest
            steps = self._greedy_steps(
                anchor,
                anchor_est,
                nodes,
                node_vars,
                rels,
                bound=chain.bound(),
            )
            for i, forward, _ in steps:
                if forward:
                    chain.traverse(rels[i], nodes[i + 1], node_vars[i], node_vars[i + 1], forward=True)
                else:
                    chain.traverse(rels[i], nodes[i], node_vars[i + 1], node_vars[i], forward=False)
        else:
            for i in range(anchor, len(rels)):
                chain.traverse(rels[i], nodes[i + 1], node_vars[i], node_vars[i + 1], forward=True)
            for i in range(anchor - 1, -1, -1):
                chain.traverse(rels[i], nodes[i], node_vars[i + 1], node_vars[i], forward=False)

        subtree = chain.root
        if path_var is not None:
            subtree = self._project_path(subtree, path_var, node_vars, rels)
        if connected or correlated or self.root is None:
            self.root = subtree
        else:
            self.root = CartesianProduct(self.root, subtree)
        for node in nodes:
            self._expose(node.var)
        for rel in rels:
            self._expose(rel.var)
        self._expose(path_var)

    def _project_path(
        self,
        subtree: PlanOp,
        path_var: str,
        node_vars: Sequence[str],
        rels: Sequence[A.RelPattern],
    ) -> PlanOp:
        """Top the finished pattern chain with a ProjectPath assembling the
        named path in pattern order.  Segment expressions are built in
        *pattern* direction (independent of the order/orientation the
        chain walked the hops in)."""
        layout = subtree.out_layout
        node_slots = [layout.slot(v) for v in node_vars]
        segments: List[PathSegment] = []
        for rel in rels:
            if rel.variable_length:
                segments.append(
                    PathSegment(
                        None,
                        rel.types,
                        rel.direction,
                        build_traverse_expression(rel.types, rel.direction, ()),
                        True,
                    )
                )
            else:
                segments.append(
                    PathSegment(layout.slot(rel.var), rel.types, rel.direction, None, False)
                )
        return ProjectPath(subtree, path_var, node_slots, segments)

    def _best_scan_anchor(self, nodes: Sequence[A.NodePattern], node_vars: Sequence[str]) -> int:
        """Cheapest entry point: id-seek > index seek > label > any."""
        best, best_score = 0, -1
        bound = self._bound()
        for i, node in enumerate(nodes):
            seek = self._anchor_seek(node, node_vars[i], bound)
            if seek is not None:
                score = 3 if seek[0] == "id" else 2
            else:
                score = 1 if node.labels else 0
            if score > best_score:
                best, best_score = i, score
        return best

    def _anchor_seek(self, node: A.NodePattern, var: str, base: Set[str]):
        """The seek ``var``'s scan opens with when the names in ``base``
        are bound: ``("id", (conjunct, value))``, ``("index", pick)`` (see
        :meth:`_pick_conjunct_seek`) or None for a label or full scan."""
        seek = self._id_seeks.get(var)
        if seek is not None and not (_identifier_names(seek[1]) - base):
            return "id", seek
        if node.labels:
            pick = self._pick_conjunct_seek(node.labels[0], var, base)
            if pick is not None:
                return "index", pick
        return None

    def _pick_conjunct_seek(self, label: str, var: str, base_names: Set[str]):
        """Choose the index seek for ``var``'s WHERE conjuncts, or None.

        Candidates: a range index on any conjunct attribute (consuming
        every usable conjunct on it), and each composite index with an
        eq-covered leading attribute prefix (longest prefix wins — sound
        because composite entries key the node's longest indexable
        prefix).  Rule ranking prefers coverage, then range over
        composite, then attribute order; with statistics the cheapest
        priced candidate wins and one pricing worse than its label scan
        is rejected.

        Returns (kind, index attributes, conjuncts consumed, est rows).
        """
        conjuncts = self._range_preds.get(var)
        if not conjuncts:
            return None
        usable = [c for c in conjuncts if not (_identifier_names(c.value) - base_names)]
        if not usable:
            return None
        candidates = []  # (coverage, kind_rank, attrs, kind, chosen)
        by_attr: Dict[str, List[_RangeConjunct]] = {}
        for c in usable:
            by_attr.setdefault(c.attr, []).append(c)
        for attr, cs in sorted(by_attr.items()):
            if self.schema.has_index(label, attr):
                candidates.append((len(cs), 0, (attr,), "range", cs))
        eq_by_attr: Dict[str, _RangeConjunct] = {}
        for c in usable:
            if c.op == "=" and c.attr not in eq_by_attr:
                eq_by_attr[c.attr] = c
        for attrs in self.schema.composite_indexes(label):
            chosen = []
            for attr in attrs:
                c = eq_by_attr.get(attr)
                if c is None:
                    break
                chosen.append(c)
            if chosen:
                candidates.append((len(chosen), 1, attrs, "composite", chosen))
        if not candidates:
            return None
        if self.cost is None:
            coverage, _, attrs, kind, chosen = min(
                candidates, key=lambda c: (-c[0], c[1], c[2])
            )
            return kind, attrs, chosen, None
        best = None
        for coverage, kind_rank, attrs, kind, chosen in candidates:
            est = self.cost.seek_estimate(
                label, attrs, kind, [(c.op, _literal_of(c.value)) for c in chosen]
            )
            key = (est, -coverage, kind_rank, attrs)
            if best is None or key < best[0]:
                best = (key, attrs, kind, chosen, est)
        _, attrs, kind, chosen, est = best
        if est > self.cost.label_count(label):
            return None  # degenerate index pricing worse than its label scan
        return kind, attrs, chosen, est

    # ------------------------------------------------------------------
    # Cost-based path planning (cost_based_planner=1)
    # ------------------------------------------------------------------
    def _anchor_access_estimate(
        self, node: A.NodePattern, var: str
    ) -> Tuple[float, float, int]:
        bound = self._bound()
        seek = self._anchor_seek(node, var, bound)
        seek_rows = None
        if seek is None:
            consumed = set()
        elif seek[0] == "id":
            consumed = {id(seek[1][0])}
        else:
            seek_rows = seek[1][3]
            consumed = {id(c.expr) for c in seek[1][2]}
        residual = [c for c in self._conjuncts_on(var, bound) if id(c) not in consumed]
        return self.cost.access_estimate(
            node.labels,
            self.cost.conjuncts_selectivity(residual),
            id_seek=seek is not None and seek[0] == "id",
            seek_rows=seek_rows,
        )

    def _price_step(
        self, rel: A.RelPattern, dst_node: A.NodePattern, dst_var: str,
        src_est: float, seen: Set[str], *, forward: bool,
    ) -> Tuple[float, float, float]:
        direction = rel.direction
        if not forward:
            direction = {"out": "in", "in": "out", "any": "any"}[direction]
        dst_bound = dst_var in seen
        if rel.variable_length:
            min_hops, max_hops = rel.min_hops, rel.max_hops if rel.max_hops >= 0 else 8
        else:
            min_hops = max_hops = 1
        return self.cost.step_estimate(
            src_est,
            rel.types,
            direction,
            () if dst_bound else dst_node.labels,
            1.0
            if dst_bound
            else self.cost.conjuncts_selectivity(self._conjuncts_on(dst_var, seen | self._bound())),
            variable_length=rel.variable_length,
            min_hops=min_hops,
            max_hops=max_hops,
            dst_bound=dst_bound,
        )

    def _greedy_steps(
        self,
        anchor: int,
        est: float,
        nodes: Sequence[A.NodePattern],
        node_vars: Sequence[str],
        rels: Sequence[A.RelPattern],
        *,
        bound: Optional[Set[str]] = None,
    ) -> List[Tuple[int, bool, float]]:
        """The outward walk as (rel index, forward, work) steps, extending
        whichever end of the bound [l, r] range keeps the estimated
        frontier smallest; ``work`` is the rows that step materializes
        (what :meth:`_cost_scan_anchor` sums when comparing anchors).

        Equal estimates tie-break on the sparser source side (walking a
        relationship leftward flips its direction, i.e. reads the cached
        transpose — this is where in/out degree asymmetry picks the
        matrix), then toward the right end, so empty or symmetric
        statistics reproduce the rule-based all-right-then-all-left
        order exactly."""
        steps: List[Tuple[int, bool, float]] = []
        seen: Set[str] = {node_vars[anchor]} | (bound or set())
        l = r = anchor
        while l > 0 or r < len(rels):
            choices = []
            if r < len(rels):
                e, work, frac = self._price_step(
                    rels[r], nodes[r + 1], node_vars[r + 1], est, seen, forward=True
                )
                choices.append((e, frac, 0, work))
            if l > 0:
                e, work, frac = self._price_step(
                    rels[l - 1], nodes[l - 1], node_vars[l - 1], est, seen, forward=False
                )
                choices.append((e, frac, 1, work))
            est, _, side, work = min(choices)
            if side == 0:
                steps.append((r, True, work))
                seen.add(node_vars[r + 1])
                r += 1
            else:
                steps.append((l - 1, False, work))
                seen.add(node_vars[l - 1])
                l -= 1
        return steps

    def _cost_scan_anchor(
        self,
        nodes: Sequence[A.NodePattern],
        node_vars: Sequence[str],
        rels: Sequence[A.RelPattern],
    ) -> int:
        """Anchor by estimated pipeline cost: for each candidate, sum the
        rows its access path and the greedy walk it implies materialize,
        and take the cheapest total.  Summing *work* (pre-property-filter
        rows) rather than output cardinality keeps a plan from looking
        cheap just because a late Filter discards most of what it built.
        The rule score and position tie-break equal totals, so empty
        statistics reproduce ``_best_scan_anchor``."""
        best, best_key = 0, None
        for i in range(len(nodes)):
            est, access_work, score = self._anchor_access_estimate(nodes[i], node_vars[i])
            total = access_work
            for _, _, step_work in self._greedy_steps(i, est, nodes, node_vars, rels):
                total += step_work
            key = (total, -score, i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    # ------------------------------------------------------------------
    # CREATE / MERGE
    # ------------------------------------------------------------------
    def _create_specs(self, path: A.Path, bound: Set[str], layout) -> Tuple[List[NodeCreateSpec], List[EdgeCreateSpec]]:
        node_specs: List[NodeCreateSpec] = []
        seen_in_path: Dict[str, int] = {}
        for node in path.nodes:
            if node.var is not None and node.var in seen_in_path:
                # the same variable twice in one CREATE path refers to the
                # same (just-created) node
                node_specs.append(node_specs[seen_in_path[node.var]])
                continue
            is_bound = node.var is not None and node.var in bound
            props = tuple((k, compile_expr(v, layout)) for k, v in node.properties)
            if is_bound and (node.labels or props):
                raise CypherSemanticError(
                    f"cannot restate labels/properties on bound variable {node.var!r} in CREATE"
                )
            spec = NodeCreateSpec(node.var, node.labels, props, is_bound)
            if node.var is not None:
                seen_in_path[node.var] = len(node_specs)
            node_specs.append(spec)
        edge_specs: List[EdgeCreateSpec] = []
        for i, rel in enumerate(path.rels):
            props = tuple((k, compile_expr(v, layout)) for k, v in rel.properties)
            src, dst = i, i + 1
            if rel.direction == "in":
                src, dst = dst, src
            edge_specs.append(EdgeCreateSpec(rel.var, rel.types[0], src, dst, props))
        return node_specs, edge_specs

    def _plan_create(self, clause: A.CreateClause) -> None:
        child = self.root if self.root is not None else Unit()
        bound = set(child.out_layout.names)
        paths = []
        for p in clause.patterns:
            specs = self._create_specs(p, bound, child.out_layout)
            paths.append(specs)
            # nodes created by this path are visible to later paths of the
            # same clause: CREATE (a), (a)-[:R]->(b)
            for spec in specs[0]:
                if spec.var:
                    bound.add(spec.var)
        self.root = Create(child, paths)
        self.writes = True
        for path in clause.patterns:
            for node in path.nodes:
                self._expose(node.var)
            for rel in path.rels:
                self._expose(rel.var)

    def _plan_merge(self, clause: A.MergeClause) -> None:
        child = self.root if self.root is not None else Unit()
        argument = Argument(child.out_layout)
        sub = self._subplanner(argument)
        sub._plan_patterns((clause.pattern,), None)
        bound = set(child.out_layout.names)
        paths = [self._create_specs(clause.pattern, bound, child.out_layout)]
        # ON CREATE / ON MATCH items compile against the merge arm's layout
        # (pattern variables plus everything bound before the MERGE)
        merge_layout = sub.root.out_layout

        def compile_items(items):
            out = []
            for item in items:
                value_fn = compile_expr(item.value, merge_layout) if item.value is not None else None
                out.append((item.target, item.key, value_fn, item.labels, item.merge_map))
            return out

        self.root = Merge(
            child,
            sub.root,
            argument,
            paths,
            on_create=compile_items(clause.on_create),
            on_match=compile_items(clause.on_match),
        )
        self.writes = True
        for node in clause.pattern.nodes:
            self._expose(node.var)
        for rel in clause.pattern.rels:
            self._expose(rel.var)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _plan_delete(self, clause: A.DeleteClause) -> None:
        layout = self._layout()
        exprs = [compile_expr(e, layout) for e in clause.exprs]
        self.root = Delete(self.root, exprs, detach=clause.detach)
        self.writes = True

    def _plan_set(self, clause: A.SetClause) -> None:
        layout = self._layout()
        items = []
        for item in clause.items:
            value_fn = compile_expr(item.value, layout) if item.value is not None else None
            items.append((item.target, item.key, value_fn, item.labels, item.merge_map))
        self.root = SetOp(self.root, items)
        self.writes = True

    def _plan_remove(self, clause: A.RemoveClause) -> None:
        items = [(i.target, i.key, i.labels) for i in clause.items]
        self.root = RemoveOp(self.root, items)
        self.writes = True

    def _plan_unwind(self, clause: A.UnwindClause) -> None:
        child = self.root if self.root is not None else Unit()
        fn = compile_expr(clause.expr, child.out_layout)
        self.root = Unwind(child, fn, clause.alias)
        self._expose(clause.alias)

    # ------------------------------------------------------------------
    # WITH / RETURN
    # ------------------------------------------------------------------
    def _expand_star(self, projections: Sequence[A.Projection]) -> List[A.Projection]:
        out: List[A.Projection] = []
        for proj in projections:
            if proj.star:
                for name in self.visible:
                    out.append(A.Projection(A.Identifier(name), name))
            else:
                out.append(proj)
        return out

    def _plan_projection_clause(self, clause, *, is_return: bool) -> None:
        child = self.root if self.root is not None else Unit()
        projections = self._expand_star(clause.projections)
        names = [p.output_name() for p in projections]

        any_aggregate = any(has_aggregate(p.expr) for p in projections)

        # index-ordered fast path: when the sole sort key is one
        # range-indexed attribute of a bare label scan (nothing between
        # the scan and this projection that could reorder or filter),
        # stream the index's sorted arrays instead of materializing a
        # Sort — `ORDER BY n.attr LIMIT k` then stops after k rows.
        # Detected against the original ORDER BY, before the
        # output-column remap below rewrites it to an Identifier.
        if (
            len(clause.order_by) == 1
            and not any_aggregate
            and not clause.distinct
            and isinstance(child, NodeByLabelScan)
            and not child.children
        ):
            item = clause.order_by[0]
            key_expr = item.expr
            if isinstance(key_expr, A.Identifier):
                # ORDER BY an output alias sorts on the aliased expression
                for name, p in zip(names, projections):
                    if name == key_expr.name:
                        key_expr = p.expr
                        break
            if (
                isinstance(key_expr, A.PropertyAccess)
                and isinstance(key_expr.subject, A.Identifier)
                and key_expr.subject.name == child._var
                and self.schema.has_index(child._label, key_expr.key)
            ):
                child = IndexOrderScan(
                    child._var, child._label, key_expr.key, item.ascending
                )
                clause = _replace_order_by(clause, ())

        # an ORDER BY expression identical to a projection expression sorts
        # on the output column (`RETURN DISTINCT b.name ORDER BY b.name`)
        expr_to_name = {p.expr: n for n, p in zip(names, projections)}
        clause_order_by = tuple(
            A.OrderItem(A.Identifier(expr_to_name[item.expr]), item.ascending)
            if item.expr in expr_to_name
            else item
            for item in clause.order_by
        )
        clause = _replace_order_by(clause, clause_order_by)

        # ORDER BY may reference pre-projection variables (Cypher allows
        # `RETURN n.name ORDER BY n.age`); thread them through as hidden
        # columns dropped after the sort.  Not with DISTINCT or aggregation,
        # where the sort keys must be computable from the output columns —
        # the same restriction Neo4j enforces.
        hidden: List[str] = []
        if clause.order_by and not any_aggregate:
            needed: Set[str] = set()
            for item in clause.order_by:
                needed |= _identifier_names(item.expr)
            hidden = [
                n for n in sorted(needed) if n not in names and n in child.out_layout
            ]
            if hidden and clause.distinct:
                raise CypherSemanticError(
                    "with DISTINCT, ORDER BY may only reference returned columns"
                )

        if any_aggregate:
            self.root = self._plan_aggregation(child, projections, names)
        else:
            items = [(name, compile_expr(p.expr, child.out_layout)) for name, p in zip(names, projections)]
            items += [(n, compile_expr(A.Identifier(n), child.out_layout)) for n in hidden]
            self.root = Project(child, items)

        out_layout = self.root.out_layout
        if clause.distinct:
            self.root = Distinct(self.root)
        if clause.order_by:
            keys = []
            for item in clause.order_by:
                keys.append((compile_expr(item.expr, out_layout), item.ascending))
            self.root = Sort(self.root, keys)
        if clause.skip is not None:
            self.root = Skip(self.root, compile_expr(clause.skip, out_layout))
        if clause.limit is not None:
            self.root = Limit(self.root, compile_expr(clause.limit, out_layout))
        if not is_return and clause.where is not None:
            self.root = Filter(self.root, compile_expr(clause.where, out_layout), "WHERE")
        if hidden:
            keep = [(n, compile_expr(A.Identifier(n), self.root.out_layout)) for n in names]
            self.root = Project(self.root, keep)

        self.visible = list(names)
        if is_return:
            self.columns = list(names)

    def _plan_aggregation(self, child: PlanOp, projections, names) -> PlanOp:
        """Rewrite aggregate calls to placeholder slots, lift implicit group
        keys out of mixed expressions, and stack Aggregate + Project."""
        group_items: List[Tuple[str, CompiledExpr]] = []
        agg_items: List[Tuple[str, AggSpec]] = []
        outer_items: List[Tuple[str, A.Expr]] = []
        group_index: Dict[A.Expr, str] = {}

        def lift_group(expr: A.Expr) -> str:
            if expr in group_index:
                return group_index[expr]
            name = f"@grp{len(group_items)}"
            group_items.append((name, compile_expr(expr, child.out_layout)))
            group_index[expr] = name
            return name

        def rewrite(expr: A.Expr) -> A.Expr:
            if isinstance(expr, A.FunctionCall) and expr.name in AGGREGATE_FUNCTIONS:
                slot = f"@agg{len(agg_items)}"
                arg_fn = compile_expr(expr.args[0], child.out_layout) if expr.args else None
                kind = expr.name if expr.name != "stdev" else "stdev"
                agg_items.append((slot, AggSpec(kind, arg_fn, expr.distinct)))
                return A.Identifier(slot)
            if not has_aggregate(expr):
                if isinstance(expr, A.Literal):
                    return expr
                return A.Identifier(lift_group(expr))
            # rebuild containers around aggregate leaves
            if isinstance(expr, A.Binary):
                return A.Binary(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.Comparison):
                return A.Comparison(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.BoolOp):
                return A.BoolOp(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.Not):
                return A.Not(rewrite(expr.operand))
            if isinstance(expr, A.Unary):
                return A.Unary(expr.op, rewrite(expr.operand))
            if isinstance(expr, A.FunctionCall):
                return A.FunctionCall(expr.name, tuple(rewrite(a) for a in expr.args), expr.distinct)
            if isinstance(expr, A.ListLiteral):
                return A.ListLiteral(tuple(rewrite(i) for i in expr.items))
            if isinstance(expr, A.MapLiteral):
                return A.MapLiteral(tuple((k, rewrite(v)) for k, v in expr.items))
            if isinstance(expr, A.PropertyAccess):
                return A.PropertyAccess(rewrite(expr.subject), expr.key)
            if isinstance(expr, A.Subscript):
                return A.Subscript(rewrite(expr.subject), rewrite(expr.index))
            if isinstance(expr, A.Slice):
                return A.Slice(
                    rewrite(expr.subject),
                    rewrite(expr.start) if expr.start is not None else None,
                    rewrite(expr.stop) if expr.stop is not None else None,
                )
            if isinstance(expr, A.IsNull):
                return A.IsNull(rewrite(expr.operand), expr.negated)
            if isinstance(expr, A.InList):
                return A.InList(rewrite(expr.needle), rewrite(expr.haystack))
            if isinstance(expr, A.StringPredicate):
                return A.StringPredicate(expr.op, rewrite(expr.left), rewrite(expr.right))
            if isinstance(expr, A.CaseExpr):
                return A.CaseExpr(
                    rewrite(expr.subject) if expr.subject is not None else None,
                    tuple((rewrite(w), rewrite(t)) for w, t in expr.whens),
                    rewrite(expr.default) if expr.default is not None else None,
                )
            raise CypherSemanticError(
                f"aggregation inside {expr.__class__.__name__} is not supported"
            )

        for name, proj in zip(names, projections):
            if has_aggregate(proj.expr):
                outer_items.append((name, rewrite(proj.expr)))
            else:
                # pure grouping projection: keep its own output name
                group_items.append((name, compile_expr(proj.expr, child.out_layout)))
                group_index[proj.expr] = name
                outer_items.append((name, A.Identifier(name)))

        agg_op = Aggregate(child, group_items, agg_items)
        project_items = [(name, compile_expr(expr, agg_op.out_layout)) for name, expr in outer_items]
        return Project(agg_op, project_items)


class _PathChain:
    """Builds the op chain of one MATCH path, walking outward from the
    anchor node; after each binding step it places every conjunct whose
    variables are now all bound."""

    def __init__(self, planner: _Planner, root: Optional[PlanOp]) -> None:
        self.planner = planner
        self.root = root

    def bound(self) -> Set[str]:
        return set(self.root.out_layout.names) if self.root is not None else set()

    def scan_anchor(self, node: A.NodePattern, var: str) -> None:
        from repro.execplan.record import Layout

        planner = self.planner
        child = self.root  # None for standalone paths; stream for correlated
        layout = child.out_layout if child is not None else Layout()
        base = set(layout.names)
        scan: PlanOp
        labels = node.labels
        seek = planner._anchor_seek(node, var, base)
        if seek is not None and seek[0] == "id":
            conjunct, value = seek[1]
            scan = NodeByIdSeek(var, compile_expr(value, layout), child)
            planner._consumed_conjuncts.add(id(conjunct))
        elif labels:
            if seek is not None:
                kind, attrs, chosen, _est = seek[1]
                specs = [
                    SeekSpec(
                        c.attr,
                        c.op,
                        compile_expr(c.value, layout),
                        f"{var}.{c.attr} {c.op} {_value_display(c.value)}",
                        _literal_of(c.value),
                    )
                    for c in chosen
                ]
                scan = IndexRangeScan(var, labels[0], kind, attrs, specs, child)
                planner._consumed_conjuncts.update(id(c.expr) for c in chosen)
            else:
                scan = NodeByLabelScan(var, labels[0], child)
            labels = labels[1:]
        else:
            scan = AllNodeScan(var, child)
        self.root = scan
        self.constrain(var, labels)

    def constrain(self, var: str, labels: Sequence[str]) -> None:
        """Check ``labels`` on the just-bound ``var``, then filter every
        pending conjunct whose variables the chain now all binds."""
        if labels:
            slot = self.root.out_layout.slot(var)
            predicate = _LabelCheckPredicate(slot, tuple(labels))
            self.root = Filter(self.root, predicate, f"{var}:{':'.join(labels)}")
        planner = self.planner
        bound = self.bound()
        ready = [
            c
            for c, names in planner._conjuncts
            if names <= bound and id(c) not in planner._consumed_conjuncts
        ]
        if ready:
            planner._consumed_conjuncts.update(id(c) for c in ready)
            self.root = planner._conjunct_filter(self.root, ready)

    def traverse(
        self,
        rel: A.RelPattern,
        dst_node: A.NodePattern,
        src_var: str,
        dst_var: str,
        *,
        forward: bool,
    ) -> None:
        """One relationship step from a bound src to dst (possibly bound)."""
        direction = rel.direction
        if not forward:
            direction = {"out": "in", "in": "out", "any": "any"}[direction]

        dst_bound = dst_var in self.bound()
        # single hops fold destination labels into the algebra; variable
        # length must not (labels constrain only the endpoint, not the
        # intermediate hops the iterated matrix would otherwise filter)
        fold_labels = () if (dst_bound or rel.variable_length) else dst_node.labels
        expression = build_traverse_expression(rel.types, direction, fold_labels)
        edge_var = rel.var

        if rel.variable_length:
            self.root = CondVarLenTraverse(
                self.root,
                src_var,
                dst_var,
                expression,
                rel.min_hops,
                rel.max_hops,
                dst_bound=dst_bound,
            )
        elif dst_bound:
            self.root = ExpandInto(
                self.root,
                src_var,
                dst_var,
                expression,
                edge_var=edge_var,
                types=rel.types,
                direction=direction,
            )
        else:
            self.root = ConditionalTraverse(
                self.root,
                src_var,
                dst_var,
                expression,
                edge_var=edge_var,
                types=rel.types,
                direction=direction,
            )
        # folded labels need no check; restated ones on a bound variable
        # and a variable-length endpoint's still filter
        self.constrain(dst_var, () if fold_labels else dst_node.labels)


class _LabelCheckPredicate:
    """Residual label filter with a vectorized twin: per batch, one bulk
    ``nodes_have_labels`` gather instead of per-row ``has_label`` probes.
    Scalar form kept for the row bridges and error fallback."""

    __slots__ = ("_slot", "_wanted")

    def __init__(self, slot: int, wanted: Tuple[str, ...]) -> None:
        self._slot = slot
        self._wanted = wanted

    def __call__(self, record, ctx):
        entity = record[self._slot]
        return isinstance(entity, Node) and all(
            ctx.graph.has_label(entity.id, l) for l in self._wanted
        )

    def batch_eval(self, batch, ctx):
        col = batch.columns[self._slot]
        entity = as_entity_ids(col)
        if entity is not None and entity[0] == "node":
            return ValueColumn(ctx.graph.nodes_have_labels(entity[1], self._wanted))
        values = col.to_objects()
        wanted = self._wanted
        return ValueColumn(
            np.fromiter(
                (
                    isinstance(v, Node)
                    and all(ctx.graph.has_label(v.id, l) for l in wanted)
                    for v in values
                ),
                dtype=np.bool_,
                count=len(values),
            )
        )


def _identifier_names(expr: A.Expr) -> Set[str]:
    from repro.cypher.semantic import _identifiers

    return _identifiers(expr)


def _split_and(where: Optional[A.Expr]) -> List[A.Expr]:
    """The top-level AND-conjuncts of ``where``, left to right."""
    if where is None:
        return []
    if isinstance(where, A.BoolOp) and where.op == "AND":
        return _split_and(where.left) + _split_and(where.right)
    return [where]


def _extract_id_seeks(conjuncts: Sequence[A.Expr]) -> Dict[str, Tuple[A.Expr, A.Expr]]:
    """var -> (conjunct, id-expression) for ``id(var) = expr`` conjuncts
    (the last one wins; a NodeByIdSeek consumes only that one)."""
    out: Dict[str, Tuple[A.Expr, A.Expr]] = {}
    for e in conjuncts:
        if isinstance(e, A.Comparison) and e.op == "=":
            for fn_side, val_side in ((e.left, e.right), (e.right, e.left)):
                if (
                    isinstance(fn_side, A.FunctionCall)
                    and fn_side.name == "id"
                    and len(fn_side.args) == 1
                    and isinstance(fn_side.args[0], A.Identifier)
                ):
                    out[fn_side.args[0].name] = (e, val_side)
                    break
    return out


@dataclasses.dataclass(frozen=True)
class _RangeConjunct:
    """One top-level WHERE AND-conjunct an index seek could consume:
    ``var.attr op value`` with the property access on one side."""

    expr: A.Expr  # the original conjunct node (identity keys consumption)
    var: str
    attr: str
    op: str  # '=', '<', '<=', '>', '>=', 'STARTS WITH', 'IN'
    value: A.Expr


_FLIP = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _extract_range_conjuncts(conjuncts: Sequence[A.Expr]) -> Dict[str, List[_RangeConjunct]]:
    """var -> the seek-consumable conjuncts among ``conjuncts``."""
    out: Dict[str, List[_RangeConjunct]] = {}

    def prop_of(e: A.Expr):
        if isinstance(e, A.PropertyAccess) and isinstance(e.subject, A.Identifier):
            return e.subject.name, e.key
        return None

    for e in conjuncts:
        if isinstance(e, A.Comparison) and e.op in _FLIP:
            left_p, right_p = prop_of(e.left), prop_of(e.right)
            if left_p and not right_p:
                (var, attr), op, value = left_p, e.op, e.right
            elif right_p and not left_p:
                (var, attr), op, value = right_p, _FLIP[e.op], e.left
            else:
                continue
            out.setdefault(var, []).append(_RangeConjunct(e, var, attr, op, value))
        elif isinstance(e, A.StringPredicate) and e.op == "STARTS_WITH":
            p = prop_of(e.left)
            if p is not None:
                out.setdefault(p[0], []).append(
                    _RangeConjunct(e, p[0], p[1], "STARTS WITH", e.right)
                )
        elif isinstance(e, A.InList):
            p = prop_of(e.needle)
            if p is not None:
                out.setdefault(p[0], []).append(
                    _RangeConjunct(e, p[0], p[1], "IN", e.haystack)
                )
    return out


def _literal_of(e: A.Expr):
    """The plan-time constant of a value expression, or NOT_LITERAL."""
    if isinstance(e, A.Literal):
        return e.value
    if isinstance(e, A.ListLiteral) and all(isinstance(i, A.Literal) for i in e.items):
        return [i.value for i in e.items]
    return NOT_LITERAL


def _value_display(e: A.Expr) -> str:
    lit = _literal_of(e)
    if lit is not NOT_LITERAL:
        return repr(lit)
    if isinstance(e, A.Parameter):
        return f"${e.name}"
    return "<expr>"


def _replace_order_by(clause, order_by):
    import dataclasses

    return dataclasses.replace(clause, order_by=order_by)


def plan_single_query(part: A.SingleQuery, schema: "PlanSchema") -> PlannedQuery:
    planner = _Planner(schema)
    for clause in part.clauses:
        planner.add_clause(clause)
    root = planner.root if planner.root is not None else Unit()
    if planner.columns is not None and list(root.out_layout.names) != list(planner.columns):
        # a trailing CALL composed after other clauses leaves earlier
        # variables in the layout; the executor serializes batches
        # positionally, so project down to exactly the result columns
        items = [(n, compile_expr(A.Identifier(n), root.out_layout)) for n in planner.columns]
        root = Project(root, items)
    return PlannedQuery(Results(root), planner.columns, planner.writes)
