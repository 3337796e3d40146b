"""Cost-based planning: plan choices must follow the statistics, results
must never depend on them.

The differential battery runs every query twice on the same graph —
``cost_based_planner`` on and off — and requires identical results
(sorted multisets for unordered queries, exact rows under ORDER BY).
The plan-shape tests use a deliberately skewed graph (120 :Common vs
5 :Rare) where the statistics-driven anchor, join order and traversal
direction are observably different from the syntactic ones.
"""

import types

import pytest

from repro import GraphDB
from repro.execplan import executor as executor_module
from repro.execplan.morsel import MorselDriver
from repro.execplan.optimizer import _literal_count


def set_knob(db: GraphDB, value: int) -> None:
    db.graph.config.cost_based_planner = value
    db.graph.bump_schema_version()  # GRAPH.CONFIG SET does the same


@pytest.fixture
def skewed():
    """120 :Common fanning into 5 :Rare — the anchor-choice battleground."""
    db = GraphDB("skew")
    set_knob(db, 1)  # explicit: survives the REPRO_COST_BASED_PLANNER=0 CI leg
    db.query(
        "UNWIND range(0, 119) AS i "
        "CREATE (:Common {i: i, grp: i % 4})"
    )
    db.query("UNWIND range(0, 4) AS i CREATE (:Rare {i: i})")
    db.query(
        "MATCH (a:Common), (b:Rare) WHERE a.i % 5 = b.i AND a.grp < 3 "
        "CREATE (a)-[:R]->(b)"
    )
    db.query("MATCH (b:Rare), (c:Common) WHERE c.i = b.i CREATE (b)-[:S]->(c)")
    return db


DIFFERENTIAL_QUERIES = [
    "MATCH (a:Common)-[:R]->(b:Rare) RETURN a.i, b.i",
    "MATCH (a:Rare)<-[:R]-(b:Common) RETURN a.i, b.i",
    "MATCH (a:Common)-[:R]->(b:Rare)-[:S]->(c:Common) RETURN a.i, b.i, c.i",
    "MATCH (a:Common {grp: 1})-[:R]->(b) RETURN a.i, b.i",
    "MATCH (a:Rare)-[:S*1..2]->(b) RETURN a.i, b.i",
    "MATCH (b:Rare) OPTIONAL MATCH (b)<-[:R]-(a:Common {grp: 0}) RETURN b.i, a.i",
    "MATCH (a:Rare), (b:Rare) WHERE a.i < b.i RETURN a.i, b.i",
    "MATCH (a:Common) WHERE a.grp = 2 RETURN count(a)",
    "MATCH (a:Common)-[:R]->(b:Rare) RETURN b.i, count(a) ORDER BY b.i",
]


class TestDifferential:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_same_results_both_modes(self, skewed, query):
        on = skewed.query(query).rows
        set_knob(skewed, 0)
        off = skewed.query(query).rows
        if "ORDER BY" in query:
            assert on == off
        else:
            assert sorted(map(repr, on)) == sorted(map(repr, off))

    def test_same_results_with_index(self, skewed):
        skewed.query("CREATE INDEX ON :Common(grp)")
        query = "MATCH (a:Common {grp: 3})-[:R]->(b) RETURN a.i, b.i"
        on = skewed.query(query).rows
        set_knob(skewed, 0)
        off = skewed.query(query).rows
        assert sorted(map(repr, on)) == sorted(map(repr, off))


class TestPlanChoices:
    def test_anchor_by_cardinality_not_syntax(self, skewed):
        """Left-to-right syntax says scan :Common; statistics say the
        5-node :Rare side is 24x cheaper, entering through the cached
        transpose."""
        plan = skewed.explain("MATCH (a:Common)-[:R]->(b:Rare) RETURN a.i")
        assert "NodeByLabelScan | (b:Rare)" in plan
        assert "T(R)" in plan  # walked backwards -> transposed operand
        set_knob(skewed, 0)
        rule = skewed.explain("MATCH (a:Common)-[:R]->(b:Rare) RETURN a.i")
        assert "NodeByLabelScan | (a:Common)" in rule
        assert "T(R)" not in rule

    def test_chain_anchors_mid_pattern(self, skewed):
        """A three-hop chain anchors on the rare middle node and expands
        outward both ways — impossible for the syntactic planner, which
        only ever starts at an end."""
        plan = skewed.explain(
            "MATCH (a:Common)-[:R]->(b:Rare)-[:S]->(c:Common) RETURN a.i, c.i"
        )
        assert "NodeByLabelScan | (b:Rare)" in plan

    def test_priced_index_choice(self):
        """Two indexed properties: the planner seeks the one with the
        smaller average posting list (higher NDV), not the first one
        written in the pattern."""
        db = GraphDB("idx")
        set_knob(db, 1)
        db.query("UNWIND range(0, 99) AS i CREATE (:Item {sku: i, cat: i % 2})")
        db.query("CREATE INDEX ON :Item(cat)")
        db.query("CREATE INDEX ON :Item(sku)")
        plan = db.explain("MATCH (n:Item {cat: 1, sku: 7}) RETURN n")
        assert "IndexRangeScan | (n:Item) [range: n.sku = 7]" in plan

    def test_only_anchor_conjuncts_correlate(self):
        """A conjunct on the anchor that reads an outer variable runs the
        anchor's scan per outer row; one further along the path
        (`c.x = a.x`) filters above a CartesianProduct, so the path's
        traversal runs once rather than once per outer row."""
        db = GraphDB("corr")
        set_knob(db, 0)
        db.query("UNWIND range(0, 5) AS i CREATE (:A {x: i}), (:B {x: i})-[:K]->(:C {x: i % 3})")
        off_anchor = "MATCH (a:A) MATCH (b:B)-[:K]->(c) WHERE c.x = a.x RETURN count(*)"
        plan = db.explain(off_anchor)
        assert plan.index("CartesianProduct") < plan.index("ConditionalTraverse"), plan
        on_anchor = "MATCH (a:A) MATCH (b:B)-[:K]->(c) WHERE b.x = a.x RETURN count(*)"
        assert "CartesianProduct" not in db.explain(on_anchor)
        for knob in (0, 1):
            set_knob(db, knob)
            assert db.query(off_anchor).scalar() == 6
            assert db.query(on_anchor).scalar() == 6

    def test_rule_planner_reproduced_when_off(self, skewed):
        """The knob's contract: off must reproduce today's rule-based
        plans byte-for-byte (no estimates, syntactic anchor)."""
        queries = DIFFERENTIAL_QUERIES[:4]
        set_knob(skewed, 0)
        off_plans = [skewed.explain(q) for q in queries]
        for plan in off_plans:
            assert "est_rows" not in plan


class TestEstimateSurfacing:
    def test_explain_shows_est_rows(self, skewed):
        plan = skewed.explain("MATCH (a:Rare) RETURN a.i")
        assert "NodeByLabelScan | (a:Rare) | est_rows: 5" in plan

    def test_every_op_is_annotated(self, skewed):
        plan = skewed.explain(
            "MATCH (a:Common)-[:R]->(b:Rare) WHERE a.grp = 1 RETURN a.i ORDER BY a.i LIMIT 3"
        )
        for line in plan.splitlines():
            assert "est_rows:" in line, line

    def test_profile_shows_estimated_vs_actual(self, skewed):
        result = skewed.profile("MATCH (a:Rare) RETURN a.i")
        line = next(l for l in result.profile.splitlines() if "NodeByLabelScan" in l)
        assert "est_rows: 5" in line and "Records produced: 5" in line

    def test_estimates_follow_growth(self, skewed):
        assert "est_rows: 5" in skewed.explain("MATCH (a:Rare) RETURN a.i")
        skewed.query("UNWIND range(5, 260) AS i CREATE (:Rare {i: i})")
        # growth crossed the epoch drift threshold: the cached plan was
        # re-priced, not reused with 5-node estimates
        assert "est_rows: 261" in skewed.explain("MATCH (a:Rare) RETURN a.i")

    def test_equality_conjuncts_keep_the_inline_map_price(self, skewed):
        """`a.grp = 1` keeps 0.1 of its rows (120 -> 12) in either
        spelling, as the inline map's filter always did and as join-order
        pricing assumes; an opaque predicate keeps 0.25 (120 -> 30)."""
        inline = skewed.explain("MATCH (a:Common {grp: 1}) RETURN a.i")
        assert inline == skewed.explain("MATCH (a:Common) WHERE a.grp = 1 RETURN a.i")
        assert "Filter | WHERE | est_rows: 12" in inline
        opaque = skewed.explain("MATCH (a:Common) WHERE a.grp > 1 RETURN a.i")
        assert "Filter | WHERE | est_rows: 30" in opaque

    def test_positive_estimates_never_print_zero(self):
        """Filters stacked on a one-row seek price far below one row; an
        operator that may produce rows still shows est_rows >= 1."""
        db = GraphDB("est")
        set_knob(db, 1)
        db.query("UNWIND range(0, 9) AS i CREATE (:P {uid: i, age: i})")
        db.query("MATCH (a:P), (b:P) WHERE b.uid = a.uid + 1 CREATE (a)-[:K]->(b)")
        db.query("CREATE INDEX ON :P(uid)")
        q = "MATCH (a:P)-[:K]->(b) WHERE a.uid = 1 AND b.age > 0 AND a.age >= 0 RETURN b.uid"
        assert db.query(q).rows == [(2,)]
        plan = db.explain(q)
        assert "est_rows: 0" not in plan, plan
        assert "est_rows: 1" in plan


class TestMorselGating:
    def _spy(self, monkeypatch):
        created = []

        def factory(workers, morsel_size):
            created.append((workers, morsel_size))
            return MorselDriver(workers, morsel_size)

        monkeypatch.setattr(executor_module, "MorselDriver", factory)
        return created

    def test_small_estimate_skips_the_driver(self, skewed, monkeypatch):
        created = self._spy(monkeypatch)
        skewed.graph.config.parallel_workers = 2
        skewed.query("MATCH (a:Rare) RETURN a.i")  # est 5 << morsel_size
        assert created == []

    def test_large_estimate_keeps_the_driver(self, skewed, monkeypatch):
        created = self._spy(monkeypatch)
        skewed.graph.config.parallel_workers = 2
        skewed.graph.config.morsel_size = 16
        set_knob(skewed, 1)  # re-bump: config edits above bypassed CONFIG SET
        skewed.query("MATCH (a:Common) RETURN a.i")  # est 120 >= 16
        assert len(created) == 1

    def test_rule_based_plans_always_get_the_driver(self, skewed, monkeypatch):
        created = self._spy(monkeypatch)
        set_knob(skewed, 0)
        skewed.graph.config.parallel_workers = 2
        skewed.query("MATCH (a:Rare) RETURN a.i")  # no estimate -> old behavior
        assert len(created) == 1


class TestPlanCacheEpochs:
    def test_hit_while_epoch_stable(self, skewed):
        skewed.query("MATCH (a:Rare) RETURN a.i")
        before = skewed.plan_cache_info()["hits"]
        skewed.query("MATCH (a:Rare) RETURN a.i")
        assert skewed.plan_cache_info()["hits"] == before + 1

    def test_miss_after_epoch_drift(self, skewed):
        skewed.query("MATCH (a:Rare) RETURN a.i")
        epoch = skewed.graph.stats.epoch
        skewed.query("UNWIND range(0, 399) AS i CREATE (:Filler)")
        assert skewed.graph.stats.epoch > epoch
        misses = skewed.plan_cache_info()["misses"]
        skewed.query("MATCH (a:Rare) RETURN a.i")
        assert skewed.plan_cache_info()["misses"] == misses + 1


class TestLiteralCountErrors:
    def test_expected_probe_errors_mean_dynamic(self):
        for exc in (AttributeError, IndexError, KeyError, TypeError):
            limit = types.SimpleNamespace(_count=_raiser(exc))
            assert _literal_count(limit) == -1

    def test_unexpected_errors_propagate(self):
        """The old bare ``except Exception`` silently degraded top-k sort
        on planner bugs; anything unexpected must now surface."""
        limit = types.SimpleNamespace(_count=_raiser(ZeroDivisionError))
        with pytest.raises(ZeroDivisionError):
            _literal_count(limit)

    def test_non_integer_literals_are_dynamic(self):
        for value in (True, 2.5, -1, "3"):
            limit = types.SimpleNamespace(_count=lambda rec, params, v=value: v)
            assert _literal_count(limit) == -1
        limit = types.SimpleNamespace(_count=lambda rec, params: 7)
        assert _literal_count(limit) == 7


def _raiser(exc_type):
    def _count(record, params):
        raise exc_type("probe")

    return _count
