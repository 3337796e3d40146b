"""Differential net over index seeks: with secondary indexes present the
engine routes WHERE conjuncts through :class:`IndexRangeScan`; without
them it filters a label scan.  Both worlds must return identical rows for
every predicate shape the seek layer claims to serve — equality, one- and
two-sided ranges, string prefixes, ``IN`` lists, composite prefixes,
cross-type and null probes — under create/update/delete/bulk workloads,
at scalar and batched execution, with both planners."""

import random

import pytest

from repro import GraphDB
from repro.errors import CypherTypeError
from repro.graph.config import GraphConfig

SEEDS = [11, 37, 90]

# every query here must be served by a seek when indexes exist (or fall
# back soundly) and by a filtered scan when they don't
QUERIES = [
    "MATCH (n:P) WHERE n.v = 3 RETURN id(n)",
    "MATCH (n:P) WHERE n.v = 3.0 RETURN id(n)",          # cross-type numeric eq
    "MATCH (n:P) WHERE n.v = true RETURN id(n)",          # bool family isolation
    "MATCH (n:P) WHERE n.v = '3' RETURN id(n)",           # string family isolation
    "MATCH (n:P) WHERE n.v = null RETURN id(n)",          # null probe: no rows
    "MATCH (n:P) WHERE n.v > 2 RETURN id(n)",
    "MATCH (n:P) WHERE n.v >= 2 AND n.v < 5 RETURN id(n)",
    "MATCH (n:P) WHERE n.v < 4 RETURN id(n), n.v",
    "MATCH (n:P) WHERE n.v IN [1, 3, 9, true, 'x'] RETURN id(n)",
    "MATCH (n:P) WHERE n.v IN [] RETURN id(n)",
    "MATCH (n:P) WHERE n.v IN [[1], 2] RETURN id(n)",     # list element -> fallback guard
    "MATCH (n:P) WHERE n.name STARTS WITH 'u' RETURN id(n)",
    "MATCH (n:P) WHERE n.name STARTS WITH '' RETURN id(n)",
    "MATCH (n:P) WHERE n.name STARTS WITH 'u1' AND n.v > 1 RETURN id(n)",
    "MATCH (n:P) WHERE n.g = 1 AND n.name = 'u3' RETURN id(n)",   # composite full width
    "MATCH (n:P) WHERE n.g = 2 RETURN id(n)",                      # composite prefix
    "MATCH (n:P) WHERE n.g = 1 AND n.v > 2 RETURN id(n)",          # seek + residual
    "MATCH (n:P) WHERE n.v = 3 OR n.name = 'u5' RETURN id(n)",     # OR: no seek, still equal
    "MATCH (n:P)-[:R]->(m) WHERE n.v = 3 RETURN id(n), id(m)",     # seek under expand
    "MATCH (n:P) WHERE n.v = 3 RETURN count(n)",
    # inline property maps lower to the same conjuncts
    "MATCH (n:P {v: 3}) RETURN id(n)",                             # one-key map
    "MATCH (n:P {g: 1, name: 'u3'}) RETURN id(n)",                 # composite full width
    "MATCH (n:P {v: 3})-[:R]->(m:P {g: 2}) RETURN id(n), id(m)",   # map on a non-anchor node
    "MATCH (m:P {g: 1})<-[:R]-(n:P {name: 'u1'}) RETURN id(n), id(m)",
    "UNWIND [1, 3, 3.0, 'x', null] AS x MATCH (n:P {v: x}) RETURN id(n)",  # correlated
    "MATCH (n:P {v: 3}) OPTIONAL MATCH (n)-[:R]->(m:P {g: 2}) RETURN id(n), id(m)",
    "MERGE (n:P {g: 1, name: 'u3'}) RETURN id(n)",
    "MERGE (n:P {v: 8.5, name: 'merged'}) RETURN id(n), n.v",    # creates on first run
]

INDEX_DDL = [
    "CREATE INDEX ON :P(v)",
    "CREATE INDEX ON :P(name)",
    "CREATE INDEX ON :P(g, name)",
]


def run_workload(db: GraphDB, seed: int, bulk: bool) -> None:
    """Seeded create/update/delete churn; ``bulk`` routes the initial
    cohort through the columnar bulk writer instead of per-row CREATE."""
    rng = random.Random(seed)
    count = 40
    vs = [rng.choice([rng.randint(0, 9), rng.uniform(0, 9), True, None, "3", "x"])
          for _ in range(count)]
    names = [f"u{rng.randint(0, 12)}" if rng.random() < 0.9 else None for _ in range(count)]
    gs = [rng.randint(0, 3) if rng.random() < 0.8 else None for _ in range(count)]
    if bulk:
        db.bulk_insert(
            nodes=[{"labels": ("P",), "count": count,
                    "properties": {"v": vs, "name": names, "g": gs}}],
            edges=[{"type": "R",
                    "src": [rng.randrange(count) for _ in range(count)],
                    "dst": [rng.randrange(count) for _ in range(count)],
                    "endpoints": "batch"}],
        )
    else:
        for v, name, g in zip(vs, names, gs):
            db.query("CREATE (:P {v: $v, name: $name, g: $g})",
                     {"v": v, "name": name, "g": g})
        for _ in range(count):
            db.query(
                "MATCH (a:P), (b:P) WHERE id(a) = $s AND id(b) = $d CREATE (a)-[:R]->(b)",
                {"s": rng.randrange(count), "d": rng.randrange(count)},
            )
    # churn: updates (including to/from null and across families), deletes
    for _ in range(20):
        nid = rng.randrange(count)
        nv = rng.choice([rng.randint(0, 9), None, True, "3", rng.uniform(0, 9)])
        db.query("MATCH (n:P) WHERE id(n) = $i SET n.v = $nv", {"i": nid, "nv": nv})
    for nid in rng.sample(range(count), 5):
        db.query("MATCH (n:P) WHERE id(n) = $i DETACH DELETE n", {"i": nid})
    db.query("CREATE (:P {v: 3, name: 'u1tail', g: 1})")


def build(seed, bulk, indexed, *, batch=1024, cost=1, merge_threshold=512):
    cfg = GraphConfig(exec_batch_size=batch, cost_based_planner=cost,
                      index_merge_threshold=merge_threshold)
    db = GraphDB("diff", cfg)
    if indexed == "before":
        for ddl in INDEX_DDL:
            db.query(ddl)
    run_workload(db, seed, bulk)
    if indexed == "after":
        for ddl in INDEX_DDL:
            db.query(ddl)
    return db


class TestIndexOnOffDifferential:
    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    @pytest.mark.parametrize("batch", [1, 1024], ids=["scalar", "batched"])
    @pytest.mark.parametrize("bulk", [False, True], ids=["per-row", "bulk"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_indexed_equals_unindexed(self, seed, bulk, batch, cost):
        plain = build(seed, bulk, indexed=None, batch=batch, cost=cost)
        seek = build(seed, bulk, indexed="before", batch=batch, cost=cost,
                     merge_threshold=8)
        for q in QUERIES:
            assert sorted(seek.query(q).rows) == sorted(plain.query(q).rows), q

    @pytest.mark.parametrize("seed", SEEDS)
    def test_index_created_after_workload(self, seed):
        """Backfill path: indexes created over existing data answer like
        indexes that watched every write."""
        before = build(seed, True, indexed="before", merge_threshold=4)
        after = build(seed, True, indexed="after", merge_threshold=4)
        for q in QUERIES:
            assert sorted(before.query(q).rows) == sorted(after.query(q).rows), q

    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    def test_in_type_error_parity(self, cost):
        """`x IN <non-list>` raises the same CypherTypeError whether it
        runs as a seek or a filter."""
        plain = build(1, False, indexed=None, cost=cost)
        seek = build(1, False, indexed="before", cost=cost)
        for db in (plain, seek):
            with pytest.raises(CypherTypeError, match="IN expects a list"):
                db.query("MATCH (n:P) WHERE n.v IN 5 RETURN n")

    def test_seek_plan_shapes(self):
        db = build(1, False, indexed="before")
        plan = db.explain("MATCH (n:P) WHERE n.v > 2 RETURN n")
        assert "IndexRangeScan" in plan and "range: n.v > 2" in plan
        assert "est_rows" in plan
        assert "Filter" not in plan  # fully consumed conjunct leaves no residual
        comp = db.explain("MATCH (n:P) WHERE n.g = 1 AND n.name = 'u3' RETURN n")
        assert "composite" in comp
        residual = db.explain("MATCH (n:P) WHERE n.g = 1 AND n.v > 2 RETURN n")
        assert "IndexRangeScan" in residual and "Filter" in residual

    def test_rule_planner_uses_seeks_too(self):
        db = build(1, False, indexed="before", cost=0)
        assert "IndexRangeScan" in db.explain("MATCH (n:P) WHERE n.v > 2 RETURN n")

    def test_profile_reports_actual_rows(self):
        db = build(1, False, indexed="before")
        expect = db.query("MATCH (n:P) WHERE n.v > 2 RETURN count(n)").scalar()
        report = db.profile("MATCH (n:P) WHERE n.v > 2 RETURN id(n)").profile
        line = next(l for l in report.splitlines() if "IndexRangeScan" in l)
        assert f"Records produced: {expect}," in line and "est_rows" in line


# (inline spelling, WHERE spelling): one predicate path plans them alike
SPELLINGS = [
    ("MATCH (a:P {uid: $u}) RETURN a.age",
     "MATCH (a:P) WHERE a.uid = $u RETURN a.age"),
    ("MATCH (a:P {uid: $u})-[:K]->(b) RETURN b.uid",
     "MATCH (a:P)-[:K]->(b) WHERE a.uid = $u RETURN b.uid"),
    ("MATCH (a:P {uid: $u})-[:K]->(b:P {age: 3})-[:K]->(c) RETURN c.uid",
     "MATCH (a:P)-[:K]->(b:P)-[:K]->(c) WHERE a.uid = $u AND b.age = 3 RETURN c.uid"),
    ("UNWIND $xs AS x MATCH (n:P {uid: x}) RETURN n.age",
     "UNWIND $xs AS x MATCH (n:P) WHERE n.uid = x RETURN n.age"),
]
PARAMS = {"u": 4, "xs": [1, 4, 99]}


def spelling_db(cost):
    db = GraphDB("spell", GraphConfig(cost_based_planner=cost))
    db.query("UNWIND range(0, 29) AS i CREATE (:P {uid: i, age: i % 5})")
    db.query("MATCH (a:P), (b:P) WHERE b.uid = (a.uid + 1) % 30 OR b.uid = (a.uid * 7) % 30 "
             "CREATE (a)-[:K]->(b)")
    db.query("CREATE INDEX ON :P(uid)")
    return db


class TestOnePredicatePath:
    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    @pytest.mark.parametrize("pair", range(len(SPELLINGS)))
    def test_inline_and_where_plan_identically(self, cost, pair):
        db = spelling_db(cost)
        inline, where = SPELLINGS[pair]
        assert db.explain(inline, PARAMS) == db.explain(where, PARAMS)
        rows = sorted(db.query(inline, PARAMS).rows)
        assert rows and rows == sorted(db.query(where, PARAMS).rows)

    @pytest.mark.parametrize("cost", [0, 1], ids=["rule", "cost"])
    def test_conjuncts_sit_where_their_variables_bind(self, cost):
        db = spelling_db(cost)
        seek = db.explain(SPELLINGS[1][0], PARAMS)
        assert "IndexRangeScan" in seek and "Filter" not in seek
        lines = db.explain(SPELLINGS[2][1], PARAMS).splitlines()
        at = lambda text: next(i for i, l in enumerate(lines) if text in l)
        # rendered top-down: b's conjunct filters between the two hops
        assert at("(b)->(c)") < at("Filter") < at("(a)->(b)") < at("IndexRangeScan")
        correlated = db.explain(SPELLINGS[3][1], PARAMS)
        assert "CartesianProduct" not in correlated
        assert correlated.index("IndexRangeScan") < correlated.index("Unwind")
