"""Aggregation semantics through the full stack."""

import pytest


class TestSimpleAggregates:
    def test_count_star_empty(self, db):
        assert db.query("MATCH (n) RETURN count(*)").scalar() == 0

    def test_count_expr_skips_null(self, social):
        # Robot has no age
        assert db_count(social, "MATCH (n) RETURN count(n.age)") == 5
        assert db_count(social, "MATCH (n) RETURN count(*)") == 6

    def test_sum_avg(self, social):
        assert social.query("MATCH (n:Person) RETURN sum(n.age)").scalar() == 158
        assert social.query("MATCH (n:Person) RETURN avg(n.age)").scalar() == pytest.approx(31.6)

    def test_sum_empty_is_zero(self, db):
        assert db.query("MATCH (n) RETURN sum(n.x)").scalar() == 0

    def test_avg_empty_is_null(self, db):
        assert db.query("MATCH (n) RETURN avg(n.x)").scalar() is None

    def test_min_max(self, social):
        assert social.query("MATCH (n:Person) RETURN min(n.age)").scalar() == 25
        assert social.query("MATCH (n:Person) RETURN max(n.age)").scalar() == 40

    def test_collect(self, social):
        got = social.query("MATCH (n:Person) RETURN collect(n.name)").scalar()
        assert sorted(got) == ["Ann", "Bo", "Cy", "Di", "Ed"]

    def test_collect_skips_nulls(self, social):
        got = social.query("MATCH (n) RETURN collect(n.age)").scalar()
        assert len(got) == 5


class TestGrouping:
    def test_group_by_key(self, social):
        rows = social.query(
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, count(b) ORDER BY a.name"
        ).rows
        assert rows == [("Ann", 2), ("Bo", 1), ("Cy", 1), ("Di", 1)]

    def test_group_key_is_entity(self, social):
        rows = social.query(
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN a, count(b)"
        ).rows
        assert len(rows) == 4

    def test_multiple_aggregates(self, social):
        row = social.query(
            "MATCH (n:Person) RETURN min(n.age), max(n.age), count(*)"
        ).rows[0]
        assert row == (25, 40, 5)

    def test_count_distinct(self, social):
        # 5 KNOWS edges but 4 distinct destinations
        assert social.query("MATCH ()-[:KNOWS]->(b) RETURN count(b)").scalar() == 5
        assert social.query("MATCH ()-[:KNOWS]->(b) RETURN count(DISTINCT b)").scalar() == 4

    def test_collect_distinct(self, social):
        got = social.query("MATCH ()-[:KNOWS]->(b) RETURN collect(DISTINCT b.name)").scalar()
        assert sorted(got) == ["Bo", "Cy", "Di", "Ed"]


class TestMixedExpressions:
    def test_aggregate_plus_constant(self, social):
        assert social.query("MATCH (n:Person) RETURN count(*) + 1").scalar() == 6

    def test_arithmetic_over_aggregates(self, social):
        got = social.query(
            "MATCH (n:Person) RETURN max(n.age) - min(n.age)"
        ).scalar()
        assert got == 15

    def test_implicit_group_key_in_mixed_expr(self, social):
        rows = social.query(
            "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.age + count(b) AS v ORDER BY v"
        ).column("v")
        # Ann 30+2, Bo 25+1, Cy 35+1, Di 28+1
        assert rows == [26, 29, 32, 36]

    def test_function_of_aggregate(self, social):
        got = social.query("MATCH (n:Person) RETURN toFloat(count(*))").scalar()
        assert got == 5.0

    def test_aggregate_of_expression(self, social):
        got = social.query("MATCH (n:Person) RETURN sum(n.age * 2)").scalar()
        assert got == 316


class TestBooleansAreNotIntegers:
    """openCypher keeps ``true``/``false`` apart from ``1``/``0`` in DISTINCT
    and grouping, while ``1`` and ``1.0`` are one value.  Rows compare
    with their types, since Python's ``True == 1`` would hide a merge."""

    @staticmethod
    def typed(rows):
        def tag(v):
            if isinstance(v, list):
                return [tag(x) for x in v]
            return (type(v).__name__, v)

        return [tuple(tag(v) for v in row) for row in rows]

    @pytest.fixture(params=[1, 7, 1024])
    def mixed(self, db, request):
        db.graph.config.exec_batch_size = request.param
        return db

    def test_return_distinct(self, mixed):
        rows = mixed.query("UNWIND [1, true, 1.0, 0, false] AS x RETURN DISTINCT x").rows
        assert self.typed(rows) == self.typed([(1,), (True,), (0,), (False,)])

    def test_group_by(self, mixed):
        rows = mixed.query("UNWIND [1, true, 1.0, 0, false] AS x RETURN x, count(*)").rows
        assert self.typed(rows) == self.typed([(1, 2), (True, 1), (0, 1), (False, 1)])

    def test_distinct_aggregates(self, mixed):
        rows = mixed.query(
            "UNWIND [1, true, 1.0, 0, false, null] AS x "
            "RETURN count(DISTINCT x), collect(DISTINCT x)"
        ).rows
        assert self.typed(rows) == self.typed([(4, [1, True, 0, False])])

    def test_homogeneous_batches_keep_apart(self, mixed):
        # the cartesian product re-chunks the 11 rows, so at batch size 7
        # the ints and the booleans arrive in separate homogeneous batches
        mixed.query("CREATE (:Z)")
        q = "UNWIND [1, 1, 0, 1, 1, 0, 1, true, true, false, false] AS x MATCH (z:Z) "
        assert self.typed(mixed.query(q + "RETURN DISTINCT x").rows) == self.typed(
            [(1,), (0,), (True,), (False,)]
        )
        assert mixed.query(q + "RETURN count(DISTINCT x)").scalar() == 4

    def test_nested_in_lists(self, mixed):
        rows = mixed.query("UNWIND [[1], [true], [1.0]] AS x RETURN DISTINCT x").rows
        assert self.typed(rows) == self.typed([([1],), ([True],)])


def db_count(db, q):
    return db.query(q).scalar()
