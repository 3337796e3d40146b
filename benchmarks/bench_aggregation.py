"""A4 — aggregations and large result sets (paper §IV: profiling "found
additional opportunities for enhancement: aggregations and large result
sets").  Counting should beat materializing full rows by a wide margin."""

import pytest

from repro.bench.khop import pick_seeds
from repro.datasets.loader import build_graphdb


@pytest.fixture(scope="module")
def db(graph500):
    src, dst, n = graph500
    database = build_graphdb(src, dst, n)
    database.graph.flush_all()
    return database


def test_count_aggregate(benchmark, db):
    """count(b): the aggregate consumes rows without materializing them."""
    result = benchmark(lambda: db.query("MATCH (a:V)-[:E]->(b) RETURN count(b)").scalar())
    assert result > 0


def test_full_result_materialization(benchmark, db):
    """RETURN id(a), id(b): every edge becomes a result row."""
    result = benchmark(lambda: len(db.query("MATCH (a:V)-[:E]->(b) RETURN id(a), id(b)").rows))
    assert result > 0


def test_distinct_large_result(benchmark, db):
    result = benchmark(
        lambda: len(db.query("MATCH (a:V)-[:E]->(b) RETURN DISTINCT id(b)").rows)
    )
    assert result > 0


def test_grouped_aggregation(benchmark, db):
    result = benchmark(
        lambda: len(db.query("MATCH (a:V)-[:E]->(b) RETURN id(a), count(b)").rows)
    )
    assert result > 0


def test_grouped_count_distinct(benchmark, db):
    """count(DISTINCT b) per source over the 2-hop expansion: the paper's
    k-hop count, grouped.  Each batch's (source, endpoint) pairs dedup in
    one numpy kernel before any Python-level work."""
    rows = benchmark(
        lambda: db.query(
            "MATCH (a:V)-[:E]->(:V)-[:E]->(b) RETURN id(a), count(DISTINCT b)"
        ).rows
    )
    assert rows and all(count > 0 for _, count in rows)


def test_order_by_limit_topk(benchmark, db):
    """Top-k via ORDER BY + LIMIT (the optimizer's bounded-heap path)."""
    result = benchmark(
        lambda: db.query(
            "MATCH (a:V)-[:E]->(b) RETURN id(a) AS s, count(b) AS d ORDER BY d DESC LIMIT 10"
        ).rows
    )
    assert len(result) == 10
