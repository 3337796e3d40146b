"""The row-vs-batch semantics net (ISSUE 5).

Every read query in the battery runs at ``exec_batch_size`` 1 (exactly
row-at-a-time), 7 (a prime that misaligns every internal chunk boundary)
and the default — results must be identical, in order.  This is the
differential hook the vectorized engine is built around: batch size may
change how many rows move per Python-level step, never what comes out.
"""

import pytest

from repro import GraphDB
from repro.execplan.batch import value_key
from repro.graph.config import GraphConfig

BATCH_SIZES = (1, 7, 1024)


def _normalize(rows):
    """Rows with entity handles replaced by comparable (kind, id) keys."""
    return [tuple(value_key(v) for v in row) for row in rows]


@pytest.fixture(scope="module")
def db():
    d = GraphDB("diff-batch", GraphConfig(node_capacity=512))
    # people: some without age (NULL-propagating predicates), mixed-type
    # `tag` values (DISTINCT over mixed types), a few duplicate names
    d.query(
        "CREATE (:Person {name: 'Ann', age: 34, tag: 1}),"
        " (:Person {name: 'Bo', age: 27, tag: 'x'}),"
        " (:Person {name: 'Cy', tag: 1.0}),"
        " (:Person {name: 'Dee', age: 41, tag: true}),"
        " (:Person {name: 'Ann', age: 34, tag: 'x'}),"
        " (:Person {name: 'Eve', age: 27}),"
        " (:Ghost {name: 'Zed'})"
    )
    d.query(
        "MATCH (a:Person {name: 'Ann'}), (b:Person {name: 'Bo'}) "
        "CREATE (a)-[:KNOWS {w: 2}]->(b)"
    )
    d.query(
        "MATCH (a:Person {name: 'Bo'}), (b:Person {name: 'Dee'}) "
        "CREATE (a)-[:KNOWS {w: 5}]->(b), (b)-[:LIKES]->(a)"
    )
    d.query(
        "MATCH (a:Person {name: 'Dee'}), (b:Person {name: 'Cy'}) "
        "CREATE (a)-[:KNOWS]->(b)"
    )
    return d


QUERIES = [
    # filters with NULL-propagating predicates (missing age -> null > 30
    # -> null -> dropped; NOT null stays null; IS NULL keeps it)
    "MATCH (n:Person) WHERE n.age > 30 RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) WHERE NOT (n.age > 30) RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) WHERE n.age IS NULL RETURN n.name",
    "MATCH (n:Person) WHERE n.age > 25 AND n.name STARTS WITH 'A' RETURN n.name, n.age",
    "MATCH (n:Person) WHERE n.age = 27 OR n.tag = 1 RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) WHERE n.age IN [27, 41] RETURN n.name ORDER BY n.name",
    # DISTINCT over mixed types (int/float/str/bool tags + missing)
    "MATCH (n:Person) RETURN DISTINCT n.tag",
    "MATCH (n:Person) RETURN DISTINCT n.name, n.age",
    # aggregates on empty input
    "MATCH (n:Nobody) RETURN count(n), count(*), sum(n.age), avg(n.age), min(n.age), collect(n.age)",
    "MATCH (n:Person) WHERE n.age > 1000 RETURN count(*), sum(n.age)",
    # grouped aggregates (np.unique fast path vs dict path) + DISTINCT agg
    "MATCH (n:Person) RETURN n.age, count(*) ORDER BY n.age",
    "MATCH (n:Person) RETURN n.name, collect(n.age) ORDER BY n.name",
    "MATCH (n:Person) RETURN count(DISTINCT n.name), min(n.name), max(n.age)",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a, count(b) ORDER BY count(b) DESC, a.name",
    # ORDER BY mixed directions + SKIP/LIMIT (cross-batch carry)
    "MATCH (n:Person) RETURN n.name, n.age ORDER BY n.age DESC, n.name ASC",
    "MATCH (n:Person) RETURN n.name ORDER BY n.name SKIP 2 LIMIT 3",
    "MATCH (n:Person) RETURN n.name, n.age ORDER BY n.age ASC, n.name DESC SKIP 1 LIMIT 4",
    "UNWIND range(0, 19) AS x RETURN x ORDER BY x % 5 ASC, x DESC LIMIT 7",
    # OPTIONAL MATCH null-extension
    "MATCH (n:Person) OPTIONAL MATCH (n)-[:KNOWS]->(m) RETURN n.name, m.name ORDER BY n.name, m.name",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[r:LIKES]->(m) RETURN n.name, r.w, m.name ORDER BY n.name",
    # traversal shapes: edge vars, undirected, var-length, closed cycles
    "MATCH (a)-[r:KNOWS]->(b) RETURN a.name, r.w, b.name ORDER BY a.name, b.name",
    "MATCH (a:Person)-[:KNOWS]-(b) RETURN a.name, b.name ORDER BY a.name, b.name",
    "MATCH (a:Person)-[:KNOWS*1..3]->(b) RETURN a.name, b.name ORDER BY a.name, b.name",
    "MATCH (a)-[:KNOWS]->(b)-[:LIKES]->(a) RETURN a.name, b.name",
    # expression zoo: CASE, arithmetic, string ops, parameters via literal
    "MATCH (n:Person) RETURN n.name, CASE WHEN n.age > 30 THEN 'old' WHEN n.age IS NULL THEN '?' ELSE 'young' END ORDER BY n.name",
    "MATCH (n:Person) RETURN n.name, n.age * 2 + 1, -n.age ORDER BY n.name",
    "MATCH (n:Person) WHERE n.name CONTAINS 'e' RETURN n.name ORDER BY n.name",
    "MATCH (n:Person) RETURN n.name + '!' ORDER BY n.name",
    "RETURN 1 + 2, 'a' + 'b', [1, 2] + [3]",
    # UNWIND fan-out with list building
    "MATCH (n:Person) UNWIND [1, 2] AS k RETURN n.name, k ORDER BY n.name, k",
    "UNWIND [[1, 2], [], [3]] AS xs RETURN size(xs)",
    # cartesian product of disconnected patterns
    "MATCH (a:Ghost), (b:Person) RETURN a.name, b.name ORDER BY b.name",
    # WITH pipeline + id() / labels()
    "MATCH (n:Person) WITH n.age AS age WHERE age > 25 RETURN age ORDER BY age",
    "MATCH (n:Ghost) RETURN labels(n), id(n) >= 0",
    # UNION dedup across plan parts
    "MATCH (n:Person) RETURN n.name AS name UNION MATCH (n:Ghost) RETURN n.name AS name",
    # DISTINCT aggregates: the dedup kernel vs the row loop's seen sets,
    # across batches (a cartesian product emits batch-size chunks, so at
    # size 7 the 41 rows of `UNWIND ... MATCH (z:Ghost)` arrive in six)
    "MATCH (a:Person)-[:KNOWS]-(m)-[:KNOWS]-(b) RETURN a, count(DISTINCT b), count(b)",
    "MATCH (a:Person)-[:KNOWS*1..3]-(b) RETURN a.name, count(DISTINCT b), collect(DISTINCT b.name)",
    "MATCH (a:Person)-[:KNOWS*1..3]->(b) RETURN collect(DISTINCT b.name), collect(DISTINCT b)",
    "UNWIND range(0, 40) AS i MATCH (z:Ghost) RETURN i % 3 AS g, collect(DISTINCT (i * 7) % 5), count(DISTINCT i % 4)",
    "MATCH (a:Person), (b:Person) RETURN a.name, count(DISTINCT b.tag), sum(DISTINCT b.age), collect(DISTINCT b.name)",
    "MATCH (n:Person) RETURN sum(DISTINCT n.age), avg(DISTINCT n.age), min(DISTINCT n.age), max(DISTINCT n.age)",
    "UNWIND [1.5, 2.5, 1.5, null, 0.5, 2.5, 2] AS x RETURN sum(DISTINCT x), avg(DISTINCT x), min(DISTINCT x), max(DISTINCT x), count(DISTINCT x)",
    "MATCH (n:Person) RETURN min(DISTINCT n.name), max(DISTINCT n.name), count(DISTINCT n.name), collect(DISTINCT n.name)",
    "MATCH (n:Person) RETURN count(DISTINCT n.tag), min(DISTINCT n.tag), max(DISTINCT n.tag), collect(DISTINCT n.tag)",
    "MATCH (n:Person) RETURN n.age, count(DISTINCT n.tag), collect(DISTINCT n.name)",
    "UNWIND range(0, 40) AS i MATCH (z:Ghost) RETURN i % 3 AS g, sum(DISTINCT i % 7), avg(DISTINCT (i % 4) * 0.5), min(DISTINCT i % 5), max(DISTINCT toString(i % 6))",
    "UNWIND [null, null] AS x RETURN count(DISTINCT x), sum(DISTINCT x), min(DISTINCT x), collect(DISTINCT x)",
    # lists and maps: no dtype keys them, so they take the row loop
    "UNWIND [[1, 2], [1, 2], [2, 1], [], [true], [1], [1.0]] AS xs RETURN count(DISTINCT xs), collect(DISTINCT xs)",
    "UNWIND [{a: 1}, {a: 1}, {a: 1.0}, {a: true}, {b: 1}] AS m RETURN count(DISTINCT m), collect(DISTINCT m)",
    # multi-column RETURN DISTINCT, nulls and entities included
    "MATCH (a:Person)-[:KNOWS]-(b) RETURN DISTINCT a.name, b.age",
    "MATCH (a)-[:KNOWS*1..3]-(b) RETURN DISTINCT a, b",
    "UNWIND range(0, 40) AS i MATCH (z:Ghost) RETURN DISTINCT i % 3, i % 4 = 0, toString(i % 2)",
    "UNWIND range(0, 40) AS i MATCH (z:Ghost) WITH DISTINCT i % 5 AS r, [i % 2] AS l RETURN r, l",
    "MATCH (a:Person), (b:Person) RETURN DISTINCT a.age, b.tag",
]


@pytest.mark.parametrize("query", QUERIES)
def test_batch_size_invariance(db, query):
    results = {}
    for size in BATCH_SIZES:
        db.graph.config.exec_batch_size = size
        try:
            results[size] = _normalize(db.query(query).rows)
        finally:
            db.graph.config.exec_batch_size = 1024
    assert results[1] == results[7] == results[1024], query


@pytest.mark.parametrize("query", QUERIES[:12])
def test_profile_rowcounts_match_row_engine(db, query):
    """PROFILE per-op row counts are identical to the row-at-a-time
    engine's on the same query (ISSUE 5 acceptance criterion)."""

    def counts(size):
        db.graph.config.exec_batch_size = size
        try:
            report = db.profile(query).profile
        finally:
            db.graph.config.exec_batch_size = 1024
        out = []
        for line in report.splitlines():
            op = line.split("|")[0].strip()
            rows = line.split("Records produced: ")[1].split(",")[0]
            out.append((op, int(rows)))
        return out

    assert counts(1) == counts(1024)


def test_params_are_batch_invariant(db):
    q = "MATCH (n:Person) WHERE n.age > $lo AND n.age < $hi RETURN n.name ORDER BY n.name"
    rows = None
    for size in BATCH_SIZES:
        db.graph.config.exec_batch_size = size
        try:
            got = db.query(q, {"lo": 25, "hi": 40}).rows
        finally:
            db.graph.config.exec_batch_size = 1024
        if rows is None:
            rows = got
        assert got == rows
