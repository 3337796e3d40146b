"""The serial-vs-parallel semantics net (ISSUE 6).

Every read query in the battery runs serial (``parallel_workers=1``,
byte-for-byte the pre-parallelism engine) and morsel-parallel
(``parallel_workers=4``) at morsel sizes 1 (every row its own morsel),
7 (a prime that misaligns every partition boundary) and the default —
row streams must be identical, IN ORDER, with no ORDER BY required:
partition order equals serial emission order by construction, so
parallel execution is not allowed to reorder anything.
"""

import threading

import pytest

from repro import GraphDB
from repro.execplan import morsel
from repro.execplan.batch import value_key
from repro.graph.config import GraphConfig

MORSEL_SIZES = (1, 7, 2048)


def _normalize(rows):
    return [tuple(value_key(v) for v in row) for row in rows]


@pytest.fixture(scope="module")
def db():
    d = GraphDB("diff-parallel", GraphConfig(node_capacity=512))
    # enough nodes that even mid-size morsels split into many partitions;
    # nulls, duplicate groups and mixed tags keep the operators honest
    d.query(
        "UNWIND range(0, 199) AS i "
        "CREATE (:Person {name: 'p' + toString(i % 23), age: i % 17, grp: i % 5})"
    )
    d.query("UNWIND range(0, 9) AS i CREATE (:Ghost {name: 'g' + toString(i)})")
    d.query("MATCH (n:Person) WHERE n.grp = 0 SET n.age = null")
    d.query(
        "MATCH (a:Person), (b:Person) "
        "WHERE b.grp = a.grp AND a.age = b.age - 1 "
        "CREATE (a)-[:KNOWS {w: a.grp}]->(b)"
    )
    yield d
    morsel.shutdown_shared_pool()


def _run(db, query, workers, morsel_size):
    cfg = db.graph.config
    cfg.parallel_workers, cfg.morsel_size = workers, morsel_size
    try:
        res = db.query(query)
        return _normalize(res.rows), res.stats
    finally:
        cfg.parallel_workers, cfg.morsel_size = 1, 2048


QUERIES = [
    # pure scans WITHOUT ORDER BY: the merged morsel stream must be the
    # serial stream verbatim (the strongest differential there is)
    "MATCH (n:Person) RETURN n.name, n.age",
    "MATCH (n:Person) WHERE n.age > 8 RETURN n.name, n.age",
    "MATCH (n) RETURN id(n)",
    "MATCH (n:Person) UNWIND [1, 2] AS k RETURN n.name, k",
    # traversals partitioned over source rows
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.name, b.name",
    "MATCH (a:Person)-[r:KNOWS]->(b) WHERE r.w > 1 RETURN a.age, r.w, b.age",
    "MATCH (a:Person)-[:KNOWS]->(b)-[:KNOWS]->(c) RETURN a.name, c.name",
    # parallel aggregate: partial groups merged in partition order
    "MATCH (n:Person) RETURN count(n), sum(n.age), min(n.age), max(n.age), avg(n.age)",
    "MATCH (n:Person) RETURN n.grp, count(*), sum(n.age) ORDER BY n.grp",
    "MATCH (n:Person) RETURN n.name, collect(n.age) ORDER BY n.name",
    "MATCH (a:Person)-[:KNOWS]->(b) RETURN a.grp, count(b) ORDER BY a.grp",
    # first-appearance group order without ORDER BY must survive too
    "MATCH (n:Person) RETURN n.grp, count(*)",
    # DISTINCT aggregates force the serial path — still identical
    "MATCH (n:Person) RETURN count(DISTINCT n.name), count(DISTINCT n.age)",
    # parallel sort (per-partition sort + final merge sort, stable)
    "MATCH (n:Person) RETURN n.name, n.age ORDER BY n.age DESC, n.name",
    "MATCH (n:Person) RETURN n.age ORDER BY n.age LIMIT 9",
    "MATCH (n:Person) RETURN n.name ORDER BY n.name SKIP 5 LIMIT 7",
    # parallel distinct: partition-local dedup + global filter, in order
    "MATCH (n:Person) RETURN DISTINCT n.age",
    "MATCH (n:Person) RETURN DISTINCT n.name, n.grp",
    # null handling across partition boundaries
    "MATCH (n:Person) WHERE n.age IS NULL RETURN n.name",
    "MATCH (n:Person) OPTIONAL MATCH (n)-[:KNOWS]->(m) RETURN n.name, m.name",
    # skip/limit carry across morsel-produced batches
    "MATCH (n:Person) RETURN n.name SKIP 13 LIMIT 40",
    # cartesian products and unions
    "MATCH (a:Ghost), (b:Person) WHERE b.grp = 4 RETURN a.name, b.name",
    "MATCH (n:Person) RETURN n.name AS name UNION MATCH (n:Ghost) RETURN n.name AS name",
    # expression work inside the partitioned chain
    "MATCH (n:Person) RETURN n.name, CASE WHEN n.age > 8 THEN 'hi' ELSE 'lo' END",
    "MATCH (n:Person) WITH n.age AS age WHERE age > 3 RETURN age, age * 2",
]


@pytest.mark.parametrize("query", QUERIES)
def test_parallel_matches_serial(db, query):
    serial, _ = _run(db, query, workers=1, morsel_size=2048)
    for size in MORSEL_SIZES:
        parallel, _ = _run(db, query, workers=4, morsel_size=size)
        assert parallel == serial, (query, size)


def test_parallel_run_reports_morsels(db):
    rows, stats = _run(db, "MATCH (n:Person) RETURN n.age", workers=4, morsel_size=16)
    assert len(rows) == 200
    assert stats.parallel_workers == 4
    assert stats.morsels >= 2
    assert any("Parallel execution: 4 workers" in line for line in stats.summary())


def test_serial_run_reports_no_morsels(db):
    _, stats = _run(db, "MATCH (n:Person) RETURN n.age", workers=1, morsel_size=16)
    assert stats.parallel_workers == 0 and stats.morsels == 0
    assert not any("Parallel execution" in line for line in stats.summary())


def test_write_queries_stay_serial(db):
    cfg = db.graph.config
    cfg.parallel_workers, cfg.morsel_size = 4, 1
    try:
        res = db.query("CREATE (:Tmp) WITH 1 AS one MATCH (t:Tmp) RETURN count(t)")
        assert res.stats.morsels == 0  # writers never get a driver
    finally:
        cfg.parallel_workers, cfg.morsel_size = 1, 2048
        db.query("MATCH (t:Tmp) DELETE t")


def test_profile_rowcounts_match_serial(db):
    """Per-op Records produced are identical parallel vs serial, and the
    partitioned scan reports its morsel count."""
    query = "MATCH (n:Person) WHERE n.age > 5 RETURN n.grp, count(*) ORDER BY n.grp"

    def counts(workers, morsel_size):
        cfg = db.graph.config
        cfg.parallel_workers, cfg.morsel_size = workers, morsel_size
        try:
            report = db.profile(query).profile
        finally:
            cfg.parallel_workers, cfg.morsel_size = 1, 2048
        out = []
        for line in report.splitlines():
            op = line.split("|")[0].strip()
            rows = line.split("Records produced: ")[1].split(",")[0]
            out.append((op, int(rows)))
        return out, report

    serial, _ = counts(1, 2048)
    parallel, report = counts(4, 16)
    assert parallel == serial
    assert "Morsels:" in report


def test_parallel_ro_query_and_params(db):
    q = "MATCH (n:Person) WHERE n.age > $lo RETURN n.name, n.age"
    cfg = db.graph.config
    serial = db.ro_query(q, {"lo": 10}).rows
    cfg.parallel_workers, cfg.morsel_size = 4, 7
    try:
        assert db.ro_query(q, {"lo": 10}).rows == serial
    finally:
        cfg.parallel_workers, cfg.morsel_size = 1, 2048


def test_concurrent_parallel_queries_share_the_pool(db):
    """Many coordinators at once: the shared morsel pool must not
    deadlock or cross results between queries."""
    cfg = db.graph.config
    cfg.parallel_workers, cfg.morsel_size = 4, 8
    errors = []

    def worker(grp):
        try:
            q = f"MATCH (n:Person) WHERE n.grp = {grp} RETURN count(n)"
            for _ in range(5):
                assert db.query(q).scalar() == 40
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    try:
        threads = [threading.Thread(target=worker, args=(g,)) for g in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
    finally:
        cfg.parallel_workers, cfg.morsel_size = 1, 2048


class TestMorselDriver:
    def test_run_ordered_preserves_submission_order(self):
        driver = morsel.MorselDriver(workers=4, morsel_size=8)
        thunks = [lambda i=i: i * i for i in range(50)]
        assert list(driver.run_ordered(thunks)) == [i * i for i in range(50)]
        morsel.shutdown_shared_pool()

    def test_run_ordered_propagates_worker_errors(self):
        driver = morsel.MorselDriver(workers=2, morsel_size=8)

        def boom():
            raise ValueError("morsel failed")

        with pytest.raises(ValueError, match="morsel failed"):
            list(driver.run_ordered([lambda: 1, boom, lambda: 3]))
        morsel.shutdown_shared_pool()

    def test_pool_recreated_after_shutdown(self):
        pool = morsel.shared_pool(2)
        morsel.shutdown_shared_pool()
        fresh = morsel.shared_pool(3)
        assert fresh is not pool
        assert fresh.size >= 3
        morsel.shutdown_shared_pool()

    def test_pool_grows_to_largest_request(self):
        pool = morsel.shared_pool(2)
        assert morsel.shared_pool(5) is pool
        assert pool.size >= 5
        morsel.shutdown_shared_pool()
