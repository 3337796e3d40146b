"""Write-side statistics maintenance (the cost-based planner's input).

The core invariant: after ANY sequence of mutations — per-entity
creates/deletes, label add/remove, multi-edges, bulk ingestion — the
incrementally maintained counters must equal what a from-scratch
``rebuild()`` derives from the matrices and records (the oracle).  A
second family asserts the counters survive persistence: snapshot
save/load and kill-and-restart WAL recovery must restore identical
statistics.
"""

import io
import random

import numpy as np
import pytest

from repro import GraphDB
from repro.graph import BulkWriter, Graph, GraphConfig
from repro.graph.statistics import (
    HIST_BUCKETS,
    StatisticsStore,
    _bucket,
    _degrees_from_vector,
)


def oracle(graph) -> dict:
    """What a from-scratch rebuild computes for the same graph."""
    fresh = StatisticsStore(graph)
    fresh.rebuild()
    return fresh.measure()


def assert_consistent(graph) -> None:
    assert graph.stats.measure() == oracle(graph)


class TestPrimitives:
    def test_bucket_is_log2(self):
        assert _bucket(1) == 0
        assert _bucket(2) == 1
        assert _bucket(3) == 1
        assert _bucket(4) == 2
        assert _bucket(2**70) == HIST_BUCKETS - 1  # clamped, not overflowed

    def test_degrees_from_vector_matches_scalar_buckets(self):
        vec = np.array([0, 1, 5, 0, 1024, 3], dtype=np.int64)
        deg, hist = _degrees_from_vector(vec)
        assert deg == {1: 1, 2: 5, 4: 1024, 5: 3}
        expected = [0] * HIST_BUCKETS
        for d in deg.values():
            expected[_bucket(d)] += 1
        assert hist == expected

    def test_empty_vector(self):
        deg, hist = _degrees_from_vector(np.zeros(4, dtype=np.int64))
        assert deg == {}
        assert hist == [0] * HIST_BUCKETS


class TestIncrementalMaintenance:
    def test_node_create_delete(self):
        g = Graph("s", GraphConfig(node_capacity=16))
        a = g.create_node(["A"])
        g.create_node(["A", "B"])
        c = g.create_node()
        assert_consistent(g)
        g.delete_node(a.id)
        g.delete_node(c.id)
        assert_consistent(g)
        assert g.stats.node_total == 1

    def test_label_add_remove(self):
        g = Graph("s", GraphConfig(node_capacity=16))
        n = g.create_node(["A"])
        g.add_label(n.id, "B")
        assert_consistent(g)
        g.remove_label(n.id, "A")
        assert_consistent(g)

    def test_edge_create_delete(self):
        g = Graph("s", GraphConfig(node_capacity=16))
        ids = [g.create_node(["V"]).id for _ in range(4)]
        e1 = g.create_edge(ids[0], "R", ids[1])
        g.create_edge(ids[1], "R", ids[2])
        g.create_edge(ids[0], "S", ids[2])
        assert_consistent(g)
        g.delete_edge(e1.id)
        assert_consistent(g)

    def test_multi_edge_entry_counting(self):
        """Parallel edges share one matrix entry: record count moves per
        edge, entry/degree stats only when the last sibling goes."""
        g = Graph("s", GraphConfig(node_capacity=16))
        a, b = g.create_node().id, g.create_node().id
        e1 = g.create_edge(a, "R", b)
        e2 = g.create_edge(a, "R", b)
        rel = g.stats._rels[g.schema.intern_reltype("R")]
        assert (rel.edges, rel.entries) == (2, 1)
        assert_consistent(g)
        g.delete_edge(e1.id)
        assert (rel.edges, rel.entries) == (1, 1)  # sibling keeps the entry
        assert_consistent(g)
        g.delete_edge(e2.id)
        assert (rel.edges, rel.entries) == (0, 0)
        assert_consistent(g)

    def test_randomized_workload_matches_oracle(self):
        rng = random.Random(11)
        g = Graph("s", GraphConfig(node_capacity=32))
        nodes, edges = [], []
        for step in range(300):
            op = rng.random()
            if op < 0.45 or len(nodes) < 2:
                nodes.append(g.create_node(rng.sample(["A", "B", "C"], rng.randint(0, 2))).id)
            elif op < 0.80:
                s, d = rng.choice(nodes), rng.choice(nodes)
                edges.append(g.create_edge(s, rng.choice(["R", "S"]), d).id)
            elif op < 0.90 and edges:
                g.delete_edge(edges.pop(rng.randrange(len(edges))))
            elif len(nodes) > 2:
                g.delete_node(nodes.pop(rng.randrange(len(nodes))), detach=True)
                edges = [e for e in edges if g.has_edge(e)]
        assert_consistent(g)

    def test_cypher_detach_delete(self):
        db = GraphDB("s")
        db.query("CREATE (a:P {i: 0})-[:R]->(b:P {i: 1})-[:R]->(c:P {i: 2}), (a)-[:S]->(c)")
        assert_consistent(db.graph)
        db.query("MATCH (n:P {i: 1}) DETACH DELETE n")
        assert_consistent(db.graph)


class TestBulkMaintenance:
    def test_bulk_writer_commit(self):
        g = Graph("s", GraphConfig(node_capacity=16))
        w = BulkWriter(g)
        ids = w.add_nodes(count=6, labels=["V"], properties={"v": [1, 2, 3, 4, 5, 6]})
        w.add_edges("E", ids[:3], ids[3:])
        w.commit(lock=False)
        assert_consistent(g)

    def test_recordless_bulk_edges(self):
        """Dataset-loading path: matrix entries without edge records still
        feed entry/degree statistics (edges stays at the record count)."""
        g = Graph("s", GraphConfig(node_capacity=64))
        g.bulk_load_nodes(10, label="V")
        g.bulk_load_edges(np.array([0, 1, 0]), np.array([1, 2, 1]), "E")
        rel = g.stats._rels[g.schema.intern_reltype("E")]
        assert rel.edges == 0  # no records materialized
        assert rel.entries == 2  # (0,1) deduplicated
        assert_consistent(g)

    def test_bulk_over_existing_graph(self):
        g = Graph("s", GraphConfig(node_capacity=16))
        a, b = g.create_node(["V"]).id, g.create_node(["V"]).id
        g.create_edge(a, "E", b)
        w = BulkWriter(g)
        ids = w.add_nodes(count=2, labels=["V"])
        w.add_edges("E", [0], [1])  # batch-relative: the two new nodes
        w.commit(lock=False)
        assert_consistent(g)


class TestSnapshot:
    def test_names_counts_and_indexes(self):
        db = GraphDB("s")
        db.query("UNWIND range(0, 2) AS i CREATE (:Person {name: 'p' + toString(i)})")
        db.query("CREATE (:City {name: 'x'})")
        db.query("MATCH (p:Person), (c:City) CREATE (p)-[:LIVES_IN]->(c)")
        db.query("CREATE INDEX ON :Person(name)")
        snap = db.graph.stats.snapshot()
        assert snap.label_counts == {"Person": 3, "City": 1}
        assert snap.node_count == 4
        rel = snap.rels["LIVES_IN"]
        assert (rel.edges, rel.entries, rel.out_nodes, rel.in_nodes) == (3, 3, 3, 1)
        detail = snap.index_details[("Person", ("name",), "range")]
        assert (detail["size"], detail["ndv"]) == (3, 3)
        assert rel.max_degree(incoming=True) >= 3

    def test_snapshot_is_insulated_from_later_writes(self):
        db = GraphDB("s")
        db.query("CREATE (:A)")
        snap = db.graph.stats.snapshot()
        db.query("UNWIND range(0, 9) AS i CREATE (:A)")
        assert snap.label_counts == {"A": 1}
        assert db.graph.stats.snapshot().label_counts == {"A": 11}

    def test_epoch_stable_under_small_writes(self):
        """Plans compiled over a small graph are not thrashed: below the
        64-entity drift floor the epoch never moves."""
        db = GraphDB("s")
        before = db.graph.stats.epoch
        db.query("UNWIND range(0, 19) AS i CREATE (:A)-[:R]->(:B)")
        assert db.graph.stats.epoch == before

    def test_epoch_bumps_on_large_growth(self):
        db = GraphDB("s")
        before = db.graph.stats.epoch
        db.query("UNWIND range(0, 499) AS i CREATE (:A)")
        assert db.graph.stats.epoch > before


class TestPersistence:
    def _roundtrip(self, db: GraphDB) -> GraphDB:
        buf = io.BytesIO()
        db.save(buf)
        buf.seek(0)
        return GraphDB.load(buf)

    def test_snapshot_restore_rebuilds_stats(self):
        db = GraphDB("s")
        db.query("UNWIND range(0, 9) AS i CREATE (:P {i: i})")
        db.query("MATCH (a:P), (b:P) WHERE b.i = a.i + 1 CREATE (a)-[:N]->(b)")
        db.query("MATCH (n:P {i: 3}) DETACH DELETE n")
        db2 = self._roundtrip(db)
        assert db2.graph.stats.measure() == db.graph.stats.measure()
        assert_consistent(db2.graph)

    def test_bulk_loaded_matrix_stats_survive(self):
        db = GraphDB("s", GraphConfig(node_capacity=64))
        db.graph.bulk_load_nodes(10, label="V")
        db.graph.bulk_load_edges(np.array([0, 1, 2]), np.array([1, 2, 3]), "E")
        db2 = self._roundtrip(db)
        assert db2.graph.stats.measure() == db.graph.stats.measure()

    def test_restored_stats_keep_maintaining(self):
        db = self._roundtrip(GraphDB("s"))
        db.query("CREATE (:A)-[:R]->(:B)")
        assert_consistent(db.graph)


class TestWalRecovery:
    """Kill-and-restart: replayed writes must maintain the same counters
    the live graph had (snapshot rebuild + incremental tail replay)."""

    @pytest.mark.parametrize("save_midway", [False, True], ids=["log-only", "snapshot+tail"])
    def test_stats_identical_after_recovery(self, tmp_path, save_midway):
        import time

        from repro.rediskv.client import RedisClient
        from repro.rediskv.server import RedisLikeServer

        def start():
            srv = RedisLikeServer(
                port=0,
                config=GraphConfig(thread_count=2, node_capacity=64, wal_fsync="no"),
                data_dir=str(tmp_path),
            ).start()
            time.sleep(0.02)
            return srv

        srv = start()
        rng = random.Random(3)
        with RedisClient(port=srv.port) as c:
            for i in range(10):
                c.graph_query("g", f"CREATE (:{'A' if i % 2 else 'B'} {{i: {i}}})")
            for _ in range(15):
                c.graph_query(
                    "g",
                    "MATCH (a), (b) WHERE id(a) = $s AND id(b) = $d CREATE (a)-[:R]->(b)",
                    {"s": rng.randrange(10), "d": rng.randrange(10)},
                )
            if save_midway:
                assert c.graph_save("g") == "OK"
            token = c.graph_bulk_begin("g")
            c.graph_bulk_nodes("g", token, count=4, labels=["B"])
            c.graph_bulk_edges("g", token, "S", [0, 1], [2, 3])
            c.graph_bulk_commit("g", token)
            c.graph_query("g", "MATCH (x {i: 4}) DETACH DELETE x")
            expected = srv.keyspace.get_graph("g").graph.stats.measure()
        srv.stop()  # "crash": the tail is never snapshotted

        srv2 = start()
        recovered = srv2.keyspace.get_graph("g").graph
        assert recovered.stats.measure() == expected
        assert_consistent(recovered)
        srv2.stop()
