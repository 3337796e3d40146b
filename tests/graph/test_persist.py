"""Graph persistence round-trip tests (save_graph / load_graph)."""

import io
import threading
import time

import numpy as np
import pytest

from repro import GraphDB
from repro.errors import GraphError
from repro.graph.config import GraphConfig
from repro.graph.persist import load_graph, save_graph, save_graph_v1


def roundtrip(db: GraphDB) -> GraphDB:
    buf = io.BytesIO()
    db.save(buf)
    buf.seek(0)
    return GraphDB.load(buf)


class TestRoundTrip:
    def test_empty_graph(self):
        db = GraphDB("empty")
        db2 = roundtrip(db)
        assert db2.graph.name == "empty"
        assert db2.graph.node_count == 0

    def test_nodes_and_properties(self):
        db = GraphDB("g")
        db.query("CREATE (:Person {name:'Ann', age: 30, tags: ['a', 'b'], meta: {x: 1}})")
        db2 = roundtrip(db)
        node = db2.query("MATCH (n:Person) RETURN n").scalar()
        assert node.properties == {"name": "Ann", "age": 30, "tags": ["a", "b"], "meta": {"x": 1}}

    def test_edges_and_types(self):
        db = GraphDB("g")
        db.query("CREATE (:A {k: 1})-[:R {w: 2.5}]->(:B {k: 2})")
        db2 = roundtrip(db)
        assert db2.query("MATCH (:A)-[e:R]->(:B) RETURN e.w").scalar() == 2.5
        assert db2.graph.edge_count == 1

    def test_node_ids_preserved(self):
        db = GraphDB("g")
        ids = [db.graph.create_node(["L"]).id for _ in range(5)]
        db.graph.delete_node(ids[2])
        db2 = roundtrip(db)
        assert sorted(db2.graph.all_node_ids().tolist()) == sorted(set(ids) - {ids[2]})
        # deleted slot is reusable in the restored graph
        new = db2.graph.create_node()
        assert new.id == ids[2]

    def test_multiple_reltypes_and_queries(self):
        db = GraphDB("g")
        db.query("CREATE (a:P {i:0}), (b:P {i:1}), (c:P {i:2}), (a)-[:X]->(b), (b)-[:Y]->(c)")
        db2 = roundtrip(db)
        assert db2.query("MATCH (:P)-[:X]->()-[:Y]->(t) RETURN t.i").scalar() == 2

    def test_indices_restored(self):
        db = GraphDB("g")
        db.query("CREATE (:Person {name:'Zed'})")
        db.query("CREATE INDEX ON :Person(name)")
        db2 = roundtrip(db)
        plan = db2.explain("MATCH (n:Person {name:'Zed'}) RETURN n")
        assert "IndexRangeScan" in plan
        assert db2.query("MATCH (n:Person {name:'Zed'}) RETURN n.name").scalar() == "Zed"

    def test_config_preserved(self):
        db = GraphDB("g", GraphConfig(node_capacity=512, traverse_batch_size=7))
        db2 = roundtrip(db)
        assert db2.graph.config.traverse_batch_size == 7

    def test_bulk_loaded_matrix_preserved(self):
        """Bulk edges have no records; the matrix COO must still survive."""
        db = GraphDB("g", GraphConfig(node_capacity=64))
        db.graph.bulk_load_nodes(10, label="V")
        db.graph.bulk_load_edges(np.array([0, 1]), np.array([1, 2]), "E")
        db2 = roundtrip(db)
        assert db2.query(
            "MATCH (s:V)-[:E*1..2]->(t) WHERE id(s) = 0 RETURN count(DISTINCT t)"
        ).scalar() == 2

    def test_updates_after_restore(self):
        db = GraphDB("g")
        db.query("CREATE (:P {v: 1})")
        db2 = roundtrip(db)
        db2.query("MATCH (n:P) SET n.v = 2")
        db2.query("CREATE (:P {v: 3})")
        assert db2.query("MATCH (n:P) RETURN sum(n.v)").scalar() == 5

    def test_labels_matrix_restored(self):
        db = GraphDB("g")
        db.query("CREATE (:A), (:B), (:A:B)")
        db2 = roundtrip(db)
        assert db2.query("MATCH (n:A) RETURN count(n)").scalar() == 2
        assert db2.query("MATCH (n:B) RETURN count(n)").scalar() == 2

    def test_file_path_roundtrip(self, tmp_path):
        db = GraphDB("g")
        db.query("CREATE (:P {x: 1})")
        path = tmp_path / "graph.npz"
        db.save(str(path))
        db2 = GraphDB.load(str(path))
        assert db2.query("MATCH (n:P) RETURN n.x").scalar() == 1


def populate(db: GraphDB) -> None:
    """A graph exercising every persisted surface: multi-labels, typed
    properties, multi-edges, deletions, recordless bulk edges, an index."""
    db.query("CREATE (:Person {name:'Ann', age: 30, score: 1.5, ok: true, tags: ['a', 1]})")
    db.query("CREATE (:Person:Admin {name:'Bo', meta: {x: 1}})")
    db.query("CREATE (:Thing {name:'t0'}), (:Thing {name:'t1'})")
    db.query("MATCH (a {name:'Ann'}), (b {name:'Bo'}) CREATE (a)-[:KNOWS {w: 1}]->(b)")
    db.query("MATCH (a {name:'Ann'}), (b {name:'Bo'}) CREATE (a)-[:KNOWS {w: 2}]->(b)")
    db.query("MATCH (a {name:'Bo'}), (b {name:'t0'}) CREATE (a)-[:OWNS]->(b)")
    db.query("MATCH (n {name:'t1'}) DELETE n")
    db.query("CREATE INDEX ON :Person(name)")
    db.graph.bulk_load_nodes(4, label="V")
    db.graph.bulk_load_edges(np.array([0, 1]), np.array([1, 2]), "LINK")


DIFF_QUERIES = [
    "MATCH (n) RETURN count(n)",
    "MATCH ()-[e]->() RETURN count(e)",
    "MATCH (n) RETURN id(n), n.name, n.age, n.score, n.ok, n.tags, n.meta",
    "MATCH (n:Person) RETURN id(n) ORDER BY id(n)",
    "MATCH (n:Admin) RETURN n.name",
    "MATCH (n:Person {name:'Ann'}) RETURN n.age",
    "MATCH (a)-[e:KNOWS]->(b) RETURN a.name, e.w, b.name",
    "MATCH (a {name:'Ann'})-[:KNOWS]->(b)-[:OWNS]->(c) RETURN c.name",
]


class TestV2Format:
    def test_differential_restore(self):
        """A restored graph answers the full query battery identically."""
        db = GraphDB("g")
        populate(db)
        db2 = roundtrip(db)
        for q in DIFF_QUERIES:
            assert sorted(db2.query(q).rows) == sorted(db.query(q).rows), q

    def test_v1_migration(self):
        """Files written by the legacy v1 writer still load (read-only
        migration path) and answer like the live graph."""
        db = GraphDB("g")
        populate(db)
        buf = io.BytesIO()
        save_graph_v1(db.graph, buf)
        buf.seek(0)
        db2 = GraphDB.load(buf)
        for q in DIFF_QUERIES:
            assert sorted(db2.query(q).rows) == sorted(db.query(q).rows), q

    def test_save_does_not_flush_pending_deltas(self):
        """Saving is a pure read: pending matrix deltas stay pending and
        no matrix generation moves (the v1 writer flushed via synced())."""
        db = GraphDB("g")
        db.query("CREATE (:P {v: 1})-[:R]->(:P {v: 2})")
        graph = db.graph
        rel = graph._rel_matrix_for(graph.schema.reltype_id("R"))
        assert rel.pending > 0
        pending_before = rel.pending
        generations = [
            m.generation for m in [graph._adj, *graph._rel_matrices, *graph._label_matrices]
        ]
        buf = io.BytesIO()
        db.save(buf)
        assert rel.pending == pending_before
        assert [
            m.generation for m in [graph._adj, *graph._rel_matrices, *graph._label_matrices]
        ] == generations
        buf.seek(0)
        db2 = GraphDB.load(buf)
        assert db2.query("MATCH (:P)-[:R]->(b) RETURN b.v").scalar() == 2

    def test_writers_progress_during_save(self):
        """BGSAVE semantics: the capture runs under the read lock, the
        disk write under no lock — a writer commits while a slow save is
        still streaming bytes out."""
        db = GraphDB("g", GraphConfig(node_capacity=1024))
        db.graph.bulk_load_nodes(500, label="V")

        class SlowSink(io.BytesIO):
            def __init__(self):
                super().__init__()
                self.first_write = threading.Event()

            def write(self, data):
                self.first_write.set()
                time.sleep(0.005)
                return super().write(data)

        sink = SlowSink()
        save_error = []

        def run_save():
            try:
                db.save(sink)
            except Exception as exc:  # pragma: no cover - surfaced below
                save_error.append(exc)

        saver = threading.Thread(target=run_save)
        saver.start()
        assert sink.first_write.wait(timeout=10)
        # the save is mid-write: a write query must not have to wait for it
        started = time.perf_counter()
        db.query("CREATE (:W {i: 0})")
        write_latency = time.perf_counter() - started
        assert saver.is_alive(), "save finished too fast to measure overlap"
        saver.join(timeout=30)
        assert not save_error
        assert write_latency < 1.0
        # the snapshot is the pre-write image; the live graph has the write
        sink.seek(0)
        assert GraphDB.load(sink).query("MATCH (n:W) RETURN count(n)").scalar() == 0
        assert db.query("MATCH (n:W) RETURN count(n)").scalar() == 1

    def test_unknown_version_rejected(self):
        db = GraphDB("g")
        buf = io.BytesIO()
        db.save(buf)
        buf.seek(0)
        import json

        data = dict(np.load(buf))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        evil = io.BytesIO()
        np.savez(evil, **data)
        evil.seek(0)
        with pytest.raises(GraphError, match="unsupported graph file version"):
            load_graph(evil)

    def test_none_valued_index_entries_not_indexed(self):
        """Cypher null matches no predicate, so None is never indexed —
        and the restore-time backfill must agree with live maintenance."""
        db = GraphDB("g")
        db.graph.create_node(["P"], {"v": None})
        db.graph.create_node(["P"], {"v": 1})
        db.query("CREATE INDEX ON :P(v)")
        live = db.graph.get_index("P", "v")
        db2 = roundtrip(db)
        restored = db2.graph.get_index("P", "v")
        assert len(restored) == len(live) == 1
        assert restored.lookup(None) == live.lookup(None) == set()
        assert restored.lookup(1) == live.lookup(1) == {1}

    def test_edge_slot_reuse_preserved(self):
        db = GraphDB("g")
        db.query("CREATE (:A)-[:R {i: 0}]->(:B)")
        db.query("MATCH (:A)-[e:R]->(:B) DELETE e")
        db2 = roundtrip(db)
        # the freed edge slot is recycled in the restored graph
        db2.query("MATCH (a:A), (b:B) CREATE (a)-[:R {i: 1}]->(b)")
        assert db2.query("MATCH ()-[e:R]->() RETURN id(e), e.i").rows == [(0, 1)]


class TestErrors:
    def test_unpersistable_property(self):
        db = GraphDB("g")
        node = db.graph.create_node(["P"])
        db.graph.set_node_property(node.id, "blob", object())
        with pytest.raises(GraphError, match="cannot be persisted"):
            db.save(io.BytesIO())

    def test_non_string_map_keys(self):
        db = GraphDB("g")
        node = db.graph.create_node(["P"])
        db.graph.set_node_property(node.id, "m", {1: "x"})
        with pytest.raises(GraphError, match="keys must be strings"):
            db.save(io.BytesIO())
