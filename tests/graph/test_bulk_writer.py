"""BulkWriter unit tests + the bookkeeping regressions: bulk loads must
bump the schema version for new labels/reltypes, backfill existing
indexes from staged property columns, and keep nvals/datablock counters
consistent with the per-entity write path."""

import numpy as np
import pytest

from repro import GraphDB
from repro.errors import EntityNotFound, GraphError, IndexOutOfBounds
from repro.graph import BulkWriter, Graph, GraphConfig
from repro.graph.delta_matrix import DeltaMatrix


@pytest.fixture
def g():
    return Graph("bulk-test", GraphConfig(node_capacity=16))


class TestStaging:
    def test_add_nodes_returns_batch_indices(self, g):
        w = BulkWriter(g)
        assert list(w.add_nodes(count=3, labels=["A"])) == [0, 1, 2]
        assert list(w.add_nodes(count=2)) == [3, 4]
        assert w.staged_nodes == 5

    def test_count_inferred_from_columns(self, g):
        w = BulkWriter(g)
        ids = w.add_nodes(labels=["A"], properties={"v": [1, 2, 3, 4]})
        assert len(ids) == 4

    def test_column_length_mismatch(self, g):
        w = BulkWriter(g)
        with pytest.raises(GraphError, match="property column"):
            w.add_nodes(count=3, properties={"v": [1, 2]})

    def test_count_required_without_columns(self, g):
        with pytest.raises(GraphError, match="count"):
            BulkWriter(g).add_nodes(labels=["A"])

    def test_non_integral_count_rejected_at_staging(self, g):
        w = BulkWriter(g)
        with pytest.raises(GraphError, match="must be an integer"):
            w.add_nodes(count=2.5)
        assert list(w.add_nodes(count=2.0)) == [0, 1]  # JSON-integral float ok
        assert w.staged_nodes == 2
        w.commit(lock=False)
        assert g.node_count == 2

    def test_lone_string_label_not_split(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=1, labels="Person")
        w.commit(lock=False)
        assert g.labels_of(0) == ("Person",)

    def test_edges_length_mismatch(self, g):
        with pytest.raises(GraphError, match="equal-length"):
            BulkWriter(g).add_edges("R", [0, 1], [0])

    def test_non_integral_endpoints_rejected(self, g):
        w = BulkWriter(g)
        with pytest.raises(GraphError, match="endpoints must be integers"):
            w.add_edges("R", [1.9], [0])
        with pytest.raises(GraphError, match="endpoints must be integers"):
            w.add_edges("R", [0], ["x"])
        w.add_nodes(count=2)
        w.add_edges("R", [0.0], [1.0])  # integral floats (JSON) are fine
        w.commit(lock=False)
        assert g.relation_matrix("R")[0, 1] is not None

    def test_bad_endpoints_mode(self, g):
        with pytest.raises(GraphError, match="endpoints"):
            BulkWriter(g).add_edges("R", [0], [0], endpoints="nope")

    def test_recordless_edges_reject_properties(self, g):
        with pytest.raises(GraphError, match="recordless"):
            BulkWriter(g).add_edges("R", [0], [0], properties={"w": [1]}, record=False)

    def test_single_use_after_commit(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=1)
        w.commit(lock=False)
        with pytest.raises(GraphError, match="committed"):
            w.add_nodes(count=1)
        with pytest.raises(GraphError, match="committed"):
            w.commit()

    def test_abort_discards(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=5, labels=["A"])
        w.abort()
        assert g.node_count == 0
        with pytest.raises(GraphError, match="aborted"):
            w.commit()


class TestCommit:
    def test_batch_endpoints_map_to_allocated_ids(self, g):
        g.create_node(["Seed"])  # occupy id 0 so batch ids shift
        w = BulkWriter(g)
        w.add_nodes(count=3, labels=["A"])
        w.add_edges("R", [0, 1], [1, 2])
        report = w.commit(lock=False)
        ids = report.node_ids
        assert g.node_count == 4
        R = g.relation_matrix("R")
        assert R[int(ids[0]), int(ids[1])] is not None
        assert R[int(ids[1]), int(ids[2])] is not None

    def test_graph_endpoints_validated_alive(self, g):
        a = g.create_node()
        b = g.create_node()
        g.delete_node(b.id)
        w = BulkWriter(g)
        w.add_edges("R", [a.id], [b.id], endpoints="graph")
        with pytest.raises(EntityNotFound, match="does not exist"):
            w.commit(lock=False)
        assert g.edge_count == 0  # validation failed before mutation

    def test_batch_endpoint_out_of_range(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=2)
        w.add_edges("R", [0], [5])
        with pytest.raises(EntityNotFound, match="staged nodes"):
            w.commit(lock=False)
        assert g.node_count == 0  # nothing applied

    def test_recorded_edges_fully_first_class(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=3, labels=["A"])
        w.add_edges("R", [0, 0], [1, 1], properties={"w": [1, 2]})  # multi-edge
        w.add_edges("R", [1], [2])
        report = w.commit(lock=False)
        assert report.relationships_created == 3
        assert g.edge_count == 3
        assert g.relation_matrix("R").nvals == 2  # multi-edge shares one entry
        eids = g.edges_between(0, 1, "R")
        assert len(eids) == 2
        assert sorted(g.edge_property(e, "w") for e in eids) == [1, 2]
        # deletable like any per-entity edge
        g.delete_edge(eids[0])
        assert g.relation_matrix("R")[0, 1] is not None  # sibling keeps entry
        g.delete_edge(eids[1])
        assert g.relation_matrix("R")[0, 1] is None
        assert g.relation_matrix()[0, 1] is None  # ADJ entry dropped too

    def test_property_columns_with_gaps(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=3, labels=["A"], properties={"v": [1, None, 3]})
        report = w.commit(lock=False)
        assert report.properties_set == 2
        assert g.node_property(0, "v") == 1
        assert g.node_property(1, "v") is None
        assert g.node_property(2, "v") == 3

    def test_report_counts(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=2, labels=["A", "B"])
        w.add_edges("R", [0], [1], properties={"w": [9]})
        report = w.commit(lock=False)
        assert report.nodes_created == 2
        assert report.relationships_created == 1
        assert report.labels_added == 2
        assert report.reltypes_added == 1
        assert report.properties_set == 1
        assert any("Nodes created: 2" in line for line in report.summary())

    def test_empty_commit(self, g):
        report = BulkWriter(g).commit(lock=False)
        assert report.nodes_created == 0 and report.relationships_created == 0

    def test_commit_under_lock_by_default(self, g):
        w = BulkWriter(g)
        w.add_nodes(count=2, labels=["A"])
        w.commit()  # acquires/releases the write lock
        assert g.node_count == 2


class TestBookkeepingRegressions:
    """Satellite fix: the legacy bulk_load shims must run the same
    bookkeeping as per-entity writes."""

    def test_bulk_load_nodes_new_label_bumps_schema_version(self, g):
        v = g.schema_version
        g.bulk_load_nodes(4, label="Fresh")
        assert g.schema_version > v
        v = g.schema_version
        g.bulk_load_nodes(4, label="Fresh")  # known label: data-only write
        assert g.schema_version == v

    def test_bulk_load_edges_new_reltype_bumps_schema_version(self, g):
        g.bulk_load_nodes(4)
        v = g.schema_version
        g.bulk_load_edges(np.array([0]), np.array([1]), "NEWREL")
        assert g.schema_version > v

    def test_bulk_load_nodes_carries_properties(self, g):
        ids = g.bulk_load_nodes(3, label="P", properties={"name": ["x", "y", "z"]})
        assert [g.node_property(int(i), "name") for i in ids] == ["x", "y", "z"]

    def test_bulk_load_backfills_existing_index(self, g):
        idx = g.create_index("P", "name")
        g.bulk_load_nodes(3, label="P", properties={"name": ["x", "y", "x"]})
        assert len(idx) == 3
        assert idx.lookup("x") == {0, 2}

    def test_bulk_insert_backfills_existing_index(self):
        db = GraphDB("idx", GraphConfig(node_capacity=16))
        db.query("CREATE INDEX ON :P(name)")
        db.bulk_insert(nodes=[{"labels": ["P"], "properties": {"name": ["ann", "bo"]}}])
        # the planner must both choose the index and find the bulk rows
        assert "IndexRangeScan" in db.explain("MATCH (n:P {name: 'ann'}) RETURN n")
        assert db.query("MATCH (n:P {name: 'ann'}) RETURN count(n)").scalar() == 1

    def test_unindexable_bulk_values_skipped(self, g):
        idx = g.create_index("P", "tags")
        g.bulk_load_nodes(2, label="P", properties={"tags": [[1, 2], "ok"]})
        assert len(idx) == 1

    def test_indexed_nodes_report_counts_real_insertions(self, g):
        g.create_index("P", "tags")
        w = BulkWriter(g)
        w.add_nodes(count=3, labels=["P"], properties={"tags": [[1, 2], "ok", None]})
        report = w.commit(lock=False)
        assert report.indexed_nodes == 1  # list unindexable, None absent

    def test_nvals_consistent_after_mixed_writes(self, g):
        g.bulk_load_nodes(6, label="V")
        g.create_edge(0, "R", 1)  # pending delta...
        g.bulk_load_edges(np.array([1, 2]), np.array([2, 3]), "R")  # ...then splice
        dm = g._rel_matrices[g.schema.reltype_id("R")]
        assert dm.nvals() == 3
        assert g.relation_matrix("R").nvals == 3
        assert g.relation_matrix()[0, 1] is not None


class TestUnionSplice:
    def test_merges_with_pending_ops(self):
        dm = DeltaMatrix(8)
        dm.add(0, 1)
        dm.add(2, 2)
        dm.delete(2, 2)
        added = dm.union_splice(np.array([0, 3]), np.array([1, 4]))
        assert added == 1  # (0,1) already present via pending, (3,4) new
        assert dm.nvals() == 2
        assert dm.has(0, 1) and dm.has(3, 4) and not dm.has(2, 2)
        assert dm.pending == 0  # compacted

    def test_duplicates_collapse(self):
        dm = DeltaMatrix(4)
        assert dm.union_splice(np.array([1, 1, 1]), np.array([2, 2, 3])) == 2
        assert dm.nvals() == 2

    def test_bounds_checked(self):
        dm = DeltaMatrix(4)
        with pytest.raises(IndexOutOfBounds):
            dm.union_splice(np.array([0]), np.array([9]))

    def test_outstanding_views_not_torn(self):
        dm = DeltaMatrix(8)
        dm.add(0, 1)
        view = dm.overlay()
        before = view.nvals
        dm.union_splice(np.array([5]), np.array([6]))
        assert view.nvals == before  # pre-splice snapshot unchanged
        assert dm.overlay().nvals == 2
