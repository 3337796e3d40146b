"""CSV bulk import: type inference, external-id resolution, atomic
commit through the BulkWriter, and malformed-file errors."""

import pytest

from repro import GraphDB
from repro.datasets.csv_import import import_csv, infer_value
from repro.errors import GraphError
from repro.graph.config import GraphConfig


@pytest.fixture
def db():
    return GraphDB("csv", GraphConfig(node_capacity=16))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestInference:
    def test_types(self):
        assert infer_value("3") == 3
        assert infer_value("3.5") == 3.5
        assert infer_value("true") is True
        assert infer_value("False") is False
        assert infer_value("null") is None
        assert infer_value("") is None
        assert infer_value("bob") == "bob"
        assert infer_value("3x") == "3x"


class TestImport:
    def test_nodes_and_edges(self, db, tmp_path):
        people = write(tmp_path, "people.csv", "id,name,age\np1,ann,30\np2,bo,\n")
        cities = write(tmp_path, "cities.csv", "id,name\nc1,berlin\n")
        knows = write(tmp_path, "knows.csv", "src,dst,since\np1,p2,2019\n")
        lives = write(tmp_path, "lives.csv", "src,dst\np1,c1\np2,c1\n")
        report = import_csv(
            db,
            nodes={"Person": people, "City": cities},
            edges={"KNOWS": knows, "LIVES_IN": lives},
        )
        assert report.nodes_created == 3
        assert report.relationships_created == 3
        r = db.query("MATCH (a:Person)-[e:KNOWS]->(b:Person) RETURN a.name, b.name, e.since")
        assert r.rows == [("ann", "bo", 2019)]
        assert db.query("MATCH (p:Person)-[:LIVES_IN]->(c:City) RETURN count(p)").scalar() == 2
        # the external id is kept as a queryable property
        assert db.query("MATCH (n {id: 'p2'}) RETURN n.age").rows == [(None,)]

    def test_accepts_bare_graph(self, db, tmp_path):
        people = write(tmp_path, "p.csv", "id,name\na,x\n")
        report = import_csv(db.graph, nodes={"P": people})
        assert report.nodes_created == 1

    def test_duplicate_external_id(self, db, tmp_path):
        bad = write(tmp_path, "p.csv", "id\nx\nx\n")
        with pytest.raises(GraphError, match="duplicate external id"):
            import_csv(db, nodes={"P": bad})
        assert db.graph.node_count == 0

    def test_unknown_edge_endpoint(self, db, tmp_path):
        people = write(tmp_path, "p.csv", "id\na\n")
        edges = write(tmp_path, "e.csv", "src,dst\na,zz\n")
        with pytest.raises(GraphError, match="unknown node id"):
            import_csv(db, nodes={"P": people}, edges={"R": edges})
        assert db.graph.node_count == 0  # staging failed before commit

    def test_missing_id_column(self, db, tmp_path):
        bad = write(tmp_path, "p.csv", "name\nx\n")
        with pytest.raises(GraphError, match="lacks the 'id' column"):
            import_csv(db, nodes={"P": bad})

    def test_ragged_row(self, db, tmp_path):
        bad = write(tmp_path, "p.csv", "id,name\na\n")
        with pytest.raises(GraphError, match="expected 2 fields"):
            import_csv(db, nodes={"P": bad})

    def test_blank_lines_skipped_but_linenos_physical(self, db, tmp_path):
        f = write(tmp_path, "p.csv", "id,name\n\na,ann\n\n\nb,bo\n")
        import_csv(db, nodes={"P": f})
        assert db.graph.node_count == 2
        dup = write(tmp_path, "q.csv", "id\nx\n\nx\n")
        with pytest.raises(GraphError, match="q.csv:4: duplicate"):
            import_csv(db, nodes={"Q": dup})

    def test_empty_file(self, db, tmp_path):
        bad = write(tmp_path, "p.csv", "")
        with pytest.raises(GraphError, match="empty"):
            import_csv(db, nodes={"P": bad})

    def test_custom_columns_and_delimiter(self, db, tmp_path):
        people = write(tmp_path, "p.csv", "key|name\na|ann\nb|bo\n")
        edges = write(tmp_path, "e.csv", "from|to\na|b\n")
        import_csv(
            db,
            nodes={"P": people},
            edges={"R": edges},
            id_column="key",
            src_column="from",
            dst_column="to",
            delimiter="|",
        )
        assert db.query("MATCH (:P {name:'ann'})-[:R]->(b:P) RETURN b.name").scalar() == "bo"

    def test_index_backfilled_from_csv(self, db, tmp_path):
        db.query("CREATE INDEX ON :P(name)")
        people = write(tmp_path, "p.csv", "id,name\na,ann\nb,bo\n")
        import_csv(db, nodes={"P": people})
        assert "IndexRangeScan" in db.explain("MATCH (n:P {name: 'bo'}) RETURN n")
        assert db.query("MATCH (n:P {name: 'bo'}) RETURN n.id").scalar() == "b"
