"""End-to-end server tests over real TCP sockets."""

import logging
import threading
import time

import pytest

from repro.errors import ResponseError
from repro.graph.config import GraphConfig
from repro.rediskv.client import RedisClient
from repro.rediskv.graph_module import parse_cypher_params
from repro.rediskv.server import RedisLikeServer


@pytest.fixture(scope="module")
def server():
    srv = RedisLikeServer(port=0, config=GraphConfig(thread_count=3, node_capacity=16)).start()
    time.sleep(0.05)
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = RedisClient(port=server.port)
    c.execute("FLUSHALL")
    yield c
    c.close()


class TestPlainCommands:
    def test_ping(self, client):
        assert client.ping() == "PONG"

    def test_ping_with_message(self, client):
        assert client.execute("PING", "yo") == "yo"

    def test_echo(self, client):
        assert client.execute("ECHO", "hello") == "hello"

    def test_set_get_del(self, client):
        assert client.set("k", "v") == "OK"
        assert client.get("k") == "v"
        assert client.delete("k") == 1
        assert client.get("k") is None

    def test_exists_type_keys(self, client):
        client.set("a", "1")
        assert client.execute("EXISTS", "a", "zz") == 1
        assert client.execute("TYPE", "a") == "string"
        assert "a" in client.keys("*")

    def test_unknown_command(self, client):
        with pytest.raises(ResponseError, match="unknown command"):
            client.execute("NOPE")

    def test_wrong_arity(self, client):
        with pytest.raises(ResponseError, match="wrong number of arguments"):
            client.execute("SET", "only-key")

    def test_info(self, client):
        info = client.info()
        assert info["graph_thread_count"] == "3"


class TestGraphCommands:
    def test_query_roundtrip(self, client):
        client.graph_query("g", "CREATE (:P {name:'Ann', age: 30})")
        r = client.graph_query("g", "MATCH (n:P) RETURN n.name, n.age")
        assert r.columns == ["n.name", "n.age"]
        assert r.rows == [("Ann", 30)]

    def test_node_encoding(self, client):
        client.graph_query("g", "CREATE (:P {x: 1})")
        r = client.graph_query("g", "MATCH (n:P) RETURN n")
        kind, node_id, labels, props = r.rows[0][0]
        assert kind == "node" and labels == ["P"] and props == [["x", 1]]

    def test_relationship_encoding(self, client):
        client.graph_query("g", "CREATE (:A)-[:R {w: 2}]->(:B)")
        r = client.graph_query("g", "MATCH ()-[e:R]->() RETURN e")
        kind, eid, reltype, src, dst, props = r.rows[0][0]
        assert kind == "relationship" and reltype == "R" and props == [["w", 2]]

    def test_statistics_returned(self, client):
        r = client.graph_query("g", "CREATE (:P)")
        assert r.stat("Nodes created") == "1"
        assert r.stat("Query internal execution time") is not None

    def test_parameters_via_cypher_prefix(self, client):
        client.graph_query("g", "CREATE (:P {name:'Zed'})")
        r = client.graph_query("g", "MATCH (n:P {name: $who}) RETURN n.name", {"who": "Zed"})
        assert r.scalar() == "Zed"

    def test_ro_query_rejects_writes(self, client):
        client.graph_query("g", "CREATE (:P)")
        with pytest.raises(ResponseError, match="read-only"):
            client.graph_ro_query("g", "CREATE (:Q)")

    def test_explain_and_profile(self, client):
        client.graph_query("g", "CREATE (:P)")
        plan = client.graph_explain("g", "MATCH (n:P) RETURN n")
        assert any("NodeByLabelScan" in line for line in plan)
        prof = client.graph_profile("g", "MATCH (n:P) RETURN n")
        assert any("Records produced" in line for line in prof)

    def test_graph_list_and_delete(self, client):
        client.graph_query("g1", "CREATE (:X)")
        client.graph_query("g2", "CREATE (:X)")
        assert client.graph_list() == ["g1", "g2"]
        assert client.graph_delete("g1") == "OK"
        assert client.graph_list() == ["g2"]

    def test_delete_missing_graph(self, client):
        with pytest.raises(ResponseError, match="does not exist"):
            client.graph_delete("missing")

    def test_syntax_error_travels_as_error_reply(self, client):
        with pytest.raises(ResponseError, match="expected"):
            client.graph_query("g", "MATCH (n RETURN n")

    def test_graph_key_isolation(self, client):
        client.graph_query("a", "CREATE (:X)")
        client.graph_query("b", "CREATE (:X), (:X)")
        assert client.graph_query("a", "MATCH (n) RETURN count(n)").scalar() == 1
        assert client.graph_query("b", "MATCH (n) RETURN count(n)").scalar() == 2

    def test_wrongtype_against_string_key(self, client):
        client.set("plain", "v")
        with pytest.raises(ResponseError, match="wrong kind"):
            client.graph_query("plain", "RETURN 1")

    def test_cached_execution_statistic(self, client):
        client.graph_query("g", "CREATE (:P {v: 1})")
        first = client.graph_query("g", "MATCH (n:P) RETURN n.v")
        again = client.graph_query("g", "MATCH (n:P) RETURN n.v")
        assert first.stat("Cached execution") == "0"
        assert again.stat("Cached execution") == "1"

    def test_graph_config_roundtrip(self, client):
        name, value = client.graph_config_get("PLAN_CACHE_SIZE")
        assert name == "PLAN_CACHE_SIZE"
        assert int(value) >= 0
        assert client.graph_config_set("PLAN_CACHE_SIZE", 16) == "OK"
        assert client.graph_config_get("PLAN_CACHE_SIZE")[1] == 16
        pairs = client.graph_config_get("*")
        assert ["PLAN_CACHE_SIZE", 16] in pairs

    def test_graph_config_rejects_unknown(self, client):
        with pytest.raises(ResponseError):
            client.graph_config_get("NOPE")
        with pytest.raises(ResponseError, match="not settable"):
            client.graph_config_set("THREAD_COUNT", 5)


class TestConcurrency:
    def test_reply_order_preserved_with_slow_graph_query(self, client):
        """A slow GRAPH.QUERY must not let a later PING overtake its reply."""
        client.graph_query("g", "UNWIND range(1, 2000) AS x CREATE (:N {v: x})")
        # pipeline: slow query then PING on the same connection
        from repro.rediskv.resp import encode

        sock = client._sock
        sock.sendall(
            encode(["GRAPH.QUERY", "g", "MATCH (a:N) RETURN count(a)"])
            + encode(["PING"])
        )
        first = client._read_reply()
        second = client._read_reply()
        assert first[1][0][0] == 2000  # the query reply arrives first
        assert str(second) == "PONG"

    def test_parallel_clients(self, server):
        results = []
        errors = []

        def worker(i):
            try:
                c = RedisClient(port=server.port)
                c.graph_query("shared", f"CREATE (:W {{tid: {i}}})")
                results.append(c.graph_query("shared", "MATCH (n:W) RETURN count(n)").scalar())
                c.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        c = RedisClient(port=server.port)
        assert c.graph_query("shared", "MATCH (n:W) RETURN count(n)").scalar() == 6
        c.close()


class TestInternalErrorsAreLogged:
    """An exception that is not a ReproError still becomes an error reply,
    and its traceback goes to the server's log."""

    @staticmethod
    def _boom(*args):
        raise RuntimeError("boom")

    def _assert_logged(self, caplog, command):
        records = [r for r in caplog.records if r.name == "repro.rediskv.server"]
        assert len(records) == 1
        assert records[0].levelno == logging.ERROR
        assert command in records[0].getMessage()
        assert records[0].exc_info[0] is RuntimeError

    def test_graph_command(self, server, client, caplog, monkeypatch):
        caplog.set_level(logging.ERROR, logger="repro.rediskv.server")
        monkeypatch.setattr(server.module, "query", self._boom)
        with pytest.raises(ResponseError, match="boom"):
            client.graph_query("g", "RETURN 1")
        self._assert_logged(caplog, "GRAPH.QUERY")

    def test_plain_command(self, server, client, caplog, monkeypatch):
        caplog.set_level(logging.ERROR, logger="repro.rediskv.server")
        monkeypatch.setattr(server, "_plain_command", self._boom)
        with pytest.raises(ResponseError, match="boom"):
            client.execute("PING")
        self._assert_logged(caplog, "PING")


class TestCypherParamParsing:
    def test_no_prefix(self):
        q, p = parse_cypher_params("MATCH (n) RETURN n")
        assert q == "MATCH (n) RETURN n" and p == {}

    def test_prefix_types(self):
        q, p = parse_cypher_params("CYPHER a=1 b=2.5 c='x y' d=true e=null MATCH (n) RETURN n")
        assert p == {"a": 1, "b": 2.5, "c": "x y", "d": True, "e": None}
        assert q.strip() == "MATCH (n) RETURN n"

    def test_list_param(self):
        _, p = parse_cypher_params("CYPHER xs=[1, 2, 3] RETURN 1")
        assert p == {"xs": [1, 2, 3]}

    def test_escaped_string(self):
        _, p = parse_cypher_params(r"CYPHER s='it\'s' RETURN 1")
        assert p == {"s": "it's"}
