"""Request-scoped tracing: ids in, ids out, spans in the flight recorder.

The contract under test: the *client* mints ``X-Trace-Id`` /
``X-Request-Id``, the server adopts them (or mints replacements for
absent/malformed ones), every response — success, shed, deadline — goes
out stamped with the same pair in body and headers, retries reuse the
request id so server-side counters see one logical caller, and
``GET /traces`` serves a bounded ring of completed request traces whose
span trees show where the time went (admission → wait/coalesce →
queue_wait → evaluate).
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs.report import stable_json_dumps
from repro.obs.trace import FlightRecorder
from repro.relational import Schema, Structure
from repro.service import EvaluationServer, ServerConfig, ServiceClient
from repro.service import protocol
from repro.workloads import cycle_query
from tests.conftest import wait_for

SLOW_QUERY = cycle_query(6)


def _graph(n: int, seed: int) -> Structure:
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
    return Structure(
        Schema.from_arities({"E": 2}), {"E": edges}, domain=range(n)
    )


SLOW_GRAPH = _graph(13, 0)


def _dense_facts(n: int, seed: int) -> str:
    rng = random.Random(seed)
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)}
    return " ".join(f"E(n{a},n{b})" for a, b in sorted(edges))


SLOW_FACTS = _dense_facts(13, 0)


def _post_raw(
    base_url: str,
    endpoint: str,
    body: dict,
    headers: dict | None = None,
) -> tuple[int, dict, dict]:
    """``(status, response headers, parsed body)`` without client retries."""
    request = urllib.request.Request(
        f"{base_url}/{endpoint}",
        data=json.dumps(body).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as error:
        return (
            error.code,
            dict(error.headers),
            json.loads(error.read().decode("utf-8")),
        )


EVALUATE_BODY = {
    "kind": "cq",
    "query_text": "E(x,y)",
    "facts": "E(a,b) E(b,c)",
}


class TestProtocolIds:
    def test_mint_id_is_seedable_and_hex(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        first = protocol.mint_id(rng_a)
        assert first == protocol.mint_id(rng_b)
        assert len(first) == 16
        int(first, 16)  # parses as hex

    def test_unseeded_mint_ids_are_distinct(self):
        assert protocol.mint_id() != protocol.mint_id()

    @pytest.mark.parametrize(
        "value", [None, "", "   ", "a" * 65, "id with spaces", "id\nnewline", 42]
    )
    def test_clean_id_rejects_malformed(self, value):
        assert protocol.clean_id(value) is None

    def test_clean_id_accepts_and_strips(self):
        assert protocol.clean_id("  abc-DEF_1.2  ") == "abc-DEF_1.2"

    def test_stamp_ids_copies_success_payload(self):
        payload = {"count": 3}
        stamped = protocol.stamp_ids(payload, "t1", "r1")
        assert stamped == {"count": 3, "trace_id": "t1", "request_id": "r1"}
        assert "trace_id" not in payload  # coalesced waiters share payloads

    def test_stamp_ids_targets_error_envelopes(self):
        envelope = protocol.error_envelope("overloaded", "busy", 0.05)
        stamped = protocol.stamp_ids(envelope, "t1", "r1")
        assert stamped["error"]["trace_id"] == "t1"
        assert stamped["error"]["request_id"] == "r1"
        assert "trace_id" not in envelope["error"]


class TestFlightRecorder:
    def test_capacity_bound_and_eviction_accounting(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record({"index": index})
        assert len(recorder) == 3
        assert recorder.recorded == 10
        assert recorder.dropped == 7
        # Oldest-first, holding exactly the newest three.
        assert [entry["index"] for entry in recorder.snapshot()] == [7, 8, 9]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_concurrent_records_all_counted(self):
        recorder = FlightRecorder(capacity=16)

        def record(worker: int):
            for index in range(200):
                recorder.record({"worker": worker, "index": index})

        threads = [
            threading.Thread(target=record, args=(worker,))
            for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.recorded == 800
        assert len(recorder) == 16
        assert recorder.dropped == 784

    def test_held_text_renders_the_recorded_bytes(self):
        recorder = FlightRecorder(capacity=4)
        entry = {
            "duration_ms": 0.1 + 0.2,
            "retried": False,
            "spans": {
                "name": "request",
                "duration_ms": 1e-7,
                "attrs": {"items": ("a", 1), "path": Path("x"), "none": None},
                "children": [],
            },
        }
        recorder.record(entry)
        pending = {"spans": {"children": []}}
        recorder.record(pending, final=False)
        pending["spans"]["children"].append({"name": "evaluate"})
        assert [type(held) for held in recorder._entries] == [str, dict]
        assert stable_json_dumps(recorder.snapshot()) == stable_json_dumps(
            [entry, pending]
        )


@pytest.fixture()
def server():
    config = ServerConfig(workers=2, queue_depth=16, trace_buffer=64)
    with EvaluationServer(config) as instance:
        yield instance


class TestHeaderPropagation:
    def test_client_ids_echoed_in_body_and_headers(self, server):
        status, headers, body = _post_raw(
            server.url,
            "evaluate",
            EVALUATE_BODY,
            {"X-Trace-Id": "trace-abc", "X-Request-Id": "req-001"},
        )
        assert status == 200
        assert body["count"] == 2
        assert body["trace_id"] == "trace-abc"
        assert body["request_id"] == "req-001"
        assert headers["X-Trace-Id"] == "trace-abc"
        assert headers["X-Request-Id"] == "req-001"

    def test_missing_ids_are_server_minted(self, server):
        status, headers, body = _post_raw(server.url, "evaluate", EVALUATE_BODY)
        assert status == 200
        assert len(body["trace_id"]) == 16
        assert len(body["request_id"]) == 16
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_malformed_header_degrades_to_minted(self, server):
        _, _, body = _post_raw(
            server.url,
            "evaluate",
            EVALUATE_BODY,
            {"X-Trace-Id": "bad id with spaces", "X-Request-Id": "x" * 200},
        )
        assert body["trace_id"] != "bad id with spaces"
        assert len(body["trace_id"]) == 16
        assert len(body["request_id"]) == 16

    def test_bad_request_envelope_is_stamped(self, server):
        status, headers, body = _post_raw(
            server.url,
            "evaluate",
            {"kind": "cq"},  # no query: a library-classified failure
            {"X-Trace-Id": "trace-err", "X-Request-Id": "req-err"},
        )
        assert status != 200
        assert body["error"]["trace_id"] == "trace-err"
        assert body["error"]["request_id"] == "req-err"
        assert headers["X-Trace-Id"] == "trace-err"

    def test_repeated_request_id_counts_as_retry(self, server):
        for _ in range(3):
            _post_raw(
                server.url,
                "evaluate",
                EVALUATE_BODY,
                {"X-Request-Id": "same-logical-request"},
            )
        metrics = ServiceClient(server.url).metrics()["metrics"]
        assert metrics["service.requests"]["value"] == 3
        assert metrics["service.logical_requests"]["value"] == 1
        assert metrics["service.retried_requests"]["value"] == 2

    def test_client_reuses_request_id_across_retries(self):
        """A stub 429s twice; all three attempts carry one request id."""
        from http.server import BaseHTTPRequestHandler, HTTPServer

        seen: list[tuple[str, str, str]] = []

        class Stub(BaseHTTPRequestHandler):
            def do_POST(self):
                seen.append(
                    (
                        self.headers.get("X-Trace-Id"),
                        self.headers.get("X-Request-Id"),
                        self.headers.get("X-Request-Attempt"),
                    )
                )
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                if len(seen) <= 2:
                    body = json.dumps(
                        protocol.error_envelope(
                            "overloaded", "busy", retry_after=0.01
                        )
                    ).encode()
                    self.send_response(429)
                else:
                    body = json.dumps({"count": 41}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Stub)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = httpd.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}", retries=4, seed=0)
            assert client.evaluate("E(x,y)", "E(a,b)") == 41
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert len(seen) == 3
        trace_ids = {trace for trace, _, _ in seen}
        request_ids = {request for _, request, _ in seen}
        assert trace_ids == {client.trace_id}
        assert request_ids == {client.last_request_id}
        assert [attempt for _, _, attempt in seen] == ["0", "1", "2"]


class TestTracesEndpoint:
    def test_completed_request_has_full_span_tree(self, server):
        client = ServiceClient(server.url, seed=3)
        client.evaluate("E(x,y) & E(y,z)", "E(a,b) E(b,c)")
        entry = client.traces()["traces"][-1]
        assert entry["trace_id"] == client.trace_id
        assert entry["request_id"] == client.last_request_id
        assert entry["status"] == "completed"
        root = entry["spans"]
        assert root["name"] == "request"
        names = [child["name"] for child in root["children"]]
        assert names == ["admission", "wait", "queue_wait", "evaluate"]
        evaluate = root["children"][-1]
        assert evaluate["attrs"]["outcome"] == "ok"
        assert evaluate["duration_ms"] is not None

    def test_coalesced_request_links_to_leader(self, gate):
        # The leader is held at a gate until both duplicates have joined
        # its flight, so which requests coalesce is determined.
        held = gate("evaluate")
        config = ServerConfig(workers=1, queue_depth=8, trace_buffer=32)
        with EvaluationServer(config) as server:

            def fire():
                client = ServiceClient(server.url, retries=0)
                client.evaluate(
                    SLOW_QUERY, SLOW_GRAPH, engine="backtracking", cache=False
                )

            threads = [threading.Thread(target=fire) for _ in range(3)]
            threads[0].start()
            assert held.entered.wait(timeout=10)
            for thread in threads[1:]:
                thread.start()
            wait_for(
                lambda: server.registry.counter("service.coalesced").value == 2
            )
            held.opened.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            traces = ServiceClient(server.url).traces()["traces"]
        coalesced = [
            entry for entry in traces if entry["status"] == "coalesced"
        ]
        leaders = [
            entry for entry in traces if entry["status"] == "completed"
        ]
        assert coalesced, traces
        assert leaders, traces
        leader_ids = {entry["request_id"] for entry in leaders}
        for entry in coalesced:
            [coalesce_span] = [
                child
                for child in entry["spans"]["children"]
                if child["name"] == "coalesce"
            ]
            assert coalesce_span["attrs"]["leader_request_id"] in leader_ids

    def test_shed_request_records_shed_span(self, gate):
        # The one worker is held at a gate and the one-deep queue filled
        # before the rest arrive, so exactly which requests shed is
        # determined.
        held = gate("evaluate")
        config = ServerConfig(
            workers=1, queue_depth=1, coalesce=False, trace_buffer=32
        )
        with EvaluationServer(config) as server:
            statuses: list[int] = []
            lock = threading.Lock()

            def fire(index: int):
                status, _, body = _post_raw(
                    server.url,
                    "evaluate",
                    {
                        "kind": "cq",
                        "query_text": str(SLOW_QUERY),
                        "facts": SLOW_FACTS,
                        "engine": "backtracking",
                        "cache": False,
                    },
                    {"X-Request-Id": f"shed-test-{index}"},
                )
                with lock:
                    statuses.append(status)
                if status == 429:
                    assert body["error"]["request_id"] == f"shed-test-{index}"

            threads = [
                threading.Thread(target=fire, args=(index,))
                for index in range(6)
            ]
            threads[0].start()
            assert held.entered.wait(timeout=10)
            threads[1].start()
            wait_for(lambda: server.health()["queued"] == 1)
            for thread in threads[2:]:
                thread.start()
            wait_for(lambda: len(statuses) == 4)
            held.opened.set()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            traces = ServiceClient(server.url).traces()["traces"]
        assert 429 in statuses, statuses
        shed_entries = [
            entry for entry in traces if entry["status"] == "overloaded"
        ]
        assert shed_entries
        for entry in shed_entries:
            names = [child["name"] for child in entry["spans"]["children"]]
            assert "shed" in names
            [admission] = [
                child
                for child in entry["spans"]["children"]
                if child["name"] == "admission"
            ]
            assert admission["attrs"]["outcome"] == "shed"

    def test_deadline_exceeded_trace_and_stamped_envelope(self, server):
        status, _, body = _post_raw(
            server.url,
            "evaluate",
            {
                "kind": "cq",
                "query_text": str(cycle_query(7)),
                "facts": SLOW_FACTS,
                "engine": "backtracking",
                "cache": False,
                "deadline_ms": 1,
            },
            {"X-Trace-Id": "deadline-trace", "X-Request-Id": "deadline-req"},
        )
        assert status == 504
        assert body["error"]["kind"] == "deadline_exceeded"
        assert body["error"]["trace_id"] == "deadline-trace"
        assert body["error"]["request_id"] == "deadline-req"
        traces = ServiceClient(server.url).traces()["traces"]
        [entry] = [
            item
            for item in traces
            if item["request_id"] == "deadline-req"
        ]
        assert entry["status"] == "deadline_exceeded"
        [wait] = [
            child
            for child in entry["spans"]["children"]
            if child["name"] == "wait"
        ]
        assert wait["attrs"]["completed"] is False

    def test_trace_buffer_bounded_under_concurrent_load(self):
        config = ServerConfig(workers=2, queue_depth=16, trace_buffer=8)
        with EvaluationServer(config) as server:
            def fire(worker: int):
                client = ServiceClient(server.url, seed=worker)
                for _ in range(10):
                    client.evaluate("E(x,y)", "E(a,b) E(b,c)")

            threads = [
                threading.Thread(target=fire, args=(worker,))
                for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            document = ServiceClient(server.url).traces()
            # A finished trace is held as its compact JSON text.
            assert [type(held) for held in server.recorder._entries] == [str] * 8
        assert document["capacity"] == 8
        assert document["recorded"] == 40
        assert document["dropped"] == 32
        assert len(document["traces"]) == 8
        # Stable JSON contract: every held entry is a complete record.
        for entry in document["traces"]:
            assert set(entry) >= {
                "trace_id",
                "request_id",
                "endpoint",
                "status",
                "retried",
                "spans",
            }

    def test_health_reports_recorder_stats(self, server):
        ServiceClient(server.url).evaluate("E(x,y)", "E(a,b)")
        health = ServiceClient(server.url).healthz()
        assert health["traces"]["capacity"] == 64
        assert health["traces"]["recorded"] >= 1

    def test_request_ms_histogram_grows_per_request(self, server):
        client = ServiceClient(server.url, seed=1)
        before = client.metrics()["metrics"]["service.request_ms.evaluate"]
        client.evaluate("E(x,y)", "E(a,b)")
        client.evaluate("E(x,y)", "E(a,b)")
        after = client.metrics()["metrics"]["service.request_ms.evaluate"]
        assert after["type"] == "histogram"
        assert after["count"] == before["count"] + 2
        assert sum(after["buckets"].values()) == after["count"]
