"""The HTTP/1.1 front shared by the evaluation server and the shard router.

Raw sockets drive what ``urllib`` cannot send: malformed request lines,
unsupported methods, over-long lines, too many headers, bodies the front
cannot size or will not read (over ``MAX_BODY``), and JSON nested past
the recursion limit.  Each gets a versioned JSON error envelope.  A
burst of connections fits the listen backlog.  ``http.client``
and raw sockets also pin the connection rules: HTTP/1.1 keep-alive,
HTTP/1.0 close, ``Expect: 100-continue`` and the idle timeout.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.service import EvaluationServer, ServerConfig, protocol
from repro.service import server as server_module
from repro.service.wire import MAX_BODY, MAX_HEADERS, MAX_LINE
from repro.shard.router import RouterConfig, ShardRouter

BODY = json.dumps({"query_text": "E(x, y)", "facts": "E(a,b) E(b,c)"}).encode()


@pytest.fixture(scope="module")
def server():
    with EvaluationServer(ServerConfig(workers=1, queue_depth=8)) as srv:
        yield srv


def _read_until_closed(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _exchange(address, payload: bytes) -> bytes:
    """Send raw bytes; read until the server closes the connection."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        return _read_until_closed(sock)


def _parse(reply: bytes) -> tuple[int, dict[str, str], dict]:
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body)
    return int(status_line.split()[1]), headers, json.loads(body)


def _assert_envelope(reply: bytes, status: int, kind: str) -> None:
    code, headers, payload = _parse(reply)
    assert code == status
    assert headers["connection"] == "close"
    assert payload["protocol_version"] == protocol.PROTOCOL_VERSION
    assert payload["error"]["kind"] == kind


REJECTED = [
    ("garbage request line", b"garbage\r\n\r\n", 400, "bad_request"),
    ("no HTTP version", b"GET /healthz\r\n\r\n", 400, "bad_request"),
    (
        "unsupported method",
        b"PUT /evaluate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        405,
        "method_not_allowed",
    ),
    # Exactly one byte over the limit, so the front reads all of it.
    ("over-long request line", b"GET /" + b"a" * (MAX_LINE - 4), 400, "bad_request"),
    (
        "over-long header line",
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (MAX_LINE - 7),
        400,
        "bad_request",
    ),
    (
        "too many headers",
        b"GET /healthz HTTP/1.1\r\n"
        + b"X-Filler: 1\r\n" * (MAX_HEADERS + 1)
        + b"\r\n",
        400,
        "bad_request",
    ),
    (
        "header line without a colon",
        b"GET /healthz HTTP/1.1\r\nnot a header\r\n\r\n",
        400,
        "bad_request",
    ),
    (
        "chunked body",
        b"POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        400,
        "bad_request",
    ),
]


@pytest.mark.parametrize(
    "payload, status, kind",
    [case[1:] for case in REJECTED],
    ids=[case[0] for case in REJECTED],
)
def test_http_level_rejections_are_versioned_envelopes(server, payload, status, kind):
    _assert_envelope(_exchange(server.address, payload), status, kind)


def test_exactly_max_headers_is_served(server):
    reply = _exchange(
        server.address,
        b"GET /healthz HTTP/1.1\r\n"
        + b"X-Filler: 1\r\n" * (MAX_HEADERS - 1)
        + b"Connection: close\r\n\r\n",
    )
    assert _parse(reply)[0] == 200


@pytest.fixture(params=["server", "router"])
def front(request, server):
    if request.param == "server":
        yield server
        return
    with ShardRouter(RouterConfig(shards=1, workers_per_shard=1)) as router:
        yield router


@pytest.mark.parametrize(
    "length",
    [
        b"-1",
        b"abc",
        b"1.5",
        b"+2",
        b"",
        b"\xb2",
        # Over the body cap: refused before a byte is read or allocated.
        str(10**12).encode(),
        str(MAX_BODY + 1).encode(),
        b"9" * 5000,  # more digits than ``int`` converts
    ],
)
def test_unsizable_body_is_a_400_envelope_not_a_held_thread(front, length):
    started = time.monotonic()
    reply = _exchange(
        front.address,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n{}",
    )
    _assert_envelope(reply, 400, "bad_request")
    assert time.monotonic() - started < 5


def test_over_cap_body_gets_no_100_continue(front):
    reply = _exchange(
        front.address,
        b"POST /evaluate HTTP/1.1\r\nExpect: 100-continue\r\n"
        b"Content-Length: %d\r\n\r\n" % (MAX_BODY + 1),
    )
    assert reply.startswith(b"HTTP/1.1 400 ")
    _assert_envelope(reply, 400, "bad_request")


def test_leading_zeros_do_not_count_against_the_cap(server):
    padded = b"0" * 5000 + str(len(BODY)).encode()
    reply = _exchange(
        server.address,
        b"POST /evaluate HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: " + padded + b"\r\n\r\n" + BODY,
    )
    status, _, payload = _parse(reply)
    assert status == 200
    assert payload["count"] == 2


def test_http11_connection_serves_several_requests(server):
    connection = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        first_socket = connection.sock
        assert first_socket is not None, "the server closed a keep-alive connection"
        connection.request(
            "POST", "/evaluate", BODY, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["count"] == 2
        assert connection.sock is first_socket
    finally:
        connection.close()


def test_http10_connection_closes_after_one_response(server):
    reply = _exchange(server.address, b"GET /healthz HTTP/1.0\r\n\r\n")
    status, headers, payload = _parse(reply)
    assert status == 200
    assert headers["connection"] == "close"
    assert payload["status"] == "ok"


def test_expect_100_continue_is_answered_before_the_body(server):
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(
            b"POST /evaluate HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Expect: 100-continue\r\n"
            b"Connection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(BODY)
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(BODY)
        status, _, payload = _parse(_read_until_closed(sock))
    assert status == 200
    assert payload["count"] == 2


def test_idle_connection_is_dropped_after_the_timeout(server, monkeypatch):
    monkeypatch.setattr(server_module._RequestHandler, "timeout", 0.2)
    with socket.create_connection(server.address, timeout=10) as sock:
        started = time.monotonic()
        assert sock.recv(1) == b""
        assert time.monotonic() - started < 5


def test_deeply_nested_json_is_a_400_envelope(front):
    # Nesting past the recursion limit makes ``json.loads`` raise
    # RecursionError, not ValueError; the router then routes the body
    # opaquely and the worker answers it.
    body = b"[" * 100_000
    reply = _exchange(
        front.address,
        b"POST /evaluate HTTP/1.1\r\nConnection: close\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body) + body,
    )
    status, _, payload = _parse(reply)
    assert status == 400
    assert payload["protocol_version"] == protocol.PROTOCOL_VERSION
    assert payload["error"]["kind"] == "bad_request"
    reply = _exchange(front.address, b"GET /healthz HTTP/1.0\r\n\r\n")
    assert _parse(reply)[0] == 200


def test_a_burst_of_connections_fits_the_listen_backlog(server):
    # A SYN the accept queue drops is retried after ~1 s, so every
    # answer within 1 s means none of the 64 was dropped.
    burst = 64
    barrier = threading.Barrier(burst)
    elapsed: list[float] = []

    def connect() -> None:
        barrier.wait()
        started = time.monotonic()
        reply = _exchange(server.address, b"GET /healthz HTTP/1.0\r\n\r\n")
        assert _parse(reply)[0] == 200
        elapsed.append(time.monotonic() - started)

    threads = [threading.Thread(target=connect) for _ in range(burst)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(elapsed) == burst
    assert max(elapsed) < 1.0
