"""The HTTP/1.1 front of the evaluation server and the shard router.

Both speak JSON over loopback HTTP, and ``http.server`` would serve them,
but it imports ``http.client``, the ``email`` header parser and ``ssl``
(with OpenSSL) into every server process, and answers malformed requests
with HTML pages.  This front is ``socketserver`` plus the part of
HTTP/1.1 those clients use:

* one request line and at most :data:`MAX_HEADERS` header lines, each
  at most :data:`MAX_LINE` bytes; header names are case-insensitive
  through ``headers.get``;
* a body of exactly ``Content-Length`` bytes, at most :data:`MAX_BODY`;
  a larger length is refused before any body byte is read, and a
  ``Transfer-Encoding`` (chunked) body is refused;
* ``Expect: 100-continue`` is answered before the body is read;
* an HTTP/1.1 connection stays open unless the request says
  ``Connection: close``; HTTP/1.0 closes after one response; a
  connection idle for :attr:`Handler.timeout` seconds is dropped;
* every request the front cannot parse or route to a ``do_<METHOD>``
  gets a versioned JSON error envelope (``bad_request`` or
  ``method_not_allowed``), and the connection closes after it.
"""

from __future__ import annotations

import json
import socketserver
import time
from http import HTTPStatus

from repro.service import protocol

__all__ = [
    "MAX_BODY",
    "MAX_HEADERS",
    "MAX_LINE",
    "Handler",
    "Headers",
    "HTTPServer",
]

#: ``http.server``'s limits (it also counted the blank line ending the
#: headers as one of its 100).
MAX_LINE = 65536
MAX_HEADERS = 100

#: The largest request body the front reads, in bytes.  Reading is
#: sized by ``Content-Length``, so without a cap one header line could
#: make the server allocate gigabytes (or raise ``MemoryError``).  The
#: largest body the bundled clients send, a ``/db`` load, is ~19 KB.
MAX_BODY = 16 * 1024 * 1024

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def _http_date() -> str:
    """The current time as an RFC 9110 ``Date`` value (locale-free)."""
    now = time.gmtime()
    return (
        f"{_DAYS[now.tm_wday]}, {now.tm_mday:02d} {_MONTHS[now.tm_mon - 1]} "
        f"{now.tm_year} {now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT"
    )


def _reason(status: int) -> str:
    try:
        return HTTPStatus(status).phrase
    except ValueError:
        return ""


class HTTPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """One daemon thread per connection, as ``ThreadingHTTPServer`` runs.

    Unlike it, binding does no ``socket.getfqdn`` lookup: nothing here
    reads a server name.
    """

    allow_reuse_address = True
    daemon_threads = True
    #: The listen backlog.  ``socketserver``'s 5 overflows when more
    #: clients connect at once than the accept loop takes in; Linux then
    #: drops their SYNs, and each of those clients retries after ~1 s.
    request_queue_size = 128


class Headers(dict):
    """Request headers keyed by lower-cased name; ``get`` ignores case.

    A repeated header keeps its first value.
    """

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class Handler(socketserver.StreamRequestHandler):
    """One connection: read a request, call ``do_<METHOD>``, repeat.

    Subclasses define ``do_GET``/``do_POST``, read :attr:`path`,
    :attr:`headers` and :attr:`body`, answer with :meth:`send`, and count
    responses in :meth:`responded`.
    """

    #: Seconds a socket read may wait, so a client that goes quiet (or
    #: never finishes its request) cannot hold its thread or wedge
    #: shutdown.
    timeout = 30
    server_version = "bagcq/1"

    #: The request being handled, set by :meth:`_read_request`.
    command: str
    path: str
    headers: Headers
    body: bytes
    #: Whether the connection closes after the current response.
    close_connection: bool

    def handle(self) -> None:
        while True:
            try:
                if not self._read_request():
                    return
            except protocol.BadRequestError as error:
                self.reject(protocol.KIND_BAD_REQUEST, str(error))
                return
            except OSError:  # reset by the peer, or idle past `timeout`
                return
            method = getattr(self, f"do_{self.command}", None)
            if method is None:
                self.reject(
                    protocol.KIND_METHOD, f"unsupported method {self.command}"
                )
                return
            method()
            if self.close_connection:
                return

    def _read_request(self) -> bool:
        """Parse one request; False when the peer closed the connection.

        Raises :class:`~repro.service.protocol.BadRequestError` for a
        request that cannot be parsed.
        """
        self.close_connection = True
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        if len(line) > MAX_LINE:
            raise protocol.BadRequestError(
                f"request line longer than {MAX_LINE} bytes"
            )
        words = line.decode("iso-8859-1").split()
        if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise protocol.BadRequestError(
                f"malformed request line {line[:80]!r}"
            )
        self.command, self.path, version = words
        headers = Headers()
        for _ in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                raise protocol.BadRequestError(
                    f"header line longer than {MAX_LINE} bytes"
                )
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.decode("iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise protocol.BadRequestError(
                    f"malformed header line {line[:80]!r}"
                )
            headers.setdefault(name.lower(), value.strip())
        else:
            raise protocol.BadRequestError(
                f"more than {MAX_HEADERS} header lines"
            )
        self.headers = headers
        self.close_connection = (
            version == "HTTP/1.0"
            or headers.get("connection", "").lower() == "close"
        )
        if "transfer-encoding" in headers:
            raise protocol.BadRequestError(
                "Transfer-Encoding is not supported; send Content-Length"
            )
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise protocol.BadRequestError(
                "Content-Length must be a non-negative decimal integer, "
                f"got {length[:32]!r}"
            )
        # Count digits first: ``int`` refuses strings over 4300 digits.
        digits = length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY)) or int(digits) > MAX_BODY:
            raise protocol.BadRequestError(
                f"Content-Length {digits[:32]} exceeds the {MAX_BODY}-byte "
                "body limit"
            )
        size = int(digits)
        if (
            version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        self.body = self.rfile.read(size)
        return len(self.body) == size

    def send(
        self, status: int, body: bytes, headers: dict[str, str] | None = None
    ) -> None:
        """Write one JSON response: status line, headers and body at once."""
        lines = [
            f"HTTP/1.1 {status} {_reason(status)}",
            f"Server: {self.server_version}",
            f"Date: {_http_date()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if self.close_connection:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            self.wfile.write(head + body)
        except OSError:  # the client left; there is no one to answer
            self.close_connection = True
        self.responded()

    def reject(self, kind: str, message: str) -> None:
        """Answer with a versioned error envelope, then close."""
        self.close_connection = True
        envelope = protocol.error_envelope(kind, message)
        self.send(
            protocol.status_for_kind(kind), json.dumps(envelope).encode("utf-8")
        )

    def responded(self) -> None:
        """Called once per response sent; subclasses count them."""
