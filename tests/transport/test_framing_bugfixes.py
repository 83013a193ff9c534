"""Regression tests for the HTTP/1.1 framing bugfixes.

Each test here fails on the pre-fix transport:

* duplicate ``Content-Length`` desync — the server framer used the *last*
  copy while the parser honoured the *first* (the request-smuggling
  shape); both layers must now reject with 400;
* ``HEAD`` answered with a full body (RFC 7230 §3.3 violation);
* the client blindly re-sent non-idempotent POSTs after a mid-exchange
  failure (double-apply hazard);
* the socket framer allowed 1 MiB of headers while the message parser
  capped at 64 KiB, and 431 had no status phrase;
* 304/204/1xx responses were framed like any other — ``to_bytes`` put
  body bytes after a 304 and the client read ``Content-Length`` bytes of
  phantom body (RFC 7230 §3.3.3: those statuses terminate at the header
  section), hanging keep-alive connections or swallowing the next
  response.
"""

import socket
import threading

import pytest

from repro.transport import HttpClient, HttpResponse, HttpServer
from repro.transport.http11 import (
    MAX_HEADER_BYTES,
    STATUS_PHRASES,
    HttpError,
    HttpRequest,
    bodyless_status,
    content_length_of,
    parse_request,
    parse_response,
    read_request,
)
from repro.transport.client import IDEMPOTENT_METHODS


def echo_handler(request):
    return HttpResponse.text_response(f"{request.method} {request.path}")


@pytest.fixture
def server():
    with HttpServer(echo_handler) as srv:
        yield srv


def raw_exchange(server, payload: bytes) -> bytes:
    """One raw socket round-trip; returns everything until EOF/timeout."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(payload)
        sock.settimeout(5)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
        return b"".join(chunks)


class TestDuplicateContentLength:
    """Both framing layers must refuse the smuggling shape outright."""

    def test_parser_rejects_agreeing_duplicates(self):
        raw = (
            b"POST /x HTTP/1.1\r\n"
            b"Content-Length: 3\r\n"
            b"Content-Length: 3\r\n"
            b"\r\nabc"
        )
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400
        assert "Content-Length" in str(excinfo.value)

    def test_parser_rejects_mismatched_duplicates(self):
        raw = (
            b"POST /x HTTP/1.1\r\n"
            b"Content-Length: 3\r\n"
            b"Content-Length: 8\r\n"
            b"\r\nabcdefgh"
        )
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400

    def test_content_length_of_single_value_ok(self):
        request = HttpRequest("POST", "/x", {"Content-Length": "3"}, b"abc")
        assert content_length_of(request.headers) == 3

    def test_reader_refuses_with_400(self):
        """The socket reader applies the same rejection rule."""
        left, right = socket.socketpair()
        try:
            left.sendall(
                b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 8"
                b"\r\n\r\nabcdefgh"
            )
            right.settimeout(5)
            with pytest.raises(HttpError) as excinfo:
                read_request(right)
            assert excinfo.value.status == 400
        finally:
            left.close()
            right.close()

    def test_server_answers_400_not_desync(self, server):
        """Pre-fix: framer read CL=8 (last), parser read CL=3 (first) —
        5 stray bytes poisoned the next keep-alive exchange.  Now the
        message is refused before any dispatch."""
        blob = raw_exchange(
            server,
            b"POST /x HTTP/1.1\r\n"
            b"Content-Length: 3\r\n"
            b"Content-Length: 8\r\n"
            b"\r\nabcdefgh",
        )
        assert blob.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in blob
        # the refusing response closes the connection: no smuggled bytes
        # can be reinterpreted as a second request
        assert b"Connection: close" in blob


class TestHeadResponses:
    """HEAD gets status + headers, never the body (RFC 7230 §3.3)."""

    def test_head_strips_body_keeps_content_length(self, server):
        blob = raw_exchange(
            server,
            b"HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        head, _, body = blob.partition(b"\r\n\r\n")
        assert blob.startswith(b"HTTP/1.1 200 ")
        assert body == b""  # pre-fix: b"HEAD /ping" arrived here
        # Content-Length still describes the body a GET would have carried
        expected = str(len(b"HEAD /ping")).encode()
        assert b"Content-Length: " + expected in head

    def test_client_head_helper(self, server):
        client = HttpClient(server.host, server.port)
        try:
            response = client.head("/ping")
            assert response.status == 200
            assert response.body == b""
            assert response.headers.get("Content-Length") == str(len(b"HEAD /ping"))
        finally:
            client.close()

    def test_keep_alive_survives_head(self, server):
        """A GET after a HEAD on the same connection must not be framed
        against the HEAD's phantom body."""
        client = HttpClient(server.host, server.port, pool_size=1)
        try:
            assert client.head("/one").status == 200
            follow_up = client.get("/two")
            assert follow_up.status == 200
            assert follow_up.body == b"GET /two"
            assert client.created_connections == 1  # same socket both times
        finally:
            client.close()


class _FakeServer:
    """Raw scripted server: one accept thread, one thread per connection.

    Subclasses set their script state, then call ``super().__init__()``
    (which starts accepting) and implement ``_handle``.
    """

    def __init__(self) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(sock,), daemon=True).start()

    def _handle(self, sock: socket.socket) -> None:
        raise NotImplementedError

    def close(self) -> None:
        # closing alone does not wake a thread blocked in accept(2)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=5)


class _FlakyServer(_FakeServer):
    """Fails the first N exchanges by closing the connection after
    reading the request, then serves normally.  Counts every request it
    reads — the double-apply detector."""

    def __init__(self, fail_first: int = 1) -> None:
        self.fail_first = fail_first
        self.requests_seen = 0
        self._lock = threading.Lock()
        super().__init__()

    def _handle(self, sock: socket.socket) -> None:
        sock.settimeout(5)
        buffer = b""
        try:
            while True:
                request, buffer = read_request(sock, buffer)
                if request is None:
                    return
                with self._lock:
                    self.requests_seen += 1
                    seen = self.requests_seen
                if seen <= self.fail_first:
                    return  # close without answering: mid-exchange failure
                sock.sendall(
                    HttpResponse.text_response(f"attempt {seen}").to_bytes()
                )
        except (HttpError, OSError):
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass


class TestIdempotentOnlyRetry:
    def test_method_classification(self):
        assert "GET" in IDEMPOTENT_METHODS
        assert "PUT" in IDEMPOTENT_METHODS
        assert "DELETE" in IDEMPOTENT_METHODS
        assert "POST" not in IDEMPOTENT_METHODS
        assert "PATCH" not in IDEMPOTENT_METHODS

    def test_get_retried_once_on_fresh_connection(self):
        flaky = _FlakyServer(fail_first=1)
        try:
            client = HttpClient(flaky.host, flaky.port, timeout=5)
            response = client.get("/idempotent")
            assert response.status == 200
            assert response.body == b"attempt 2"
            assert flaky.requests_seen == 2  # one failure + one replay
            client.close()
        finally:
            flaky.close()

    def test_post_is_never_auto_retried(self):
        """Pre-fix the transport replayed the POST (requests_seen == 2,
        the double-apply).  Now the failure surfaces to the caller and
        the server saw the side effect exactly once."""
        flaky = _FlakyServer(fail_first=1)
        try:
            client = HttpClient(flaky.host, flaky.port, timeout=5)
            with pytest.raises(OSError):
                client.post("/charge-card", b"amount=100")
            assert flaky.requests_seen == 1
            client.close()
        finally:
            flaky.close()

    def test_get_gives_up_after_one_replay(self):
        flaky = _FlakyServer(fail_first=5)
        try:
            client = HttpClient(flaky.host, flaky.port, timeout=5)
            with pytest.raises(OSError):
                client.get("/idempotent")
            assert flaky.requests_seen == 2  # bounded: never a retry storm
            client.close()
        finally:
            flaky.close()


class _ChunkedServer(_FakeServer):
    """Answers every request with a ``Transfer-Encoding: chunked``
    response (which the client refuses to frame) and records each
    request path it read, on any connection."""

    RESPONSE = (
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n"
    )

    def __init__(self) -> None:
        self.paths: list[str] = []
        super().__init__()

    def _handle(self, sock: socket.socket) -> None:
        sock.settimeout(5)
        buffer = b""
        try:
            while True:
                request, buffer = read_request(sock, buffer)
                if request is None:
                    return
                self.paths.append(request.path)
                sock.sendall(self.RESPONSE)
        except (HttpError, OSError):
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass


class TestProtocolErrorsAreNotReplayed:
    def test_malformed_response_to_a_get_is_sent_once(self):
        """A framing error from a live peer is deterministic: replaying
        the GET would only send it twice.  Only socket failures earn the
        idempotent replay."""
        server = _ChunkedServer()
        try:
            client = HttpClient(server.host, server.port, timeout=5)
            with pytest.raises(HttpError):
                client.get("/report")
            assert server.paths == ["/report"]
            # the connection that carried the bad answer is not reused
            assert client.pool_stats()["idle"] == 0
            client.close()
        finally:
            server.close()


class _ScriptedServer(_FakeServer):
    """Raw server answering each parsed request with the next canned blob.

    Lets a test put *wrong* bytes on the wire (a 304 carrying
    ``Content-Length: 999`` and no body) to prove the client frames by
    status, not by the lying header.
    """

    def __init__(self, scripts: list[bytes]) -> None:
        self.scripts = list(scripts)
        super().__init__()

    def _handle(self, sock: socket.socket) -> None:
        sock.settimeout(5)
        buffer = b""
        try:
            while self.scripts:
                request, buffer = read_request(sock, buffer)
                if request is None:
                    return
                sock.sendall(self.scripts.pop(0))
        except (HttpError, OSError):
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass


class TestBodylessStatuses:
    """304/204/1xx terminate at the header section (RFC 7230 §3.3.3)."""

    def test_predicate(self):
        assert bodyless_status(304)
        assert bodyless_status(204)
        assert bodyless_status(100) and bodyless_status(101)
        assert not bodyless_status(200)
        assert not bodyless_status(404)

    def test_to_bytes_304_emits_no_body_bytes(self):
        """Pre-fix ``to_bytes`` framed ``Content-Length: 5`` + the body."""
        wire = HttpResponse(304, body=b"stale").to_bytes()
        head, _, after = wire.partition(b"\r\n\r\n")
        assert after == b""
        assert b"stale" not in wire
        assert b"Content-Length" not in head  # none was explicitly set

    def test_to_bytes_304_keeps_explicit_content_length(self):
        """A 304 MAY state the would-be representation length — keep the
        header the handler set, but still never frame bytes after it."""
        response = HttpResponse(304)
        response.headers.set("Content-Length", "1234")
        wire = response.to_bytes()
        head, _, after = wire.partition(b"\r\n\r\n")
        assert b"Content-Length: 1234" in head
        assert after == b""

    def test_to_bytes_204_strips_content_length(self):
        """204 MUST NOT carry Content-Length (RFC 7230 §3.3.2)."""
        response = HttpResponse(204, body=b"accidental")
        response.headers.set("Content-Length", "10")
        wire = response.to_bytes()
        assert b"Content-Length" not in wire
        assert b"accidental" not in wire

    def test_parse_response_ignores_lying_304_content_length(self):
        response = parse_response(
            b"HTTP/1.1 304 Not Modified\r\nContent-Length: 999\r\nETag: \"x\"\r\n\r\n"
        )
        assert response.status == 304
        assert response.body == b""

    def test_parse_response_1xx_is_bodyless(self):
        response = parse_response(b"HTTP/1.1 100 Continue\r\n\r\n")
        assert response.status == 100
        assert response.body == b""

    def test_server_304_keeps_keepalive_in_sync(self):
        """Pre-fix: a handler answering 304 with a (stale) body attribute
        put those bytes on the wire after the 304 head, so the bytes a
        compliant peer reads as "the next response" began mid-garbage."""

        def handler(request):
            if request.path == "/cond":
                return HttpResponse(304, body=b"SHOULD-NEVER-APPEAR")
            return HttpResponse.text_response(f"{request.method} {request.path}")

        with HttpServer(handler) as srv:
            blob = raw_exchange(
                srv,
                b"GET /cond HTTP/1.1\r\n\r\n"
                b"GET /after HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
        assert b"SHOULD-NEVER-APPEAR" not in blob
        first_head, _, rest = blob.partition(b"\r\n\r\n")
        assert first_head.startswith(b"HTTP/1.1 304 ")
        # the very next bytes after the 304's header section must be the
        # second response's status line — nothing smuggled in between
        assert rest.startswith(b"HTTP/1.1 200 ")
        assert rest.endswith(b"GET /after")

    def test_client_does_not_hang_on_304_with_content_length(self):
        """Pre-fix the client waited for 999 phantom body bytes (until
        the read timed out); now it frames the 304 at the header section
        and the connection stays usable for the next exchange."""
        ok = HttpResponse.text_response("fresh").to_bytes()
        scripted = _ScriptedServer(
            [
                b"HTTP/1.1 304 Not Modified\r\nContent-Length: 999\r\n\r\n",
                ok,
            ]
        )
        try:
            client = HttpClient(
                scripted.host, scripted.port, timeout=3, pool_size=1,
                validation_cache=0,
            )
            response = client.get("/resource")
            assert response.status == 304
            assert response.body == b""
            follow_up = client.get("/resource")
            assert follow_up.status == 200
            assert follow_up.body == b"fresh"
            assert client.created_connections == 1  # same socket, no desync
            client.close()
        finally:
            scripted.close()


class TestHeaderLimits:
    def test_431_has_a_status_phrase(self):
        assert STATUS_PHRASES[431] == "Request Header Fields Too Large"
        assert HttpResponse.error(431).reason == "Request Header Fields Too Large"

    def test_framer_and_parser_share_one_ceiling(self, server):
        """Pre-fix the socket framer read up to 1 MiB of headers that the
        parser then refused at 64 KiB — the wasted read and the split
        brain are both gone: the wire answers 431 at the shared limit."""
        huge = b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEADER_BYTES + 1024)
        blob = raw_exchange(server, huge)
        assert blob.startswith(b"HTTP/1.1 431 Request Header Fields Too Large")

    def test_reader_raises_431(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"GET /x HTTP/1.1\r\nX-Pad: " + b"b" * MAX_HEADER_BYTES)
            left.close()
            right.settimeout(5)
            with pytest.raises(HttpError) as excinfo:
                read_request(right)
            assert excinfo.value.status == 431
        finally:
            right.close()
