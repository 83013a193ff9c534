"""The one HTTP framer: socket readers, whole-buffer parsers, and the bugs
a second framer used to hide.

* Differential: every generated stream — requests and responses, with
  and without ``Content-Length``, bodyless statuses, HEAD responses,
  duplicate and odd headers, ``Transfer-Encoding``, pipelined batches,
  heads around the 64 KiB ceiling — is read in random byte splits
  through a fake socket.  The reader must return exactly what the
  whole-buffer case returns, at the same boundary, or both must raise
  :class:`HttpError` with the same status.
* A head is parsed once per message, even when its body arrives in
  several chunks.
* ``Transfer-Encoding`` is refused: the server answered a chunked POST
  with the handler run on an empty body, then parsed the chunk-size line
  as a second request.
* ``request_timeout`` bounds a whole message: a peer dribbling one byte
  every 0.5 s held the only worker for as long as it dribbled.
"""

import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.transport import HttpClient, HttpResponse, HttpServer
from repro.transport import http11
from repro.transport.http11 import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    parse_request,
    parse_response,
    read_request,
    read_response,
)


class ChunkedSocket:
    """A socket whose ``recv`` hands out pre-cut chunks, then EOF."""

    def __init__(self, chunks):
        self.chunks = [chunk for chunk in chunks if chunk]

    def recv(self, size):
        if not self.chunks:
            return b""
        chunk = self.chunks.pop(0)
        if len(chunk) > size:
            self.chunks.insert(0, chunk[size:])
            chunk = chunk[:size]
        return chunk

    def gettimeout(self):
        return None

    def unread(self):
        return b"".join(self.chunks)


def split(stream, cuts):
    points = sorted({cut % len(stream) for cut in cuts if stream} - {0})
    return [stream[a:b] for a, b in zip([0, *points], [*points, len(stream)])]


def snapshot(message):
    common = (message.version, message.headers.items(), message.body)
    if hasattr(message, "method"):
        return ("request", message.method, message.target, *common)
    return ("response", message.status, *common)


def frame_all(read, sock, buffer):
    """Read messages until EOF or an error; each outcome records where the
    stream stands after it (leftover plus what the socket still holds)."""
    outcomes = []
    while True:
        try:
            message, buffer = read(sock, buffer)
        except HttpError as exc:
            outcomes.append(("error", exc.status))
            return outcomes
        if message is None:
            return outcomes
        outcomes.append((snapshot(message), buffer + sock.unread()))


def check_split_agrees(read, parse, stream, cuts):
    whole = frame_all(read, ChunkedSocket([]), stream)
    pieces = frame_all(read, ChunkedSocket(split(stream, cuts)), b"")
    assert pieces == whole
    # each message is what the parser makes of the whole rest of the stream
    rest = stream
    for outcome in whole:
        if outcome[0] == "error":
            with pytest.raises(HttpError) as excinfo:
                parse(rest)
            assert excinfo.value.status == outcome[1]
        else:
            assert snapshot(parse(rest)) == outcome[0]
            rest = outcome[1]


# -- generated messages --------------------------------------------------

ODD_HEADERS = [
    "Content-Length: abc",
    "Content-Length: -1",
    f"Content-Length: {MAX_BODY_BYTES + 1}",
    "Content-Length: 3",
    "content-length: 0",
    "Transfer-Encoding: chunked",
    "transfer-encoding: gzip, chunked",
    "X-Dup: 1",
    "X-Dup: 2",
    "X-Empty:",
    "X-Spaces:   padded   ",
    "Connection: keep-alive, close",
    "Bad Header Line",
    "Name With Space: y",
    " Leading: x",
    "Host: example.org",
]

bodies = st.one_of(
    st.binary(max_size=48),
    st.sampled_from([b"\r\n\r\n", b"GET / HTTP/1.1\r\n\r\n", b"5\r\nhello\r\n0\r\n\r\n"]),
)


@st.composite
def header_block(draw):
    lines = draw(st.lists(st.sampled_from(ODD_HEADERS), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        # a head near the ceiling: first below, at, or just past it
        pad = draw(st.integers(MAX_HEADER_BYTES - 60, MAX_HEADER_BYTES + 8))
        lines.append("X-Pad: " + "a" * pad)
    return lines


@st.composite
def request_bytes(draw):
    method = draw(st.sampled_from(["GET", "POST", "PUT", "HEAD", "FROB"]))
    target = draw(st.sampled_from(["/", "/x?a=1", "/a%20b"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "NOTHTTP"]))
    lines = [f"{method} {target} {version}", *draw(header_block())]
    body = draw(bodies)
    if draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines).encode("latin-1")
    return head + b"\r\n\r\n" + body


@st.composite
def response_bytes(draw):
    status = draw(st.sampled_from(["200", "201", "204", "304", "100", "404", "abc"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0", "NOTHTTP"]))
    lines = [f"{version} {status} Reason", *draw(header_block())]
    body = draw(bodies)
    if draw(st.booleans()):
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines).encode("latin-1")
    return head + b"\r\n\r\n" + body


def batch(messages):
    return st.lists(messages, min_size=1, max_size=3).map(b"".join)


cuts = st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=12)

# every case of test_framing_bugfixes.py, as a stream
DUPLICATE_CL_AGREEING = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc"
DUPLICATE_CL_MISMATCHED = (
    b"POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 8\r\n\r\nabcdefgh"
)
HEAD_REQUEST = b"HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n"
PIPELINED = b"GET /cond HTTP/1.1\r\n\r\nGET /after HTTP/1.1\r\nConnection: close\r\n\r\n"
OVERSIZED_HEAD = b"GET /x HTTP/1.1\r\nX-Pad: " + b"a" * (MAX_HEADER_BYTES + 1024)
LYING_304 = b"HTTP/1.1 304 Not Modified\r\nContent-Length: 999\r\n\r\n"
OK_RESPONSE = HttpResponse.text_response("fresh").to_bytes()
LYING_304_THEN_OK = LYING_304 + OK_RESPONSE
ETAGGED_304 = b'HTTP/1.1 304 Not Modified\r\nContent-Length: 999\r\nETag: "x"\r\n\r\n'
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
NO_CONTENT = b"HTTP/1.1 204 No Content\r\n\r\n" + OK_RESPONSE
HEAD_ANSWER = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n" + OK_RESPONSE


class TestSplitReadsAgreeWithWholeBuffer:
    @settings(max_examples=300, deadline=None)
    @given(stream=batch(request_bytes()), cuts=cuts)
    @example(stream=DUPLICATE_CL_AGREEING, cuts=[5, 40])
    @example(stream=DUPLICATE_CL_MISMATCHED, cuts=[60])
    @example(stream=HEAD_REQUEST, cuts=[1, 2, 3])
    @example(stream=PIPELINED, cuts=[20, 23, 30])
    @example(stream=OVERSIZED_HEAD, cuts=[100, 70000])
    @example(stream=b"POST /charge-card HTTP/1.1\r\nContent-Length: 10\r\n\r\namount=100", cuts=[45])
    def test_requests(self, stream, cuts):
        check_split_agrees(read_request, parse_request, stream, cuts)

    @settings(max_examples=300, deadline=None)
    @given(stream=batch(response_bytes()), cuts=cuts, head_response=st.booleans())
    @example(stream=LYING_304_THEN_OK, cuts=[30, 50], head_response=False)
    @example(stream=ETAGGED_304, cuts=[10], head_response=False)
    @example(stream=CONTINUE, cuts=[3], head_response=False)
    @example(stream=NO_CONTENT, cuts=[28], head_response=False)
    @example(stream=HEAD_ANSWER, cuts=[39], head_response=True)
    @example(stream=OK_RESPONSE, cuts=[7], head_response=False)
    def test_responses(self, stream, cuts, head_response):
        def read(sock, buffer):
            return read_response(sock, buffer, head_response=head_response)

        def parse(raw):
            return parse_response(raw, head_response=head_response)

        check_split_agrees(read, parse, stream, cuts)

    @pytest.mark.parametrize("extra", [0, 1, 2, 3, 4])
    def test_head_at_the_ceiling_is_not_refused_early(self, extra):
        """A buffer of up to MAX + 3 bytes without a terminator may still
        end a head of exactly MAX bytes: only past that is it 431."""
        head = b"GET / HTTP/1.1\r\nX-Pad: "
        head += b"a" * (MAX_HEADER_BYTES - len(head) + extra)
        stream = head + b"\r\n\r\n"
        expected = 431 if extra else None
        for cut in (len(head), len(head) + 1, len(head) + 3):
            outcome = frame_all(read_request, ChunkedSocket(split(stream, [cut])), b"")
            status = outcome[0][1] if outcome[0][0] == "error" else None
            assert status == expected


class TestHeadParsedOnce:
    def test_body_over_several_chunks(self, monkeypatch):
        calls = []
        real = http11._head_lines

        def counting(head):
            calls.append(head)
            return real(head)

        monkeypatch.setattr(http11, "_head_lines", counting)
        body = b"x" * 5000
        stream = b"POST /big HTTP/1.1\r\nContent-Length: 5000\r\n\r\n" + body
        chunks = [stream[:30], stream[30:60], stream[60:900], stream[900:3000], stream[3000:]]
        request, leftover = read_request(ChunkedSocket(chunks))
        assert request.body == body and leftover == b""
        assert len(calls) == 1


# -- Transfer-Encoding ---------------------------------------------------


def raw_exchange(server, payload: bytes) -> bytes:
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(payload)
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


class TestTransferEncoding:
    @pytest.mark.parametrize(
        "extra",
        [b"", b"Content-Length: 5\r\n"],
        ids=["chunked", "chunked-with-content-length"],
    )
    def test_chunked_request_refused_before_the_handler(self, extra):
        seen = []

        def handler(request):
            seen.append((request.method, request.body))
            return HttpResponse.text_response("handled")

        with HttpServer(handler) as server:
            blob = raw_exchange(
                server,
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n" + extra
                + b"\r\n5\r\nhello\r\n0\r\n\r\n",
            )
        assert blob.startswith(b"HTTP/1.1 501 ")
        assert b"Connection: close" in blob
        assert blob.count(b"HTTP/1.1 ") == 1  # the chunk lines were not a request
        assert seen == []

    def test_client_refuses_chunked_response_and_drops_the_socket(self):
        listener = socket.create_server(("127.0.0.1", 0))

        def serve():
            sock, _ = listener.accept()
            with sock:
                sock.settimeout(5)
                read_request(sock)
                sock.sendall(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    b"5\r\nhello\r\n0\r\n\r\n"
                )
                try:
                    sock.recv(1)  # until the client drops it
                except OSError:
                    pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        client = HttpClient(host, port, timeout=5, pool_size=1)
        try:
            with pytest.raises(HttpError):
                client.post("/x", b"payload")  # POST: never replayed
            assert client.pool_stats()["idle"] == 0
        finally:
            client.close()
            listener.close()
            thread.join(5)
        assert not thread.is_alive()


# -- slow loris ----------------------------------------------------------


class TestWholeMessageDeadline:
    def test_dribbling_peer_cannot_hold_the_only_worker(self):
        def handler(request):
            return HttpResponse.text_response(request.path)

        with HttpServer(handler, workers=1, request_timeout=1.0) as server:
            dribbler = socket.create_connection((server.host, server.port), timeout=5)
            stop = threading.Event()

            def dribble():
                dribbler.sendall(b"GET /slow HTTP/1.1\r\n")
                for byte in b"X-Drip: aaaaaaaaaaaa":  # 10 s of dribbling
                    if stop.wait(0.5):
                        return
                    try:
                        dribbler.sendall(bytes([byte]))
                    except OSError:
                        return

            started = time.monotonic()
            thread = threading.Thread(target=dribble)
            thread.start()
            try:
                time.sleep(0.3)
                sent = time.monotonic()
                honest = raw_exchange(
                    server, b"GET /fast HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                honest_seconds = time.monotonic() - sent
                answer = b""
                while b"\r\n\r\n" not in answer:
                    chunk = dribbler.recv(65536)
                    if not chunk:
                        break
                    answer += chunk
                dribbler_seconds = time.monotonic() - started
            finally:
                stop.set()
                thread.join(5)
                dribbler.close()
        assert not thread.is_alive()
        assert answer.startswith(b"HTTP/1.1 408 ")
        assert dribbler_seconds < 1.5
        assert honest.endswith(b"/fast")
        assert honest_seconds < 2.0
