"""Robustness tests for the socket HTTP server and message framing."""

import socket
import threading
import time

import pytest

from repro.transport import HttpResponse, HttpServer
from repro.transport.http11 import read_request


def echo_handler(request):
    return HttpResponse.text_response(f"{request.method} {request.path}")


@pytest.fixture
def server():
    with HttpServer(echo_handler) as srv:
        yield srv


def raw_exchange(server, payload: bytes, *, read=True) -> bytes:
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(payload)
        if not read:
            return b""
        sock.settimeout(5)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if b"\r\n\r\n" in b"".join(chunks):
                    # got headers; read body by content-length
                    blob = b"".join(chunks)
                    head, _, body = blob.partition(b"\r\n\r\n")
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            needed = int(line.split(b":")[1])
                            while len(body) < needed:
                                more = sock.recv(65536)
                                if not more:
                                    break
                                body += more
                            return head + b"\r\n\r\n" + body
        except socket.timeout:
            pass
        return b"".join(chunks)


class TestFraming:
    def test_fragmented_request_reassembled(self, server):
        """Request delivered one byte at a time still parses."""
        request = b"GET /frag HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            for i in range(len(request)):
                sock.sendall(request[i : i + 1])
                time.sleep(0.001)
            sock.settimeout(5)
            response = sock.recv(65536)
        assert b"200" in response
        assert b"GET /frag" in response

    def test_pipelined_sequential_requests_on_one_connection(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.settimeout(5)
            for index in range(5):
                sock.sendall(f"GET /r{index} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                data = b""
                while b"\r\n\r\n" not in data or f"/r{index}".encode() not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                assert f"GET /r{index}".encode() in data

    def test_body_split_across_packets(self, server):
        body = b"x" * 5000
        head = (
            f"POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode()
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(head)
            time.sleep(0.01)
            sock.sendall(body[:2000])
            time.sleep(0.01)
            sock.sendall(body[2000:])
            sock.settimeout(5)
            response = sock.recv(65536)
        assert b"200" in response

    def test_malformed_request_line_gets_error_response(self, server):
        response = raw_exchange(server, b"GARBAGE\r\n\r\n")
        assert b"HTTP/1.1 400" in response or b"HTTP/1.1 501" in response

    def test_connection_close_honored(self, server):
        response = raw_exchange(
            server, b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert b"Connection: close" in response

    def test_clean_disconnect_before_request(self, server):
        # connect and immediately close: server must not crash
        with socket.create_connection((server.host, server.port), timeout=5):
            pass
        # server still serves afterwards
        response = raw_exchange(server, b"GET /after HTTP/1.1\r\n\r\n")
        assert b"200" in response


class TestReadMessage:
    def make_pair(self):
        a, b = socket.socketpair()
        a.settimeout(5)
        b.settimeout(5)
        return a, b

    def test_reads_exact_content_length(self):
        a, b = self.make_pair()
        try:
            b.sendall(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcEXTRA")
            message, leftover = read_request(a)
            # the message is framed *exactly*; pipelined bytes come back
            # as leftover instead of being glued to the body (seed bug)
            assert message.body == b"abc"
            assert leftover == b"EXTRA"
        finally:
            a.close()
            b.close()

    def test_leftover_buffer_feeds_next_message(self):
        a, b = self.make_pair()
        try:
            b.sendall(b"GET /second HTTP/1.1\r\n\r\n")
            message, leftover = read_request(a, b"GET /first HTTP/1.1\r\n\r\n")
            assert message.target == "/first"
            assert leftover == b""
            message, leftover = read_request(a)
            assert message.target == "/second"
        finally:
            a.close()
            b.close()

    def test_none_on_clean_eof(self):
        a, b = self.make_pair()
        try:
            b.close()
            message, leftover = read_request(a)
            assert message is None
            assert leftover == b""
        finally:
            a.close()

    def test_error_on_mid_header_eof(self):
        from repro.transport import HttpError

        a, b = self.make_pair()
        try:
            b.sendall(b"GET / HTTP/1.1\r\nPartial")
            b.close()
            with pytest.raises(HttpError):
                read_request(a)
        finally:
            a.close()

    def test_error_on_mid_body_eof(self):
        from repro.transport import HttpError

        a, b = self.make_pair()
        try:
            b.sendall(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            b.close()
            with pytest.raises(HttpError):
                read_request(a)
        finally:
            a.close()


class TestServerLifecycle:
    def test_stop_is_idempotent(self):
        server = HttpServer(echo_handler).start()
        server.stop()
        server.stop()

    def test_port_released_after_stop(self):
        server = HttpServer(echo_handler, port=0).start()
        port = server.port
        server.stop()
        # rebinding the same port must succeed (REUSEADDR + closed listener)
        rebound = HttpServer(echo_handler, port=port).start()
        rebound.stop()

    def test_handler_exception_returns_500_connection_survives(self):
        calls = {"n": 0}

        def flaky(request):
            calls["n"] += 1
            if request.path == "/boom":
                raise RuntimeError("handler bug")
            return HttpResponse.text_response("ok")

        with HttpServer(flaky) as server:
            boom = raw_exchange(server, b"GET /boom HTTP/1.1\r\n\r\n")
            assert b"500" in boom

    def test_many_short_connections(self, server):
        for _ in range(30):
            response = raw_exchange(
                server, b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            assert b"200" in response


class TestRequestTimeout:
    """Satellite: stalled clients get 408 instead of pinning a thread."""

    def test_stalled_mid_headers_gets_408(self):
        with HttpServer(echo_handler, request_timeout=0.2) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(b"GET /slow HTTP/1.1\r\nHost: x")  # never finishes
                sock.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert b"HTTP/1.1 408" in data

    def test_stalled_mid_body_gets_408(self):
        with HttpServer(echo_handler, request_timeout=0.2) as server:
            head = b"POST /p HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly-a-bit"
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(head)
                sock.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert b"HTTP/1.1 408" in data

    def test_idle_keep_alive_closed_quietly(self):
        with HttpServer(echo_handler, request_timeout=0.2) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                # Complete one request...
                sock.sendall(b"GET /one HTTP/1.1\r\n\r\n")
                sock.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += sock.recv(65536)
                assert b"200" in data
                # ...then sit idle: server must close without sending 408.
                tail = b""
                try:
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            break
                        tail += chunk
                except socket.timeout:
                    pass
            assert b"408" not in tail

    def test_server_survives_stalled_client(self):
        with HttpServer(echo_handler, request_timeout=0.2) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=5
            ) as sock:
                sock.sendall(b"GET /stall HTTP/1.1\r\nHost:")
                time.sleep(0.4)
            response = raw_exchange(server, b"GET /after HTTP/1.1\r\n\r\n")
            assert b"200" in response

    def test_request_timeout_validation(self):
        with pytest.raises(ValueError):
            HttpServer(echo_handler, request_timeout=0)


class TestStatusMapping:
    """Satellite: bare transport statuses map to typed faults client-side."""

    def test_408_maps_to_timeout_fault(self):
        from repro.core import TimeoutFault
        from repro.transport import raise_transport_status

        response = HttpResponse.text_response("Request Timeout", status=408)
        with pytest.raises(TimeoutFault):
            raise_transport_status(response)

    def test_503_maps_to_service_unavailable_with_retry_after(self):
        from repro.core import ServiceUnavailable
        from repro.transport import raise_transport_status
        from repro.transport.http11 import _Headers

        response = HttpResponse(
            503,
            _Headers([("Content-Type", "text/plain"), ("Retry-After", "7")]),
            b"down",
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            raise_transport_status(response)
        assert excinfo.value.retry_after == pytest.approx(7.0)

    def test_other_statuses_pass_through(self):
        from repro.transport import raise_transport_status

        assert raise_transport_status(HttpResponse.text_response("x", 404)) is None

    def test_retry_after_parsing(self):
        from repro.transport import parse_retry_after

        assert parse_retry_after("12") == pytest.approx(12.0)
        assert parse_retry_after("1.5") == pytest.approx(1.5)
        assert parse_retry_after("soon") is None
        assert parse_retry_after(None) is None
