"""Connection persistence and the one-shot epoll server.

* RFC 7230 §6.1/§6.3: ``Connection`` is a case-insensitive token list,
  and an HTTP/1.0 message without a ``keep-alive`` token is not
  persistent.  The server and the pooled client both compared the whole
  header to ``"close"``: an HTTP/1.0 request, or ``Connection:
  keep-alive, close``, left the socket open until the read timeout, and
  the client pooled sockets the server had said it would close.
* The client's stale probe flags a pooled socket the server wrote
  unsolicited bytes to.
* The server's thread topology, its Linux-only contract, and a stress
  run of more keep-alive clients than workers.
"""

import select
import socket
import sys
import threading
import time

import pytest

from repro.transport import HttpClient, HttpResponse, HttpServer
from repro.transport.http11 import _Headers, keeps_alive, read_request, read_response


def echo_handler(request):
    return HttpResponse.text_response(f"{request.method} {request.path}")


@pytest.fixture
def server():
    # a short read timeout: a socket the server wrongly keeps open then
    # idles past the 1 s the tests below wait for EOF
    with HttpServer(echo_handler, request_timeout=3) as srv:
        yield srv


def exchange(server, payload: bytes) -> tuple[HttpResponse, bool]:
    """Send one request; return its response and whether the server then
    closed the connection within one second."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(payload)
        response, leftover = read_response(sock)
        assert not leftover
        sock.settimeout(1.0)
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
    return response, closed


class TestKeepsAlive:
    @pytest.mark.parametrize(
        "version, values, expected",
        [
            ("HTTP/1.1", [], True),
            ("HTTP/1.1", ["close"], False),
            ("HTTP/1.1", ["Keep-Alive, CLOSE"], False),
            ("HTTP/1.1", ["keep-alive", "close"], False),  # across header lines
            ("HTTP/1.1", ["Upgrade"], True),
            ("HTTP/1.0", [], False),
            ("HTTP/1.0", ["Keep-Alive"], True),
            ("HTTP/1.0", ["keep-alive, close"], False),
        ],
    )
    def test_token_list_rules(self, version, values, expected):
        headers = _Headers([("Connection", value) for value in values])
        assert keeps_alive(version, headers) is expected


class TestServerPersistence:
    def test_http10_request_without_keep_alive_is_closed(self, server):
        response, closed = exchange(server, b"GET /old HTTP/1.0\r\n\r\n")
        assert response.body.endswith(b"GET /old")
        assert response.headers.get("Connection") == "close"
        assert closed

    def test_close_token_in_a_list_is_honoured(self, server):
        response, closed = exchange(
            server, b"GET /bye HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"
        )
        assert response.headers.get("Connection") == "close"
        assert closed

    def test_http10_keep_alive_token_keeps_the_connection(self, server):
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            buffer = b""
            for path in (b"/one", b"/two"):
                sock.sendall(
                    b"GET " + path + b" HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
                )
                response, buffer = read_response(sock, buffer)
                assert response.body.endswith(b"GET " + path)
                assert response.headers.get("Connection") != "close"


class TestClientPersistence:
    def test_close_token_in_a_response_list_is_not_pooled(self):
        def handler(request):
            response = HttpResponse.text_response("bye")
            response.headers.set("Connection", "keep-alive, close")
            return response

        with HttpServer(handler) as srv:
            client = HttpClient(srv.host, srv.port, pool_size=1)
            try:
                assert client.get("/a").body == b"bye"
                assert client.pool_stats()["idle"] == 0
            finally:
                client.close()

    def test_http10_response_is_not_pooled(self):
        def handler(request):
            return HttpResponse(200, {"Content-Length": "2"}, b"ok", "HTTP/1.0")

        with HttpServer(handler) as srv:
            client = HttpClient(srv.host, srv.port, pool_size=1)
            try:
                assert client.get("/a").body == b"ok"
                assert client.pool_stats()["idle"] == 0
            finally:
                client.close()

    def test_unsolicited_bytes_make_a_pooled_socket_stale(self):
        """A server that writes to an idle keep-alive socket has
        desynced it; the next borrow must dial fresh, not read the junk
        as its answer."""
        listener = socket.create_server(("127.0.0.1", 0))
        junk_sent = threading.Event()

        def serve():
            for index, extra in enumerate((b"HTTP/1.1 200 OK\r\n\r\n", b"")):
                sock, _ = listener.accept()
                with sock:
                    sock.settimeout(5)
                    read_request(sock)
                    answer = HttpResponse.text_response(f"answer {index}")
                    sock.sendall(answer.to_bytes())
                    if extra:
                        time.sleep(0.05)  # after the client pooled the socket
                        sock.sendall(extra)
                        junk_sent.set()
                        try:  # hold it open until the client drops it
                            sock.recv(1)
                        except ConnectionResetError:  # dropped unread junk
                            pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = listener.getsockname()
        client = HttpClient(host, port, pool_size=1, validation_cache=0)
        try:
            assert client.get("/first").body == b"answer 0"
            assert junk_sent.wait(5)
            time.sleep(0.05)  # let the junk reach our receive buffer
            assert client.get("/second").body == b"answer 1"
            assert client.reaped_connections == 1
            assert client.created_connections == 2
        finally:
            client.close()
            listener.close()
            thread.join(5)
        assert not thread.is_alive()


class TestEpollServer:
    def test_threads_are_accept_workers_and_overflow(self):
        with HttpServer(echo_handler, workers=3) as srv:
            names = sorted(
                thread.name
                for thread in threading.enumerate()
                if thread in srv._worker_threads
                or thread in (srv._accept_thread, srv._overflow_thread)
            )
        assert names == [
            "http-accept",
            "http-overflow",
            "http-worker-0",
            "http-worker-1",
            "http-worker-2",
        ]

    def test_requires_epoll(self, monkeypatch):
        monkeypatch.delattr(select, "epoll")
        with pytest.raises(RuntimeError, match="epoll"):
            HttpServer(echo_handler)

    def test_more_keep_alive_clients_than_workers_each_get_their_answers(self):
        """Eight keep-alive clients, three workers, a tiny switch
        interval: the overflow queue and the one-shot re-arm must serve
        every request exactly once, on its own connection."""
        served = []
        served_lock = threading.Lock()

        def handler(request):
            with served_lock:
                served.append(request.path)
            return HttpResponse.text_response(request.path)

        errors = []
        rounds = 40

        def client_loop(index):
            try:
                with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
                    buffer = b""
                    for number in range(rounds):
                        path = f"/c{index}/r{number}"
                        sock.sendall(f"GET {path} HTTP/1.1\r\n\r\n".encode())
                        response, buffer = read_response(sock, buffer)
                        body = response.body.decode()
                        if body != path:
                            errors.append((path, body))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with HttpServer(
                handler, workers=3, queue_size=64, saturation_grace=5.0
            ) as srv:
                threads = [
                    threading.Thread(target=client_loop, args=(index,))
                    for index in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in threads)
                rejected = srv.rejected_connections
        finally:
            sys.setswitchinterval(switch_interval)
        assert not errors
        assert rejected == 0
        assert sorted(served) == sorted(
            f"/c{index}/r{number}" for index in range(8) for number in range(rounds)
        )
