"""Worker-pool socket HTTP server.

A dependency-free web substrate built for concurrency: the server runs a
*bounded worker pool* over one kernel wait set instead of spawning one
thread per connection.  It hosts any *handler* — a callable
``HttpRequest -> HttpResponse`` — so the SOAP endpoint, REST endpoint,
web application framework, the service directory and the fleet monitor
all ride the same substrate, as they did on the paper's IIS deployment.
Their pooled keep-alive client lives in :mod:`repro.transport.client`.

Server architecture (Linux only — it waits on ``select.epoll``; three
kinds of threads, all daemonic):

* the **accept thread** accepts sockets and arms each one in the
  server's epoll set as ``EPOLLIN | EPOLLONESHOT``;
* ``workers`` **worker threads** all wait in that one set.  The kernel
  wakes exactly one worker per readable connection and disarms the
  connection, so that worker owns it with no hand-off: it reads exactly
  as many pipelined requests as are already buffered, dispatches,
  responds, and re-arms the connection with a single ``epoll_ctl``.  An
  idle keep-alive connection costs an armed slot in the set, not a
  thread.  A slow-loris peer cannot pin a worker between requests, and
  within one only for ``request_timeout``, which bounds the whole
  message, not each ``recv``: past it the peer is answered ``408``;
* the **overflow thread** sleeps unless every worker is busy or an idle
  sweep is due.  Saturated, it takes readable connections off the set
  into the bounded *ready queue*, which workers drain before they wait
  again; its sweep (every ``min(request_timeout / 4, 1 s)``) quietly
  closes connections parked longer than ``request_timeout``.

Backpressure is explicit: when the ready queue stays full past a short
grace period (the pool is saturated), the connection is answered ``503
Service Unavailable`` with a ``Retry-After`` hint and closed; the same
happens at accept time past ``max_connections``.  Saturation is visible
in ``OBS.instruments`` (busy-worker and queue-depth gauges, a rejection
counter).

Requests are framed by :func:`~repro.transport.http11.read_request`, the
framer the client shares; the connection loop carries leftover bytes
between requests, so pipelined requests are all served.  Connection
reuse follows :func:`~repro.transport.http11.keeps_alive`.
"""

from __future__ import annotations

import os
import queue
import select
import socket
import threading
import time
from typing import Callable, Optional

from ..observability.runtime import OBS
from ..observability.trace import NOOP_SPAN, TRACEPARENT_HEADER, TraceContext
from .client import HttpClient  # noqa: F401 - benchmarks/e2e/ledger.py imports it here
from .http11 import (
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    keeps_alive,
    parse_request,
    parse_response,
    read_request,
)

__all__ = ["HttpServer", "serve_once"]

Handler = Callable[[HttpRequest], HttpResponse]

#: Access-log hook signature: (method, target, status, duration_seconds).
RequestObserver = Callable[[str, str, int, float], None]

#: How a parked connection waits in the server's epoll set: readable wakes
#: exactly one waiter, and the kernel disarms the connection until its
#: owner re-arms it.  (0 without epoll: ``HttpServer`` refuses to build.)
_ARMED = getattr(select, "EPOLLIN", 0) | getattr(select, "EPOLLONESHOT", 0)


class _Connection:
    """Server-side per-connection state: socket + inter-request buffer.

    ``claimed`` is set, under the server lock, while exactly one owner
    holds the connection: the worker serving it, the ready queue, or the
    idle sweep closing it.  An unclaimed connection is armed in the
    epoll set, waiting for its next request.
    """

    __slots__ = ("sock", "fd", "buffer", "parked_at", "peer", "claimed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fd = sock.fileno()
        self.buffer = b""
        self.parked_at = time.monotonic()
        self.claimed = False
        try:
            self.peer: Optional[str] = sock.getpeername()[0]
        except (OSError, IndexError):
            self.peer = None

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


class HttpServer:
    """Bounded worker-pool server dispatching requests to a handler.

    Use as a context manager in tests::

        with HttpServer(handler, workers=8) as server:
            client = HttpClient("127.0.0.1", server.port, pool_size=4)
            response = client.get("/ping")

    ``workers`` bounds concurrent request handling; parked keep-alive
    connections cost an armed epoll slot, not a thread, so thousands of
    idle clients can coexist with a small pool.  ``queue_size`` bounds
    the ready queue that holds readable connections while every worker
    is busy: connections that cannot be queued within
    ``saturation_grace`` seconds are refused with ``503`` +
    ``Retry-After: {retry_after}``.  Linux only: constructing one where
    ``select.epoll`` is missing raises :class:`RuntimeError`.
    """

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_timeout: float = 30.0,
        on_request: Optional[RequestObserver] = None,
        workers: int = 4,
        queue_size: Optional[int] = None,
        max_connections: int = 512,
        saturation_grace: float = 0.5,
        retry_after: float = 1.0,
        node_name: Optional[str] = None,
    ) -> None:
        """``on_request`` is an optional access-log hook called after every
        dispatched request as ``(method, target, status, duration_seconds)``.
        It runs on the worker thread, *inside* the request's server span —
        so :func:`repro.observability.logs.access_log` observers emit
        trace-correlated records.  Exceptions it raises are swallowed —
        an observer must never break serving.

        ``node_name`` stamps every server span with a ``node`` attribute
        — the identity the trace store's cross-node assembly attributes
        spans by.  Replica sets and the gateway set it; plain servers
        may leave it off (spans then inherit attribution upstream).
        """
        if not hasattr(select, "epoll"):
            raise RuntimeError(
                "HttpServer requires Linux: its workers wait on select.epoll"
            )
        if request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self.handler = handler
        self.on_request = on_request
        self.node_name = node_name
        self.request_timeout = request_timeout
        self.workers = workers
        self.retry_after = retry_after
        self.saturation_grace = saturation_grace
        self.max_connections = max_connections
        self.queue_size = max(queue_size or 8 * workers, workers)
        self.rejected_connections = 0  # 503s sent at saturation (stats)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self.host, self.port = self._listener.getsockname()
        self._running = False
        self._accept_thread: Optional[threading.Thread] = None
        self._overflow_thread: Optional[threading.Thread] = None
        self._worker_threads: list[threading.Thread] = []
        # readable connections waiting for a worker, used only while
        # every worker is busy; guarded by _lock like everything below
        self._ready: "queue.Queue[_Connection]" = queue.Queue(
            maxsize=self.queue_size
        )
        self._connections: dict[int, _Connection] = {}  # fd -> connection
        self._idle_workers = 0  # workers waiting in the epoll set
        self._lock = threading.Lock()
        # the overflow thread sleeps here until every worker is busy, a
        # sweep is due, or a saturated ready queue frees a slot
        self._overflow_wake = threading.Condition(self._lock)
        self._epoll = select.epoll()
        # level-triggered and never drained: once stop() rings it, every
        # poll on the set returns, so all waiting workers wake together
        self._doorbell = os.eventfd(0)
        self._epoll.register(self._doorbell, select.EPOLLIN)
        self._label = None  # bound gauge children, set in start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "HttpServer":
        # Idempotent: ``with gateway.start() as server`` enters an
        # already-started server, and a second thread fleet must not
        # spawn.
        if self._running:
            return self
        self._running = True
        if OBS.enabled:
            # Bind the per-server gauge children once: worker loops then
            # update them without per-call label validation.  Captured as
            # a tuple so a mid-flight OBS reconfiguration (tests swapping
            # registries) cannot strand an inc without its dec.
            server = f"{self.host}:{self.port}"
            instruments = OBS.instruments
            self._label = (
                instruments.transport_workers_busy.labels(server=server),
                instruments.transport_queue_depth.labels(server=server),
                instruments.transport_rejections.labels(server=server),
            )
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"http-worker-{index}", daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)
        self._overflow_thread = threading.Thread(
            target=self._overflow_loop, name="http-overflow", daemon=True
        )
        self._overflow_thread.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="http-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        # closing an fd does NOT wake a thread blocked in accept(2) on
        # Linux — the kernel socket would stay in LISTEN and the accept
        # thread would leak.  shutdown() interrupts it; where shutdown on
        # a listening socket is unsupported, a self-connection wakes it.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            try:
                with socket.create_connection((self.host, self.port), timeout=1):
                    pass
            except OSError:  # pragma: no cover - already unblocked
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if self._epoll.closed:
            return  # stopped before
        os.eventfd_write(self._doorbell, 1)  # wakes every waiting worker
        with self._lock:
            self._overflow_wake.notify_all()
        if self._overflow_thread is not None:
            self._overflow_thread.join(timeout=2)
        # close every connection: parked, queued, or mid-request
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()
        for thread in self._worker_threads:
            thread.join(timeout=2)
        self._worker_threads.clear()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2)
        self._epoll.close()
        os.close(self._doorbell)

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- saturation -----------------------------------------------------
    def _reject(self, conn: _Connection, message: str) -> None:
        """Refuse a connection with 503 + Retry-After, then close it."""
        # Count before the refusal hits the wire: a caller reacting to
        # the 503 must already see it in the stats/instruments.  Both the
        # accept and the overflow thread shed, hence the lock.
        with self._lock:
            self.rejected_connections += 1
        if self._label is not None:
            self._label[2].inc()
        response = HttpResponse.error(503, message)
        response.headers.set("Retry-After", f"{self.retry_after:g}")
        response.headers.set("Connection", "close")
        try:
            conn.sock.sendall(response.to_bytes())
        except OSError:  # pragma: no cover - peer already gone
            pass
        self._discard(conn)

    def _discard(self, conn: _Connection) -> None:
        with self._lock:
            if self._connections.get(conn.fd) is conn:
                del self._connections[conn.fd]
        conn.close()

    # -- accept ---------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.settimeout(self.request_timeout)
            conn = _Connection(sock)
            with self._lock:
                overloaded = len(self._connections) >= self.max_connections
                if not overloaded:
                    self._connections[conn.fd] = conn
            if overloaded:
                self._reject(conn, "server saturated: connection limit reached")
                continue
            try:
                self._epoll.register(conn.fd, _ARMED)
            except (OSError, ValueError):  # epoll closed by stop()
                self._discard(conn)

    # -- the wait set ---------------------------------------------------
    def _await_ready(self, timeout: float = -1) -> list[tuple[int, int]]:
        """Block until the kernel hands this thread one ready fd.

        Idle workers (and the overflow thread, while saturated) wait
        here, so the profiler folds this frame into ``(idle)``.
        """
        return self._epoll.poll(timeout, 1)

    def _claim(self, events: list[tuple[int, int]]) -> Optional[_Connection]:
        """Take ownership of the connection behind a ready event.

        Caller holds the lock.  ``None`` for the doorbell, or when the
        idle sweep closed the connection first.
        """
        if not events:
            return None
        conn = self._connections.get(events[0][0])
        if conn is None or conn.claimed:
            return None
        conn.claimed = True
        return conn

    def _rearm(self, conn: _Connection) -> None:
        """Park ``conn`` for its next request: one ``epoll_ctl``."""
        conn.parked_at = time.monotonic()  # before unclaiming: the sweep reads both
        conn.claimed = False
        try:
            self._epoll.modify(conn.fd, _ARMED)
        except (OSError, ValueError):  # closed by stop()
            self._discard(conn)

    # -- overflow -------------------------------------------------------
    def _overflow_loop(self) -> None:
        """Cover what the workers cannot: saturation and the idle sweep.

        Sleeps on a condition while any worker is idle.  Once every
        worker is busy it waits in the epoll set itself and moves each
        readable connection into the ready queue (:meth:`_overflow`).
        """
        sweep_every = min(self.request_timeout / 4, 1.0)
        next_sweep = time.monotonic() + sweep_every
        while self._running:
            with self._lock:
                while self._running and self._idle_workers:
                    remaining = next_sweep - time.monotonic()
                    if remaining <= 0:
                        break
                    self._overflow_wake.wait(remaining)
                saturated = not self._idle_workers
            if saturated and self._running:
                try:
                    events = self._await_ready(
                        max(0.0, next_sweep - time.monotonic())
                    )
                except (OSError, ValueError):  # pragma: no cover - epoll closed
                    return
                with self._lock:
                    conn = self._claim(events)
                if conn is not None:
                    self._overflow(conn)
            if time.monotonic() >= next_sweep:
                self._close_idle()
                next_sweep = time.monotonic() + sweep_every

    def _overflow(self, conn: _Connection) -> None:
        """Queue a readable connection while every worker is busy.

        A worker that went idle meanwhile gets it back through the epoll
        set; a queue still full after ``saturation_grace`` sheds it.
        Queueing only while no worker is idle — under the lock workers
        check the queue with — means nothing queued is ever stranded.
        """
        deadline = time.monotonic() + self.saturation_grace
        with self._lock:
            while self._running and not self._idle_workers and self._ready.full():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._overflow_wake.wait(remaining)
            running, idle = self._running, self._idle_workers
            if running and not idle and not self._ready.full():
                self._ready.put_nowait(conn)
                if self._label is not None:
                    self._label[1].set(self._ready.qsize())
                return
        if not running:
            self._discard(conn)
        elif idle:
            self._rearm(conn)
        else:
            self._reject(conn, "server saturated: worker pool busy")

    def _close_idle(self) -> None:
        """Quietly close parked connections idle past request_timeout."""
        deadline = time.monotonic() - self.request_timeout
        with self._lock:
            stale = [
                conn
                for conn in self._connections.values()
                if not conn.claimed and conn.parked_at < deadline
            ]
            for conn in stale:
                del self._connections[conn.fd]
        for conn in stale:
            conn.close()  # closing also drops it from the epoll set

    # -- workers --------------------------------------------------------
    def _worker_loop(self) -> None:
        label = self._label
        while self._running:
            conn = self._next_connection()
            if conn is None:
                continue  # the stop doorbell, or a connection swept first
            if label is not None:
                label[0].inc()  # workers busy
            try:
                self._serve_ready(conn)
            finally:
                if label is not None:
                    label[0].dec()

    def _next_connection(self) -> Optional[_Connection]:
        """The next connection this worker serves: queued overflow first,
        else whichever armed connection the kernel wakes it for."""
        with self._lock:
            if self._ready.qsize():
                conn = self._ready.get_nowait()
                self._overflow_wake.notify()  # a queue slot freed up
                if self._label is not None:
                    self._label[1].set(self._ready.qsize())
                return conn
            self._idle_workers += 1
        try:
            events = self._await_ready()
        except (OSError, ValueError):  # pragma: no cover - epoll closed
            events = []
        with self._lock:
            self._idle_workers -= 1
            if not self._idle_workers:
                self._overflow_wake.notify()  # saturated: overflow takes over
            return self._claim(events)

    def _serve_ready(self, conn: _Connection) -> None:
        """Serve every request already in flight on ``conn``, then re-arm.

        Loops while the head of a pipelined request sits in the
        connection buffer (no trip through the epoll set between them),
        re-arms the connection when none does, closes it when the request
        ends persistence (:func:`~repro.transport.http11.keeps_alive`),
        on errors, or on EOF.
        """
        while self._running:
            try:
                request, conn.buffer = read_request(conn.sock, conn.buffer)
            except HttpError as exc:
                # a stalled or malformed peer gets a diagnostic response
                # (400 framing / 408 stalled / 413 body / 431 headers /
                # 501 method or Transfer-Encoding) before close
                response = HttpResponse.error(exc.status, str(exc))
                response.headers.set("Connection", "close")
                try:
                    conn.sock.sendall(response.to_bytes())
                except OSError:  # pragma: no cover - peer already gone
                    pass
                break
            except OSError:
                break
            if request is None:
                break  # clean EOF
            request.client_address = conn.peer
            response = self._handle(request)
            keep_alive = keeps_alive(request.version, request.headers)
            if not keep_alive:
                response.headers.set("Connection", "close")
            try:
                conn.sock.sendall(
                    # HEAD: status line + headers only; Content-Length
                    # still describes the suppressed body (RFC 7230 §3.3)
                    response.to_bytes(include_body=request.method != "HEAD")
                )
            except OSError:
                break
            if not keep_alive:
                break
            if b"\r\n\r\n" in conn.buffer or len(conn.buffer) > MAX_HEADER_BYTES:
                # the next pipelined head is here (or is already too
                # large): frame it now, its body within its own deadline
                continue
            self._rearm(conn)
            return
        self._discard(conn)

    def _handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one parsed request: handler + telemetry + access hook.

        The one place an HTTP server span opens.  A worker has no active
        span, so ``http.server`` joins the inbound ``traceparent`` (marked
        ``trace.remote_parent``) or starts a trace; the SOAP or REST
        endpoint names its call on it, and the handler's calls nest in it.
        """
        start = time.perf_counter()
        span = NOOP_SPAN
        if OBS.enabled and OBS.tracer.sampling:
            attributes = {"http.method": request.method, "http.target": request.target}
            if self.node_name is not None:
                attributes["node"] = self.node_name
            parent = TraceContext.parse(request.headers.get(TRACEPARENT_HEADER))
            if parent is not None:
                attributes["trace.remote_parent"] = True
            span = OBS.tracer.span(
                "http.server", kind="server", parent=parent, attributes=attributes
            )
        with span:
            try:
                response = self.handler(request)
            except Exception as exc:  # noqa: BLE001 - server must not die
                span.record_exception(exc)
                response = HttpResponse.error(500, f"handler error: {exc}")
            status = response.status
            span.set_attribute("http.status", status)
            duration = time.perf_counter() - start
            if self.on_request is not None:
                # Inside the span on purpose: a structured access log
                # observer (repro.observability.logs.access_log) sees the
                # request's trace context and emits a correlated record.
                try:
                    self.on_request(
                        request.method, request.target, status, duration
                    )
                except Exception:  # noqa: BLE001 - observers must not break serving
                    pass
        if OBS.enabled:
            instruments = OBS.instruments
            instruments.transport_requests.inc(
                method=request.method, status=str(status)
            )
            instruments.transport_seconds.observe(
                duration, method=request.method
            )
        return response


def serve_once(handler: Handler, request: HttpRequest) -> HttpResponse:
    """Run a handler through the full wire codec without a socket.

    Serializes the request to bytes, reparses, dispatches, serializes the
    response and reparses it — so tests exercise the codec path without
    network nondeterminism.
    """
    reparsed = parse_request(request.to_bytes())
    response = handler(reparsed)
    return parse_response(response.to_bytes())
