"""Worker-pool socket HTTP server and pooled keep-alive client.

A dependency-free web substrate built for concurrency: the server runs a
*bounded worker pool* over one kernel wait set instead of spawning one
thread per connection, and the client keeps a *pool* of keep-alive
sockets instead of serializing every caller on one global lock.  It
hosts any *handler* — a callable ``HttpRequest -> HttpResponse`` — so
the SOAP endpoint, REST endpoint, web application framework, the service
directory and the fleet monitor all ride the same substrate, as they did
on the paper's IIS deployment.

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
  thread, and a slow-loris peer cannot pin a worker between requests;
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

The connection loop carries leftover bytes between requests, so
pipelined requests that arrive in one segment are all served rather
than silently dropped, and both layers of the stack frame messages with
the same strict ``Content-Length`` rules (duplicates rejected — the
request-smuggling shape) and the same 64 KiB header ceiling
(:data:`~repro.transport.http11.MAX_HEADER_BYTES`).  Both decide
connection reuse with one rule, :func:`~repro.transport.http11.keeps_alive`.

The matching :class:`HttpClient` speaks the same dialect over up to
``pool_size`` plain sockets (no ``http.client``): concurrent callers —
the resilient proxy, the crawler, the fleet monitor's scrapes — each
borrow their own connection instead of queueing on a single socket.
"""

from __future__ import annotations

import os
import queue
import select
import socket
import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable, Optional

from ..observability.metrics import MetricFamily
from ..observability.runtime import OBS, server_span
from ..observability.trace import TRACEPARENT_HEADER
from .http11 import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    HttpRequest,
    HttpResponse,
    _Headers,
    bodyless_status,
    keeps_alive,
    parse_request,
    parse_response,
)

__all__ = ["HttpServer", "HttpClient", "pool_metric_families", "serve_once"]

Handler = Callable[[HttpRequest], HttpResponse]

#: Access-log hook signature: (method, target, status, duration_seconds).
RequestObserver = Callable[[str, str, int, float], None]

_RECV_CHUNK = 65536

#: Methods safe to replay after a mid-exchange failure (RFC 7231 §4.2.2).
#: ``POST``/``PATCH`` are *not* here: replaying one can double-apply a
#: side effect, so their retries belong to an explicit
#: :mod:`repro.resilience` policy, never to the transport.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS"})


def _frame_content_length(head: bytes) -> int:
    """Framing ``Content-Length`` from a raw header block.

    Applies exactly the rules of
    :func:`repro.transport.http11.content_length_of` — in particular,
    *duplicate* ``Content-Length`` headers are rejected rather than
    resolved first-wins or last-wins.  The seed framed on the last copy
    while the parser read the first: two layers disagreeing about where
    a message ends is the request-smuggling desync this refuses.
    """
    values: list[bytes] = []
    for line in head.split(b"\r\n")[1:]:
        if line.lower().startswith(b"content-length:"):
            values.append(line.split(b":", 1)[1].strip())
    if not values:
        return 0
    if len(values) > 1:
        raise HttpError(
            "duplicate Content-Length headers (request-smuggling shape)"
        )
    try:
        length = int(values[0])
    except ValueError as exc:
        raise HttpError("bad Content-Length") from exc
    if length < 0:
        raise HttpError("negative Content-Length")
    if length > MAX_BODY_BYTES:
        raise HttpError("body too large", status=413)
    return length


def _response_status_of(head: bytes) -> Optional[int]:
    """The status code when ``head`` frames an HTTP *response*, else None.

    The framer needs it because bodyless statuses (1xx/204/304 —
    :func:`~repro.transport.http11.bodyless_status`) are terminated by
    the header section regardless of any ``Content-Length`` they carry:
    framing over a 304's would-be length reads the *next* response's
    bytes as body — the keep-alive desync this module refuses to have.
    """
    if not head.startswith(b"HTTP/"):
        return None
    parts = head.split(b"\r\n", 1)[0].split(b" ", 2)
    if len(parts) < 2:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def _read_message(
    sock: socket.socket,
    buffer: bytes = b"",
    *,
    head_response: bool = False,
) -> tuple[Optional[bytes], bytes]:
    """Read one exactly-framed HTTP message; return ``(message, leftover)``.

    ``buffer`` carries bytes already read off the socket (the tail of a
    previous keep-alive exchange); any bytes past this message's framing
    come back as ``leftover`` so pipelined messages survive intact —
    the seed concatenated them onto the body and silently lost them.

    Returns ``(None, b"")`` on clean EOF — or on a socket timeout —
    before any bytes arrive (an idle keep-alive connection going away is
    not an error).  A timeout *after* bytes arrived means the peer
    stalled mid-message; that surfaces as :class:`HttpError` 408.
    Headers above :data:`MAX_HEADER_BYTES` raise 431 — the same ceiling
    the message parser enforces.  ``head_response=True`` frames the
    response to a ``HEAD`` request, whose ``Content-Length`` describes a
    body that never arrives.
    """
    # read until the header terminator
    while b"\r\n\r\n" not in buffer:
        if len(buffer) > MAX_HEADER_BYTES:
            raise HttpError("header section too large", status=431)
        try:
            chunk = sock.recv(_RECV_CHUNK)
        except socket.timeout:
            if not buffer:
                return None, b""  # idle keep-alive connection; close quietly
            raise HttpError("client stalled mid-headers", status=408) from None
        if not chunk:
            if not buffer:
                return None, b""
            raise HttpError("connection closed mid-headers")
        buffer += chunk
    head, _, rest = buffer.partition(b"\r\n\r\n")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError("header section too large", status=431)
    if head_response:
        content_length = 0
    else:
        content_length = _frame_content_length(head)
        status = _response_status_of(head)
        if status is not None and bodyless_status(status):
            # 1xx/204/304: header-terminated whatever Content-Length
            # says (RFC 7230 §3.3.3) — the length, already validated
            # above, describes a body that never arrives.
            content_length = 0
    while len(rest) < content_length:
        try:
            chunk = sock.recv(_RECV_CHUNK)
        except socket.timeout:
            raise HttpError("client stalled mid-body", status=408) from None
        if not chunk:
            raise HttpError("connection closed mid-body")
        rest += chunk
    return head + b"\r\n\r\n" + rest[:content_length], rest[content_length:]


def _buffered_message_ready(buffer: bytes) -> bool:
    """Does ``buffer`` already hold one complete message?

    Used by workers to serve pipelined requests back-to-back without a
    trip through the epoll set.  Malformed framing counts as "ready": the
    worker must dispatch it to produce the 400/413/431 diagnostic.
    """
    separator = buffer.find(b"\r\n\r\n")
    if separator == -1:
        return len(buffer) > MAX_HEADER_BYTES  # ready to be rejected (431)
    try:
        length = _frame_content_length(buffer[:separator])
    except HttpError:
        return True
    return len(buffer) - (separator + 4) >= length


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

        Loops while complete pipelined messages sit in the connection
        buffer (no trip through the epoll set between them), re-arms the
        connection when the buffer runs dry, closes it when the request
        ends persistence (:func:`~repro.transport.http11.keeps_alive`),
        on errors, or on EOF.
        """
        while self._running:
            try:
                raw, conn.buffer = _read_message(conn.sock, conn.buffer)
            except HttpError as exc:
                # a stalled or malformed peer gets a diagnostic response
                # (408 timeout / 400 framing / 431 headers) before close
                response = HttpResponse.error(exc.status, str(exc))
                response.headers.set("Connection", "close")
                try:
                    conn.sock.sendall(response.to_bytes())
                except OSError:  # pragma: no cover - peer already gone
                    pass
                break
            except (socket.timeout, OSError):
                break
            if raw is None:
                break  # clean EOF
            try:
                request = parse_request(raw)
                request.client_address = conn.peer
            except HttpError as exc:
                response = HttpResponse.error(exc.status, str(exc))
                response.headers.set("Connection", "close")
                try:
                    conn.sock.sendall(response.to_bytes())
                except OSError:  # pragma: no cover
                    pass
                break
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
            if conn.buffer and _buffered_message_ready(conn.buffer):
                continue  # next pipelined request is already here
            self._rearm(conn)
            return
        self._discard(conn)

    def _handle(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one parsed request: handler + telemetry + access hook.

        The server span (parented on an inbound ``traceparent`` header,
        when present) is *active* while the handler runs, so endpoint
        spans opened inside — SOAP dispatch, REST dispatch, bus calls —
        nest under it and share its trace.
        """
        start = time.perf_counter()
        attributes = {"http.method": request.method, "http.target": request.target}
        if self.node_name is not None:
            attributes["node"] = self.node_name
        with server_span(
            "http.server",
            header=request.headers.get(TRACEPARENT_HEADER),
            **attributes,
        ) as span:
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


class _PooledConnection:
    """Client-side pooled socket: keep-alive state + leftover buffer."""

    __slots__ = ("sock", "buffer", "last_used")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buffer = b""
        self.last_used = time.monotonic()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass

    def stale(self) -> bool:
        """Did the server already close (or poison) this idle keep-alive
        socket?

        One zero-timeout ``poll``: a healthy idle socket has nothing to
        read, so a readable one holds EOF (the server closed while we
        idled), an error, or unsolicited bytes (framing desync) — each
        makes it unusable.  Detecting staleness *before* writing is what
        lets even non-idempotent requests migrate to a fresh connection
        safely: no bytes of theirs were ever sent.
        """
        probe = select.poll()
        probe.register(self.sock, select.POLLIN)
        return bool(probe.poll(0))


#: Every live HttpClient, for scrape-time capacity gauges.  A WeakSet so
#: the registry never keeps a discarded client (and its idle sockets)
#: alive; iteration snapshots under the lock because clients are created
#: from many threads.
_LIVE_CLIENTS: "weakref.WeakSet[HttpClient]" = weakref.WeakSet()
_LIVE_CLIENTS_LOCK = threading.Lock()


def pool_metric_families() -> list[MetricFamily]:
    """Capacity gauges over every live :class:`HttpClient` pool.

    Aggregated per ``authority`` (``host:port``) across clients:
    ``repro_transport_pool_in_use``, ``_idle`` and ``_waiters`` — the
    waiters gauge is the early-warning signal that borrowers are queueing
    *before* the borrow-timeout ``OSError`` ever fires.  The global
    registry reaches these through a collector in
    :mod:`repro.observability.runtime` (observability never imports the
    transport layer; it just reads this module when already loaded).
    """
    with _LIVE_CLIENTS_LOCK:
        clients = list(_LIVE_CLIENTS)
    in_use: dict[tuple[str, ...], float] = {}
    idle: dict[tuple[str, ...], float] = {}
    waiters: dict[tuple[str, ...], float] = {}
    for client in clients:
        if client.closed:
            # close()d but still referenced: not in service — exporting
            # its (all-zero) series would keep dead authorities on
            # /metrics forever.  The flag clears if the client redials.
            continue
        stats = client.pool_stats()
        key = (f"{client.host}:{client.port}",)
        in_use[key] = in_use.get(key, 0.0) + stats["in_use"]
        idle[key] = idle.get(key, 0.0) + stats["idle"]
        waiters[key] = waiters.get(key, 0.0) + stats["waiters"]
    labelnames = ("authority",)
    return [
        MetricFamily(
            "repro_transport_pool_in_use",
            "gauge",
            "HTTP client pool connections currently borrowed, by authority.",
            labelnames,
            in_use,
        ),
        MetricFamily(
            "repro_transport_pool_idle",
            "gauge",
            "HTTP client pool connections idle in keep-alive, by authority.",
            labelnames,
            idle,
        ),
        MetricFamily(
            "repro_transport_pool_waiters",
            "gauge",
            "Threads blocked waiting to borrow a pooled connection, by authority.",
            labelnames,
            waiters,
        ),
    ]


class _ValidationEntry:
    """One validated GET representation: body + the validators it carried."""

    __slots__ = ("etag", "last_modified", "body", "headers")

    def __init__(
        self,
        etag: Optional[str],
        last_modified: Optional[str],
        body: bytes,
        headers: list[tuple[str, str]],
    ) -> None:
        self.etag = etag
        self.last_modified = last_modified
        self.body = body
        self.headers = headers


class _ValidationCache:
    """Bounded LRU of ``target -> validated representation`` per authority.

    The client-side half of HTTP validation caching: a stored entry's
    validators ride the next GET to the same target (``If-None-Match``
    / ``If-Modified-Since``), and a ``304 Not Modified`` answer is
    resolved against the stored body — the representation crosses the
    wire once, every revalidation after that is headers-only.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "stores", "bytes_saved")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[str, _ValidationEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0        # 304s resolved from the store
        self.stores = 0      # validated 200s cached
        self.bytes_saved = 0  # body bytes a 304 did not re-transfer

    def get(self, target: str) -> Optional[_ValidationEntry]:
        with self._lock:
            entry = self._entries.get(target)
            if entry is not None:
                self._entries.move_to_end(target)
            return entry

    def put(self, target: str, entry: _ValidationEntry) -> None:
        with self._lock:
            self._entries[target] = entry
            self._entries.move_to_end(target)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self.stores += 1

    def remove(self, target: str) -> None:
        with self._lock:
            self._entries.pop(target, None)

    def record_hit(self, saved: int) -> None:
        with self._lock:
            self.hits += 1
            self.bytes_saved += saved

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "stores": self.stores,
                "bytes_saved": self.bytes_saved,
            }


class HttpClient:
    """Pooled persistent-connection HTTP client over raw sockets.

    Up to ``pool_size`` keep-alive sockets are kept to ``host:port``;
    concurrent callers each borrow one (waiting up to ``timeout`` when
    all are busy), so requests from many threads overlap on the wire
    instead of serializing on a single global lock.  Idle sockets are
    reaped after ``idle_ttl`` seconds and probed for staleness before
    reuse.  Mid-exchange failures are retried once on a fresh
    connection for idempotent methods only (RFC 7231 §4.2.2); a failed
    ``POST``/``PATCH`` surfaces immediately — replay policy belongs to
    :mod:`repro.resilience`, not the transport.

    ``validation_cache`` bounds a per-authority LRU of validated GET
    representations (url → etag/body): when a server tags responses
    with ``ETag``/``Last-Modified``, later GETs to the same target
    revalidate transparently (``If-None-Match``/``If-Modified-Since``)
    and a ``304`` is answered to the caller as the stored ``200`` —
    same body, zero body bytes on the wire.  ``0`` disables.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        *,
        pool_size: int = 4,
        idle_ttl: float = 30.0,
        validation_cache: int = 64,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if idle_ttl <= 0:
            raise ValueError("idle_ttl must be positive")
        if validation_cache < 0:
            raise ValueError("validation_cache cannot be negative")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.pool_size = pool_size
        self.idle_ttl = idle_ttl
        self.created_connections = 0  # pool stats (tests, debugging)
        self.reaped_connections = 0
        self.closed = False  # set by close(); cleared if the client redials
        self._validation = (
            _ValidationCache(validation_cache) if validation_cache else None
        )
        self._idle: list[_PooledConnection] = []
        self._in_use = 0
        self._waiters = 0
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        with _LIVE_CLIENTS_LOCK:
            _LIVE_CLIENTS.add(self)

    # -- pool internals --------------------------------------------------
    def _acquire(self) -> _PooledConnection:
        """Borrow a connection: pooled if healthy, else freshly dialed."""
        deadline = time.monotonic() + self.timeout
        with self._available:
            self.closed = False  # back in service: gauges resume
            while True:
                while self._idle:
                    conn = self._idle.pop()  # LIFO: warmest socket first
                    if (
                        time.monotonic() - conn.last_used > self.idle_ttl
                        or conn.stale()
                    ):
                        conn.close()
                        self.reaped_connections += 1
                        continue
                    self._in_use += 1
                    return conn
                if self._in_use < self.pool_size:
                    self._in_use += 1  # reserve the slot; dial unlocked
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise OSError(
                        f"HTTP connection pool to {self.host}:{self.port} "
                        f"exhausted ({self.pool_size} in use)"
                    )
                self._waiters += 1
                try:
                    signalled = self._available.wait(remaining)
                finally:
                    self._waiters -= 1
                if not signalled:
                    raise OSError(
                        f"HTTP connection pool to {self.host}:{self.port} "
                        f"exhausted ({self.pool_size} in use)"
                    )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except BaseException:
            with self._available:
                self._in_use -= 1
                self._available.notify()
            raise
        self.created_connections += 1
        return _PooledConnection(sock)

    def _release(self, conn: _PooledConnection, *, reusable: bool) -> None:
        with self._available:
            self._in_use -= 1
            if reusable:
                conn.last_used = time.monotonic()
                self._idle.append(conn)
            else:
                conn.close()
            self._available.notify()

    def pool_stats(self) -> dict[str, int]:
        """Point-in-time pool occupancy (for tests and dashboards).

        ``waiters`` counts threads currently blocked in ``_acquire``
        waiting for a borrow slot — nonzero means the pool is the
        bottleneck *now*, ahead of any borrow-timeout ``OSError``.
        """
        with self._lock:
            return {
                "idle": len(self._idle),
                "in_use": self._in_use,
                "waiters": self._waiters,
                "pool_size": self.pool_size,
                "created": self.created_connections,
                "reaped": self.reaped_connections,
            }

    def close(self) -> None:
        """Close every idle pooled socket.  The client stays usable:
        the next request simply dials fresh connections.  Until it does,
        ``closed`` keeps the pool gauges from exporting series for a
        client that is merely *referenced*, not in service."""
        with self._available:
            idle, self._idle = self._idle, []
            self.closed = True
        for conn in idle:
            conn.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests --------------------------------------------------------
    def request(self, request: HttpRequest) -> HttpResponse:
        """Send one request over a pooled connection.

        When a trace is active on this thread, the request carries a
        ``traceparent`` header (unless the caller set one), so the server
        side joins the same trace — every HTTP-based binding inherits
        propagation from this one seam.

        Only idempotent methods are retried (once, on a fresh socket)
        after a mid-exchange failure; for everything the stale probe in
        the pool already covers the "connection died before any bytes
        were written" case by never handing out a detectably-dead socket.
        """
        if OBS.enabled and OBS.tracer.sampling:
            context = OBS.tracer.current()
            if (
                context is not None
                and request.headers.get(TRACEPARENT_HEADER) is None
            ):
                request.headers.set(TRACEPARENT_HEADER, context.traceparent())
        stored = self._prepare_validation(request)
        attempts = 2 if request.method in IDEMPOTENT_METHODS else 1
        payload = request.to_bytes()
        for attempt in range(1, attempts + 1):
            conn = self._acquire()
            reusable = False
            try:
                conn.sock.sendall(payload)
                raw, leftover = _read_message(
                    conn.sock,
                    conn.buffer,
                    head_response=request.method == "HEAD",
                )
                conn.buffer = b""
                if raw is None:
                    raise OSError("server closed connection")
                response = parse_response(
                    raw, head_response=request.method == "HEAD"
                )
                conn.buffer = leftover
                reusable = keeps_alive(
                    request.version, request.headers
                ) and keeps_alive(response.version, response.headers)
                return self._resolve_validation(request, response, stored)
            except (OSError, HttpError):
                if attempt >= attempts:
                    raise
            finally:
                self._release(conn, reusable=reusable)
        raise AssertionError("unreachable")  # pragma: no cover

    # -- validation caching ----------------------------------------------
    def _prepare_validation(
        self, request: HttpRequest
    ) -> Optional[_ValidationEntry]:
        """Attach stored validators to an eligible GET; return the entry.

        A request that already carries its own conditional headers is the
        caller's business — the client neither overrides them nor resolves
        the resulting 304 (the caller asked for it and gets it raw).
        """
        if self._validation is None or request.method != "GET":
            return None
        if (
            "If-None-Match" in request.headers
            or "If-Modified-Since" in request.headers
        ):
            return None
        entry = self._validation.get(request.target)
        if entry is None:
            return None
        if entry.etag:
            request.headers.set("If-None-Match", entry.etag)
        if entry.last_modified:
            request.headers.set("If-Modified-Since", entry.last_modified)
        return entry

    def _resolve_validation(
        self,
        request: HttpRequest,
        response: HttpResponse,
        stored: Optional[_ValidationEntry],
    ) -> HttpResponse:
        """Store validated 200s; answer our own 304s from the store."""
        if self._validation is None or request.method != "GET":
            return response
        if response.status == 304 and stored is not None:
            self._validation.record_hit(len(stored.body))
            OBS.instruments.client_validation.inc(outcome="revalidated")
            resolved = HttpResponse(
                200, _Headers(list(stored.headers)), stored.body
            )
            # a 304 may refresh validators/caching headers (RFC 7232 §4.1)
            for name in ("ETag", "Last-Modified", "Cache-Control", "Date"):
                value = response.headers.get(name)
                if value is not None:
                    resolved.headers.set(name, value)
            return resolved
        if response.status == 200:
            etag = response.headers.get("ETag")
            last_modified = response.headers.get("Last-Modified")
            if etag or last_modified:
                self._validation.put(
                    request.target,
                    _ValidationEntry(
                        etag, last_modified, response.body, response.headers.items()
                    ),
                )
                OBS.instruments.client_validation.inc(outcome="stored")
            else:
                self._validation.remove(request.target)
        elif 400 <= response.status < 600 or response.status == 304:
            # stored==None 304 (caller's own conditional) or an error:
            # the stored representation may be stale — drop it.
            self._validation.remove(request.target)
        return response

    def validation_stats(self) -> dict[str, int]:
        """Validation-cache counters (entries, hits, stores, bytes_saved)."""
        if self._validation is None:
            return {"entries": 0, "hits": 0, "stores": 0, "bytes_saved": 0}
        return self._validation.stats()

    # -- verb helpers ---------------------------------------------------
    def get(self, target: str, headers: Optional[dict[str, str]] = None) -> HttpResponse:
        return self.request(HttpRequest("GET", target, dict(headers or {})))

    def head(self, target: str, headers: Optional[dict[str, str]] = None) -> HttpResponse:
        return self.request(HttpRequest("HEAD", target, dict(headers or {})))

    def post(
        self,
        target: str,
        body: bytes | str,
        content_type: str = "application/octet-stream",
        headers: Optional[dict[str, str]] = None,
    ) -> HttpResponse:
        payload = body.encode("utf-8") if isinstance(body, str) else body
        merged = {"Content-Type": content_type, **(headers or {})}
        return self.request(HttpRequest("POST", target, merged, payload))

    def put(
        self,
        target: str,
        body: bytes | str,
        content_type: str = "application/octet-stream",
        headers: Optional[dict[str, str]] = None,
    ) -> HttpResponse:
        payload = body.encode("utf-8") if isinstance(body, str) else body
        merged = {"Content-Type": content_type, **(headers or {})}
        return self.request(HttpRequest("PUT", target, merged, payload))

    def delete(self, target: str, headers: Optional[dict[str, str]] = None) -> HttpResponse:
        return self.request(HttpRequest("DELETE", target, dict(headers or {})))


def serve_once(handler: Handler, request: HttpRequest) -> HttpResponse:
    """Run a handler through the full wire codec without a socket.

    Serializes the request to bytes, reparses, dispatches, serializes the
    response and reparses it — so tests exercise the codec path without
    network nondeterminism.
    """
    reparsed = parse_request(request.to_bytes())
    response = handler(reparsed)
    return parse_response(response.to_bytes())
