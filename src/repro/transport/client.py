"""Pooled keep-alive HTTP client over raw sockets.

Up to ``pool_size`` plain sockets (no ``http.client``) per authority, so
concurrent callers — the resilient proxy, the crawler, the fleet
monitor's scrapes — each borrow their own connection.  Responses are
framed by :func:`~repro.transport.http11.read_response`, the server's
framer.
"""

from __future__ import annotations

import select
import socket
import threading
import time
import weakref
from collections import OrderedDict
from typing import Optional

from ..observability.metrics import MetricFamily
from ..observability.runtime import OBS
from ..observability.trace import TRACEPARENT_HEADER
from .http11 import (
    HttpError,
    HttpRequest,
    HttpResponse,
    _Headers,
    keeps_alive,
    read_response,
)

__all__ = ["HttpClient", "IDEMPOTENT_METHODS", "pool_metric_families"]

#: Methods safe to replay after a mid-exchange failure (RFC 7231 §4.2.2).
#: ``POST``/``PATCH`` are *not* here: replaying one can double-apply a
#: side effect, so their retries belong to an explicit
#: :mod:`repro.resilience` policy, never to the transport.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS"})


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
                response, conn.buffer = read_response(
                    conn.sock, conn.buffer, head_response=request.method == "HEAD"
                )
                if response is None:
                    raise OSError("server closed connection")
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
