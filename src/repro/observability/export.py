"""Batch span export: ship kept traces off-node without slowing them.

PR 8's trace plane starts here.  A :class:`BatchSpanExporter` is the
last link of the local pipeline — chained *after* the
:class:`~repro.observability.sampling.TailSampler`, so only traces the
tail policy kept ever cross the wire::

    store = TraceStore()                          # services.tracestore
    server = HttpServer(compose_handlers(tracestore_routes(store))).start()
    exporter = BatchSpanExporter(server.host, server.port, node="gateway")
    OBS.enable(TailSampler(exporter, slow_threshold=0.25))

Finished spans land in a bounded queue as-is; a daemon thread drains
the queue, serializes with :meth:`Span.to_dict`, and ships batched JSON
POSTs (``{"node": ..., "spans": [...]}`` to ``/traces/ingest``) over
one pooled :class:`~repro.transport.client.HttpClient`.  Two
properties are non-negotiable:

* **drop, never block** — a full queue or a dead store costs the
  request thread nothing but a counted drop
  (``repro_trace_export_dropped_total{reason=...}``); the hot path is
  one lock-guarded ``append``.
* **no feedback loop** — every ingest POST carries an explicit
  ``traceparent`` with the W3C flags byte cleared (``sampled=False``),
  so the store's *own* server span for the POST is head-dropped by its
  tail sampler instead of being exported back to itself forever.

``repro_trace_export_{exported,dropped,batches}_total`` make the
exporter observable through the same ``/metrics`` page as everything
else; exact local counters (``exported``/``dropped``/``batches``)
serve tests that run without an enabled runtime.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Optional

from .trace import Span, TRACEPARENT_HEADER, TraceContext

__all__ = ["BatchSpanExporter", "INGEST_PATH"]

#: Route the exporter POSTs batches to (served by ``tracestore_routes``).
INGEST_PATH = "/traces/ingest"

#: Fixed synthetic context for ingest POSTs: ``sampled=False`` tells the
#: store's own tail sampler to discard its server span for the POST
#: without buffering — the self-silencing that keeps export acyclic.
_SILENCED = TraceContext(
    trace_id=0x5E1F511E27CE000000000000000000E5, span_id=0x5E1F511E27CE00E5,
    sampled=False,
)


class BatchSpanExporter:
    """Bounded-queue, background-flush span shipper (an exporter).

    It slots anywhere a
    :class:`~repro.observability.trace.SpanCollector` would — though the
    intended position is downstream of a ``TailSampler``.  ``export`` is
    the only hot-path method: it enqueues (or drops) and returns.  The
    flusher thread wakes every ``flush_interval`` seconds or as soon as
    ``batch_size`` spans are waiting, whichever is sooner.

    Pass ``client`` to ride a shared pooled
    :class:`~repro.transport.client.HttpClient` (e.g. from the
    resilience layer's ``PooledHttpClients``); otherwise the exporter
    dials its own against ``host:port`` lazily and closes it with the
    exporter.
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        *,
        node: str = "node",
        client: Optional[Any] = None,
        max_queue: int = 2048,
        batch_size: int = 64,
        flush_interval: float = 0.25,
    ) -> None:
        if client is None and (host is None or port is None):
            raise ValueError("need host+port or an HttpClient")
        if max_queue < 1 or batch_size < 1:
            raise ValueError("max_queue and batch_size must be positive")
        if flush_interval <= 0:
            raise ValueError("flush_interval must be positive")
        self.node = node
        self.max_queue = max_queue
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self._host = host
        self._port = port
        self._client = client
        self._owns_client = client is None
        self._queue: deque[Span] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._send_lock = threading.Lock()  # one batch on the wire at a time
        self._closed = False
        # exact local ledger (tests without an enabled OBS read these)
        self.exported = 0
        self.dropped = 0
        self.batches = 0
        self.failed_batches = 0
        self._thread = threading.Thread(
            target=self._run, name=f"span-exporter[{node}]", daemon=True
        )
        self._thread.start()

    # -- exporter interface ---------------------------------------------
    def export(self, span: Span) -> None:
        """Enqueue one finished span; drop (counted) instead of blocking.

        Serialization is deferred to the flusher thread — the request
        path pays one lock-guarded append, nothing more.  Unsampled
        spans (a head decision upstream, or the store's own silenced
        ingest spans when no tail sampler sits in between) never
        enqueue: shipping them would be wasted wire at best and a
        self-export feedback loop at worst.
        """
        if not span.sampled:
            self._count_drop(1, "unsampled")
            return
        drop = None
        with self._wake:
            if self._closed:
                drop = "closed"
            elif len(self._queue) >= self.max_queue:
                drop = "queue_full"
            else:
                self._queue.append(span)
                if len(self._queue) >= self.batch_size:
                    self._wake.notify()
        if drop is not None:
            self._count_drop(1, drop)

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> int:
        """Drain the queue on the calling thread; spans shipped this call."""
        shipped = 0
        while True:
            with self._lock:
                batch = self._take_batch()
            if not batch:
                return shipped
            shipped += self._post(batch)

    def close(self) -> None:
        """Final flush, stop the flusher, release an owned client."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._thread.join(timeout=5.0)
        self.flush()
        if self._owns_client and self._client is not None:
            self._client.close()

    def __enter__(self) -> "BatchSpanExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- flusher ---------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._wake:
                if not self._closed and len(self._queue) < self.batch_size:
                    self._wake.wait(self.flush_interval)
                if self._closed and not self._queue:
                    return
                batch = self._take_batch()
            if batch:
                self._post(batch)

    def _take_batch(self) -> list[Span]:
        """Pop up to ``batch_size`` queued spans (caller holds the lock)."""
        batch = []
        while self._queue and len(batch) < self.batch_size:
            batch.append(self._queue.popleft())
        return batch

    def _post(self, batch: list[Span]) -> int:
        """POST one batch; returns spans shipped (0 on failure, counted)."""
        from ..transport.http11 import HttpRequest  # lazy: layering

        body = json.dumps(
            {"node": self.node, "spans": [span.to_dict() for span in batch]}
        ).encode()
        request = HttpRequest(
            "POST",
            INGEST_PATH,
            headers={
                "Content-Type": "application/json",
                TRACEPARENT_HEADER: _SILENCED.traceparent(),
            },
            body=body,
        )
        try:
            with self._send_lock:
                response = self._ensure_client().request(request)
            if response.status >= 300:
                raise OSError(f"trace store answered {response.status}")
        except Exception:
            self._count_batch("error")
            self._count_drop(len(batch), "send_failed")
            return 0
        self._count_batch("ok")
        with self._lock:
            self.exported += len(batch)
        from .runtime import OBS  # local: runtime imports trace, not us

        if OBS.enabled:
            OBS.instruments.trace_export_exported.inc(len(batch))
        return len(batch)

    def _ensure_client(self) -> Any:
        if self._client is None:
            from ..transport.client import HttpClient  # lazy: layering

            self._client = HttpClient(self._host, self._port)
        return self._client

    # -- counters --------------------------------------------------------
    def _count_drop(self, n: int, reason: str) -> None:
        with self._lock:
            self.dropped += n
        from .runtime import OBS

        if OBS.enabled:
            OBS.instruments.trace_export_dropped.inc(n, reason=reason)

    def _count_batch(self, outcome: str) -> None:
        with self._lock:
            self.batches += 1
            if outcome != "ok":
                self.failed_batches += 1
        from .runtime import OBS

        if OBS.enabled:
            OBS.instruments.trace_export_batches.inc(outcome=outcome)
