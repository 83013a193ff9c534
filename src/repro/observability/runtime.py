"""The process-wide observability seam every instrumented module shares.

Call sites throughout the stack do::

    from ..observability.runtime import OBS
    ...
    if OBS.enabled:
        OBS.instruments.broker_ops.inc(op="publish", outcome="ok")

Disabled (the default) the whole subsystem costs one attribute load and
a branch per call site; :meth:`Observability.enable` turns recording on,
optionally with a span exporter.  Hot-path instruments keep bespoke
storage (:class:`BusDispatchMetrics`) exposed through a registry
collector; everything lands in one ``/metrics`` page.

``observed(...)`` is the test/example-facing context manager: it swaps
in a *fresh* registry + tracer, yields, and restores — so suites never
leak samples into each other.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .metrics import (
    LATENCY_BUCKETS,
    MetricFamily,
    MetricsRegistry,
)
from .trace import Tracer

__all__ = [
    "BusDispatchMetrics",
    "Instruments",
    "Observability",
    "OBS",
    "observed",
]

#: Buckets used by the bus dispatch histogram — bus calls are
#: microsecond-scale, so the default latency buckets would collapse
#: everything into the first bin.
BUS_BUCKETS: tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
    0.0005, 0.001, 0.0025, 0.005, 0.025, 0.1,
)


class _OpRecord:
    """Per-operation bus dispatch numbers.

    ``ok``/``fault`` are :func:`itertools.count` ticks: advancing one is
    a single C-level call — atomic under the GIL and ~7× cheaper than a
    lock acquire — so the exact outcome counts cost almost nothing on
    the hot path.  The lock guards only the *sampled* latency state
    (``counts``/``total``), which is touched 1-in-N dispatches.
    """

    __slots__ = ("lock", "ok", "fault", "total", "counts")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.lock = threading.Lock()
        self.ok = itertools.count()
        self.fault = itertools.count()
        self.total = 0.0
        self.counts = [0] * (len(buckets) + 1)


def _tick_value(tick: "itertools.count") -> int:
    """How many times ``next(tick)`` has been called.

    ``repr(itertools.count(n))`` is ``"count(n)"`` where ``n`` is the
    next value to be produced — i.e. the number of ticks so far for a
    zero-based, step-1 counter.  Reading it this way keeps the write
    path a bare ``next()``.
    """
    text = repr(tick)
    return int(text[6:-1])


class BusDispatchMetrics:
    """Hot-path recorder for in-process bus dispatches.

    The bus is the fastest path in the system (~5µs/call), so this
    recorder is built for cheapness rather than generality:

    * exact ``ok``/``fault`` counts per operation as atomic
      ``itertools.count`` ticks (no lock on the count path);
    * latency *sampled* 1-in-``latency_sample`` dispatches (a shared
      tick and a power-of-two mask decide), so the two ``perf_counter``
      calls and the locked bucket update are paid only on sampled
      ticks.

    Scrapes see two families: ``repro_bus_dispatch_total`` (exact) and
    ``repro_bus_dispatch_seconds`` (sampled; the help string names the
    sampling factor).
    """

    def __init__(
        self,
        *,
        latency_sample: int = 8,
        buckets: tuple[float, ...] = BUS_BUCKETS,
    ) -> None:
        if latency_sample < 1 or latency_sample & (latency_sample - 1):
            raise ValueError("latency_sample must be a power of two")
        self.buckets = buckets
        self.mask = latency_sample - 1
        self.latency_sample = latency_sample
        self.tick = itertools.count()
        self.records: dict[str, _OpRecord] = {}
        self._lock = threading.Lock()

    def record_for(self, operation: str) -> _OpRecord:
        record = self.records.get(operation)
        if record is None:
            with self._lock:
                record = self.records.get(operation)
                if record is None:
                    record = _OpRecord(self.buckets)
                    self.records[operation] = record
        return record

    # -- non-hot-path conveniences --------------------------------------
    def calls(self, operation: str) -> tuple[int, int]:
        """(ok, fault) counts for one operation."""
        record = self.records.get(operation)
        if record is None:
            return (0, 0)
        return (_tick_value(record.ok), _tick_value(record.fault))

    def families(self) -> list[MetricFamily]:
        with self._lock:
            records = dict(self.records)
        totals: dict[tuple[str, ...], float] = {}
        latencies: dict[tuple[str, ...], Any] = {}
        for operation, record in sorted(records.items()):
            ok = _tick_value(record.ok)
            fault = _tick_value(record.fault)
            with record.lock:
                counts = list(record.counts)
                total = record.total
            if ok:
                totals[(operation, "ok")] = float(ok)
            if fault:
                totals[(operation, "fault")] = float(fault)
            latencies[(operation,)] = (counts, total, sum(counts))
        return [
            MetricFamily(
                "repro_bus_dispatch_total",
                "counter",
                "Bus dispatches by operation and outcome.",
                ("operation", "outcome"),
                totals,
            ),
            MetricFamily(
                "repro_bus_dispatch_seconds",
                "histogram",
                f"Bus dispatch latency (sampled 1-in-{self.mask + 1}).",
                ("operation",),
                latencies,
                self.buckets,
            ),
        ]


def _transport_pool_families() -> list[MetricFamily]:
    """Scrape-time bridge to the HttpClient pool gauges, if transport is up."""
    transport = sys.modules.get("repro.transport.client")
    if transport is None:
        return []
    return transport.pool_metric_families()


def _service_cache_families() -> list[MetricFamily]:
    """Scrape-time bridge to sharded-cache stats, if the service is up."""
    cache_service = sys.modules.get("repro.services.cache_service")
    if cache_service is None:
        return []
    return cache_service.cache_metric_families()


class Instruments:
    """Every pre-registered instrument family, one attribute each.

    Families exist from process start (help/type rows render even with
    zero samples), so a ``/metrics`` scrape documents the full surface
    before the first request arrives.
    """

    def __init__(
        self, registry: MetricsRegistry, *, bus_latency_sample: int = 8
    ) -> None:
        self.registry = registry
        self.bus = BusDispatchMetrics(latency_sample=bus_latency_sample)
        registry.register_collector(self.bus.families)
        self.transport_requests = registry.counter(
            "repro_transport_requests_total",
            "HTTP requests served, by method and status.",
            ("method", "status"),
        )
        self.transport_seconds = registry.histogram(
            "repro_transport_request_seconds",
            "Server-side HTTP request duration.",
            ("method",),
            buckets=LATENCY_BUCKETS,
        )
        self.transport_workers_busy = registry.gauge(
            "repro_transport_workers_busy",
            "HTTP server worker threads currently handling a request.",
            ("server",),
        )
        self.transport_queue_depth = registry.gauge(
            "repro_transport_accept_queue_depth",
            "Readable connections waiting for a free HTTP server worker.",
            ("server",),
        )
        self.transport_rejections = registry.counter(
            "repro_transport_rejected_total",
            "Connections refused 503 at saturation (queue or conn limit).",
            ("server",),
        )
        self.client_calls = registry.counter(
            "repro_client_calls_total",
            "Outbound SOAP/REST client calls, by binding and outcome.",
            ("binding", "outcome"),
        )
        self.broker_ops = registry.counter(
            "repro_broker_operations_total",
            "Broker registry operations, by op and outcome.",
            ("op", "outcome"),
        )
        self.broker_qos = registry.counter(
            "repro_broker_qos_reports_total",
            "Client QoS reports fed to the broker, by kind.",
            ("kind",),
        )
        self.crawler_fetches = registry.counter(
            "repro_crawler_fetches_total",
            "Crawler page fetches, by outcome.",
            ("outcome",),
        )
        self.crawler_quarantine = registry.counter(
            "repro_crawler_quarantine_events_total",
            "Crawler quarantine lifecycle events.",
            ("event",),
        )
        self.webapp_requests = registry.counter(
            "repro_webapp_requests_total",
            "Web application requests, by outcome.",
            ("outcome",),
        )
        self.webapp_seconds = registry.histogram(
            "repro_webapp_request_seconds",
            "Web application request duration.",
            (),
            buckets=LATENCY_BUCKETS,
        )
        self.resilience_events = registry.counter(
            "repro_resilience_events_total",
            "Resilience middleware outcomes that deviated from plain success.",
            ("event",),
        )
        self.logs_emitted = registry.counter(
            "repro_logs_emitted_total",
            "Structured log records emitted, by level.",
            ("level",),
        )
        self.spans_dropped = registry.counter(
            "repro_spans_dropped_total",
            "Spans discarded by bounded collectors and the tail sampler.",
            ("reason",),
        )
        self.trace_sampling = registry.counter(
            "repro_trace_sampling_total",
            "Tail-sampling verdicts per trace, by decision.",
            ("decision",),
        )
        self.monitor_scrapes = registry.counter(
            "repro_monitor_scrapes_total",
            "Fleet monitor scrape attempts, by node and outcome.",
            ("node", "outcome"),
        )
        self.slo_alerts = registry.counter(
            "repro_slo_alert_transitions_total",
            "SLO alert state transitions, by objective and state.",
            ("objective", "state"),
        )
        self.replica_calls = registry.counter(
            "repro_replica_calls_total",
            "Replica-balanced calls, by service and outcome.",
            ("service", "outcome"),
        )
        self.replica_events = registry.counter(
            "repro_replica_events_total",
            "Replica lifecycle events (eject/probe/readmit/cooldown/drain).",
            ("service", "event"),
        )
        self.replica_hedges = registry.counter(
            "repro_replica_hedges_total",
            "Hedged replica calls, by service and winning leg.",
            ("service", "result"),
        )
        self.replica_live = registry.gauge(
            "repro_replica_live",
            "Replicas currently selectable (not ejected or cooling).",
            ("service",),
        )
        self.gateway_requests = registry.counter(
            "repro_gateway_requests_total",
            "Requests through the gateway mediation plane, by route and outcome.",
            ("route", "outcome"),
        )
        self.gateway_seconds = registry.histogram(
            "repro_gateway_request_seconds",
            "Gateway end-to-end request duration (auth + policy + upstream).",
            ("route",),
            buckets=LATENCY_BUCKETS,
        )
        self.gateway_rejections = registry.counter(
            "repro_gateway_rejected_total",
            "Requests the gateway refused before any upstream call, by reason.",
            ("reason",),
        )
        self.replica_inflight = registry.gauge(
            "repro_replica_inflight",
            "Calls currently in flight to each replica endpoint.",
            ("service", "replica"),
        )
        self.trace_export_exported = registry.counter(
            "repro_trace_export_exported_total",
            "Spans handed to the batch exporter's queue for shipping.",
            (),
        )
        self.trace_export_dropped = registry.counter(
            "repro_trace_export_dropped_total",
            "Spans the batch exporter discarded instead of blocking.",
            ("reason",),
        )
        self.trace_export_batches = registry.counter(
            "repro_trace_export_batches_total",
            "Span batches POSTed to the trace store, by outcome.",
            ("outcome",),
        )
        self.profiler_active = registry.gauge(
            "repro_profiler_active",
            "Sampling profiler sessions currently running in this process.",
            (),
        )
        self.profiler_samples = registry.counter(
            "repro_profiler_samples_total",
            "Thread-stack samples aggregated by the sampling profiler.",
            (),
        )
        self.profiler_captures = registry.counter(
            "repro_profiler_captures_total",
            "Profiles captured automatically, by trigger.",
            ("trigger",),
        )
        self.client_validation = registry.counter(
            "repro_client_validation_total",
            "HttpClient validation-cache events (stored / revalidated).",
            ("outcome",),
        )
        # Connection-pool capacity gauges come from a scrape-time
        # collector rather than pre-registered children: pools are
        # per-HttpClient objects living in the transport layer, which
        # observability must not import eagerly (layering).  The
        # collector reports only when the transport module is already
        # loaded — it never triggers the import itself.  The sharded
        # service caches bridge the same way.
        registry.register_collector(_transport_pool_families)
        registry.register_collector(_service_cache_families)


class Observability:
    """Mutable-in-place singleton: tracer + registry + instruments + flag.

    Instrumented modules bind the *object* (``from ...runtime import
    OBS``), so reconfiguration mutates this instance rather than
    rebinding a module global.
    """

    __slots__ = ("enabled", "tracer", "registry", "instruments")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.instruments = Instruments(self.registry)

    # -- switches --------------------------------------------------------
    def enable(
        self,
        exporter: Optional[object] = None,
        *,
        clock: Optional[Any] = None,
    ) -> "Observability":
        """Turn instrumentation on.

        ``exporter=None`` records metrics only (tracing stays no-op —
        exactly the "no-op exporter" configuration the overhead benchmark
        holds to ≤10% over a bare bus call).  Pass a
        :class:`~repro.observability.trace.SpanCollector` (or any
        ``export(span)`` object) to collect spans too.
        """
        if clock is not None:
            self.tracer = Tracer(exporter, clock=clock)
        else:
            self.tracer.configure(exporter)
        self.enabled = True
        return self

    def disable(self) -> "Observability":
        self.enabled = False
        self.tracer.configure(None)
        return self

    def reset(self, *, bus_latency_sample: int = 8) -> "Observability":
        """Disable and install a fresh registry + instruments (test hygiene)."""
        self.disable()
        self.registry = MetricsRegistry()
        self.instruments = Instruments(
            self.registry, bus_latency_sample=bus_latency_sample
        )
        return self


OBS = Observability()


@contextmanager
def observed(
    exporter: Optional[object] = None,
    *,
    latency_sample: int = 1,
    clock: Optional[Any] = None,
) -> Iterator[Observability]:
    """Enable observability with fresh state; restore everything on exit.

    Defaults suit tests: ``latency_sample=1`` makes the bus latency
    histogram exact, and prior registry/tracer/flag state comes back
    untouched — even if the block raises.
    """
    saved = (OBS.enabled, OBS.tracer, OBS.registry, OBS.instruments)
    OBS.tracer = Tracer(exporter, clock=clock or time.perf_counter)
    OBS.registry = MetricsRegistry()
    OBS.instruments = Instruments(
        OBS.registry, bus_latency_sample=latency_sample
    )
    OBS.enabled = True
    try:
        yield OBS
    finally:
        OBS.enabled, OBS.tracer, OBS.registry, OBS.instruments = saved

