"""Cross-binding telemetry: tracing, metrics, and the exposition plane.

The dependability story of PR 1 gave every call a *policy*; this package
gives every call a *record*.  Three pillars, wired through the whole
stack (bus, broker, SOAP/REST transports, resilience middleware,
crawler, web app):

* **tracing** (:mod:`.trace`) — :class:`TraceContext` propagated via a
  context-local and W3C-style ``traceparent`` headers, so one trace
  spans inproc → SOAP → REST hops; spans record timing, binding,
  operation, fault subtype, and resilience events.
* **metrics** (:mod:`.metrics`) — a thread-safe, lock-striped
  :class:`MetricsRegistry` (counter / gauge / histogram with label
  sets) with instruments pre-registered for every subsystem
  (:class:`~.runtime.Instruments`).
* **exposition** (:mod:`.exposition`) — Prometheus-text ``/metrics``
  (and its parser, :func:`parse_prometheus`, the federation direction),
  a ``/healthz`` summarising breaker states (endpoints and crawled
  domains alike), the
  bounded in-memory :class:`SpanCollector`, and :func:`render_trace_tree`.

The monitoring plane builds three more pillars on top:

* **logs** (:mod:`.logs`) — levelled structured records that
  auto-attach the active span's ``trace_id``/``span_id``, a lock-free
  :class:`RingBufferSink`, and :func:`access_log` for the HTTP server's
  ``on_request`` hook.
* **sampling** (:mod:`.sampling`) — :class:`TailSampler` buffers spans
  per trace and keeps only slow/errored/marked traces (plus a
  probabilistic baseline), honouring head decisions carried in the
  ``traceparent`` flags across SOAP/REST hops.
* **slo** (:mod:`.slo`) — :class:`SloObjective` + multi-window
  :class:`BurnRateRule` evaluated from metric families (local or
  fleet-merged), with a deterministic pending → firing → resolved
  alert machine publishing onto :class:`repro.events.bus.EventBus`.
* **export** (:mod:`.export`) — :class:`BatchSpanExporter` ships
  tail-kept spans off-node as batched JSON POSTs to the trace store
  (``services.tracestore``), bounded-queue drop-not-block, completing
  the trace plane: local spans → sampler → wire → fleet assembly.
* **profiling** (:mod:`.profiling`) — a zero-dependency
  :class:`SamplingProfiler` over ``sys._current_frames()`` producing
  route-tagged folded stacks (collapsed text + ASCII flamegraphs),
  ``/debug/profile`` / ``/debug/threads`` routes, SLO-firing
  auto-capture into a bounded :class:`ProfileRing`, and histogram
  *trace exemplars* linking slow buckets to tail-sampled traces.

Everything is off by default and costs a flag check per call site;
``OBS.enable()`` / :func:`observed` turn it on.  See
``examples/traced_call.py``, ``examples/monitor_demo.py`` and the
"Observability layer" / "Monitoring plane" sections of DESIGN.md.
"""

from .trace import (
    NOOP_SPAN,
    TRACEPARENT_HEADER,
    Span,
    SpanCollector,
    SpanEvent,
    TraceContext,
    Tracer,
    add_event,
    current_span,
    current_trace_id,
    render_trace_tree,
    span_from_dict,
)
from .export import INGEST_PATH, BatchSpanExporter
from .metrics import (
    LATENCY_BUCKETS,
    AtomicCounter,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsError,
    MetricsRegistry,
)
from .runtime import (
    OBS,
    BusDispatchMetrics,
    Instruments,
    Observability,
    observed,
)
from .exposition import (
    HealthHandler,
    debug_routes,
    metrics_handler,
    observability_routes,
    parse_prometheus,
    render_prometheus,
)
from .logs import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    LogRecord,
    Logger,
    RingBufferSink,
    access_log,
    default_sink,
    format_records,
    get_logger,
    level_name,
)
from .profiling import (
    LAST_PROFILES,
    ProfileReport,
    ProfileRing,
    SamplingProfiler,
    attach_auto_capture,
    dump_threads,
    merge_folded,
    parse_collapsed,
    render_flamegraph,
)
from .sampling import KEEP_ATTRIBUTE, SamplingPolicy, TailSampler, mark_trace
from .slo import (
    DEFAULT_RULES,
    TOPIC_FIRING,
    TOPIC_RESOLVED,
    AlertState,
    BurnRateRule,
    SloEngine,
    SloObjective,
)

__all__ = [
    # trace
    "TraceContext", "Span", "SpanEvent", "Tracer", "SpanCollector",
    "NOOP_SPAN", "TRACEPARENT_HEADER",
    "current_span", "current_trace_id", "add_event", "render_trace_tree",
    "span_from_dict",
    # export
    "BatchSpanExporter", "INGEST_PATH",
    # metrics
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "AtomicCounter",
    "MetricFamily", "MetricsError", "LATENCY_BUCKETS",
    # runtime
    "OBS", "Observability", "Instruments", "BusDispatchMetrics",
    "observed",
    # exposition
    "render_prometheus", "parse_prometheus", "metrics_handler",
    "HealthHandler", "observability_routes", "debug_routes",
    # profiling
    "SamplingProfiler", "ProfileReport", "ProfileRing", "LAST_PROFILES",
    "attach_auto_capture", "dump_threads", "parse_collapsed",
    "merge_folded", "render_flamegraph",
    # logs
    "LogRecord", "Logger", "RingBufferSink", "access_log", "get_logger",
    "default_sink", "format_records", "level_name",
    "DEBUG", "INFO", "WARNING", "ERROR",
    # sampling
    "TailSampler", "SamplingPolicy", "mark_trace", "KEEP_ATTRIBUTE",
    # slo
    "SloObjective", "BurnRateRule", "AlertState", "SloEngine",
    "DEFAULT_RULES", "TOPIC_FIRING", "TOPIC_RESOLVED",
]
