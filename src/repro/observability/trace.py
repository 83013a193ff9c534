"""Distributed tracing: trace contexts, spans, exporters, pretty-printing.

One *trace* follows a logical request across every binding hop — an
in-process bus dispatch that fans out through a SOAP envelope into a
RESTful call is still one trace.  The pieces:

* :class:`TraceContext` — the (trace_id, span_id) pair that crosses
  process/binding boundaries, encoded W3C-``traceparent``-style
  (``00-<32 hex>-<16 hex>-01``) in HTTP headers and SOAP header blocks.
* :class:`Span` — one timed operation within a trace: name, kind
  (``server``/``client``/``internal``), attributes (binding, operation,
  endpoint, fault subtype), and point-in-time *events* (retry attempts,
  breaker transitions, bulkhead rejections, fallbacks).
* :class:`Tracer` — creates spans, keeps the active span in a
  context-local (:mod:`contextvars`), and hands finished spans to an
  *exporter*.  With no exporter ``span()`` returns a shared no-op span,
  so instrumented call sites cost a flag check when nobody is looking
  (measured by ``benchmarks/bench_observability_overhead.py``).
* :class:`SpanCollector` — the in-memory exporter tests and examples
  use; pairs with :func:`render_trace_tree` for a human-readable view.

Everything is stdlib-only and clock-injectable: deterministic tests pass
a manual clock, production uses ``time.perf_counter``.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "TRACEPARENT_HEADER",
    "TraceContext",
    "Span",
    "SpanEvent",
    "Tracer",
    "SpanCollector",
    "NOOP_SPAN",
    "current_span",
    "current_trace_id",
    "add_event",
    "set_profile_hook",
    "span_from_dict",
    "render_trace_tree",
]

#: Header / SOAP-header-block name carrying the trace context on the wire.
TRACEPARENT_HEADER = "traceparent"

_SPAN_KINDS = ("internal", "server", "client")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagated identity of one span within one trace.

    ``sampled`` is the W3C trace-flags bit: a *head* sampling decision
    that crosses hops with the ids.  ``sampled=False`` means an upstream
    node already decided to drop this trace — downstream tail samplers
    honour that verdict without buffering (see
    :class:`repro.observability.sampling.TailSampler`).
    """

    trace_id: int  # 128-bit
    span_id: int   # 64-bit
    sampled: bool = True

    def traceparent(self) -> str:
        """Encode as a W3C-style ``traceparent`` header value."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id:032x}-{self.span_id:016x}-{flags}"

    @staticmethod
    def parse(header: Optional[str]) -> Optional["TraceContext"]:
        """Decode a ``traceparent`` value; None for absent/malformed input.

        Malformed headers are *ignored*, never fatal: a bad peer must not
        break request serving, it just starts a fresh trace.
        """
        if not header:
            return None
        parts = header.strip().split("-")
        if len(parts) != 4 or parts[0] != "00":
            return None
        trace_hex, span_hex = parts[1], parts[2]
        if len(trace_hex) != 32 or len(span_hex) != 16:
            return None
        try:
            trace_id = int(trace_hex, 16)
            span_id = int(span_hex, 16)
        except ValueError:
            return None
        if trace_id == 0 or span_id == 0:
            return None
        sampled = parts[3][-1:] != "0"  # flags 00 => head-dropped
        return TraceContext(trace_id, span_id, sampled)


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """A point-in-time annotation on a span (retry, breaker trip...)."""

    name: str
    timestamp: float
    attributes: dict[str, Any]


# The active span for the current logical context.  contextvars gives
# each thread — and each asyncio task, should one appear — its own slot.
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("repro_active_span", default=None)

# Profiler hooks: while a SamplingProfiler runs, repro.observability.profiling
# installs (enter, exit) callables here so samples can be tagged with the
# active span's route.  Both None when no profiler is live — the cost on
# every span enter/exit is then one global load and a falsy branch.
_PROFILE_ENTER: Optional[Callable[["Span"], None]] = None
_PROFILE_EXIT: Optional[Callable[["Span"], None]] = None


def set_profile_hook(
    enter: Optional[Callable[["Span"], None]],
    exit: Optional[Callable[["Span"], None]],
) -> None:
    """Install (or, with ``None, None``, remove) the profiler span hooks."""
    global _PROFILE_ENTER, _PROFILE_EXIT
    _PROFILE_ENTER = enter
    _PROFILE_EXIT = exit


class Span:
    """One timed operation; a context manager that exports itself on exit."""

    __slots__ = (
        "name", "kind", "trace_id", "span_id", "parent_id", "sampled",
        "start", "end", "attributes", "events", "status", "error",
        "_tracer", "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        kind: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attributes: Optional[dict[str, Any]],
        sampled: bool = True,
    ) -> None:
        self.name = name
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.start = start
        self.end = start
        self.attributes: dict[str, Any] = attributes if attributes is not None else {}
        self.events: list[SpanEvent] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self._tracer = tracer
        self._token = None

    # -- identity -------------------------------------------------------
    @property
    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id, self.sampled)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def recording(self) -> bool:
        return True

    # -- mutation -------------------------------------------------------
    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def add_event(self, name: str, **attributes: Any) -> "Span":
        self.events.append(
            SpanEvent(name, self._tracer._clock(), attributes)
        )
        return self

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe wire form a :class:`~repro.observability.export.
        BatchSpanExporter` ships and :func:`span_from_dict` reverses.

        Ids travel as hex strings (the 128-bit trace id would survive
        Python's JSON but not every peer's), timestamps stay in this
        node's clock frame — cross-node alignment is the trace store's
        job, because only the assembler sees both frames.
        """
        return {
            "name": self.name,
            "kind": self.kind,
            "trace_id": f"{self.trace_id:032x}",
            "span_id": f"{self.span_id:016x}",
            "parent_id": (
                f"{self.parent_id:016x}" if self.parent_id is not None else None
            ),
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "events": [
                {
                    "name": event.name,
                    "timestamp": event.timestamp,
                    "attributes": dict(event.attributes),
                }
                for event in self.events
            ],
        }

    def record_exception(self, exc: BaseException) -> "Span":
        """Mark the span failed, capturing the fault subtype.

        ``fault.code`` is the service-fault code when the exception
        carries one (the typed-fault taxonomy of :mod:`repro.core.faults`)
        and the exception class name otherwise, so a trace answers
        *which* kind of failure occurred, not just that one did.
        """
        self.set_error(str(exc))
        code = getattr(exc, "code", None)
        self.attributes["fault.code"] = code if code else type(exc).__name__
        if getattr(exc, "fast_fail", False):
            self.attributes["fault.fast_fail"] = True
        return self

    def set_error(self, description: str) -> "Span":
        """Mark the span failed without an exception (e.g. a 5xx answer)."""
        self.status = "error"
        self.error = description
        return self

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        if _PROFILE_ENTER is not None:
            _PROFILE_ENTER(self)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None and self.status == "ok":
            self.record_exception(exc)
        self.end = self._tracer._clock()
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if _PROFILE_EXIT is not None:
            _PROFILE_EXIT(self)
        self._tracer._export(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, kind={self.kind!r}, "
            f"trace={self.trace_id:032x}, span={self.span_id:016x})"
        )


def span_from_dict(payload: dict[str, Any]) -> Span:
    """Rebuild a finished :class:`Span` from its :meth:`Span.to_dict` form.

    The inverse half of the span wire format: the trace store calls this
    on every ingested span so the assembled record is made of real
    ``Span`` objects — :func:`render_trace_tree` and the critical-path
    walk work on local and remote spans alike.  Malformed payloads raise
    ``ValueError``/``KeyError``/``TypeError``; callers decide whether a
    bad peer span poisons the batch (the store skips it and counts).
    """
    parent_text = payload.get("parent_id")
    span = Span(
        None,  # type: ignore[arg-type]  # finished: never re-exported
        str(payload["name"]),
        str(payload.get("kind", "internal")),
        int(str(payload["trace_id"]), 16),
        int(str(payload["span_id"]), 16),
        int(str(parent_text), 16) if parent_text is not None else None,
        float(payload["start"]),
        dict(payload.get("attributes") or {}),
    )
    span.end = float(payload["end"])
    span.status = str(payload.get("status", "ok"))
    error = payload.get("error")
    span.error = str(error) if error is not None else None
    for event in payload.get("events") or ():
        span.events.append(
            SpanEvent(
                str(event["name"]),
                float(event.get("timestamp", span.start)),
                dict(event.get("attributes") or {}),
            )
        )
    return span


class _NoopSpan:
    """Shared do-nothing span: the disabled/no-op-exporter fast path.

    Stateless, so one instance is safely shared across threads and
    reentrant ``with`` blocks.
    """

    __slots__ = ()

    context = None
    recording = False
    events: tuple = ()
    attributes: dict = {}

    def set_attribute(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def add_event(self, name: str, **attributes: Any) -> "_NoopSpan":
        return self

    def record_exception(self, exc: BaseException) -> "_NoopSpan":
        return self

    def set_error(self, description: str) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<noop span>"


NOOP_SPAN = _NoopSpan()


class SpanCollector:
    """Thread-safe bounded in-memory exporter (ring buffer semantics).

    Capacity defaults to 4096 finished spans; exporting past capacity
    evicts the oldest span rather than growing without bound — under the
    ROADMAP's heavy multi-node traffic an unbounded collector would be a
    slow memory leak.  Evictions are counted locally (:attr:`dropped`)
    and, when the observability runtime is enabled, on the
    ``repro_spans_dropped_total{reason="collector_capacity"}`` counter.

    All reads snapshot under the same lock the writer takes, so
    :meth:`spans` stays consistent while a concurrent export evicts.

    A ``trace_id -> spans`` index is maintained beside the ring, so
    :meth:`by_trace` — the exemplar-join hot path — costs one dict hit
    plus a copy proportional to *that trace*, not a scan of the whole
    ring.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._spans: deque[Span] = deque()
        self._by_trace: dict[int, list[Span]] = {}
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        evicted = False
        with self._lock:
            if len(self._spans) >= self.capacity:
                oldest = self._spans.popleft()
                self._unindex(oldest)
                self.dropped += 1
                evicted = True
            self._spans.append(span)
            self._by_trace.setdefault(span.trace_id, []).append(span)
        if evicted:
            from .runtime import OBS  # local: runtime imports this module

            if OBS.enabled:
                OBS.instruments.spans_dropped.inc(reason="collector_capacity")

    def _unindex(self, span: Span) -> None:
        """Drop one evicted span from the trace index (lock held)."""
        bucket = self._by_trace.get(span.trace_id)
        if bucket is None:
            return
        try:
            bucket.remove(span)
        except ValueError:  # pragma: no cover - index and ring agree
            pass
        if not bucket:
            del self._by_trace[span.trace_id]

    def spans(self) -> list[Span]:
        """Snapshot of retained finished spans, in export (finish) order."""
        with self._lock:
            return list(self._spans)

    def by_trace(self, trace_id: int) -> list[Span]:
        """Spans of one trace, export order — indexed, not a ring scan."""
        with self._lock:
            return list(self._by_trace.get(trace_id, ()))

    def trace_ids(self) -> set[int]:
        with self._lock:
            return set(self._by_trace)

    def named(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self._spans if s.name == name]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._by_trace.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class Tracer:
    """Creates spans and routes finished ones to the exporter.

    Tracing is on exactly when an exporter is set: with
    ``exporter=None`` (the default) :meth:`span` returns
    :data:`NOOP_SPAN` — "pay for what you observe" is the subsystem's
    overhead contract.
    """

    def __init__(
        self,
        exporter: Optional[object] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._clock = clock
        self._rng = rng or random.Random()
        self._exporter: Optional[object] = None
        #: True when spans are actually being built and exported.  A plain
        #: attribute (not a property): the bus reads it on every dispatch,
        #: and a descriptor call is measurable at that frequency.
        self.sampling = False
        self.configure(exporter)

    # -- configuration --------------------------------------------------
    def configure(self, exporter: Optional[object]) -> "Tracer":
        self._exporter = exporter
        self.sampling = exporter is not None
        return self

    # -- span creation --------------------------------------------------
    def span(
        self,
        name: str,
        *,
        kind: str = "internal",
        parent: Optional[TraceContext] = None,
        attributes: Optional[dict[str, Any]] = None,
    ):
        """Open a span (use as a context manager).

        ``parent`` overrides the context-local parent — servers pass the
        remote context extracted from a ``traceparent`` header; everyone
        else inherits whatever span is active on this thread.
        """
        if not self.sampling:
            return NOOP_SPAN
        if parent is None:
            parent = self.current()
        if parent is None:
            trace_id = self._rng.getrandbits(128) or 1
            parent_id = None
            sampled = True
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled
        return Span(
            self,
            name,
            kind if kind in _SPAN_KINDS else "internal",
            trace_id,
            self._rng.getrandbits(64) or 1,
            parent_id,
            self._clock(),
            attributes,
            sampled,
        )

    # -- context access -------------------------------------------------
    def current(self) -> Optional[TraceContext]:
        """The active span's trace context, if a span is active."""
        active = _ACTIVE.get()
        return None if active is None else active.context

    # -- export ---------------------------------------------------------
    def _export(self, span: Span) -> None:
        exporter = self._exporter
        if exporter is not None:
            exporter.export(span)


def current_span() -> Optional[Span]:
    """The span active on this thread, if any (module-level convenience)."""
    return _ACTIVE.get()


def current_trace_id() -> Optional[int]:
    """The active *sampled* trace id, or None.

    The exemplar seam: ``Histogram.observe`` calls this to stamp the
    bucket a latency landed in with the trace that produced it.  Traces
    an upstream head-sampler dropped return None — an exemplar pointing
    at a trace nobody kept would be a dead link.
    """
    active = _ACTIVE.get()
    if active is None or not active.sampled:
        return None
    return active.trace_id


def add_event(name: str, **attributes: Any) -> None:
    """Attach an event to the active span; no-op when none is recording.

    This is the seam the resilience middleware reports through — cheap
    enough to sit on fault paths unconditionally.
    """
    active = _ACTIVE.get()
    if active is not None:
        active.events.append(
            SpanEvent(name, active._tracer._clock(), attributes)
        )


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

_TREE_ATTRS = ("binding", "operation", "endpoint", "http.method", "http.target")


def _format_span(span: Span, *, orphan: bool = False) -> str:
    bits = [f"{span.name} [{span.kind}]"]
    if orphan:
        bits.append("(orphan)")
    for key in _TREE_ATTRS:
        value = span.attributes.get(key)
        if value is not None:
            bits.append(f"{key}={value}")
    bits.append(f"{span.duration * 1e3:.2f}ms")
    if span.status == "error":
        code = span.attributes.get("fault.code", "error")
        bits.append(f"!{code}")
    return " ".join(bits)


def render_trace_tree(spans: Iterable[Span], *, include_events: bool = True) -> str:
    """Render spans as per-trace ASCII trees (children sorted by start).

    Spans whose parent is absent from ``spans`` still render — as roots
    of their trace, marked ``(orphan)`` when they *claim* a parent the
    renderer cannot see.  That case is routine, not exceptional: a
    cross-node partial trace (the gateway-side spans arrived, the
    replica's did not — or vice versa) must stay readable, so a trace
    tree is always best-effort over whatever spans the caller has.
    """
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    children: dict[Optional[int], list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))

    lines: list[str] = []

    def walk(span: Span, prefix: str, tail: bool, root: bool) -> None:
        if root:
            orphan = span.parent_id is not None  # claims an unseen parent
            lines.append(prefix + _format_span(span, orphan=orphan))
            child_prefix = prefix + "  "
        else:
            branch = "└─ " if tail else "├─ "
            lines.append(prefix + branch + _format_span(span))
            child_prefix = prefix + ("   " if tail else "│  ")
        if include_events:
            for event in span.events:
                attrs = " ".join(f"{k}={v}" for k, v in sorted(event.attributes.items()))
                lines.append(
                    child_prefix + f"· {event.name}" + (f" {attrs}" if attrs else "")
                )
        kids = children.get(span.span_id, [])
        for i, child in enumerate(kids):
            walk(child, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    traces: dict[int, list[Span]] = {}
    for root in roots:
        traces.setdefault(root.trace_id, []).append(root)
    for trace_id in sorted(traces, key=lambda t: min(r.start for r in traces[t])):
        lines.append(f"trace {trace_id:032x}")
        for root in traces[trace_id]:
            walk(root, "  ", True, True)
    return "\n".join(lines)
