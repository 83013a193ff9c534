"""Tail-based trace sampling: keep the interesting traces, drop the rest.

Exporting every span is the debugging configuration; at fleet scale it
is a bandwidth and memory bill paid mostly for traces that show nothing.
Tail sampling inverts the deal: spans are *buffered per trace* until the
trace's local root finishes, and only then does a policy decide whether
the whole trace is worth keeping:

* **errored** traces are always kept (a failure you cannot replay is a
  failure you cannot explain);
* **slow** traces — any span at or over ``slow_threshold`` — are kept;
* **marked** traces (:func:`mark_trace`, or any span attribute
  ``sampling.keep``) are kept, so a developer can pin a request;
* the boring rest survives with ``keep_probability`` (deterministic
  given an injected ``rng``), which preserves a statistical baseline.

Dropped traces never reach the downstream exporter — the contract the
``tail_sampling_on`` row of ``benchmarks/bench_observability_overhead.py``
measures.

**Head decisions propagate.**  The W3C ``traceparent`` flags byte rides
every SOAP/REST hop (see :class:`~repro.observability.trace.TraceContext`);
a span whose inbound context says ``sampled=False`` is counted and
discarded *without buffering*, so one upstream drop verdict silences the
whole downstream fan-out.

The sampler is itself an exporter (``collects=True``), so it slots into
``Tracer``/``OBS.enable`` exactly where a :class:`SpanCollector` would::

    keeper = SpanCollector()
    OBS.enable(TailSampler(keeper, slow_threshold=0.25))
"""

from __future__ import annotations

import random
import threading
from typing import Optional

from .trace import Span, current_span

__all__ = ["SamplingPolicy", "TailSampler", "mark_trace", "KEEP_ATTRIBUTE"]

#: Span attribute that pins a whole trace through the tail sampler.
KEEP_ATTRIBUTE = "sampling.keep"


def mark_trace(reason: str = "marked") -> None:
    """Pin the active trace: the tail sampler will keep it regardless.

    No-op when no span is recording (tracing off / no-op exporter).
    """
    span = current_span()
    if span is not None:
        span.set_attribute(KEEP_ATTRIBUTE, reason)


class SamplingPolicy:
    """The keep/drop verdict over one buffered trace.

    Split from :class:`TailSampler` so tests and alternative samplers
    can exercise the decision table directly.  ``decide`` returns the
    decision name — ``kept_error`` / ``kept_slow`` / ``kept_marked`` /
    ``kept_probability`` / ``dropped`` — which doubles as the
    ``decision`` label on ``repro_trace_sampling_total``.
    """

    def __init__(
        self,
        *,
        slow_threshold: float = 0.1,
        keep_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= keep_probability <= 1.0:
            raise ValueError("keep_probability must be within [0, 1]")
        if slow_threshold < 0:
            raise ValueError("slow_threshold must be non-negative")
        self.slow_threshold = slow_threshold
        self.keep_probability = keep_probability
        self._rng = rng or random.Random()

    def decide(self, spans: list[Span]) -> str:
        for span in spans:
            if span.status == "error":
                return "kept_error"
        for span in spans:
            if span.attributes.get(KEEP_ATTRIBUTE) is not None:
                return "kept_marked"
        threshold = self.slow_threshold
        for span in spans:
            if span.duration >= threshold:
                return "kept_slow"
        if self.keep_probability > 0.0 and self._rng.random() < self.keep_probability:
            return "kept_probability"
        return "dropped"


class TailSampler:
    """Per-trace buffering exporter that forwards only kept traces.

    A trace is flushed when its *local root* finishes: a span with no
    parent, or a server span whose parent is remote (the
    ``trace.remote_parent`` attribute set by
    :class:`~repro.transport.httpserver.HttpServer`).  Buffers are
    bounded twice over — ``max_traces`` in flight and
    ``max_spans_per_trace`` each; breaching either force-flushes or
    truncates with a counted drop, so a span leak upstream cannot become
    a memory leak here.

    Thread-safe; the decision and the forwarding of kept spans happen
    outside the buffer lock so a slow downstream exporter does not stall
    concurrent request threads.
    """

    collects = True

    def __init__(
        self,
        downstream,
        *,
        slow_threshold: float = 0.1,
        keep_probability: float = 0.0,
        policy: Optional[SamplingPolicy] = None,
        max_traces: int = 512,
        max_spans_per_trace: int = 512,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_traces < 1 or max_spans_per_trace < 1:
            raise ValueError("buffer bounds must be positive")
        self.downstream = downstream
        self.policy = policy or SamplingPolicy(
            slow_threshold=slow_threshold,
            keep_probability=keep_probability,
            rng=rng,
        )
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._buffers: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        # decision ledger (exact, lock-guarded: flushes are per-trace rare)
        self.decisions: dict[str, int] = {}
        self.spans_kept = 0
        self.spans_dropped = 0

    # -- exporter interface ---------------------------------------------
    def export(self, span: Span) -> None:
        if not span.sampled:
            # upstream head decision: drop without buffering
            self._count_drop(1, "sampler_unsampled")
            return
        flush: Optional[list[Span]] = None
        overflow: Optional[list[Span]] = None
        with self._lock:
            buffer = self._buffers.get(span.trace_id)
            if buffer is None:
                if len(self._buffers) >= self.max_traces:
                    # evict the oldest in-flight trace, deciding it as-is
                    oldest = next(iter(self._buffers))
                    overflow = self._buffers.pop(oldest)
                buffer = self._buffers[span.trace_id] = []
            if len(buffer) < self.max_spans_per_trace:
                buffer.append(span)
            else:
                self.spans_dropped += 1  # truncated: keep the decision spans
            if span.parent_id is None or span.attributes.get("trace.remote_parent"):
                flush = self._buffers.pop(span.trace_id, None)
        if overflow:
            self._decide_and_forward(overflow)
        if flush:
            self._decide_and_forward(flush)

    # -- internals ------------------------------------------------------
    def _decide_and_forward(self, spans: list[Span]) -> None:
        decision = self.policy.decide(spans)
        with self._lock:
            self.decisions[decision] = self.decisions.get(decision, 0) + 1
        from .runtime import OBS  # local: runtime imports trace, not us

        if OBS.enabled:
            OBS.instruments.trace_sampling.inc(decision=decision)
        if decision == "dropped":
            self._count_drop(len(spans), "sampler_dropped")
            return
        with self._lock:
            self.spans_kept += len(spans)
        downstream = self.downstream
        for span in spans:
            downstream.export(span)

    def _count_drop(self, n: int, reason: str) -> None:
        with self._lock:
            self.spans_dropped += n
        from .runtime import OBS

        if OBS.enabled:
            OBS.instruments.spans_dropped.inc(n, reason=reason)

    # -- introspection --------------------------------------------------
    def pending_traces(self) -> int:
        """Traces currently buffered awaiting their local root."""
        with self._lock:
            return len(self._buffers)

    def flush_pending(self) -> int:
        """Force a decision on every buffered trace (shutdown/test aid)."""
        with self._lock:
            buffers = list(self._buffers.values())
            self._buffers.clear()
        for spans in buffers:
            self._decide_and_forward(spans)
        return len(buffers)

    def kept(self, decision: Optional[str] = None) -> int:
        """Trace-level decision counts (all kept decisions by default)."""
        with self._lock:
            if decision is not None:
                return self.decisions.get(decision, 0)
            return sum(
                count
                for name, count in self.decisions.items()
                if name.startswith("kept")
            )
