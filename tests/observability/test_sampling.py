"""Tail sampling: keep decisions, head propagation, bounded buffers."""

import random

from repro.observability import (
    KEEP_ATTRIBUTE,
    SamplingPolicy,
    SpanCollector,
    TailSampler,
    TraceContext,
    Tracer,
    mark_trace,
    observed,
)
from repro.transport import HttpClient, HttpResponse, HttpServer

SLOW = 0.25


def manual_clock(value=0.0):
    state = [value]

    def clock():
        return state[0]

    clock.advance = lambda d: state.__setitem__(0, state[0] + d)  # type: ignore[attr-defined]
    return clock


def make_stack(**sampler_kw):
    """(tracer, sampler, keeper, clock) with the sampler as exporter."""
    keeper = SpanCollector()
    sampler = TailSampler(keeper, slow_threshold=SLOW, **sampler_kw)
    clock = manual_clock()
    tracer = Tracer(sampler, clock=clock, rng=random.Random(7))
    return tracer, sampler, keeper, clock


class TestPolicy:
    def _finished(self, tracer, clock, *, duration=0.0, error=False, mark=None):
        with tracer.span("op") as span:
            if mark is not None:
                span.set_attribute(KEEP_ATTRIBUTE, mark)
            if error:
                span.record_exception(RuntimeError("boom"))
            clock.advance(duration)
        return span

    def test_precedence_error_over_marked_over_slow(self):
        tracer, _, _, clock = make_stack()
        policy = SamplingPolicy(slow_threshold=SLOW)
        slow = self._finished(tracer, clock, duration=SLOW * 2)
        marked = self._finished(tracer, clock, duration=SLOW * 2, mark="pin")
        errored = self._finished(
            tracer, clock, duration=SLOW * 2, mark="pin", error=True
        )
        assert policy.decide([slow]) == "kept_slow"
        assert policy.decide([marked]) == "kept_marked"
        assert policy.decide([errored]) == "kept_error"
        assert policy.decide([slow, errored]) == "kept_error"

    def test_probability_is_deterministic_with_injected_rng(self):
        tracer, _, _, clock = make_stack()
        fast = self._finished(tracer, clock, duration=0.0)
        always = SamplingPolicy(slow_threshold=SLOW, keep_probability=1.0,
                                rng=random.Random(1))
        never = SamplingPolicy(slow_threshold=SLOW, keep_probability=0.0,
                               rng=random.Random(1))
        assert always.decide([fast]) == "kept_probability"
        assert never.decide([fast]) == "dropped"

    def test_bad_configuration_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SamplingPolicy(keep_probability=1.5)
        with pytest.raises(ValueError):
            SamplingPolicy(slow_threshold=-1)
        with pytest.raises(ValueError):
            TailSampler(SpanCollector(), max_traces=0)


class TestTailSampler:
    def test_boring_trace_never_reaches_downstream(self):
        tracer, sampler, keeper, _ = make_stack()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert len(keeper) == 0
        assert sampler.kept() == 0
        assert sampler.kept("dropped") == 1
        assert sampler.spans_dropped == 2
        assert sampler.pending_traces() == 0

    def test_slow_trace_kept_whole(self):
        tracer, sampler, keeper, clock = make_stack()
        with tracer.span("root"):
            with tracer.span("child"):
                clock.advance(SLOW * 2)  # only the child is slow
        assert sampler.kept("kept_slow") == 1
        assert {s.name for s in keeper.spans()} == {"root", "child"}

    def test_errored_and_marked_traces_kept(self):
        tracer, sampler, keeper, _ = make_stack()
        try:
            with tracer.span("bad"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with tracer.span("pinned"):
            mark_trace("debugging")
        assert sampler.kept("kept_error") == 1
        assert sampler.kept("kept_marked") == 1
        assert len(keeper) == 2
        pinned = keeper.named("pinned")[0]
        assert pinned.attributes[KEEP_ATTRIBUTE] == "debugging"

    def test_head_unsampled_span_dropped_without_buffering(self):
        tracer, sampler, keeper, _ = make_stack()
        remote = TraceContext(trace_id=1234, span_id=99, sampled=False)
        with tracer.span("downstream", parent=remote) as span:
            assert span.sampled is False
            assert span.context.traceparent().endswith("-00")
        assert sampler.pending_traces() == 0
        assert sampler.spans_dropped == 1
        assert len(keeper) == 0
        assert sampler.decisions == {}  # no trace-level decision was taken

    def test_remote_parent_attribute_flushes_local_root(self):
        tracer, sampler, keeper, clock = make_stack()
        remote = TraceContext(trace_id=55, span_id=7, sampled=True)
        with tracer.span("server", kind="server", parent=remote) as span:
            span.set_attribute("trace.remote_parent", True)
            clock.advance(SLOW * 2)
        assert sampler.pending_traces() == 0
        assert sampler.kept("kept_slow") == 1
        assert keeper.spans()[0].trace_id == 55

    def test_max_traces_evicts_oldest_in_flight(self):
        tracer, sampler, keeper, clock = make_stack(max_traces=2)
        # open three traces without ever finishing their roots: children
        # finish (export) while roots stay open, so buffers accumulate.
        roots = [tracer.span(f"root{i}") for i in range(3)]
        for root in roots:
            with root:
                with tracer.span("child"):
                    clock.advance(SLOW * 2)
                break  # finish only the first root; leave others pending
        # two more traces' children export without a finished local root
        for root in roots[1:]:
            root.__enter__()
            with tracer.span("child"):
                clock.advance(SLOW * 2)
            root.__exit__(None, None, None)
        assert sampler.pending_traces() <= 2
        # every trace was slow, so evicted + flushed all decide kept_slow
        assert sampler.kept("kept_slow") == 3

    def test_max_spans_per_trace_truncates_with_counted_drop(self):
        tracer, sampler, keeper, clock = make_stack(max_spans_per_trace=3)
        with tracer.span("root"):
            for _ in range(5):
                with tracer.span("child"):
                    clock.advance(SLOW * 2)
        # 5 children finished first; buffer holds 3, truncates 2, then
        # the root arrives at the cap and is itself truncated -- but its
        # exit still flushes the trace.
        assert sampler.spans_dropped >= 2
        assert sampler.kept("kept_slow") == 1
        assert 0 < len(keeper) <= 3

    def test_flush_pending_decides_open_traces(self):
        tracer, sampler, keeper, clock = make_stack()
        root = tracer.span("root")
        root.__enter__()
        with tracer.span("child"):
            clock.advance(SLOW * 2)
        assert sampler.pending_traces() == 1
        assert sampler.flush_pending() == 1
        assert sampler.kept("kept_slow") == 1
        root.__exit__(None, None, None)  # root now decides alone (also slow)

    def test_sampling_decisions_tick_instrument(self):
        with observed() as obs:
            keeper = SpanCollector()
            sampler = TailSampler(keeper, slow_threshold=SLOW)
            clock = manual_clock()
            obs.tracer = Tracer(sampler, clock=clock)
            with obs.tracer.span("fast"):
                pass
            with obs.tracer.span("slow"):
                clock.advance(SLOW * 2)
            counter = obs.registry.get("repro_trace_sampling_total")
            assert counter.value(decision="dropped") == 1
            assert counter.value(decision="kept_slow") == 1
            dropped = obs.registry.get("repro_spans_dropped_total")
            assert dropped.value(reason="sampler_dropped") == 1


class TestSpanCollectorBound:
    def test_capacity_evicts_oldest_and_counts(self):
        collector = SpanCollector(capacity=4)
        tracer = Tracer(collector)
        for i in range(10):
            with tracer.span("op") as span:
                span.set_attribute("i", i)
        assert len(collector) == 4
        assert collector.dropped == 6
        assert [s.attributes["i"] for s in collector.spans()] == [6, 7, 8, 9]

    def test_eviction_ticks_spans_dropped_total(self):
        with observed() as obs:
            collector = SpanCollector(capacity=2)
            obs.tracer = Tracer(collector)
            for _ in range(5):
                with obs.tracer.span("op"):
                    pass
            counter = obs.registry.get("repro_spans_dropped_total")
            assert counter.value(reason="collector_capacity") == 3

    def test_invalid_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            SpanCollector(capacity=0)

    def test_snapshot_reads_stay_consistent_under_eviction(self):
        import threading

        collector = SpanCollector(capacity=32)
        tracer = Tracer(collector)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                with tracer.span("op"):
                    pass

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                snapshot = collector.spans()
                assert len(snapshot) <= 32
                for span in snapshot:
                    assert span.name == "op"
        finally:
            stop.set()
            thread.join()


class TestServerErrorsAreKept:
    def test_a_5xx_answer_keeps_its_trace(self):
        """A handler that answers 503 without raising leaves no failed
        child span: only the server span's own status can keep the trace."""
        keeper = SpanCollector()
        sampler = TailSampler(keeper, slow_threshold=60.0)
        answers = iter([HttpResponse.error(503, "shedding"), HttpResponse(200)])
        with observed(sampler):
            with HttpServer(lambda request: next(answers), workers=1) as server:
                with HttpClient(server.host, server.port) as client:
                    assert client.get("/busy").status == 503
                    assert client.get("/fine").status == 200
        assert sampler.kept("kept_error") == 1
        assert sampler.decisions.get("dropped") == 1
        (kept,) = keeper.spans()
        assert kept.attributes["http.target"] == "/busy"
        assert (kept.status, kept.error) == ("error", "HTTP 503")

    def test_a_4xx_answer_is_the_clients_fault(self):
        keeper = SpanCollector()
        sampler = TailSampler(keeper, slow_threshold=60.0)
        with observed(sampler):
            handler = lambda request: HttpResponse.error(404, "no")  # noqa: E731
            with HttpServer(handler, workers=1) as server:
                with HttpClient(server.host, server.port) as client:
                    assert client.get("/missing").status == 404
        assert sampler.decisions == {"dropped": 1}
