"""Unit tests for the tracing pillar: contexts, spans, tracer, rendering."""

import json
import threading

import pytest

from repro.observability import (
    NOOP_SPAN,
    SpanCollector,
    TraceContext,
    Tracer,
    render_trace_tree,
)
from repro.observability.trace import add_event, current_span, span_from_dict

pytestmark = pytest.mark.obs


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTraceContext:
    def test_traceparent_roundtrip(self):
        context = TraceContext(trace_id=0xABC, span_id=0x123)
        header = context.traceparent()
        assert header == f"00-{0xABC:032x}-{0x123:016x}-01"
        assert TraceContext.parse(header) == context

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            "00-short-bad-01",
            "01-" + "0" * 32 + "-" + "1" * 16 + "-01",  # wrong version
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # zero trace id
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "x" * 32 + "-" + "1" * 16 + "-01",  # non-hex
        ],
    )
    def test_malformed_headers_parse_to_none(self, bad):
        assert TraceContext.parse(bad) is None


class TestTracer:
    def test_no_exporter_means_noop_spans(self):
        tracer = Tracer()
        assert not tracer.sampling
        assert tracer.span("x") is NOOP_SPAN

    def test_noop_span_is_inert_and_reentrant(self):
        with NOOP_SPAN as outer, NOOP_SPAN as inner:
            assert outer is inner is NOOP_SPAN
        assert NOOP_SPAN.set_attribute("k", "v") is NOOP_SPAN
        assert NOOP_SPAN.add_event("e") is NOOP_SPAN
        assert NOOP_SPAN.record_exception(ValueError()) is NOOP_SPAN
        assert NOOP_SPAN.context is None
        assert not NOOP_SPAN.recording

    def test_span_parenting_follows_context(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                assert child.trace_id == parent.trace_id
                assert child.parent_id == parent.span_id
        assert [s.name for s in collector.spans()] == ["child", "parent"]

    def test_explicit_remote_parent_wins(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        remote = TraceContext(trace_id=7, span_id=9)
        with tracer.span("served", parent=remote) as span:
            assert span.trace_id == 7
            assert span.parent_id == 9

    def test_span_records_exception_and_duration(self):
        clock = ManualClock()
        collector = SpanCollector()
        tracer = Tracer(collector, clock=clock)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                clock.advance(0.5)
                raise ValueError("nope")
        (span,) = collector.spans()
        assert span.status == "error"
        assert span.attributes["fault.code"] == "ValueError"
        assert span.duration == pytest.approx(0.5)

    def test_fault_code_prefers_service_fault_code(self):
        from repro.core import ServiceUnavailable

        collector = SpanCollector()
        tracer = Tracer(collector)
        fault = ServiceUnavailable("down")
        fault.fast_fail = True
        with pytest.raises(ServiceUnavailable):
            with tracer.span("call"):
                raise fault
        (span,) = collector.spans()
        assert span.attributes["fault.code"] == "Server.Unavailable"
        assert span.attributes["fault.fast_fail"] is True

    def test_current_span_and_add_event_helpers(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        assert current_span() is None
        add_event("ignored-when-no-span")  # must not raise
        with tracer.span("op") as span:
            assert current_span() is span
            add_event("retry", attempt=2)
        (finished,) = collector.spans()
        assert [e.name for e in finished.events] == ["retry"]
        assert finished.events[0].attributes == {"attempt": 2}

    def test_threads_have_independent_active_spans(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        seen = {}

        def worker():
            seen["other"] = tracer.current()

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["other"] is None

    def test_collector_queries(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert len(collector) == 2
        assert len(collector.trace_ids()) == 2
        assert [s.name for s in collector.named("a")] == ["a"]
        first = collector.spans()[0]
        assert collector.by_trace(first.trace_id) == [first]
        collector.clear()
        assert len(collector) == 0


class TestRenderTraceTree:
    def test_tree_shape_and_events(self):
        clock = ManualClock()
        collector = SpanCollector()
        tracer = Tracer(collector, clock=clock)
        with tracer.span("root", kind="server", attributes={"binding": "inproc"}):
            clock.advance(0.001)
            with tracer.span("child-one") as c1:
                c1.add_event("retry", attempt=1)
                clock.advance(0.001)
            with tracer.span("child-two"):
                clock.advance(0.001)
        text = render_trace_tree(collector.spans())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert "root [server] binding=inproc" in lines[1]
        assert any("├─ child-one" in line for line in lines)
        assert any("└─ child-two" in line for line in lines)
        assert any("· retry attempt=1" in line for line in lines)

    def test_orphan_spans_render_as_roots(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        remote = TraceContext(trace_id=3, span_id=4)
        with tracer.span("served", parent=remote):
            pass
        text = render_trace_tree(collector.spans())
        assert "served" in text
        assert text.startswith("trace ")


class TestSpanWireFormat:
    def test_roundtrip_preserves_identity_timing_and_events(self):
        clock = ManualClock()
        collector = SpanCollector()
        tracer = Tracer(collector, clock=clock)
        with tracer.span("outer", kind="server", attributes={"binding": "rest"}):
            clock.advance(0.25)
            with tracer.span("inner") as inner:
                inner.add_event("retry", attempt=2)
                clock.advance(0.5)
                inner.record_exception(RuntimeError("boom"))
        for original in collector.spans():
            copy = span_from_dict(original.to_dict())
            assert copy.name == original.name
            assert copy.kind == original.kind
            assert copy.trace_id == original.trace_id
            assert copy.span_id == original.span_id
            assert copy.parent_id == original.parent_id
            assert copy.start == original.start
            assert copy.end == original.end
            assert copy.status == original.status
            assert copy.error == original.error
            assert copy.attributes == original.attributes
            assert [e.name for e in copy.events] == [
                e.name for e in original.events
            ]

    def test_wire_format_is_json_safe_hex(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("x"):
            pass
        doc = json.loads(json.dumps(collector.spans()[0].to_dict()))
        assert len(doc["trace_id"]) == 32
        assert len(doc["span_id"]) == 16
        assert doc["parent_id"] is None
        assert span_from_dict(doc).trace_id == collector.spans()[0].trace_id

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("trace_id"),
            lambda d: d.update(trace_id="zz" * 16),
            lambda d: d.update(span_id=None),
            lambda d: d.update(start="not-a-number"),
            lambda d: d.update(events="not-a-list"),
        ],
    )
    def test_malformed_payloads_raise(self, mutate):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("x"):
            pass
        doc = collector.spans()[0].to_dict()
        mutate(doc)
        with pytest.raises((KeyError, ValueError, TypeError)):
            span_from_dict(doc)


class TestTraceIndex:
    def test_by_trace_uses_index_not_ring_scan(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        ids = []
        for _ in range(5):
            with tracer.span("root") as root:
                ids.append(root.trace_id)
                with tracer.span("child"):
                    pass
        spans = collector.by_trace(ids[2])
        assert len(spans) == 2
        assert {s.trace_id for s in spans} == {ids[2]}
        assert collector.trace_ids() == set(ids)

    def test_eviction_unindexes_the_evicted_trace(self):
        collector = SpanCollector(capacity=2)
        tracer = Tracer(collector)
        first = last = None
        for _ in range(4):
            with tracer.span("one") as span:
                last = span.trace_id
                if first is None:
                    first = span.trace_id
        assert collector.by_trace(first) == []
        assert first not in collector.trace_ids()
        assert len(collector.by_trace(last)) == 1
        assert collector.dropped == 2

    def test_threaded_exports_keep_index_consistent(self):
        collector = SpanCollector(capacity=64)  # small: forces evictions
        tracer = Tracer(collector)
        per_thread_ids: dict[int, list[int]] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(9)

        def writer(worker: int) -> None:
            ids = per_thread_ids.setdefault(worker, [])
            try:
                barrier.wait(5)
                for _ in range(50):
                    with tracer.span("w") as root:
                        ids.append(root.trace_id)
                        with tracer.span("c"):
                            pass
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def reader() -> None:
            try:
                barrier.wait(5)
                for _ in range(200):
                    for trace_id in list(collector.trace_ids()):
                        for span in collector.by_trace(trace_id):
                            assert span.trace_id == trace_id
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ] + [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not errors
        # settled state: index and ring agree exactly
        spans = collector.spans()
        assert len(spans) == 64
        by_index = [
            span
            for trace_id in collector.trace_ids()
            for span in collector.by_trace(trace_id)
        ]
        assert sorted(id(s) for s in by_index) == sorted(id(s) for s in spans)


class TestOrphanRendering:
    def test_gateway_side_only_spans_render_as_marked_orphans(self):
        """A partial trace (only the gateway's spans arrived) still renders."""
        collector = SpanCollector()
        tracer = Tracer(collector)
        remote = TraceContext(trace_id=0xFEED, span_id=0xBEEF)
        with tracer.span("http.server", kind="server", parent=remote):
            with tracer.span("gateway.forward"):
                pass
        text = render_trace_tree(collector.spans())
        lines = text.splitlines()
        assert "http.server [server] (orphan)" in text
        assert "(orphan)" not in [l for l in lines if "gateway.forward" in l][0]
        assert "gateway.forward" in text  # child still nests under it

    def test_true_roots_are_not_marked(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("root"):
            pass
        assert "(orphan)" not in render_trace_tree(collector.spans())

    def test_mixed_set_marks_only_absent_parent_roots(self):
        collector = SpanCollector()
        tracer = Tracer(collector)
        with tracer.span("local-root"):
            pass
        with tracer.span("served", parent=TraceContext(trace_id=7, span_id=9)):
            pass
        text = render_trace_tree(collector.spans())
        marked = [l for l in text.splitlines() if "(orphan)" in l]
        assert len(marked) == 1
        assert "served" in marked[0]
