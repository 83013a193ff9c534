"""The sampling profiler: hot frames, idle folding, span tags, debug routes.

Sampling tests run a deliberately recognizable busy-loop (`_burn_cpu`)
on a helper thread so the profiler has a hot frame to catch; everything
else (parsing, merging, rings, flamegraphs) is deterministic plumbing.
"""

import contextlib
import threading
import time

import pytest

from repro.events.bus import EventBus
from repro.observability import (
    TOPIC_FIRING,
    LAST_PROFILES,
    ProfileReport,
    ProfileRing,
    SamplingProfiler,
    SpanCollector,
    attach_auto_capture,
    debug_routes,
    dump_threads,
    merge_folded,
    observability_routes,
    observed,
    parse_collapsed,
    render_flamegraph,
)
from repro.observability import trace as trace_module
from repro.observability.profiling import IDLE_KEY, OVERFLOW_KEY
from repro.observability.runtime import OBS
from repro.transport.client import HttpClient
from repro.transport.http11 import HttpRequest
from repro.transport.httpserver import HttpServer, serve_once
from repro.web.app import compose_handlers

pytestmark = pytest.mark.obs


def _burn_cpu(stop: threading.Event) -> int:
    """A recognizable hot frame for the sampler to catch."""
    acc = 0
    while not stop.is_set():
        acc = (acc * 31 + 7) % 1000003
    return acc


def _burn_in_span(stop: threading.Event) -> None:
    """Burn CPU under a span carrying an http.target attribute."""
    with OBS.tracer.span(
        "handler", attributes={"http.target": "/api/fib?n=30"}
    ):
        _burn_cpu(stop)


@contextlib.contextmanager
def busy_thread(target=_burn_cpu):
    stop = threading.Event()
    thread = threading.Thread(target=target, args=(stop,), daemon=True)
    thread.start()
    try:
        yield stop
    finally:
        stop.set()
        thread.join(timeout=5.0)


def _family(registry, name):
    for family in registry.collect():
        if family.name == name:
            return family
    raise AssertionError(f"family {name!r} not registered")


class TestSamplingProfiler:
    def test_catches_hot_frame(self):
        with busy_thread():
            report = SamplingProfiler(hz=200.0).profile(0.3)
        assert report.samples > 0
        assert report.hz == 200.0
        assert report.reason == "manual"
        hot = [s for s in report.folded if "test_profiling.py:_burn_cpu" in s]
        assert hot, f"no _burn_cpu stack in {list(report.folded)}"
        # stacks are root-first: the burner sits below the thread bootstrap
        frames = hot[0].split(";")
        assert frames.index("threading.py:run") < frames.index(
            "test_profiling.py:_burn_cpu"
        )
        # and the busiest non-idle stack is the burner
        top_stack, top_count = report.top(1)[0]
        assert "test_profiling.py:_burn_cpu" in top_stack
        assert top_count > 0

    def test_parked_threads_fold_into_idle_bucket(self):
        # profile() parks the calling thread in Event.wait for the whole
        # session, so (idle) must absorb it
        report = SamplingProfiler(hz=200.0).profile(0.1)
        assert IDLE_KEY in report.folded

    def test_idle_http_server_threads_fold_into_idle_bucket(self):
        # workers block in the epoll set from C, so their Python leaf is
        # HttpServer's wait function; unfolded it would be the hottest
        # stack of any profile taken on a quiet server
        with HttpServer(lambda request: None, workers=3):
            report = SamplingProfiler(hz=200.0).profile(0.15)
        assert not [s for s in report.folded if "httpserver.py" in s]

    def test_include_idle_keeps_parked_stacks_verbatim(self):
        report = SamplingProfiler(hz=200.0, include_idle=True).profile(0.1)
        assert IDLE_KEY not in report.folded
        assert any(s.endswith("threading.py:wait") for s in report.folded)

    def test_max_stacks_overflows_into_other_bucket(self):
        # >= 2 distinct stacks guaranteed: the parked main thread plus
        # the burner; with room for only one, the rest must aggregate
        with busy_thread():
            report = SamplingProfiler(hz=200.0, max_stacks=1).profile(0.15)
        assert OVERFLOW_KEY in report.folded
        assert len(report.folded) <= 2  # one kept stack + (other)

    def test_span_route_tags_lead_the_folded_stack(self):
        with observed(SpanCollector()):
            profiler = SamplingProfiler(hz=200.0).start()
            try:
                with busy_thread(_burn_in_span):
                    time.sleep(0.3)
            finally:
                report = profiler.stop()
        tagged = [s for s in report.folded if s.startswith("route:/api/fib;")]
        assert tagged, f"no tagged stack in {list(report.folded)}"
        # the query string was stripped from the tag
        assert not any("?n=30" in s for s in report.folded)

    def test_hooks_installed_while_running_released_after(self):
        profiler = SamplingProfiler(hz=50.0)
        assert trace_module._PROFILE_ENTER is None
        profiler.start()
        try:
            assert trace_module._PROFILE_ENTER is not None
            # refcounted: a second profiler keeps hooks alive past the
            # first one's stop
            other = SamplingProfiler(hz=50.0).start()
            other.stop()
            assert trace_module._PROFILE_ENTER is not None
        finally:
            profiler.stop()
        assert trace_module._PROFILE_ENTER is None
        assert trace_module._PROFILE_EXIT is None

    def test_lifecycle_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stacks=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_depth=0)
        profiler = SamplingProfiler(hz=50.0)
        with pytest.raises(ValueError):
            profiler.profile(0.0)
        with pytest.raises(RuntimeError):
            profiler.stop()  # never started
        profiler.start()
        try:
            assert profiler.running
            with pytest.raises(RuntimeError):
                profiler.start()  # already running
        finally:
            profiler.stop()
        assert not profiler.running

    def test_instrumented_when_observed(self):
        with observed() as obs:
            profiler = SamplingProfiler(hz=200.0)
            with busy_thread():
                profiler.start()
                time.sleep(0.1)
                active = _family(obs.registry, "repro_profiler_active")
                assert active.samples[()] == 1.0
                profiler.stop()
            assert _family(obs.registry, "repro_profiler_active").samples[()] == 0.0
            samples = _family(obs.registry, "repro_profiler_samples_total")
            assert samples.samples[()] > 0


class TestFoldedPlumbing:
    def test_collapsed_parse_round_trip(self):
        folded = {"main;hot": 3, "main;cold": 1, "(idle)": 7}
        report = ProfileReport(
            folded, samples=11, duration=0.5, hz=100.0, captured_at=123.0
        )
        text = report.collapsed()
        assert text.startswith("# profile reason=manual samples=11")
        assert parse_collapsed(text) == folded

    def test_parse_skips_comments_and_malformed_lines(self):
        text = "junk\nx y notanumber\n# a comment\na;b 2\na;b 3\n"
        assert parse_collapsed(text) == {"a;b": 5}

    def test_merge_folded_sums_counts(self):
        merged = merge_folded([{"a": 1, "b": 2}, {"b": 3, "c": 4}])
        assert merged == {"a": 1, "b": 5, "c": 4}

    def test_top_excludes_idle_and_overflow(self):
        report = ProfileReport(
            {"hot": 2, IDLE_KEY: 50, OVERFLOW_KEY: 9},
            samples=61,
            duration=1.0,
            hz=100.0,
            captured_at=0.0,
        )
        assert report.top() == [("hot", 2)]

    def test_flamegraph_nests_frames_under_callers(self):
        out = render_flamegraph({"main;hot": 75, "main;cold": 25})
        lines = out.splitlines()
        assert lines[0] == "total: 100 samples"
        assert "100.0%" in lines[1] and lines[1].endswith("main")
        # children indented under main, hottest first
        assert lines[2].startswith("  ") and lines[2].endswith("hot")
        assert lines[3].startswith("  ") and lines[3].endswith("cold")

    def test_flamegraph_elides_below_min_percent(self):
        out = render_flamegraph({"a": 99, "b": 1}, min_percent=5.0)
        assert "a" in out
        assert "\n" + "b" not in out

    def test_flamegraph_empty(self):
        assert render_flamegraph({}) == "(no samples)\n"


class TestProfileRing:
    def _report(self, n):
        return ProfileReport(
            {"s": n}, samples=n, duration=0.1, hz=100.0, captured_at=float(n)
        )

    def test_bounded_eviction_keeps_newest(self):
        ring = ProfileRing(2)
        for n in (1, 2, 3):
            ring.add(self._report(n))
        assert len(ring) == 2
        assert ring.last().samples == 3
        assert [r.samples for r in ring.reports()] == [2, 3]

    def test_empty_and_clear(self):
        ring = ProfileRing(2)
        assert ring.last() is None
        ring.add(self._report(1))
        ring.clear()
        assert len(ring) == 0 and ring.last() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ProfileRing(0)


class TestDumpThreads:
    def test_renders_every_live_thread(self):
        text = dump_threads()
        assert text.startswith("== ")
        assert threading.current_thread().name in text
        # the dumping thread's own stack includes this test function
        assert "test_renders_every_live_thread" in text


class TestAutoCapture:
    def test_slo_firing_captures_into_ring(self):
        bus = EventBus()  # unstarted: synchronous delivery
        ring = ProfileRing(4)
        subscription = attach_auto_capture(
            bus, ring, seconds=0.1, hz=200.0, background=False
        )
        with observed() as obs, busy_thread():
            bus.publish(TOPIC_FIRING, {"objective": "work-latency"})
            report = ring.last()
            assert report is not None
            assert report.reason == "slo:work-latency"
            assert report.samples > 0
            captures = _family(obs.registry, "repro_profiler_captures_total")
            assert captures.samples[("slo_firing",)] == 1.0
        # detaching stops further captures
        bus.unsubscribe(subscription)
        bus.publish(TOPIC_FIRING, {"objective": "work-latency"})
        assert len(ring) == 1

    def test_defaults_to_module_ring(self):
        bus = EventBus()
        subscription = attach_auto_capture(
            bus, seconds=0.05, hz=100.0, background=False
        )
        try:
            bus.publish(TOPIC_FIRING, {"objective": "x"})
            assert LAST_PROFILES.last() is not None
        finally:
            bus.unsubscribe(subscription)
            LAST_PROFILES.clear()


class TestDebugRoutes:
    def test_profile_route_returns_collapsed_stacks(self):
        handler = debug_routes()["/debug/profile"]
        with busy_thread():
            response = serve_once(
                handler, HttpRequest("GET", "/debug/profile?seconds=0.1&hz=200")
            )
        assert response.status == 200
        body = response.text()
        assert body.startswith("# profile reason=debug_endpoint")
        assert "test_profiling.py:_burn_cpu" in body

    def test_profile_route_flame_format_and_hz_cap(self):
        handler = debug_routes()["/debug/profile"]
        response = serve_once(
            handler,
            HttpRequest("GET", "/debug/profile?seconds=0.05&hz=99999&format=flame"),
        )
        assert response.status == 200
        # hz was capped server-side; the title reports the real rate
        assert "at 997 Hz" in response.text()

    def test_profile_route_rejects_bad_parameters(self):
        handler = debug_routes()["/debug/profile"]
        for target in (
            "/debug/profile?seconds=abc",
            "/debug/profile?seconds=0",
            "/debug/profile?hz=-5",
        ):
            assert serve_once(handler, HttpRequest("GET", target)).status == 400
        assert serve_once(handler, HttpRequest("POST", "/debug/profile")).status == 405

    def test_last_profiles_route_404_until_captured(self):
        ring = ProfileRing(2)
        handler = debug_routes(ring)["/debug/profiles/last"]
        request = HttpRequest("GET", "/debug/profiles/last")
        assert serve_once(handler, request).status == 404
        ring.add(
            ProfileReport(
                {"main;hot": 5},
                samples=5,
                duration=0.1,
                hz=100.0,
                captured_at=1.0,
                reason="slo:latency",
            )
        )
        response = serve_once(handler, request)
        assert response.status == 200
        assert "main;hot 5" in response.text()
        flame = serve_once(
            handler, HttpRequest("GET", "/debug/profiles/last?format=flame")
        )
        assert "total: 5 samples" in flame.text()

    def test_observability_routes_mount_and_unmount_debug(self):
        routes = observability_routes()
        assert {"/debug/profile", "/debug/threads", "/debug/profiles/last"} <= set(
            routes
        )
        assert "/debug/profile" not in observability_routes(debug=False)

    def test_threads_route_renders_while_workers_parked_in_epoll(self):
        # Regression: the dump must render from inside a worker thread
        # while a sibling worker sits blocked in the server's epoll set
        # and the overflow thread sleeps on its condition.
        handler = compose_handlers(observability_routes())
        with HttpServer(handler, workers=2) as server:
            client = HttpClient(server.host, server.port)
            try:
                # first request re-arms this keep-alive connection in the
                # epoll set; the dump then runs over that live topology
                assert client.get("/metrics").status == 200
                # the worker that served it may still be on its way back
                deadline = time.monotonic() + 5
                while server._idle_workers < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                response = client.get("/debug/threads")
            finally:
                client.close()
        assert response.status == 200
        body = response.text()
        assert "http-worker-0" in body and "http-worker-1" in body
        assert "http-overflow" in body
        # the idle worker is visibly parked in the wait set, not wedged
        assert "_await_ready" in body
        # and the dump itself ran on a worker thread mid-request
        assert "dump_threads" in body
