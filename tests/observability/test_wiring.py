"""The stack is actually wired: broker, resilience, crawler, web app
telemetry shows up when — and only when — observability is enabled."""

import pytest

from repro.core import (
    BrokerError,
    Endpoint,
    ServiceBroker,
    ServiceBus,
    ServiceUnavailable,
)
from repro.core.service import Service, operation
from repro.observability import OBS, SpanCollector, observed
from repro.resilience import (
    BulkheadPolicy,
    CircuitPolicy,
    FallbackPolicy,
    ManualClock,
    ResiliencePolicy,
    ResilientInvoker,
    RetryBudget,
    RetryPolicy,
)

pytestmark = pytest.mark.obs


class Quote(Service):
    """Test provider."""

    @operation
    def price(self, symbol: str) -> float:
        """A constant quote."""
        return 42.0


class TestBrokerWiring:
    def test_publish_lookup_unpublish_counted(self):
        bus = ServiceBus()
        broker = ServiceBroker()
        with observed() as obs:
            address = bus.host_and_publish(Quote(), broker)
            assert address.startswith("inproc://")
            broker.lookup("Quote")
            with pytest.raises(BrokerError):
                broker.lookup("Nope")
            broker.unpublish("Quote")
            with pytest.raises(BrokerError):
                broker.unpublish("Quote")
            ops = obs.instruments.broker_ops
            assert ops.value(op="publish", outcome="ok") == 1
            assert ops.value(op="lookup", outcome="ok") >= 1
            assert ops.value(op="lookup", outcome="missing") == 1
            assert ops.value(op="unpublish", outcome="ok") == 1
            assert ops.value(op="unpublish", outcome="missing") == 1

    def test_qos_reports_counted_by_kind(self):
        broker = ServiceBroker()
        broker.publish(Quote().contract(), Endpoint("inproc", "inproc://quote"))
        with observed() as obs:
            broker.report("Quote", 0.1)
            broker.report("Quote", 0.2, fault=True)
            broker.report("Quote", 0.0, fault=True, fast_fail=True)
            qos = obs.instruments.broker_qos
            assert qos.value(kind="ok") == 1
            assert qos.value(kind="fault") == 1
            assert qos.value(kind="fast_fail") == 1

    def test_silent_when_disabled(self):
        broker = ServiceBroker()
        assert not OBS.enabled
        broker.publish(Quote().contract(), Endpoint("inproc", "x"))
        assert OBS.instruments.broker_ops.value(op="publish", outcome="ok") == 0


def _failing_then_ok(failures):
    state = {"left": failures}

    def fn(operation_name, arguments):
        if state["left"] > 0:
            state["left"] -= 1
            raise ServiceUnavailable("down")
        return "up"

    return fn


class TestResilienceEventWiring:
    def test_retry_events_and_metric(self):
        clock = ManualClock()
        invoker = ResilientInvoker(
            _failing_then_ok(2),
            ResiliencePolicy(retry=RetryPolicy(attempts=3), circuit=None),
            clock=clock,
            sleep=clock.sleep,
        )
        collector = SpanCollector()
        with observed(collector) as obs:
            assert invoker("op", {}) == "up"
            events = obs.instruments.resilience_events
            assert events.value(event="retry") == 2
        (span,) = collector.named("resilience.call")
        assert [e.name for e in span.events] == ["retry", "retry"]
        assert span.attributes["attempts"] == 3

    def test_stopped_retries_say_why(self):
        clock = ManualClock()
        starved = ResilientInvoker(
            _failing_then_ok(100),
            ResiliencePolicy(
                retry=RetryPolicy(attempts=3, base_delay=0.0), circuit=None
            ),
            clock=clock,
            sleep=clock.sleep,
            budget=RetryBudget(ratio=0.1, burst=1.0),  # one retry, then dry
        )
        hurried = ResilientInvoker(
            _failing_then_ok(100),
            ResiliencePolicy(
                deadline_seconds=1.0,
                retry=RetryPolicy(attempts=3, base_delay=5.0),
                circuit=None,
            ),
            clock=clock,
            sleep=clock.sleep,
        )
        exhausted = ResilientInvoker(
            _failing_then_ok(100),
            ResiliencePolicy(
                retry=RetryPolicy(attempts=2, base_delay=0.0), circuit=None
            ),
            clock=clock,
            sleep=clock.sleep,
        )
        collector = SpanCollector()
        with observed(collector) as obs:
            for invoker in (starved, hurried, exhausted):
                with pytest.raises(ServiceUnavailable):
                    invoker("op", {})
            events = obs.instruments.resilience_events
            assert events.value(event="retry_stopped") == 2
            assert events.value(event="retry") == 2
        starved_span, hurried_span, exhausted_span = collector.named(
            "resilience.call"
        )
        assert [
            (e.name, e.attributes.get("reason")) for e in starved_span.events
        ] == [("retry", None), ("retry_stopped", "budget")]
        (stopped,) = hurried_span.events
        assert stopped.name == "retry_stopped"
        assert stopped.attributes["reason"] == "deadline"
        assert stopped.attributes["attempt"] == 1
        # Running out of attempts is the schedule ending, not a stop.
        assert [e.name for e in exhausted_span.events] == ["retry"]

    def test_breaker_open_and_fast_fail_events(self):
        clock = ManualClock()
        invoker = ResilientInvoker(
            _failing_then_ok(100),
            ResiliencePolicy(
                retry=None,
                circuit=CircuitPolicy(failure_threshold=2, recovery_seconds=60),
            ),
            clock=clock,
        )
        with observed() as obs:
            for _ in range(2):
                with pytest.raises(ServiceUnavailable):
                    invoker("op", {})
            with pytest.raises(ServiceUnavailable):
                invoker("op", {})  # circuit now open -> fast fail
            events = obs.instruments.resilience_events
            assert events.value(event="breaker_open") == 1
            assert events.value(event="breaker_fast_fail") == 1

    def test_breaker_probe_and_close_events(self):
        clock = ManualClock()
        invoker = ResilientInvoker(
            _failing_then_ok(2),
            ResiliencePolicy(
                retry=None,
                circuit=CircuitPolicy(failure_threshold=2, recovery_seconds=5),
            ),
            clock=clock,
        )
        with observed() as obs:
            for _ in range(2):
                with pytest.raises(ServiceUnavailable):
                    invoker("op", {})
            clock.advance(6)  # open -> half-open
            assert invoker("op", {}) == "up"  # the probe closes it
            events = obs.instruments.resilience_events
            assert events.value(event="breaker_probe") == 1
            assert events.value(event="breaker_close") == 1

    def test_bulkhead_reject_event(self):
        import threading

        release = threading.Event()
        entered = threading.Event()

        def slow(operation_name, arguments):
            entered.set()
            release.wait(timeout=5)
            return "done"

        invoker = ResilientInvoker(
            slow,
            ResiliencePolicy(
                retry=None,
                circuit=None,
                bulkhead=BulkheadPolicy(max_concurrent=1),
            ),
        )
        with observed() as obs:
            worker = threading.Thread(target=invoker, args=("op", {}))
            worker.start()
            try:
                assert entered.wait(timeout=5)
                with pytest.raises(ServiceUnavailable):
                    invoker("op", {})
            finally:
                release.set()
                worker.join(timeout=5)
            events = obs.instruments.resilience_events
            assert events.value(event="bulkhead_reject") == 1

    def test_fallback_and_deadline_events(self):
        clock = ManualClock()
        invoker = ResilientInvoker(
            _failing_then_ok(100),
            ResiliencePolicy(
                retry=None,
                circuit=None,
                fallback=FallbackPolicy(value="stale"),
            ),
            clock=clock,
        )
        with observed() as obs:
            assert invoker("op", {}) == "stale"
            assert obs.instruments.resilience_events.value(event="fallback") == 1

        def too_slow(operation_name, arguments):
            clock.advance(10)
            return "late"

        slow_invoker = ResilientInvoker(
            too_slow,
            ResiliencePolicy(deadline_seconds=1.0, retry=None, circuit=None),
            clock=clock,
        )
        from repro.core import TimeoutFault

        with observed() as obs:
            with pytest.raises(TimeoutFault):
                slow_invoker("op", {})
            assert obs.instruments.resilience_events.value(event="deadline") == 1


class TestCrawlerWiring:
    def _crawler(self, **kwargs):
        from repro.directory import ServiceCrawler
        from repro.directory.webgraph import Page, WebGraph

        graph = WebGraph()
        # "dead" is linked but never added to the graph -> fetch() -> None
        graph.add(
            Page(
                "http://a.example/index",
                "<html>index</html>",
                links=["http://a.example/dead"],
            )
        )
        return ServiceCrawler(graph, **kwargs)

    def test_fetch_outcomes_counted(self):
        crawler = self._crawler()
        with observed() as obs:
            report = crawler.crawl(["http://a.example/index"])
            assert report.pages_fetched == 2
            fetches = obs.instruments.crawler_fetches
            assert fetches.value(outcome="ok") == 1
            assert fetches.value(outcome="dead") == 1

    def test_crawl_span_summarises_report(self):
        crawler = self._crawler()
        collector = SpanCollector()
        with observed(collector):
            crawler.crawl(["http://a.example/index"])
        (span,) = collector.named("crawler.crawl")
        assert span.attributes["seeds"] == 1
        assert span.attributes["pages"] == 2
        assert span.attributes["dead_links"] == 1

    def test_quarantine_events_counted(self):
        from repro.resilience import (
            CircuitBreakerRegistry,
            CircuitPolicy,
            ManualClock,
        )

        clock = ManualClock()
        crawler = self._crawler(
            breakers=CircuitBreakerRegistry(
                CircuitPolicy(failure_threshold=1, recovery_seconds=60),
                clock=clock,
            )
        )
        with observed() as obs:
            crawler.crawl(["http://a.example/dead"])
            crawler.crawl(["http://a.example/dead"])  # now skipped
            quarantine_events = obs.instruments.crawler_quarantine
            assert quarantine_events.value(event="quarantined") == 1
            assert quarantine_events.value(event="skipped") == 1


class TestWebAppWiring:
    def _app(self):
        from repro.transport.http11 import HttpResponse
        from repro.web import WebApp

        app = WebApp()

        @app.page("/hello")
        def hello(context):
            return HttpResponse.text_response("hi")

        @app.page("/boom")
        def boom(context):
            raise RuntimeError("page exploded")

        return app

    def test_requests_counted_by_outcome(self):
        from repro.transport.http11 import HttpRequest

        app = self._app()
        with observed() as obs:
            assert app(HttpRequest("GET", "/hello")).status == 200
            assert app(HttpRequest("GET", "/boom")).status == 500
            requests = obs.instruments.webapp_requests
            assert requests.value(outcome="ok") == 1
            assert requests.value(outcome="error") == 1
            assert obs.instruments.webapp_seconds.count() == 2
        assert app.request_count == 2
