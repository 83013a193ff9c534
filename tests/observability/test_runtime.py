"""Unit tests for the runtime seam: OBS, instruments, bus dispatch metrics."""

import threading

import pytest

from repro.core import ServiceBus, ServiceFault
from repro.core.service import Service, operation
from repro.observability import (
    OBS,
    BusDispatchMetrics,
    SpanCollector,
    observed,
    render_prometheus,
)
from repro.observability.runtime import _tick_value

pytestmark = pytest.mark.obs


class Echo(Service):
    """Test service: echo and a fault raiser."""

    @operation
    def say(self, text: str) -> str:
        """Echo ``text``."""
        return text

    @operation
    def boom(self) -> str:
        """Always faults."""
        raise ServiceFault("no", code="Server.Boom")


@pytest.fixture
def bus_and_address():
    bus = ServiceBus()
    address = bus.host(Echo())
    return bus, address


class TestObservedIsolation:
    def test_disabled_by_default(self):
        assert OBS.enabled is False

    def test_observed_swaps_and_restores_state(self):
        before = (OBS.enabled, OBS.registry, OBS.instruments, OBS.tracer)
        with observed() as obs:
            assert obs is OBS
            assert OBS.enabled is True
            assert OBS.registry is not before[1]
        assert (OBS.enabled, OBS.registry, OBS.instruments, OBS.tracer) == before

    def test_observed_restores_on_exception(self):
        enabled_before = OBS.enabled
        with pytest.raises(RuntimeError):
            with observed():
                raise RuntimeError("boom")
        assert OBS.enabled == enabled_before

    def test_enable_without_exporter_keeps_tracing_off(self):
        with observed():
            assert OBS.enabled
            # observed() installs a collecting tracer only when an
            # exporter is passed; none here -> no-op spans
            assert not OBS.tracer.sampling

    def test_reset_installs_fresh_instruments(self):
        with observed() as obs:
            first = obs.instruments
            obs.reset()
            assert obs.instruments is not first
            assert obs.enabled is False
            obs.enable()
            assert obs.enabled is True


class TestBusDispatchMetrics:
    def test_latency_sample_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BusDispatchMetrics(latency_sample=3)
        BusDispatchMetrics(latency_sample=4)  # fine

    def test_tick_value_reads_without_consuming(self):
        metrics = BusDispatchMetrics()
        record = metrics.record_for("op")
        assert _tick_value(record.ok) == 0
        for _ in range(5):
            next(record.ok)
        assert _tick_value(record.ok) == 5
        assert _tick_value(record.ok) == 5  # reading twice doesn't consume

    def test_exact_counts_with_sampled_latency(self, bus_and_address):
        bus, address = bus_and_address
        with observed(latency_sample=4) as obs:
            for _ in range(10):
                bus.call(address, "say", {"text": "hi"})
            for _ in range(3):
                with pytest.raises(ServiceFault):
                    bus.call(address, "boom")
            assert obs.instruments.bus.calls("say") == (10, 0)
            assert obs.instruments.bus.calls("boom") == (0, 3)
            families = {f.name: f for f in obs.instruments.bus.families()}
            totals = families["repro_bus_dispatch_total"]
            assert totals.samples[("say", "ok")] == 10.0
            assert totals.samples[("boom", "fault")] == 3.0
            latency = families["repro_bus_dispatch_seconds"]
            counts, _, count = latency.samples[("say",)]
            # 1-in-4 sampling: ticks are shared across operations, so
            # only bound the sample count, don't pin it.
            assert 0 < count <= 10
            assert sum(counts) == count

    def test_latency_exact_when_sample_is_one(self, bus_and_address):
        bus, address = bus_and_address
        with observed(latency_sample=1) as obs:
            for _ in range(7):
                bus.call(address, "say", {"text": "x"})
            families = {f.name: f for f in obs.instruments.bus.families()}
            _, total, count = families["repro_bus_dispatch_seconds"].samples[
                ("say",)
            ]
            assert count == 7
            assert total > 0

    def test_counts_exact_under_contention(self, bus_and_address):
        bus, address = bus_and_address
        with observed(latency_sample=8) as obs:

            def hammer():
                for _ in range(500):
                    bus.call(address, "say", {"text": "t"})

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert obs.instruments.bus.calls("say") == (4000, 0)

    def test_bus_families_surface_in_metrics_page(self, bus_and_address):
        bus, address = bus_and_address
        with observed():
            bus.call(address, "say", {"text": "page"})
            text = render_prometheus()
        assert 'repro_bus_dispatch_total{operation="say",outcome="ok"} 1' in text


class TestBusTracing:
    def test_traced_call_builds_server_span(self, bus_and_address):
        bus, address = bus_and_address
        collector = SpanCollector()
        with observed(collector):
            bus.call(address, "say", {"text": "traced"})
        (span,) = collector.spans()
        assert span.name == "bus.call"
        assert span.kind == "server"
        assert span.attributes["binding"] == "inproc"
        assert span.attributes["operation"] == "say"

    def test_traced_fault_recorded_and_counted(self, bus_and_address):
        bus, address = bus_and_address
        collector = SpanCollector()
        with observed(collector) as obs:
            with pytest.raises(ServiceFault):
                bus.call(address, "boom")
            assert obs.instruments.bus.calls("boom") == (0, 1)
        (span,) = collector.spans()
        assert span.status == "error"
        assert span.attributes["fault.code"] == "Server.Boom"

    def test_disabled_observability_records_nothing(self, bus_and_address):
        bus, address = bus_and_address
        assert not OBS.enabled
        assert bus.call(address, "say", {"text": "quiet"}) == "quiet"
        # no instruments touched: the default instruments stay empty
        assert OBS.instruments.bus.calls("say") == (0, 0)
