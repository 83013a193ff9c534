"""In-process service bus: the simplest binding.

The bus maps addresses to :class:`~repro.core.service.ServiceHost`
dispatchers.  A bus address looks like ``inproc://calculator``.  The bus is
the reference binding: SOAP and REST endpoints in :mod:`repro.transport`
produce exactly the same observable behaviour as a bus call, just over a
wire format (tested by the cross-binding integration tests).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Optional

from ..observability.runtime import OBS
from .broker import Endpoint, ServiceBroker
from .faults import TransportError
from .service import InvocationContext, Service, ServiceHost

__all__ = ["ServiceBus", "BusClient"]

_perf_counter = time.perf_counter


class ServiceBus:
    """A registry of in-process endpoints addressed by name."""

    SCHEME = "inproc://"

    def __init__(self) -> None:
        self._hosts: dict[str, ServiceHost] = {}
        self._lock = threading.Lock()

    def host(self, service: Service, address: Optional[str] = None) -> str:
        """Host a service; returns its full bus address."""
        host = ServiceHost(service)
        key = address or host.name.lower()
        with self._lock:
            if key in self._hosts:
                raise TransportError(f"bus address {key!r} already in use")
            self._hosts[key] = host
        return self.SCHEME + key

    def host_and_publish(
        self,
        service: Service,
        broker: ServiceBroker,
        *,
        provider: str = "anonymous",
        lease_seconds: Optional[float] = None,
    ) -> str:
        """Host a service and publish its contract + endpoint to a broker."""
        address = self.host(service)
        broker.publish(
            service.contract(),
            Endpoint("inproc", address),
            provider=provider,
            lease_seconds=lease_seconds,
        )
        return address

    def unhost(self, address: str) -> None:
        key = self._key(address)
        with self._lock:
            if key not in self._hosts:
                raise TransportError(f"no service hosted at {address!r}")
            del self._hosts[key]

    def _key(self, address: str) -> str:
        if address.startswith(self.SCHEME):
            return address[len(self.SCHEME):]
        return address

    def resolve(self, address: str) -> ServiceHost:
        key = self._key(address)
        with self._lock:
            host = self._hosts.get(key)
        if host is None:
            raise TransportError(f"no service hosted at {address!r}")
        return host

    def call(
        self,
        address: str,
        operation: str,
        arguments: Optional[dict[str, Any]] = None,
        context: Optional[InvocationContext] = None,
    ) -> Any:
        """Invoke an operation on the service at ``address``.

        The bus is the system's hottest dispatch path (~5µs/call), so
        its instrumentation is budgeted: disabled observability costs
        one flag check; enabled-with-no-op-exporter costs exact outcome
        counts plus 1-in-N sampled latency (see
        ``benchmarks/bench_observability_overhead.py``); span
        construction happens only under a collecting exporter.
        """
        if not OBS.enabled:
            return self.resolve(address).invoke(operation, arguments, context)
        host = self.resolve(address)
        bus_metrics = OBS.instruments.bus
        if OBS.tracer.sampling:
            return self._traced_call(
                host, bus_metrics, address, operation, arguments, context
            )
        # Metrics-only fast path: inline on purpose — every attribute
        # load and method call here is paid by all instrumented traffic.
        # Outcome counts are atomic ``next()`` ticks; the unsampled
        # branch never touches a clock or a lock.
        record = bus_metrics.records.get(operation)
        if record is None:
            record = bus_metrics.record_for(operation)
        if next(bus_metrics.tick) & bus_metrics.mask:
            try:
                result = host.invoke(operation, arguments, context)
            except Exception:
                next(record.fault)
                raise
            next(record.ok)
            return result
        start = _perf_counter()
        try:
            result = host.invoke(operation, arguments, context)
        except Exception:
            elapsed = _perf_counter() - start
            next(record.fault)
            with record.lock:
                record.counts[bisect_left(bus_metrics.buckets, elapsed)] += 1
                record.total += elapsed
            raise
        elapsed = _perf_counter() - start
        next(record.ok)
        with record.lock:
            record.counts[bisect_left(bus_metrics.buckets, elapsed)] += 1
            record.total += elapsed
        return result

    def _traced_call(
        self,
        host: ServiceHost,
        bus_metrics: Any,
        address: str,
        operation: str,
        arguments: Optional[dict[str, Any]],
        context: Optional[InvocationContext],
    ) -> Any:
        """Span-per-dispatch path (a collecting exporter is installed)."""
        record = bus_metrics.record_for(operation)
        with OBS.tracer.span(
            "bus.call",
            kind="server",
            attributes={
                "binding": "inproc",
                "address": address,
                "operation": operation,
            },
        ) as span:
            start = _perf_counter()
            try:
                result = host.invoke(operation, arguments, context)
            except Exception as exc:
                elapsed = _perf_counter() - start
                span.record_exception(exc)
                next(record.fault)
                with record.lock:
                    record.counts[
                        bisect_left(bus_metrics.buckets, elapsed)
                    ] += 1
                    record.total += elapsed
                raise
            elapsed = _perf_counter() - start
            next(record.ok)
            with record.lock:
                record.counts[bisect_left(bus_metrics.buckets, elapsed)] += 1
                record.total += elapsed
            return result

    def addresses(self) -> list[str]:
        with self._lock:
            return sorted(self.SCHEME + key for key in self._hosts)


class BusClient:
    """Broker-aware client: discovers a service by name and calls it,
    reporting observed QoS back to the broker.

    For a call defended by a resilience policy, bind a proxy with
    :func:`~repro.core.proxy.proxy_from_broker` and ``policy=...``.
    """

    def __init__(self, bus: ServiceBus, broker: ServiceBroker) -> None:
        self.bus = bus
        self.broker = broker

    def call(self, service_name: str, operation: str, **arguments: Any) -> Any:
        """Discover, invoke, and report QoS."""
        endpoint = self.broker.endpoint_for(service_name, binding="inproc")
        start = time.perf_counter()
        try:
            result = self.bus.call(endpoint.address, operation, arguments)
        except Exception:
            self.broker.report(
                service_name,
                time.perf_counter() - start,
                fault=True,
                endpoint=endpoint,
            )
            raise
        self.broker.report(
            service_name, time.perf_counter() - start, endpoint=endpoint
        )
        return result
