"""Attach resilience policies at the proxy/bus/transport boundary.

This module closes the QoS loop the broker's bookkeeping was waiting for:

* :func:`broker_reporter` turns policy :class:`Observation` outcomes into
  :meth:`~repro.core.broker.ServiceBroker.report` calls (latency, faults,
  fast-fails, attributed per endpoint);
* :func:`invoker_for_endpoint` builds a raw invoker for any registered
  binding — ``inproc`` over the bus, ``soap``/``rest`` over HTTP clients
  (imported lazily to keep layering one-directional);
* :class:`FailoverInvoker` walks a service's endpoints *healthiest first*
  (:meth:`~repro.core.broker.ServiceBroker.endpoints_by_preference`) and
  fails over across bindings when the policy-defended call still fails;
* :func:`resilient_proxy_from_broker` wires it all behind a typed
  :class:`~repro.core.proxy.ServiceProxy`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Iterable, Optional

from ..core.broker import Endpoint, ServiceBroker
from ..core.bus import ServiceBus
from ..core.contracts import ServiceContract
from ..core.faults import (
    ServiceUnavailable,
    TimeoutFault,
    TransportError,
)
from ..core.proxy import ServiceProxy, make_proxy
from .breaker import CircuitBreakerRegistry
from .middleware import Middleware, Observation, Reporter, ResilientInvoker
from .policy import ResiliencePolicy, RetryBudget

__all__ = [
    "broker_reporter",
    "invoker_for_endpoint",
    "failover_call",
    "PooledHttpClients",
    "FailoverInvoker",
    "resilient_proxy_from_broker",
    "FAILOVER_FAULTS",
]

Invoker = Callable[[str, dict[str, Any]], Any]
HttpFactory = Callable[[str, int], Any]

#: Failures that justify abandoning one endpoint for the next: the
#: provider refused, timed out, or was unreachable.  Application faults
#: (bad input, unknown operation...) propagate immediately — another
#: binding of the same contract would fail identically.
FAILOVER_FAULTS: tuple[type[Exception], ...] = (
    ServiceUnavailable,
    TimeoutFault,
    TransportError,
    OSError,
)


def failover_call(
    attempts: "Iterable[Callable[[], Any]]",
    *,
    failover_on: tuple[type[Exception], ...] = FAILOVER_FAULTS,
    exhausted: Optional[Callable[[], Exception]] = None,
) -> Any:
    """Try zero-argument ``attempts`` in order; first success wins.

    This is the one failover semantics shared by
    :class:`FailoverInvoker`, the replica balancer and the legacy
    :class:`~repro.security.reliability.ReplicatedInvoker` shim: failures
    in ``failover_on`` move on to the next attempt, anything else
    propagates immediately (another replica of the same contract would
    fail identically), and when every attempt failed the *last* failure
    is re-raised.  ``exhausted`` supplies the exception for an empty
    attempt sequence.
    """
    last: Optional[Exception] = None
    for attempt in attempts:
        try:
            return attempt()
        except failover_on as exc:
            last = exc
    if last is None:
        if exhausted is not None:
            raise exhausted()
        raise ServiceUnavailable("no attempts to fail over across")
    raise last


class PooledHttpClients:
    """One pooled :class:`HttpClient` per ``host:port`` authority.

    SOAP and REST endpoints of the same provider usually live behind one
    authority; sharing the pooled client means their keep-alive sockets
    are pooled *together*, and concurrent calls overlap on the wire
    instead of each binding dialing (and locking) its own single socket.
    Used as the ``http_factory`` of broker-guided invokers.
    """

    def __init__(self, factory: Optional[HttpFactory] = None) -> None:
        self._factory = factory
        self._clients: dict[tuple[str, int], Any] = {}
        self._lock = threading.Lock()

    def __call__(self, host: str, port: int) -> Any:
        key = (host, port)
        with self._lock:
            client = self._clients.get(key)
            if client is None:
                if self._factory is not None:
                    client = self._factory(host, port)
                else:
                    from ..transport.client import HttpClient  # lazy: layering

                    client = HttpClient(host, port)
                self._clients[key] = client
            return client

    def pool_stats(self) -> dict[str, dict[str, int]]:
        """Per-authority pool occupancy across every dialed client.

        The shape :meth:`HealthHandler.watch_pool` renders into the
        ``/healthz`` detail — clients without ``pool_stats`` (custom
        factories) are skipped rather than failing the document.
        """
        with self._lock:
            clients = dict(self._clients)
        stats: dict[str, dict[str, int]] = {}
        for (host, port), client in sorted(clients.items()):
            stats_fn = getattr(client, "pool_stats", None)
            if stats_fn is None:
                continue
            stats[f"{host}:{port}"] = stats_fn()
        return stats

    def close(self) -> None:
        """Close every pooled HTTP client dialed so far."""
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            try:
                client.close()
            except OSError:  # pragma: no cover - peer already gone
                pass


def broker_reporter(broker: ServiceBroker, service_name: str) -> Reporter:
    """Build a policy-outcome reporter feeding the broker's QoS loop."""

    def report(observation: Observation) -> None:
        broker.report(
            service_name,
            observation.latency,
            fault=observation.fault,
            endpoint=observation.endpoint,
            fast_fail=observation.fast_fail,
        )

    return report


def _split_http_address(address: str, service_name: str) -> tuple[str, int, str]:
    """Parse ``http://host:port/prefix/Service`` into (host, port, prefix)."""
    if not address.startswith("http://"):
        raise TransportError(f"not an http endpoint address: {address!r}")
    rest = address[len("http://") :]
    authority, _, path = rest.partition("/")
    host, _, port_text = authority.partition(":")
    port = int(port_text) if port_text else 80
    path = "/" + path
    suffix = "/" + service_name
    prefix = path[: -len(suffix)] if path.endswith(suffix) else path
    return host, port, prefix or "/"


def invoker_for_endpoint(
    endpoint: Endpoint,
    contract: ServiceContract,
    *,
    bus: Optional[ServiceBus] = None,
    http_factory: Optional[HttpFactory] = None,
) -> Invoker:
    """Build the raw invoker for one endpoint of ``contract``.

    ``inproc`` endpoints need a ``bus``; ``soap``/``rest`` endpoints build
    an HTTP client through ``http_factory`` (defaults to the socket
    :class:`~repro.transport.client.HttpClient`; tests can inject an
    in-memory double).
    """
    if endpoint.binding == "inproc":
        if bus is None:
            raise TransportError(
                f"endpoint {endpoint.address!r} needs a ServiceBus to bind"
            )

        def bus_invoker(operation: str, arguments: dict[str, Any]) -> Any:
            return bus.call(endpoint.address, operation, arguments)

        return bus_invoker

    if endpoint.binding in ("soap", "rest"):
        # Lazy import: resilience sits below transport in the layering.
        from ..transport.client import HttpClient
        from ..transport.rest import RestClient
        from ..transport.soap import SoapClient

        host, port, prefix = _split_http_address(endpoint.address, contract.name)
        http = (http_factory or HttpClient)(host, port)
        if endpoint.binding == "soap":
            return SoapClient(http, contract.name, prefix=prefix).call
        client = RestClient(http, contract.name, prefix=prefix)
        client._contract = contract  # already discovered via the broker
        return client.call

    raise TransportError(f"no invoker for binding {endpoint.binding!r}")


class FailoverInvoker:
    """Broker-guided failover across every binding of one service.

    Each call fetches the current healthiest-first endpoint order from the
    broker, then tries each endpoint's policy-defended invoker until one
    succeeds.  All per-endpoint invokers share one circuit-breaker
    registry and one retry budget, and every outcome is reported back to
    the broker — closing the loop so the *next* call prefers whatever just
    worked.  Endpoint invokers are built lazily and rebuilt when the
    registration's endpoint set changes (republish, added bindings).
    """

    def __init__(
        self,
        broker: ServiceBroker,
        service_name: str,
        *,
        bus: Optional[ServiceBus] = None,
        policy: Optional[ResiliencePolicy] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        budget: Optional[RetryBudget] = None,
        http_factory: Optional[HttpFactory] = None,
        middlewares: tuple[Middleware, ...] = (),
        failover_on: tuple[type[Exception], ...] = FAILOVER_FAULTS,
    ) -> None:
        self.broker = broker
        self.service_name = service_name
        self.policy = policy or ResiliencePolicy()
        self._bus = bus
        self._clock = clock
        self._sleep = sleep
        self._rng = rng
        self._budget = budget
        self._http_factory = http_factory
        self._middlewares = middlewares
        self._failover_on = failover_on
        self._breakers = (
            CircuitBreakerRegistry(self.policy.circuit, clock=clock)
            if self.policy.circuit is not None
            else None
        )
        self._reporter = broker_reporter(broker, service_name)
        self._invokers: dict[str, ResilientInvoker] = {}
        self._shared_http_client = PooledHttpClients()

    @property
    def breakers(self) -> Optional[CircuitBreakerRegistry]:
        """The shared per-endpoint breaker registry (None when disabled)."""
        return self._breakers

    def close(self) -> None:
        """Close every pooled HTTP client this invoker dialed."""
        self._shared_http_client.close()

    def _invoker_for(self, endpoint: Endpoint, contract: ServiceContract) -> ResilientInvoker:
        invoker = self._invokers.get(endpoint.key)
        if invoker is None:
            raw = invoker_for_endpoint(
                endpoint,
                contract,
                bus=self._bus,
                http_factory=self._http_factory or self._shared_http_client,
            )
            invoker = ResilientInvoker(
                raw,
                self.policy,
                endpoint=endpoint.key,
                clock=self._clock,
                sleep=self._sleep,
                rng=self._rng,
                breakers=self._breakers,
                budget=self._budget,
                reporter=self._reporter,
                middlewares=self._middlewares,
            )
            self._invokers[endpoint.key] = invoker
        return invoker

    def __call__(self, operation: str, arguments: dict[str, Any]) -> Any:
        registration = self.broker.lookup(self.service_name)
        endpoints = self.broker.endpoints_by_preference(self.service_name)

        def attempt(endpoint: Endpoint) -> Callable[[], Any]:
            invoker = self._invoker_for(endpoint, registration.contract)
            return lambda: invoker(operation, arguments)

        return failover_call(
            (attempt(endpoint) for endpoint in endpoints),
            failover_on=self._failover_on,
            exhausted=lambda: ServiceUnavailable(
                f"service {self.service_name!r} has no endpoints"
            ),
        )


def resilient_proxy_from_broker(
    broker: ServiceBroker,
    service_name: str,
    *,
    bus: Optional[ServiceBus] = None,
    policy: Optional[ResiliencePolicy] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    rng: Optional[random.Random] = None,
    budget: Optional[RetryBudget] = None,
    http_factory: Optional[HttpFactory] = None,
    middlewares: tuple[Middleware, ...] = (),
) -> ServiceProxy:
    """Discover ``service_name`` and bind a typed proxy with failover.

    The returned proxy validates calls against the discovered contract,
    prefers the healthiest endpoint by broker QoS, defends every attempt
    with ``policy``, reports outcomes back to the broker, and fails over
    across bindings (inproc → SOAP → REST or any order health dictates).
    """
    registration = broker.lookup(service_name)
    invoker = FailoverInvoker(
        broker,
        service_name,
        bus=bus,
        policy=policy,
        clock=clock,
        sleep=sleep,
        rng=rng,
        budget=budget,
        http_factory=http_factory,
        middlewares=middlewares,
    )
    return make_proxy(registration.contract, invoker)
