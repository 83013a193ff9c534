"""Attach resilience policies at the proxy/bus/transport boundary.

This module closes the QoS loop the broker's bookkeeping was waiting for:

* :func:`broker_reporter` turns policy :class:`Observation` outcomes into
  :meth:`~repro.core.broker.ServiceBroker.report` calls (latency, faults,
  fast-fails, attributed per endpoint);
* :func:`invoker_for_endpoint` builds a raw invoker for any registered
  binding — ``inproc`` over the bus, ``soap``/``rest`` over HTTP clients
  (imported lazily to keep layering one-directional);
* :class:`PooledHttpClients` shares one pooled HTTP client per authority
  across a service's SOAP and REST endpoints.

Failover across those endpoints lives in one place,
:class:`~repro.resilience.replica.ReplicaBalancer` (with
:func:`~repro.resilience.replica.resilient_proxy_from_broker` for a
typed proxy), which builds its per-endpoint invokers from this module.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from ..core.broker import Endpoint, ServiceBroker
from ..core.bus import ServiceBus
from ..core.contracts import ServiceContract
from ..core.faults import TransportError
from .middleware import Observation, Reporter

__all__ = [
    "broker_reporter",
    "invoker_for_endpoint",
    "PooledHttpClients",
]

Invoker = Callable[[str, dict[str, Any]], Any]
HttpFactory = Callable[[str, int], Any]


class PooledHttpClients:
    """One pooled :class:`HttpClient` per ``host:port`` authority.

    SOAP and REST endpoints of the same provider usually live behind one
    authority; sharing the pooled client means their keep-alive sockets
    are pooled *together*, and concurrent calls overlap on the wire
    instead of each binding dialing (and locking) its own single socket.
    Used as the ``http_factory`` of broker-guided invokers, and as the
    one client cache of the gateway, the fleet monitor and the crawler's
    live fetcher.
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

    def discard(self, host: str, port: int) -> None:
        """Close and forget one authority's client; the next call redials."""
        with self._lock:
            client = self._clients.pop((host, port), None)
        if client is not None:
            _close_quietly([client])

    def close(self) -> None:
        """Close every pooled HTTP client dialed so far."""
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        _close_quietly(clients)


def _close_quietly(clients: list[Any]) -> None:
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
        client_class = SoapClient if endpoint.binding == "soap" else RestClient
        # the contract was already discovered via the broker
        return client_class(http, contract.name, prefix, contract=contract).call

    raise TransportError(f"no invoker for binding {endpoint.binding!r}")
