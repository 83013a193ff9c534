"""The ASU WSRepository catalogue: every §V service, ready to publish.

:func:`build_repository` instantiates the full service set and publishes
each to a broker over the in-process bus; :func:`mount_all` additionally
exposes them over SOAP and REST endpoints — "implemented in multiple
formats" exactly as the paper describes its repository.
:func:`publish_service` is the one multi-binding publisher for a single
service: the side planes (monitor, trace store, cache) join the
catalogue through it.
"""

from __future__ import annotations

from typing import Optional

from ..core.broker import Endpoint, ServiceBroker
from ..core.bus import ServiceBus
from ..core.faults import ServiceFault
from ..core.service import Service, ServiceHost
from ..transport.rest import RestEndpoint
from ..transport.soap import SoapEndpoint
from .basic import (
    AccessControlService,
    EncryptionService,
    GuessingGameService,
    ImageService,
    ImageVerifierService,
    RandomStringService,
)
from .commerce import (
    CachingService,
    CreditScoreService,
    MessageBufferService,
    MortgageService,
    ShoppingCartService,
)

__all__ = [
    "CATALOG_SERVICES",
    "build_repository",
    "mount_all",
    "publish_service",
    "attach_monitoring",
]

#: every service class of the §V catalogue
CATALOG_SERVICES: list[type[Service]] = [
    EncryptionService,
    AccessControlService,
    GuessingGameService,
    RandomStringService,
    ImageService,
    ImageVerifierService,
    CachingService,
    ShoppingCartService,
    MessageBufferService,
    CreditScoreService,
    MortgageService,
]


def build_repository(
    broker: Optional[ServiceBroker] = None,
    bus: Optional[ServiceBus] = None,
    *,
    provider: str = "venus.eas.asu.edu",
) -> tuple[ServiceBroker, ServiceBus, dict[str, Service]]:
    """Instantiate and publish the full catalogue on the in-process bus.

    Returns (broker, bus, {service_name: instance}).
    """
    broker = broker or ServiceBroker()
    bus = bus or ServiceBus()
    instances: dict[str, Service] = {}
    for service_class in CATALOG_SERVICES:
        instance = service_class()
        bus.host_and_publish(instance, broker, provider=provider)
        instances[instance.contract().name] = instance
    return broker, bus, instances


def mount_all(
    instances: dict[str, Service],
    broker: Optional[ServiceBroker] = None,
    *,
    base_url: str = "",
) -> tuple[SoapEndpoint, RestEndpoint]:
    """Expose already-built service instances over SOAP and REST.

    When ``broker`` is given, each binding is registered as an extra
    endpoint on the existing registration (multi-binding discovery).
    """
    soap = SoapEndpoint()
    rest = RestEndpoint()
    for name, instance in instances.items():
        host = ServiceHost(instance)
        soap_path = soap.mount(host)
        rest_path = rest.mount(ServiceHost(instance))
        if broker is not None and name in broker:
            broker.add_endpoint(name, Endpoint("soap", base_url + soap_path))
            broker.add_endpoint(name, Endpoint("rest", base_url + rest_path))
    return soap, rest


def publish_service(
    service: Service,
    broker: ServiceBroker,
    bus: Optional[ServiceBus] = None,
    *,
    soap: Optional[SoapEndpoint] = None,
    rest: Optional[RestEndpoint] = None,
    base_url: str = "",
    provider: str = "anonymous",
    lease_seconds: Optional[float] = None,
) -> dict[str, Endpoint]:
    """Register one service in the catalogue across every binding given.

    Hosts it on the bus, mounts it on the SOAP endpoint (its WSDL is
    then a ``GET ?wsdl`` away) and on the REST endpoint, and publishes
    one broker registration holding every endpoint — one contract, many
    bindings.  At least one binding is required.  Returns
    ``{binding: Endpoint}``.
    """
    endpoints: dict[str, Endpoint] = {}
    if bus is not None:
        endpoints["inproc"] = Endpoint("inproc", bus.host(service))
    if soap is not None:
        path = soap.mount(ServiceHost(service))
        endpoints["soap"] = Endpoint("soap", base_url + path)
    if rest is not None:
        path = rest.mount(ServiceHost(service))
        endpoints["rest"] = Endpoint("rest", base_url + path)
    if not endpoints:
        raise ServiceFault(
            "publish_service needs at least one of bus/soap/rest",
            code="Client.BadInput",
        )
    broker.publish(
        service.contract(),
        list(endpoints.values()),
        provider=provider,
        lease_seconds=lease_seconds,
    )
    return endpoints


def attach_monitoring(
    broker: ServiceBroker,
    bus: Optional[ServiceBus] = None,
    *,
    soap: Optional[SoapEndpoint] = None,
    rest: Optional[RestEndpoint] = None,
    base_url: str = "",
    engine=None,
    provider: str = "monitor.venus.eas.asu.edu",
):
    """Add Monitoring-as-a-Service to an existing catalogue.

    Builds a :class:`~repro.services.monitor.MonitorService` around a
    fresh :class:`~repro.services.monitor.FleetMonitor` (optionally with
    an :class:`~repro.observability.slo.SloEngine`), and publishes it to
    ``broker`` over whichever bindings are supplied — the monitor then
    shows up in discovery like any §V repository member, WSDL included.
    Returns the service instance.
    """
    from .monitor import FleetMonitor, MonitorService

    service = MonitorService(FleetMonitor(engine))
    publish_service(
        service, broker, bus, soap=soap, rest=rest,
        base_url=base_url, provider=provider,
    )
    return service
