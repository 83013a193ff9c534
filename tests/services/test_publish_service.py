"""``publish_service``: the one multi-binding publisher of the catalogue.

The monitor, the trace store and the cache join the broker the same
way: hosted on the bus, mounted on SOAP and REST, one registration
holding every endpoint.
"""

import pytest

from repro.core.broker import ServiceBroker
from repro.core.bus import ServiceBus
from repro.core.faults import ServiceFault
from repro.services import (
    CacheService,
    MonitorService,
    TraceStoreService,
    publish_service,
)
from repro.transport.rest import RestEndpoint
from repro.transport.soap import SoapEndpoint

PLANES = pytest.mark.parametrize(
    "service_class",
    [MonitorService, TraceStoreService, CacheService],
    ids=["monitor", "tracestore", "cache"],
)


@PLANES
def test_registers_every_binding(service_class):
    broker = ServiceBroker()
    service = service_class()
    endpoints = publish_service(
        service, broker, ServiceBus(), soap=SoapEndpoint(), rest=RestEndpoint(),
        base_url="http://localhost:8080", provider="monitor.local",
    )
    assert set(endpoints) == {"inproc", "soap", "rest"}
    name = service.contract().name
    assert endpoints["soap"].address == f"http://localhost:8080/soap/{name}"
    assert endpoints["rest"].address == f"http://localhost:8080/rest/{name}"
    registration = broker.lookup(name)
    assert {e.binding for e in registration.endpoints} == {"inproc", "soap", "rest"}
    assert registration.provider == "monitor.local"


@PLANES
def test_requires_a_binding(service_class):
    broker = ServiceBroker()
    with pytest.raises(ServiceFault) as excinfo:
        publish_service(service_class(), broker)
    assert excinfo.value.code == "Client.BadInput"
    assert len(broker) == 0


def test_provider_defaults_to_anonymous():
    broker = ServiceBroker()
    publish_service(CacheService(), broker, ServiceBus())
    assert broker.lookup("CacheService").provider == "anonymous"
