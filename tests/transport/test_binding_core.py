"""Differential tests of the binding core: one rule, three front doors.

(a) A fault answers with the same HTTP status and the same
``Retry-After`` whether the REST or the SOAP endpoint carried it — every
code in :data:`~repro.core.faults.FAULT_CODES`, plus codes no fault class
claims.  (b) The gateway decodes REST-dialect calls with the REST
endpoint's own decoder, so every malformed call against every operation
of every catalogue service is refused by a gateway route exactly as the
REST endpoint refuses it: same status, same body.
"""

import pytest

from repro.core import Endpoint, Service, ServiceBroker, ServiceHost, operation
from repro.core.faults import FAULT_CODES, fault_from_code
from repro.gateway import Gateway, GatewayRoute, RateLimiter, RateLimitPolicy
from repro.services import CATALOG_SERVICES
from repro.transport import HttpRequest, RestEndpoint, SoapEndpoint, build_call, serve_once
from repro.transport.statusmap import fault_status
from repro.xmlkit import Element

#: The shared rule, spelled out (unclaimed codes fall to their class).
EXPECTED_STATUS = {
    "Server": 500,
    "Client.ContractViolation": 400,
    "Client.UnknownOperation": 404,
    "Server.Unavailable": 503,
    "Client.AccessDenied": 403,
    "Server.Timeout": 408,
    "Client.NoSuchAccount": 400,
    "Server.Meltdown": 500,
}


class Faulty(Service):
    """Raises whatever fault the test loads into it."""

    category = "test"
    fault = None

    @operation(idempotent=True)
    def go(self) -> str:
        raise self.fault


def test_expected_status_covers_every_fault_code():
    assert set(FAULT_CODES) < set(EXPECTED_STATUS)


@pytest.mark.parametrize("hint", [None, 2.5])
@pytest.mark.parametrize("code", sorted(EXPECTED_STATUS))
def test_rest_and_soap_answer_a_fault_alike(code, hint):
    service = Faulty()
    service.fault = fault_from_code(code, f"{code} raised")
    if hint is not None:
        service.fault.retry_after = hint
    rest, soap = RestEndpoint(), SoapEndpoint()
    host = ServiceHost(service)
    rest.mount(host)
    soap.mount(host)

    over_rest = serve_once(rest, HttpRequest("GET", "/rest/Faulty/go"))
    over_soap = serve_once(
        soap,
        HttpRequest(
            "POST",
            "/soap/Faulty",
            {"Content-Type": "text/xml"},
            build_call("go", {}).toxml().encode(),
        ),
    )

    assert over_rest.status == over_soap.status == EXPECTED_STATUS[code]
    assert fault_status(code) == EXPECTED_STATUS[code]
    retry_after = over_rest.headers.get("Retry-After")
    assert retry_after == over_soap.headers.get("Retry-After")
    assert retry_after == (None if hint is None else "2.5")


# -- (b) the gateway refuses malformed calls like the REST endpoint ------
OPEN = RateLimitPolicy(rate=1e9, burst=1e9)


def malformed_calls(contract):
    """``(label, request)`` for every malformed call ``contract`` admits."""
    base = f"/rest/{contract.name}"
    yield "unknown operation", HttpRequest("GET", f"{base}/noSuchOperation")
    for name in contract.operation_names():
        op = contract.operation(name)
        path = f"{base}/{name}"
        if op.idempotent:
            yield f"{name}: unknown query parameter", HttpRequest(
                "GET", f"{path}?noSuchParameter=1"
            )
            typed = [p for p in op.parameters if p.type not in ("str", "any", "none")]
            if typed:
                yield f"{name}: uncoercible query value", HttpRequest(
                    "GET", f"{path}?{typed[0].name}=not-a-{typed[0].type}"
                )
        else:
            yield f"{name}: GET of a non-idempotent operation", HttpRequest(
                "GET", path
            )
        yield f"{name}: wrong body root", HttpRequest(
            "POST",
            path,
            {"Content-Type": "application/xml"},
            Element("wrong").toxml().encode(),
        )
        yield f"{name}: PUT", HttpRequest("PUT", path, {}, b"")


@pytest.mark.parametrize(
    "service_class", CATALOG_SERVICES, ids=lambda cls: cls.__name__
)
def test_gateway_refuses_malformed_calls_like_the_rest_endpoint(service_class):
    contract = service_class.contract()
    endpoint = RestEndpoint()
    endpoint.mount(ServiceHost(service_class()))
    broker = ServiceBroker()
    broker.publish(contract, [Endpoint("inproc", "inproc://unused")])
    gateway = Gateway(
        broker,
        [GatewayRoute(f"/rest/{contract.name}", contract.name)],
        limiter=RateLimiter(OPEN, anonymous=OPEN),
    )
    try:
        statuses = set()
        for label, request in malformed_calls(contract):
            direct = serve_once(endpoint, request)
            mediated = serve_once(gateway, request)
            assert (mediated.status, mediated.body) == (
                direct.status,
                direct.body,
            ), label
            assert mediated.content_type == direct.content_type, label
            statuses.add(direct.status)
        assert statuses <= {400, 404, 405}
    finally:
        gateway.close()
