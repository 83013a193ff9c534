"""Differential tests of the binding core: one rule, three front doors.

(a) A fault answers with the same HTTP status and the same
``Retry-After`` whether the REST or the SOAP endpoint carried it — every
code in :data:`~repro.core.faults.FAULT_CODES`, plus codes no fault class
claims.  (b) The gateway decodes REST-dialect calls with the REST
endpoint's own decoder, so every malformed call against every operation
of every catalogue service is refused by a gateway route exactly as the
REST endpoint refuses it: same status, same body.  (c) A well-formed
call is relayed to a REST replica as it arrived, so it is answered
through the gateway exactly as the REST endpoint answers it directly —
results, application faults, and a shedding replica's 503 — while the
replica sees none of the caller's credentials or trace header.  A traced
call makes one span per hop and side: the gateway's ``http.server``, its
``rest.call`` (or ``soap.call``) and the replica's ``http.server``.
"""

import random
import socket
import threading

import pytest

from repro.core import Endpoint, Service, ServiceBroker, ServiceHost, operation
from repro.core.faults import FAULT_CODES, ServiceUnavailable, fault_from_code
from repro.gateway import (
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.observability import SpanCollector, observed
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.services import CATALOG_SERVICES, basic
from repro.transport import (
    HttpClient,
    HttpRequest,
    HttpServer,
    RestEndpoint,
    SoapEndpoint,
    build_call,
    encode_query,
    serve_once,
)
from repro.transport.statusmap import fault_status
from repro.xmlkit import Element, to_element

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


# -- (c) the gateway relays well-formed calls to REST replicas ------------
#: Argument values by parameter name, then by type; chosen so most calls
#: succeed and the rest fail as application faults.
BY_NAME = {
    "labels": ["a", "b"],
    "values": [1.0, 2.0],
    "series": {"s": [1.0, 2.0]},
    "permissions": ["read"],
    "data": b"secret",
    "sku": "textbook",
    "cart_id": "cart-1",
    "ssn": "123-45-6789",
    "income": 90000.0,
    "loan_amount": 200000.0,
    "property_value": 300000.0,
    "annual_rate": 0.05,
}
BY_TYPE = {"str": "q", "int": 5, "float": 2.5, "bool": True, "any": "q"}
QUERYABLE = {"str", "int", "float", "bool", "any"}

#: Seeded where a service draws at random, so two instances agree.
SEEDED = {basic.GuessingGameService: 7, basic.ImageVerifierService: 7}


class ReplayedSecrets:
    """Stands in for ``secrets``: the same draws after every ``reset``."""

    def reset(self):
        self._rng = random.Random(0)

    def choice(self, seq):
        return self._rng.choice(seq)

    def randbelow(self, n):
        return self._rng.randrange(n)


def instance(service_class):
    seed = SEEDED.get(service_class)
    return service_class() if seed is None else service_class(seed=seed)


def wellformed_calls(contract):
    """``(label, request)``: every operation POSTed, and GET where valid;
    twice over, so calls after the first round meet created state."""
    base = f"/rest/{contract.name}"
    for round_ in (1, 2):
        for name in contract.operation_names():
            op = contract.operation(name)
            values = {
                p.name: BY_NAME.get(p.name, BY_TYPE.get(p.type))
                for p in op.parameters
            }
            body = Element("arguments")
            for key, value in values.items():
                body.append(to_element(key, value))
            yield f"{round_}: POST {name}", HttpRequest(
                "POST",
                f"{base}/{name}",
                {"Content-Type": "application/xml"},
                body.toxml().encode(),
            )
            if op.idempotent and all(p.type in QUERYABLE for p in op.parameters):
                query = encode_query(
                    {
                        k: str(v).lower() if isinstance(v, bool) else str(v)
                        for k, v in values.items()
                    }
                )
                yield f"{round_}: GET {name}", HttpRequest(
                    "GET", f"{base}/{name}?{query}" if query else f"{base}/{name}"
                )


def answer(response):
    return (
        response.status,
        response.body,
        response.headers.get("Content-Type"),
        response.headers.get("Retry-After"),
    )


def rest_replica(*services):
    endpoint = RestEndpoint()
    for service in services:
        endpoint.mount(ServiceHost(service))
    return HttpServer(endpoint, workers=2)


def relaying_gateway(contract, servers, **balancer_kwargs):
    broker = ServiceBroker()
    broker.publish(
        contract,
        [
            Endpoint("rest", f"{server.base_url}/rest/{contract.name}")
            for server in servers
        ],
    )
    return Gateway(
        broker,
        [GatewayRoute(f"/rest/{contract.name}", contract.name)],
        limiter=RateLimiter(OPEN, anonymous=OPEN),
        **balancer_kwargs,
    )


@pytest.mark.parametrize(
    "service_class", CATALOG_SERVICES, ids=lambda cls: cls.__name__
)
def test_gateway_relays_calls_as_the_rest_endpoint_answers_them(
    service_class, monkeypatch
):
    replayed = ReplayedSecrets()
    monkeypatch.setattr(basic, "secrets", replayed)
    contract = service_class.contract()
    direct = RestEndpoint()
    direct.mount(ServiceHost(instance(service_class)))
    with rest_replica(instance(service_class)) as server:
        gateway = relaying_gateway(contract, [server])
        try:
            statuses = set()
            for label, request in wellformed_calls(contract):
                replayed.reset()
                expected = answer(serve_once(direct, request))
                replayed.reset()
                assert answer(serve_once(gateway, request)) == expected, label
                statuses.add(expected[0])
            assert 200 in statuses
        finally:
            gateway.close()


class Shedder(Service):
    """Sheds load (503 + ``Retry-After``) while ``shedding`` is set."""

    category = "test"

    def __init__(self, shedding):
        self.shedding = shedding
        self.calls = 0

    @operation(idempotent=True)
    def go(self, n: int) -> int:
        self.calls += 1
        if self.shedding:
            raise ServiceUnavailable("shedding load", retry_after=30.0)
        return n * 2


class FirstTwo(random.Random):
    """P2C over equal health then picks the first published replica."""

    def sample(self, population, k):
        return list(population)[:k]


def test_a_shedding_replica_is_cooled_and_failed_over_and_its_503_relayed():
    shedder, steady = Shedder(True), Shedder(False)
    direct = {}
    for shedding in (False, True):
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(Shedder(shedding)))
        direct[shedding] = endpoint
    request = HttpRequest("GET", "/rest/Shedder/go?n=21")
    with rest_replica(shedder) as first, rest_replica(steady) as second:
        gateway = relaying_gateway(Shedder.contract(), [first, second], rng=FirstTwo())
        try:
            for _ in range(3):
                assert answer(serve_once(gateway, request)) == answer(
                    serve_once(direct[False], request)
                )
            assert (shedder.calls, steady.calls) == (1, 3)
            balancer = gateway.balancer_for(gateway.router.resolve("/rest/Shedder"))
            states = balancer.states()
            assert states[f"rest:{first.base_url}/rest/Shedder"]["status"] == "cooling"
            steady.shedding = True  # the whole fleet sheds now
            shed = serve_once(gateway, request)
            assert answer(shed) == answer(serve_once(direct[True], request))
            assert (shed.status, shed.headers.get("Retry-After")) == (503, "30")
        finally:
            gateway.close()


class Echo(Service):
    category = "test"

    @operation
    def say(self, text: str) -> str:
        return text

    @operation(idempotent=True)
    def shout(self, text: str) -> str:
        return text.upper()


REPLY = to_element("result", "ok").toxml().encode()
SAY = b"<arguments>" + to_element("text", "hi").toxml().encode() + b"</arguments>"


def raw_replica(listener, seen, count):
    """Answer ``count`` requests, one per connection, recording each head
    and body exactly as it arrived."""
    listener.settimeout(10)
    for _ in range(count):
        try:
            conn, _address = listener.accept()
        except TimeoutError:
            return
        with conn:
            data = b""
            while b"\r\n\r\n" not in data:
                data += conn.recv(65536)
            head, _, body = data.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.lower().split(": ", 1) for line in lines[1:])
            while len(body) < int(headers.get("content-length", 0)):
                body += conn.recv(65536)
            seen.append((lines[0], headers, body))
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/xml\r\n"
                b"Connection: close\r\nContent-Length: %d\r\n\r\n%s"
                % (len(REPLY), REPLY)
            )


def test_the_relayed_request_carries_no_caller_credentials_or_trace():
    vault = PasswordVault()
    vault.set_password("ada", "Correct-Horse-7", "Correct-Horse-7")
    security = SecurityPolicy(TokenIssuer(), AccessControl(), vault)
    token, _ttl = security.login("ada", "Correct-Horse-7")
    caller = {
        "Authorization": f"Bearer {token}",
        "Cookie": "session=s3cr3t",
        "traceparent": f"00-{'a' * 32}-{'b' * 16}-01",
        "X-Contract-Version": "1",
    }
    seen = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        thread = threading.Thread(target=raw_replica, args=(listener, seen, 2))
        thread.start()
        broker = ServiceBroker()
        broker.publish(
            Echo.contract(), [Endpoint("rest", f"http://127.0.0.1:{port}/v1/Echo")]
        )
        gateway = Gateway(
            broker,
            [GatewayRoute("/api/Echo", "Echo")],
            security=security,
            limiter=RateLimiter(OPEN, anonymous=OPEN),
        )
        try:
            post = serve_once(gateway, HttpRequest(
                "POST",
                "/api/Echo/say",
                {**caller, "Content-Type": "text/xml"},
                SAY,
            ))
            get = serve_once(
                gateway, HttpRequest("GET", "/api/Echo/shout?text=a%20b", caller)
            )
        finally:
            gateway.close()
            thread.join(10)
    assert answer(post) == answer(get) == (200, REPLY, "application/xml", None)
    (post_line, post_headers, post_body), (get_line, get_headers, get_body) = seen
    assert post_line == "POST /v1/Echo/say HTTP/1.1"
    assert post_body == SAY
    assert post_headers["content-type"] == "text/xml"
    assert get_line == "GET /v1/Echo/shout?text=a%20b HTTP/1.1"
    assert (get_body, "content-type" in get_headers) == (b"", False)
    for headers in (post_headers, get_headers):
        assert not {"authorization", "cookie", "traceparent"} & set(headers)
        assert not {"x-contract-version", "connection"} & set(headers)


def traced_gateway_call(binding, endpoint_class):
    """One traced GET through a gateway to a one-replica ``binding``
    fleet, joined to a caller's ``traceparent``: (response, spans,
    caller's span id)."""
    collector = SpanCollector()
    caller_span = "b" * 16
    endpoint = endpoint_class()
    endpoint.mount(ServiceHost(Echo()))
    with observed(collector):
        with HttpServer(endpoint, workers=2) as server:
            broker = ServiceBroker()
            broker.publish(
                Echo.contract(),
                [Endpoint(binding, f"{server.base_url}/{binding}/Echo")],
            )
            gateway = Gateway(
                broker,
                [GatewayRoute("/rest/Echo", "Echo")],
                limiter=RateLimiter(OPEN, anonymous=OPEN),
            )
            try:
                with gateway.start() as front:
                    with HttpClient(front.host, front.port) as client:
                        response = client.get(
                            "/rest/Echo/shout?text=hi",
                            {"traceparent": f"00-{'a' * 32}-{caller_span}-01"},
                        )
            finally:
                gateway.close()
    return response, collector.spans(), int(caller_span, 16)


def assert_one_span_per_hop_and_side(binding, endpoint_class):
    """One server span and one client span per hop: the gateway's
    ``http.server``, its ``<binding>.call`` and the replica's
    ``http.server``, which names the call it dispatched."""
    response, spans, caller_span = traced_gateway_call(binding, endpoint_class)
    assert response.status == 200
    assert len({span.trace_id for span in spans}) == 1
    by_parent = {span.parent_id: span for span in spans}
    assert len(by_parent) == len(spans) == 3
    front = by_parent[caller_span]
    call = by_parent[front.span_id]
    replica = by_parent[call.span_id]
    assert [(s.name, s.kind) for s in (front, call, replica)] == [
        ("http.server", "server"),
        (f"{binding}.call", "client"),
        ("http.server", "server"),
    ]
    assert front.attributes["trace.remote_parent"] is True
    assert replica.attributes["trace.remote_parent"] is True
    assert (
        replica.attributes["binding"],
        replica.attributes["operation"],
        replica.attributes["service"],
    ) == (binding, "shout", "Echo")
    assert "binding" not in front.attributes


def test_the_replica_span_joins_the_gateway_rest_call():
    assert_one_span_per_hop_and_side("rest", RestEndpoint)


def test_the_soap_replica_span_joins_the_gateway_soap_call():
    assert_one_span_per_hop_and_side("soap", SoapEndpoint)


def test_a_gateway_answering_502_marks_its_server_span_failed():
    """A dead REST replica: the gateway answers 502 without raising, and
    its ``http.server`` span must read ``error``, not only the
    ``rest.call`` beneath it."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]  # closed below: connections refused
    broker = ServiceBroker()
    broker.publish(
        Echo.contract(), [Endpoint("rest", f"http://127.0.0.1:{port}/rest/Echo")]
    )
    collector = SpanCollector()
    gateway = Gateway(
        broker,
        [GatewayRoute("/rest/Echo", "Echo")],
        limiter=RateLimiter(OPEN, anonymous=OPEN),
    )
    with observed(collector):
        try:
            with gateway.start() as front:
                with HttpClient(front.host, front.port) as client:
                    response = client.get("/rest/Echo/shout?text=hi")
        finally:
            gateway.close()
    assert response.status == 502
    (front_span,) = collector.named("http.server")
    assert front_span.attributes["http.status"] == 502
    assert (front_span.status, front_span.error) == ("error", "HTTP 502")
    (call,) = collector.named("rest.call")
    assert call.status == "error" and call.parent_id == front_span.span_id
