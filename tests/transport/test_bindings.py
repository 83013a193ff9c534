"""Tests for WSDL documents, SOAP and REST bindings, and the router.

Wire-level tests use serve_once (full codec, no sockets); socket tests
live in tests/integration.
"""

import pytest

from repro.core import (
    AccessDenied,
    ContractViolation,
    Service,
    ServiceFault,
    ServiceHost,
    UnknownOperation,
    operation,
)
from repro.services import CacheService
from repro.transport import (
    HttpRequest,
    HttpResponse,
    RestEndpoint,
    RestRouter,
    SoapEndpoint,
    build_call,
    coerce_argument,
    contract_from_xml,
    contract_to_xml,
    parse_envelope,
    serve_once,
)
from repro.transport.soap import build_fault, build_result
from repro.xmlkit import from_element, parse


class Bank(Service):
    """Toy account service with one guarded and one faulting operation."""

    category = "finance"

    @operation(idempotent=True)
    def balance(self, account: str) -> float:
        """Current balance."""
        if account == "missing":
            raise ServiceFault("no such account", code="Client.NoAccount")
        return 100.0

    @operation
    def transfer(self, source: str, target: str, amount: float) -> dict:
        return {"source": source, "target": target, "amount": amount, "ok": True}

    @operation(requires_role="auditor")
    def audit(self) -> list:
        return ["all clear"]

    @operation(idempotent=True)
    def meta(self, verbose: bool = False) -> dict:
        return {"verbose": verbose}


@pytest.fixture
def host():
    return ServiceHost(Bank())


class TestWsdl:
    def test_round_trip_preserves_contract(self, host):
        xml = contract_to_xml(host.contract)
        restored = contract_from_xml(xml)
        assert restored.name == "Bank"
        assert restored.category == "finance"
        assert restored.operation_names() == host.contract.operation_names()
        op = restored.operation("transfer")
        assert [(p.name, p.type) for p in op.parameters] == [
            ("source", "str"),
            ("target", "str"),
            ("amount", "float"),
        ]
        assert restored.operation("balance").idempotent
        assert restored.operation("audit").requires_role == "auditor"

    def test_optional_defaults_preserved(self, host):
        restored = contract_from_xml(contract_to_xml(host.contract))
        p = restored.operation("meta").parameters[0]
        assert p.optional and p.default is False

    def test_documentation_preserved(self, host):
        restored = contract_from_xml(contract_to_xml(host.contract))
        assert restored.operation("balance").documentation == "Current balance."

    def test_non_contract_rejected(self):
        with pytest.raises(ContractViolation):
            contract_from_xml("<whatever/>")

    def test_missing_name_rejected(self):
        with pytest.raises(ContractViolation):
            contract_from_xml("<contract/>")


class TestEnvelope:
    def test_call_round_trip(self):
        env = build_call("transfer", {"source": "a", "amount": 5.0}, {"token": "t1"})
        headers, body = parse_envelope(env.toxml())
        assert headers == {"token": "t1"}
        assert body.get("operation") == "transfer"

    def test_result_round_trip(self):
        env = build_result("balance", 42.5)
        _, body = parse_envelope(env.toxml())
        assert body.local_name() == "Result"

    def test_fault_round_trip(self):
        env = build_fault(ServiceFault("boom", code="X.Y", detail={"k": 1}))
        _, body = parse_envelope(env.toxml())
        assert body.find("faultcode").text == "X.Y"

    def test_not_an_envelope(self):
        from repro.core import TransportError

        with pytest.raises(TransportError):
            parse_envelope("<notsoap/>")

    def test_body_must_have_one_child(self):
        from repro.core import TransportError

        with pytest.raises(TransportError):
            parse_envelope("<soap:Envelope><soap:Body/></soap:Envelope>")


def soap_call(endpoint, service, op, args, headers=None):
    xml = build_call(op, args, headers).toxml()
    request = HttpRequest(
        "POST", f"/soap/{service}", {"Content-Type": "text/xml"}, xml.encode()
    )
    return serve_once(endpoint, request)


class TestSoapEndpoint:
    @pytest.fixture
    def endpoint(self, host):
        endpoint = SoapEndpoint()
        assert endpoint.mount(host) == "/soap/Bank"
        return endpoint

    def test_invoke_success(self, endpoint):
        response = soap_call(endpoint, "Bank", "balance", {"account": "a1"})
        assert response.status == 200
        _, body = parse_envelope(response.text())
        assert body.local_name() == "Result"

    def test_invoke_fault_maps_status(self, endpoint):
        response = soap_call(endpoint, "Bank", "balance", {"account": "missing"})
        assert response.status == 400
        _, body = parse_envelope(response.text())
        assert body.find("faultcode").text == "Client.NoAccount"

    def test_unknown_service_404(self, endpoint):
        response = soap_call(endpoint, "Ghost", "x", {})
        assert response.status == 404

    def test_unknown_operation_fault(self, endpoint):
        response = soap_call(endpoint, "Bank", "rob", {})
        _, body = parse_envelope(response.text())
        assert "Unknown" in body.find("faultcode").text

    def test_bad_envelope_400(self, endpoint):
        request = HttpRequest("POST", "/soap/Bank", {}, b"<garbage>")
        response = serve_once(endpoint, request)
        assert response.status == 400

    def test_wsdl_fetch(self, endpoint):
        request = HttpRequest("GET", "/soap/Bank?wsdl")
        response = serve_once(endpoint, request)
        contract = contract_from_xml(response.text())
        assert contract.name == "Bank"

    def test_get_without_wsdl_405(self, endpoint):
        response = serve_once(endpoint, HttpRequest("GET", "/soap/Bank"))
        assert response.status == 405

    def test_authenticator_grants_role(self, endpoint):
        endpoint.set_authenticator(
            lambda headers: ("alice", frozenset({"auditor"}))
            if headers.get("token") == "secret"
            else (None, frozenset())
        )
        ok = soap_call(endpoint, "Bank", "audit", {}, {"token": "secret"})
        _, body = parse_envelope(ok.text())
        assert body.local_name() == "Result"
        denied = soap_call(endpoint, "Bank", "audit", {}, {"token": "wrong"})
        _, body = parse_envelope(denied.text())
        assert body.find("faultcode").text == "Client.AccessDenied"

    def test_authenticator_can_reject_outright(self, endpoint):
        def authenticate(headers):
            raise AccessDenied("bad credentials")

        endpoint.set_authenticator(authenticate)
        response = soap_call(endpoint, "Bank", "balance", {"account": "a"})
        assert response.status == 401


class TestRestEndpoint:
    @pytest.fixture
    def endpoint(self, host):
        endpoint = RestEndpoint()
        endpoint.mount(host)
        return endpoint

    def test_get_idempotent_operation(self, endpoint):
        response = serve_once(
            endpoint, HttpRequest("GET", "/rest/Bank/balance?account=a1")
        )
        assert response.status == 200
        root = parse(response.text())
        assert root.tag == "result"

    def test_get_non_idempotent_rejected(self, endpoint):
        response = serve_once(
            endpoint, HttpRequest("GET", "/rest/Bank/transfer?source=a")
        )
        assert response.status == 405

    def test_post_with_xml_arguments(self, endpoint):
        from repro.xmlkit import Element, to_element

        body = Element("arguments")
        body.append(to_element("source", "a"))
        body.append(to_element("target", "b"))
        body.append(to_element("amount", 12.5))
        response = serve_once(
            endpoint,
            HttpRequest(
                "POST", "/rest/Bank/transfer", {"Content-Type": "application/xml"},
                body.toxml().encode(),
            ),
        )
        assert response.status == 200

    def test_fault_maps_to_status(self, endpoint):
        response = serve_once(
            endpoint, HttpRequest("GET", "/rest/Bank/balance?account=missing")
        )
        assert response.status == 400
        assert parse(response.text()).get("code") == "Client.NoAccount"

    def test_unknown_service_and_operation(self, endpoint):
        assert serve_once(endpoint, HttpRequest("GET", "/rest/Ghost/x")).status == 404
        response = serve_once(endpoint, HttpRequest("GET", "/rest/Bank/rob"))
        assert response.status == 404

    def test_unknown_query_parameter_400(self, endpoint):
        response = serve_once(
            endpoint, HttpRequest("GET", "/rest/Bank/balance?nope=1")
        )
        assert response.status == 400

    def test_bool_coercion_via_query(self, endpoint):
        response = serve_once(
            endpoint, HttpRequest("GET", "/rest/Bank/meta?verbose=true")
        )
        assert "true" in response.text()

    def test_contract_listing(self, endpoint):
        response = serve_once(endpoint, HttpRequest("GET", "/rest/Bank"))
        assert contract_from_xml(response.text()).name == "Bank"


class TestCoercion:
    @pytest.mark.parametrize(
        "raw,type_name,expected",
        [
            ("5", "int", 5),
            ("2.5", "float", 2.5),
            ("x", "str", "x"),
            ("true", "bool", True),
            ("0", "bool", False),
            ("anything", "any", "anything"),
        ],
    )
    def test_coerce(self, raw, type_name, expected):
        assert coerce_argument(raw, type_name) == expected

    def test_bad_coercions(self):
        with pytest.raises(ValueError):
            coerce_argument("x", "int")
        with pytest.raises(ValueError):
            coerce_argument("maybe", "bool")
        with pytest.raises(ValueError):
            coerce_argument("x", "dict")


class TestRestCharacterReferences:
    """A lone-surrogate character reference is a client error, not data."""

    BODY = (
        '<arguments><key type="string">k</key>'
        '<value type="string">a&#xD800;b</value></arguments>'
    )

    def test_put_is_refused_and_stores_nothing(self):
        service = CacheService()
        endpoint = RestEndpoint()
        endpoint.mount(ServiceHost(service))
        response = serve_once(
            endpoint,
            HttpRequest(
                "POST", "/rest/CacheService/put",
                {"Content-Type": "application/xml"}, self.BODY.encode(),
            ),
        )
        assert response.status == 400
        assert parse(response.text()).get("code") == "Client.BadRequest"
        assert len(service.cache) == 0
        response = serve_once(
            endpoint, HttpRequest("GET", "/rest/CacheService/get?key=k")
        )
        assert response.status == 200
        assert from_element(parse(response.text()))["found"] is False


class TestRestRouter:
    def test_path_variables(self):
        router = RestRouter()

        @router.route("GET", "/users/{uid}/orders/{oid}")
        def get_order(request, uid, oid):
            return HttpResponse.text_response(f"{uid}:{oid}")

        response = serve_once(router, HttpRequest("GET", "/users/7/orders/42"))
        assert response.text() == "7:42"

    def test_404_and_405(self):
        router = RestRouter()
        router.add("GET", "/only", lambda request: HttpResponse.text_response("ok"))
        assert serve_once(router, HttpRequest("GET", "/other")).status == 404
        assert serve_once(router, HttpRequest("POST", "/only")).status == 405

    def test_first_match_wins(self):
        router = RestRouter()
        router.add("GET", "/a/{x}", lambda request, x: HttpResponse.text_response("var"))
        router.add("GET", "/a/b", lambda request: HttpResponse.text_response("lit"))
        assert serve_once(router, HttpRequest("GET", "/a/b")).text() == "var"
