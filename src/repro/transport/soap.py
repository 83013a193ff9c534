"""SOAP-style XML envelope binding.

The wire format is a simplified SOAP 1.1: an ``Envelope`` with optional
``Header`` blocks and a ``Body`` carrying either a call element
(``<op:Invoke operation="...">`` with databound arguments), a result
element, or a ``Fault``.  Faults round-trip through
:mod:`repro.core.faults`, so a provider-side :class:`ServiceFault`
re-raises as the same typed fault at the client.

* :class:`SoapEndpoint` — server side: handler mounting one or more
  :class:`~repro.core.service.ServiceHost` dispatchers under
  ``/soap/<ServiceName>``; a fault is answered with the status of the
  fault rule the REST binding shares (:mod:`repro.transport.statusmap`),
  an unreadable envelope with 400 and an authenticator's rejection 401.
* :class:`SoapClient` — client side: the envelope dialect of
  :class:`~repro.transport.bindingcore.BindingClient`;
  :func:`soap_proxy` for a typed façade.  Neither side opens a span of
  its own: the trace rides the HTTP ``traceparent`` header alone.

:class:`SoapClient` is thread-safe to the extent its ``HttpClient`` is:
the pooled client hands each concurrent caller its own keep-alive
socket, so one ``SoapClient`` can be shared across worker threads and
calls overlap on the wire instead of serializing on a client lock.
Envelope POSTs are *not* retried by the transport after a mid-exchange
failure (they are non-idempotent on the wire) — wrap the invoker in a
:mod:`repro.resilience` policy to opt into replays.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.contracts import ServiceContract
from ..core.faults import ServiceFault, TransportError
from ..core.proxy import ServiceProxy
from ..core.service import InvocationContext, ServiceHost
from ..xmlkit import Element, from_element, parse, to_element
from .bindingcore import BindingClient, binding_proxy, dispatch
from .http11 import HttpRequest, HttpResponse
from .client import HttpClient
from .statusmap import append_detail, fault_response, raise_transport_status, rebuild_fault
from .wsdl import contract_to_xml

__all__ = [
    "envelope",
    "build_call",
    "build_result",
    "build_fault",
    "parse_envelope",
    "SoapEndpoint",
    "SoapClient",
    "soap_proxy",
]

NS_PREFIX = "soap"
CONTENT_TYPE = "text/xml"


def envelope(body_child: Element, headers: Optional[dict[str, str]] = None) -> Element:
    """Wrap ``body_child`` in an Envelope with optional header blocks."""
    env = Element(f"{NS_PREFIX}:Envelope")
    if headers:
        header = Element(f"{NS_PREFIX}:Header")
        for name, value in headers.items():
            header.append(Element(name, text=value))
        env.append(header)
    body = Element(f"{NS_PREFIX}:Body")
    body.append(body_child)
    env.append(body)
    return env


def build_call(
    operation: str, arguments: dict[str, Any], headers: Optional[dict[str, str]] = None
) -> Element:
    """Build an Invoke envelope for one operation call."""
    call = Element("Invoke", {"operation": operation})
    for name, value in arguments.items():
        call.append(to_element(name, value))
    return envelope(call, headers)


def build_result(operation: str, value: Any) -> Element:
    """Build a Result envelope carrying a databound return value."""
    result = Element("Result", {"operation": operation})
    result.append(to_element("return", value))
    return envelope(result)


def build_fault(fault: ServiceFault) -> Element:
    """Build a Fault envelope from a service fault (code, string, detail)."""
    fault_el = Element("Fault")
    fault_el.append(Element("faultcode", text=fault.code))
    fault_el.append(Element("faultstring", text=str(fault)))
    return envelope(append_detail(fault_el, fault))


def parse_envelope(text: str) -> tuple[dict[str, str], Element]:
    """Return (header blocks, body's single child element)."""
    root = parse(text)
    if root.local_name() != "Envelope":
        raise TransportError(f"not a SOAP envelope: <{root.tag}>")
    headers: dict[str, str] = {}
    header_el = next(
        (e for e in root.elements() if e.local_name() == "Header"), None
    )
    if header_el is not None:
        for block in header_el.elements():
            headers[block.tag] = block.text
    body = next((e for e in root.elements() if e.local_name() == "Body"), None)
    if body is None:
        raise TransportError("envelope has no Body")
    children = list(body.elements())
    if len(children) != 1:
        raise TransportError(f"Body must have exactly one child, has {len(children)}")
    return headers, children[0]


class SoapEndpoint:
    """HTTP handler exposing service hosts at ``/soap/<ServiceName>``.

    ``GET /soap/<Name>?wsdl`` returns the XML contract document;
    ``POST /soap/<Name>`` dispatches an Invoke envelope.
    """

    def __init__(self, prefix: str = "/soap") -> None:
        self.prefix = prefix.rstrip("/")
        self._hosts: dict[str, ServiceHost] = {}
        self._authenticator: Optional[
            Callable[[dict[str, str]], tuple[Optional[str], frozenset[str]]]
        ] = None

    def mount(self, host: ServiceHost) -> str:
        path = f"{self.prefix}/{host.name}"
        self._hosts[host.name] = host
        return path

    def set_authenticator(
        self,
        authenticator: Callable[[dict[str, str]], tuple[Optional[str], frozenset[str]]],
    ) -> None:
        """Install a header-based authenticator: headers -> (principal, roles)."""
        self._authenticator = authenticator

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if not request.path.startswith(self.prefix + "/"):
            return HttpResponse.error(404, "not a SOAP path")
        service_name = request.path[len(self.prefix) + 1 :].strip("/")
        host = self._hosts.get(service_name)
        if host is None:
            return HttpResponse.error(404, f"no service {service_name!r}")
        if request.method == "GET":
            if "wsdl" in request.query or request.target.endswith("?wsdl"):
                return HttpResponse.xml_response(contract_to_xml(host.contract))
            return HttpResponse.error(405, "POST an Invoke envelope, or GET ?wsdl")
        if request.method != "POST":
            return HttpResponse.error(405)
        try:
            headers, call = parse_envelope(request.text())
            if call.local_name() != "Invoke":
                raise TransportError(f"expected Invoke, got <{call.tag}>")
            operation = call.get("operation")
            if not operation:
                raise TransportError("Invoke missing operation attribute")
            arguments = {child.tag: from_element(child) for child in call.elements()}
        except (TransportError, ValueError) as exc:
            fault = ServiceFault(str(exc), code="Client.BadEnvelope")
            return HttpResponse.xml_response(build_fault(fault).toxml(), status=400)

        principal: Optional[str] = None
        roles: frozenset[str] = frozenset()
        if self._authenticator is not None:
            try:
                principal, roles = self._authenticator(headers)
            except ServiceFault as exc:
                return HttpResponse.xml_response(build_fault(exc).toxml(), status=401)
        context = InvocationContext(
            operation, principal=principal, roles=roles, headers=headers
        )
        try:
            result = dispatch(host, "soap", operation, arguments, context)
        except ServiceFault as exc:
            return fault_response(exc, build_fault(exc).toxml())
        return HttpResponse.xml_response(build_result(operation, result).toxml())


class SoapClient(BindingClient):
    """Invokes operations on a remote SOAP endpoint.

    ``headers`` become envelope header blocks on every call.
    """

    binding = "soap"
    default_prefix = "/soap"
    contract_query = "?wsdl"

    def __init__(
        self,
        http: HttpClient,
        service_name: str,
        prefix: Optional[str] = None,
        headers: Optional[dict[str, str]] = None,
        *,
        contract: Optional[ServiceContract] = None,
    ) -> None:
        super().__init__(http, service_name, prefix, contract=contract)
        self.headers = dict(headers or {})

    def _exchange(self, operation: str, arguments: dict[str, Any]) -> Any:
        """One raw envelope round-trip (no telemetry)."""
        request_xml = build_call(operation, arguments, self.headers).toxml()
        response = self.http.post(self.path, request_xml, content_type=CONTENT_TYPE)
        if response.content_type not in (CONTENT_TYPE, "application/xml"):
            raise_transport_status(response)
            raise TransportError(
                f"expected XML envelope, got {response.content_type!r} "
                f"(HTTP {response.status})"
            )
        if not response.body:
            raise_transport_status(response)
            raise TransportError(f"empty response (HTTP {response.status})")
        _, payload = parse_envelope(response.text())
        if payload.local_name() == "Fault":
            code_el = payload.find("faultcode")
            string_el = payload.find("faultstring")
            raise rebuild_fault(
                code_el.text if code_el is not None else "Server",
                string_el.text if string_el is not None else "unknown fault",
                payload,
                response,
            )
        if payload.local_name() != "Result":
            raise TransportError(f"unexpected body element <{payload.tag}>")
        return_el = payload.find("return")
        if return_el is None:
            raise TransportError("Result missing return element")
        return from_element(return_el)


def soap_proxy(
    http: HttpClient,
    service_name: str,
    prefix: str = "/soap",
    *,
    policy: Any = None,
    **policy_kwargs: Any,
) -> ServiceProxy:
    """Discover the remote contract and return a typed proxy over SOAP,
    defended by ``policy`` when given (see :func:`binding_proxy`)."""
    return binding_proxy(SoapClient(http, service_name, prefix), policy, policy_kwargs)
