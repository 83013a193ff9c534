"""RESTful resource binding.

CSE446's project list includes "RESTful service development" and "Web
applications consuming RESTful services".  This binding maps a service
contract onto resource-oriented HTTP:

* ``GET  /rest/<Service>/<operation>?arg=value`` — idempotent operations
* ``POST /rest/<Service>/<operation>`` with an XML-databound argument map
* responses are databound XML (``200``), faults carry an ``<error>``
  document with the status of the fault rule both bindings share
  (:mod:`repro.transport.statusmap`).

Because GET query strings are untyped text, the REST endpoint coerces
query arguments to the parameter types declared in the contract — the
practical interface lesson the course labs drill.  That decoding step,
:func:`decode_rest_call`, is shared with the gateway, which speaks the
same dialect in front of its routes.

Also includes :class:`RestRouter`, a generic path-pattern router used by
the web-application framework and the service directory frontend.

:class:`RestClient`, the REST dialect of
:class:`~repro.transport.bindingcore.BindingClient`, is safe to share
across threads when backed by the pooled
:class:`~repro.transport.client.HttpClient`: each concurrent call
borrows its own keep-alive socket, so idempotent GETs additionally get
the transport's one-shot retry on a fresh connection while POSTs of
non-idempotent operations fail fast (their replays belong to a
:mod:`repro.resilience` policy).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Union

from ..core.contracts import ServiceContract
from ..core.faults import ServiceFault, TransportError
from ..core.proxy import ServiceProxy
from ..core.service import InvocationContext, ServiceHost
from ..xmlkit import Element, from_element, parse, to_element
from .bindingcore import BindingClient, binding_proxy, dispatch
from .conditional import compute_etag, if_none_match
from .http11 import HttpRequest, HttpResponse, encode_query
from .client import HttpClient
from .statusmap import append_detail, fault_response, raise_transport_status, rebuild_fault
from .wsdl import contract_to_xml

__all__ = [
    "RestEndpoint",
    "RestClient",
    "rest_proxy",
    "RestRouter",
    "coerce_argument",
    "decode_rest_call",
    "fault_to_response",
]


def coerce_argument(raw: str, type_name: str) -> Any:
    """Convert a query-string value to the declared contract type."""
    if type_name in ("str", "any"):
        return raw
    if type_name == "int":
        return int(raw)
    if type_name == "float":
        return float(raw)
    if type_name == "bool":
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if type_name == "none":
        return None
    raise ValueError(f"cannot pass {type_name} values in a query string")


def fault_to_response(fault: ServiceFault) -> HttpResponse:
    """Render a fault as the REST dialect's ``<error>`` document, answered
    with the status (and ``Retry-After``) of the shared fault rule; the
    gateway reports upstream faults through it too."""
    error = Element("error", {"code": fault.code})
    error.append(Element("message", text=str(fault)))
    return fault_response(fault, append_detail(error, fault).toxml())


def decode_rest_call(
    contract: ServiceContract, operation_name: str, request: HttpRequest
) -> Union[dict[str, Any], HttpResponse]:
    """The arguments of a REST-dialect call, or the refusal to send: 404
    (fault document) for an operation ``contract`` lacks, 405 for a GET
    of a non-idempotent operation or a method other than GET/POST, 400
    (``Client.BadRequest``) for an undeclared or uncoercible query
    parameter or a body that is not an ``<arguments>`` document."""
    try:
        operation = contract.operation(operation_name)
    except ServiceFault as exc:
        return fault_to_response(exc)
    try:
        if request.method == "GET":
            if not operation.idempotent:
                return HttpResponse.error(
                    405, f"operation {operation_name!r} is not idempotent; POST it"
                )
            types = {p.name: p.type for p in operation.parameters}
            arguments: dict[str, Any] = {}
            for name, raw in request.query.items():
                if name not in types:
                    raise ValueError(f"unknown query parameter {name!r}")
                arguments[name] = coerce_argument(raw, types[name])
            return arguments
        if request.method != "POST":
            return HttpResponse.error(405)
        if not request.body:
            return {}
        root = parse(request.text())
        if root.tag != "arguments":
            raise ValueError(f"expected <arguments> body, got <{root.tag}>")
        return {child.tag: from_element(child) for child in root.elements()}
    except (ValueError, ServiceFault) as exc:
        return fault_to_response(ServiceFault(str(exc), code="Client.BadRequest"))


class RestEndpoint:
    """HTTP handler exposing service hosts at ``/rest/<Service>/<op>``."""

    def __init__(self, prefix: str = "/rest") -> None:
        self.prefix = prefix.rstrip("/")
        self._hosts: dict[str, ServiceHost] = {}
        # the catalog hot path: a mounted host's contract document is
        # immutable, so render + tag it once, not per GET; the ETag
        # makes the document revalidatable (conditional GET → 304).
        self._contract_documents: dict[str, tuple[str, str]] = {}

    def mount(self, host: ServiceHost) -> str:
        self._hosts[host.name] = host
        self._contract_documents.pop(host.name, None)
        return f"{self.prefix}/{host.name}"

    def _contract_document(self, name: str) -> tuple[str, str]:
        """Memoized ``(xml, etag)`` for a mounted host's contract."""
        document = self._contract_documents.get(name)
        if document is None:
            xml = contract_to_xml(self._hosts[name].contract)
            document = (xml, compute_etag(xml.encode("utf-8")))
            self._contract_documents[name] = document
        return document

    def __call__(self, request: HttpRequest) -> HttpResponse:
        if not request.path.startswith(self.prefix + "/"):
            return HttpResponse.error(404, "not a REST path")
        parts = request.path[len(self.prefix) + 1 :].strip("/").split("/")
        if len(parts) == 1 and request.method == "GET":
            host = self._hosts.get(parts[0])
            if host is None:
                return HttpResponse.error(404, f"no service {parts[0]!r}")
            xml, etag = self._contract_document(parts[0])
            if if_none_match(request.headers.get("If-None-Match"), etag):
                response = HttpResponse(304)
                response.headers.set("ETag", etag)
                return response
            response = HttpResponse.xml_response(xml)
            response.headers.set("ETag", etag)
            return response
        if len(parts) != 2:
            return HttpResponse.error(404, "expected /rest/<Service>/<operation>")
        service_name, operation_name = parts
        host = self._hosts.get(service_name)
        if host is None:
            return HttpResponse.error(404, f"no service {service_name!r}")
        arguments = decode_rest_call(host.contract, operation_name, request)
        if isinstance(arguments, HttpResponse):
            return arguments

        context = InvocationContext(operation_name, headers=dict(request.headers.items()))
        try:
            result = dispatch(host, "rest", operation_name, arguments, context)
        except ServiceFault as exc:
            return fault_to_response(exc)
        return HttpResponse.xml_response(to_element("result", result).toxml())


class RestClient(BindingClient):
    """Client for :class:`RestEndpoint`; GETs idempotent ops, POSTs the rest."""

    binding = "rest"
    default_prefix = "/rest"

    def _exchange(self, operation: str, arguments: Any) -> Any:
        """One raw resource round-trip (no telemetry; HttpClient carries
        ``traceparent`` in the HTTP headers): encode, send, decode.  A call
        that arrived in this dialect already (the caller's
        :class:`HttpRequest` in place of ``arguments``, as the gateway
        relays it) is sent to this endpoint with its own method, query,
        body and ``Content-Type`` only; an XML reply below 400 comes back
        as it is, and any other reply is checked as a decoded call's is."""
        path = f"{self.path}/{operation}"
        relayed = isinstance(arguments, HttpRequest)
        if relayed:
            _path, mark, query = arguments.target.partition("?")
            request = HttpRequest(arguments.method, path + mark + query, {}, arguments.body)
            if "Content-Type" in arguments.headers:
                request.headers.set("Content-Type", arguments.headers.get("Content-Type"))
        elif self.fetch_contract().operation(operation).idempotent and all(
            isinstance(v, (str, int, float)) for v in arguments.values()
        ):
            query = encode_query({k: _query_repr(v) for k, v in arguments.items()})
            request = HttpRequest("GET", f"{path}?{query}" if query else path)
        else:
            body = Element("arguments")
            for name, value in arguments.items():
                body.append(to_element(name, value))
            request = HttpRequest(
                "POST", path, {"Content-Type": "application/xml"}, body.toxml().encode()
            )
        response = self.http.request(request)
        if response.content_type != "application/xml":
            raise_transport_status(response)
            raise TransportError(
                f"expected XML response, got {response.content_type!r} "
                f"(HTTP {response.status})"
            )
        if relayed and response.status < 400:
            return response
        root = parse(response.text())
        if root.tag == "error":
            message_el = root.find("message")
            raise rebuild_fault(
                root.get("code", "Server"),
                message_el.text if message_el is not None else "unknown error",
                root,
                response,
            )
        if root.tag != "result":
            raise TransportError(f"unexpected response element <{root.tag}>")
        return from_element(root)


def _query_repr(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rest_proxy(
    http: HttpClient,
    service_name: str,
    prefix: str = "/rest",
    *,
    policy: Any = None,
    **policy_kwargs: Any,
) -> ServiceProxy:
    """Fetch the remote contract and return a typed proxy over REST,
    defended by ``policy`` when given (see :func:`binding_proxy`)."""
    return binding_proxy(RestClient(http, service_name, prefix), policy, policy_kwargs)


class RestRouter:
    """Generic path-pattern router: ``/users/{id}/orders`` style.

    Register handlers per (method, pattern); dispatch extracts path
    variables and passes them as keyword arguments alongside the request.
    """

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern[str], Callable[..., HttpResponse]]] = []
        self.not_found: Callable[[HttpRequest], HttpResponse] = (
            lambda request: HttpResponse.error(404, f"no route for {request.path}")
        )

    def route(self, method: str, pattern: str):
        """Decorator registering a handler for ``method`` + ``pattern``."""
        regex = self._compile(pattern)

        def register(handler: Callable[..., HttpResponse]):
            self._routes.append((method.upper(), regex, handler))
            return handler

        return register

    def add(self, method: str, pattern: str, handler: Callable[..., HttpResponse]) -> None:
        self._routes.append((method.upper(), self._compile(pattern), handler))

    @staticmethod
    def _compile(pattern: str) -> re.Pattern[str]:
        parts = []
        for piece in re.split(r"(\{[a-zA-Z_][a-zA-Z0-9_]*\})", pattern):
            if piece.startswith("{") and piece.endswith("}"):
                parts.append(f"(?P<{piece[1:-1]}>[^/]+)")
            else:
                parts.append(re.escape(piece))
        return re.compile("^" + "".join(parts) + "$")

    def __call__(self, request: HttpRequest) -> HttpResponse:
        allowed: list[str] = []
        for method, regex, handler in self._routes:
            match = regex.match(request.path)
            if match:
                if method != request.method:
                    allowed.append(method)
                    continue
                return handler(request, **match.groupdict())
        if allowed:
            return HttpResponse.error(405, f"allowed: {', '.join(sorted(set(allowed)))}")
        return self.not_found(request)
