"""RESTful resource binding.

CSE446's project list includes "RESTful service development" and "Web
applications consuming RESTful services".  This binding maps a service
contract onto resource-oriented HTTP:

* ``GET  /rest/<Service>/<operation>?arg=value`` — idempotent operations
* ``POST /rest/<Service>/<operation>`` with an XML-databound argument map
* responses are databound XML (``200``), faults carry an ``<error>``
  document with a status mapped from the fault code.

Because GET query strings are untyped text, the REST endpoint coerces
query arguments to the parameter types declared in the contract — the
practical interface lesson the course labs drill.

Also includes :class:`RestRouter`, a generic path-pattern router used by
the web-application framework and the service directory frontend.

:class:`RestClient` is safe to share across threads when backed by the
pooled :class:`~repro.transport.client.HttpClient`: each concurrent
call borrows its own keep-alive socket, so idempotent GETs additionally
get the transport's one-shot retry on a fresh connection while POSTs of
non-idempotent operations fail fast (their replays belong to a
:mod:`repro.resilience` policy).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from ..core.contracts import Operation
from ..core.faults import ServiceFault, TransportError, fault_from_code
from ..core.proxy import ServiceProxy, make_proxy
from ..core.service import InvocationContext, ServiceHost
from ..observability.runtime import OBS, server_span
from ..observability.trace import TRACEPARENT_HEADER
from ..xmlkit import Element, from_element, parse, to_element
from .conditional import compute_etag, if_none_match
from .http11 import HttpRequest, HttpResponse, encode_query
from .client import HttpClient
from .statusmap import attach_retry_after, raise_transport_status
from .wsdl import contract_to_xml

__all__ = [
    "RestEndpoint",
    "RestClient",
    "rest_proxy",
    "RestRouter",
    "coerce_argument",
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


def _fault_response(fault: ServiceFault) -> HttpResponse:
    """Render a fault as the REST dialect's ``<error>`` document, with
    the fault code mapped to an HTTP status (and ``Retry-After`` when
    the fault carries one)."""
    error = Element("error", {"code": fault.code})
    error.append(Element("message", text=str(fault)))
    if fault.detail is not None:
        detail = Element("detail")
        detail.append(to_element("value", fault.detail))
        error.append(detail)
    if fault.code.startswith("Client.AccessDenied"):
        status = 403
    elif fault.code.startswith("Client.Unknown"):
        status = 404
    elif fault.code.startswith("Client"):
        status = 400
    elif fault.code == "Server.Unavailable":
        status = 503
    elif fault.code == "Server.Timeout":
        status = 408
    else:
        status = 500
    response = HttpResponse.xml_response(error.toxml(), status=status)
    retry_after = getattr(fault, "retry_after", None)
    if retry_after is not None:
        response.headers.set("Retry-After", f"{retry_after:g}")
    return response


#: Public name for the fault-document renderer: the REST dialect's
#: status mapping is also how the gateway reports upstream faults.
fault_to_response = _fault_response


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
        try:
            operation = host.contract.operation(operation_name)
        except ServiceFault as exc:
            return _fault_response(exc)

        try:
            if request.method == "GET":
                if not operation.idempotent:
                    return HttpResponse.error(
                        405, f"operation {operation_name!r} is not idempotent; POST it"
                    )
                arguments = self._arguments_from_query(operation, request.query)
            elif request.method == "POST":
                arguments = self._arguments_from_body(request)
            else:
                return HttpResponse.error(405)
        except (ValueError, ServiceFault) as exc:
            return _fault_response(ServiceFault(str(exc), code="Client.BadRequest"))

        context = InvocationContext(operation_name, headers=dict(request.headers.items()))
        with server_span(
            "rest.invoke",
            header=request.headers.get(TRACEPARENT_HEADER),
            binding="rest",
            operation=operation_name,
            service=service_name,
        ) as span:
            try:
                result = host.invoke(operation_name, arguments, context)
            except ServiceFault as exc:
                span.record_exception(exc)
                return _fault_response(exc)
        return HttpResponse.xml_response(to_element("result", result).toxml())

    @staticmethod
    def _arguments_from_query(operation: Operation, query: dict[str, str]) -> dict[str, Any]:
        types = {p.name: p.type for p in operation.parameters}
        arguments: dict[str, Any] = {}
        for name, raw in query.items():
            if name not in types:
                raise ValueError(f"unknown query parameter {name!r}")
            arguments[name] = coerce_argument(raw, types[name])
        return arguments

    @staticmethod
    def _arguments_from_body(request: HttpRequest) -> dict[str, Any]:
        if not request.body:
            return {}
        root = parse(request.text())
        if root.tag != "arguments":
            raise ValueError(f"expected <arguments> body, got <{root.tag}>")
        return {child.tag: from_element(child) for child in root.elements()}


class RestClient:
    """Client for :class:`RestEndpoint`; GETs idempotent ops, POSTs the rest."""

    def __init__(self, http: HttpClient, service_name: str, prefix: str = "/rest") -> None:
        self.http = http
        self.service_name = service_name
        self.prefix = prefix.rstrip("/")
        self._contract = None

    def close(self) -> None:
        """Release the underlying HTTP client's pooled connections."""
        self.http.close()

    def fetch_contract(self):
        from .wsdl import contract_from_xml

        if self._contract is None:
            response = self.http.get(f"{self.prefix}/{self.service_name}")
            if not response.ok:
                raise_transport_status(response)
                raise TransportError(f"contract fetch failed: HTTP {response.status}")
            self._contract = contract_from_xml(response.text())
        return self._contract

    def call(self, operation: str, arguments: dict[str, Any]) -> Any:
        if not OBS.enabled:
            return self._exchange(operation, arguments)
        with OBS.tracer.span(
            "rest.call",
            kind="client",
            attributes={
                "binding": "rest",
                "operation": operation,
                "endpoint": f"{self.prefix}/{self.service_name}",
            },
        ) as span:
            # traceparent rides the HTTP headers: HttpClient injects it
            # from the span this block just activated.
            try:
                result = self._exchange(operation, arguments)
            except Exception as exc:
                span.record_exception(exc)
                OBS.instruments.client_calls.inc(binding="rest", outcome="fault")
                raise
            OBS.instruments.client_calls.inc(binding="rest", outcome="ok")
            return result

    def _exchange(self, operation: str, arguments: dict[str, Any]) -> Any:
        """One raw resource round-trip (no telemetry)."""
        contract = self.fetch_contract()
        op = contract.operation(operation)
        path = f"{self.prefix}/{self.service_name}/{operation}"
        simple = all(
            isinstance(v, (str, int, float, bool)) and not isinstance(v, bool) or isinstance(v, bool)
            for v in arguments.values()
        )
        if op.idempotent and simple:
            query = encode_query({k: _query_repr(v) for k, v in arguments.items()})
            response = self.http.get(f"{path}?{query}" if query else path)
        else:
            body = Element("arguments")
            for name, value in arguments.items():
                body.append(to_element(name, value))
            response = self.http.post(path, body.toxml(), content_type="application/xml")
        if response.content_type != "application/xml":
            raise_transport_status(response)
            raise TransportError(
                f"expected XML response, got {response.content_type!r} "
                f"(HTTP {response.status})"
            )
        root = parse(response.text())
        if root.tag == "error":
            message_el = root.find("message")
            detail_el = root.find("detail")
            detail = None
            if detail_el is not None:
                value = detail_el.find("value")
                detail = from_element(value) if value is not None else None
            fault = fault_from_code(
                root.get("code", "Server"),
                message_el.text if message_el is not None else "unknown error",
                detail,
            )
            attach_retry_after(fault, response)
            raise fault
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
    """Fetch the remote contract and return a typed proxy over REST.

    With a ``policy`` (a :class:`repro.resilience.ResiliencePolicy`), the
    proxy's invoker is wrapped in the resilience middleware chain, so the
    REST binding is defended exactly like the bus and SOAP bindings.
    ``policy_kwargs`` (``clock``, ``sleep``, ``rng``, ``budget``,
    ``reporter``, ``middlewares``...) pass through to
    :class:`~repro.resilience.ResilientInvoker`.
    """
    client = RestClient(http, service_name, prefix)
    invoker = client.call
    if policy is not None:
        from ..resilience.middleware import ResilientInvoker  # lazy: layering

        policy_kwargs.setdefault("endpoint", f"rest:{service_name}")
        invoker = ResilientInvoker(client.call, policy, **policy_kwargs)
    return make_proxy(client.fetch_contract(), invoker)


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
