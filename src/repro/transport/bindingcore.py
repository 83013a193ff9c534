"""The binding core: one call path and one dispatch for SOAP and REST.

:class:`BindingClient` holds what the two HTTP dialects share; a dialect
subclass adds only its name, where its contract document lives, and
``_exchange``, the raw round-trip that encodes a call and decodes the
answer.  :func:`binding_proxy` turns any such client into a typed proxy,
and :func:`dispatch` is the endpoints' one step into a host.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.contracts import ServiceContract
from ..core.faults import ServiceFault, TransportError
from ..core.proxy import ServiceProxy, make_proxy
from ..core.service import InvocationContext, ServiceHost
from ..observability.runtime import OBS
from ..observability.trace import current_span
from .client import HttpClient
from .statusmap import raise_transport_status
from .wsdl import contract_from_xml

__all__ = ["BindingClient", "binding_proxy", "dispatch"]


class BindingClient:
    """Calls one remote service over one HTTP dialect: the traced
    :meth:`call` (a ``<binding>.call`` span and the
    ``repro_client_calls_total{binding,outcome}`` count), the memoised
    contract (``contract`` skips the discovery GET) and ``close``."""

    binding = ""  # span attribute, metric label, ``<binding>:<Service>`` label
    default_prefix = ""  # where the dialect's endpoints are mounted
    contract_query = ""  # appended to the path to GET the contract document

    def __init__(
        self,
        http: HttpClient,
        service_name: str,
        prefix: Optional[str] = None,
        *,
        contract: Optional[ServiceContract] = None,
    ) -> None:
        self.http = http
        self.service_name = service_name
        self.prefix = (self.default_prefix if prefix is None else prefix).rstrip("/")
        self.path = f"{self.prefix}/{service_name}"
        self._contract = contract
        self._span_name = f"{self.binding}.call"

    def close(self) -> None:
        """Release the underlying HTTP client's pooled connections."""
        self.http.close()

    def fetch_contract(self) -> ServiceContract:
        """The service's contract, downloaded on first use."""
        if self._contract is None:
            response = self.http.get(self.path + self.contract_query)
            if not response.ok:
                raise_transport_status(response)
                raise TransportError(f"contract fetch failed: HTTP {response.status}")
            self._contract = contract_from_xml(response.text())
        return self._contract

    def call(self, operation: str, arguments: dict[str, Any]) -> Any:
        if not OBS.enabled:
            return self._exchange(operation, arguments)
        with OBS.tracer.span(
            self._span_name,
            kind="client",
            attributes={
                "binding": self.binding,
                "operation": operation,
                "endpoint": self.path,
            },
        ) as span:
            # traceparent rides the HTTP headers: HttpClient injects it
            # from the span this block just activated.
            try:
                result = self._exchange(operation, arguments)
            except Exception as exc:
                span.record_exception(exc)
                OBS.instruments.client_calls.inc(binding=self.binding, outcome="fault")
                raise
            OBS.instruments.client_calls.inc(binding=self.binding, outcome="ok")
            return result

    def _exchange(self, operation: str, arguments: dict[str, Any]) -> Any:
        """One raw round-trip (no telemetry)."""
        raise NotImplementedError


def dispatch(
    host: ServiceHost,
    binding: str,
    operation: str,
    arguments: dict[str, Any],
    context: InvocationContext,
) -> Any:
    """Invoke one decoded SOAP or REST call on ``host``, naming it on the
    active (``http.server``) span, which a ServiceFault marks failed."""
    span = current_span() if OBS.enabled else None
    if span is not None:
        span.attributes.update(binding=binding, operation=operation, service=host.name)
    try:
        return host.invoke(operation, arguments, context)
    except ServiceFault as exc:
        if span is not None:
            span.record_exception(exc)
        raise


def binding_proxy(
    client: BindingClient, policy: Any, policy_kwargs: dict[str, Any]
) -> ServiceProxy:
    """Fetch ``client``'s contract and return a typed proxy over it.

    With a ``policy`` (a :class:`repro.resilience.ResiliencePolicy`), the
    invoker runs through the resilience middleware chain (endpoint label
    ``<binding>:<Service>``); ``policy_kwargs`` pass through to
    :class:`~repro.resilience.ResilientInvoker` (``clock``, ``sleep``,
    ``rng``, ``budget``, ``reporter``, ``middlewares``...).
    """
    contract = client.fetch_contract()
    invoker = client.call
    if policy is not None:
        from ..resilience.middleware import ResilientInvoker  # lazy: layering

        policy_kwargs.setdefault("endpoint", f"{client.binding}:{client.service_name}")
        invoker = ResilientInvoker(client.call, policy, **policy_kwargs)
    return make_proxy(contract, invoker)
