"""Dynamic client proxies generated from service contracts.

The SOD workflow the course teaches is: discover a contract in the broker,
generate a typed proxy, program against the proxy as if it were a local
object.  :func:`make_proxy` performs the generation step: given a contract
and an *invoker* (any callable ``(operation, arguments) -> result``), it
returns an object with one method per operation, each validating its
arguments client-side before the wire is touched.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .broker import ServiceBroker
from .bus import ServiceBus
from .contracts import Operation, ServiceContract

__all__ = ["ServiceProxy", "make_proxy", "proxy_from_broker"]

Invoker = Callable[[str, dict[str, Any]], Any]


class ServiceProxy:
    """Typed façade over a remote service.

    Attribute access yields bound operation callables; ``dir(proxy)``
    lists the contract operations; call signatures are validated against
    the contract before the invoker runs (client-side contract checking —
    faults fast without a round trip).
    """

    def __init__(self, contract: ServiceContract, invoker: Invoker) -> None:
        self._contract = contract
        self._invoker = invoker

    @property
    def contract(self) -> ServiceContract:
        return self._contract

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name.startswith("_"):
            raise AttributeError(name)
        operation = self._contract.operation(name)  # raises UnknownOperation
        return _BoundOperation(operation, self._invoker)

    def __dir__(self) -> list[str]:
        return sorted(set(super().__dir__()) | set(self._contract.operations))

    def __repr__(self) -> str:
        return f"ServiceProxy({self._contract.name!r}, ops={self._contract.operation_names()})"


class _BoundOperation:
    def __init__(self, operation: Operation, invoker: Invoker) -> None:
        self._operation = operation
        self._invoker = invoker
        self.__name__ = operation.name
        self.__doc__ = operation.documentation

    def __call__(self, **arguments: Any) -> Any:
        bound = self._operation.validate_arguments(arguments)
        return self._invoker(self._operation.name, bound)

    def __repr__(self) -> str:
        params = ", ".join(
            f"{p.name}: {p.type}" for p in self._operation.parameters
        )
        return f"<operation {self._operation.name}({params}) -> {self._operation.returns}>"


def make_proxy(contract: ServiceContract, invoker: Invoker) -> ServiceProxy:
    """Generate a proxy for ``contract`` dispatching through ``invoker``."""
    return ServiceProxy(contract, invoker)


def proxy_from_broker(
    broker: ServiceBroker,
    bus: ServiceBus,
    service_name: str,
    *,
    policy: Optional[Any] = None,
    **policy_kwargs: Any,
) -> ServiceProxy:
    """Discover ``service_name`` in the broker and bind a typed proxy.

    Without a ``policy``, binds directly over the in-process bus (the
    original SOD workflow).  With a ``policy`` (a
    :class:`repro.resilience.ResiliencePolicy`), the proxy instead
    dispatches through a broker-guided
    :class:`~repro.resilience.replica.ReplicaBalancer` over *all*
    registered bindings: P2C selection on broker health, ejection and
    ``Retry-After`` cooling, in-call failover, every attempt
    policy-defended, and outcomes fed back to the broker's QoS loop.
    ``policy_kwargs`` (``clock``, ``sleep``, ``rng``, ``budget``,
    ``http_factory``, ``middlewares``) pass through to the balancer for
    deterministic testing.
    """
    if policy is not None:
        # Lazy import: core stays importable without the resilience layer.
        from ..resilience.replica import resilient_proxy_from_broker

        return resilient_proxy_from_broker(
            broker, service_name, bus=bus, policy=policy, **policy_kwargs
        )
    registration = broker.lookup(service_name)
    endpoint = broker.endpoint_for(service_name, binding="inproc")

    def invoker(operation: str, arguments: dict[str, Any]) -> Any:
        return bus.call(endpoint.address, operation, arguments)

    return make_proxy(registration.contract, invoker)
