"""The front door: one mediated HTTP plane in front of every binding.

:class:`Gateway` is the SOA mediation piece the curriculum's
Gateway/ESB pattern calls for — clients stop dialing providers and hit
one place that does, in order:

1. **route** — longest-prefix match over a :class:`GatewayRouter`
   table, each route naming a broker-registered backend service and the
   contract version it promises (``X-Contract-Version`` pins refused
   when the backend cannot satisfy them);
2. **authenticate** — ``Authorization: Bearer`` terminated against the
   :class:`~repro.security.auth.TokenIssuer` (401 + ``WWW-Authenticate``
   challenges, RFC 6750 shaped);
3. **authorize** — the route's RBAC permission checked via
   :class:`~repro.security.access.AccessControl` (403);
4. **rate-limit** — per-principal token bucket + daily quota from
   :class:`~repro.gateway.rate_limiter.RateLimiter` (429 +
   ``Retry-After``; anonymous callers bucket per client address);
5. **balance** — the call forwarded through one
   :class:`~repro.resilience.replica.ReplicaBalancer` per fronted
   service, all sharing a single
   :class:`~repro.resilience.binding.PooledHttpClients` — P2C replica
   selection, ejection and in-call failover included, so a replica
   dying mid-load never surfaces to the gateway's callers.

The wire dialect behind a route is the REST binding's
(``GET /<prefix>/<op>?args`` for idempotent operations,
``POST /<prefix>/<op>`` with an ``<arguments>`` document, ``GET
/<prefix>`` for the contract), so an unmodified
:class:`~repro.transport.rest.RestClient` pointed at the gateway works —
it just needs a token.

Self-routes: ``POST /auth/token`` (password → bearer token), ``POST
/auth/logout[?everywhere=true]``, ``GET /healthz`` and ``GET /metrics``
(the gateway's own ``repro_gateway_*`` families from a private
registry).  Access logs ride the standard
:func:`~repro.observability.logs.access_log` hook, trace-correlated.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

from ..core.broker import Registration, ServiceBroker
from ..core.faults import (
    ServiceFault,
    ServiceUnavailable,
    TimeoutFault,
    TransportError,
)
from ..observability.exposition import HealthHandler, debug_routes, metrics_handler
from ..observability.logs import Logger, access_log, get_logger
from ..observability.metrics import LATENCY_BUCKETS, MetricFamily, MetricsRegistry
from ..observability.runtime import OBS
from ..resilience.binding import PooledHttpClients
from ..resilience.replica import ReplicaBalancer
from ..transport.http11 import HttpRequest, HttpResponse
from ..transport.httpserver import HttpServer
from ..transport.rest import RestEndpoint, fault_to_response
from ..transport.wsdl import contract_to_xml
from ..xmlkit import to_element
from .policy import GatewayAuthError, SecurityPolicy
from .rate_limiter import RateDecision, RateLimiter
from .router import GatewayRoute, GatewayRouter, version_accepts

__all__ = ["Gateway"]


class Gateway:
    """HttpServer-hosted mediation plane over broker-resolved backends.

    The instance itself is the composed ``HttpRequest -> HttpResponse``
    handler (testable via
    :func:`~repro.transport.httpserver.serve_once`); :meth:`start`
    mounts it on a real :class:`HttpServer`::

        gw = Gateway(broker, [GatewayRoute("/api/Convert", "Converter",
                                           permission="convert:call")])
        with gw.start() as server:
            client = HttpClient(server.host, server.port)
            ...

    ``balancer_kwargs`` pass through to every per-service
    :class:`ReplicaBalancer` (ejection policy, hedging, clock, rng...).
    """

    def __init__(
        self,
        broker: ServiceBroker,
        routes: list[GatewayRoute],
        *,
        security: Optional[SecurityPolicy] = None,
        limiter: Optional[RateLimiter] = None,
        registry: Optional[MetricsRegistry] = None,
        access_logger: Optional[Logger] = None,
        balancer_factory: Optional[Callable[[str, GatewayRoute], Any]] = None,
        debug_permission: Optional[str] = "debug:profile",
        trace_permission: Optional[str] = "traces:read",
        **balancer_kwargs: Any,
    ) -> None:
        self.broker = broker
        self.router = GatewayRouter(routes)
        self.security = security or SecurityPolicy()
        self.limiter = limiter or RateLimiter()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: RBAC permission guarding ``/debug/*`` (``None`` = any
        #: *authenticated* principal; anonymous callers are always 401).
        self.debug_permission = debug_permission
        #: RBAC permission guarding the trace plane (``/traces*`` and
        #: ``/dependencies``) — traces expose request internals, so like
        #: ``/debug/*`` they are never anonymous.
        self.trace_permission = trace_permission
        self._trace_store: Optional[tuple[str, int]] = None
        self._cache_node: Optional[tuple[str, int]] = None
        self._balancer_factory = balancer_factory
        self._balancer_kwargs = balancer_kwargs
        self._http_clients = PooledHttpClients()
        self._balancers: dict[str, ReplicaBalancer] = {}
        self._access_logger = access_logger or get_logger("gateway.access")
        self.server: Optional[HttpServer] = None

        self._requests = self.registry.counter(
            "repro_gateway_requests_total",
            "Requests through the gateway mediation plane, by route and outcome.",
            ("route", "outcome"),
        )
        self._seconds = self.registry.histogram(
            "repro_gateway_request_seconds",
            "Gateway end-to-end request duration (auth + policy + upstream).",
            ("route",),
            buckets=LATENCY_BUCKETS,
        )
        self._rejections = self.registry.counter(
            "repro_gateway_rejected_total",
            "Requests the gateway refused before any upstream call, by reason.",
            ("reason",),
        )
        self.registry.register_collector(self._capacity_families)
        self._metrics_route = metrics_handler(self.registry)
        self._debug_handlers = debug_routes()
        self.health = (
            HealthHandler()
            .add_check("backends", self._backends_published)
            .watch_pool(self._http_clients, "upstream_pools")
        )

    # -- lifecycle -------------------------------------------------------
    def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 8,
        **server_kwargs: Any,
    ) -> HttpServer:
        """Mount the gateway on a real socket server and start serving.

        Returns the :class:`HttpServer` (usable as a context manager —
        stopping it leaves the gateway reusable via a fresh ``start``).
        """
        server_kwargs.setdefault("node_name", "gateway")
        self.server = HttpServer(
            self,
            host,
            port,
            workers=workers,
            on_request=access_log(self._access_logger),
            **server_kwargs,
        )
        return self.server.start()

    def close(self) -> None:
        """Stop the server (if started) and drop every pooled upstream
        socket."""
        if self.server is not None:
            self.server.stop()
            self.server = None
        for balancer in self._balancers.values():
            balancer.close()
        self._http_clients.close()

    def __enter__(self) -> "Gateway":
        if self.server is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def base_url(self) -> str:
        if self.server is None:
            raise RuntimeError("gateway not started")
        return self.server.base_url

    # -- wiring ----------------------------------------------------------
    def _backends_published(self) -> bool:
        return all(
            self.broker.try_lookup(route.service) is not None
            for route in self.router.routes()
        )

    def balancer_for(self, route: GatewayRoute) -> ReplicaBalancer:
        balancer = self._balancers.get(route.service)
        if balancer is None:
            if self._balancer_factory is not None:
                balancer = self._balancer_factory(route.service, route)
            else:
                balancer = ReplicaBalancer(
                    self.broker,
                    route.service,
                    binding=route.binding,
                    http_clients=self._http_clients,
                    **self._balancer_kwargs,
                )
            self._balancers[route.service] = balancer
        return balancer

    # -- telemetry -------------------------------------------------------
    def _observe(self, route_label: str, outcome: str, started: float) -> None:
        duration = time.perf_counter() - started
        self._requests.inc(route=route_label, outcome=outcome)
        self._seconds.observe(duration, route=route_label)
        if OBS.enabled:
            OBS.instruments.gateway_requests.inc(
                route=route_label, outcome=outcome
            )
            OBS.instruments.gateway_seconds.observe(duration, route=route_label)

    def _refused(self, reason: str) -> None:
        self._rejections.inc(reason=reason)
        if OBS.enabled:
            OBS.instruments.gateway_rejections.inc(reason=reason)

    def _capacity_families(self) -> list[MetricFamily]:
        """Scrape-time capacity gauges: live rate-limiter bucket count.

        Tracked keys grow one per active principal (or anonymous
        address), so this gauge is the gateway's live-client cardinality
        — and an early sign of key-cardinality abuse.
        """
        return [
            MetricFamily(
                "repro_gateway_rate_buckets",
                "gauge",
                "Live per-principal rate-limiter buckets tracked by the gateway.",
                (),
                {(): float(self.limiter.tracked_keys())},
            )
        ]

    # -- dispatch --------------------------------------------------------
    def __call__(self, request: HttpRequest) -> HttpResponse:
        started = time.perf_counter()
        path = request.path
        if path == "/metrics":
            return self._metrics_route(request)
        if path == "/healthz":
            return self.health(request)
        if path == "/debug" or path.startswith("/debug/"):
            response = self._debug_route(request)
            self._observe("/debug", "ok" if response.ok else "denied", started)
            return response
        if (
            path == "/traces"
            or path.startswith("/traces/")
            or path == "/dependencies"
        ):
            response = self._guarded_proxy(
                request, self.trace_permission, self._trace_store, "no_trace_store"
            )
            self._observe("/traces", "ok" if response.ok else "denied", started)
            return response
        if path == "/cache/stats":
            response = self._guarded_proxy(
                request, None, self._cache_node, "no_cache_node"
            )
            self._observe("/cache", "ok" if response.ok else "denied", started)
            return response
        if path == "/auth/token":
            response = self._token_route(request)
        elif path == "/auth/logout":
            response = self._logout_route(request)
        else:
            route = self.router.resolve(path)
            if route is None:
                self._refused("no_route")
                self._observe("(none)", "not_found", started)
                return HttpResponse.error(404, f"no gateway route for {path}")
            response, outcome = self._mediate(route, request)
            self._observe(route.prefix, outcome, started)
            return response
        label = path
        outcome = "ok" if response.ok else "denied"
        self._observe(label, outcome, started)
        return response

    def _auth_error_response(self, exc: GatewayAuthError) -> HttpResponse:
        response = HttpResponse.error(exc.status, str(exc))
        if exc.challenge is not None:
            response.headers.set("WWW-Authenticate", exc.challenge)
        return response

    # -- self-routes -----------------------------------------------------
    def _guard(
        self, request: HttpRequest, permission: Optional[str]
    ) -> Optional[HttpResponse]:
        """Authenticate, then require ``permission`` (``None``: any
        *authenticated* principal — anonymous callers are always 401).

        Returns the refusal to send, or ``None`` when the caller may pass.
        """
        try:
            principal = self.security.authenticate(request)
            if permission is not None:
                self.security.authorize(principal, permission)
            else:
                self.security.require(principal)
        except GatewayAuthError as exc:
            self._refused("unauthenticated" if exc.status == 401 else "forbidden")
            return self._auth_error_response(exc)
        return None

    def _debug_route(self, request: HttpRequest) -> HttpResponse:
        """RBAC-guarded front for the observability ``/debug/*`` routes.

        Profiling and thread dumps expose internals (code paths, remote
        targets), so unlike ``/metrics`` they are never anonymous: the
        caller must present a valid bearer token carrying
        :attr:`debug_permission`.
        """
        refusal = self._guard(request, self.debug_permission)
        if refusal is not None:
            return refusal
        handler = self._debug_handlers.get(request.path)
        if handler is None:
            return HttpResponse.error(404, f"no debug route {request.path}")
        return handler(request)

    def _guarded_proxy(
        self,
        request: HttpRequest,
        permission: Optional[str],
        upstream: Optional[tuple[str, int]],
        missing_reason: str,
    ) -> HttpResponse:
        """Guarded GET proxy onto an attached plane node.

        :meth:`_guard` first; then 405 for anything but GET, 503 (counted
        as ``missing_reason``) when no node is attached, 502 when the node
        is unreachable, else the node's answer with its content type.
        """
        refusal = self._guard(request, permission)
        if refusal is not None:
            return refusal
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        if upstream is None:
            self._refused(missing_reason)
            return HttpResponse.error(
                503, missing_reason.replace("_", " ") + " attached"
            )
        host, port = upstream
        try:
            answer = self._http_clients(host, port).get(request.target)
        except (OSError, TransportError) as exc:
            return HttpResponse.error(502, f"{host}:{port} unreachable: {exc}")
        content_type = (
            answer.headers.get("Content-Type") or "application/json"
        ).split(";")[0].strip()
        return HttpResponse.text_response(answer.text(), answer.status, content_type)

    def attach_trace_store(self, host: str, port: int) -> None:
        """Front a :class:`~repro.services.tracestore.TraceStore` node.

        ``/traces``, ``/traces/<id>`` and ``/dependencies`` then proxy
        (GET only, :attr:`trace_permission` first) to the store over the
        shared upstream pool — one place to ask "what happened to
        request X", guarded like the debug plane.  Span *ingest* stays
        node→store direct; the gateway fronts queries, not the firehose.
        """
        self._trace_store = (host, int(port))

    def attach_cache(self, host: str, port: int) -> None:
        """Front a node serving :func:`~repro.services.cache_service.cache_routes`.

        ``/cache/stats`` then proxies (GET only, authenticated) to the
        cache node over the shared upstream pool — hit rates and
        eviction counts on the same pane of glass as ``/traces`` and
        ``/debug``, without exposing the cache node itself.
        """
        self._cache_node = (host, int(port))

    def _token_route(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse.error(405, "POST only")
        # pre-auth endpoint: brute force is throttled per client address
        decision = self.limiter.check(
            f"addr:{request.client_address or 'unknown'}", anonymous=True
        )
        if not decision.allowed:
            self._refused("rate_limited")
            return self._limited_response(decision)
        form = request.form()
        user, password = form.get("user", ""), form.get("password", "")
        if not user:
            return HttpResponse.error(400, "missing 'user' form field")
        try:
            token, ttl = self.security.login(user, password)
        except GatewayAuthError as exc:
            self._refused("bad_credentials")
            return self._auth_error_response(exc)
        body = json.dumps({"token": token, "token_type": "Bearer", "expires_in": ttl})
        return HttpResponse.text_response(body, content_type="application/json")

    def _logout_route(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse.error(405, "POST only")
        everywhere = request.query.get("everywhere", "").lower() in ("true", "1")
        try:
            revoked = self.security.logout(request, everywhere=everywhere)
        except GatewayAuthError as exc:
            self._refused("unauthenticated")
            return self._auth_error_response(exc)
        return HttpResponse.text_response(
            json.dumps({"revoked": revoked}), content_type="application/json"
        )

    def _limited_response(self, decision: RateDecision) -> HttpResponse:
        response = HttpResponse.error(
            429,
            "quota exhausted" if decision.reason == "quota" else "rate limited",
        )
        response.headers.set("Retry-After", f"{max(decision.retry_after, 0.001):g}")
        return response

    # -- mediation -------------------------------------------------------
    def _mediate(
        self, route: GatewayRoute, request: HttpRequest
    ) -> tuple[HttpResponse, str]:
        """Auth → authz → rate limit → balanced upstream call."""
        try:
            principal = self.security.authenticate(request)
            if route.permission is not None:
                self.security.authorize(principal, route.permission)
        except GatewayAuthError as exc:
            self._refused("unauthenticated" if exc.status == 401 else "forbidden")
            return (
                self._auth_error_response(exc),
                "unauthenticated" if exc.status == 401 else "forbidden",
            )
        decision = self.limiter.check(
            principal.rate_key(request.client_address),
            anonymous=principal.anonymous,
        )
        if not decision.allowed:
            self._refused("rate_limited")
            return self._limited_response(decision), "rate_limited"

        try:
            registration = self.broker.lookup(route.service)
        except Exception:
            self._refused("no_backend")
            return (
                HttpResponse.error(502, f"no backend for {route.service!r}"),
                "upstream_error",
            )
        mismatch = self._version_mismatch(route, registration, request)
        if mismatch is not None:
            self._refused("version")
            return HttpResponse.error(404, mismatch), "not_found"
        return self._forward(route, registration, request)

    def _version_mismatch(
        self,
        route: GatewayRoute,
        registration: Registration,
        request: HttpRequest,
    ) -> Optional[str]:
        actual = registration.contract.version
        if not version_accepts(route.version, actual):
            return (
                f"route {route.prefix} promises contract version "
                f"{route.version}, backend serves {actual}"
            )
        pinned = request.headers.get("X-Contract-Version")
        if pinned is not None and not version_accepts(pinned.strip(), actual):
            return (
                f"no backend for {route.service!r} at contract version "
                f"{pinned.strip()} (serving {actual})"
            )
        return None

    def _forward(
        self,
        route: GatewayRoute,
        registration: Registration,
        request: HttpRequest,
    ) -> tuple[HttpResponse, str]:
        """Translate the REST-dialect request and send it through the
        balancer; faults keep the REST status mapping, transport-level
        upstream failures surface as 502/504."""
        remainder = route.strip(request.path)
        contract = registration.contract
        if not remainder:
            if request.method == "GET":
                return HttpResponse.xml_response(contract_to_xml(contract)), "ok"
            return HttpResponse.error(405, "GET the route root for the contract"), "bad_request"
        if "/" in remainder:
            return (
                HttpResponse.error(404, f"expected {route.prefix}/<operation>"),
                "not_found",
            )
        try:
            operation = contract.operation(remainder)
        except ServiceFault as exc:
            return fault_to_response(exc), "fault"
        try:
            if request.method == "GET":
                if not operation.idempotent:
                    return (
                        HttpResponse.error(
                            405,
                            f"operation {remainder!r} is not idempotent; POST it",
                        ),
                        "bad_request",
                    )
                arguments = RestEndpoint._arguments_from_query(
                    operation, request.query
                )
            elif request.method == "POST":
                arguments = RestEndpoint._arguments_from_body(request)
            else:
                return HttpResponse.error(405), "bad_request"
        except (ValueError, ServiceFault) as exc:
            return (
                fault_to_response(ServiceFault(str(exc), code="Client.BadRequest")),
                "bad_request",
            )

        balancer = self.balancer_for(route)
        try:
            result = balancer(remainder, arguments)
        except TimeoutFault as exc:
            return HttpResponse.error(504, f"upstream timeout: {exc}"), "upstream_error"
        except ServiceUnavailable as exc:
            response = fault_to_response(exc)
            return response, "upstream_error"
        except ServiceFault as exc:
            return fault_to_response(exc), "fault"
        except TransportError as exc:
            return (
                HttpResponse.error(502, f"upstream unreachable: {exc}"),
                "upstream_error",
            )
        return (
            HttpResponse.xml_response(to_element("result", result).toxml()),
            "ok",
        )
