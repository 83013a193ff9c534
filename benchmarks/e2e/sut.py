"""The system under test: one workload's services, in a child process.

``run.py`` starts it as ``python3 sut.py <workload> <seed> <trace 0|1>``
with ``src`` on ``PYTHONPATH``.  It wires the workload's services exactly
as shipped (``publish_replicated`` fleets, ``Gateway.start()``, the
account application's ``HttpServer``), reports ready over its
:class:`~channel.Channel`, then answers the parent's commands:

``"cpu"``
    CPU seconds (user + system) this process has used so far.
``"begin"``
    Start of the measured phase: the CPU seconds so far; when tracing,
    also forget the warm-up's spans and start the sampling profiler.
``"end"``
    End of the measured phase: CPU seconds, peak RSS, and when tracing
    the spans, the layer counters and the profiler's hottest stacks.
``"stop"``
    Shut every server down and exit.

With a :class:`~ledger.Recorder` the layers are wrapped in spans, through
constructor arguments and public attributes only.  Without one nothing
is wrapped.
"""

from __future__ import annotations

import contextlib
import os
import random
import resource
import sys
import traceback
from typing import Any, Callable, Optional

from repro.apps import AccountProvider, AccountStore, build_web_app
from repro.core import ServiceBroker
from repro.gateway import (
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.observability import (
    BatchSpanExporter,
    SamplingProfiler,
    TailSampler,
    observed,
)
from repro.replication import publish_replicated
from repro.resilience import PooledHttpClients, ReplicaBalancer, ResiliencePolicy
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.services import CacheService, CreditScoreService, ShardedCache
from repro.services.tracestore import TraceStore, tracestore_routes
from repro.transport import HttpClient, HttpServer, rest_proxy
from repro.web import compose_handlers

from channel import Channel
from ledger import Entry, Layer, Recorder, TracedHttpClient
from workloads import CACHE_CAPACITY, PRINCIPAL, PRINCIPAL_PASSWORD, prefill_applicants

#: Rate and burst far above what two closed-loop clients can send.
UNTHROTTLED = 1e9
PROFILE_HZ = 100.0
PROFILE_TOP = 5
TAIL_KEEP_PROBABILITY = 0.01


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class System:
    """What a builder hands back: where to send load, and its counters."""

    def __init__(self) -> None:
        self.address: tuple[str, int] = ("", 0)
        self.token = ""
        self.servers: list[HttpServer] = []
        self.clients: list[HttpClient] = []
        self.balancers: list[ReplicaBalancer] = []
        self.gateways: list[Gateway] = []
        self.caches: list[ShardedCache] = []
        self.sampler: Optional[TailSampler] = None
        self.exporter: Optional[BatchSpanExporter] = None

    def counters(self) -> dict[str, float]:
        """Layer counters read from public APIs (see README.md)."""
        refused = sum(
            value
            for gateway in self.gateways
            for family in gateway.registry.collect()
            if family.name == "repro_gateway_rejected_total"
            for value in family.samples.values()
        )
        states = [
            state for balancer in self.balancers for state in balancer.states().values()
        ]
        cache_stats = [cache.stats() for cache in self.caches]
        hits = sum(stats["hits"] for stats in cache_stats)
        lookups = hits + sum(stats["misses"] for stats in cache_stats)
        decisions = sum(self.sampler.decisions.values()) if self.sampler else 0
        return {
            "transport.upstream_connections": sum(
                client.created_connections for client in self.clients
            ),
            "transport.rejected": sum(s.rejected_connections for s in self.servers),
            "gateway.refused": refused,
            "resilience.failovers": sum(state["failures"] for state in states),
            "resilience.ejections": sum(state["ejections"] for state in states),
            "services.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "observability.kept_ratio": (
                self.sampler.kept() / decisions if decisions else 0.0
            ),
            "observability.export_dropped": self.exporter.dropped if self.exporter else 0,
        }


def _security() -> tuple[SecurityPolicy, str]:
    """The gateway's security plane, with a bearer token issued to the
    benchmark principal through the same exchange ``/auth/token`` runs."""
    vault = PasswordVault()
    vault.set_password(PRINCIPAL, PRINCIPAL_PASSWORD, PRINCIPAL_PASSWORD)
    access = AccessControl()
    access.define_role("consumer", ["credit:read", "cache:rw"])
    access.assign_role(PRINCIPAL, "consumer")
    security = SecurityPolicy(TokenIssuer(), access, vault)
    token, _ttl = security.login(PRINCIPAL, PRINCIPAL_PASSWORD)
    return security, token


def _fleet(
    stack: contextlib.ExitStack,
    system: System,
    recorder: Optional[Recorder],
    factory: Callable[[], Any],
    broker: ServiceBroker,
    replicas: int,
) -> None:
    fleet = stack.enter_context(publish_replicated(factory, broker, replicas))
    for node in fleet.nodes:
        system.servers.append(node.server)
        if recorder is not None:
            node.server.handler = Entry(recorder, "replica.handler", node.server.handler)


def _gateway(
    stack: contextlib.ExitStack,
    system: System,
    recorder: Optional[Recorder],
    broker: ServiceBroker,
    route: GatewayRoute,
) -> Gateway:
    security, system.token = _security()
    open_policy = RateLimitPolicy(rate=UNTHROTTLED, burst=UNTHROTTLED)
    limiter = RateLimiter(open_policy, anonymous=open_policy)
    options: dict[str, Any] = {}
    if recorder is not None:
        def upstream_client(host: str, port: int) -> TracedHttpClient:
            client = TracedHttpClient(recorder, "transport.upstream", host, port)
            system.clients.append(client)
            return client

        pool = PooledHttpClients(upstream_client)
        stack.callback(pool.close)

        def balancer_factory(service: str, gateway_route: GatewayRoute) -> Layer:
            balancer = ReplicaBalancer(
                broker, service, binding=gateway_route.binding, http_clients=pool
            )
            system.balancers.append(balancer)
            return Layer(recorder, "resilience.balancer", balancer)

        options["balancer_factory"] = balancer_factory
        security.authenticate = Layer(recorder, "gateway.auth", security.authenticate)
        security.authorize = Layer(recorder, "gateway.auth", security.authorize)
        limiter.check = Layer(recorder, "gateway.ratelimit", limiter.check)
    gateway = Gateway(broker, [route], security=security, limiter=limiter, **options)
    stack.callback(gateway.close)
    server = gateway.start()
    if recorder is not None:
        server.handler = Entry(recorder, "gateway.handler", server.handler)
    system.servers.append(server)
    system.gateways.append(gateway)
    return gateway


def _credit_route() -> GatewayRoute:
    return GatewayRoute("/api/CreditScore", "CreditScore", permission="credit:read")


def build_gateway_tiny(stack, seed, recorder) -> System:
    system = System()
    broker = ServiceBroker()
    _fleet(stack, system, recorder, CreditScoreService, broker, 3)
    gateway = _gateway(stack, system, recorder, broker, _credit_route())
    system.address = (gateway.server.host, gateway.server.port)
    return system


def build_gateway_observed(stack, seed, recorder) -> System:
    """``gateway_tiny`` under production telemetry, wired as in
    ``examples/tracing_demo.py``: every span goes through a tail sampler
    that ships the kept traces to a trace-store node."""
    system = System()
    store = TraceStore()
    store_server = stack.enter_context(
        HttpServer(compose_handlers(dict(tracestore_routes(store)), default=None), workers=2)
    )
    system.servers.append(store_server)
    exporter = BatchSpanExporter(store_server.host, store_server.port, node="gateway")
    stack.callback(exporter.close)
    sampler = TailSampler(
        exporter, keep_probability=TAIL_KEEP_PROBABILITY, rng=random.Random(seed)
    )
    if recorder is not None:
        sampler.export = Layer(recorder, "observability.export", sampler.export)
    system.sampler, system.exporter = sampler, exporter
    stack.enter_context(observed(sampler))
    broker = ServiceBroker()
    _fleet(stack, system, recorder, CreditScoreService, broker, 3)
    gateway = _gateway(stack, system, recorder, broker, _credit_route())
    system.address = (gateway.server.host, gateway.server.port)
    return system


def _traced_cache(cache: ShardedCache, recorder: Optional[Recorder]) -> ShardedCache:
    if recorder is not None:
        for method in ("get", "put", "get_or_compute"):
            setattr(cache, method, Layer(recorder, "services.cache", getattr(cache, method)))
    return cache


def build_cache_mixed(stack, seed, recorder) -> System:
    system = System()
    cache = _traced_cache(ShardedCache("bench", capacity=CACHE_CAPACITY), recorder)
    system.caches.append(cache)
    broker = ServiceBroker()
    _fleet(stack, system, recorder, lambda: CacheService(cache), broker, 2)
    route = GatewayRoute("/api/CacheService", "CacheService", permission="cache:rw")
    gateway = _gateway(stack, system, recorder, broker, route)
    system.address = (gateway.server.host, gateway.server.port)
    return system


def build_account_fig4(stack, seed, recorder) -> System:
    """The paper's Fig. 4 application calling CreditScore through the
    gateway's public ``/partner`` route, behind its own web server."""
    system = System()
    cache = _traced_cache(ShardedCache("credit"), recorder)
    system.caches.append(cache)
    broker = ServiceBroker()
    _fleet(stack, system, recorder, lambda: CreditScoreService(cache), broker, 3)
    gateway = _gateway(
        stack, system, recorder, broker, GatewayRoute("/partner/CreditScore", "CreditScore")
    )
    host, port = gateway.server.host, gateway.server.port
    if recorder is not None:
        http = TracedHttpClient(recorder, "transport.upstream", host, port)
        system.clients.append(http)
    else:
        http = HttpClient(host, port)
    stack.callback(http.close)
    credit = rest_proxy(http, "CreditScore", prefix="/partner", policy=ResiliencePolicy())

    store = AccountStore()
    for user_id, applicant, score in prefill_applicants(seed):
        store.add_account(user_id, applicant, score)
    provider = AccountProvider(store, credit.score)
    if recorder is not None:
        for method in ("apply", "create_password", "login"):
            setattr(provider, method, Layer(recorder, f"apps.{method}", getattr(provider, method)))
        provider.credit_score = Layer(recorder, "apps.credit_call", provider.credit_score)
        store.add_account = Layer(recorder, "apps.store_add", store.add_account)
        for method in ("set_password", "login"):
            setattr(
                provider.vault, method,
                Layer(recorder, "security.hash", getattr(provider.vault, method)),
            )
    server = stack.enter_context(HttpServer(build_web_app(provider)))
    if recorder is not None:
        server.handler = Entry(recorder, "web.page", server.handler)
    system.servers.append(server)
    system.address = (server.host, server.port)
    return system


BUILDERS = {
    "gateway_tiny": build_gateway_tiny,
    "gateway_observed": build_gateway_observed,
    "cache_mixed": build_cache_mixed,
    "account_fig4": build_account_fig4,
}


def main(argv: list[str]) -> None:
    """Serve the parent over standard input and (a duplicate of) standard output."""
    workload, seed, trace = argv
    replies = os.dup(1)
    os.dup2(2, 1)  # anything printed goes to standard error, not into the channel
    serve(Channel(0, replies), workload, int(seed), trace == "1")


def serve(conn: Channel, workload: str, seed: int, trace: bool) -> None:
    """Build, report ready, answer commands."""
    recorder = Recorder(first_id=1 << 40) if trace else None
    try:
        with contextlib.ExitStack() as stack:
            system = BUILDERS[workload](stack, seed, recorder)
            conn.send(("ready", system.address, system.token))
            _answer(conn, system, recorder)
    except EOFError:
        pass  # the parent went away: nobody to serve
    except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
        with contextlib.suppress(OSError):
            conn.send(("error", traceback.format_exc()))


def _answer(conn, system: System, recorder: Optional[Recorder]) -> None:
    profiler: Optional[SamplingProfiler] = None
    while True:
        command = conn.recv()
        if command == "cpu":
            conn.send(cpu_seconds())
        elif command == "begin":
            if recorder is not None:
                recorder.clear()
                profiler = SamplingProfiler(PROFILE_HZ).start()
            conn.send(cpu_seconds())
        elif command == "end":
            cpu = cpu_seconds()
            report: dict[str, Any] = {
                "cpu": cpu,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            if recorder is not None:
                stacks = profiler.stop().top(PROFILE_TOP + 1) if profiler else []
                profiler = None
                # this command loop is the benchmark's, not the system's
                top = [[s, n] for s, n in stacks if "sut.py:serve" not in s][:PROFILE_TOP]
                report.update(spans=recorder.spans, counters=system.counters(), profile=top)
            conn.send(report)
        elif command == "stop":
            return
        else:
            raise ValueError(f"unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
