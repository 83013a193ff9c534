"""The caching plane's service layer: sharded engine, contract façade,
HTTP routes, broker wiring, gateway front, and the ``repro_cache_*``
metric families.
"""

import json
import threading

import pytest

from repro.core.broker import ServiceBroker
from repro.core.bus import ServiceBus
from repro.core.faults import ServiceFault
from repro.gateway import Gateway, RateLimiter, RateLimitPolicy, SecurityPolicy
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.services import CreditScoreService, publish_service
from repro.services.cache_service import (
    CacheService,
    ShardedCache,
    cache_metric_families,
    cache_routes,
)
from repro.transport.http11 import HttpRequest
from repro.transport.httpserver import HttpServer, serve_once
from repro.web.app import compose_handlers

PASSWORD = "Correct-Horse-7"


class TestShardedCache:
    def test_round_trip_across_shards(self):
        cache = ShardedCache("t", shards=4, capacity=64)
        for index in range(32):
            cache.put(f"key-{index}", index)
        assert len(cache) == 32
        assert all(cache.get(f"key-{index}") == index for index in range(32))
        assert "key-3" in cache and "missing" not in cache

    def test_routing_is_stable(self):
        cache = ShardedCache("t", shards=8, capacity=64)
        assert cache.shard_of("k") is cache.shard_of("k")
        assert cache.shards == 8

    def test_keys_spread_over_shards(self):
        cache = ShardedCache("t", shards=8, capacity=512)
        owners = {id(cache.shard_of(f"key-{index}")) for index in range(64)}
        assert len(owners) > 1  # CRC-32 actually stripes

    def test_capacity_divides_across_shards(self):
        cache = ShardedCache("t", shards=2, capacity=4)
        for index in range(10):
            cache.put(f"key-{index}", index)
        assert len(cache) <= 4
        assert cache.stats()["evictions"] >= 6

    def test_aggregate_stats_roll_up(self):
        cache = ShardedCache("t", shards=4, capacity=64)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["name"] == "t" and stats["shards"] == 4

    def test_get_or_compute_singleflight_per_shard(self):
        cache = ShardedCache("t", shards=4, capacity=64)
        computes = []
        gate = threading.Barrier(8)

        def stampede():
            gate.wait()
            cache.get_or_compute("hot", lambda: computes.append(1) or "v")

        threads = [threading.Thread(target=stampede) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(computes) == 1

    def test_remove_and_clear(self):
        cache = ShardedCache("t", shards=2, capacity=16)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.remove("a")
        assert cache.get("a") is None and cache.get("b") == 2
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ShardedCache("t", shards=0)
        with pytest.raises(ValueError):
            ShardedCache("t", shards=8, capacity=4)


class TestCacheMetricFamilies:
    def test_families_cover_live_engines(self):
        cache = ShardedCache("metrics-probe", capacity=32)
        cache.put("a", 1)
        cache.get("a")
        cache.get("miss")
        cache.remove("a")
        families = {family.name: family for family in cache_metric_families()}
        assert set(families) == {
            "repro_cache_requests_total",
            "repro_cache_evictions_total",
            "repro_cache_invalidations_total",
            "repro_cache_entries",
        }
        requests = families["repro_cache_requests_total"].samples
        assert requests[("metrics-probe", "hit")] == 1
        assert requests[("metrics-probe", "miss")] == 1
        invalidations = families["repro_cache_invalidations_total"].samples
        assert invalidations[("metrics-probe",)] == 1

    def test_global_registry_scrapes_the_bridge(self):
        from repro.observability.runtime import OBS

        cache = ShardedCache("bridge-probe", capacity=32)
        cache.put("a", 1)
        cache.get("a")
        families = {family.name: family for family in OBS.registry.collect()}
        samples = families["repro_cache_requests_total"].samples
        assert samples.get(("bridge-probe", "hit")) == 1


class TestCacheServiceFacade:
    def test_put_get_invalidate_stats(self):
        service = CacheService()
        service.put(key="k", value={"nested": [1, 2]})
        found = service.get(key="k")
        assert found == {"key": "k", "found": True, "value": {"nested": [1, 2]}}
        assert service.get(key="nope")["found"] is False
        service.invalidate(key="k")
        assert service.get(key="k")["found"] is False
        stats = service.stats()
        assert stats["hits"] == 1 and stats["misses"] >= 2

    def test_found_flag_disambiguates_cached_none(self):
        service = CacheService()
        service.put(key="null", value=None)
        result = service.get(key="null")
        assert result["found"] is True and result["value"] is None

    def test_ttl_and_purge(self):
        service = CacheService()
        service.put(key="k", value="v", ttl_seconds=60.0)
        assert service.get(key="k")["found"] is True
        assert service.purge() == {"entries": 0}
        assert service.get(key="k")["found"] is False

    def test_empty_key_is_a_client_fault(self):
        service = CacheService()
        with pytest.raises(ServiceFault):
            service.put(key="", value="v")
        with pytest.raises(ServiceFault):
            service.get(key="")

    def test_published_and_invokable_like_any_service(self):
        bus = ServiceBus()
        broker = ServiceBroker()
        service = CacheService()
        endpoints = publish_service(service, broker, bus)
        assert "inproc" in endpoints
        registration = broker.lookup("CacheService")
        assert registration.contract.name == "CacheService"

        address = endpoints["inproc"].address
        bus.call(address, "put", {"key": "k", "value": "over-the-bus"})
        result = bus.call(address, "get", {"key": "k"})
        assert result["found"] is True and result["value"] == "over-the-bus"
        stats = bus.call(address, "stats", {})
        assert stats["entries"] == 1


class TestCacheRoutes:
    def test_stats_route_serves_json(self):
        cache = ShardedCache("routed", capacity=32)
        cache.put("a", 1)
        cache.get("a")
        handler = compose_handlers(dict(cache_routes(cache)), default=None)
        response = serve_once(handler, HttpRequest("GET", "/cache/stats"))
        assert response.status == 200
        document = json.loads(response.text())
        assert document["name"] == "routed" and document["hits"] == 1

    def test_stats_route_is_get_only(self):
        handler = compose_handlers(
            dict(cache_routes(ShardedCache("routed", capacity=32))), default=None
        )
        assert serve_once(
            handler, HttpRequest("POST", "/cache/stats", {}, b"")
        ).status == 405


def make_gateway():
    vault = PasswordVault()
    vault.set_password("ada", PASSWORD, PASSWORD)
    access = AccessControl()
    access.define_role("caller", ["echo:call"])
    access.assign_role("ada", "caller")
    return Gateway(
        ServiceBroker(),
        [],
        security=SecurityPolicy(TokenIssuer(), access, vault),
        limiter=RateLimiter(
            RateLimitPolicy(rate=1000.0, burst=1000.0),
            anonymous=RateLimitPolicy(rate=1000.0, burst=1000.0),
        ),
    )


def issue_token(gateway):
    body = f"user=ada&password={PASSWORD}".encode()
    response = gateway(HttpRequest("POST", "/auth/token", {}, body))
    assert response.status == 200, response.text()
    return json.loads(response.text())["token"]


class TestGatewayFront:
    def test_cache_stats_through_the_gateway(self):
        cache = ShardedCache("fronted", capacity=32)
        cache.put("a", 1)
        handler = compose_handlers(dict(cache_routes(cache)), default=None)
        with HttpServer(handler) as server:
            gateway = make_gateway()
            try:
                gateway.attach_cache(server.host, server.port)
                token = issue_token(gateway)
                response = gateway(
                    HttpRequest(
                        "GET",
                        "/cache/stats",
                        {"Authorization": f"Bearer {token}"},
                    )
                )
                assert response.status == 200
                assert json.loads(response.text())["name"] == "fronted"
            finally:
                gateway.close()

    def test_anonymous_is_challenged(self):
        gateway = make_gateway()
        try:
            assert gateway(HttpRequest("GET", "/cache/stats")).status == 401
        finally:
            gateway.close()

    def test_unattached_is_503_and_counted(self):
        gateway = make_gateway()
        try:
            token = issue_token(gateway)
            response = gateway(
                HttpRequest(
                    "GET", "/cache/stats", {"Authorization": f"Bearer {token}"}
                )
            )
            assert response.status == 503
            families = {f.name: f for f in gateway.registry.collect()}
            rejected = families["repro_gateway_rejected_total"].samples
            assert rejected.get(("no_cache_node",), 0) >= 1
        finally:
            gateway.close()

    def test_dead_node_maps_to_502(self):
        gateway = make_gateway()
        try:
            with HttpServer(lambda r: None) as doomed:
                host, port = doomed.host, doomed.port
            gateway.attach_cache(host, port)  # server already stopped
            token = issue_token(gateway)
            response = gateway(
                HttpRequest(
                    "GET", "/cache/stats", {"Authorization": f"Bearer {token}"}
                )
            )
            assert response.status == 502
        finally:
            gateway.close()


class TestCreditScoreCacheAside:
    def test_cached_scores_match_uncached(self):
        cache = ShardedCache("scores", capacity=64)
        cached = CreditScoreService(cache=cache)
        plain = CreditScoreService()
        ssn = "123-45-6789"
        assert cached.score(ssn=ssn, income=80_000.0) == plain.score(
            ssn=ssn, income=80_000.0
        )
        assert cached.score(ssn=ssn, income=80_000.0) == plain.score(
            ssn=ssn, income=80_000.0
        )
        assert cache.stats()["hits"] == 1

    def test_distinct_inputs_do_not_collide(self):
        cache = ShardedCache("scores", capacity=64)
        service = CreditScoreService(cache=cache)
        low = service.score(ssn="123-45-6789", income=0.0)
        high = service.score(ssn="123-45-6789", income=200_000.0)
        assert high >= low

    def test_bad_ssn_still_faults_and_is_not_cached(self):
        cache = ShardedCache("scores", capacity=64)
        service = CreditScoreService(cache=cache)
        with pytest.raises(ServiceFault):
            service.score(ssn="bogus")
        assert len(cache) == 0
