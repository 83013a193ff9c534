"""Caching as a Service: a sharded in-process cache in the catalogue.

The paper's ASU repository ships a *caching service* alongside the
directory and workflow services; this module is that member.  Three
layers, mirroring :mod:`.monitor` and :mod:`.tracestore`:

* :class:`ShardedCache` — the engine: N lock-striped shards of the
  hardened :class:`~repro.web.caching.Cache` (TTL + LRU + dependencies
  + singleflight), keys routed by CRC-32, so concurrent readers on
  different keys contend on different locks.  Aggregate hit/miss/
  eviction/invalidation statistics roll up across shards, and every
  live instance exports ``repro_cache_*`` metric families through a
  scrape-time collector (same layering bridge as the transport pools).
* :class:`CacheService` — the :class:`~repro.core.service.Service`
  façade: ``put`` / ``get`` / ``invalidate`` / ``purge`` / ``stats``
  as contract operations, discoverable in the broker and invokable
  over the in-process bus, SOAP, or REST like any catalogue member.
* :func:`cache_routes` — the HTTP plane (``GET /cache/stats``,
  gateway-frontable).  The service joins the broker through
  :func:`~repro.services.catalog.publish_service`.

Hot paths use the engine **cache-aside**: the directory's tf-idf
search, the commerce credit score, and the REST contract documents all
take an optional ``ShardedCache`` and call
:meth:`ShardedCache.get_or_compute` around their compute.
"""

from __future__ import annotations

import threading
import weakref
import zlib
from typing import Any, Callable, Iterable, Optional

from ..core.faults import ServiceFault
from ..core.service import Service, operation
from ..observability.metrics import MetricFamily
from ..web.caching import Cache

__all__ = [
    "ShardedCache",
    "CacheService",
    "cache_metric_families",
    "cache_routes",
]

#: Live engines, for the scrape-time ``repro_cache_*`` collector.
_LIVE_CACHES: "weakref.WeakSet[ShardedCache]" = weakref.WeakSet()
_LIVE_CACHES_LOCK = threading.Lock()


class ShardedCache:
    """Lock-striped cache: CRC-32 key routing over N independent shards.

    Each shard is a full :class:`~repro.web.caching.Cache` with its own
    lock, so a stampede on one key (absorbed by that shard's
    singleflight) never blocks readers of other shards.  ``capacity``
    is the *total* bound, divided evenly across shards.  Dependency
    cascades stay within a shard — co-locate dependent keys by using a
    common prefix only if they hash together; cross-shard dependencies
    are not supported (the course's cache-aside paths don't need them).

    ``name`` labels the engine's ``repro_cache_*`` metric series.
    """

    def __init__(
        self,
        name: str = "cache",
        *,
        shards: int = 8,
        capacity: int = 1024,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if capacity < shards:
            raise ValueError("capacity must be >= shards")
        self.name = str(name) or "cache"
        per_shard = capacity // shards
        kwargs: dict[str, Any] = {} if clock is None else {"clock": clock}
        self._shards = tuple(
            Cache(capacity=per_shard, **kwargs) for _ in range(shards)
        )
        with _LIVE_CACHES_LOCK:
            _LIVE_CACHES.add(self)

    def shard_of(self, key: str) -> Cache:
        """The shard owning ``key`` (stable CRC-32 routing)."""
        index = zlib.crc32(key.encode("utf-8")) % len(self._shards)
        return self._shards[index]

    @property
    def shards(self) -> int:
        return len(self._shards)

    # -- the Cache surface, routed ---------------------------------------
    def put(
        self,
        key: str,
        value: Any,
        *,
        absolute_seconds: Optional[float] = None,
        sliding_seconds: Optional[float] = None,
        depends_on: Iterable[str] = (),
    ) -> None:
        self.shard_of(key).put(
            key,
            value,
            absolute_seconds=absolute_seconds,
            sliding_seconds=sliding_seconds,
            depends_on=depends_on,
        )

    def get(self, key: str, default: Any = None) -> Any:
        return self.shard_of(key).get(key, default)

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], Any],
        **put_options: Any,
    ) -> Any:
        """Cache-aside read; the owning shard's singleflight applies."""
        return self.shard_of(key).get_or_compute(key, compute, **put_options)

    def remove(self, key: str) -> None:
        self.shard_of(key).remove(key)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def __contains__(self, key: str) -> bool:
        return key in self.shard_of(key)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    # -- accounting ------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Aggregate statistics rolled up across every shard."""
        hits = misses = evictions = invalidations = 0
        for shard in self._shards:
            hits += shard.stats.hits
            misses += shard.stats.misses
            evictions += shard.stats.evictions
            invalidations += shard.stats.invalidations
        total = hits + misses
        return {
            "name": self.name,
            "shards": len(self._shards),
            "entries": len(self),
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else 0.0,
            "evictions": evictions,
            "invalidations": invalidations,
        }


def cache_metric_families() -> list[MetricFamily]:
    """``repro_cache_*`` families over every live :class:`ShardedCache`.

    Aggregated per engine ``name`` (two engines sharing a name sum).
    The global registry reaches these through a collector in
    :mod:`repro.observability.runtime` — observability never imports
    the services layer; it reads this module only when already loaded.
    """
    with _LIVE_CACHES_LOCK:
        caches = list(_LIVE_CACHES)
    requests: dict[tuple[str, ...], float] = {}
    evictions: dict[tuple[str, ...], float] = {}
    invalidations: dict[tuple[str, ...], float] = {}
    entries: dict[tuple[str, ...], float] = {}
    for cache in caches:
        stats = cache.stats()
        name = stats["name"]
        for outcome in ("hit", "miss"):
            key = (name, outcome)
            count = stats["hits"] if outcome == "hit" else stats["misses"]
            requests[key] = requests.get(key, 0.0) + count
        evictions[(name,)] = evictions.get((name,), 0.0) + stats["evictions"]
        invalidations[(name,)] = (
            invalidations.get((name,), 0.0) + stats["invalidations"]
        )
        entries[(name,)] = entries.get((name,), 0.0) + stats["entries"]
    return [
        MetricFamily(
            "repro_cache_requests_total",
            "counter",
            "Sharded-cache lookups, by cache name and hit/miss outcome.",
            ("cache", "outcome"),
            requests,
        ),
        MetricFamily(
            "repro_cache_evictions_total",
            "counter",
            "Entries evicted by the LRU capacity bound, by cache name.",
            ("cache",),
            evictions,
        ),
        MetricFamily(
            "repro_cache_invalidations_total",
            "counter",
            "Entries invalidated (remove + dependency cascades), by cache.",
            ("cache",),
            invalidations,
        ),
        MetricFamily(
            "repro_cache_entries",
            "gauge",
            "Entries currently cached, by cache name.",
            ("cache",),
            entries,
        ),
    ]


class CacheService(Service):
    """The sharded cache offered *as a service*, catalogue-style.

    Values cross the contract boundary as JSON-compatible data (the
    SOAP/REST bindings serialize them); in-process callers can hold the
    engine directly and cache arbitrary objects cache-aside.
    """

    service_name = "CacheService"
    category = "infrastructure"

    def __init__(self, cache: Optional[ShardedCache] = None) -> None:
        # explicit None-check: an *empty* engine is falsy (len() == 0)
        self.cache = cache if cache is not None else ShardedCache("service")

    @operation
    def put(
        self,
        key: str,
        value: Any,
        ttl_seconds: float = 0.0,
        depends_on: list = [],
    ) -> dict:
        """Store a value; ``ttl_seconds > 0`` sets absolute expiry."""
        key = _require_key(key)
        self.cache.put(
            key,
            value,
            absolute_seconds=float(ttl_seconds) or None,
            depends_on=tuple(str(dep) for dep in depends_on),
        )
        return {"stored": key, "entries": len(self.cache)}

    @operation(idempotent=True)
    def get(self, key: str) -> dict:
        """Look a key up; ``found`` disambiguates a cached ``None``."""
        key = _require_key(key)
        sentinel = object()
        value = self.cache.get(key, sentinel)
        if value is sentinel:
            return {"key": key, "found": False, "value": None}
        return {"key": key, "found": True, "value": value}

    @operation
    def invalidate(self, key: str) -> dict:
        """Remove a key (and everything depending on it)."""
        key = _require_key(key)
        self.cache.remove(key)
        return {"invalidated": key, "entries": len(self.cache)}

    @operation
    def purge(self) -> dict:
        """Drop every entry in every shard."""
        self.cache.clear()
        return {"entries": 0}

    @operation(idempotent=True)
    def stats(self) -> dict:
        """Aggregate hit/miss/eviction/invalidation statistics."""
        return self.cache.stats()


def _require_key(key: str) -> str:
    key = str(key)
    if not key:
        raise ServiceFault("cache key must be non-empty", code="Client.BadInput")
    return key


def cache_routes(cache: ShardedCache) -> dict[str, Callable[[Any], Any]]:
    """The HTTP plane: ``GET /cache/stats`` for dashboards and the gateway.

    Returns ``{path: handler}`` for
    :func:`repro.web.app.compose_handlers`.
    """
    from ..transport.http11 import HttpResponse  # lazy: layering

    def stats_handler(request):
        if request.method != "GET":
            return HttpResponse.error(405, "GET only")
        return HttpResponse.json_response(cache.stats())

    return {"/cache/stats": stats_handler}

