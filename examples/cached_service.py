#!/usr/bin/env python
"""Caching-plane walkthrough: don't recompute what you already know.

The two levels of the caching plane in one script:

1. a ``CacheService`` (lock-striped shards over the hardened course
   cache) joins the catalogue like any other member — published in the
   broker, invokable over the in-process bus;
2. the directory's tf-idf search and the credit-score pull go
   **cache-aside** through the same engine: first call computes, the
   repeats hit, and a 16-thread stampede on one cold key runs the
   compute exactly once (singleflight);
3. on the wire, a ``conditional``-wrapped server answers matching
   ``If-None-Match`` with ``304 Not Modified`` — and the pooled
   ``HttpClient``'s validation cache turns that into a transparent hit:
   the caller sees the full 200, but zero body bytes crossed the wire;
4. the engine's books are served at ``/cache/stats``.
"""

import threading

from repro.core import ServiceBroker, ServiceBus
from repro.directory.search import ServiceSearchEngine
from repro.services import (
    CacheService,
    CreditScoreService,
    MortgageService,
    ShardedCache,
    cache_routes,
    publish_service,
)
from repro.transport import HttpClient, HttpResponse, HttpServer, conditional
from repro.web.app import compose_handlers


def main() -> None:
    # -- 1. caching as a catalogue service ------------------------------
    engine = ShardedCache("demo", shards=8, capacity=1024)
    bus, broker = ServiceBus(), ServiceBroker()
    endpoints = publish_service(CacheService(engine), broker, bus)
    address = endpoints["inproc"].address
    bus.call(address, "put", {"key": "motd", "value": "service-oriented!"})
    looked_up = bus.call(address, "get", {"key": "motd"})
    registered = broker.lookup("CacheService").contract.name
    print(f"catalogue member -> {registered}, get over bus: {looked_up['value']}")

    # -- 2. cache-aside hot paths ---------------------------------------
    search = ServiceSearchEngine(cache=engine)
    search.index(CreditScoreService().contract())
    search.index(MortgageService().contract())
    cold = search.search("credit score")
    hot = search.search("credit score")
    identical = [h.name for h in cold] == [h.name for h in hot]
    print(f"search hot == cold: {identical}")

    credit = CreditScoreService(cache=engine)
    computes = []
    gate = threading.Barrier(16)
    original = credit._compute_score

    def counting(ssn, income, marks):
        computes.append(1)
        return original(ssn, income, marks)

    credit._compute_score = counting

    def stampede():
        gate.wait()
        credit.score(ssn="123-45-6789", income=80_000.0)

    threads = [threading.Thread(target=stampede) for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(f"16-thread stampede -> {len(computes)} compute (singleflight)")

    # -- 3. conditional GET + the client validation cache ---------------
    def catalog(request):
        if request.path == "/cache/stats":
            return compose_handlers(dict(cache_routes(engine)), default=None)(request)
        return HttpResponse.text_response("the full catalogue document")

    with HttpServer(conditional(catalog)) as server:
        with HttpClient(server.host, server.port) as client:
            first = client.get("/catalog")
            second = client.get("/catalog")  # rides If-None-Match -> 304
            stats = client.validation_stats()
            same = first.body == second.body
            print(
                f"revalidated GET  -> {second.status}, body identical: {same}, "
                f"body bytes saved: {stats['bytes_saved']}"
            )

            # -- 4. the engine's books ----------------------------------
            books = client.get("/cache/stats")
            print(f"/cache/stats     -> {books.status}")

    totals = engine.stats()
    print(
        f"engine books     -> hits={totals['hits']} misses={totals['misses']} "
        f"hit_rate={totals['hit_rate']:.2f}"
    )
    print("done: computed once, served many")


if __name__ == "__main__":
    main()
