"""The conditional-GET matrix: RFC 7232 validators end to end.

Covers the comparison rules (strong vs weak, ``*``, multi-etag
headers), the :func:`~repro.transport.conditional.conditional`
middleware (including HEAD + 304), the client's transparent validation
cache, and the cache-aside directory search.
"""

import socket

import pytest

from repro.directory.search import ServiceSearchEngine
from repro.observability import OBS, MetricsRegistry
from repro.observability.runtime import Instruments
from repro.services import CreditScoreService, MortgageService, ShardedCache
from repro.transport import (
    HttpClient,
    HttpResponse,
    HttpServer,
    compute_etag,
    conditional,
    etag_matches,
    http_date,
    if_none_match,
    not_modified,
    parse_etag_list,
    parse_http_date,
)
from repro.transport.http11 import HttpRequest


class TestEtagComparison:
    def test_strong_compare_requires_both_strong(self):
        assert etag_matches('"a"', '"a"', weak=False)
        assert not etag_matches('W/"a"', '"a"', weak=False)
        assert not etag_matches('"a"', 'W/"a"', weak=False)
        assert not etag_matches('W/"a"', 'W/"a"', weak=False)

    def test_weak_compare_ignores_weakness(self):
        assert etag_matches('W/"a"', '"a"', weak=True)
        assert etag_matches('"a"', 'W/"a"', weak=True)
        assert etag_matches('W/"a"', 'W/"a"', weak=True)
        assert not etag_matches('W/"a"', '"b"', weak=True)

    def test_parse_etag_list(self):
        assert parse_etag_list('"a"') == ['"a"']
        assert parse_etag_list('"a", W/"b" , "c"') == ['"a"', 'W/"b"', '"c"']
        # a comma inside a quoted tag is part of the opaque value
        assert parse_etag_list('"a,b", "c"') == ['"a,b"', '"c"']

    def test_if_none_match_multiple_etags(self):
        assert if_none_match('"x", "y", "z"', '"y"')
        assert not if_none_match('"x", "z"', '"y"')
        # If-None-Match uses the weak comparison (RFC 7232 §3.2)
        assert if_none_match('W/"y"', '"y"')

    def test_if_none_match_star(self):
        assert if_none_match("*", '"anything"')
        assert not if_none_match("*", None)

    def test_compute_etag_is_strong_and_stable(self):
        one, two = compute_etag(b"body"), compute_etag(b"body")
        assert one == two
        assert one.startswith('"') and one.endswith('"')
        assert compute_etag(b"other") != one

    def test_http_date_round_trip(self):
        stamp = 1_600_000_000.0
        assert parse_http_date(http_date(stamp)) == stamp
        assert parse_http_date("not a date") is None


class TestConditionalMiddleware:
    def _handler(self, calls):
        def handler(request):
            calls.append(request.path)
            return HttpResponse.text_response("the representation")

        return conditional(handler)

    def test_tags_and_answers_304(self):
        calls = []
        handler = self._handler(calls)
        first = handler(HttpRequest("GET", "/doc"))
        etag = first.headers.get("ETag")
        assert first.status == 200 and etag
        second = handler(HttpRequest("GET", "/doc", {"If-None-Match": etag}))
        assert second.status == 304
        assert second.body == b""
        assert second.headers.get("ETag") == etag

    def test_stale_etag_gets_fresh_200(self):
        handler = self._handler([])
        response = handler(
            HttpRequest("GET", "/doc", {"If-None-Match": '"stale"'})
        )
        assert response.status == 200
        assert response.body == b"the representation"

    def test_if_none_match_star_matches_any(self):
        handler = self._handler([])
        assert handler(HttpRequest("GET", "/doc", {"If-None-Match": "*"})).status == 304

    def test_weak_etag_from_client_still_matches(self):
        handler = self._handler([])
        etag = handler(HttpRequest("GET", "/doc")).headers.get("ETag")
        weak = "W/" + etag
        assert handler(
            HttpRequest("GET", "/doc", {"If-None-Match": weak})
        ).status == 304

    def test_head_plus_304(self):
        """HEAD participates in validation exactly like GET: matching
        validators produce a 304, and neither ever carries body bytes."""
        handler = self._handler([])
        probe = handler(HttpRequest("HEAD", "/doc"))
        etag = probe.headers.get("ETag")
        assert probe.status == 200 and etag
        revalidated = handler(HttpRequest("HEAD", "/doc", {"If-None-Match": etag}))
        assert revalidated.status == 304
        assert revalidated.to_bytes().partition(b"\r\n\r\n")[2] == b""

    def test_if_modified_since(self):
        stamp = 1_600_000_000.0

        def handler(request):
            response = HttpResponse.text_response("dated")
            response.headers.set("Last-Modified", http_date(stamp))
            return response

        wrapped = conditional(handler)
        not_newer = wrapped(
            HttpRequest("GET", "/doc", {"If-Modified-Since": http_date(stamp)})
        )
        assert not_newer.status == 304
        newer = wrapped(
            HttpRequest(
                "GET", "/doc", {"If-Modified-Since": http_date(stamp - 3600)}
            )
        )
        assert newer.status == 200

    def test_etags_rank_over_dates(self):
        """A request carrying If-None-Match ignores If-Modified-Since."""
        stamp = 1_600_000_000.0

        def handler(request):
            response = HttpResponse.text_response("dated")
            response.headers.set("Last-Modified", http_date(stamp))
            return response

        wrapped = conditional(handler)
        response = wrapped(
            HttpRequest(
                "GET",
                "/doc",
                {
                    "If-None-Match": '"stale"',
                    "If-Modified-Since": http_date(stamp),
                },
            )
        )
        assert response.status == 200  # the etag mismatch wins

    def test_non_get_passes_through(self):
        wrapped = conditional(lambda request: HttpResponse.text_response("ok"))
        response = wrapped(HttpRequest("POST", "/doc", {"If-None-Match": "*"}))
        assert response.status == 200

    def test_not_modified_carries_caching_headers(self):
        response = HttpResponse.text_response("x")
        response.headers.set("ETag", '"e"')
        response.headers.set("Cache-Control", "max-age=60")
        response.headers.set("Content-Type", "text/plain")
        stripped = not_modified(response)
        assert stripped.status == 304
        assert stripped.headers.get("ETag") == '"e"'
        assert stripped.headers.get("Cache-Control") == "max-age=60"
        assert stripped.headers.get("Content-Type") is None


class TestClientValidationCache:
    def test_revalidation_serves_stored_body(self):
        """Second GET rides If-None-Match, gets a wire-level 304, and the
        caller still sees the full 200 — body served from the client's
        validation cache, zero body bytes re-transferred."""
        calls = []

        def handler(request):
            calls.append(request.headers.get("If-None-Match"))
            return HttpResponse.text_response("expensive representation")

        with HttpServer(conditional(handler)) as srv:
            with HttpClient(srv.host, srv.port) as client:
                first = client.get("/doc")
                second = client.get("/doc")
                stats = client.validation_stats()
        assert first.status == 200 and second.status == 200
        assert second.body == first.body == b"expensive representation"
        assert calls[0] is None  # cold: no validator to send
        assert calls[1] == first.headers.get("ETag")  # injected validator
        assert stats["hits"] == 1
        assert stats["stores"] == 1
        assert stats["bytes_saved"] == len(first.body)

    def test_no_validation_events_counted_while_observability_is_off(
        self, monkeypatch
    ):
        instruments = Instruments(MetricsRegistry())
        monkeypatch.setattr(OBS, "instruments", instruments)
        monkeypatch.setattr(OBS, "enabled", False)
        with HttpServer(conditional(lambda r: HttpResponse.text_response("doc"))) as srv:
            with HttpClient(srv.host, srv.port) as client:
                client.get("/doc")
                assert client.get("/doc").status == 200  # a 304 revalidation
                assert client.validation_stats()["hits"] == 1
        counter = instruments.client_validation
        assert counter.value(outcome="revalidated") == 0
        assert counter.value(outcome="stored") == 0

    def test_changed_representation_restores(self):
        versions = [b"version one", b"version one", b"version two"]

        def handler(request):
            body = versions.pop(0)
            response = HttpResponse(200, body=body)
            response.headers.set("ETag", compute_etag(body))
            return response

        with HttpServer(conditional(handler)) as srv:
            with HttpClient(srv.host, srv.port) as client:
                assert client.get("/doc").body == b"version one"
                assert client.get("/doc").body == b"version one"  # 304 hit
                third = client.get("/doc")
                assert third.body == b"version two"  # etag changed: full 200
                stats = client.validation_stats()
        assert stats["hits"] == 1
        assert stats["stores"] == 2  # both distinct versions stored

    def test_untagged_responses_are_not_cached(self):
        with HttpServer(lambda r: HttpResponse.text_response("plain")) as srv:
            with HttpClient(srv.host, srv.port) as client:
                client.get("/doc")
                client.get("/doc")
                assert client.validation_stats() == {
                    "entries": 0, "hits": 0, "stores": 0, "bytes_saved": 0,
                }

    def test_caller_conditional_requests_pass_through_raw(self):
        """A caller sending its own If-None-Match gets the raw 304 —
        the client must not resolve a condition it didn't pose."""
        with HttpServer(
            conditional(lambda r: HttpResponse.text_response("body"))
        ) as srv:
            with HttpClient(srv.host, srv.port) as client:
                etag = client.get("/doc").headers.get("ETag")
                raw = client.get("/doc", headers={"If-None-Match": etag})
                assert raw.status == 304
                assert raw.body == b""

    def test_lru_bound_evicts_oldest(self):
        def handler(request):
            return conditional(
                lambda r: HttpResponse.text_response("x" * 10)
            )(request)

        with HttpServer(handler) as srv:
            with HttpClient(srv.host, srv.port, validation_cache=2) as client:
                for path in ("/a", "/b", "/c"):
                    client.get(path)
                assert client.validation_stats()["entries"] == 2
                # /a was evicted: re-GET is a fresh store, not a hit
                client.get("/a")
                assert client.validation_stats()["hits"] == 0

    def test_disabled_cache_never_injects(self):
        calls = []

        def handler(request):
            calls.append(request.headers.get("If-None-Match"))
            return conditional(
                lambda r: HttpResponse.text_response("body")
            )(request)

        with HttpServer(handler) as srv:
            with HttpClient(srv.host, srv.port, validation_cache=0) as client:
                client.get("/doc")
                client.get("/doc")
        assert calls == [None, None]


class TestCacheAsideSearch:
    def _engine(self, cache=None):
        engine = ServiceSearchEngine(cache=cache)
        engine.index(CreditScoreService().contract())
        engine.index(MortgageService().contract())
        return engine

    def test_hot_and_cold_results_identical(self):
        cache = ShardedCache("search", capacity=64)
        engine = self._engine(cache)
        plain = self._engine()
        cold = engine.search("credit score")
        hot = engine.search("credit score")
        uncached = plain.search("credit score")
        assert [(h.name, h.score) for h in cold] == [
            (h.name, h.score) for h in hot
        ] == [(h.name, h.score) for h in uncached]
        assert cache.stats()["hits"] == 1

    def test_index_mutation_invalidates_by_generation(self):
        cache = ShardedCache("search", capacity=64)
        engine = self._engine(cache)
        before = engine.search("score")
        engine.remove("Mortgage")
        after = engine.search("score")
        assert {hit.name for hit in before} >= {hit.name for hit in after}
        assert all(hit.name != "Mortgage" for hit in after)

    def test_limit_is_part_of_the_key(self):
        cache = ShardedCache("search", capacity=64)
        engine = self._engine(cache)
        assert len(engine.search("service score mortgage", limit=1)) <= 1
        wide = engine.search("service score mortgage", limit=10)
        assert len(wide) >= 1
