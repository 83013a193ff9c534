"""Tests for the web graph, crawler, search engine, and registration."""

import pytest

from repro.core import Operation, Parameter, ServiceContract
from repro.directory import (
    Page,
    RegistrationDesk,
    RegistrationError,
    ServiceCrawler,
    ServiceSearchEngine,
    WebGraph,
    registration_routes,
    synthetic_service_web,
)
from repro.transport import HttpRequest, serve_once
from repro.transport.wsdl import contract_to_xml
from repro.xmlkit import parse


def make_contract(name, docs, category="general", ops=(("run", "str"),)):
    contract = ServiceContract(name, documentation=docs, category=category)
    for op_name, returns in ops:
        contract.add(Operation(op_name, (Parameter("x", "str"),), returns=returns))
    return contract


class TestWebGraph:
    def test_fetch_counts(self):
        graph = WebGraph()
        graph.add(Page("http://a/x", "hi"))
        assert graph.fetch("http://a/x").content == "hi"
        assert graph.fetch("http://a/dead") is None
        assert graph.fetches == 2

    def test_synthetic_web_deterministic(self):
        a = synthetic_service_web(providers=4, seed=3)
        b = synthetic_service_web(providers=4, seed=3)
        assert a[0].urls() == b[0].urls()
        assert a[2] == b[2]

    def test_synthetic_web_validation(self):
        with pytest.raises(ValueError):
            synthetic_service_web(providers=0)

    def test_dead_link_rate_zero_plants_all(self):
        graph, seeds, planted = synthetic_service_web(
            providers=3, services_per_provider=3, dead_link_rate=0.0, seed=1
        )
        assert planted == 9


class TestCrawler:
    def test_harvests_reachable_contracts(self):
        graph, seeds, planted = synthetic_service_web(
            providers=4, services_per_provider=3, dead_link_rate=0.0, seed=7
        )
        report = ServiceCrawler(graph).crawl(seeds)
        assert len(report.contracts_found) > 0
        assert len(report.contracts_found) <= planted
        assert report.dead_links == 0

    def test_counts_dead_links(self):
        graph = WebGraph()
        graph.add(Page("http://a/i", "x", links=["http://a/dead", "http://a/live"]))
        graph.add(Page("http://a/live", "y"))
        report = ServiceCrawler(graph).crawl(["http://a/i"])
        assert report.dead_links == 1
        assert report.pages_fetched == 3

    def test_max_pages_cap(self):
        graph, seeds, _ = synthetic_service_web(providers=6, seed=2)
        report = ServiceCrawler(graph, max_pages=5).crawl(seeds)
        assert report.pages_fetched == 5

    def test_per_domain_budget(self):
        graph, seeds, _ = synthetic_service_web(
            providers=2, services_per_provider=5, dead_link_rate=0.0, seed=4
        )
        report = ServiceCrawler(graph, per_domain_budget=3).crawl(seeds)
        assert report.skipped_by_budget > 0
        from collections import Counter

        domains = Counter(url.split("/")[2] for url in report.visited)
        assert max(domains.values()) <= 3

    def test_no_url_fetched_twice(self):
        graph, seeds, _ = synthetic_service_web(providers=3, seed=5)
        report = ServiceCrawler(graph).crawl(seeds)
        assert report.pages_fetched == graph.fetches

    def test_malformed_contract_skipped(self):
        graph = WebGraph()
        graph.add(
            Page("http://a/i", "x", links=["http://a/bad.xml"])
        )
        graph.add(Page("http://a/bad.xml", "<notacontract/>", content_type="application/xml"))
        report = ServiceCrawler(graph).crawl(["http://a/i"])
        assert report.contracts_found == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceCrawler(WebGraph(), max_pages=0)


class TestSearchEngine:
    @pytest.fixture
    def engine(self):
        engine = ServiceSearchEngine()
        engine.index(make_contract("WeatherNow", "weather forecast temperature", "weather"))
        engine.index(make_contract("CurrencyX", "currency exchange rates finance", "finance"))
        engine.index(make_contract("StockTicker", "stock quote price finance", "finance"))
        return engine

    def test_relevant_ranking(self, engine):
        hits = engine.search("weather forecast")
        assert hits[0].name == "WeatherNow"

    def test_shared_term_ranks_both(self, engine):
        names = [hit.name for hit in engine.search("finance")]
        assert set(names) == {"CurrencyX", "StockTicker"}

    def test_name_tokens_boosted(self, engine):
        engine.index(make_contract("Forecast", "generic service", "misc"))
        hits = engine.search("forecast")
        assert hits[0].name in ("Forecast", "WeatherNow")

    def test_camel_case_split(self, engine):
        assert any(h.name == "StockTicker" for h in engine.search("ticker"))

    def test_no_hits(self, engine):
        assert engine.search("quantum blockchain") == []
        assert engine.search("") == []

    def test_empty_engine(self):
        assert ServiceSearchEngine().search("x") == []

    def test_reindex_replaces(self, engine):
        engine.index(make_contract("WeatherNow", "maritime tides", "weather"))
        assert engine.search("temperature") == [] or all(
            h.name != "WeatherNow" for h in engine.search("temperature")
        )
        assert any(h.name == "WeatherNow" for h in engine.search("tides"))

    def test_remove(self, engine):
        engine.remove("WeatherNow")
        assert "WeatherNow" not in engine
        assert all(h.name != "WeatherNow" for h in engine.search("weather"))
        assert len(engine) == 2

    def test_limit(self, engine):
        assert len(engine.search("finance", limit=1)) == 1

    def test_categories(self, engine):
        assert engine.categories() == {"weather": 1, "finance": 2}
        assert [c.name for c in engine.by_category("finance")] == ["CurrencyX", "StockTicker"]

    def test_stopwords_ignored(self, engine):
        assert engine.search("the and of") == []


class TestRegistration:
    @pytest.fixture
    def desk(self):
        return RegistrationDesk(ServiceSearchEngine())

    def test_register_and_search(self, desk):
        xml = contract_to_xml(make_contract("PdfMaker", "pdf rendering documents"))
        contract = desk.register_xml(xml, submitter="ada")
        assert contract.name == "PdfMaker"
        assert len(desk) == 1
        assert desk.engine.search("pdf")[0].name == "PdfMaker"
        assert desk.listing() == [("PdfMaker", "ada")]

    def test_duplicate_rejected(self, desk):
        xml = contract_to_xml(make_contract("X", "docs"))
        desk.register_xml(xml)
        with pytest.raises(RegistrationError, match="already"):
            desk.register_xml(xml)
        assert desk.rejected == 1

    def test_invalid_document_rejected(self, desk):
        with pytest.raises(RegistrationError, match="invalid"):
            desk.register_xml("<garbage")
        with pytest.raises(RegistrationError, match="invalid"):
            desk.register_xml("<notacontract/>")

    def test_empty_contract_rejected(self, desk):
        xml = contract_to_xml(ServiceContract("Empty", documentation="nothing"))
        with pytest.raises(RegistrationError, match="no operations"):
            desk.register_xml(xml)

    def test_endpoint_verification(self):
        graph = WebGraph()
        graph.add(Page("http://live/svc", "ok"))
        desk = RegistrationDesk(ServiceSearchEngine(), verify_against=graph)
        xml = contract_to_xml(make_contract("Live", "docs"))
        desk.register_xml(xml, endpoint_url="http://live/svc")
        xml2 = contract_to_xml(make_contract("Dead", "docs"))
        with pytest.raises(RegistrationError, match="not reachable"):
            desk.register_xml(xml2, endpoint_url="http://dead/svc")

    def test_unregister(self, desk):
        desk.register_xml(contract_to_xml(make_contract("X", "docs")))
        desk.unregister("X")
        assert len(desk) == 0
        with pytest.raises(RegistrationError):
            desk.unregister("X")


class TestRegistrationWebFrontend:
    @pytest.fixture
    def router(self):
        return registration_routes(RegistrationDesk(ServiceSearchEngine()))

    def test_register_via_http(self, router):
        xml = contract_to_xml(make_contract("HttpSvc", "registered over http"))
        response = serve_once(
            router,
            HttpRequest(
                "POST", "/sse/register?submitter=bob", {"Content-Type": "application/xml"},
                xml.encode(),
            ),
        )
        assert response.status == 201
        listing = serve_once(router, HttpRequest("GET", "/sse/list"))
        root = parse(listing.text())
        assert root.find("service")["name"] == "HttpSvc"

    def test_search_via_http(self, router):
        xml = contract_to_xml(make_contract("GeoSvc", "geocoding address lookup"))
        serve_once(
            router,
            HttpRequest("POST", "/sse/register", {"Content-Type": "application/xml"}, xml.encode()),
        )
        response = serve_once(router, HttpRequest("GET", "/sse/search?q=geocoding"))
        root = parse(response.text())
        assert root.find("hit")["name"] == "GeoSvc"

    def test_bad_registration_http_400(self, router):
        response = serve_once(
            router,
            HttpRequest("POST", "/sse/register", {"Content-Type": "application/xml"}, b"<bad"),
        )
        assert response.status == 400

    def test_contract_fetch(self, router):
        xml = contract_to_xml(make_contract("FetchMe", "docs"))
        serve_once(
            router,
            HttpRequest("POST", "/sse/register", {"Content-Type": "application/xml"}, xml.encode()),
        )
        response = serve_once(router, HttpRequest("GET", "/sse/contract/FetchMe"))
        assert parse(response.text()).get("name") == "FetchMe"
        missing = serve_once(router, HttpRequest("GET", "/sse/contract/Ghost"))
        assert missing.status == 404


class FlakyGraph(WebGraph):
    """A web graph where chosen URLs are dead for their first N fetches."""

    def __init__(self, flaky: dict):
        super().__init__()
        self._remaining_failures = dict(flaky)

    def fetch(self, url):
        left = self._remaining_failures.get(url, 0)
        if left > 0:
            self._remaining_failures[url] = left - 1
            self.fetches += 1
            return None
        return super().fetch(url)


class TestCrawlerRetry:
    """Satellite: dead fetches retried under a shared retry budget."""

    def test_retry_recovers_transient_dead_link(self):
        graph = FlakyGraph({"http://a/svc": 1})
        graph.add(Page("http://a/i", "x", links=["http://a/svc"]))
        graph.add(Page("http://a/svc", "y"))
        report = ServiceCrawler(graph, fetch_attempts=2).crawl(["http://a/i"])
        assert report.dead_links == 0
        assert report.retries == 1
        assert "http://a/svc" in report.visited
        assert report.pages_fetched == graph.fetches  # invariant kept

    def test_permanently_dead_link_still_counted(self):
        graph = WebGraph()
        graph.add(Page("http://a/i", "x", links=["http://a/dead"]))
        report = ServiceCrawler(graph, fetch_attempts=3).crawl(["http://a/i"])
        assert report.dead_links == 1
        assert report.retries == 2  # 3 attempts total on the dead URL

    def test_budget_caps_retry_amplification(self):
        from repro.resilience import RetryBudget

        graph = WebGraph()
        graph.add(
            Page(
                "http://a/i",
                "x",
                links=["http://a/d1", "http://a/d2", "http://a/d3"],
            )
        )
        budget = RetryBudget(ratio=0.25, burst=2.0)
        report = ServiceCrawler(
            graph, fetch_attempts=2, retry_budget=budget
        ).crawl(["http://a/i"])
        # 4 first attempts deposit 4*0.25 = 1 token over the starting 2
        # (capped at burst); only 2 retries fit before the bucket is dry.
        assert report.retries == 2
        assert report.retries_denied == 1
        assert report.dead_links == 3

    def test_retries_stop_at_the_page_cap(self):
        report = ServiceCrawler(
            WebGraph(), max_pages=1, fetch_attempts=3
        ).crawl(["http://dead/x"])
        assert report.pages_fetched == 1
        assert report.retries == 0
        assert report.dead_links == 1
        report = ServiceCrawler(
            WebGraph(), max_pages=2, fetch_attempts=3
        ).crawl(["http://dead/x", "http://dead/y"])
        assert report.pages_fetched == 2  # one retry of x, y never fetched
        assert report.retries == 1
        assert report.dead_links == 1

    def test_fetch_attempts_validation(self):
        with pytest.raises(ValueError):
            ServiceCrawler(WebGraph(), fetch_attempts=0)


class TestCrawlerQuarantine:
    """Satellite: repeatedly-dead domains are leased out of the frontier."""

    def make_graph(self):
        graph = WebGraph()
        graph.add(
            Page(
                "http://hub/i",
                "x",
                links=[
                    "http://bad/1",
                    "http://bad/2",
                    "http://bad/3",
                    "http://good/svc",
                ],
            )
        )
        graph.add(Page("http://good/svc", "y"))
        return graph

    def make_breakers(self, failure_threshold):
        from repro.resilience import CircuitBreakerRegistry, CircuitPolicy

        self.clock = {"t": 0.0}
        return CircuitBreakerRegistry(
            CircuitPolicy(failure_threshold=failure_threshold, recovery_seconds=60.0),
            clock=lambda: self.clock["t"],
        )

    def test_dead_domain_quarantined(self):
        breakers = self.make_breakers(2)
        graph = self.make_graph()
        report = ServiceCrawler(graph, breakers=breakers).crawl(["http://hub/i"])
        assert report.quarantined_domains == {"bad"}
        assert report.dead_links == 2  # third bad URL never fetched
        assert report.skipped_by_quarantine == 1
        assert "http://good/svc" in report.visited
        assert breakers.states() == {
            "hub": "closed", "bad": "open", "good": "closed"
        }

    def test_lease_expiry_gives_domain_another_chance(self):
        breakers = self.make_breakers(1)
        breaker = breakers.breaker_for("bad")
        assert breaker.on_failure(breaker.before_call()) is True
        assert breaker.state == "open"
        self.clock["t"] = 61.0
        assert breaker.state == "half-open"
        # ...and the crawler fetches it again now, as the single probe.
        graph = WebGraph()
        graph.add(Page("http://bad/svc", "alive again"))
        report = ServiceCrawler(graph, breakers=breakers).crawl(
            ["http://bad/svc"]
        )
        assert "http://bad/svc" in report.visited
        assert breaker.state == "closed"

    def test_success_clears_failure_streak(self):
        breakers = self.make_breakers(2)
        graph = WebGraph()
        graph.add(Page("http://d/ok", "alive"))
        report = ServiceCrawler(graph, breakers=breakers).crawl(
            ["http://d/1", "http://d/ok", "http://d/2"]
        )
        assert report.dead_links == 2
        assert report.quarantined_domains == set()  # streak was broken
        assert breakers.states() == {"d": "closed"}

    def test_failed_probe_leases_domain_out_again_at_once(self):
        """One dead probe re-opens the domain: no second streak of
        ``failure_threshold`` failures is needed after the lapse."""
        breakers = self.make_breakers(2)
        crawler = ServiceCrawler(WebGraph(), breakers=breakers)
        first = crawler.crawl(["http://bad/1", "http://bad/2"])
        assert first.quarantined_domains == {"bad"}
        self.clock["t"] = 61.0
        second = crawler.crawl(["http://bad/3", "http://bad/4", "http://bad/5"])
        assert second.dead_links == 1  # the probe, bad/3
        assert second.quarantined_domains == {"bad"}
        assert second.skipped_by_quarantine == 2
        assert breakers.states() == {"bad": "open"}

    def test_healthz_follows_domain_breakers(self):
        import json

        from repro.observability import HealthHandler

        breakers = self.make_breakers(1)
        health = HealthHandler().watch_breakers(breakers, name="crawler")

        def healthz():
            response = serve_once(health, HttpRequest("GET", "/healthz"))
            return response.status, json.loads(response.text())

        graph = WebGraph()
        crawler = ServiceCrawler(graph, breakers=breakers)
        crawler.crawl(["http://bad/1"])
        status, document = healthz()
        assert status == 503
        assert document["breakers"]["crawler"] == {"bad": "open"}
        self.clock["t"] = 61.0
        assert healthz()[0] == 503  # half-open until a probe succeeds
        graph.add(Page("http://bad/2", "back"))
        crawler.crawl(["http://bad/2"])
        status, document = healthz()
        assert status == 200
        assert document["breakers"]["crawler"] == {"bad": "closed"}
