"""The service crawler behind the ASU service search engine.

"We also developed a service directory that lists services offered by
other service directories and repositories using a service crawler that
discovers available services online."

BFS over a :class:`~repro.directory.webgraph.WebGraph` with per-domain
politeness budgets, a page cap, and dead-link accounting.  Any fetched
XML page that parses as a contract document is harvested.

Dependability (the §V "often offline or removed without notice"
lesson applied to the crawler itself): each page is fetched through the
one retry schedule of :mod:`repro.resilience.middleware`, compiled once
per crawl, so dead fetches can be retried under a shared
:class:`~repro.resilience.RetryBudget` (a dying web does not multiply
crawl cost); and each domain is guarded by its own
:class:`~repro.resilience.EndpointBreaker` from a
:class:`~repro.resilience.CircuitBreakerRegistry`, so a host whose URLs
keep coming back dead is skipped until its breaker lets one probe
through.  ``HealthHandler.watch_breakers`` on that registry puts the
quarantined domains on ``/healthz``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import urljoin, urlsplit

from ..core.contracts import ServiceContract
from ..core.faults import ServiceUnavailable
from ..observability.runtime import OBS
from ..resilience.binding import PooledHttpClients
from ..resilience.breaker import CircuitBreakerRegistry
from ..resilience.middleware import Invocation, build_chain
from ..resilience.policy import ResiliencePolicy, RetryBudget, RetryPolicy
from ..transport.wsdl import contract_from_xml
from .webgraph import Page, WebGraph

__all__ = ["CrawlReport", "HttpFetcher", "ServiceCrawler"]


@dataclass
class CrawlReport:
    """What a crawl saw and harvested."""

    pages_fetched: int = 0
    dead_links: int = 0
    contracts_found: list[ServiceContract] = field(default_factory=list)
    skipped_by_budget: int = 0
    simulated_seconds: float = 0.0
    visited: set[str] = field(default_factory=set)
    retries: int = 0
    retries_denied: int = 0
    skipped_by_quarantine: int = 0
    quarantined_domains: set[str] = field(default_factory=set)

    @property
    def contract_names(self) -> list[str]:
        return sorted(c.name for c in self.contracts_found)


def _domain(url: str) -> str:
    try:
        return url.split("/")[2]
    except IndexError:
        return url


def _extract_links(content: str, base_url: str) -> list[str]:
    """Harvest ``href="..."`` targets from an HTML-ish page, resolved
    against ``base_url`` — dependency-free, order-as-found, deduplicated."""
    links: list[str] = []
    seen: set[str] = set()
    lowered = content.lower()
    position = 0
    while True:
        anchor = lowered.find('href="', position)
        if anchor == -1:
            break
        start = anchor + len('href="')
        end = content.find('"', start)
        if end == -1:
            break
        position = end + 1
        target = content[start:end].strip()
        if not target or target.startswith(("#", "mailto:", "javascript:")):
            continue
        resolved = urljoin(base_url, target)
        if resolved not in seen:
            seen.add(resolved)
            links.append(resolved)
    return links


class HttpFetcher:
    """Fetch crawl pages over *live* HTTP through pooled clients.

    Adapts the socket transport to the crawler's ``fetch(url) ->
    Optional[Page]`` protocol, so the same BFS that walks the synthetic
    :class:`WebGraph` can walk provider sites actually served by
    :class:`~repro.transport.httpserver.HttpServer` nodes.  One pooled
    :class:`~repro.transport.client.HttpClient` is kept per
    ``host:port`` authority by a
    :class:`~repro.resilience.binding.PooledHttpClients` (keep-alive
    across the many pages of one provider — the crawler's dominant
    access pattern); dead links — connection failures, timeouts,
    non-200s — come back as ``None``, exactly like a missing page in
    the synthetic graph, so retry budgets and domain breakers apply
    unchanged.  Links are harvested from ``href="..."`` attributes of
    fetched HTML; ``latency`` carries the measured wall-clock fetch
    cost.
    """

    def __init__(
        self,
        *,
        timeout: float = 5.0,
        pool_size: int = 2,
        client_factory=None,
    ) -> None:
        if client_factory is None:
            def client_factory(host: str, port: int):
                from ..transport.client import HttpClient  # lazy: layering

                return HttpClient(
                    host, port, timeout=timeout, pool_size=pool_size
                )
        self._http_clients = PooledHttpClients(client_factory)
        self.fetches = 0

    def close(self) -> None:
        self._http_clients.close()

    def fetch(self, url: str) -> Optional[Page]:
        """GET ``url``; a Page on 200, None on any failure (dead link)."""
        self.fetches += 1
        parts = urlsplit(url)
        if parts.scheme not in ("http", "") or not parts.hostname:
            return None
        host = parts.hostname
        port = parts.port or 80
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        started = time.perf_counter()
        try:
            response = self._http_clients(host, port).get(target)
        except Exception:  # noqa: BLE001 - unreachable host == dead link
            return None
        if response.status != 200:
            return None
        content = response.body.decode("utf-8", "replace")
        content_type = response.content_type or "text/html"
        links = (
            _extract_links(content, url) if "html" in content_type else []
        )
        return Page(
            url,
            content,
            content_type,
            links,
            latency=time.perf_counter() - started,
        )


class _DeadFetch(Exception):
    """A fetch came back empty; the retry schedule may try again."""


class ServiceCrawler:
    """Breadth-first crawler with per-domain budgets.

    ``max_pages`` caps total fetches, retries included: a dead fetch
    that reaches the cap is not retried.  ``per_domain_budget`` caps
    URLs per host (politeness).  ``fetch_attempts`` > 1 retries dead
    fetches, each retry drawing on ``retry_budget`` when one is supplied
    (a crawler-wide cap on retry amplification).  With ``breakers``,
    each domain's breaker sees one outcome per URL, after that URL's
    retries: a domain whose URLs keep coming back dead is skipped while
    its circuit is open, and after ``recovery_seconds`` one URL probes
    it — a dead probe leases it out again at once.  Deterministic: FIFO
    frontier, link order as found, no randomness.
    """

    def __init__(
        self,
        graph: WebGraph,
        *,
        max_pages: int = 1000,
        per_domain_budget: Optional[int] = None,
        fetch_attempts: int = 1,
        retry_budget: Optional[RetryBudget] = None,
        breakers: Optional[CircuitBreakerRegistry] = None,
    ) -> None:
        if max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        if fetch_attempts < 1:
            raise ValueError("fetch_attempts must be >= 1")
        self.graph = graph
        self.max_pages = max_pages
        self.per_domain_budget = per_domain_budget
        self.fetch_attempts = fetch_attempts
        self.retry_budget = retry_budget
        self.breakers = breakers

    def crawl(self, seeds: list[str]) -> CrawlReport:
        """Run one crawl from ``seeds``; returns the full accounting.

        With tracing collecting, the whole crawl is one ``crawler.crawl``
        span whose attributes summarise the report — crawl cost shows up
        in the same trace tree as the service calls it feeds.
        """
        if not OBS.enabled:
            return self._crawl(seeds)
        with OBS.tracer.span(
            "crawler.crawl", attributes={"seeds": len(seeds)}
        ) as span:
            report = self._crawl(seeds)
            span.set_attribute("pages", report.pages_fetched)
            span.set_attribute("dead_links", report.dead_links)
            span.set_attribute("contracts", len(report.contracts_found))
            return report

    def _crawl(self, seeds: list[str]) -> CrawlReport:
        report = CrawlReport()
        graph = self.graph
        max_pages = self.max_pages

        def fetch(invocation: Invocation) -> Optional[Page]:
            if invocation.attempt:
                report.retries += 1
                if OBS.enabled:
                    OBS.instruments.crawler_fetches.inc(outcome="retry")
            page = graph.fetch(invocation.operation)
            report.pages_fetched += 1
            if page is None and report.pages_fetched < max_pages:
                raise _DeadFetch(invocation.operation)
            return page  # None: dead, and the page cap forbids a retry

        fetch_with_retry = build_chain(
            ResiliencePolicy(
                retry=RetryPolicy(
                    self.fetch_attempts, base_delay=0.0, retry_on=(_DeadFetch,)
                ),
                circuit=None,
            ),
            fetch,
            budget=self.retry_budget,
        )
        frontier: deque[str] = deque(seeds)
        queued = set(seeds)
        domain_counts: dict[str, int] = {}
        while frontier and report.pages_fetched < max_pages:
            url = frontier.popleft()
            domain = _domain(url)
            if (
                self.per_domain_budget is not None
                and domain_counts.get(domain, 0) >= self.per_domain_budget
            ):
                report.skipped_by_budget += 1
                continue
            breaker = ticket = None
            if self.breakers is not None:
                breaker = self.breakers.breaker_for(domain)
                try:
                    ticket = breaker.before_call()
                except ServiceUnavailable:
                    report.skipped_by_quarantine += 1
                    if OBS.enabled:
                        OBS.instruments.crawler_quarantine.inc(event="skipped")
                    continue
            domain_counts[domain] = domain_counts.get(domain, 0) + 1
            invocation = Invocation(url, {}, endpoint=domain)
            try:
                page = fetch_with_retry(invocation)
            except _DeadFetch:
                page = None
                if invocation.attempt + 1 < self.fetch_attempts:
                    report.retries_denied += 1  # the retry budget ran dry
                    if OBS.enabled:
                        OBS.instruments.crawler_fetches.inc(outcome="retry_denied")
            if page is None:
                report.dead_links += 1
                if OBS.enabled:
                    OBS.instruments.crawler_fetches.inc(outcome="dead")
                if breaker is not None and breaker.on_failure(ticket):
                    report.quarantined_domains.add(domain)
                    if OBS.enabled:
                        OBS.instruments.crawler_quarantine.inc(
                            event="quarantined"
                        )
                continue
            if OBS.enabled:
                OBS.instruments.crawler_fetches.inc(outcome="ok")
            if breaker is not None:
                breaker.on_success(ticket)
            report.visited.add(url)
            report.simulated_seconds += page.latency
            if page.content_type == "application/xml":
                try:
                    contract = contract_from_xml(page.content)
                except Exception:  # noqa: BLE001 - malformed page, not fatal
                    continue
                report.contracts_found.append(contract)
            for link in page.links:
                if link not in queued:
                    queued.add(link)
                    frontier.append(link)
        return report
