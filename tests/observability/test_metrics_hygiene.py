"""Metric hygiene: every shipped family is documented and namespaced.

A family with empty help text renders a bare ``# HELP`` line nobody can
act on, and an unprefixed name collides with whatever else the scrape
target exports — so every family the runtime, the transport pool
collector, or the gateway registers must carry non-empty help text and
a ``repro_``-prefixed name.
"""

import pytest

from repro.core.broker import ServiceBroker
from repro.gateway import Gateway
from repro.observability import observed
from repro.transport.client import HttpClient

pytestmark = pytest.mark.obs


def _assert_hygienic(families, source):
    assert families, f"{source}: no families registered"
    for family in families:
        assert family.name.startswith("repro_"), (
            f"{source}: family {family.name!r} is not repro_-prefixed"
        )
        assert family.help and family.help.strip(), (
            f"{source}: family {family.name!r} has empty help text"
        )


def test_runtime_instrument_families_are_hygienic():
    with observed() as obs:
        _assert_hygienic(obs.registry.collect(), "runtime instruments")


def test_transport_pool_collector_families_are_hygienic():
    # a live (never dialed) client makes the pool collector report
    client = HttpClient("127.0.0.1", 9)
    try:
        with observed() as obs:
            pool_families = [
                f
                for f in obs.registry.collect()
                if f.name.startswith("repro_transport_pool_")
            ]
            assert {f.name for f in pool_families} == {
                "repro_transport_pool_in_use",
                "repro_transport_pool_idle",
                "repro_transport_pool_waiters",
            }
            _assert_hygienic(pool_families, "pool collector")
    finally:
        client.close()


def test_gateway_registry_families_are_hygienic():
    gateway = Gateway(ServiceBroker(), [])
    try:
        families = gateway.registry.collect()
        _assert_hygienic(families, "gateway registry")
        # the capacity collector contributes the live-bucket gauge
        assert "repro_gateway_rate_buckets" in {f.name for f in families}
    finally:
        gateway.close()
