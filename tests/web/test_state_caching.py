"""Tests for state management and caching."""

import threading

import pytest

from repro.web import (
    ApplicationState,
    Cache,
    SessionManager,
    ViewState,
    ViewStateError,
)
from repro.web.state import SWEEP_INTERVAL


class TestViewState:
    def test_round_trip(self):
        vs = ViewState("server-key")
        state = {"page": "apply", "step": 2, "values": {"name": "Ada"}}
        assert vs.decode(vs.encode(state)) == state

    def test_tamper_detected(self):
        vs = ViewState("server-key")
        blob = vs.encode({"role": "user"})
        # flip one character in the base64 payload region
        tampered = ("A" if blob[0] != "A" else "B") + blob[1:]
        with pytest.raises(ViewStateError):
            vs.decode(tampered)

    def test_wrong_key_rejected(self):
        blob = ViewState("key-one").encode({"x": 1})
        with pytest.raises(ViewStateError, match="MAC"):
            ViewState("key-two").decode(blob)

    def test_not_base64_rejected(self):
        with pytest.raises(ViewStateError):
            ViewState("k").decode("!!! not base64 !!!")

    def test_too_short_rejected(self):
        with pytest.raises(ViewStateError):
            ViewState("k").decode("QUJD")

    def test_non_dict_rejected(self):
        import base64
        import hashlib
        import hmac as hmac_mod

        payload = b"[1,2,3]"
        mac = hmac_mod.new(b"k", payload, hashlib.sha256).digest()
        blob = base64.b64encode(payload + mac).decode()
        with pytest.raises(ViewStateError, match="object"):
            ViewState("k").decode(blob)

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            ViewState("")


class TestSessionManager:
    def make(self, timeout=100):
        self.clock = {"t": 0.0}
        return SessionManager(timeout, clock=lambda: self.clock["t"])

    def test_create_and_resolve(self):
        manager = self.make()
        session = manager.create()
        assert manager.resolve(session.id) is session

    def test_missing_and_none(self):
        manager = self.make()
        assert manager.resolve("nope") is None
        assert manager.resolve(None) is None

    def test_expiry(self):
        manager = self.make(timeout=100)
        session = manager.create()
        self.clock["t"] = 101
        assert manager.resolve(session.id) is None

    def test_sliding_window(self):
        manager = self.make(timeout=100)
        session = manager.create()
        self.clock["t"] = 90
        assert manager.resolve(session.id) is session  # touch
        self.clock["t"] = 180
        assert manager.resolve(session.id) is session  # still alive

    def test_get_or_create(self):
        manager = self.make()
        session, created = manager.get_or_create(None)
        assert created
        again, created2 = manager.get_or_create(session.id)
        assert not created2 and again is session

    def test_destroy(self):
        manager = self.make()
        session = manager.create()
        manager.destroy(session.id)
        assert manager.resolve(session.id) is None

    def test_sweep(self):
        manager = self.make(timeout=50)
        manager.create()
        manager.create()
        self.clock["t"] = 60
        live = manager.create()
        assert manager.sweep() == 2
        assert manager.active_count() == 1
        assert manager.resolve(live.id) is live

    def test_create_sweeps_expired_sessions_never_presented_again(self):
        manager = self.make(timeout=10)
        for _ in range(SWEEP_INTERVAL):
            manager.create()
        self.clock["t"] = 11  # every session so far has expired
        for _ in range(SWEEP_INTERVAL):
            manager.create()
        # no old session was resolved again: only the amortized sweep
        # could have dropped them (without it the map holds both rounds)
        assert manager.active_count() == SWEEP_INTERVAL

    def test_session_data_operations(self):
        manager = self.make()
        session = manager.create()
        session.set("cart", ["a"])
        assert session.get("cart") == ["a"]
        assert "cart" in session
        assert session.keys() == ["cart"]
        assert session.pop("cart") == ["a"]
        assert session.get("cart") is None

    def test_ids_unique(self):
        manager = self.make()
        ids = {manager.create().id for _ in range(50)}
        assert len(ids) == 50

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            SessionManager(0)


class TestApplicationState:
    def test_get_set_remove(self):
        state = ApplicationState()
        state.set("k", 1)
        assert state.get("k") == 1
        state.remove("k")
        assert state.get("k", "gone") == "gone"

    def test_atomic_increment_under_contention(self):
        state = ApplicationState()

        def worker():
            for _ in range(1000):
                state.increment("hits")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state.get("hits") == 6000

    def test_update_with_default(self):
        state = ApplicationState()
        assert state.update("xs", lambda v: (v or []) + [1]) == [1]

    def test_snapshot_is_copy(self):
        state = ApplicationState()
        state.set("a", 1)
        snap = state.snapshot()
        snap["a"] = 99
        assert state.get("a") == 1


class TestCache:
    def make(self, capacity=100):
        self.clock = {"t": 0.0}
        return Cache(capacity, clock=lambda: self.clock["t"])

    def test_put_get(self):
        cache = self.make()
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert "k" in cache

    def test_miss_returns_default(self):
        cache = self.make()
        assert cache.get("nope", 42) == 42

    def test_absolute_expiration(self):
        cache = self.make()
        cache.put("k", "v", absolute_seconds=10)
        self.clock["t"] = 9
        assert cache.get("k") == "v"
        self.clock["t"] = 10
        assert cache.get("k") is None

    def test_sliding_expiration(self):
        cache = self.make()
        cache.put("k", "v", sliding_seconds=10)
        for t in (8, 16, 24):
            self.clock["t"] = t
            assert cache.get("k") == "v"
        self.clock["t"] = 35
        assert cache.get("k") is None

    def test_dependency_cascade(self):
        cache = self.make()
        cache.put("master", 1)
        cache.put("derived", 2, depends_on=["master"])
        cache.put("derived2", 3, depends_on=["derived"])
        cache.remove("master")
        assert cache.get("derived") is None
        assert cache.get("derived2") is None

    def test_replacing_dependency_invalidates(self):
        cache = self.make()
        cache.put("master", 1)
        cache.put("derived", 2, depends_on=["master"])
        cache.put("master", 10)  # replace
        assert cache.get("derived") is None
        assert cache.get("master") == 10

    def test_lru_eviction(self):
        cache = self.make(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # a is now most recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_get_or_compute(self):
        cache = self.make()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_stats(self):
        cache = self.make()
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_clear(self):
        cache = self.make()
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Cache(0)
        cache = self.make()
        with pytest.raises(ValueError):
            cache.put("k", 1, absolute_seconds=0)
        with pytest.raises(ValueError):
            cache.put("k", 1, sliding_seconds=-1)

    def test_contains_does_not_count_stats(self):
        cache = self.make()
        cache.put("k", 1)
        _ = "k" in cache
        _ = "x" in cache
        assert cache.stats.hits == 0 and cache.stats.misses == 0
