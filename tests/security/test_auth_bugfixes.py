"""Regression tests for two security-layer defects fixed alongside the
gateway.

1. ``TokenIssuer`` leaked expired tokens: an expired entry was deleted
   only when that exact token was re-presented to ``authenticate``, so
   high-churn issuance (a gateway minting short-lived tokens) grew the
   map without bound.  Fixed with an amortized sweep on issue and on
   ``active_count``; ``revoke_all`` covers logout-everywhere, and
   counts only the live tokens it revoked (it used to count expired,
   unswept ones too, and the gateway reported that number).

2. ``PasswordVault.login`` ran the PBKDF2 verification while holding
   the vault-wide lock — every concurrent login in the process was
   serialized — and returned instantly for unknown users, so response
   latency enumerated which user ids exist.  Fixed by hashing outside
   the lock (with a double-checked record re-read) and burning a decoy
   verification for unknown users.

3. ``PasswordVault.set_password`` hashed while holding the same lock, so
   concurrent password creations ran one at a time.  Fixed by hashing
   first and taking the lock only to store the record.

Each test here fails against the pre-fix implementations.
"""

import threading
import time
from unittest import mock

import pytest

from repro.security import auth as auth_module
from repro.security.auth import AuthError, PasswordVault, TokenIssuer

PASSWORD = "Correct-Horse-7"


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenIssuerLeak:
    def test_expired_tokens_reclaimed_without_representation(self):
        """The leak: churn tokens past expiry, never re-presenting any.

        Pre-fix, the map held every token ever issued; post-fix the
        amortized sweep keeps it bounded by the live set.
        """
        clock = FakeClock()
        issuer = TokenIssuer(ttl_seconds=10.0, clock=clock, sweep_interval=8)
        for _ in range(100):
            issuer.issue("churner")
            clock.advance(11.0)  # every previously issued token expires
        # never authenticated, never revoked — the sweep alone must
        # have kept the map near the sweep interval, not at 100
        assert len(issuer._tokens) <= issuer.sweep_interval

    def test_active_count_purges_and_reports_live_only(self):
        clock = FakeClock()
        issuer = TokenIssuer(ttl_seconds=10.0, clock=clock, sweep_interval=1000)
        stale = [issuer.issue("ada") for _ in range(5)]
        clock.advance(11.0)
        live = issuer.issue("ada")
        assert issuer.active_count() == 1
        assert len(issuer._tokens) == 1  # the expired five are gone
        assert issuer.authenticate(live)[0] == "ada"
        for token in stale:
            with pytest.raises(AuthError):
                issuer.authenticate(token)

    def test_explicit_purge_returns_reclaim_count(self):
        clock = FakeClock()
        issuer = TokenIssuer(ttl_seconds=10.0, clock=clock)
        for _ in range(7):
            issuer.issue("ada")
        clock.advance(11.0)
        survivor = issuer.issue("ada")
        assert issuer.purge_expired() == 7
        assert issuer.authenticate(survivor)[0] == "ada"

    def test_revoke_all_drops_only_that_principal(self):
        issuer = TokenIssuer()
        ada = [issuer.issue("ada") for _ in range(3)]
        bob = issuer.issue("bob")
        assert issuer.revoke_all("ada") == 3
        for token in ada:
            with pytest.raises(AuthError):
                issuer.authenticate(token)
        assert issuer.authenticate(bob)[0] == "bob"

    def test_revoke_all_counts_live_tokens_only(self):
        """``/auth/logout?everywhere`` reports this count: expired tokens
        the sweep has not reached yet were not sessions to revoke."""
        clock = FakeClock()
        issuer = TokenIssuer(ttl_seconds=10.0, clock=clock, sweep_interval=1000)
        stale = [issuer.issue("alice") for _ in range(2)]
        clock.advance(11.0)
        live = issuer.issue("alice")
        assert issuer.revoke_all("alice") == 1
        for token in [*stale, live]:
            with pytest.raises(AuthError, match="unknown token"):
                issuer.authenticate(token)
        assert len(issuer._tokens) == 0

    def test_revoke_all_counts_a_token_at_its_expiry_instant(self):
        clock = FakeClock()
        issuer = TokenIssuer(ttl_seconds=10.0, clock=clock)
        issuer.issue("alice")
        clock.advance(10.0)  # still valid at exactly its expiry
        assert issuer.revoke_all("alice") == 1

    def test_revoke_all_of_unknown_principal_is_zero(self):
        assert TokenIssuer().revoke_all("nobody") == 0

    def test_sweep_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TokenIssuer(sweep_interval=0)


class TestConcurrentLogin:
    def test_logins_hash_concurrently_not_serialized(self):
        """Pre-fix, PBKDF2 ran under the vault lock: two concurrent
        logins could never be inside ``verify_password`` at the same
        time, and this test deadlocks at the barrier (then times out).
        """
        vault = PasswordVault()
        vault.set_password("ada", PASSWORD, PASSWORD)
        vault.set_password("bob", PASSWORD, PASSWORD)
        inside = threading.Barrier(2, timeout=5.0)
        results = {}

        real_verify = auth_module.verify_password

        def rendezvous_verify(password, stored):
            inside.wait()  # both threads must be hashing simultaneously
            return real_verify(password, stored)

        def attempt(user):
            results[user] = vault.login(user, PASSWORD)

        with mock.patch.object(auth_module, "verify_password", rendezvous_verify):
            threads = [
                threading.Thread(target=attempt, args=(u,)) for u in ("ada", "bob")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        assert results == {"ada": True, "bob": True}
        assert not inside.broken, "logins were serialized under the vault lock"

    def test_password_creations_hash_concurrently_not_serialized(self):
        """Pre-fix, ``set_password`` hashed under the vault lock: the
        second creation waited for the first, and the barrier breaks."""
        vault = PasswordVault()
        inside = threading.Barrier(2, timeout=5.0)
        stored = {}
        real_hash = auth_module.hash_password

        def rendezvous_hash(password, salt=None):
            inside.wait()  # both threads must be hashing simultaneously
            return real_hash(password, salt)

        def create(user):
            stored[user] = vault.set_password(user, PASSWORD, PASSWORD)

        with mock.patch.object(auth_module, "hash_password", rendezvous_hash):
            threads = [
                threading.Thread(target=create, args=(u,)) for u in ("ada", "bob")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
        assert not inside.broken, "password creations were serialized under the vault lock"
        assert sorted(stored) == ["ada", "bob"]
        for user, record in stored.items():
            assert auth_module.verify_password(PASSWORD, record)
            assert vault.login(user, PASSWORD)

    def test_failure_count_survives_concurrent_hashing(self):
        vault = PasswordVault(max_failures=3)
        vault.set_password("ada", PASSWORD, PASSWORD)
        for _ in range(3):
            assert not vault.login("ada", "wrong-password-1")
        with pytest.raises(AuthError):
            vault.login("ada", PASSWORD)

    def test_password_change_mid_hash_discards_stale_verdict(self):
        """A login racing a password change must not report a verdict
        about the replaced record — and the change must not have to wait
        for the hash (pre-fix it blocked on the vault lock)."""
        vault = PasswordVault()
        vault.set_password("ada", PASSWORD, PASSWORD)
        real_verify = auth_module.verify_password
        hashing = threading.Event()
        proceed = threading.Event()
        verdict = {}

        def paced_verify(password, stored):
            hashing.set()
            proceed.wait(timeout=5.0)
            return real_verify(password, stored)

        def attempt():
            verdict["login"] = vault.login("ada", PASSWORD)

        with mock.patch.object(auth_module, "verify_password", paced_verify):
            login_thread = threading.Thread(target=attempt)
            login_thread.start()
            try:
                assert hashing.wait(timeout=5.0)
                changer = threading.Thread(
                    target=lambda: vault.set_password(
                        "ada", "Other-Horse-99", "Other-Horse-99"
                    )
                )
                changer.start()
                changer.join(timeout=2.0)
                # pre-fix the change queues behind the in-flight hash
                assert not changer.is_alive(), (
                    "set_password blocked on a login's PBKDF2 run"
                )
            finally:
                proceed.set()
                login_thread.join(timeout=10.0)
        # the in-flight login hashed the *old* record: stale verdict dropped
        assert verdict["login"] is False
        assert vault.login("ada", "Other-Horse-99") is True


class TestUserEnumeration:
    def test_unknown_user_burns_a_verification(self):
        """Pre-fix, unknown users returned without any PBKDF2 work —
        the latency gap enumerated which user ids exist."""
        vault = PasswordVault()
        vault.set_password("ada", PASSWORD, PASSWORD)
        calls = []
        real_verify = auth_module.verify_password

        def counting_verify(password, stored):
            calls.append(stored)
            return real_verify(password, stored)

        with mock.patch.object(auth_module, "verify_password", counting_verify):
            assert vault.login("nobody", PASSWORD) is False
            assert vault.login("ada", "wrong-password-1") is False
        assert len(calls) == 2  # both paths paid one verification

    def test_unknown_user_latency_matches_wrong_password(self):
        vault = PasswordVault()
        vault.set_password("ada", PASSWORD, PASSWORD)
        vault.login("nobody", PASSWORD)  # warm the decoy record

        def timed(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        known = min(
            timed(lambda: vault.login("ada", "wrong-password-1")) for _ in range(3)
        )
        unknown = min(
            timed(lambda: vault.login("nobody", PASSWORD)) for _ in range(3)
        )
        # both cost one PBKDF2 run; pre-fix `unknown` was ~instant.
        # generous bound: unknown must be at least a tenth of known,
        # which an early-return (microseconds vs milliseconds) fails.
        assert unknown >= known / 10

    def test_decoy_record_is_stable_across_calls(self):
        vault = PasswordVault()
        assert vault._decoy_record() == vault._decoy_record()
