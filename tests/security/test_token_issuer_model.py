"""Model-based test of :class:`TokenIssuer`: issue, expiry, revocation
and the amortized sweep.

Hypothesis drives one issuer on an injected clock with random sequences
of rules — issue a token, advance the clock, authenticate any token ever
seen (or a forged one), ``revoke``, ``revoke_all``, ``purge_expired``
and ``active_count`` — over a sampled ``sweep_interval``, while a small
reference model predicts every answer and the exact set of tokens the
issuer still holds.  A token is valid up to and including its expiry
instant; the clock moves in whole seconds, and one rule stops it exactly
on a held token's expiry, so that instant is probed often.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.security.auth import AuthError, TokenIssuer

TTL = 10.0
PRINCIPALS = st.sampled_from(["ada", "bob"])


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class ModelIssuer:
    """What the issuer should hold and answer, in a few lines."""

    def __init__(self, sweep_interval):
        self.sweep_interval = sweep_interval
        self.tokens = {}  # token -> (principal, roles, expires)
        self.issued_since_sweep = 0

    def purge(self, now):
        expired = [t for t, (_, _, exp) in self.tokens.items() if exp < now]
        for token in expired:
            del self.tokens[token]
        self.issued_since_sweep = 0
        return len(expired)

    def issue(self, token, principal, roles, now):
        self.issued_since_sweep += 1
        if self.issued_since_sweep >= self.sweep_interval:
            self.purge(now)
        self.tokens[token] = (principal, roles, now + TTL)

    def authenticate(self, token, now):
        """``(principal, roles)``, or the :class:`AuthError` message."""
        record = self.tokens.get(token)
        if record is None:
            return "unknown token"
        principal, roles, expires = record
        if expires < now:
            del self.tokens[token]
            return "token expired"
        return principal, roles

    def revoke_all(self, principal, now):
        mine = [t for t, (p, _, _) in self.tokens.items() if p == principal]
        return sum(self.tokens.pop(t)[2] >= now for t in mine)


class TokenIssuerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.issuer = None

    @initialize(sweep_interval=st.sampled_from([1, 2, 3, 256]))
    def world(self, sweep_interval):
        self.clock = Clock()
        self.issuer = TokenIssuer(
            ttl_seconds=TTL, clock=self.clock, sweep_interval=sweep_interval
        )
        self.model = ModelIssuer(sweep_interval)
        self.seen = ["forged-token"]  # every token ever issued, plus a fake

    @rule(
        principal=PRINCIPALS,
        roles=st.sampled_from([frozenset(), frozenset({"admin"})]),
    )
    def issue(self, principal, roles):
        token = self.issuer.issue(principal, roles)
        assert token not in self.seen
        self.model.issue(token, principal, roles, self.clock.now)
        self.seen.append(token)

    @rule(seconds=st.sampled_from([1.0, 5.0, TTL, TTL + 1.0]))
    def advance(self, seconds):
        self.clock.now += seconds

    @rule(data=st.data())
    def advance_to_an_expiry(self, data):
        """Stop the clock exactly on a held token's expiry instant."""
        ahead = sorted(
            {exp for _, _, exp in self.model.tokens.values() if exp > self.clock.now}
        )
        if ahead:
            self.clock.now = data.draw(st.sampled_from(ahead))

    @rule(data=st.data())
    def authenticate(self, data):
        # Half the draws pick a token the issuer still holds, so expiry
        # instants are probed often, not only after many issues.
        held = list(self.model.tokens) or self.seen
        token = data.draw(st.sampled_from(held) | st.sampled_from(self.seen))
        expected = self.model.authenticate(token, self.clock.now)
        if isinstance(expected, str):
            with pytest.raises(AuthError, match=expected):
                self.issuer.authenticate(token)
        else:
            assert self.issuer.authenticate(token) == expected

    @rule(data=st.data())
    def revoke(self, data):
        token = data.draw(st.sampled_from(self.seen))
        self.issuer.revoke(token)
        self.model.tokens.pop(token, None)

    @rule(principal=PRINCIPALS)
    def revoke_all(self, principal):
        expected = self.model.revoke_all(principal, self.clock.now)
        assert self.issuer.revoke_all(principal) == expected

    @rule()
    def purge_expired(self):
        assert self.issuer.purge_expired() == self.model.purge(self.clock.now)

    @rule()
    def active_count(self):
        self.model.purge(self.clock.now)
        assert self.issuer.active_count() == len(self.model.tokens)

    @invariant()
    def holds_what_the_model_holds(self):
        # The sweep is deterministic, so the model predicts the exact map:
        # a leak (or an early reclaim) shows here before any answer does.
        if self.issuer is not None:
            assert set(self.issuer._tokens) == set(self.model.tokens)


TokenIssuerModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestTokenIssuerModel = TokenIssuerModel.TestCase
