"""Authentication: salted password storage, password policy, tokens.

Implements the account-security mechanics of the Figure 4 project:
"the end user can create password" with strength ("Strong?") and match
("Match?") checks, then "access the system" via login — plus the token
issuance the SOAP header authenticator consumes.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import string
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "PasswordPolicy",
    "hash_password",
    "verify_password",
    "PasswordVault",
    "TokenIssuer",
    "AuthError",
]


class AuthError(Exception):
    """Authentication or policy failure."""


@dataclass(frozen=True)
class PasswordPolicy:
    """The "Strong?" check of Figure 4, parameterized.

    Defaults mirror the classic course rule: ≥8 chars, at least one
    lower, one upper, one digit, one special.
    """

    min_length: int = 8
    require_lower: bool = True
    require_upper: bool = True
    require_digit: bool = True
    require_special: bool = True
    special_characters: str = "!@#$%^&*()-_=+[]{};:,.<>?/"

    def problems(self, password: str) -> list[str]:
        """All rule violations (empty list = strong password)."""
        issues = []
        if len(password) < self.min_length:
            issues.append(f"shorter than {self.min_length} characters")
        if self.require_lower and not any(c.islower() for c in password):
            issues.append("needs a lowercase letter")
        if self.require_upper and not any(c.isupper() for c in password):
            issues.append("needs an uppercase letter")
        if self.require_digit and not any(c.isdigit() for c in password):
            issues.append("needs a digit")
        if self.require_special and not any(
            c in self.special_characters for c in password
        ):
            issues.append("needs a special character")
        return issues

    def is_strong(self, password: str) -> bool:
        return not self.problems(password)


_ITERATIONS = 10_000


def hash_password(password: str, salt: Optional[bytes] = None) -> str:
    """PBKDF2-HMAC-SHA256 with a random salt; returns ``salt$hash`` hex."""
    if salt is None:
        salt = secrets.token_bytes(16)
    digest = hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt, _ITERATIONS)
    return f"{salt.hex()}${digest.hex()}"


def verify_password(password: str, stored: str) -> bool:
    """Constant-time verification against a ``salt$hash`` record."""
    try:
        salt_hex, digest_hex = stored.split("$", 1)
        salt = bytes.fromhex(salt_hex)
        expected = bytes.fromhex(digest_hex)
    except ValueError:
        return False
    candidate = hashlib.pbkdf2_hmac(
        "sha256", password.encode("utf-8"), salt, _ITERATIONS
    )
    return hmac.compare_digest(candidate, expected)


class PasswordVault:
    """User-id → password-hash store with lockout after failed attempts.

    :meth:`login` runs the PBKDF2 verification *outside* the vault lock:
    the hash is the expensive part (tens of thousands of iterations), and
    holding the lock across it would serialize every concurrent login in
    the process.  The lock guards only the two cheap map reads/writes
    around it, with the failure-count update double-checked against the
    stored record so a concurrent password change discards a stale
    verdict instead of acting on it.
    """

    def __init__(self, policy: Optional[PasswordPolicy] = None, max_failures: int = 5) -> None:
        self.policy = policy or PasswordPolicy()
        self.max_failures = max_failures
        self._records: dict[str, str] = {}
        self._failures: dict[str, int] = {}
        self._lock = threading.Lock()
        self._decoy: Optional[str] = None  # lazily built; see _decoy_record

    def set_password(self, user_id: str, password: str, confirmation: str) -> str:
        """The Figure 4 create-password flow: Match? then Strong? then store.

        Returns the ``salt$hash`` record stored, so a caller persisting it
        elsewhere need not hash again.  Like :meth:`login`, the PBKDF2 run
        happens outside the vault lock.
        """
        if password != confirmation:
            raise AuthError("passwords do not match")
        problems = self.policy.problems(password)
        if problems:
            raise AuthError("weak password: " + "; ".join(problems))
        stored = hash_password(password)
        with self._lock:
            self._records[user_id] = stored
            self._failures.pop(user_id, None)
        return stored

    def has_password(self, user_id: str) -> bool:
        with self._lock:
            return user_id in self._records

    def _decoy_record(self) -> str:
        """A throwaway ``salt$hash`` record for unknown-user logins.

        Verifying against it makes an unknown user cost the same PBKDF2
        work as a wrong password — without it, ``login`` returns
        instantly for unknown users and the latency difference enumerates
        which user ids exist.
        """
        with self._lock:
            decoy = self._decoy
        if decoy is None:
            decoy = hash_password(secrets.token_urlsafe(16))
            with self._lock:
                if self._decoy is None:
                    self._decoy = decoy
                decoy = self._decoy
        return decoy

    def login(self, user_id: str, password: str) -> bool:
        with self._lock:
            stored = self._records.get(user_id)
            if (
                stored is not None
                and self._failures.get(user_id, 0) >= self.max_failures
            ):
                raise AuthError("account locked: too many failed attempts")
        if stored is None:
            # burn the same hashing cost a real verification would
            verify_password(password, self._decoy_record())
            return False
        # the expensive part, deliberately outside the vault lock
        matched = verify_password(password, stored)
        with self._lock:
            if self._records.get(user_id) != stored:
                # password changed (or user removed) while we hashed:
                # the verdict is about a record that no longer exists
                return False
            if self._failures.get(user_id, 0) >= self.max_failures:
                raise AuthError("account locked: too many failed attempts")
            if matched:
                self._failures.pop(user_id, None)
                return True
            self._failures[user_id] = self._failures.get(user_id, 0) + 1
            return False

    def unlock(self, user_id: str) -> None:
        with self._lock:
            self._failures.pop(user_id, None)


@dataclass
class _Token:
    principal: str
    roles: frozenset[str]
    expires: float


class TokenIssuer:
    """Bearer-token issuance and validation for service calls.

    Opaque random tokens with expiry; the SOAP/REST endpoints consult
    :meth:`authenticate` from their header authenticators, and the
    gateway's bearer termination rides the same method.

    Expired tokens are reclaimed with an *amortized sweep*: every
    ``sweep_interval`` issuances (and on every :meth:`active_count`) the
    whole map is purged of expired entries.  Without it an expired token
    was only deleted when that exact token was re-presented, so
    high-churn issuance — a gateway minting short-lived tokens all day —
    grew ``_tokens`` without bound.
    """

    def __init__(
        self,
        ttl_seconds: float = 3600.0,
        clock=time.monotonic,
        *,
        sweep_interval: int = 256,
    ) -> None:
        if sweep_interval < 1:
            raise ValueError("sweep_interval must be >= 1")
        self.ttl = ttl_seconds
        self.sweep_interval = sweep_interval
        self._clock = clock
        self._tokens: dict[str, _Token] = {}
        self._issued_since_sweep = 0
        self._lock = threading.Lock()

    def _purge_locked(self) -> int:
        now = self._clock()
        expired = [
            token
            for token, record in self._tokens.items()
            if record.expires < now
        ]
        for token in expired:
            del self._tokens[token]
        self._issued_since_sweep = 0
        return len(expired)

    def purge_expired(self) -> int:
        """Drop every expired token now; returns how many were dropped."""
        with self._lock:
            return self._purge_locked()

    def issue(self, principal: str, roles: frozenset[str] | set[str] = frozenset()) -> str:
        token = secrets.token_urlsafe(24)
        with self._lock:
            self._issued_since_sweep += 1
            if self._issued_since_sweep >= self.sweep_interval:
                self._purge_locked()
            self._tokens[token] = _Token(
                principal, frozenset(roles), self._clock() + self.ttl
            )
        return token

    def authenticate(self, token: str) -> tuple[str, frozenset[str]]:
        """Return (principal, roles) or raise :class:`AuthError`."""
        with self._lock:
            record = self._tokens.get(token)
            if record is None:
                raise AuthError("unknown token")
            if record.expires < self._clock():
                del self._tokens[token]
                raise AuthError("token expired")
            return record.principal, record.roles

    def revoke(self, token: str) -> None:
        with self._lock:
            self._tokens.pop(token, None)

    def revoke_all(self, principal: str) -> int:
        """Revoke every live token of ``principal`` (the logout-everywhere
        path); returns how many tokens were revoked.

        Expired tokens not yet swept are dropped too, but not counted:
        they were no longer sessions to revoke.
        """
        with self._lock:
            now = self._clock()
            mine = [
                token
                for token, record in self._tokens.items()
                if record.principal == principal
            ]
            live = 0
            for token in mine:
                live += self._tokens.pop(token).expires >= now
            return live

    def active_count(self) -> int:
        with self._lock:
            self._purge_locked()
            return len(self._tokens)
