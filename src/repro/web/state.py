"""Web application state management — the centerpiece of CSE445 Unit 5.

"It covers the models of Web applications, structure of Web applications,
state management in Web applications."  The four classic scopes, modelled
after the ASP.NET vocabulary the course used:

* :class:`ViewState` — per-page state round-tripped through the client in
  a signed, base64-encoded hidden field (tamper-evident)
* :class:`Session` / :class:`SessionManager` — per-user server-side state
  keyed by a cookie, with sliding expiration
* :class:`ApplicationState` — process-wide shared state (lock-protected,
  the concurrency lesson: many request threads touch it)
* cookies — handled in :mod:`repro.web.app`

Everything is deterministic-clock friendly for tests.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import secrets
import threading
import time
from typing import Any, Callable, Optional

__all__ = ["ViewState", "ViewStateError", "Session", "SessionManager", "ApplicationState"]


class ViewStateError(ValueError):
    """Raised when a posted view-state blob fails decoding or its MAC."""


class ViewState:
    """Signed client-side state bag.

    ``encode`` serializes a JSON-able dict, appends an HMAC, and base64s
    the result; ``decode`` verifies and restores.  The signing key is
    server-side — clients can read but not forge state (the integrity
    lesson of Unit 6 applied to Unit 5's mechanism).
    """

    def __init__(self, key: bytes | str) -> None:
        if isinstance(key, str):
            key = key.encode("utf-8")
        if not key:
            raise ValueError("view-state key must be non-empty")
        self._key = key

    def encode(self, state: dict[str, Any]) -> str:
        payload = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        mac = hmac.new(self._key, payload, hashlib.sha256).digest()
        return base64.b64encode(payload + mac).decode("ascii")

    def decode(self, blob: str) -> dict[str, Any]:
        try:
            raw = base64.b64decode(blob.encode("ascii"), validate=True)
        except Exception as exc:
            raise ViewStateError("view state is not valid base64") from exc
        if len(raw) < 32:
            raise ViewStateError("view state too short")
        payload, mac = raw[:-32], raw[-32:]
        expected = hmac.new(self._key, payload, hashlib.sha256).digest()
        if not hmac.compare_digest(mac, expected):
            raise ViewStateError("view state MAC mismatch (tampered?)")
        try:
            state = json.loads(payload.decode("utf-8"))
        except Exception as exc:  # pragma: no cover - MAC already passed
            raise ViewStateError("view state payload corrupt") from exc
        if not isinstance(state, dict):
            raise ViewStateError("view state must encode an object")
        return state


class Session:
    """One user's server-side state bag with last-access tracking."""

    __slots__ = ("id", "created", "last_access", "_data", "_lock")

    def __init__(self, session_id: str, created: float) -> None:
        self.id = session_id
        self.created = created
        self.last_access = created
        self._data: dict[str, Any] = {}
        self._lock = threading.Lock()

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def pop(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.pop(key, default)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._data)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._data


#: :meth:`SessionManager.create` sweeps expired sessions every this many calls.
SWEEP_INTERVAL = 256


class SessionManager:
    """Issues, resolves, expires sessions (sliding window).

    ``clock`` is injectable so expiry is testable without sleeping.
    Expired sessions are reclaimed by an amortized sweep every
    :data:`SWEEP_INTERVAL` creations, not only when presented again.
    """

    COOKIE_NAME = "SESSIONID"

    def __init__(
        self,
        timeout_seconds: float = 1200.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout_seconds
        self._clock = clock
        self._sessions: dict[str, Session] = {}
        self._created_since_sweep = 0
        self._lock = threading.Lock()

    def create(self) -> Session:
        session_id = secrets.token_urlsafe(18)
        now = self._clock()
        session = Session(session_id, now)
        with self._lock:
            self._created_since_sweep += 1
            if self._created_since_sweep >= SWEEP_INTERVAL:
                self._sweep_locked(now)
            self._sessions[session_id] = session
        return session

    def resolve(self, session_id: Optional[str]) -> Optional[Session]:
        """Return the live session or None (missing / expired).

        A hit slides the expiration window forward.
        """
        if not session_id:
            return None
        now = self._clock()
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                return None
            if now - session.last_access > self.timeout:
                del self._sessions[session_id]
                return None
            session.last_access = now
            return session

    def get_or_create(self, session_id: Optional[str]) -> tuple[Session, bool]:
        """Resolve or create; returns (session, created_flag)."""
        session = self.resolve(session_id)
        if session is not None:
            return session, False
        return self.create(), True

    def destroy(self, session_id: str) -> None:
        with self._lock:
            self._sessions.pop(session_id, None)

    def _sweep_locked(self, now: float) -> int:
        dead = [
            sid
            for sid, session in self._sessions.items()
            if now - session.last_access > self.timeout
        ]
        for sid in dead:
            del self._sessions[sid]
        self._created_since_sweep = 0
        return len(dead)

    def sweep(self) -> int:
        """Remove expired sessions; returns how many were evicted."""
        now = self._clock()
        with self._lock:
            return self._sweep_locked(now)

    def active_count(self) -> int:
        with self._lock:
            return len(self._sessions)


class ApplicationState:
    """Process-wide shared state with atomic read-modify-write.

    The canonical course demo is a hit counter shared by all request
    threads — naive ``state[k] += 1`` races; :meth:`update` does not.
    """

    def __init__(self) -> None:
        self._data: dict[str, Any] = {}
        self._lock = threading.RLock()

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def update(self, key: str, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Atomically apply ``fn`` to the current value; returns the new one."""
        with self._lock:
            new_value = fn(self._data.get(key, default))
            self._data[key] = new_value
            return new_value

    def increment(self, key: str, delta: int = 1) -> int:
        return self.update(key, lambda v: (v or 0) + delta, 0)

    def remove(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._data)
