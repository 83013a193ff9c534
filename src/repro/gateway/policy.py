"""The gateway's security policy: bearer termination, RBAC, challenges.

:class:`SecurityPolicy` bundles the three security-layer pieces the
front door terminates on — :class:`~repro.security.auth.TokenIssuer`
(bearer tokens), :class:`~repro.security.access.AccessControl` (RBAC)
and :class:`~repro.security.auth.PasswordVault` (the ``/auth/token``
password exchange) — behind gateway-shaped methods:

* :meth:`authenticate` reads ``Authorization: Bearer <token>`` and
  returns a :class:`Principal`; missing or bad credentials raise
  :class:`GatewayAuthError` carrying the proper ``401`` challenge
  (``WWW-Authenticate: Bearer`` with RFC 6750 ``error`` attributes);
* :meth:`authorize` enforces a route's permission, raising a ``403``-
  shaped :class:`GatewayAuthError` when the principal lacks it;
* :meth:`login` runs the password exchange and mints a token whose
  roles are the principal's RBAC roles at issue time;
* :meth:`logout` revokes one token — or every token of the principal
  (``everywhere=True``), riding ``TokenIssuer.revoke_all``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.faults import AccessDenied
from ..security.access import AccessControl
from ..security.auth import AuthError, PasswordVault, TokenIssuer
from ..transport.http11 import HttpRequest

__all__ = ["Principal", "ANONYMOUS", "GatewayAuthError", "SecurityPolicy"]

_REALM = "repro-gateway"


@dataclass(frozen=True)
class Principal:
    """Who a request is from, as the gateway resolved it."""

    name: str
    roles: frozenset[str] = frozenset()
    anonymous: bool = False

    def rate_key(self, client_address: Optional[str]) -> str:
        """The rate-limit bucket key: principal name, or the client
        address for anonymous callers (every stranger shares per-IP)."""
        if not self.anonymous:
            return self.name
        return f"addr:{client_address or 'unknown'}"


ANONYMOUS = Principal("anonymous", anonymous=True)


class GatewayAuthError(Exception):
    """An authentication/authorization refusal with its HTTP shape."""

    def __init__(
        self, message: str, *, status: int, challenge: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.challenge = challenge  # WWW-Authenticate value for 401s


def _unauthorized(
    message: str, error: Optional[str] = None, description: Optional[str] = None
) -> GatewayAuthError:
    """A 401 refusal with its RFC 6750 ``WWW-Authenticate`` challenge."""
    parts = [f'Bearer realm="{_REALM}"']
    if error:
        parts.append(f'error="{error}"')
    if description:
        parts.append(f'error_description="{description}"')
    return GatewayAuthError(message, status=401, challenge=", ".join(parts))


class SecurityPolicy:
    """TokenIssuer + AccessControl + PasswordVault, gateway-shaped."""

    def __init__(
        self,
        issuer: Optional[TokenIssuer] = None,
        access: Optional[AccessControl] = None,
        vault: Optional[PasswordVault] = None,
    ) -> None:
        self.issuer = issuer or TokenIssuer()
        self.access = access or AccessControl()
        self.vault = vault or PasswordVault()

    # -- authentication --------------------------------------------------
    def bearer_token(self, request: HttpRequest) -> Optional[str]:
        header = request.headers.get("Authorization")
        if header is None:
            return None
        scheme, _, credentials = header.strip().partition(" ")
        if scheme.lower() != "bearer" or not credentials.strip():
            raise _unauthorized(
                "unsupported Authorization scheme (Bearer only)",
                "invalid_request",
                "Bearer scheme required",
            )
        return credentials.strip()

    def authenticate(self, request: HttpRequest) -> Principal:
        """Resolve the caller: a token-bearing principal or ANONYMOUS.

        A *presented* token that fails validation is always a 401 — even
        on public routes: a caller who tried to authenticate must learn
        their credential is bad, not be silently downgraded.
        """
        token = self.bearer_token(request)
        if token is None:
            return ANONYMOUS
        try:
            principal, roles = self.issuer.authenticate(token)
        except AuthError as exc:
            raise _unauthorized(str(exc), "invalid_token", str(exc)) from exc
        return Principal(principal, roles)

    def require(self, principal: Principal) -> None:
        """401 unless the caller actually authenticated."""
        if principal.anonymous:
            raise _unauthorized("authentication required")

    def authorize(self, principal: Principal, permission: str) -> None:
        """403 unless ``principal`` holds ``permission`` (401 if anonymous)."""
        self.require(principal)
        try:
            self.access.check(principal.name, permission)
        except AccessDenied as exc:
            raise GatewayAuthError(str(exc), status=403) from exc

    # -- token lifecycle -------------------------------------------------
    def login(self, user_id: str, password: str) -> tuple[str, float]:
        """Password exchange → ``(token, ttl_seconds)``; AuthError-shaped
        refusals become 401s (lockout included — don't leak which)."""
        try:
            ok = self.vault.login(user_id, password)
        except AuthError as exc:
            raise _unauthorized(str(exc), "invalid_grant") from exc
        if not ok:
            raise _unauthorized("bad credentials", "invalid_grant")
        roles = self.access.roles_of(user_id)
        return self.issuer.issue(user_id, roles), self.issuer.ttl

    def logout(self, request: HttpRequest, *, everywhere: bool = False) -> int:
        """Revoke the presented token (or all of the principal's);
        returns how many tokens were revoked."""
        token = self.bearer_token(request)
        if token is None:
            raise _unauthorized("authentication required")
        principal = self.authenticate(request)
        if everywhere:
            return self.issuer.revoke_all(principal.name)
        self.issuer.revoke(token)
        return 1
