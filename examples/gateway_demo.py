#!/usr/bin/env python
"""Gateway walkthrough: one mediated front door for every consumer.

The integration unit's capstone pattern in one script:

1. a 3-replica ``Quote`` service is published behind a broker — but
   consumers never learn its addresses;
2. a ``Gateway`` fronts it: bearer-token auth, RBAC (``quote:read``),
   per-principal rate limits and balanced forwarding over the fleet;
3. a client logs in at ``POST /auth/token``, calls through the gateway,
   and gets thrown out again the moment the token is revoked;
4. an impatient anonymous caller meets the 429 + ``Retry-After`` wall;
5. a replica is hard-killed mid-traffic — the gateway's balancer
   absorbs it, and the gateway's own ``/metrics`` page shows the toll
   booth's books.
"""

import json
import time

from repro.core import Service, ServiceBroker, operation
from repro.gateway import (
    Gateway,
    GatewayRoute,
    RateLimiter,
    RateLimitPolicy,
    SecurityPolicy,
)
from repro.replication import publish_replicated
from repro.security.access import AccessControl
from repro.security.auth import PasswordVault, TokenIssuer
from repro.transport.client import HttpClient

PASSWORD = "Demo-Horse-42"


class Quote(Service):
    """A tiny quotation service, replicated three ways."""

    category = "demo"

    @operation(idempotent=True)
    def quote(self, symbol: str) -> str:
        """Return a deterministic 'price' for a symbol."""
        return f"{symbol}:{sum(symbol.encode()) % 997}"


def main() -> None:
    # -- the security plane the gateway terminates on ------------------
    vault = PasswordVault()
    vault.set_password("ada", PASSWORD, PASSWORD)
    access = AccessControl()
    access.define_role("trader", ["quote:read"])
    access.assign_role("ada", "trader")
    security = SecurityPolicy(TokenIssuer(), access, vault)

    limiter = RateLimiter(
        RateLimitPolicy(rate=200.0, burst=50.0, quota=10_000),
        anonymous=RateLimitPolicy(rate=5.0, burst=2.0),
    )

    broker = ServiceBroker()
    with publish_replicated(Quote, broker, 3) as fleet:
        print(f"published {len(fleet)} replicas of 'Quote' "
              "(addresses stay behind the gateway)")

        gw = Gateway(
            broker,
            [GatewayRoute("/api/Quote", "Quote", permission="quote:read")],
            security=security,
            limiter=limiter,
        )
        with gw:
            print(f"gateway up at {gw.base_url}")
            client = HttpClient(gw.server.host, gw.server.port)

            # 1. anonymous callers bounce off the protected route
            refused = client.get("/api/Quote/quote?symbol=IBM")
            print(f"anonymous call   -> {refused.status} "
                  f"({refused.headers.get('WWW-Authenticate')})")

            # 2. issue a token, call through the front door
            response = client.post(
                "/auth/token",
                f"user=ada&password={PASSWORD}",
                content_type="application/x-www-form-urlencoded",
            )
            token = json.loads(response.text())["token"]
            print(f"token issued     -> {response.status} "
                  f"(expires_in={json.loads(response.text())['expires_in']:.0f}s)")
            headers = {"Authorization": f"Bearer {token}"}
            ok = client.get("/api/Quote/quote?symbol=IBM", headers=headers)
            print(f"mediated call    -> {ok.status} {ok.text()}")

            # 3. the anonymous rate limit: burst of 2, then 429
            for _ in range(2):
                client.post("/auth/token", "user=eve&password=nope",
                            content_type="application/x-www-form-urlencoded")
            walled = client.post("/auth/token", "user=eve&password=nope",
                                 content_type="application/x-www-form-urlencoded")
            retry_after = float(walled.headers.get("Retry-After", "0"))
            print(f"brute-force wall -> {walled.status} "
                  f"(Retry-After {retry_after:.2f}s)")

            # 4. kill a replica mid-traffic; the gateway absorbs it
            fleet.kill(0)
            survived = sum(
                client.get(f"/api/Quote/quote?symbol=SYM{i}",
                           headers=headers).status == 200
                for i in range(10)
            )
            print(f"replica killed   -> {survived}/10 calls still ok")

            # 5. revoke the token; the door closes instantly
            client.post("/auth/logout?everywhere=true", "", headers=headers)
            out = client.get("/api/Quote/quote?symbol=IBM", headers=headers)
            print(f"after logout     -> {out.status}")

            # 6. the gateway's own books
            exposition = client.get("/metrics").text()
            served = next(
                line for line in exposition.splitlines()
                if line.startswith("repro_gateway_requests_total")
                and 'outcome="ok"' in line and "/api/Quote" in line
            )
            print(f"gateway metrics  -> {served}")
            client.close()
    print("done: consumers saw one address, one token flow, zero faults")


if __name__ == "__main__":
    main()
