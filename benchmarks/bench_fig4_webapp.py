"""Figure 4: the account-application web project.

Regenerates the project's full lifecycle — apply → credit check →
approval/rejection → user-ID issuance → password creation (match +
strength) → login — and benchmarks each tier: whole lifecycle through
the wire codec, business tier alone, and the XML data tier.
"""

import re

import pytest

from repro.apps import AccountProvider, AccountStore, Applicant, build_web_app
from repro.services import CreditScoreService
from repro.transport import HttpRequest, serve_once

CREDIT = CreditScoreService()
FORM = "application/x-www-form-urlencoded"


def ssn_pool(approved: bool, count: int):
    out = []
    for i in range(2000):
        ssn = f"{i // 100:02d}{i % 100:02d}-43-21{i % 100:02d}"[:11]
        ssn = f"{i:04d}"[:3] + f"-43-2{i % 1000:03d}"
        score = CREDIT.score(ssn=ssn, income=140_000 if approved else 0)
        if (score >= 600) == approved:
            out.append(ssn)
            if len(out) == count:
                return out
    raise AssertionError("ssn pool exhausted")


def post(app, path, **fields):
    body = "&".join(f"{k}={v}" for k, v in fields.items())
    return serve_once(
        app, HttpRequest("POST", path, {"Content-Type": FORM}, body.encode())
    )


def full_lifecycle(app, ssn):
    """One complete Figure 4 user journey; returns final login status."""
    response = post(
        app, "/apply",
        name="Ada", ssn=ssn, address="addr", dob="1990-07-04", income="140000",
    )
    assert response.status == 200
    user_id = re.search(r"U\d{5}", response.text()).group(0)
    response = post(
        app, f"/password/{user_id}", password="Str0ng!pass", retype="Str0ng!pass"
    )
    assert response.status == 200
    return post(app, "/login", user_id=user_id, password="Str0ng!pass").status


def test_fig4_decision_mix(report):
    """Both figure outcomes (approval and 'You do not qualify')."""
    provider = AccountProvider(AccountStore(), CREDIT.score)
    approved = rejected = 0
    for ssn in ssn_pool(True, 5):
        decision = provider.apply(Applicant("A", ssn, "x", "1990-01-01"), income=140_000)
        assert decision.approved and decision.user_id
        approved += 1
    for ssn in ssn_pool(False, 5):
        decision = provider.apply(Applicant("B", ssn, "x", "1990-01-01"), income=0)
        assert not decision.approved
        rejected += 1
    report(
        "Figure 4: decision mix",
        f"approved={approved} (user IDs issued), rejected={rejected} "
        f"('You do not qualify'), accounts stored={provider.store.count()}",
    )
    assert provider.store.count() == approved  # only approvals persist


def test_fig4_lifecycle_through_wire(report):
    app = build_web_app(AccountProvider(AccountStore(), CREDIT.score))
    statuses = [full_lifecycle(app, ssn) for ssn in ssn_pool(True, 3)]
    report("Figure 4: lifecycle through the wire codec",
           f"3 full journeys, login statuses: {statuses}")
    assert statuses == [200, 200, 200]


def test_fig4_password_gates(report):
    """The Match? and Strong? diamonds of the figure."""
    provider = AccountProvider(AccountStore(), CREDIT.score)
    ssn = ssn_pool(True, 1)[0]
    decision = provider.apply(Applicant("A", ssn, "x", "1990-01-01"), income=140_000)
    from repro.security import AuthError

    gates = []
    for password, retype in (("Str0ng!pass", "Other!pass1"), ("weak", "weak")):
        try:
            provider.create_password(decision.user_id, password, retype)
            gates.append("accepted")
        except AuthError as exc:
            gates.append("match" if "match" in str(exc) else "strength")
    provider.create_password(decision.user_id, "Str0ng!pass", "Str0ng!pass")
    gates.append("accepted")
    report("Figure 4: password gates", f"gate outcomes: {gates}")
    assert gates == ["match", "strength", "accepted"]


def test_bench_full_lifecycle(benchmark, report):
    """Latency of a complete user journey (3 HTTP round trips + PBKDF2)."""
    app = build_web_app(AccountProvider(AccountStore(), CREDIT.score))
    pool = iter(ssn_pool(True, 500))

    def journey():
        return full_lifecycle(app, next(pool))

    # pedantic: bounded rounds so the ssn pool cannot exhaust mid-run
    status = benchmark.pedantic(journey, rounds=10, iterations=1)
    assert status == 200


def test_bench_business_tier_apply(benchmark):
    provider = AccountProvider(AccountStore(), CREDIT.score)
    pool = iter(ssn_pool(True, 200))

    def apply_once():
        return provider.apply(
            Applicant("A", next(pool), "x", "1990-01-01"), income=140_000
        )

    decision = benchmark.pedantic(apply_once, rounds=50, iterations=1)
    assert decision.approved


def test_bench_xml_data_tier(benchmark, tmp_path):
    """Cost of schema-validating one account and persisting account.xml."""
    store = AccountStore(tmp_path / "account.xml")
    counter = iter(range(10_000_000))
    pool = iter(ssn_pool(True, 500))  # SSNs are unique in the store

    def persist():
        store.add_account(
            f"U{next(counter):07d}",
            Applicant("A", next(pool), "x", "1990-01-01"),
            700,
        )

    # bounded rounds: each insert validates only the new account but
    # rewrites the whole file, so unbounded calibration would measure a
    # growing file (and exhaust the SSN pool)
    benchmark.pedantic(persist, rounds=50, iterations=1)
    assert store.count() >= 1
