"""Seeded inputs and response oracles for the four workloads.

Every client thread owns one generator: ``next_request()`` returns the
next :class:`HttpRequest` and its step label, and ``check(response)``
compares the answer to that request with what the system must have
said, returning a description of any mismatch.  The first ``warmup``
requests of a generator are not measured.  The same ``(seed, index)``
always yields the same inputs (the account flow also depends on the user
ids the system issues).
"""

from __future__ import annotations

import itertools
import random
import re
import string
from collections import deque
from typing import Optional
from urllib.parse import urlencode

from repro.apps import Applicant
from repro.apps.account_app import MIN_APPROVAL_SCORE
from repro.services import CreditScoreService
from repro.transport import HttpRequest, HttpResponse
from repro.xmlkit import Element, from_element, parse, to_element

WORKLOADS = ("gateway_tiny", "gateway_observed", "cache_mixed", "account_fig4")

#: Unmeasured requests per run, split over the client threads.
WARMUP_REQUESTS = 500
CLIENT_THREADS = 2

#: The benchmark principal the gateway workloads authenticate as.
PRINCIPAL = "bench"
PRINCIPAL_PASSWORD = "Bench-Load-42!"

# cache_mixed
CACHE_KEYS_PER_CLIENT = 256
CACHE_ZIPF_S = 1.1
CACHE_PUT_SHARE = 0.15
CACHE_VALUE_SIZES = (128, 1024, 4096, 16384)
CACHE_SIZE_WEIGHTS = (40, 30, 20, 10)
#: Far above the 512-key space: CRC-32 shards fill unevenly, and an
#: eviction would make a read disagree with the client's model.
CACHE_CAPACITY = 8192

# account_fig4
PREFILL_ACCOUNTS = 300
REAPPLY_SHARE = 0.10
LOW_SCORE_SHARE = 0.20
WEAK_PASSWORD_SHARE = 0.10
WRONG_PASSWORD_SHARE = 0.05
FORM = "application/x-www-form-urlencoded"
_USER_ID = re.compile(r"U\d{5}")

_CREDIT = CreditScoreService()


def _result_body(value: object) -> bytes:
    """The REST dialect's answer for ``value``, as the gateway frames it."""
    return to_element("result", value).toxml().encode("utf-8")


class RatingClient:
    """``gateway_tiny`` / ``gateway_observed``: bearer GETs of ``rating``."""

    def __init__(self, seed: int, index: int, token: str) -> None:
        self._rng = random.Random(f"{seed}:rating:{index}")
        self._headers = {"Authorization": f"Bearer {token}"}
        self._expected = {
            score: _result_body(_CREDIT.rating(score=score))
            for score in range(300, 851)
        }
        self._score = 0
        self.warmup = WARMUP_REQUESTS // CLIENT_THREADS

    def next_request(self) -> tuple[HttpRequest, str]:
        self._score = self._rng.randint(300, 850)
        target = f"/api/CreditScore/rating?score={self._score}"
        return HttpRequest("GET", target, dict(self._headers)), "rating"

    def check(self, response: HttpResponse) -> Optional[str]:
        if response.status != 200 or response.body != self._expected[self._score]:
            return f"rating({self._score}) -> {response.status} {response.body[:80]!r}"
        return None


class CacheClient:
    """``cache_mixed``: Zipf reads and writes over this client's own keys.

    The client's model holds the answer each key must give: not found
    until its first write, then the last value this client wrote.  Every
    key is written once during warm-up, so measured reads find values.
    """

    def __init__(self, seed: int, index: int, token: str) -> None:
        self._rng = random.Random(f"{seed}:cache:{index}")
        self._headers = {"Authorization": f"Bearer {token}"}
        self._keys = [f"c{index}-k{rank:03d}" for rank in range(CACHE_KEYS_PER_CLIENT)]
        weights = [1.0 / (rank + 1) ** CACHE_ZIPF_S for rank in range(len(self._keys))]
        self._cumulative = list(itertools.accumulate(weights))
        filler_rng = random.Random(f"{seed}:filler:{index}")
        self._filler = "".join(
            filler_rng.choice(string.ascii_letters) for _ in range(max(CACHE_VALUE_SIZES))
        )
        self._model: dict[str, bytes] = {}
        self._unwritten = deque(self._keys)
        self._version = 0
        self._last: tuple[str, str, str] = ("", "", "")
        self.warmup = max(len(self._keys), WARMUP_REQUESTS // CLIENT_THREADS)

    def next_request(self) -> tuple[HttpRequest, str]:
        if self._unwritten:
            return self._put(self._unwritten.popleft())
        key = self._rng.choices(self._keys, cum_weights=self._cumulative)[0]
        if self._rng.random() < CACHE_PUT_SHARE:
            return self._put(key)
        self._last = ("get", key, "")
        target = f"/api/CacheService/get?key={key}"
        return HttpRequest("GET", target, dict(self._headers)), "get"

    def _put(self, key: str) -> tuple[HttpRequest, str]:
        size = self._rng.choices(CACHE_VALUE_SIZES, weights=CACHE_SIZE_WEIGHTS)[0]
        self._version += 1
        stamp = f"{key}.{self._version}."
        value = stamp + self._filler[: size - len(stamp)]
        body = Element("arguments")
        body.append(to_element("key", key))
        body.append(to_element("value", value))
        headers = {**self._headers, "Content-Type": "application/xml"}
        self._last = ("put", key, value)
        request = HttpRequest(
            "POST", "/api/CacheService/put", headers, body.toxml().encode("utf-8")
        )
        return request, "put"

    def check(self, response: HttpResponse) -> Optional[str]:
        kind, key, value = self._last
        if kind == "get":
            expected = self._model.get(key) or _result_body(
                {"key": key, "found": False, "value": None}
            )
            if response.status != 200 or response.body != expected:
                return f"get({key}) -> {response.status} {response.body[:80]!r}"
            return None
        if response.status != 200:
            return f"put({key}) -> {response.status} {response.body[:80]!r}"
        answer = from_element(parse(response.text()))
        if answer.get("stored") != key or not isinstance(answer.get("entries"), int):
            return f"put({key}) -> {answer!r}"
        self._model[key] = _result_body({"key": key, "found": True, "value": value})
        return None


def prefill_applicants(seed: int) -> list[tuple[str, Applicant, int]]:
    """The accounts ``account_fig4``'s store starts with: (id, applicant, score).

    Their SSNs use areas 900-999, which no client draws, so re-applying
    with one is the only way a client meets an existing SSN.
    """
    rng = random.Random(f"{seed}:prefill")
    accounts = []
    seen: set[str] = set()
    while len(accounts) < PREFILL_ACCOUNTS:
        ssn = f"{rng.randint(900, 999)}-{rng.randint(1, 99):02d}-{rng.randint(1, 9999):04d}"
        if ssn in seen:
            continue
        seen.add(ssn)
        applicant = Applicant(
            f"Prefill {len(accounts)}", ssn, f"{rng.randint(1, 999)} Elm St", "1970-01-01"
        )
        accounts.append(
            (f"U{len(accounts) + 1:05d}", applicant, _CREDIT.score(ssn=ssn, income=0.0))
        )
    return accounts


class AccountClient:
    """``account_fig4``: browser sessions apply -> password -> login.

    Each session is planned from the seed: a re-application with a
    prefilled SSN (403), a low score (403), or an approval (200 and a
    ``U\\d{5}`` id) followed by an optional weak password (400), the
    strong one (200), an optional wrong login (401) and the login (200
    with ``Set-Cookie``).  The expected score comes from a local
    :class:`CreditScoreService`.  A mismatch abandons the session.
    """

    def __init__(self, seed: int, index: int, token: str) -> None:
        self._rng = random.Random(f"{seed}:account:{index}")
        self._prefilled = [applicant for _id, applicant, _score in prefill_applicants(seed)]
        # disjoint SSN areas per client: no two sessions share an applicant
        self._areas = (100 + 400 * index, 499 + 400 * index)
        self._used: set[str] = set()
        self._steps: deque[tuple[str, str]] = deque()
        self._expect: tuple[str, int] = ("", 0)
        self._form = ""
        self._user_id = ""
        self._password = ""
        self._count = 0
        self.warmup = WARMUP_REQUESTS // CLIENT_THREADS

    def _applicant(self, approvable: bool) -> tuple[Applicant, float]:
        rng = self._rng
        income = float(rng.randrange(0, 160_000, 1000))
        while True:
            ssn = (
                f"{rng.randint(*self._areas)}-{rng.randint(1, 99):02d}-"
                f"{rng.randint(1, 9999):04d}"
            )
            if ssn in self._used:
                continue
            score = _CREDIT.score(ssn=ssn, income=income)
            if (score >= MIN_APPROVAL_SCORE) == approvable:
                self._used.add(ssn)
                break
        self._count += 1
        dob = f"{rng.randint(1950, 2004)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        applicant = Applicant(f"Applicant {self._count}", ssn, "10 Downing St", dob)
        return applicant, income

    def _plan_session(self) -> None:
        roll = self._rng.random()
        if roll < REAPPLY_SHARE:
            applicant, income = self._rng.choice(self._prefilled), 0.0
            self._steps.append(("apply", "reapply"))
        elif roll < REAPPLY_SHARE + LOW_SCORE_SHARE:
            applicant, income = self._applicant(approvable=False)
            self._steps.append(("apply", "low"))
        else:
            applicant, income = self._applicant(approvable=True)
            self._steps.append(("apply", "approve"))
            if self._rng.random() < WEAK_PASSWORD_SHARE:
                self._steps.append(("password", "weak"))
            self._steps.append(("password", "strong"))
            if self._rng.random() < WRONG_PASSWORD_SHARE:
                self._steps.append(("login", "wrong"))
            self._steps.append(("login", "right"))
        self._form = urlencode(
            {
                "name": applicant.name,
                "ssn": applicant.ssn,
                "address": applicant.address,
                "dob": applicant.dob,
                "income": f"{income:.0f}",
            }
        )
        self._password = f"Str0ng!{self._rng.randrange(10**6):06d}"

    def next_request(self) -> tuple[HttpRequest, str]:
        if not self._steps:
            self._plan_session()
        step, variant = self._steps.popleft()
        if step == "apply":
            target, form = "/apply", self._form
            status = 200 if variant == "approve" else 403
        elif step == "password":
            password = self._password if variant == "strong" else "weakpass"
            target = f"/password/{self._user_id}"
            form = urlencode({"password": password, "retype": password})
            status = 200 if variant == "strong" else 400
        else:
            password = self._password if variant == "right" else self._password + "x"
            target, form = "/login", urlencode({"user_id": self._user_id, "password": password})
            status = 200 if variant == "right" else 401
        self._expect = (variant, status)
        request = HttpRequest("POST", target, {"Content-Type": FORM}, form.encode("ascii"))
        return request, step

    def check(self, response: HttpResponse) -> Optional[str]:
        variant, status = self._expect
        problem = None
        if response.status != status:
            problem = f"{variant}: expected {status}, got {response.status}"
        elif variant == "approve":
            match = _USER_ID.search(response.text())
            if match is None:
                problem = "approved page carries no U-number user id"
            else:
                self._user_id = match.group(0)
        elif variant == "right" and response.headers.get("Set-Cookie") is None:
            problem = "login answered without Set-Cookie"
        if problem is not None:
            self._steps.clear()  # abandon the session
        return problem


CLIENTS = {
    "gateway_tiny": RatingClient,
    "gateway_observed": RatingClient,
    "cache_mixed": CacheClient,
    "account_fig4": AccountClient,
}
