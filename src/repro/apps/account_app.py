"""The CSE445 final project (Figure 4): a three-tier account application.

Client side: "an end user applies for an account by submitting necessary
information" (Name, SSN, Address, DoB).  Provider side: check the
applicant doesn't already exist → call the **credit score Web service**
→ approve or reject → issue a user ID → store to ``account.xml`` →
the user creates a password (Match? / Strong? checks) → login.

Three tiers, exactly as graded:

* presentation — :func:`build_web_app`: pages over :class:`WebApp`
  (apply form, result page, create-password page, login page)
* business logic — :class:`AccountProvider`: the Figure 4 decision
  flowchart, with the credit service injected as a dependency (any
  invoker: local instance, bus proxy, SOAP/REST proxy)
* data management — :class:`AccountStore`: account records indexed by
  user id and SSN, persisted as the ``account.xml`` document (our own XML
  stack); a load validates the whole document, a write the one account
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from ..core.faults import ServiceFault
from ..security.auth import AuthError, PasswordPolicy, PasswordVault, verify_password
from ..transport.http11 import HttpResponse
from ..web.app import RequestContext, WebApp
from ..web.forms import Field, Form, iso_date, required, ssn
from ..web.templates import Template
from ..xmlkit import (
    Attribute,
    Element,
    Schema,
    STRING,
    element,
    parse,
    sequence,
    string_type,
)

__all__ = ["Applicant", "Decision", "AccountStore", "AccountProvider", "build_web_app"]

MIN_APPROVAL_SCORE = 600
_DUPLICATE_SSN = "an account already exists for this SSN"


@dataclass(frozen=True)
class Applicant:
    """The Figure 4 client form payload."""

    name: str
    ssn: str
    address: str
    dob: str  # ISO date


@dataclass(frozen=True)
class Decision:
    """Outcome of an application."""

    approved: bool
    score: int
    user_id: Optional[str] = None
    reason: str = ""


ACCOUNT_DECL = element(
    "account",
    sequence(
        element("name", STRING),
        element("ssn", string_type(pattern=r"\d{3}-\d{2}-\d{4}")),
        element("address", STRING),
        element("dob", string_type(pattern=r"\d{4}-\d{2}-\d{2}")),
        element("score", STRING),
        element("password", STRING, min_occurs=0),
    ),
    min_occurs=0,
    max_occurs=None,
    attributes={"id": Attribute("id", STRING, required=True)},
)

# The root is an unbounded sequence of ACCOUNT_DECL alone, with no
# attributes and no text, so a document is valid exactly when each of its
# accounts is: a write need only check the one account it changes.
ACCOUNT_SCHEMA = Schema(element("accounts", sequence(ACCOUNT_DECL)))
_RECORD_SCHEMA = Schema(ACCOUNT_DECL)

#: Child elements of ``<account>``, in schema order (``password`` optional).
_FIELDS = ("name", "ssn", "address", "dob", "score", "password")


@dataclass(slots=True)
class _Account:
    """One ``<account>`` of the data tier, held as plain strings."""

    user_id: str
    name: str
    ssn: str
    address: str
    dob: str
    score: str
    password: Optional[str] = None

    @classmethod
    def from_element(cls, account: Element) -> "_Account":
        texts = {child.tag: child.text for child in account.elements()}
        return cls(account.get("id", ""), *(texts.get(name) for name in _FIELDS))

    def to_element(self) -> Element:
        account = Element("account", {"id": self.user_id})
        for name in _FIELDS:
            value = getattr(self, name)
            if value is not None:
                account.append(Element(name, text=value))
        return account


def _checked(account: _Account) -> _Account:
    """``account`` once it conforms to :data:`ACCOUNT_DECL`; else SchemaError."""
    _RECORD_SCHEMA.assert_valid(account.to_element())
    return account


class AccountStore:
    """``account.xml`` persistence — the data-management tier.

    In memory the store is a set of compact account records indexed by
    user id and by SSN; ``account.xml`` is its persisted form.  Loading a
    file validates the whole document against :data:`ACCOUNT_SCHEMA`.  A
    write validates only the account it changes, against
    :data:`ACCOUNT_DECL`, before the store changes — enough to keep the
    document valid, since the root admits any sequence of valid accounts —
    then rewrites the file.  User ids and SSNs are unique.  In-memory mode
    (no path) supports tests and benchmarks.
    """

    def __init__(self, path: Optional[Path | str] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._by_id: dict[str, _Account] = {}
        self._by_ssn: dict[str, _Account] = {}
        self._lock = threading.Lock()
        if self.path is not None and self.path.exists():
            root = parse(self.path.read_text("utf-8"))
            ACCOUNT_SCHEMA.assert_valid(root)
            for element_ in root.elements("account"):
                account = _Account.from_element(element_)
                if account.user_id in self._by_id:
                    raise ValueError(f"duplicate user id {account.user_id!r} in {self.path}")
                self._by_id[account.user_id] = account
                # older files may repeat an SSN: the first account keeps it
                self._by_ssn.setdefault(account.ssn, account)

    def _persist_locked(self) -> None:
        if self.path is not None:
            root = Element(
                "accounts", None, *(account.to_element() for account in self._by_id.values())
            )
            self.path.write_text(root.topretty(), "utf-8")

    # -- queries --------------------------------------------------------
    def has_id(self, user_id: str) -> bool:
        """Whether an account has this user id."""
        with self._lock:
            return user_id in self._by_id

    def has_ssn(self, ssn_value: str) -> bool:
        """Whether an account has this SSN."""
        with self._lock:
            return ssn_value in self._by_ssn

    def find_by_ssn(self, ssn_value: str) -> Optional[Element]:
        """A detached ``<account>`` element for this SSN, or None."""
        with self._lock:
            account = self._by_ssn.get(ssn_value)
        return account.to_element() if account is not None else None

    def find_by_id(self, user_id: str) -> Optional[Element]:
        """A detached ``<account>`` element for this user id, or None."""
        with self._lock:
            account = self._by_id.get(user_id)
        return account.to_element() if account is not None else None

    def count(self) -> int:
        with self._lock:
            return len(self._by_id)

    def user_ids(self) -> list[str]:
        with self._lock:
            return list(self._by_id)

    # -- mutations ------------------------------------------------------------
    def add_account(self, user_id: str, applicant: Applicant, score: int) -> None:
        """Store a new account; ValueError (SchemaError when the record is
        invalid) leaves the store unchanged."""
        account = _checked(
            _Account(
                user_id, applicant.name, applicant.ssn, applicant.address,
                applicant.dob, str(score),
            )
        )
        with self._lock:
            if user_id in self._by_id:
                raise ValueError(f"duplicate user id {user_id!r}")
            if applicant.ssn in self._by_ssn:
                raise ValueError(f"an account already exists for SSN {applicant.ssn!r}")
            self._by_id[user_id] = self._by_ssn[applicant.ssn] = account
            self._persist_locked()

    def set_password_record(self, user_id: str, stored_hash: str) -> None:
        """Store (or replace) the ``salt$hash`` record of an account."""
        with self._lock:
            account = self._by_id.get(user_id)
            if account is None:
                raise ValueError(f"no account {user_id!r}")
            _checked(replace(account, password=stored_hash))
            account.password = stored_hash
            self._persist_locked()

    def password_record(self, user_id: str) -> Optional[str]:
        with self._lock:
            account = self._by_id.get(user_id)
        return account.password if account is not None else None


CreditInvoker = Callable[..., int]


class AccountProvider:
    """Business-logic tier: the Figure 4 provider flowchart.

    ``credit_score`` is any callable ``(ssn=..., income=...) -> int`` —
    the local :class:`~repro.services.commerce.CreditScoreService`
    operation, or a proxy over any binding.
    """

    def __init__(
        self,
        store: AccountStore,
        credit_score: CreditInvoker,
        *,
        policy: Optional[PasswordPolicy] = None,
        min_score: int = MIN_APPROVAL_SCORE,
    ) -> None:
        self.store = store
        self.credit_score = credit_score
        self.vault = PasswordVault(policy or PasswordPolicy())
        self.min_score = min_score
        self._next_id = store.count()
        self._lock = threading.Lock()

    # -- the Figure 4 pipeline -----------------------------------------------
    def apply(self, applicant: Applicant, income: float = 0.0) -> Decision:
        """AddUserInfo → Check existence → Check credit score → Approval?
        → Create account → Issue User ID."""
        if self.store.has_ssn(applicant.ssn):
            return Decision(False, 0, reason=_DUPLICATE_SSN)
        try:
            score = int(self.credit_score(ssn=applicant.ssn, income=income))
        except ServiceFault as exc:
            return Decision(False, 0, reason=f"credit check failed: {exc}")
        if score < self.min_score:
            return Decision(
                False, score, reason=f"credit score {score} below {self.min_score}"
            )
        with self._lock:
            self._next_id += 1
            user_id = f"U{self._next_id:05d}"
        try:
            self.store.add_account(user_id, applicant, score)
        except ValueError:
            # the store checks SSNs under its lock: a concurrent application
            # with this SSN may have won since the check above
            if not self.store.has_ssn(applicant.ssn):
                raise
            return Decision(False, 0, reason=_DUPLICATE_SSN)
        return Decision(True, score, user_id=user_id)

    def create_password(self, user_id: str, password: str, confirmation: str) -> None:
        """addPwd: Match? → Strong? → store (Figure 4's right half)."""
        if not self.store.has_id(user_id):
            raise AuthError(f"no account {user_id!r}")
        stored = self.vault.set_password(user_id, password, confirmation)
        # persist the same salted hash alongside the account (the XML data tier)
        self.store.set_password_record(user_id, stored)

    def login(self, user_id: str, password: str) -> bool:
        """Login against the vault, falling back to the XML record (fresh
        process after restart — the persistence lesson)."""
        if self.vault.has_password(user_id):
            return self.vault.login(user_id, password)
        stored = self.store.password_record(user_id)
        if stored is None:
            return False
        return verify_password(password, stored)


# ---------------------------------------------------------------------------
# presentation tier
# ---------------------------------------------------------------------------

APPLY_FORM = Form(
    "apply",
    [
        Field("name", validators=[required()]),
        Field("ssn", label="SSN", validators=[required(), ssn()]),
        Field("address", validators=[required()]),
        Field("dob", label="DoB", validators=[required(), iso_date()]),
    ],
)

_PAGE = Template(
    """<html><head><title>{{ title }}</title></head><body>
<h1>{{ title }}</h1>{{ body | raw }}</body></html>"""
)

_RESULT = Template(
    """{% if approved %}<p class="ok">Approved. Your User ID is <b>{{ user_id }}</b>
(score {{ score }}). <a href="/password/{{ user_id }}">Create Password</a></p>
{% else %}<p class="fail">You do not qualify: {{ reason }}</p>{% endif %}"""
)


def build_web_app(provider: AccountProvider) -> WebApp:
    """Wire the Figure 4 pages onto a :class:`WebApp`."""
    app = WebApp()

    @app.page("/", methods=("GET",))
    def index(context: RequestContext) -> HttpResponse:
        body = APPLY_FORM.render("/apply", submit_label="Subscribe")
        return HttpResponse.html_response(_PAGE.render(title="Account Application", body=body))

    @app.page("/apply", methods=("POST",))
    def apply(context: RequestContext) -> HttpResponse:
        result = APPLY_FORM.validate(context.form)
        if not result.ok:
            body = APPLY_FORM.render("/apply", result.values, result.errors, "Subscribe")
            return HttpResponse.html_response(
                _PAGE.render(title="Account Application", body=body), status=400
            )
        decision = provider.apply(
            Applicant(
                result.values["name"],
                result.values["ssn"],
                result.values["address"],
                result.values["dob"],
            ),
            income=float(context.form.get("income", "0") or 0),
        )
        context.session.set("last_decision", decision.approved)
        body = _RESULT.render(
            approved=decision.approved,
            user_id=decision.user_id or "",
            score=decision.score,
            reason=decision.reason,
        )
        return HttpResponse.html_response(
            _PAGE.render(title="Decision", body=body),
            status=200 if decision.approved else 403,
        )

    @app.page("/password/{user_id}", methods=("GET", "POST"))
    def password(context: RequestContext, user_id: str) -> HttpResponse:
        if context.method == "GET":
            body = (
                f'<form method="POST" action="/password/{user_id}">'
                '<input type="password" name="password"/>'
                '<input type="password" name="retype"/>'
                "<button>Create Password</button></form>"
            )
            return HttpResponse.html_response(_PAGE.render(title="Create Password", body=body))
        form = context.form
        try:
            provider.create_password(
                user_id, form.get("password", ""), form.get("retype", "")
            )
        except AuthError as exc:
            return HttpResponse.html_response(
                _PAGE.render(title="Create Password", body=f"<p>{exc}</p>"), status=400
            )
        return HttpResponse.html_response(
            _PAGE.render(title="Create Password", body="<p>Password set. <a href='/login'>Login</a></p>")
        )

    @app.page("/login", methods=("GET", "POST"))
    def login(context: RequestContext) -> HttpResponse:
        if context.method == "GET":
            body = (
                '<form method="POST" action="/login">'
                '<input name="user_id"/><input type="password" name="password"/>'
                "<button>Login</button></form>"
            )
            return HttpResponse.html_response(_PAGE.render(title="Login", body=body))
        form = context.form
        try:
            ok = provider.login(form.get("user_id", ""), form.get("password", ""))
        except AuthError as exc:
            return HttpResponse.html_response(
                _PAGE.render(title="Login", body=f"<p>{exc}</p>"), status=423
            )
        if not ok:
            return HttpResponse.html_response(
                _PAGE.render(title="Login", body="<p>Invalid credentials.</p>"), status=401
            )
        context.session.set("user_id", form.get("user_id", ""))
        return HttpResponse.html_response(
            _PAGE.render(title="Welcome", body=f"<p>Hello, {form.get('user_id','')}.</p>")
        )

    @app.page("/me", methods=("GET",))
    def me(context: RequestContext) -> HttpResponse:
        user_id = context.session.get("user_id")
        if not user_id:
            return HttpResponse.redirect("/login")
        return HttpResponse.html_response(
            _PAGE.render(title="My Account", body=f"<p>Signed in as {user_id}.</p>")
        )

    return app
