"""Tests for the Figure 4 data tier: indexed records persisted as account.xml.

Covers the per-record validity contract (a write checks one account, and a
rejected write leaves the store unchanged), SSN uniqueness under
concurrency, one PBKDF2 run per created password, files written by the
earlier whole-document store, and a seeded randomized run against a dict
model.
"""

import random
import threading

import pytest

from repro.apps import AccountProvider, AccountStore, Applicant
from repro.apps.account_app import ACCOUNT_SCHEMA
from repro.security import auth as auth_module
from repro.xmlkit import SchemaError, parse
from repro.xmlkit import schema as schema_module

from .test_account_app import CREDIT, GOOD_SSN

VALID = Applicant("Ada Lovelace", "123-45-6789", "10 Downing St", "1990-07-04")


def applicant(ssn, name="A"):
    return Applicant(name, ssn, "x", "1990-01-01")


def snapshot(store):
    """Every account as serialized XML, in store order."""
    return [(uid, store.find_by_id(uid).toxml()) for uid in store.user_ids()]


class TestRejectedWrites:
    def test_invalid_add_leaves_store_usable(self):
        store = AccountStore()
        with pytest.raises(SchemaError):
            store.add_account("U00001", Applicant("A", "not-an-ssn", "x", "1990-01-01"), 700)
        assert store.count() == 0
        assert not store.has_id("U00001")
        store.add_account("U00002", VALID, 700)
        assert store.count() == 1
        assert store.find_by_ssn(VALID.ssn).get("id") == "U00002"

    def test_invalid_add_does_not_touch_the_file(self, tmp_path):
        path = tmp_path / "account.xml"
        store = AccountStore(path)
        store.add_account("U00001", VALID, 700)
        before = path.read_text("utf-8")
        with pytest.raises(SchemaError):
            store.add_account("U00002", Applicant("B", "987-65-4321", "x", "04/07/1990"), 700)
        assert path.read_text("utf-8") == before
        assert AccountStore(path).user_ids() == ["U00001"]

    def test_duplicate_ssn_rejected_by_store(self):
        store = AccountStore()
        store.add_account("U00001", VALID, 700)
        with pytest.raises(ValueError, match="SSN"):
            store.add_account("U00002", VALID, 700)
        assert store.user_ids() == ["U00001"]

    def test_lookups_return_detached_elements(self):
        store = AccountStore()
        store.add_account("U00001", VALID, 700)
        found = store.find_by_id("U00001")
        found.set("id", "U99999")
        found.find("ssn").text = "000-00-0000"
        assert store.find_by_id("U00001").find("ssn").text == VALID.ssn
        assert store.has_ssn(VALID.ssn) and not store.has_ssn("000-00-0000")


class TestWriteCost:
    def test_add_validates_one_account_at_any_size(self, monkeypatch):
        """Schema element visits per add do not grow with the store."""
        visits = []
        real_validate = schema_module._validate_element

        def counting(node, decl, path, violations):
            visits.append(node.tag)
            return real_validate(node, decl, path, violations)

        monkeypatch.setattr(schema_module, "_validate_element", counting)

        def visits_for_one_add(size):
            store = AccountStore()
            for i in range(size):
                store.add_account(f"U{i:05d}", applicant(f"{i // 10000:03d}-00-{i % 10000:04d}"), 700)
            visits.clear()
            store.add_account("U99999", VALID, 700)
            return list(visits)

        small, large = visits_for_one_add(10), visits_for_one_add(1000)
        assert small == large
        assert small[0] == "account" and small.count("account") == 1
        assert "accounts" not in small


class TestProviderDataTier:
    def test_concurrent_applications_with_one_ssn_approve_once(self):
        """The duplicate check and the insert are split by the credit call;
        the store's SSN index closes the race."""
        both_checked = threading.Barrier(2, timeout=5.0)

        def slow_credit(ssn, income):
            both_checked.wait()  # both applications passed the early check
            return CREDIT.score(ssn=ssn, income=income)

        store = AccountStore()
        provider = AccountProvider(store, slow_credit)
        decisions = []

        def apply():
            decisions.append(provider.apply(applicant(GOOD_SSN), income=120_000))

        threads = [threading.Thread(target=apply) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not both_checked.broken
        assert sorted(d.approved for d in decisions) == [False, True]
        loser = next(d for d in decisions if not d.approved)
        assert "already exists" in loser.reason
        assert store.count() == 1

    def test_create_password_hashes_once(self, monkeypatch):
        calls = []
        real_hash = auth_module.hash_password

        def counting_hash(password, salt=None):
            calls.append(password)
            return real_hash(password, salt)

        monkeypatch.setattr(auth_module, "hash_password", counting_hash)
        store = AccountStore()
        provider = AccountProvider(store, CREDIT.score)
        decision = provider.apply(applicant(GOOD_SSN), income=120_000)
        provider.create_password(decision.user_id, "Str0ng!pass", "Str0ng!pass")
        assert len(calls) == 1
        stored = store.password_record(decision.user_id)
        assert auth_module.verify_password("Str0ng!pass", stored)
        assert provider.vault._records[decision.user_id] == stored


# Written by the whole-document store this one replaced: the same operations
# (two adds, then a password) must still load, and still write these bytes.
LEGACY_XML = (
    '<accounts>\n  <account id="U00001">\n    <name>Ada &amp; Co</name>\n'
    "    <ssn>123-45-6789</ssn>\n    <address>10 &lt;Downing&gt; St</address>\n"
    "    <dob>1990-07-04</dob>\n    <score>700</score>\n"
    "    <password>c0ffee$d00d</password>\n  </account>\n"
    '  <account id="U00002">\n    <name>Grace</name>\n    <ssn>987-65-4321</ssn>\n'
    "    <address></address>\n    <dob>1985-05-05</dob>\n    <score>640</score>\n"
    "  </account>\n</accounts>"
)


class TestCompatibility:
    def test_legacy_file_loads(self, tmp_path):
        path = tmp_path / "account.xml"
        path.write_text(LEGACY_XML, "utf-8")
        store = AccountStore(path)
        assert store.user_ids() == ["U00001", "U00002"]
        assert store.find_by_ssn("987-65-4321").get("id") == "U00002"
        assert store.find_by_id("U00001").find("name").text == "Ada & Co"
        assert store.find_by_id("U00002").find("address").text == ""
        assert store.password_record("U00001") == "c0ffee$d00d"
        assert store.password_record("U00002") is None

    def test_same_operations_write_the_same_bytes(self, tmp_path):
        path = tmp_path / "account.xml"
        store = AccountStore(path)
        store.add_account(
            "U00001", Applicant("Ada & Co", "123-45-6789", "10 <Downing> St", "1990-07-04"), 700
        )
        store.add_account("U00002", Applicant("Grace", "987-65-4321", "", "1985-05-05"), 640)
        store.set_password_record("U00001", "c0ffee$d00d")
        assert path.read_text("utf-8") == LEGACY_XML

    def test_legacy_duplicate_ssn_loads_first_account_wins(self, tmp_path):
        """The earlier store let two accounts share an SSN."""
        path = tmp_path / "account.xml"
        path.write_text(LEGACY_XML.replace("987-65-4321", "123-45-6789"), "utf-8")
        store = AccountStore(path)
        assert store.count() == 2
        assert store.find_by_ssn("123-45-6789").get("id") == "U00001"
        store.set_password_record("U00002", "aa$bb")
        assert AccountStore(path).password_record("U00002") == "aa$bb"

    def test_duplicate_user_id_in_file_rejected(self, tmp_path):
        path = tmp_path / "account.xml"
        path.write_text(LEGACY_XML.replace("U00002", "U00001"), "utf-8")
        with pytest.raises(ValueError, match="duplicate user id"):
            AccountStore(path)


def _random_ssn(rng):
    return f"{rng.randint(100, 999)}-{rng.randint(10, 99)}-{rng.randint(1000, 9999)}"


def _run_random_operations(seed, path, steps):
    rng = random.Random(seed)
    store = AccountStore(path)
    model = {}  # user id -> {field: text}, in insertion order
    for step in range(steps):
        roll = rng.random()
        ssns = {fields["ssn"] for fields in model.values()}
        if roll < 0.35 or not model:
            user_id, ssn = f"U{step:05d}", _random_ssn(rng)
            if ssn in ssns:
                continue
            person = Applicant(f"P{step} & <co>", ssn, f"{step} Elm", "1980-02-03")
            store.add_account(user_id, person, 600 + step)
            model[user_id] = {
                "name": person.name, "ssn": ssn, "address": person.address,
                "dob": person.dob, "score": str(600 + step),
            }
        elif roll < 0.45:
            bad = rng.choice(
                [Applicant("X", "12-345-6789", "a", "1980-01-01"),
                 Applicant("X", _random_ssn(rng), "a", "1980-1-1")]
            )
            with pytest.raises(SchemaError):
                store.add_account(f"U{step:05d}", bad, 700)
        elif roll < 0.55:
            with pytest.raises(ValueError):
                store.add_account(rng.choice(list(model)), applicant(_random_ssn(rng)), 700)
        elif roll < 0.65:
            with pytest.raises(ValueError):
                store.add_account(f"U{step:05d}", applicant(rng.choice(sorted(ssns))), 700)
        elif roll < 0.85:
            user_id = rng.choice(list(model))
            record = f"{rng.getrandbits(64):016x}${rng.getrandbits(64):016x}"
            store.set_password_record(user_id, record)
            model[user_id]["password"] = record
        else:
            store = AccountStore(path)

        if path.exists():
            ACCOUNT_SCHEMA.assert_valid(parse(path.read_text("utf-8")))
        assert snapshot(AccountStore(path)) == snapshot(store), f"step {step}"
        assert store.user_ids() == list(model), f"step {step}"
        for user_id, fields in model.items():
            account = store.find_by_id(user_id)
            texts = {child.tag: child.text for child in account.elements()}
            assert texts == fields, f"step {step}: {user_id}"
            assert store.find_by_ssn(fields["ssn"]).get("id") == user_id
            assert store.password_record(user_id) == fields.get("password")
        assert not store.has_id("U99999") and store.find_by_ssn("000-00-0000") is None


@pytest.mark.parametrize("seed", range(4))
def test_randomized_operations_match_model(seed, tmp_path):
    try:
        _run_random_operations(seed, tmp_path / "account.xml", steps=60)
    except (AssertionError, pytest.fail.Exception) as exc:
        raise AssertionError(f"randomized data-tier run failed with seed={seed}: {exc}") from exc
