"""Credential store: accounts, sub-users, lists, authentication, persistence."""

import json
import pathlib

import pytest

from chamail import credstore
from chamail.credstore import (
    DEFAULT_KDF_PARAMS,
    SUBUSER_CAP,
    CredStore,
    UpstreamSpec,
)
from chamail.errors import (
    AuthFailed,
    DuplicateAccount,
    DuplicateList,
    DuplicateSubUser,
    InvalidAddress,
    InvalidName,
    InvalidPolicy,
    ListInUse,
    PasswordCollision,
    StoreFormatError,
    SubUserLimit,
    UnknownAccount,
    UnknownList,
    UnknownSubUser,
    WeakPassword,
)
from chamail.policy import PolicySet, SenderConstraint, SenderMode
from chamail.principal import Owner, SubUser
from chamail.store import open_sealed

from conftest import FAST_KDF

MASTER_KEY = bytes.fromhex("11" * 32)
UPSTREAM = UpstreamSpec(
    host="imap.gmail.com", port=993, password="upstream-pw-123", upstream_login="person@gmail.com"
)


@pytest.fixture
def cs(tmp_path):
    return CredStore(str(tmp_path / "store.json"), kdf_params=FAST_KDF)


@pytest.fixture
def account(cs):
    return cs.create_account("person@gmail.com", UPSTREAM, "appleball", MASTER_KEY)


def test_create_account_normalizes_email(cs):
    record = cs.create_account("Person@GMAIL.com", UPSTREAM, "appleball", MASTER_KEY)
    assert record.email == "person@gmail.com"
    assert cs.get_account("PERSON@gmail.com").email == "person@gmail.com"


def test_create_account_seals_upstream_password(cs, account):
    sealed = account.upstream.sealed_password
    assert b"upstream-pw-123" not in sealed
    assert open_sealed(sealed, MASTER_KEY) == b"upstream-pw-123"


def test_duplicate_account_rejected(cs, account):
    with pytest.raises(DuplicateAccount):
        cs.create_account("person@gmail.com", UPSTREAM, "differentpw", MASTER_KEY)


def test_bad_email_rejected(cs):
    with pytest.raises(InvalidAddress):
        cs.create_account("not-an-address", UPSTREAM, "appleball", MASTER_KEY)


@pytest.mark.parametrize("password", ["", "short", "x" * 7, "x" * 129])
def test_weak_owner_password_rejected(cs, password):
    with pytest.raises(WeakPassword):
        cs.create_account("person@gmail.com", UPSTREAM, password, MASTER_KEY)


def test_unknown_account_lookup(cs):
    with pytest.raises(UnknownAccount):
        cs.get_account("missing@example.com")


# -- sub-users ----------------------------------------------------------------


def test_add_subuser_and_authenticate(cs, account):
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    assert cs.authenticate("person@gmail.com", "appleball") == Owner()
    assert cs.authenticate("person@gmail.com", "catsanddogs") == SubUser("spouse")


def test_duplicate_subuser_name_rejected(cs, account):
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    with pytest.raises(DuplicateSubUser):
        cs.add_subuser("person@gmail.com", "spouse", "otherpassword")


def test_password_collision_with_owner(cs, account):
    with pytest.raises(PasswordCollision):
        cs.add_subuser("person@gmail.com", "spouse", "appleball")


def test_password_collision_between_subusers(cs, account):
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    with pytest.raises(PasswordCollision):
        cs.add_subuser("person@gmail.com", "kid", "catsanddogs")


def test_bad_subuser_name_rejected(cs, account):
    with pytest.raises(InvalidName):
        cs.add_subuser("person@gmail.com", "with space", "catsanddogs")
    with pytest.raises(InvalidName):
        cs.add_subuser("person@gmail.com", "", "catsanddogs")


def test_subuser_cap(cs, account):
    for i in range(16):
        cs.add_subuser("person@gmail.com", f"user{i}", f"password-{i:03d}")
    with pytest.raises(SubUserLimit):
        cs.add_subuser("person@gmail.com", "onemore", "password-xyz")


def test_subuser_policy_must_validate(cs, account):
    policy = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "nope"),))
    with pytest.raises(InvalidPolicy):
        cs.add_subuser("person@gmail.com", "spouse", "catsanddogs", policy)


def test_unknown_subuser(cs, account):
    with pytest.raises(UnknownSubUser):
        account.subuser("ghost")


# -- authentication edge cases ---------------------------------------------------


def test_auth_wrong_password(cs, account):
    with pytest.raises(AuthFailed):
        cs.authenticate("person@gmail.com", "wrong-password")


def test_auth_unknown_account_same_error(cs, account):
    with pytest.raises(AuthFailed):
        cs.authenticate("other@example.com", "appleball")


def test_auth_is_case_insensitive_on_email(cs, account):
    assert cs.authenticate("PERSON@gmail.com", "appleball") == Owner()


# -- address lists -----------------------------------------------------------


def test_list_lifecycle(cs, account):
    cs.manage_list("person@gmail.com", "create", "exes")
    cs.manage_list("person@gmail.com", "add-member", "exes", "EX@gmail.com")
    members = cs.get_account("person@gmail.com").list_members()
    assert members["exes"] == frozenset({"ex@gmail.com"})  # normalized

    cs.manage_list("person@gmail.com", "remove-member", "exes", "ex@gmail.com")
    assert cs.get_account("person@gmail.com").list_members()["exes"] == frozenset()

    cs.manage_list("person@gmail.com", "delete", "exes")
    with pytest.raises(UnknownList):
        cs.get_account("person@gmail.com").address_list("exes")


def test_duplicate_list_rejected(cs, account):
    cs.manage_list("person@gmail.com", "create", "exes")
    with pytest.raises(DuplicateList):
        cs.manage_list("person@gmail.com", "create", "exes")


def test_referenced_list_cannot_be_deleted(cs, account):
    cs.manage_list("person@gmail.com", "create", "exes")
    policy = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),))
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs", policy)
    with pytest.raises(ListInUse):
        cs.manage_list("person@gmail.com", "delete", "exes")


def test_list_member_must_be_addr_spec(cs, account):
    cs.manage_list("person@gmail.com", "create", "exes")
    with pytest.raises(InvalidAddress):
        cs.manage_list("person@gmail.com", "add-member", "exes", "Name <x@y.z>")


def test_set_policy_revalidates(cs, account):
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    bad = PolicySet(sender_constraints=(SenderConstraint(SenderMode.WHITELIST, "ghost"),))
    with pytest.raises(InvalidPolicy):
        cs.set_policy("person@gmail.com", "spouse", bad)


# -- persistence --------------------------------------------------------------


def test_reload_roundtrip(account, cs):
    cs.manage_list("person@gmail.com", "create", "exes")
    cs.manage_list("person@gmail.com", "add-member", "exes", "ex@gmail.com")
    policy = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),))
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs", policy)

    reloaded = CredStore(cs.path)
    again = reloaded.get_account("person@gmail.com")
    assert again == cs.get_account("person@gmail.com")
    assert again.subuser("spouse").policy == policy
    assert again.list_members() == {"exes": frozenset({"ex@gmail.com"})}
    assert reloaded.authenticate("person@gmail.com", "appleball") == Owner()
    assert reloaded.authenticate("person@gmail.com", "catsanddogs") == SubUser("spouse")
    with pytest.raises(AuthFailed):
        reloaded.authenticate("person@gmail.com", "wrong-password")
    assert open_sealed(again.upstream.sealed_password, MASTER_KEY) == b"upstream-pw-123"
    # the collision check reads the reloaded hashes
    with pytest.raises(PasswordCollision):
        reloaded.add_subuser("person@gmail.com", "kid", "catsanddogs")


def test_v1_store_is_rejected_with_recreate_message(tmp_path):
    # format 1 salted each password apart; its hashes cannot be carried over
    credential = {
        "kdf": FAST_KDF.to_json(),
        "salt": "00" * 16,
        "hash": "11" * 32,
    }
    account = {
        "email": "person@gmail.com",
        "upstream": {
            "host": "imap.gmail.com",
            "port": 993,
            "use_tls": True,
            "login": "person@gmail.com",
            "sealed_password": "22" * 40,
        },
        "owner_credential": credential,
        "subusers": [
            {
                "name": "spouse",
                "credential": credential,
                "policy": PolicySet.empty().to_json(),
                "readonly": True,
            }
        ],
        "lists": [],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({"version": 1, "accounts": [account]}))
    with pytest.raises(StoreFormatError, match="version 1.*re-create the account"):
        CredStore(str(path))


def test_store_file_has_no_plaintext_secrets(cs, account):
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    blob = pathlib.Path(cs.path).read_bytes()
    for secret in (b"appleball", b"catsanddogs", b"upstream-pw-123"):
        assert secret not in blob


def test_store_file_is_json_with_version(cs, account):
    payload = json.loads(pathlib.Path(cs.path).read_text())
    assert payload["version"] == 2
    assert payload["accounts"][0]["email"] == "person@gmail.com"


def test_kdf_params_and_salt_are_stored_per_account(cs, account):
    # the account remembers its own cost parameters, so defaults can change
    # later for new accounts; its principals keep only a hash
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    record = json.loads(pathlib.Path(cs.path).read_text())["accounts"][0]
    assert record["kdf"] == FAST_KDF.to_json()
    assert len(bytes.fromhex(record["salt"])) == 16
    assert len(bytes.fromhex(record["owner_hash"])) == 32
    (spouse,) = record["subusers"]
    assert set(spouse) == {"name", "hash", "policy"}
    assert len(bytes.fromhex(spouse["hash"])) == 32


def test_default_params_verify(tmp_path):
    cs = CredStore(str(tmp_path / "store.json"))
    account = cs.create_account("person@gmail.com", UPSTREAM, "appleball", MASTER_KEY)
    assert account.kdf_params == DEFAULT_KDF_PARAMS
    assert cs.authenticate("person@gmail.com", "appleball") == Owner()
    with pytest.raises(AuthFailed):
        cs.authenticate("person@gmail.com", "appleball ")


def test_each_login_and_each_subuser_add_derive_once(cs, account, monkeypatch):
    # Counted, not timed: a LOGIN costs one derivation and SUBUSER_CAP + 1
    # comparisons whether the account exists, which principal matches or
    # none does, so its time tells nothing about the account.
    derived = []
    compared = []
    derive, compare = credstore._derive, credstore.hmac.compare_digest
    monkeypatch.setattr(credstore, "_derive", lambda *a: derived.append(a[2]) or derive(*a))
    monkeypatch.setattr(
        credstore.hmac, "compare_digest", lambda a, b: compared.append(1) or compare(a, b)
    )

    def add(name, password):
        derived.clear()
        try:
            return cs.add_subuser("person@gmail.com", name, password)
        finally:
            assert derived == [FAST_KDF]

    def login(email, password):
        derived.clear()
        compared.clear()
        try:
            return cs.authenticate(email, password)
        finally:
            # the store's parameters, also for an unknown account
            assert derived == [FAST_KDF]
            assert len(compared) == SUBUSER_CAP + 1

    for i in range(SUBUSER_CAP - 1):
        add(f"user{i}", f"password-{i:03d}")
    for taken in ("appleball", "password-000", f"password-{SUBUSER_CAP - 2:03d}"):
        with pytest.raises(PasswordCollision):
            add("onemore", taken)
    last = SUBUSER_CAP - 1
    add(f"user{last}", f"password-{last:03d}")

    with pytest.raises(AuthFailed):
        login("other@example.com", "appleball")
    with pytest.raises(AuthFailed):
        login("person@gmail.com", "wrong-password")
    assert login("person@gmail.com", "appleball") == Owner()
    for i in range(SUBUSER_CAP):
        assert login("person@gmail.com", f"password-{i:03d}") == SubUser(f"user{i}")
