"""Credential store: accounts, sub-users, lists, authentication, persistence."""

import json
import pathlib

import pytest

from chamail.credstore import (
    DEFAULT_KDF_PARAMS,
    CredStore,
    UpstreamSpec,
    create_credential,
    verify_credential,
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


def test_reload_roundtrip(tmp_path, account, cs):
    cs.manage_list("person@gmail.com", "create", "exes")
    cs.manage_list("person@gmail.com", "add-member", "exes", "ex@gmail.com")
    policy = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),))
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs", policy)

    # older v1 files also stored an always-true "readonly" per sub-user
    payload = json.loads(pathlib.Path(cs.path).read_text())
    payload["accounts"][0]["subusers"][0]["readonly"] = True
    older = tmp_path / "older.json"
    older.write_text(json.dumps(payload))

    for path in (cs.path, str(older)):
        reloaded = CredStore(path)
        again = reloaded.get_account("person@gmail.com")
        assert again.subuser("spouse").policy == policy
        assert again.list_members() == {"exes": frozenset({"ex@gmail.com"})}
        assert reloaded.authenticate("person@gmail.com", "catsanddogs") == SubUser("spouse")
        assert open_sealed(again.upstream.sealed_password, MASTER_KEY) == b"upstream-pw-123"


def test_store_file_has_no_plaintext_secrets(cs, account):
    cs.add_subuser("person@gmail.com", "spouse", "catsanddogs")
    blob = pathlib.Path(cs.path).read_bytes()
    for secret in (b"appleball", b"catsanddogs", b"upstream-pw-123"):
        assert secret not in blob


def test_store_file_is_json_with_version(cs, account):
    payload = json.loads(pathlib.Path(cs.path).read_text())
    assert payload["version"] == 1
    assert payload["accounts"][0]["email"] == "person@gmail.com"


def test_kdf_params_are_stored_per_credential(cs, account):
    # records remember their own cost parameters, so defaults can change
    # later without breaking verification
    payload = json.loads(pathlib.Path(cs.path).read_text())
    kdf = payload["accounts"][0]["owner_credential"]["kdf"]
    assert kdf["memory_cost"] == FAST_KDF.memory_cost
    assert kdf["time_cost"] == FAST_KDF.time_cost


def test_default_params_verify():
    record = create_credential("appleball", DEFAULT_KDF_PARAMS)
    assert verify_credential(record, "appleball")
    assert not verify_credential(record, "appleball ")
