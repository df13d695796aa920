"""Accounts, sub-users, address lists, and password credentials.

One account = one upstream mailbox reachable through several passwords.
The owner's password gives passthrough access; each sub-user password is
bound to a visibility policy. Because an IMAP LOGIN carries no sub-user
name, all passwords of an account must stay distinct: the collision check
runs at write time so that login-time resolution is always unambiguous.

Passwords are hashed with Argon2id under one salt and one set of
parameters per account, both stored with the account, so a LOGIN derives
once whichever principal it names. The upstream account password is
sealed with the service master key (see :mod:`chamail.store`) and
unsealed only when a session connects upstream.
"""

from __future__ import annotations

import hmac
import logging
import os
import re
import threading
from dataclasses import dataclass, field, replace

from cryptography.hazmat.primitives.kdf.argon2 import Argon2id

from . import addr, store
from .errors import (
    AuthFailed,
    DuplicateAccount,
    DuplicateList,
    DuplicateSubUser,
    InvalidAddress,
    InvalidName,
    ListInUse,
    PasswordCollision,
    StoreFormatError,
    SubUserLimit,
    UnknownAccount,
    UnknownList,
    UnknownSubUser,
    WeakPassword,
)
from .policy import PolicySet, validate as validate_policy
from .principal import Owner, Principal, SubUser

log = logging.getLogger("chamail.credstore")

PASSWORD_MIN = 8
PASSWORD_MAX = 128
SUBUSER_CAP = 16
NAME_MAX = 64

_SALT_LEN = 16
_HASH_LEN = 32

_NAME_RE = re.compile(r"^[\x21-\x7e]{1,%d}$" % NAME_MAX)


@dataclass(frozen=True)
class KdfParams:
    """Memory-hard KDF parameters, stored per account."""

    algorithm: str = "argon2id"
    memory_cost: int = 32768  # KiB; ~50 ms per verify on desktop hardware
    time_cost: int = 2
    parallelism: int = 2

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "memory_cost": self.memory_cost,
            "time_cost": self.time_cost,
            "parallelism": self.parallelism,
        }

    @classmethod
    def from_json(cls, data: dict) -> "KdfParams":
        return cls(
            algorithm=data["algorithm"],
            memory_cost=int(data["memory_cost"]),
            time_cost=int(data["time_cost"]),
            parallelism=int(data["parallelism"]),
        )


DEFAULT_KDF_PARAMS = KdfParams()


def _from_hex(text: str, length: int, what: str) -> bytes:
    value = bytes.fromhex(text)
    if len(value) != length:
        raise StoreFormatError(f"{what} has wrong length")
    return value


def _derive(password: str, salt: bytes, params: KdfParams) -> bytes:
    if params.algorithm != "argon2id":
        raise StoreFormatError(f"unsupported KDF algorithm {params.algorithm!r}")
    kdf = Argon2id(
        salt=salt,
        length=_HASH_LEN,
        iterations=params.time_cost,
        lanes=params.parallelism,
        memory_cost=params.memory_cost,
    )
    return kdf.derive(password.encode("utf-8"))


def verify_credential(
    params: KdfParams, salt: bytes, slots: tuple[bytes, ...], password: str
) -> int | None:
    """Derive *password* once and return the index of the first slot it
    matches, or None. Every slot is compared, so the time taken does not
    depend on which one matched."""
    candidate = _derive(password, salt, params)
    match = None
    for index, slot in enumerate(slots):
        if hmac.compare_digest(candidate, slot) and match is None:
            match = index
    return match


@dataclass(frozen=True)
class AddressList:
    name: str
    members: frozenset[str] = frozenset()

    def to_json(self) -> dict:
        return {"name": self.name, "members": sorted(self.members)}

    @classmethod
    def from_json(cls, data: dict) -> "AddressList":
        return cls(name=data["name"], members=frozenset(data["members"]))


@dataclass(frozen=True)
class SubUserRecord:
    name: str
    hash: bytes  # the password derived under the account's salt and KDF
    policy: PolicySet

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "hash": self.hash.hex(),
            "policy": self.policy.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SubUserRecord":
        return cls(
            name=data["name"],
            hash=_from_hex(data["hash"], _HASH_LEN, "password hash"),
            policy=PolicySet.from_json(data["policy"]),
        )


@dataclass(frozen=True)
class UpstreamTarget:
    host: str
    port: int
    use_tls: bool
    upstream_login: str
    sealed_password: bytes

    def to_json(self) -> dict:
        return {
            "host": self.host,
            "port": self.port,
            "use_tls": self.use_tls,
            "login": self.upstream_login,
            "sealed_password": self.sealed_password.hex(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "UpstreamTarget":
        target = cls(
            host=data["host"],
            port=int(data["port"]),
            use_tls=bool(data["use_tls"]),
            upstream_login=data["login"],
            sealed_password=bytes.fromhex(data["sealed_password"]),
        )
        if not 1 <= target.port <= 65535:
            raise StoreFormatError(f"upstream port out of range: {target.port}")
        return target


@dataclass(frozen=True)
class UpstreamSpec:
    """Plaintext upstream parameters, accepted only at account creation."""

    host: str
    port: int
    password: str
    upstream_login: str
    use_tls: bool = False


@dataclass(frozen=True)
class AccountRecord:
    """One mailbox. Every password of the account is derived under the one
    *salt* and *kdf_params*, so a LOGIN costs one derivation whichever
    principal it names."""

    email: str
    upstream: UpstreamTarget
    kdf_params: KdfParams
    salt: bytes
    owner_hash: bytes
    subusers: tuple[SubUserRecord, ...] = ()
    lists: tuple[AddressList, ...] = ()

    def hashes(self) -> tuple[bytes, ...]:
        """The owner's hash, then each sub-user's in stored order."""
        return (self.owner_hash, *(su.hash for su in self.subusers))

    def subuser(self, name: str) -> SubUserRecord:
        for su in self.subusers:
            if su.name == name:
                return su
        raise UnknownSubUser(f"no sub-user named {name!r}")

    def address_list(self, name: str) -> AddressList:
        for al in self.lists:
            if al.name == name:
                return al
        raise UnknownList(f"no list named {name!r}")

    def list_members(self) -> dict[str, frozenset[str]]:
        """Mapping view consumed by the policy engine."""
        return {al.name: al.members for al in self.lists}

    def to_json(self) -> dict:
        return {
            "email": self.email,
            "upstream": self.upstream.to_json(),
            "kdf": self.kdf_params.to_json(),
            "salt": self.salt.hex(),
            "owner_hash": self.owner_hash.hex(),
            "subusers": [su.to_json() for su in self.subusers],
            "lists": [al.to_json() for al in self.lists],
        }

    @classmethod
    def from_json(cls, data: dict) -> "AccountRecord":
        try:
            return cls(
                email=data["email"],
                upstream=UpstreamTarget.from_json(data["upstream"]),
                kdf_params=KdfParams.from_json(data["kdf"]),
                salt=_from_hex(data["salt"], _SALT_LEN, "account salt"),
                owner_hash=_from_hex(data["owner_hash"], _HASH_LEN, "password hash"),
                subusers=tuple(SubUserRecord.from_json(s) for s in data["subusers"]),
                lists=tuple(AddressList.from_json(a) for a in data["lists"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(f"malformed account record: {exc}") from exc


def _check_password(password: str) -> None:
    if not PASSWORD_MIN <= len(password) <= PASSWORD_MAX:
        raise WeakPassword(
            f"password length must be {PASSWORD_MIN}-{PASSWORD_MAX} characters"
        )


def _check_name(name: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise InvalidName(
            f"{what} must be 1-{NAME_MAX} printable non-space characters"
        )


class CredStore:
    """All accounts plus their persistence.

    Reads are lock-free once a record reference is snapshotted (records are
    frozen); mutations are serialized and hit disk before they are visible.
    """

    def __init__(self, path: str, *, kdf_params: KdfParams = DEFAULT_KDF_PARAMS):
        self.path = path
        self.kdf_params = kdf_params
        self._lock = threading.RLock()
        # A LOGIN compares against SUBUSER_CAP + 1 slots whatever the account
        # holds; these random hashes fill the slots no principal takes, and
        # an unknown account derives under the miss salt against them alone.
        self._padding = tuple(os.urandom(_HASH_LEN) for _ in range(SUBUSER_CAP + 1))
        self._miss_salt = os.urandom(_SALT_LEN)
        self._accounts: dict[str, AccountRecord] = {}
        if os.path.exists(path):
            for data in store.load(path):
                account = AccountRecord.from_json(data)
                self._accounts[account.email] = account

    # -- helpers ----------------------------------------------------------

    def _save(self) -> None:
        store.save_atomic([a.to_json() for a in self._accounts.values()], self.path)

    def _commit(self, account: AccountRecord) -> None:
        previous = self._accounts.get(account.email)
        self._accounts[account.email] = account
        try:
            self._save()
        except Exception:
            if previous is None:
                del self._accounts[account.email]
            else:
                self._accounts[account.email] = previous
            raise

    def get_account(self, email: str) -> AccountRecord:
        account = self._accounts.get(email.lower())
        if account is None:
            raise UnknownAccount(f"no account for {email!r}")
        return account

    def accounts(self) -> list[AccountRecord]:
        return list(self._accounts.values())

    # -- operations --------------------------------------------------------

    def create_account(
        self,
        email: str,
        upstream: UpstreamSpec,
        owner_password: str,
        master_key: bytes,
    ) -> AccountRecord:
        email = addr.normalize(email)
        _check_password(owner_password)
        if not 1 <= upstream.port <= 65535:
            raise StoreFormatError(f"upstream port out of range: {upstream.port}")
        with self._lock:
            if email in self._accounts:
                raise DuplicateAccount(f"account {email!r} already exists")
            target = UpstreamTarget(
                host=upstream.host,
                port=upstream.port,
                use_tls=upstream.use_tls,
                upstream_login=upstream.upstream_login,
                sealed_password=store.seal(
                    upstream.password.encode("utf-8"), master_key
                ),
            )
            salt = os.urandom(_SALT_LEN)
            account = AccountRecord(
                email=email,
                upstream=target,
                kdf_params=self.kdf_params,
                salt=salt,
                owner_hash=_derive(owner_password, salt, self.kdf_params),
            )
            self._commit(account)
        log.info("created account %s (upstream %s:%d)", email, upstream.host, upstream.port)
        return account

    def add_subuser(
        self,
        email: str,
        name: str,
        password: str,
        policy: PolicySet | None = None,
    ) -> SubUserRecord:
        policy = policy if policy is not None else PolicySet.empty()
        _check_name(name, "sub-user name")
        _check_password(password)
        with self._lock:
            account = self.get_account(email)
            if any(su.name == name for su in account.subusers):
                raise DuplicateSubUser(f"sub-user {name!r} already exists")
            if len(account.subusers) >= SUBUSER_CAP:
                raise SubUserLimit(f"at most {SUBUSER_CAP} sub-users per account")
            validate_policy(policy, account.list_members())
            digest = _derive(password, account.salt, account.kdf_params)
            if digest in account.hashes():
                raise PasswordCollision(
                    "password already in use by another principal of this account"
                )
            record = SubUserRecord(name=name, hash=digest, policy=policy)
            self._commit(replace(account, subusers=account.subusers + (record,)))
        log.info("added sub-user %s to %s", name, email)
        return record

    def authenticate(self, email: str, password: str) -> Principal:
        """Resolve a (login, password) pair to exactly one principal.

        One derivation per call, whatever the outcome: the candidate is
        compared with SUBUSER_CAP + 1 slots, the owner's hash, the
        sub-users' in stored order, then padding. An unknown account
        derives under the store's own parameters and compares against
        padding alone. Every failure raises the same AuthFailed.
        """
        account = self._accounts.get(email.lower())
        if account is None:
            verify_credential(self.kdf_params, self._miss_salt, self._padding, password)
            raise AuthFailed()
        hashes = account.hashes()
        slots = hashes + self._padding[len(hashes) :]
        match = verify_credential(account.kdf_params, account.salt, slots, password)
        if match is None or match >= len(hashes):
            raise AuthFailed()
        return Owner() if match == 0 else SubUser(account.subusers[match - 1].name)

    def manage_list(
        self,
        email: str,
        action: str,
        list_name: str,
        member: str | None = None,
    ) -> AccountRecord:
        _check_name(list_name, "list name")
        with self._lock:
            account = self.get_account(email)
            if action == "create":
                if any(al.name == list_name for al in account.lists):
                    raise DuplicateList(f"list {list_name!r} already exists")
                updated = replace(
                    account, lists=account.lists + (AddressList(list_name),)
                )
            elif action == "delete":
                account.address_list(list_name)
                for su in account.subusers:
                    if list_name in su.policy.referenced_lists():
                        raise ListInUse(
                            f"list {list_name!r} is referenced by sub-user {su.name!r}"
                        )
                updated = replace(
                    account,
                    lists=tuple(al for al in account.lists if al.name != list_name),
                )
            elif action in ("add-member", "remove-member"):
                if member is None:
                    raise InvalidAddress("member address required")
                target = account.address_list(list_name)
                normalized = addr.normalize(member)
                if action == "add-member":
                    members = target.members | {normalized}
                else:
                    members = target.members - {normalized}
                updated = replace(
                    account,
                    lists=tuple(
                        replace(al, members=members) if al.name == list_name else al
                        for al in account.lists
                    ),
                )
            else:
                raise ValueError(f"unknown list action {action!r}")
            self._commit(updated)
            return updated

    def set_policy(self, email: str, subuser_name: str, policy: PolicySet) -> SubUserRecord:
        """Replace a sub-user's policy. Active sessions pick the new policy
        up at their next mailbox SELECT."""
        with self._lock:
            account = self.get_account(email)
            current = account.subuser(subuser_name)
            validate_policy(policy, account.list_members())
            record = replace(current, policy=policy)
            self._commit(
                replace(
                    account,
                    subusers=tuple(
                        record if su.name == subuser_name else su
                        for su in account.subusers
                    ),
                )
            )
            return record
