"""Durable persistence and secret sealing.

The store is a single UTF-8 JSON file:

    {"version": 2, "accounts": [ ...one object per account... ]}

Each account object holds one KDF block and one salt, and the owner and
each sub-user hold only a password hash derived under them (see
:mod:`chamail.credstore`). Binary fields (salts, hashes, ciphertexts) are
hex-encoded by the record serializers there. A version 1 file, with a
salt per password, is refused: converting it would need the plaintext
passwords, which are never stored. Writes go through a temp file and
an atomic rename, so a crash mid-write leaves the previous file intact.

Upstream passwords are sealed with AES-256-GCM under the service master
key; a fresh random 12-byte nonce is prepended to each ciphertext, and
authentication failures (wrong key, bit flips) raise DecryptFailed.
"""

from __future__ import annotations

import json
import os
import tempfile

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import DecryptFailed, MasterKeyError, StoreFormatError, StoreIoError

FORMAT_VERSION = 2
MASTER_KEY_ENV = "CHAMAIL_MASTER_KEY"

_NONCE_LEN = 12
_KEY_LEN = 32


# -- master key --------------------------------------------------------------

def parse_master_key(text: str | None) -> bytes:
    """Decode the 64-hex-char master key; refuse anything else."""
    if text is None:
        raise MasterKeyError(f"{MASTER_KEY_ENV} is not set")
    text = text.strip()
    if len(text) != 2 * _KEY_LEN:
        raise MasterKeyError(f"{MASTER_KEY_ENV} must be {2 * _KEY_LEN} hex characters")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise MasterKeyError(f"{MASTER_KEY_ENV} must be {2 * _KEY_LEN} hex characters") from None


def master_key_from_env() -> bytes:
    return parse_master_key(os.environ.get(MASTER_KEY_ENV))


# -- sealing -----------------------------------------------------------------

def seal(plaintext: bytes, master_key: bytes) -> bytes:
    """Encrypt-and-authenticate *plaintext*; nonce is prepended."""
    if len(master_key) != _KEY_LEN:
        raise MasterKeyError("master key must be 32 bytes")
    nonce = os.urandom(_NONCE_LEN)
    return nonce + AESGCM(master_key).encrypt(nonce, plaintext, None)


def open_sealed(ciphertext: bytes, master_key: bytes) -> bytes:
    """Reverse of seal(); raises DecryptFailed on wrong key or tampering."""
    if len(master_key) != _KEY_LEN:
        raise MasterKeyError("master key must be 32 bytes")
    if len(ciphertext) < _NONCE_LEN + 16:
        raise DecryptFailed("ciphertext too short")
    nonce, body = ciphertext[:_NONCE_LEN], ciphertext[_NONCE_LEN:]
    try:
        return AESGCM(master_key).decrypt(nonce, body, None)
    except InvalidTag:
        raise DecryptFailed("authentication failed") from None


# -- file round-trip ----------------------------------------------------------

def save_atomic(accounts: list[dict], path: str) -> None:
    """Serialize and persist: temp file, flush, fsync, rename over *path*.

    On any failure the previous file is untouched.
    """
    payload = {"version": FORMAT_VERSION, "accounts": accounts}
    data = json.dumps(payload, indent=2, sort_keys=True)
    directory = os.path.dirname(os.path.abspath(path))
    fd = None
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(prefix=".chamail-", suffix=".tmp", dir=directory)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fd = None
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        tmp_path = None
    except OSError as exc:
        raise StoreIoError(f"cannot write store file {path}: {exc}") from exc
    finally:
        if fd is not None:
            os.close(fd)
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass


def load(path: str) -> list[dict]:
    """Load and structurally check the store file; return the account objects.

    Corrupt or partial files raise StoreFormatError, never a half-loaded
    result.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise StoreFormatError(f"store file not found: {path}") from None
    except OSError as exc:
        raise StoreIoError(f"cannot read store file {path}: {exc}") from exc
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StoreFormatError(f"store file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise StoreFormatError("store file root must be an object")
    if payload.get("version") == 1:
        raise StoreFormatError(
            "store file is format version 1, which salts each password apart and "
            "cannot be converted without the plaintext passwords; move it aside and "
            "re-create the account in a new store (chamail account create, then "
            "subuser add, list and rule set)"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise StoreFormatError(f"unsupported store version: {payload.get('version')!r}")
    accounts = payload.get("accounts")
    if not isinstance(accounts, list) or not all(isinstance(a, dict) for a in accounts):
        raise StoreFormatError("store file 'accounts' must be a list of objects")
    return accounts
