"""Sealing, master-key handling, and the on-disk JSON store."""

import json
import os

import pytest

from chamail import store
from chamail.errors import DecryptFailed, MasterKeyError, StoreFormatError

KEY = bytes(range(32))
OTHER_KEY = bytes(range(1, 33))


class TestMasterKey:
    def test_parses_64_hex_chars(self):
        assert store.parse_master_key("00" * 32) == b"\x00" * 32

    def test_strips_whitespace(self):
        assert store.parse_master_key("  " + "ab" * 32 + "\n") == b"\xab" * 32

    @pytest.mark.parametrize("text", [None, "", "ab", "zz" * 32, "ab" * 31, "ab" * 33])
    def test_rejects_bad_keys(self, text):
        with pytest.raises(MasterKeyError):
            store.parse_master_key(text)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(store.MASTER_KEY_ENV, "cd" * 32)
        assert store.master_key_from_env() == b"\xcd" * 32

    def test_from_env_missing(self, monkeypatch):
        monkeypatch.delenv(store.MASTER_KEY_ENV, raising=False)
        with pytest.raises(MasterKeyError):
            store.master_key_from_env()


class TestSealing:
    def test_roundtrip(self):
        sealed = store.seal(b"upstream password", KEY)
        assert store.open_sealed(sealed, KEY) == b"upstream password"

    def test_fresh_nonce_per_seal(self):
        a = store.seal(b"x", KEY)
        b = store.seal(b"x", KEY)
        assert a != b
        assert store.open_sealed(a, KEY) == store.open_sealed(b, KEY) == b"x"

    def test_ciphertext_hides_plaintext(self):
        sealed = store.seal(b"catsanddogs", KEY)
        assert b"catsanddogs" not in sealed

    def test_wrong_key_fails(self):
        sealed = store.seal(b"x", KEY)
        with pytest.raises(DecryptFailed):
            store.open_sealed(sealed, OTHER_KEY)

    def test_truncated_fails(self):
        sealed = store.seal(b"x", KEY)
        with pytest.raises(DecryptFailed):
            store.open_sealed(sealed[:10], KEY)

    def test_single_bit_flips_fail(self):
        # every bit position; the full-width sweep also runs in acceptance
        sealed = store.seal(b"secret", KEY)
        for i in range(len(sealed) * 8):
            tampered = bytearray(sealed)
            tampered[i // 8] ^= 1 << (i % 8)
            with pytest.raises(DecryptFailed):
                store.open_sealed(bytes(tampered), KEY)

    def test_short_key_rejected(self):
        with pytest.raises(MasterKeyError):
            store.seal(b"x", b"short")
        with pytest.raises(MasterKeyError):
            store.open_sealed(b"\x00" * 40, b"short")


class TestFileRoundtrip:
    def test_save_load(self, tmp_path):
        path = str(tmp_path / "store.json")
        accounts = [{"email": "a@b.c"}, {"email": "d@e.f"}]
        store.save_atomic(accounts, path)
        assert store.load(path) == accounts

    def test_save_replaces_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "store.json")
        store.save_atomic([{"email": "one@x.y"}], path)
        store.save_atomic([{"email": "two@x.y"}], path)
        assert store.load(path) == [{"email": "two@x.y"}]
        assert os.listdir(tmp_path) == ["store.json"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(StoreFormatError):
            store.load(str(tmp_path / "nope.json"))

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text("{truncated")
        with pytest.raises(StoreFormatError):
            store.load(str(path))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "store.json"
        path.write_text(json.dumps({"version": 99, "accounts": []}))
        with pytest.raises(StoreFormatError):
            store.load(str(path))

    @pytest.mark.parametrize(
        "payload",
        [[], {"version": store.FORMAT_VERSION}, {"version": store.FORMAT_VERSION, "accounts": [1]}],
    )
    def test_load_rejects_bad_shape(self, tmp_path, payload):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreFormatError):
            store.load(str(path))
