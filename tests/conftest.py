"""Shared fixtures: the six-message mailbox, a mock upstream, the proxy stack."""

import socket
import threading
from pathlib import Path

import pytest

from chamail.credstore import CredStore, KdfParams, UpstreamSpec
from chamail.imapcodec import read_response_blob
from chamail.mockimap import MockIMAPServer, load_fixture
from chamail.policy import PolicySet, SenderConstraint, SenderMode
from chamail.proxy import ProxyConfig, ProxyServer, UpstreamOverride

FIXTURES = Path(__file__).parent / "fixtures"
TEST_MASTER_KEY_HEX = "11" * 32

# Small Argon2id parameters keep the suite fast; the production defaults get
# exercised explicitly in test_credstore.
FAST_KDF = KdfParams(memory_cost=8192, time_cost=1, parallelism=1)

OWNER_PASSWORD = "appleball"
SPOUSE_PASSWORD = "catsanddogs"
UPSTREAM_PASSWORD = "upstream-secret-pw"
ACCOUNT = "person@gmail.com"


@pytest.fixture(autouse=True)
def master_key_env(monkeypatch):
    monkeypatch.setenv("CHAMAIL_MASTER_KEY", TEST_MASTER_KEY_HEX)


@pytest.fixture
def master_key():
    return bytes.fromhex(TEST_MASTER_KEY_HEX)


@pytest.fixture
def inbox6():
    return load_fixture(FIXTURES / "inbox6")


@pytest.fixture
def mock6(inbox6):
    with MockIMAPServer([inbox6], {ACCOUNT: UPSTREAM_PASSWORD}) as server:
        yield server


def make_household_store(path, upstream_port, master_key) -> CredStore:
    """One account, one 'spouse' sub-user whose blacklist hides ex@gmail.com."""
    cs = CredStore(str(path), kdf_params=FAST_KDF)
    cs.create_account(
        ACCOUNT,
        UpstreamSpec(
            host="127.0.0.1",
            port=upstream_port,
            password=UPSTREAM_PASSWORD,
            upstream_login=ACCOUNT,
        ),
        OWNER_PASSWORD,
        master_key,
    )
    cs.manage_list(ACCOUNT, "create", "exes")
    cs.manage_list(ACCOUNT, "add-member", "exes", "ex@gmail.com")
    cs.add_subuser(
        ACCOUNT,
        "spouse",
        SPOUSE_PASSWORD,
        PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),)),
    )
    return cs


@pytest.fixture
def store6(tmp_path, mock6, master_key):
    return make_household_store(tmp_path / "store.json", mock6.port, master_key)


@pytest.fixture
def proxy6(store6, mock6, master_key):
    config = ProxyConfig(
        store_path=store6.path,
        listen_port=0,
        upstream_overrides={ACCOUNT: UpstreamOverride("127.0.0.1", mock6.port)},
    )
    with ProxyServer(config, store6, master_key) as server:
        yield server


class ScriptedUpstream:
    """A one-connection upstream whose replies a test writes by hand.

    It greets, accepts any LOGIN with *login_reply* after the tag, and
    hands every later command line to *script(line, send)*, where *send*
    writes raw bytes to the proxy; a script that returns False closes the
    connection. Every line received is kept in `lines`, in order.
    """

    def __init__(self, script, login_reply=b"OK LOGIN completed"):
        self.script = script
        self.login_reply = login_reply
        self.lines: list[bytes] = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(10)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        with conn, conn.makefile("rb") as rfile:
            conn.sendall(b"* OK scripted upstream ready\r\n")
            for line in iter(rfile.readline, b""):
                self.lines.append(line)
                words = line.split(b" ")
                if words[1:2] == [b"LOGIN"]:
                    conn.sendall(words[0] + b" " + self.login_reply + b"\r\n")
                elif self.script(line, conn.sendall) is False:
                    return

    def close(self) -> None:
        self._sock.close()
        self._thread.join(timeout=5)


@pytest.fixture
def scripted_session(tmp_path, master_key):
    """Factory: a client logged in with *password* (the owner's by default)
    through a proxy whose upstream is a ScriptedUpstream running *script*
    (and given *upstream_args*). Returns (client, upstream)."""
    opened = []

    def _open(script, password=OWNER_PASSWORD, **upstream_args):
        upstream = ScriptedUpstream(script, **upstream_args)
        cs = make_household_store(tmp_path / "store.json", upstream.port, master_key)
        proxy = ProxyServer(ProxyConfig(store_path=cs.path, listen_port=0), cs, master_key)
        proxy.start()
        client = ImapClient(proxy.port)
        opened.append((client, proxy, upstream))
        login = b"t0 LOGIN person@gmail.com %s\r\n" % password.encode()
        assert client.cmd(login)[-1].startswith(b"t0 OK")
        return client, upstream

    yield _open
    for client, proxy, upstream in opened:
        client.close()
        proxy.stop()
        upstream.close()


class ImapClient:
    """Tiny synchronous test client keeping the raw downstream transcript."""

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.rfile = self.sock.makefile("rb")
        self.transcript = bytearray()
        self.greeting = self._read()

    def _read(self) -> bytes:
        blob = read_response_blob(self.rfile)
        self.transcript += blob
        return blob

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def cmd(self, line: bytes) -> list[bytes]:
        """Send one command; read responses until its tagged completion."""
        tag = line.split(b" ", 1)[0]
        self.send(line)
        out = []
        while True:
            blob = self._read()
            if not blob:
                raise AssertionError(f"connection closed waiting for {tag!r}")
            out.append(blob)
            if blob.startswith(tag + b" "):
                return out

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


@pytest.fixture
def connect(proxy6):
    clients = []

    def _connect(port=None):
        client = ImapClient(port if port is not None else proxy6.port)
        clients.append(client)
        return client

    yield _connect
    for client in clients:
        client.close()


@pytest.fixture
def owner_session(connect):
    client = connect()
    out = client.cmd(b"t0 LOGIN person@gmail.com appleball\r\n")
    assert out[-1].startswith(b"t0 OK")
    return client


@pytest.fixture
def spouse_session(connect):
    client = connect()
    out = client.cmd(b"t0 LOGIN person@gmail.com catsanddogs\r\n")
    assert out[-1].startswith(b"t0 OK")
    return client
