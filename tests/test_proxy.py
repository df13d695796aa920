"""Proxy behavior: owner passthrough, sub-user filtering, fail-closed paths."""

import base64
import contextlib
import datetime
import ipaddress
import json
import logging
import mailbox
import select
import socket
import ssl
import struct
import threading
import time

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.x509.oid import NameOID

from conftest import (
    ACCOUNT,
    FAST_KDF,
    OWNER_PASSWORD,
    SPOUSE_PASSWORD,
    UPSTREAM_PASSWORD,
    ImapClient,
    make_household_store,
)
from chamail import decisions, imapcodec
from chamail import proxy as proxy_module
from chamail.admincli import main
from chamail.credstore import CredStore, UpstreamSpec
from chamail.errors import ConfigError
from chamail.imapcodec import parse_sequence_set
from chamail.mockimap import FixtureMailbox, MockIMAPServer, StoredMessage
from chamail.policy import (
    BODY_EXCERPT_CAP,
    KeywordConstraint,
    KeywordMode,
    PolicySet,
    SenderConstraint,
    SenderMode,
)
from chamail.proxy import ProxyConfig, ProxyServer, UpstreamOverride, load_config
from wiregen import FETCH_ITEMS


# -- configuration ------------------------------------------------------------


def test_config_from_json_full():
    config = ProxyConfig.from_json(
        {
            "store": "/var/lib/chamail/store.json",
            "listen": {"host": "0.0.0.0", "port": 993},
            "tls": {"certfile": "/etc/c.pem", "keyfile": "/etc/k.pem"},
            "upstream_overrides": {
                "Person@Gmail.com": {"host": "10.0.0.1", "port": 143}
            },
        }
    )
    assert config.store_path == "/var/lib/chamail/store.json"
    assert (config.listen_host, config.listen_port) == ("0.0.0.0", 993)
    assert config.tls_certfile == "/etc/c.pem"
    assert config.upstream_overrides["person@gmail.com"] == UpstreamOverride(
        "10.0.0.1", 143, False
    )


def test_config_defaults():
    config = ProxyConfig.from_json({"store": "s.json"})
    assert (config.listen_host, config.listen_port) == ("127.0.0.1", 1143)
    assert config.tls_certfile is None
    assert config.upstream_overrides == {}


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        {"store": 7},
        {"store": "s", "listen": {"port": 0}},
        {"store": "s", "listen": {"port": "many"}},
        {"store": "s", "tls": {"certfile": "c"}},
        {"store": "s", "upstream_overrides": {"a@b.example": {"host": "h"}}},
    ],
)
def test_config_rejects(obj):
    with pytest.raises(ConfigError):
        ProxyConfig.from_json(obj)


def test_load_config_file(tmp_path):
    path = tmp_path / "proxy.json"
    path.write_text(json.dumps({"store": "s.json", "listen": {"port": 2143}}))
    assert load_config(path).listen_port == 2143
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


# -- authentication -----------------------------------------------------------


def test_owner_login(connect):
    client = connect()
    assert client.greeting == b"* OK IMAP4rev1 service ready\r\n"
    out = client.cmd(b"t1 LOGIN person@gmail.com appleball\r\n")
    assert out[-1] == b"t1 OK LOGIN completed\r\n"


def test_wrong_password_and_unknown_account_read_the_same(connect):
    client = connect()
    wrong = client.cmd(b"t1 LOGIN person@gmail.com nope12345\r\n")[-1]
    unknown = client.cmd(b"t2 LOGIN stranger@gmail.com appleball\r\n")[-1]
    assert wrong == b"t1 NO LOGIN failed\r\n"
    assert unknown.split(b" ", 1)[1] == wrong.split(b" ", 1)[1]


def test_authenticate_plain(connect):
    client = connect()
    blob = base64.b64encode(
        b"\x00" + ACCOUNT.encode() + b"\x00" + SPOUSE_PASSWORD.encode()
    )
    out = client.cmd(b"t1 AUTHENTICATE PLAIN " + blob + b"\r\n")
    assert out[-1] == b"t1 OK AUTHENTICATE completed\r\n"
    out = client.cmd(b"t2 SELECT INBOX\r\n")  # lands in the filtered view
    assert b"* 4 EXISTS\r\n" in out


def test_authenticate_cancel(connect):
    client = connect()
    client.send(b"t1 AUTHENTICATE PLAIN\r\n")
    assert client._read() == b"+ \r\n"
    client.send(b"*\r\n")
    assert client._read() == b"t1 BAD AUTHENTICATE cancelled\r\n"


@pytest.mark.parametrize(
    "line, reply",
    [
        (b"t1 AUTHENTICATE CRAM-MD5\r\n", b"t1 NO unsupported authentication mechanism\r\n"),
        (b"t1 AUTHENTICATE PLAIN not!base64\r\n", b"t1 BAD malformed AUTHENTICATE response\r\n"),
    ],
    ids=["mechanism", "base64"],
)
def test_authenticate_refusals_keep_the_session_unauthenticated(connect, line, reply):
    client = connect()
    assert client.cmd(line) == [reply]
    assert client.cmd(b"t2 SELECT INBOX\r\n") == [b"t2 NO not authenticated\r\n"]


def test_commands_rejected_before_auth(connect):
    client = connect()
    assert client.cmd(b"t1 SELECT INBOX\r\n")[-1] == b"t1 NO not authenticated\r\n"
    assert client.cmd(b"t2 FETCH 1 (UID)\r\n")[-1] == b"t2 NO not authenticated\r\n"
    assert client.cmd(b"t3 NOOP\r\n")[-1] == b"t3 OK NOOP completed\r\n"


def test_capability_answered_by_proxy(connect, mock6):
    client = connect()
    out = client.cmd(b"t1 CAPABILITY\r\n")
    assert out[0] == b"* CAPABILITY IMAP4rev1 AUTH=PLAIN\r\n"
    client.cmd(b"t2 LOGIN person@gmail.com appleball\r\n")
    mock6.clear_log()
    client.cmd(b"t3 CAPABILITY\r\n")  # the owner's goes to the upstream
    assert mock6.received_verbs() == ["CAPABILITY"]
    client.cmd(b"t4 LOGOUT\r\n")  # the mock serves one connection at a time
    spouse = connect()
    spouse.cmd(b"s1 LOGIN person@gmail.com catsanddogs\r\n")
    mock6.clear_log()
    out = spouse.cmd(b"s2 CAPABILITY\r\n")
    assert out == [b"* CAPABILITY IMAP4rev1 AUTH=PLAIN\r\n", b"s2 OK CAPABILITY completed\r\n"]
    assert mock6.received_verbs() == []


def test_syntax_error_keeps_session(connect):
    client = connect()
    out = client.cmd(b"t1 LOGIN onlyone\r\n")
    assert out[-1].startswith(b"t1 BAD")
    assert client.cmd(b"t2 NOOP\r\n")[-1] == b"t2 OK NOOP completed\r\n"
    # a malformed tag is not echoed back
    client.send(b"x" * 1000 + b" NOOP\r\n")
    assert client._read() == b"* BAD bad tag b'" + b"x" * 32 + b"'\r\n"
    assert client.cmd(b"t3 NOOP\r\n")[-1] == b"t3 OK NOOP completed\r\n"


def test_oversized_literal_closes_session(connect):
    client = connect()
    out = client.cmd(b"t1 LOGIN person@gmail.com {2000000}\r\n")
    assert out[-1] == b"t1 BAD literal too large\r\n"
    assert client._read() == b""


def test_overlong_line_closes_session(connect):
    client = connect()
    try:
        client.send(b"x" * (100 * 1024) + b"\r\n")
    except OSError:  # the proxy may close before the whole line is sent
        pass
    reply = b""
    try:
        while chunk := client.sock.recv(4096):
            reply += chunk
    except ConnectionResetError:  # the unread rest of the line resets the connection
        pass
    assert reply == b"* BAD line too long\r\n"
    assert len(reply) < 100


def test_stop_ends_a_live_session(store6, mock6, master_key):
    config = ProxyConfig(
        store_path=store6.path,
        listen_port=0,
        upstream_overrides={ACCOUNT: UpstreamOverride("127.0.0.1", mock6.port)},
    )
    proxy = ProxyServer(config, store6, master_key).start()
    client = ImapClient(proxy.port)
    try:
        assert client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")[-1].startswith(b"t1 OK")
        started = time.monotonic()
        proxy.stop()
        assert time.monotonic() - started < 0.5
        assert client._read() == b""
    finally:
        client.close()


def test_stop_ends_an_owner_pipe(proxy6, owner_session):
    started = time.monotonic()
    proxy6.stop()
    assert time.monotonic() - started < 0.5
    assert owner_session._read() == b""


@pytest.fixture
def tls_proxy(tmp_path, store6, master_key):
    """A proxy that speaks TLS with a fresh self-signed certificate for
    127.0.0.1; returns (proxy, client context that trusts it)."""
    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "chamail test")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
            critical=False,
        )
        .sign(key, hashes.SHA256())
    )
    certfile, keyfile = tmp_path / "cert.pem", tmp_path / "key.pem"
    certfile.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    keyfile.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )
    config = ProxyConfig(
        store_path=store6.path, listen_port=0, tls_certfile=str(certfile), tls_keyfile=str(keyfile)
    )
    with ProxyServer(config, store6, master_key) as proxy:
        yield proxy, ssl.create_default_context(cafile=str(certfile))


def _tls_greeting(port: int, context: ssl.SSLContext) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=1) as raw:
        with context.wrap_socket(raw, server_hostname="127.0.0.1") as tls:
            return tls.recv(100)


def test_silent_client_does_not_hold_up_other_tls_handshakes(tls_proxy):
    proxy, context = tls_proxy
    with socket.create_connection(("127.0.0.1", proxy.port)):  # connects, sends nothing
        started = time.monotonic()
        assert _tls_greeting(proxy.port, context) == b"* OK IMAP4rev1 service ready\r\n"
        assert time.monotonic() - started < 1


def test_owner_session_over_tls(tls_proxy, mock6):
    proxy, context = tls_proxy
    lines = b"".join(b"line %06d of a long message\r\n" % i for i in range(10000))
    message = b"From: me@uni.example\r\nSubject: big\r\n\r\n" + lines  # about 300 KB
    # One TLS record of about 10 KB: the proxy's reader holds the first 8 KiB
    # of it at LOGIN, and the TLS layer the rest.
    pipelined = b"a1 LOGIN person@gmail.com appleball\r\na2 SELECT INBOX\r\n"
    pipelined += b'a3 SEARCH SUBJECT "%s"\r\n' % (b"x" * 10000)
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as raw:
        tls = context.wrap_socket(raw, server_hostname="127.0.0.1")
        with tls, tls.makefile("rb") as rfile:

            def replies(tag: bytes) -> list[bytes]:
                out = [imapcodec.read_response_blob(rfile)]
                while not out[-1].startswith(tag + b" "):
                    assert out[-1], "connection closed"
                    out.append(imapcodec.read_response_blob(rfile))
                return out

            assert imapcodec.read_response_blob(rfile) == imapcodec.GREETING
            tls.sendall(pipelined)
            assert replies(b"a1") == [b"a1 OK LOGIN completed\r\n"]
            assert b"* 6 EXISTS\r\n" in replies(b"a2")
            assert replies(b"a3") == [b"* SEARCH\r\n", b"a3 OK SEARCH completed\r\n"]
            tls.sendall(b"a4 APPEND INBOX {%d}\r\n" % len(message))
            assert imapcodec.read_response_blob(rfile) == b"+ \r\n"
            tls.sendall(message + b"\r\n")
            assert replies(b"a4")[-1] == b"a4 OK APPEND completed\r\n"
            tls.sendall(b"a5 FETCH 7 (BODY.PEEK[])\r\n")
            fetched = b"* 7 FETCH (BODY[] {%d}\r\n%s)\r\n" % (len(message), message)
            assert fetched in replies(b"a5")
            tls.sendall(b"a6 LOGOUT\r\n")
            assert replies(b"a6") == [imapcodec.BYE_LINE, b"a6 OK LOGOUT completed\r\n"]
            assert rfile.read() == b""
    assert mock6.received_verbs()[-5:] == ["SELECT", "SEARCH", "APPEND", "FETCH", "LOGOUT"]


def _read_until_closed(sock: socket.socket) -> None:
    """Read (a TLS alert, perhaps) until the peer closes or resets; raises
    socket.timeout if it does not."""
    with contextlib.suppress(ConnectionResetError):
        while sock.recv(100):
            pass


def test_failed_or_stalled_tls_handshake_closes_only_its_connection(tls_proxy, monkeypatch):
    proxy, context = tls_proxy
    monkeypatch.setattr(imapcodec, "HANDSHAKE_TIMEOUT", 0.3)
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as silent:
        with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as plain:
            plain.sendall(b"a1 LOGIN not tls\r\n")  # fails the handshake
            _read_until_closed(plain)
        _read_until_closed(silent)  # timed out
    assert _tls_greeting(proxy.port, context) == b"* OK IMAP4rev1 service ready\r\n"


def _dead_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def test_upstream_unreachable(tmp_path, master_key):
    cs = make_household_store(tmp_path / "store.json", _dead_port(), master_key)
    config = ProxyConfig(store_path=cs.path, listen_port=0)
    with ProxyServer(config, cs, master_key) as proxy:
        client = ImapClient(proxy.port)
        out = client.cmd(b"t1 LOGIN person@gmail.com appleball\r\n")
        assert out[-1] == b"t1 NO upstream unavailable\r\n"
        client.close()


@pytest.mark.parametrize(
    "greeting",
    [b"", b"* OK silent upstream ready\r\n", b"garbage\r\n"],
    ids=["no-greeting", "no-login-reply", "garbage-greeting"],
)
def test_a_silent_upstream_fails_the_login_in_time(
    tmp_path, master_key, monkeypatch, caplog, greeting
):
    monkeypatch.setattr(proxy_module, "UPSTREAM_TIMEOUT", 0.3)
    listener = socket.create_server(("127.0.0.1", 0))
    held = []

    def serve():
        conn, _ = listener.accept()
        held.append(conn)
        conn.sendall(greeting)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    cs = make_household_store(tmp_path / "store.json", listener.getsockname()[1], master_key)
    try:
        with ProxyServer(ProxyConfig(store_path=cs.path, listen_port=0), cs, master_key) as proxy:
            client = ImapClient(proxy.port)
            try:
                out = client.cmd(b"t1 LOGIN person@gmail.com appleball\r\n")
                assert out == [b"t1 NO upstream unavailable\r\n"]
            finally:
                client.close()
    finally:
        thread.join(timeout=5)
        for conn in held:
            conn.close()
        listener.close()
    assert "crashed" not in caplog.text


def test_upstream_rejects_stored_credential(tmp_path, master_key, mock6):
    cs = CredStore(str(tmp_path / "store.json"), kdf_params=FAST_KDF)
    cs.create_account(
        ACCOUNT,
        UpstreamSpec(
            host="127.0.0.1",
            port=mock6.port,
            password="not-the-upstream-pw",
            upstream_login=ACCOUNT,
        ),
        OWNER_PASSWORD,
        master_key,
    )
    config = ProxyConfig(store_path=cs.path, listen_port=0)
    with ProxyServer(config, cs, master_key) as proxy:
        client = ImapClient(proxy.port)
        out = client.cmd(b"t1 LOGIN person@gmail.com appleball\r\n")
        assert out[-1] == b"t1 NO upstream login failed\r\n"
        client.close()


# -- owner passthrough -----------------------------------------------------------


def test_owner_sees_everything(owner_session):
    out = owner_session.cmd(b"t2 SELECT INBOX\r\n")
    assert b"* 6 EXISTS\r\n" in out
    assert out[-1] == b"t2 OK [READ-WRITE] SELECT completed\r\n"
    out = owner_session.cmd(b"t3 SEARCH FROM ex@gmail.com\r\n")
    assert out[0] == b"* SEARCH 3 5\r\n"
    out = owner_session.cmd(b"t4 FETCH 3 (UID)\r\n")
    assert out[0] == b"* 3 FETCH (UID 30)\r\n"


def test_owner_can_write(owner_session, mock6):
    owner_session.cmd(b"t2 SELECT INBOX\r\n")
    out = owner_session.cmd(b"t3 STORE 6 +FLAGS (\\Seen)\r\n")
    assert out[0] == b"* 6 FETCH (FLAGS (\\Seen))\r\n"
    assert mock6.mailboxes["INBOX"].messages[5].has_flag("\\Seen")


def test_owner_unknown_verb_is_relayed(owner_session, mock6):
    owner_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    out = owner_session.cmd(b"t3 XAPPLEPUSH ping\r\n")
    assert out[-1] == b"t3 BAD unsupported command\r\n"
    assert mock6.received_verbs() == ["XAPPLEPUSH"]


def test_owner_logout_relays_bye(owner_session, mock6):
    out = owner_session.cmd(b"t9 LOGOUT\r\n")
    assert out[0] == b"* BYE IMAP4rev1 server logging out\r\n"
    assert out[-1] == b"t9 OK LOGOUT completed\r\n"
    assert mock6.received_verbs()[-1] == "LOGOUT"


def test_owner_replies_stream_before_the_tagged_line(scripted_session):
    release = threading.Event()

    def script(line, send):
        send(b"* 1 EXISTS\r\n")
        release.wait(10)
        send(line.split(b" ", 1)[0] + b" OK NOOP completed\r\n")

    client, _upstream = scripted_session(script)
    client.sock.settimeout(5)
    client.send(b"a1 NOOP\r\n")
    try:
        assert client._read() == b"* 1 EXISTS\r\n"
    finally:
        release.set()
    assert client._read() == b"a1 OK NOOP completed\r\n"


def test_owner_gets_the_upstream_refusal_of_a_literal(scripted_session):
    def script(line, send):
        tag = line.split(b" ", 1)[0]
        if b"APPEND" in line:
            send(tag + b" NO [TRYCREATE] no such mailbox\r\n")
        else:
            send(tag + b" OK NOOP completed\r\n")

    client, upstream = scripted_session(script)
    client.sock.settimeout(5)
    # as in a direct session: no "+" from the proxy, so the literal is never sent
    assert client.cmd(b"a1 APPEND nobox {3}\r\n") == [b"a1 NO [TRYCREATE] no such mailbox\r\n"]
    assert client.cmd(b"a2 NOOP\r\n") == [b"a2 OK NOOP completed\r\n"]
    assert upstream.lines[1:] == [b"a1 APPEND nobox {3}\r\n", b"a2 NOOP\r\n"]


def test_owner_idle_ends_at_done(scripted_session):
    idling = []

    def script(line, send):
        if line == b"DONE\r\n":
            send(idling.pop() + b" OK IDLE terminated\r\n")
            return
        tag, verb = line.split()[:2]
        if verb == b"IDLE":
            idling.append(tag)
            send(b"+ idling\r\n")
        else:
            send(tag + b" OK " + verb + b" completed\r\n")

    client, upstream = scripted_session(script)
    client.sock.settimeout(3)
    client.send(b"a1 IDLE\r\n")
    assert client._read() == b"+ idling\r\n"
    client.send(b"DONE\r\n")
    assert client._read() == b"a1 OK IDLE terminated\r\n"
    assert client.cmd(b"a2 NOOP\r\n") == [b"a2 OK NOOP completed\r\n"]
    assert upstream.lines[1:] == [b"a1 IDLE\r\n", b"DONE\r\n", b"a2 NOOP\r\n"]


@pytest.mark.parametrize("side", ["client", "upstream"])
def test_an_owner_sessions_log_says_which_side_ended_it(scripted_session, caplog, side):
    client, _upstream = scripted_session(lambda line, send: False)  # closes at a command

    def ended():
        return [r.getMessage() for r in caplog.records if "owner session" in r.getMessage()]

    with caplog.at_level(logging.INFO, logger="chamail.proxy"):
        if side == "client":
            client.close()
        else:
            client.send(b"a1 NOOP\r\n")
            assert client._read() == b""
        deadline = time.monotonic() + 5
        while not ended() and time.monotonic() < deadline:
            time.sleep(0.02)
    [line] = ended()
    assert line.endswith(f"ended by the {side}")


def test_an_upstream_reset_in_an_owner_pipe_is_logged_as_the_upstreams_end(
    scripted_session, caplog
):
    def reset(line, send):  # send is the upstream connection's sendall
        send.__self__.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        return False  # closes the connection, which the zero linger turns into a reset

    client, _upstream = scripted_session(reset)

    def logged():
        return [r.getMessage() for r in caplog.records if r.name == "chamail.proxy"]

    with caplog.at_level(logging.INFO, logger="chamail.proxy"):
        client.send(b"a1 NOOP\r\n")
        assert client._read() == b""
        deadline = time.monotonic() + 5
        while not any("owner session" in m for m in logged()) and time.monotonic() < deadline:
            time.sleep(0.02)
    [line] = [m for m in logged() if "owner session" in m]
    assert line.endswith("ended by the upstream")
    assert not any("went away" in m for m in logged())


_CONDSTORE_LOGIN = b"OK [CAPABILITY IMAP4rev1 IDLE CONDSTORE MOVE] Logged in"


@pytest.mark.parametrize(
    "password, heard",
    [
        (OWNER_PASSWORD, b"t0 " + _CONDSTORE_LOGIN + b"\r\n"),
        (SPOUSE_PASSWORD, b"t0 OK LOGIN completed\r\n"),
    ],
    ids=["owner", "subuser"],
)
def test_only_the_owner_hears_the_upstreams_login_reply(scripted_session, password, heard):
    script = lambda line, send: None  # noqa: E731
    client, _upstream = scripted_session(script, password, login_reply=_CONDSTORE_LOGIN)
    assert bytes(client.transcript) == imapcodec.GREETING + heard


# -- sub-user filtering ------------------------------------------------------------


def test_subuser_select_is_filtered_and_read_only(spouse_session, mock6):
    mock6.clear_log()
    out = spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    assert b"* 4 EXISTS\r\n" in out
    assert b"* 0 RECENT\r\n" in out
    assert b"* OK [UIDVALIDITY 4242] UIDs valid\r\n" in out
    assert b"* OK [UIDNEXT 61] Predicted next UID\r\n" in out
    assert out[-1] == b"t2 OK [READ-ONLY] SELECT completed\r\n"
    verbs = mock6.received_verbs()
    assert "EXAMINE" in verbs and "SELECT" not in verbs


def test_subuser_examine(spouse_session):
    out = spouse_session.cmd(b"t2 EXAMINE INBOX\r\n")
    assert b"* 4 EXISTS\r\n" in out
    assert out[-1] == b"t2 OK [READ-ONLY] EXAMINE completed\r\n"


def test_subuser_select_unknown_mailbox(spouse_session):
    out = spouse_session.cmd(b"t2 SELECT Nope\r\n")
    assert out[-1] == b"t2 NO No such mailbox\r\n"
    # session still usable
    out = spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert b"* 4 EXISTS\r\n" in out


def test_subuser_fetch_renumbers(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    out = spouse_session.cmd(b"t3 FETCH 1:* (UID)\r\n")
    assert out[:-1] == [
        b"* 1 FETCH (UID 10)\r\n",
        b"* 2 FETCH (UID 20)\r\n",
        b"* 3 FETCH (UID 40)\r\n",
        b"* 4 FETCH (UID 60)\r\n",
    ]


def test_subuser_fetch_maps_content(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    out = spouse_session.cmd(b"t3 FETCH 3 (BODY.PEEK[HEADER.FIELDS (FROM)])\r\n")
    assert out[0].startswith(b"* 3 FETCH ")
    assert b"newsletter@shop.example" in out[0]  # upstream message four


def test_subuser_fetch_out_of_range_is_bad(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    out = spouse_session.cmd(b"t3 FETCH 9 (UID)\r\n")
    assert out == [b"t3 BAD invalid sequence set\r\n"]


def test_subuser_uid_fetch_hidden_uid_yields_nothing(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    out = spouse_session.cmd(b"t3 UID FETCH 30 (FLAGS)\r\n")
    assert out == [b"t3 OK UID FETCH completed\r\n"]
    out = spouse_session.cmd(b"t4 UID FETCH 30:50 (FLAGS)\r\n")
    assert out[:-1] == [b"* 3 FETCH (FLAGS () UID 40)\r\n"]


def test_subuser_uid_fetch_star_is_largest_visible(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    out = spouse_session.cmd(b"t3 UID FETCH *:* (FLAGS)\r\n")
    assert out[:-1] == [b"* 4 FETCH (FLAGS () UID 60)\r\n"]


def test_subuser_search_maps_sequences(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    assert spouse_session.cmd(b"t3 SEARCH ALL\r\n")[0] == b"* SEARCH 1 2 3 4\r\n"
    assert spouse_session.cmd(b"t4 SEARCH FROM ex@gmail.com\r\n")[0] == b"* SEARCH\r\n"
    assert (
        spouse_session.cmd(b"t5 UID SEARCH ALL\r\n")[0] == b"* SEARCH 10 20 40 60\r\n"
    )
    assert (
        spouse_session.cmd(b"t6 UID SEARCH FROM ex@gmail.com\r\n")[0] == b"* SEARCH\r\n"
    )


def test_subuser_search_translates_sequence_sets(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    # virtual 3 is upstream 4; virtual 3:4 spans the hidden upstream 5
    assert spouse_session.cmd(b"t3 SEARCH 3\r\n")[0] == b"* SEARCH 3\r\n"
    assert spouse_session.cmd(b"t4 SEARCH 3:4\r\n")[0] == b"* SEARCH 3 4\r\n"
    assert spouse_session.cmd(b"t5 SEARCH FROM ex@gmail.com 1:*\r\n")[0] == b"* SEARCH\r\n"
    out = spouse_session.cmd(b"t6 SEARCH SUBJECT {6}\r\ndinner 2:*\r\n")
    assert out == [b"+ \r\n", b"* SEARCH 2\r\n", b"t6 OK SEARCH completed\r\n"]
    assert [cmd.rest for cmd in mock6.received] == [
        b"4",
        b"4:6",
        b"FROM ex@gmail.com 1:6",
        b"SUBJECT {6}\r\ndinner 2:6",
    ]
    mock6.clear_log()
    assert spouse_session.cmd(b"t7 SEARCH 9\r\n") == [b"t7 BAD invalid sequence set\r\n"]
    assert mock6.received_verbs() == []


def test_subuser_search_or_not_and_lists_return_visible_hits_only(spouse_session, mock6):
    # the upstream's hits include the hidden 3 and 5; the proxy keeps the rest
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    for criteria, hits in (
        (b"SEARCH OR FROM boss@work.example FROM ex@gmail.com", b"1"),
        (b"SEARCH NOT 1", b"2 3 4"),
        (b"SEARCH NOT FROM mom", b"1 3 4"),
        (b"SEARCH (FROM ex@gmail.com)", b""),
        (b"SEARCH (FROM mom UNSEEN)", b"2"),
        (b"UID SEARCH OR NOT 2:4 (UID 40)", b"10 40"),
    ):
        out = spouse_session.cmd(b"t3 " + criteria + b"\r\n")
        verb = criteria.rsplit(b"SEARCH", 1)[0] + b"SEARCH"
        assert out == [
            b"* SEARCH" + (b" " + hits if hits else b"") + b"\r\n",
            b"t3 OK " + verb + b" completed\r\n",
        ]
    assert [cmd.rest for cmd in mock6.received] == [
        b"OR FROM boss@work.example FROM ex@gmail.com",
        b"NOT 1",
        b"NOT FROM mom",
        b"(FROM ex@gmail.com)",
        b"(FROM mom UNSEEN)",
        b"OR NOT 2:6 (UID 40)",
    ]


def test_empty_view_answers_search_and_uid_fetch_locally(spouse_session, store6, mock6):
    store6.manage_list(ACCOUNT, "create", "nobody")
    store6.set_policy(
        ACCOUNT, "spouse", PolicySet((SenderConstraint(SenderMode.WHITELIST, "nobody"),))
    )
    assert b"* 0 EXISTS\r\n" in spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    assert spouse_session.cmd(b"t3 SEARCH ALL\r\n") == [
        b"* SEARCH\r\n",
        b"t3 OK SEARCH completed\r\n",
    ]
    assert spouse_session.cmd(b"t4 UID SEARCH UID 1:*\r\n") == [
        b"* SEARCH\r\n",
        b"t4 OK UID SEARCH completed\r\n",
    ]
    assert spouse_session.cmd(b"t5 UID FETCH 1:* (FLAGS)\r\n") == [
        b"t5 OK UID FETCH completed\r\n"
    ]
    assert spouse_session.cmd(b"t6 FETCH 1:* (FLAGS)\r\n") == [
        b"t6 BAD invalid sequence set\r\n"
    ]
    assert mock6.received_verbs() == []


def test_subuser_fetch_requires_selection(spouse_session):
    out = spouse_session.cmd(b"t2 FETCH 1 (UID)\r\n")
    assert out == [b"t2 NO no mailbox selected\r\n"]


def test_subuser_close(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    out = spouse_session.cmd(b"t3 CLOSE\r\n")
    assert out == [b"t3 OK CLOSE completed\r\n"]
    assert mock6.received_verbs() == ["CLOSE"]
    out = spouse_session.cmd(b"t4 FETCH 1 (UID)\r\n")
    assert out == [b"t4 NO no mailbox selected\r\n"]
    out = spouse_session.cmd(b"t5 CLOSE\r\n")
    assert out == [b"t5 NO no mailbox selected\r\n"]


def test_subuser_list_passthrough(spouse_session):
    out = spouse_session.cmd(b't2 LIST "" *\r\n')
    assert out[0] == b'* LIST () "/" INBOX\r\n'
    assert out[-1] == b"t2 OK LIST completed\r\n"


def test_subuser_relogin_rejected(spouse_session):
    out = spouse_session.cmd(b"t2 LOGIN person@gmail.com catsanddogs\r\n")
    assert out == [b"t2 BAD already authenticated\r\n"]


def test_subuser_logout(spouse_session, mock6):
    out = spouse_session.cmd(b"t9 LOGOUT\r\n")
    assert out[0] == b"* BYE IMAP4rev1 server logging out\r\n"
    assert out[-1] == b"t9 OK LOGOUT completed\r\n"
    assert mock6.received_verbs()[-1] == "LOGOUT"


# -- write isolation ---------------------------------------------------------------


MUTATING = [
    b"STORE 1 +FLAGS (\\Deleted)",
    b"UID STORE 10 +FLAGS (\\Deleted)",
    b"EXPUNGE",
    b"COPY 1 Archive",
    b"UID COPY 10 Archive",
    b"CREATE Evil",
    b"DELETE INBOX",
    b"RENAME INBOX Elsewhere",
    b"SUBSCRIBE INBOX",
    b"XAPPLEPUSH ping",
]


@pytest.mark.parametrize("line", MUTATING, ids=lambda b: b.split()[0].decode())
def test_subuser_writes_denied(spouse_session, mock6, line):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    out = spouse_session.cmd(b"t3 " + line + b"\r\n")
    assert out == [b"t3 NO Permission denied\r\n"]
    assert mock6.received_verbs() == []


def test_subuser_append_denied_even_with_literal(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    body = b"From: sneaky@x.example\r\n\r\nhi\r\n"
    out = spouse_session.cmd(
        b"t3 APPEND INBOX (\\Seen) {%d+}\r\n" % len(body) + body + b"\r\n"
    )
    assert out == [b"t3 NO Permission denied\r\n"]
    assert mock6.received_verbs() == []
    assert mock6.mailboxes["INBOX"].exists() == 6


# -- live mailbox updates -----------------------------------------------------------


def test_hidden_arrival_is_silent(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_new_message(
        "INBOX", b"From: ex@gmail.com\r\nSubject: POPPY2266\r\n\r\nPOPPYBODY2266\r\n"
    )
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"t3 OK NOOP completed\r\n"]
    # and it stays invisible afterwards
    out = spouse_session.cmd(b"t4 FETCH 1:* (UID)\r\n")
    assert len(out) == 5


def test_visible_arrival_announced(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    uid = mock6.inject_new_message(
        "INBOX", b"From: colleague@work.example\r\nSubject: standup\r\n\r\nmoved\r\n"
    )
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"* 5 EXISTS\r\n", b"t3 OK NOOP completed\r\n"]
    out = spouse_session.cmd(b"t4 FETCH 5 (UID)\r\n")
    assert out[0] == b"* 5 FETCH (UID %d)\r\n" % uid


def test_hidden_expunge_is_silent(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_expunge("INBOX", 30)
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"t3 OK NOOP completed\r\n"]
    out = spouse_session.cmd(b"t4 SEARCH ALL\r\n")
    assert out[0] == b"* SEARCH 1 2 3 4\r\n"


def test_visible_expunge_renumbered(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_expunge("INBOX", 20)
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"* 2 EXPUNGE\r\n", b"t3 OK NOOP completed\r\n"]
    out = spouse_session.cmd(b"t4 FETCH 1:* (UID)\r\n")
    assert out[:-1] == [
        b"* 1 FETCH (UID 10)\r\n",
        b"* 2 FETCH (UID 40)\r\n",
        b"* 3 FETCH (UID 60)\r\n",
    ]


def test_arrival_then_expunges_in_one_response(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    uid = mock6.inject_new_message(
        "INBOX", b"From: colleague@work.example\r\nSubject: standup\r\n\r\nmoved\r\n"
    )
    mock6.inject_expunge("INBOX", 20)
    mock6.inject_expunge("INBOX", 30)
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"* 2 EXPUNGE\r\n", b"* 4 EXISTS\r\n", b"t3 OK NOOP completed\r\n"]
    out = spouse_session.cmd(b"t4 UID SEARCH ALL\r\n")
    assert out[0] == b"* SEARCH 10 40 60 %d\r\n" % uid


def test_arrival_expunged_before_delivery_is_silent(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    uid = mock6.inject_new_message(
        "INBOX", b"From: colleague@work.example\r\nSubject: standup\r\n\r\nmoved\r\n"
    )
    mock6.inject_expunge("INBOX", uid)
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"t3 OK NOOP completed\r\n"]
    out = spouse_session.cmd(b"t4 SEARCH ALL\r\n")
    assert out[0] == b"* SEARCH 1 2 3 4\r\n"


HIDDEN_ARRIVAL = b"From: ex@gmail.com\r\nSubject: POPPY2266\r\n\r\nPOPPYBODY2266\r\n"
VISIBLE_ARRIVAL = b"From: colleague@work.example\r\nSubject: standup\r\n\r\nmoved\r\n"


def test_uid_fetch_drops_rows_of_arrivals_not_yet_taken_in(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_new_message("INBOX", HIDDEN_ARRIVAL)
    uid = mock6.inject_new_message("INBOX", VISIBLE_ARRIVAL)
    # the upstream answers rows for both arrivals; neither is relayed
    out = spouse_session.cmd(b"t3 UID FETCH 1:100000 (FLAGS)\r\n")
    assert out == [
        b"* 1 FETCH (FLAGS (\\Seen) UID 10)\r\n",
        b"* 2 FETCH (FLAGS () UID 20)\r\n",
        b"* 3 FETCH (FLAGS () UID 40)\r\n",
        b"* 4 FETCH (FLAGS () UID 60)\r\n",
        b"* 5 EXISTS\r\n",
        b"t3 OK UID FETCH completed\r\n",
    ]
    out = spouse_session.cmd(b"t4 UID FETCH 61:* (FLAGS)\r\n")
    assert out[:-1] == [b"* 5 FETCH (FLAGS () UID %d)\r\n" % uid]


def test_uid_star_is_largest_visible_after_hidden_arrival(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.mailboxes["INBOX"].uidnext = 70
    assert mock6.inject_new_message("INBOX", HIDDEN_ARRIVAL) == 70
    assert spouse_session.cmd(b"t3 NOOP\r\n") == [b"t3 OK NOOP completed\r\n"]
    # forwarded verbatim, '*' would be the upstream's 70 and match nothing visible
    out = spouse_session.cmd(b"t4 UID FETCH 65:* (FLAGS)\r\n")
    assert out[:-1] == [b"* 4 FETCH (FLAGS () UID 60)\r\n"]
    assert spouse_session.cmd(b"t5 UID SEARCH UID 65:*\r\n")[0] == b"* SEARCH 60\r\n"


def test_a_hidden_arrival_never_moves_the_subusers_uidnext(spouse_session, connect, mock6):
    """UIDNEXT is one above the largest UID the sub-user was ever shown:
    a hidden arrival leaves it, a visible one raises it, an expunge never
    lowers it, and a session that starts from the saved view keeps it."""

    def uidnext(client, tag=b"s") -> bytes:
        out = client.cmd(tag + b" STATUS INBOX (UIDNEXT)\r\n")
        assert out[-1] == tag + b" OK STATUS completed\r\n"
        return out[0]

    def select(client) -> list[bytes]:
        return [line for line in client.cmd(b"t SELECT INBOX\r\n") if b"UIDNEXT" in line]

    assert uidnext(spouse_session) == b"* STATUS INBOX (UIDNEXT 61)\r\n"
    assert select(spouse_session) == [b"* OK [UIDNEXT 61] Predicted next UID\r\n"]
    assert mock6.inject_new_message("INBOX", HIDDEN_ARRIVAL) == 61
    assert spouse_session.cmd(b"t3 NOOP\r\n") == [b"t3 OK NOOP completed\r\n"]
    assert uidnext(spouse_session) == b"* STATUS INBOX (UIDNEXT 61)\r\n"
    assert select(spouse_session) == [b"* OK [UIDNEXT 61] Predicted next UID\r\n"]

    assert mock6.inject_new_message("INBOX", VISIBLE_ARRIVAL) == 62
    assert spouse_session.cmd(b"t4 NOOP\r\n") == [b"* 5 EXISTS\r\n", b"t4 OK NOOP completed\r\n"]
    assert uidnext(spouse_session) == b"* STATUS INBOX (UIDNEXT 63)\r\n"
    mock6.inject_expunge("INBOX", 62)
    assert spouse_session.cmd(b"t5 NOOP\r\n") == [b"* 5 EXPUNGE\r\n", b"t5 OK NOOP completed\r\n"]
    assert uidnext(spouse_session) == b"* STATUS INBOX (UIDNEXT 63)\r\n"
    assert select(spouse_session) == [b"* OK [UIDNEXT 63] Predicted next UID\r\n"]

    spouse_session.cmd(b"t6 LOGOUT\r\n")  # the mock serves one connection at a time
    other = connect()
    assert other.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")[-1].startswith(b"t1 OK")
    assert select(other) == [b"* OK [UIDNEXT 63] Predicted next UID\r\n"]
    assert uidnext(other) == b"* STATUS INBOX (UIDNEXT 63)\r\n"


def test_upstream_drop_terminates_session(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.drop_connection()
    spouse_session.send(b"t3 NOOP\r\n")
    assert spouse_session._read() == b"* BYE session terminated\r\n"
    assert spouse_session._read() == b""


# -- STATUS -----------------------------------------------------------------------


def test_status_uid_items_come_from_the_examine(spouse_session, mock6):
    mock6.clear_log()
    out = spouse_session.cmd(b"t2 STATUS INBOX (UIDNEXT UIDVALIDITY)\r\n")
    assert out[0] == b"* STATUS INBOX (UIDNEXT 61 UIDVALIDITY 4242)\r\n"
    assert out[-1] == b"t2 OK STATUS completed\r\n"
    assert mock6.received_verbs() == ["EXAMINE", "FETCH"]


def test_status_counts_only_visible(spouse_session, mock6):
    mock6.clear_log()
    out = spouse_session.cmd(b"t2 STATUS INBOX (MESSAGES UNSEEN RECENT)\r\n")
    assert out[0] == b"* STATUS INBOX (MESSAGES 4 UNSEEN 3 RECENT 0)\r\n"
    # inspection runs over the one upstream connection, which stays there
    assert mock6.received_verbs() == ["EXAMINE", "FETCH", "SEARCH"]
    out = spouse_session.cmd(b"t3 FETCH 1 (UID)\r\n")
    assert out == [b"t3 NO no mailbox selected\r\n"]


def test_status_while_same_mailbox_selected(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    out = spouse_session.cmd(b"t3 STATUS INBOX (MESSAGES)\r\n")
    assert out == [
        b"* STATUS INBOX (MESSAGES 4)\r\n",
        b"t3 OK STATUS completed\r\n",
    ]
    # inspect the mailbox, then re-open it
    assert mock6.received_verbs() == ["EXAMINE", "FETCH", "EXAMINE", "FETCH"]
    # the selection survived the detour
    out = spouse_session.cmd(b"t4 FETCH 4 (UID)\r\n")
    assert out[0] == b"* 4 FETCH (UID 60)\r\n"


def test_status_reflects_concurrent_expunge(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_expunge("INBOX", 20)
    out = spouse_session.cmd(b"t3 STATUS INBOX (MESSAGES)\r\n")
    assert out == [
        b"* 2 EXPUNGE\r\n",
        b"* STATUS INBOX (MESSAGES 3)\r\n",
        b"t3 OK STATUS completed\r\n",
    ]
    out = spouse_session.cmd(b"t4 SEARCH ALL\r\n")
    assert out[0] == b"* SEARCH 1 2 3\r\n"


def test_status_unknown_item_rejected(spouse_session):
    out = spouse_session.cmd(b"t2 STATUS INBOX (HIGHESTMODSEQ)\r\n")
    assert out == [b"t2 BAD unknown STATUS item HIGHESTMODSEQ\r\n"]


def test_status_non_ascii_item_rejected(spouse_session):
    out = spouse_session.cmd("t2 STATUS INBOX (MESSé)\r\n".encode())
    assert out == ["t2 BAD unknown STATUS item MESS\ufffd\ufffd\r\n".encode()]
    assert spouse_session.cmd(b"t3 NOOP\r\n") == [b"t3 OK NOOP completed\r\n"]


def test_status_unknown_mailbox(spouse_session):
    out = spouse_session.cmd(b"t2 STATUS Nope (MESSAGES)\r\n")
    assert out[-1] == b"t2 NO No such mailbox\r\n"


def test_refused_status_restores_the_selection_silently(spouse_session):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    # a refused EXAMINE leaves the upstream with nothing selected (RFC 3501 §6.3.2)
    assert spouse_session.cmd(b"t3 STATUS Nope (MESSAGES)\r\n") == [b"t3 NO No such mailbox\r\n"]
    assert spouse_session.cmd(b"t4 FETCH 4 (UID)\r\n") == [
        b"* 4 FETCH (UID 60)\r\n",
        b"t4 OK FETCH completed\r\n",
    ]


def test_status_with_nothing_selected_leaves_nothing_selected(spouse_session, mock6):
    out = spouse_session.cmd(b"t2 STATUS INBOX (MESSAGES)\r\n")
    assert out == [b"* STATUS INBOX (MESSAGES 4)\r\n", b"t2 OK STATUS completed\r\n"]
    assert spouse_session.cmd(b"t3 FETCH 1 (UID)\r\n") == [b"t3 NO no mailbox selected\r\n"]
    # the upstream still has INBOX open and reports its arrivals; no view takes them
    mock6.inject_new_message("INBOX", VISIBLE_ARRIVAL)
    mock6.inject_new_message("INBOX", HIDDEN_ARRIVAL)
    mock6.clear_log()
    assert spouse_session.cmd(b"t4 NOOP\r\n") == [b"t4 OK NOOP completed\r\n"]
    assert b"* 8 EXISTS\r\n" in mock6.transcript
    assert b"* 5 EXISTS\r\n" in spouse_session.cmd(b"t5 SELECT INBOX\r\n")


ARCHIVE_VISIBLE = b"From: friend@uni.example\r\nSubject: photos\r\n\r\nattached\r\n"
ARCHIVE_HIDDEN = b"From: ex@gmail.com\r\nSubject: LILAC7733\r\n\r\nLILACBODY7733\r\n"


@pytest.fixture
def two_box(tmp_path, master_key, inbox6):
    archive = FixtureMailbox(
        "Archive",
        [
            StoredMessage(100, (), ARCHIVE_HIDDEN),
            StoredMessage(110, (), ARCHIVE_VISIBLE),
        ],
        uidvalidity=7,
        uidnext=200,
    )
    with MockIMAPServer([inbox6, archive], {ACCOUNT: UPSTREAM_PASSWORD}) as mock:
        cs = make_household_store(tmp_path / "store.json", mock.port, master_key)
        config = ProxyConfig(store_path=cs.path, listen_port=0)
        with ProxyServer(config, cs, master_key) as proxy:
            yield mock, proxy


def test_status_of_other_mailbox_while_selected(two_box):
    mock, proxy = two_box
    client = ImapClient(proxy.port)
    try:
        client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
        client.cmd(b"t2 SELECT INBOX\r\n")
        mock.clear_log()
        out = client.cmd(b"t3 STATUS Archive (MESSAGES UNSEEN)\r\n")
        assert out == [
            b"* STATUS Archive (MESSAGES 1 UNSEEN 1)\r\n",
            b"t3 OK STATUS completed\r\n",
        ]
        # inspect target, then re-open the selected mailbox
        assert mock.received_verbs() == [
            "EXAMINE",
            "FETCH",
            "SEARCH",
            "EXAMINE",
            "FETCH",
        ]
        out = client.cmd(b"t4 FETCH 1:* (UID)\r\n")
        assert len(out) == 5  # four visible messages, one tagged line
    finally:
        client.close()


def test_restore_after_status_checks_the_view_with_one_row(two_box):
    mock, proxy = two_box
    client = ImapClient(proxy.port)
    try:
        client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
        client.cmd(b"t2 SELECT INBOX\r\n")
        mock.inject_expunge("INBOX", 20)
        assert client.cmd(b"t3 NOOP\r\n") == [b"* 2 EXPUNGE\r\n", b"t3 OK NOOP completed\r\n"]
        mock.clear_log()
        out = client.cmd(b"t4 STATUS Archive (MESSAGES)\r\n")
        assert out == [b"* STATUS Archive (MESSAGES 1)\r\n", b"t4 OK STATUS completed\r\n"]
        # the view's own five UIDs are the layout: seq 5 still holds UID 60
        assert [cmd.raw.split(b" ", 1)[1] for cmd in mock.received][-2:] == [
            b"EXAMINE INBOX\r\n",
            b"FETCH 5 (UID)\r\n",
        ]
        # and it saved the view without the message expunged before it
        assert _saved(proxy) == ([10, 30, 40, 50, 60], [10, 40, 60], 61)
        # so the re-SELECT checks one row too
        mock.clear_log()
        assert b"* 3 EXISTS\r\n" in client.cmd(b"t5 SELECT INBOX\r\n")
        assert [cmd.raw.split(b" ", 1)[1] for cmd in mock.received] == [
            b"EXAMINE INBOX\r\n",
            b"FETCH 5 (UID)\r\n",
        ]
    finally:
        client.close()


def test_restore_after_status_replays_expunges_then_arrivals(two_box):
    mock, proxy = two_box
    client = ImapClient(proxy.port)
    try:
        client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
        client.cmd(b"t2 SELECT INBOX\r\n")
        mock.inject_expunge("INBOX", 40)
        uid = mock.inject_new_message("INBOX", VISIBLE_ARRIVAL)
        # the EXAMINE of Archive drops the upstream's pending events; the
        # restore finds both changes and tells them in event order
        assert client.cmd(b"t3 STATUS Archive (MESSAGES)\r\n") == [
            b"* 3 EXPUNGE\r\n",
            b"* 4 EXISTS\r\n",
            b"* STATUS Archive (MESSAGES 1)\r\n",
            b"t3 OK STATUS completed\r\n",
        ]
        out = client.cmd(b"t4 UID SEARCH ALL\r\n")
        assert out[0] == b"* SEARCH 10 20 60 %d\r\n" % uid
    finally:
        client.close()


def test_subuser_can_select_second_mailbox(two_box):
    mock, proxy = two_box
    client = ImapClient(proxy.port)
    try:
        client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
        out = client.cmd(b"t2 SELECT Archive\r\n")
        assert b"* 1 EXISTS\r\n" in out
        out = client.cmd(b"t3 FETCH 1 (UID)\r\n")
        assert out[0] == b"* 1 FETCH (UID 110)\r\n"
        out = client.cmd(b"t4 UID SEARCH ALL\r\n")
        assert out[0] == b"* SEARCH 110\r\n"
    finally:
        client.close()


# -- policy lifecycle ---------------------------------------------------------------


def test_policy_snapshot_held_until_reselect(spouse_session, store6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    store6.manage_list(ACCOUNT, "remove-member", "exes", "ex@gmail.com")
    # mid-selection the snapshot still hides the old matches
    out = spouse_session.cmd(b"t3 FETCH 1:* (UID)\r\n")
    assert len(out) == 5
    # a fresh SELECT re-reads the policy
    out = spouse_session.cmd(b"t4 SELECT INBOX\r\n")
    assert b"* 6 EXISTS\r\n" in out


# -- decision cache -------------------------------------------------------------------


SPOUSE_BLACKLIST = (SenderConstraint(SenderMode.BLACKLIST, "exes"),)


def _saved(proxy, mailbox="INBOX") -> tuple[list[int], list[int], int]:
    """The UIDs, the visible UIDs and the UIDNEXT of the view last saved
    for *mailbox*."""
    [(uids, visible, uidnext)] = [
        saved for key, (saved, _count) in proxy.decisions._entries.items() if key[3] == mailbox
    ]
    return list(uids), list(visible), uidnext


def _metadata_fetches(mock) -> list[bytes]:
    """Upstream FETCHes that read headers or body excerpts for the policy."""
    return [
        cmd.rest
        for cmd in mock.received
        if cmd.name == "FETCH"
        and (b"BODY.PEEK[HEADER.FIELDS" in cmd.rest or b"BODY.PEEK[TEXT]" in cmd.rest)
    ]


@pytest.mark.parametrize(
    "keywords, exists, unseen",
    [
        ((), 4, 3),
        ((KeywordConstraint(KeywordMode.FORBID_ANY, frozenset({"deals"})),), 3, 2),
    ],
    ids=["senders", "senders+keywords"],
)
def test_unchanged_mailbox_is_not_evaluated_again(
    spouse_session, store6, mock6, keywords, exists, unseen
):
    store6.set_policy(ACCOUNT, "spouse", PolicySet(SPOUSE_BLACKLIST, keywords))
    mock6.clear_log()
    out = spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    assert b"* %d EXISTS\r\n" % exists in out
    first = _metadata_fetches(mock6)
    assert any(b"HEADER.FIELDS" in rest for rest in first)
    assert any(b"BODY.PEEK[TEXT]" in rest for rest in first) == bool(keywords)

    mock6.clear_log()
    out = spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert b"* %d EXISTS\r\n" % exists in out
    out = spouse_session.cmd(b"t4 STATUS INBOX (MESSAGES UNSEEN)\r\n")
    assert out[0] == b"* STATUS INBOX (MESSAGES %d UNSEEN %d)\r\n" % (exists, unseen)
    assert _metadata_fetches(mock6) == []
    assert mock6.received_verbs() == [
        "EXAMINE", "FETCH", "EXAMINE", "FETCH", "SEARCH", "EXAMINE", "FETCH"
    ]


def test_a_second_session_starts_from_the_view_the_first_saved(spouse_session, connect, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_new_message("INBOX", HIDDEN_ARRIVAL)
    uid = mock6.inject_new_message("INBOX", VISIBLE_ARRIVAL)
    assert spouse_session.cmd(b"t3 NOOP\r\n") == [b"* 5 EXISTS\r\n", b"t3 OK NOOP completed\r\n"]
    spouse_session.cmd(b"t4 LOGOUT\r\n")  # the mock serves one connection at a time
    other = connect()
    assert other.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")[-1].startswith(b"t1 OK")
    mock6.clear_log()
    assert b"* 5 EXISTS\r\n" in other.cmd(b"t2 SELECT INBOX\r\n")
    # the NOOP saved both decided arrivals: one row proves them, none is fetched again
    assert [cmd.raw.split(b" ", 1)[1] for cmd in mock6.received] == [
        b"EXAMINE INBOX\r\n",
        b"FETCH 8 (UID)\r\n",
    ]
    assert other.cmd(b"t3 UID SEARCH ALL\r\n")[0] == b"* SEARCH 10 20 40 60 %d\r\n" % uid


def test_blacklisting_a_visible_sender_hides_it_at_reselect(spouse_session, store6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    store6.manage_list(ACCOUNT, "add-member", "exes", "mom@family.example")
    store6.set_policy(ACCOUNT, "spouse", PolicySet(SPOUSE_BLACKLIST))
    out = spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert b"* 3 EXISTS\r\n" in out
    out = spouse_session.cmd(b"t4 FETCH 1:* (UID)\r\n")
    assert out[:-1] == [
        b"* 1 FETCH (UID 10)\r\n",
        b"* 2 FETCH (UID 40)\r\n",
        b"* 3 FETCH (UID 60)\r\n",
    ]
    assert spouse_session.cmd(b"t5 UID SEARCH ALL\r\n")[0] == b"* SEARCH 10 40 60\r\n"
    assert spouse_session.cmd(b"t6 SEARCH FROM mom@family.example\r\n")[0] == b"* SEARCH\r\n"


def test_new_uidvalidity_reevaluates_the_same_uids(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    inbox = mock6.mailboxes["INBOX"]
    inbox.uidvalidity += 1
    inbox.messages[1].raw = b"From: ex@gmail.com\r\nSubject: IRIS3316\r\n\r\nIRISBODY\r\n"
    mock6.clear_log()
    out = spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert b"* 3 EXISTS\r\n" in out
    assert b"* OK [UIDVALIDITY 4243] UIDs valid\r\n" in out
    assert _metadata_fetches(mock6)
    out = spouse_session.cmd(b"t4 FETCH 1:* (UID BODY.PEEK[HEADER.FIELDS (SUBJECT)])\r\n")
    assert len(out) == 4
    assert not any(b"IRIS" in blob or b"UID 20" in blob for blob in out)


def test_two_servers_never_share_decisions(proxy6, store6, mock6, master_key):
    config = ProxyConfig(
        store_path=store6.path,
        listen_port=0,
        upstream_overrides={ACCOUNT: UpstreamOverride("127.0.0.1", mock6.port)},
    )
    with ProxyServer(config, store6, master_key) as other:
        # each server evaluates the mailbox on its own first SELECT only
        for proxy, evaluates in ((proxy6, True), (other, True), (proxy6, False)):
            client = ImapClient(proxy.port)
            try:
                client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
                mock6.clear_log()
                assert b"* 4 EXISTS\r\n" in client.cmd(b"t2 SELECT INBOX\r\n")
                assert bool(_metadata_fetches(mock6)) == evaluates
                client.cmd(b"t3 LOGOUT\r\n")
            finally:
                client.close()


def test_eviction_keeps_decisions_correct(two_box, monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 6)  # INBOX's six UIDs, not Archive's too
    mock, proxy = two_box
    client = ImapClient(proxy.port)
    try:
        client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
        for _ in range(2):
            for box, exists, uids in ((b"INBOX", 4, b"10 20 40 60"), (b"Archive", 1, b"110")):
                mock.clear_log()
                out = client.cmd(b"t2 SELECT " + box + b"\r\n")
                assert b"* %d EXISTS\r\n" % exists in out
                assert _metadata_fetches(mock)  # the other mailbox pushed this one out
                assert client.cmd(b"t3 UID SEARCH ALL\r\n")[0] == b"* SEARCH " + uids + b"\r\n"
        assert proxy.decisions._size <= 6
    finally:
        client.close()


def _scripted_mailbox(box):
    """Script for a ScriptedUpstream serving box["exists"] messages with
    UIDs 10, 20, ..., or box["uids"][seq] where given; those whose seq is
    in box.get("hidden", ()) are from a blacklisted sender. FETCH and UID
    FETCH answer every message in the set, hidden or not; NOOP answers
    box.get("noop", b"") first, and SEARCH every seq. With box["lie"] set,
    the header FETCH reports each UID one higher than the (UID) FETCH."""

    def uid_of(seq):
        return box.get("uids", {}).get(seq, seq * 10)

    def script(line, send):
        words = line.split()
        tag, verb = words[0], words[1]
        if verb == b"EXAMINE":
            send(b"* %d EXISTS\r\n* OK [UIDVALIDITY 9] UIDs valid\r\n" % box["exists"])
        elif verb == b"NOOP":
            send(box.get("noop", b""))
        elif verb == b"SEARCH":
            seqs = b"".join(b" %d" % seq for seq in range(1, box["exists"] + 1))
            send(b"* SEARCH" + seqs + b"\r\n")
        elif verb in (b"FETCH", b"UID"):
            with_header = b"HEADER.FIELDS" in line
            exists = box["exists"]
            asked = parse_sequence_set(words[3 if verb == b"UID" else 2].decode())
            if verb == b"UID":
                uids = set(asked.expand(max(map(uid_of, range(1, exists + 1)))))
                seqs = [seq for seq in range(1, exists + 1) if uid_of(seq) in uids]
            else:
                seqs = asked.expand(exists)
            for seq in seqs:
                uid = uid_of(seq) + (1 if box["lie"] and with_header else 0)
                attrs = b"UID %d FLAGS ()" % uid
                if with_header:
                    hidden = seq in box.get("hidden", ())
                    sender = b"ex@gmail.com" if hidden else b"friend@uni.example"
                    header = b"From: %s\r\n\r\n" % sender
                    attrs += b" BODY[HEADER.FIELDS (FROM)] {%d}\r\n" % len(header) + header
                send(b"* %d FETCH (" % seq + attrs + b")\r\n")
        send(tag + b" OK " + verb + b" completed\r\n")

    return script


def test_subuser_fetch_sends_one_range_per_client_range(scripted_session):
    box = {"exists": 9, "lie": False, "hidden": {3, 6, 9}}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 6 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    visible = [
        b"* %d FETCH (UID %d FLAGS ())\r\n" % (virtual, uid)
        for virtual, uid in enumerate((10, 20, 40, 50, 70, 80), start=1)
    ]
    for line, sent, rows in (
        (b"t2 FETCH 1:* (FLAGS)", b"FETCH 1:8 (FLAGS)", visible),
        (b"t3 UID FETCH 1:* (FLAGS)", b"UID FETCH 1:80 (FLAGS)", visible),
        (b"t4 FETCH 1,4:5 (FLAGS)", b"FETCH 1,5:7 (FLAGS)", visible[:1] + visible[3:5]),
        (b"t5 UID FETCH 25:65 (FLAGS)", b"UID FETCH 25:65 (FLAGS)", visible[2:4]),
    ):
        out = client.cmd(line + b"\r\n")
        assert upstream.lines[-1].split(b" ", 1)[1] == sent + b"\r\n"
        # the upstream answered the hidden messages in those ranges too
        assert out[:-1] == rows
        assert out[-1].startswith(line.split(b" ", 1)[0] + b" OK")


@pytest.mark.parametrize(
    "items", [*FETCH_ITEMS, "BODY.PEEK[]", "(UID FLAGS RFC822.SIZE ENVELOPE)"]
)
def test_subuser_fetch_items_of_rfc3501_are_forwarded_unchanged(scripted_session, items):
    box = {"exists": 3, "lie": False}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    client.cmd(b"t1 SELECT INBOX\r\n")
    for line in (b"t2 FETCH 2 %s\r\n", b"t3 UID FETCH 20 %s\r\n"):
        line %= items.encode()
        assert client.cmd(line)[-1].split(b" ")[1] == b"OK"
        assert upstream.lines[-1].split(b" ", 1)[1] == line.split(b" ", 1)[1]


@pytest.mark.parametrize(
    "line",
    [
        b"t2 FETCH 1 (FLAGS) (CHANGEDSINCE 1)\r\n",
        b"t2 UID FETCH 10 (FLAGS) (CHANGEDSINCE 1)\r\n",
        b"t2 FETCH 1 (FLAGS X-GM-LABELS)\r\n",
        b"t2 SEARCH MODSEQ 1\r\n",
        b't2 SEARCH X-GM-RAW "has:x"\r\n',
    ],
    ids=["fetch-modifier", "uid-fetch-modifier", "fetch-x-gm-labels", "modseq", "x-gm-raw"],
)
def test_subuser_extensions_get_bad_and_never_reach_the_upstream(scripted_session, line):
    box = {"exists": 3, "lie": False}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    client.cmd(b"t1 SELECT INBOX\r\n")
    sent = len(upstream.lines)
    [reply] = client.cmd(line)
    assert reply.startswith(line.split(b" ", 1)[0] + b" BAD ")
    assert client.cmd(b"t3 NOOP\r\n")[-1] == b"t3 OK NOOP completed\r\n"
    assert [line.split()[1] for line in upstream.lines[sent:]] == [b"NOOP"]


@pytest.mark.parametrize(
    "line",
    [b"* SEARCH ALL", b"( NOOP", b"a% NOOP", b'a"b NOOP', b"a{1} NOOP", b"a\\b NOOP"],
    ids=["star", "paren", "percent", "quote", "brace", "backslash"],
)
def test_a_tag_outside_rfc3501_gets_untagged_bad_and_never_reaches_the_upstream(
    scripted_session, line
):
    box = {"exists": 3, "lie": False}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    client.cmd(b"t1 SELECT INBOX\r\n")
    unauthenticated = ImapClient(client.sock.getpeername()[1])
    try:
        for session in (unauthenticated, client):
            session.send(line + b"\r\n")
            assert session._read().startswith(b"* BAD ")
            assert session.cmd(b"t2 NOOP\r\n") == [b"t2 OK NOOP completed\r\n"]
    finally:
        unauthenticated.close()
    verbs = [line.split()[1] for line in upstream.lines]
    assert verbs == [b"LOGIN", b"EXAMINE", b"FETCH", b"NOOP"]


def test_a_subuser_session_reaches_the_upstream_under_the_proxys_tags_only(scripted_session):
    box = {"exists": 3, "lie": False, "hidden": {2}}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    for line in (
        b"t1 SELECT INBOX",
        b"t2 NOOP",
        b"t3 FETCH 1:* (FLAGS)",
        b"t4 UID FETCH 1:* (FLAGS)",
        b"t5 SEARCH ALL",
        b't6 LIST "" *',
        b"t7 STATUS Other (MESSAGES)",
        b"t8 CLOSE",
        b"t9 LOGOUT",
    ):
        assert client.cmd(line + b"\r\n")[-1].startswith(line.split(b" ", 1)[0] + b" OK ")
    tags = [line.split(b" ", 1)[0] for line in upstream.lines]
    assert tags == [b"p%d" % n for n in range(1, len(tags) + 1)]


_TIMED_OK = b"OK Fetch completed (0.004 + 0.000 + 0.003 secs)."


def test_a_subuser_hears_the_proxys_completions_and_the_upstreams_refusals(scripted_session):
    mailbox_script = _scripted_mailbox({"exists": 3, "lie": False, "hidden": {2}})
    refusal = []

    def script(line, send):
        tag = line.split(b" ", 1)[0]
        if refusal:
            send(tag + b" " + refusal[0] + b"\r\n")
            return

        def timed(data):  # completions as Dovecot words them, timings and all
            send(tag + b" " + _TIMED_OK + b"\r\n" if data.startswith(tag + b" OK") else data)

        mailbox_script(line, timed)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    client.cmd(b"t1 SELECT INBOX\r\n")
    commands = (
        (b"FETCH 1:* (FLAGS)", b"FETCH"),
        (b"UID FETCH 1:* (FLAGS)", b"UID FETCH"),
        (b"SEARCH ALL", b"SEARCH"),
        (b'LIST "" *', b"LIST"),
    )
    for n, (line, name) in enumerate(commands, start=2):
        completion = client.cmd(b"t%d %s\r\n" % (n, line))[-1]
        assert completion == b"t%d OK %s completed\r\n" % (n, name)
    assert b"secs" not in bytes(client.transcript)
    refusal.append(b"NO [UNAVAILABLE] Fetch failed (0.001 secs).")
    for n, (line, _name) in enumerate(commands, start=6):
        assert client.cmd(b"t%d %s\r\n" % (n, line)) == [b"t%d %s\r\n" % (n, refusal[0])]


def test_a_subuser_select_names_only_the_system_flags(scripted_session):
    mailbox_script = _scripted_mailbox({"exists": 2, "lie": False})

    def script(line, send):
        if line.split()[1] == b"EXAMINE":
            send(b"* FLAGS (\\Seen $ExOnly)\r\n")  # a keyword set only on hidden messages
        mailbox_script(line, send)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    out = client.cmd(b"t1 SELECT INBOX\r\n")
    assert out[0] == b"* FLAGS (\\Answered \\Flagged \\Deleted \\Seen \\Draft)\r\n"
    assert b"$ExOnly" not in bytes(client.transcript)


def test_a_subuser_literal_the_upstream_refuses_is_never_sent(scripted_session):
    mailbox_script = _scripted_mailbox({"exists": 2, "lie": False})
    refusal = b" NO [BADCHARSET (US-ASCII)] charset not supported\r\n"

    def script(line, send):
        if b"CHARSET" in line:  # refused in place of the "+" the literal waits for
            send(line.split(b" ", 1)[0] + refusal)
        else:
            mailbox_script(line, send)

    client, upstream = scripted_session(script, SPOUSE_PASSWORD)
    client.cmd(b"t1 SELECT INBOX\r\n")
    client.sock.settimeout(5)
    client.send(b"t2 SEARCH CHARSET UTF-8 SUBJECT {5}\r\n")
    assert client._read() == b"+ \r\n"
    client.send("café\r\n".encode())
    assert client._read() == b"t2" + refusal
    assert client.cmd(b"t3 NOOP\r\n") == [b"t3 OK NOOP completed\r\n"]
    assert _sent(upstream.lines[-2:]) == [b"SEARCH CHARSET UTF-8 SUBJECT {5}", b"NOOP"]


def test_unsolicited_fetch_of_an_arrival_is_dropped(scripted_session):
    box = {"exists": 2, "lie": False}
    client, _upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 2 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    box.update(exists=3, noop=b"* 3 EXISTS\r\n* 3 FETCH (FLAGS (\\Seen))\r\n")
    assert client.cmd(b"t2 NOOP\r\n") == [b"* 3 EXISTS\r\n", b"t2 OK NOOP completed\r\n"]


def test_uid_desync_between_fetches_fails_select_and_caches_nothing(scripted_session):
    box = {"exists": 2, "lie": False}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 2 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    box.update(exists=3, lie=True)
    out = client.cmd(b"t2 SELECT INBOX\r\n")
    assert out == [b"t2 NO cannot open mailbox with filtering guaranteed\r\n"]
    assert client.cmd(b"t3 NOOP\r\n") == [b"t3 OK NOOP completed\r\n"]
    box["lie"] = False
    out = client.cmd(b"t4 SELECT INBOX\r\n")
    assert b"* 3 EXISTS\r\n" in out
    header_fetches = [
        line.split(b" ", 1)[1] for line in upstream.lines if b"HEADER.FIELDS" in line
    ]
    # the failed SELECT left nothing behind: the third message is fetched again
    assert [line.split(b" (", 1)[0] for line in header_fetches] == [
        b"FETCH 1:2",
        b"FETCH 3",
        b"FETCH 3",
    ]


def test_exists_during_the_select_fetch_is_decided(scripted_session):
    box = {"exists": 3, "lie": False, "hidden": {2}}
    mailbox_script = _scripted_mailbox(box)

    def script(line, send):
        if b"HEADER.FIELDS" in line and box["exists"] == 3:
            box["exists"] = 4
            send(b"* 4 EXISTS\r\n")
        mailbox_script(line, send)

    client, upstream = scripted_session(script, SPOUSE_PASSWORD)
    # one count, taken after the arrival is decided
    assert client.cmd(b"t1 SELECT INBOX\r\n") == [
        b"* FLAGS (\\Answered \\Flagged \\Deleted \\Seen \\Draft)\r\n",
        b"* 3 EXISTS\r\n",
        b"* 0 RECENT\r\n",
        b"* OK [UIDVALIDITY 9] UIDs valid\r\n",
        b"* OK [UIDNEXT 41] Predicted next UID\r\n",
        b"t1 OK [READ-ONLY] SELECT completed\r\n",
    ]
    assert client.cmd(b"t2 SEARCH ALL\r\n") == [b"* SEARCH 1 2 3\r\n", b"t2 OK SEARCH completed\r\n"]
    header_fetches = [line.split(b" (", 1)[0] for line in upstream.lines if b"HEADER.FIELDS" in line]
    assert [line.split(b" ", 1)[1] for line in header_fetches] == [b"FETCH 1:3", b"FETCH 4"]


def test_exists_during_the_restore_after_status_is_announced(scripted_session):
    box = {"exists": 3, "lie": False}
    mailbox_script = _scripted_mailbox(box)
    examined = []

    def script(line, send):
        words = line.split()
        if words[1] == b"EXAMINE":
            examined.append(words[2])
        elif examined == [b"INBOX", b"Other", b"INBOX"] and box["exists"] == 3:
            box["exists"] = 4  # inside the FETCH that re-opens INBOX
            send(b"* 4 EXISTS\r\n")
        mailbox_script(line, send)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    assert client.cmd(b"t2 STATUS Other (MESSAGES)\r\n") == [
        b"* 4 EXISTS\r\n",
        b"* STATUS Other (MESSAGES 3)\r\n",
        b"t2 OK STATUS completed\r\n",
    ]
    assert client.cmd(b"t3 SEARCH ALL\r\n") == [
        b"* SEARCH 1 2 3 4\r\n",
        b"t3 OK SEARCH completed\r\n",
    ]


def test_uid_fetch_row_with_another_uid_than_its_slot_ends_the_session(scripted_session):
    box = {"exists": 3, "lie": False}
    client, _upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    box["uids"] = {2: 30, 3: 20}  # a server that swapped two messages' UIDs
    client.send(b"t2 UID FETCH 1:* (FLAGS)\r\n")
    assert client._read() == b"* 1 FETCH (UID 10 FLAGS ())\r\n"
    assert client._read() == b"* BYE session terminated\r\n"
    assert client._read() == b""
    assert b"UID 30" not in bytes(client.transcript)


def test_restore_refuses_a_uid_slipped_below_the_view(scripted_session):
    box = {"exists": 3, "lie": False}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    # no honest server does this: a new message between UIDs 10 and 20
    box.update(exists=4, uids={1: 10, 2: 15, 3: 20, 4: 30})
    client.send(b"t2 STATUS Other (MESSAGES)\r\n")
    assert client._read() == b"* BYE session terminated\r\n"
    assert client._read() == b""
    assert _sent(upstream.lines[-3:]) == [b"EXAMINE INBOX", b"FETCH 3:4", b"FETCH 1:2"]


@pytest.mark.parametrize(
    "line, refusal",
    [
        (b"t2 NOOP\r\n", b"* BYE session terminated\r\n"),
        (b"t2 SELECT INBOX\r\n", b"t2 NO cannot open mailbox with filtering guaranteed\r\n"),
    ],
    ids=["noop", "reselect"],
)
def test_an_arrival_with_a_uid_below_the_last_fails_closed(scripted_session, line, refusal):
    box = {"exists": 2, "lie": False}
    client, _upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 2 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    # no honest server does this: a new message below UID 20
    box.update(exists=3, uids={3: 15}, noop=b"* 3 EXISTS\r\n")
    start = len(client.transcript)
    client.send(line)
    assert client._read() == refusal
    assert bytes(client.transcript[start:]) == refusal


@pytest.mark.parametrize(
    "noop, exists",
    [
        (b"* 9 EXPUNGE\r\n", 3),
        (b"* 1 EXISTS\r\n", 3),
        (b"* 9 FETCH (FLAGS ())\r\n", 3),
        (None, 5),
    ],
    ids=["expunge-past-exists", "exists-shrinks", "fetch-past-exists", "search-hit-past-exists"],
)
def test_a_reply_the_view_cannot_place_ends_the_session(scripted_session, noop, exists):
    """A seq beyond the announced EXISTS, or an EXISTS that shrank without
    an EXPUNGE, is a desync the view refuses: the session fails closed."""
    box = {"exists": 3, "lie": False}
    client, _upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    box.update(exists=exists, noop=noop)  # SEARCH hits every seq up to box["exists"]
    start = len(client.transcript)
    client.send(b"t2 NOOP\r\n" if noop else b"t2 SEARCH ALL\r\n")
    assert client._read() == b"* BYE session terminated\r\n"
    assert client._read() == b""
    assert bytes(client.transcript[start:]) == b"* BYE session terminated\r\n"


def test_expunge_during_the_select_fetch_fails_the_select(scripted_session):
    box = {"exists": 3, "lie": False, "expunge": True}
    mailbox_script = _scripted_mailbox(box)

    def script(line, send):
        if b"HEADER.FIELDS" in line and box.pop("expunge", False):
            send(b"* 1 EXPUNGE\r\n")  # RFC 3501 §7.4.1 forbids this during a FETCH
        mailbox_script(line, send)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    out = client.cmd(b"t1 SELECT INBOX\r\n")
    assert out == [b"t1 NO cannot open mailbox with filtering guaranteed\r\n"]
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t2 SELECT INBOX\r\n")
    assert client.cmd(b"t3 SEARCH ALL\r\n")[0] == b"* SEARCH 1 2 3\r\n"


_FRIEND = b"From: friend@uni.example\r\n\r\n"
_META = b"BODY[HEADER.FIELDS (FROM)] {%d}\r\n%s" % (len(_FRIEND), _FRIEND)
_BYE = [b"* BYE session terminated\r\n", b""]
_SELECT_NO = [b"t9 NO cannot open mailbox with filtering guaranteed\r\n"]
_STATUS_OTHER = [b"t1 SELECT INBOX", b"t9 STATUS Other (MESSAGES)"]


@pytest.mark.parametrize(
    "answers, lines, heard, reason",
    [
        (
            {(b"NOOP", 1): b"* OK [UIDVALIDITY 8] UIDs changed\r\nTAG OK NOOP completed\r\n"},
            [b"t1 SELECT INBOX", b"t9 NOOP"],
            _BYE,
            "UIDVALIDITY changed mid-session",
        ),
        (
            {(b"EXAMINE", 3): b"* 2 EXISTS\r\n* OK [UIDVALIDITY 8] new\r\nTAG OK done\r\n"},
            _STATUS_OTHER,
            _BYE,
            "UIDVALIDITY changed mid-session",
        ),
        (
            {(b"EXAMINE", 3): b"TAG NO no such mailbox\r\n"},
            _STATUS_OTHER,
            _BYE,
            "cannot re-open selected mailbox",
        ),
        (
            {(b"EXAMINE", 1): b"* OK [UIDVALIDITY 9] UIDs valid\r\nTAG OK done\r\n"},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "missing EXISTS/UIDVALIDITY",
        ),
        (
            {(b"EXAMINE", 1): b"* 2 EXISTS\r\nTAG OK EXAMINE completed\r\n"},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "missing EXISTS/UIDVALIDITY",
        ),
        (
            {(b"FETCH", 1): b"* 1 FETCH (UID 10 %s)\r\nTAG OK FETCH completed\r\n" % _META},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "metadata fetch missing seq 2",
        ),
        (
            {(b"FETCH", 1): b"* 1 FETCH (%s)\r\nTAG OK FETCH completed\r\n" % _META},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "malformed metadata for seq 1",
        ),
        (
            {(b"FETCH", 1): b"* 1 FETCH (UID 10 FLAGS ())\r\nTAG OK FETCH completed\r\n"},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "no BODY[HEADER.FIELDS",
        ),
        (
            {(b"FETCH", 1): b"TAG NO [SERVERBUG] try later\r\n"},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "proxy's FETCH failed",
        ),
        (
            {(b"FETCH", 1): b"+ go on\r\nTAG OK FETCH completed\r\n"},
            [b"t9 SELECT INBOX"],
            _SELECT_NO,
            "unexpected upstream continuation",
        ),
        (
            {(b"SEARCH", 1): b"TAG NO [BADCHARSET] not here\r\n"},
            [b"t1 SELECT INBOX", b"t9 SEARCH ALL"],
            [b"t9 NO [BADCHARSET] not here\r\n"],
            None,
        ),
        (
            {
                (b"UID", 1): b"* 1 FETCH (FLAGS ())\r\n* 2 FETCH (UID 20 FLAGS ())\r\n"
                + b"TAG OK UID FETCH completed\r\n"
            },
            [b"t1 SELECT INBOX", b"t9 UID FETCH 1:* (FLAGS)"],
            [b"* 2 FETCH (UID 20 FLAGS ())\r\n", b"t9 OK UID FETCH completed\r\n"],
            None,
        ),
    ],
    ids=[
        "stray-uidvalidity",
        "put-back-uidvalidity",
        "put-back-refused",
        "examine-without-exists",
        "examine-without-uidvalidity",
        "metadata-seq-missing",
        "metadata-without-uid",
        "metadata-without-header",
        "own-fetch-refused",
        "continuation",
        "search-refused",
        "uid-fetch-row-without-uid",
    ],
)
def test_upstream_replies_off_the_script_fail_closed(
    scripted_session, caplog, answers, lines, heard, reason
):
    """*answers* replaces the upstream's reply to the n-th command of a verb
    (TAG standing for its tag); the client hears *heard* after its last
    line: a BYE and the end of the session, or a refusal that keeps it.
    The proxy logs *reason*, which names the check that refused."""
    box = {"exists": 2, "lie": False}
    mailbox_script = _scripted_mailbox(box)
    seen: dict = {}

    def script(line, send):
        tag, verb = line.split()[:2]
        seen[verb] = seen.get(verb, 0) + 1
        if (verb, seen[verb]) in answers:
            send(answers[verb, seen[verb]].replace(b"TAG", tag))
        else:
            mailbox_script(line, send)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    *setup, last = lines
    for line in setup:
        assert client.cmd(line + b"\r\n")[-1].startswith(line.split(b" ", 1)[0] + b" OK ")
    with caplog.at_level(logging.WARNING, logger="chamail.proxy"):
        client.send(last + b"\r\n")
        out = []
        while not out or out[-1] and not out[-1].startswith(b"t9 "):
            out.append(client._read())
    assert out == heard
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert [reason in warning for warning in warnings] == ([] if reason is None else [True])


def test_select_logs_cache_counts_only(spouse_session, caplog):
    with caplog.at_level(logging.INFO, logger="chamail.proxy"):
        spouse_session.cmd(b"t2 SELECT INBOX\r\n")
        spouse_session.cmd(b"t3 SELECT INBOX\r\n")
        spouse_session.cmd(b"t4 STATUS INBOX (MESSAGES)\r\n")
    lines = [r.getMessage() for r in caplog.records if "policy decisions" in r.getMessage()]
    # one line per open: the SELECT, the re-SELECT, the inspection and the put-back
    assert [line.rsplit(": ", 1)[1] for line in lines] == [
        "0 cached, 6 evaluated",
        "6 cached, 0 evaluated",
        "6 cached, 0 evaluated",
        "6 cached, 0 evaluated",
    ]
    text = " ".join(lines).lower()
    assert not any(word in text for word in ("ex@gmail", "tulip", "orchid", "mom@", "dinner"))


# -- one metadata FETCH, decided row by row ---------------------------------------------


FORBID_SECRET = (KeywordConstraint(KeywordMode.FORBID_ANY, frozenset({"secret"})),)


def test_cold_select_sends_one_short_metadata_fetch(tmp_path, master_key):
    messages, visible = [], []
    for i in range(1000):
        sender = b"ex@gmail.com" if i % 3 == 0 else b"friend%d@uni.example" % i
        body = b"the secret plan" if i % 7 == 0 else b"lunch at noon"
        uid = 10 + 2 * i
        raw = b"From: %s\r\nSubject: note %d\r\n\r\n%s\r\n" % (sender, i, body)
        messages.append(StoredMessage(uid, (), raw))
        if i % 3 and i % 7:
            visible.append(uid)
    inbox = FixtureMailbox("INBOX", messages, uidvalidity=5, uidnext=10 + 2 * 1000)
    with MockIMAPServer([inbox], {ACCOUNT: UPSTREAM_PASSWORD}) as mock:
        cs = make_household_store(tmp_path / "store.json", mock.port, master_key)
        cs.set_policy(ACCOUNT, "spouse", PolicySet(SPOUSE_BLACKLIST, FORBID_SECRET))
        config = ProxyConfig(store_path=cs.path, listen_port=0)
        with ProxyServer(config, cs, master_key) as proxy:
            client = ImapClient(proxy.port)
            try:
                client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
                mock.clear_log()
                assert b"* %d EXISTS\r\n" % len(visible) in client.cmd(b"t2 SELECT INBOX\r\n")
                fetches = _metadata_fetches(mock)
                assert len(fetches) == 1
                assert b"HEADER.FIELDS" in fetches[0] and b"BODY.PEEK[TEXT]" in fetches[0]
                assert max(len(cmd.raw) for cmd in mock.received) <= 200
                out = client.cmd(b"t3 UID SEARCH ALL\r\n")
                assert out[0] == b"* SEARCH " + b" ".join(b"%d" % uid for uid in visible) + b"\r\n"
            finally:
                client.close()


def test_newcomer_under_keyword_rules_costs_one_fetch(spouse_session, store6, mock6):
    store6.set_policy(ACCOUNT, "spouse", PolicySet(SPOUSE_BLACKLIST, FORBID_SECRET))
    assert b"* 4 EXISTS\r\n" in spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_new_message(
        "INBOX", b"From: colleague@work.example\r\nSubject: standup\r\n\r\nmoved\r\n"
    )
    mock6.clear_log()
    out = spouse_session.cmd(b"t3 NOOP\r\n")
    assert out == [b"* 5 EXISTS\r\n", b"t3 OK NOOP completed\r\n"]
    # one FETCH reads all the policy needs, the UID included
    assert mock6.received_verbs() == ["NOOP", "FETCH"]
    [fetch] = _metadata_fetches(mock6)
    assert b"HEADER.FIELDS" in fetch and b"BODY.PEEK[TEXT]" in fetch


@pytest.mark.parametrize(
    "bad_row",
    [b"*\r\n", b"* 2 FETCH (UID 20 FLAGS (\r\n"],
    ids=["unparseable-response", "unparseable-attributes"],
)
def test_bad_metadata_row_fails_select_after_the_tagged_line(scripted_session, bad_row):
    release = threading.Event()
    mailbox_script = _scripted_mailbox({"exists": 3, "lie": False})

    def script(line, send):
        if b"HEADER.FIELDS" not in line or release.is_set():
            return mailbox_script(line, send)

        def send_broken(data):
            if data.startswith(b"* 2 FETCH"):
                data = bad_row
            elif not data.startswith(b"* "):
                release.wait(10)  # hold the tagged line back
            send(data)

        mailbox_script(line, send_broken)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    client.send(b"t1 SELECT INBOX\r\n")
    # the bad row has arrived, the tagged line has not: no answer yet
    assert select.select([client.sock], [], [], 0.5)[0] == []
    release.set()
    assert client._read() == b"t1 NO cannot open mailbox with filtering guaranteed\r\n"
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t2 SELECT INBOX\r\n")


def _html_part(size: int) -> bytes:
    line = b"<p>nothing to see</p>\n"
    return b"Content-Type: text/html\n\n" + line * (size // len(line))


def _alternative(*parts: bytes) -> bytes:
    """An LF-ended multipart/alternative message of *parts* (each its own
    header block and body) from a sender the household does not block."""
    head = (
        b"From: friend@uni.example\nSubject: plans\nMIME-Version: 1.0\n"
        b'Content-Type: multipart/alternative; boundary="b0"\n\n'
    )
    return head + b"".join(b"--b0\n" + part + b"\n" for part in parts) + b"--b0--\n"


def _proxy_and_dryrun(
    tmp_path, master_key, capsys, messages: list[bytes], forbid="secret", exes=()
):
    """The spouse's decisions on LF-ended *messages* under blacklist (the
    household's exes plus *exes*) + forbid:*forbid*, as (proxy, dryrun)
    lists of "VISIBLE"/"HIDDEN". The upstream serves each message with CRLF
    line ends, as IMAP servers do; the sub-user's SELECT must succeed."""
    box_path = tmp_path / "sample.mbox"
    box = mailbox.mbox(str(box_path))
    for raw in messages:
        box.add(mailbox.mboxMessage(raw))
    box.close()
    stored = [
        StoredMessage(10 * (i + 1), (), raw.replace(b"\n", b"\r\n"))
        for i, raw in enumerate(messages)
    ]
    inbox = FixtureMailbox("INBOX", stored, uidvalidity=5, uidnext=10 * (len(messages) + 1))
    with MockIMAPServer([inbox], {ACCOUNT: UPSTREAM_PASSWORD}) as mock:
        cs = make_household_store(tmp_path / "store.json", mock.port, master_key)
        for member in exes:
            cs.manage_list(ACCOUNT, "add-member", "exes", member)
        keywords = (KeywordConstraint(KeywordMode.FORBID_ANY, frozenset({forbid})),)
        cs.set_policy(ACCOUNT, "spouse", PolicySet(SPOUSE_BLACKLIST, keywords))
        config = ProxyConfig(store_path=cs.path, listen_port=0)
        with ProxyServer(config, cs, master_key) as proxy:
            client = ImapClient(proxy.port)
            try:
                client.cmd(b"t1 LOGIN person@gmail.com catsanddogs\r\n")
                assert client.cmd(b"t2 SELECT INBOX\r\n")[-1].startswith(b"t2 OK")
                shown = set(client.cmd(b"t3 UID SEARCH ALL\r\n")[0].split()[2:])
            finally:
                client.close()
    proxy_view = ["VISIBLE" if b"%d" % m.uid in shown else "HIDDEN" for m in stored]
    capsys.readouterr()
    argv = ["dryrun", ACCOUNT, str(box_path), "--subuser", "spouse", "--store", cs.path, "--json"]
    assert main(argv) == 0
    dryrun_view = [row["decision"] for row in json.loads(capsys.readouterr().out)["messages"]]
    return proxy_view, dryrun_view


def test_text_cut_off_by_the_excerpt_cap_fails_closed(tmp_path, master_key, capsys):
    late_plain = _alternative(
        _html_part(75_000), b"Content-Type: text/plain\n\nthe secret plan\n"
    )
    small_html = _alternative(_html_part(2_000))
    proxy_view, dryrun_view = _proxy_and_dryrun(
        tmp_path, master_key, capsys, [late_plain, small_html]
    )
    assert proxy_view == dryrun_view == ["HIDDEN", "VISIBLE"]


def test_dryrun_reads_the_bytes_the_proxy_reads(tmp_path, master_key, capsys):
    filler = b"a line of plain filler text..\n" * 60
    message = _alternative(
        _html_part(61_000), b"Content-Type: text/plain\n\n" + filler + b"the secret plan\n"
    )
    # The text/plain part starts inside the excerpt either way, but the
    # keyword lies inside it only while line ends are one byte long.
    body_lf = message.split(b"\n\n", 1)[1]
    body_crlf = body_lf.replace(b"\n", b"\r\n")
    assert body_crlf.index(b"text/plain") < BODY_EXCERPT_CAP < body_crlf.index(b"secret")
    assert body_lf.index(b"secret") < BODY_EXCERPT_CAP
    proxy_view, dryrun_view = _proxy_and_dryrun(tmp_path, master_key, capsys, [message])
    assert proxy_view == dryrun_view == ["VISIBLE"]


def test_8bit_headers_are_decided_and_keep_the_session(tmp_path, master_key, capsys):
    messages = [
        # raw UTF-8 header bytes, as RFC 6532 allows
        "From: friend@uni.example\nSubject: café plan\n\nsee you\n",
        "From: é <a@b.c>\nSubject: hello\n\nhi\n",
        "From: Zoë <friend@uni.example>\nSubject: crème brûlée\n\nyum\n",
        "From: café@b.c\nSubject: hello\n\nhi\n",  # an 8-bit addr-spec fails closed
    ]
    proxy_view, dryrun_view = _proxy_and_dryrun(
        tmp_path, master_key, capsys, [m.encode() for m in messages],
        forbid="café", exes=["a@b.c"],
    )
    assert proxy_view == dryrun_view == ["HIDDEN", "HIDDEN", "VISIBLE", "HIDDEN"]


def test_encoded_subjects_are_decided_as_clients_show_them(tmp_path, master_key, capsys):
    messages = [
        b"From: friend@uni.example\nSubject: =?utf-8?b?c2VjcmV0IHBsYW4=?=\n\nsee you\n",
        b"From: friend@uni.example\nSubject: =?iso-8859-1?q?the_se?= =?iso-8859-1?q?cret?=\n\nhi\n",
        # a subject the proxy cannot decode cannot clear a forbid rule
        b"From: friend@uni.example\nSubject: =?x-unknown?q?plans?=\n\nhi\n",
        b"From: friend@uni.example\nSubject: =?utf-8?b?abcde?=\n\nhi\n",
        b"From: friend@uni.example\nSubject: =?utf-8?q?caf=C3=A9_plans?=\n\nhi\n",
    ]
    proxy_view, dryrun_view = _proxy_and_dryrun(tmp_path, master_key, capsys, messages)
    assert proxy_view == dryrun_view == ["HIDDEN", "HIDDEN", "HIDDEN", "HIDDEN", "VISIBLE"]


def test_failing_decision_fails_select_after_the_tagged_line(scripted_session, monkeypatch):
    release = threading.Event()
    mailbox_script = _scripted_mailbox({"exists": 3, "lie": False})

    def script(line, send):
        if b"HEADER.FIELDS" not in line or release.is_set():
            return mailbox_script(line, send)

        def send_held(data):
            if not data.startswith(b"* "):
                release.wait(10)  # hold the tagged line back
            send(data)

        mailbox_script(line, send_held)

    calls = []
    real_decide = proxy_module.decide

    def decide(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("a bug in deciding one row")
        return real_decide(*args)

    monkeypatch.setattr(proxy_module, "decide", decide)
    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    client.send(b"t1 SELECT INBOX\r\n")
    # the failing row has been decided, the tagged line has not come: no answer yet
    assert select.select([client.sock], [], [], 0.5)[0] == []
    release.set()
    assert client._read() == b"t1 NO cannot open mailbox with filtering guaranteed\r\n"
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t2 SELECT INBOX\r\n")


def test_failing_decision_fails_status_and_keeps_the_session(scripted_session, monkeypatch):
    """With no mailbox selected, a STATUS whose inspection fails answers NO,
    leaves no mailbox selected and keeps the session."""
    calls = []
    real_decide = proxy_module.decide

    def decide(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("a bug in deciding one row")
        return real_decide(*args)

    monkeypatch.setattr(proxy_module, "decide", decide)
    box = {"exists": 3, "lie": False}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    out = client.cmd(b"t1 STATUS INBOX (MESSAGES)\r\n")
    assert out == [b"t1 NO cannot inspect mailbox with filtering guaranteed\r\n"]
    assert _sent(upstream.lines[1:]) == [b"EXAMINE INBOX", b"FETCH 1:3"]
    assert client.cmd(b"t2 FETCH 1 (UID)\r\n") == [b"t2 NO no mailbox selected\r\n"]
    assert b"* 3 EXISTS\r\n" in client.cmd(b"t3 SELECT INBOX\r\n")


def test_reselect_forgets_the_decisions_of_expunged_messages(spouse_session, proxy6, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    assert proxy6.decisions._size == 6
    for uid in (10, 30):
        mock6.inject_expunge("INBOX", uid)
    assert b"* 3 EXISTS\r\n" in spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert _saved(proxy6)[0] == [20, 40, 50, 60]
    assert proxy6.decisions._size == 4


# -- re-open through the cached UID layout ---------------------------------------------


def _sent(lines) -> list[bytes]:
    """Upstream command lines without their tags, cut before any "("."""
    return [line.split(b" ", 1)[1].split(b" (", 1)[0].rstrip() for line in lines]


def test_unchanged_reselect_checks_one_row(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.clear_log()
    assert b"* 4 EXISTS\r\n" in spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert [cmd.raw.split(b" ", 1)[1] for cmd in mock6.received] == [
        b"EXAMINE INBOX\r\n",
        b"FETCH 6 (UID)\r\n",
    ]


def test_reselect_after_arrivals_learns_and_evaluates_only_them(spouse_session, mock6):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_new_message("INBOX", HIDDEN_ARRIVAL)
    uid = mock6.inject_new_message("INBOX", VISIBLE_ARRIVAL)
    mock6.clear_log()
    assert b"* 5 EXISTS\r\n" in spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    assert _sent(cmd.raw for cmd in mock6.received) == [
        b"EXAMINE INBOX",
        b"FETCH 6:8",
        b"FETCH 7:8",
    ]
    assert [cmd.rest for cmd in mock6.received][1] == b"(UID)"
    assert len(_metadata_fetches(mock6)) == 1
    out = spouse_session.cmd(b"t4 UID SEARCH ALL\r\n")
    assert out[0] == b"* SEARCH 10 20 40 60 %d\r\n" % uid


def test_expunge_and_arrival_at_one_count_fall_back_to_the_full_pass(
    spouse_session, mock6, proxy6
):
    spouse_session.cmd(b"t2 SELECT INBOX\r\n")
    mock6.inject_expunge("INBOX", 20)
    uid = mock6.inject_new_message("INBOX", VISIBLE_ARRIVAL)
    mock6.clear_log()
    assert b"* 4 EXISTS\r\n" in spouse_session.cmd(b"t3 SELECT INBOX\r\n")
    # seq 6 no longer holds UID 60: every UID is learnt, the newcomer decided
    assert _sent(cmd.raw for cmd in mock6.received) == [
        b"EXAMINE INBOX",
        b"FETCH 6",
        b"FETCH 1:5",
        b"FETCH 6",
    ]
    assert len(_metadata_fetches(mock6)) == 1
    out = spouse_session.cmd(b"t4 FETCH 1:* (UID)\r\n")
    assert out[:-1] == [
        b"* %d FETCH (UID %d)\r\n" % (virtual, u)
        for virtual, u in enumerate((10, 40, 60, uid), start=1)
    ]
    assert _saved(proxy6)[0] == [10, 30, 40, 50, 60, uid]


def test_a_server_that_moves_the_last_uid_gets_the_full_pass(scripted_session):
    box = {"exists": 3, "lie": False, "hidden": {2}}
    client, upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    assert b"* 2 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    # Same count, but seq 3 now answers with a UID below the one it had,
    # for a message from a hidden sender: no honest server does this.
    box.update(uids={3: 25}, hidden={2, 3})
    seen = len(upstream.lines)
    assert b"* 1 EXISTS\r\n" in client.cmd(b"t2 SELECT INBOX\r\n")
    assert _sent(upstream.lines[seen:]) == [
        b"EXAMINE INBOX",
        b"FETCH 3",
        b"FETCH 1:2",
        b"FETCH 3",
    ]
    out = client.cmd(b"t3 FETCH 1:* (UID)\r\n")
    assert out == [b"* 1 FETCH (UID 10 FLAGS ())\r\n", b"t3 OK FETCH completed\r\n"]
    assert b"25" not in bytes(client.transcript)


def test_expunge_during_the_status_search_fails_only_the_status(scripted_session):
    box = {"exists": 3, "lie": False, "hidden": {2}}
    mailbox_script = _scripted_mailbox(box)
    expunged = []

    def script(line, send):
        if b"SEARCH UNSEEN" in line and not expunged:
            expunged.append(line)
            send(b"* 1 EXPUNGE\r\n")  # RFC 3501 §7.4.1 forbids this during a SEARCH
        mailbox_script(line, send)

    client, upstream = scripted_session(script, SPOUSE_PASSWORD)
    out = client.cmd(b"t1 STATUS INBOX (MESSAGES UNSEEN)\r\n")
    assert out == [b"t1 NO cannot inspect mailbox with filtering guaranteed\r\n"]
    assert expunged and _sent(upstream.lines[-1:]) == [b"SEARCH UNSEEN"]
    assert client.cmd(b"t2 FETCH 1 (UID)\r\n") == [b"t2 NO no mailbox selected\r\n"]
    out = client.cmd(b"t3 STATUS INBOX (MESSAGES UNSEEN)\r\n")
    assert out[0] == b"* STATUS INBOX (MESSAGES 2 UNSEEN 2)\r\n"
    assert b"* 2 EXISTS\r\n" in client.cmd(b"t4 SELECT INBOX\r\n")


def test_status_uidnext_is_the_views_and_needs_none_from_the_examine(scripted_session):
    # _scripted_mailbox's EXAMINE sends [UIDVALIDITY] but no [UIDNEXT]
    box = {"exists": 3, "lie": False, "hidden": {3}}
    client, _upstream = scripted_session(_scripted_mailbox(box), SPOUSE_PASSWORD)
    out = client.cmd(b"t1 STATUS INBOX (UIDNEXT)\r\n")
    assert out == [b"* STATUS INBOX (UIDNEXT 21)\r\n", b"t1 OK STATUS completed\r\n"]
    out = client.cmd(b"t2 STATUS INBOX (MESSAGES UIDVALIDITY)\r\n")
    assert out[0] == b"* STATUS INBOX (MESSAGES 2 UIDVALIDITY 9)\r\n"


# -- the write path: one flush before each wait ------------------------------------------


def test_both_proxy_sockets_send_without_delay(owner_session, proxy6):
    [(session, _thread)] = proxy6._sessions
    for sock in (session.conn, session.upstream.sock):
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


def test_a_multi_line_reply_leaves_in_one_send(scripted_session, monkeypatch):
    rows = [b"* 3 EXISTS\r\n", b"* 0 RECENT\r\n", b"* OK [UIDVALIDITY 9] UIDs valid\r\n"]

    def script(line, send):
        send(b"".join(rows) + line.split(b" ", 1)[0] + b" OK [READ-WRITE] SELECT completed\r\n")

    client, _upstream = scripted_session(script)
    proxy_port = client.sock.getpeername()[1]
    sends = []
    real_write = socket.SocketIO.write

    def write(self, data):
        if self._sock.getsockname()[1] == proxy_port:  # the session's client socket
            sends.append(bytes(data))
        return real_write(self, data)

    monkeypatch.setattr(socket.SocketIO, "write", write)
    out = client.cmd(b"a1 SELECT INBOX\r\n")
    assert out == rows + [b"a1 OK [READ-WRITE] SELECT completed\r\n"]
    assert sends == [b"".join(out)]


def test_subuser_rows_reach_the_client_before_the_tagged_line(scripted_session):
    release = threading.Event()
    mailbox_script = _scripted_mailbox({"exists": 3, "lie": False, "hidden": {2}})

    def script(line, send):
        if b"(FLAGS)" not in line:
            return mailbox_script(line, send)

        def send_held(data):
            if not data.startswith(b"* "):
                release.wait(10)  # hold the tagged line back
            send(data)

        mailbox_script(line, send_held)

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    assert b"* 2 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    client.sock.settimeout(5)
    client.send(b"t2 FETCH 1:* (FLAGS)\r\n")
    try:
        assert client._read() == b"* 1 FETCH (UID 10 FLAGS ())\r\n"
        assert client._read() == b"* 2 FETCH (UID 30 FLAGS ())\r\n"
    finally:
        release.set()
    assert client._read() == b"t2 OK FETCH completed\r\n"


def test_pipelined_commands_are_all_answered(scripted_session):
    def script(line, send):
        tag, verb = line.split()[:2]
        if verb == b"CAPABILITY":
            send(b"* CAPABILITY IMAP4rev1 IDLE\r\n")
        send(tag + b" OK " + verb + b" completed\r\n")

    client, _upstream = scripted_session(script)
    client.sock.settimeout(5)
    # the owner's CAPABILITY, too, is the upstream's
    client.send(b"a1 NOOP\r\na2 NOOP\r\na3 CAPABILITY\r\n")
    assert client._read() == b"a1 OK NOOP completed\r\n"
    assert client._read() == b"a2 OK NOOP completed\r\n"
    assert client._read() == b"* CAPABILITY IMAP4rev1 IDLE\r\n"
    assert client._read() == b"a3 OK CAPABILITY completed\r\n"


def test_a_client_gone_mid_reply_ends_the_session_at_once(scripted_session, caplog):
    asked, go, finish = threading.Event(), threading.Event(), threading.Event()
    mailbox_script = _scripted_mailbox({"exists": 3000, "lie": False})

    def script(line, send):
        if b"(FLAGS)" not in line:
            return mailbox_script(line, send)
        asked.set()
        go.wait(10)

        def send_until_cut(data):
            if not data.startswith(b"* "):
                finish.wait(10)  # hold the tagged line back
            with contextlib.suppress(OSError):
                send(data)

        mailbox_script(line, send_until_cut)

    def went_away():
        return [r for r in caplog.records if "went away" in r.getMessage()]

    client, _upstream = scripted_session(script, SPOUSE_PASSWORD)
    assert b"* 3000 EXISTS\r\n" in client.cmd(b"t1 SELECT INBOX\r\n")
    with caplog.at_level(logging.INFO, logger="chamail.proxy"):
        client.send(b"t2 FETCH 1:* (FLAGS)\r\n")
        assert asked.wait(10)
        client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        client.close()  # a reset, before any row arrives
        go.set()
        try:
            # the session ends while the upstream still holds its tagged line
            deadline = time.monotonic() + 5
            while not went_away() and time.monotonic() < deadline:
                time.sleep(0.02)
            [gone] = went_away()
        finally:
            finish.set()
    assert gone.levelno == logging.INFO and "upstream" not in gone.getMessage()
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert all(r.exc_info is None for r in caplog.records)
