"""The scripted upstream server: fixture loading and protocol behavior."""

import base64
import socket

import pytest

from conftest import ACCOUNT, FIXTURES, SPOUSE_PASSWORD, UPSTREAM_PASSWORD, ImapClient
from chamail.errors import ManifestError
from chamail.mockimap import FixtureMailbox, MockIMAPServer, StoredMessage, load_fixture


# -- fixture loading ----------------------------------------------------------


def test_load_fixture_inbox6():
    mb = load_fixture(FIXTURES / "inbox6")
    assert mb.name == "INBOX"
    assert mb.uidvalidity == 4242
    assert mb.uidnext == 61  # implied: largest uid + 1
    assert [m.uid for m in mb.messages] == [10, 20, 30, 40, 50, 60]
    assert mb.messages[0].flags == ("\\Seen",)
    assert mb.messages[1].flags == ()
    assert mb.messages[4].flags == ("\\Answered",)
    raw = mb.messages[0].raw
    assert b"\r\n" in raw
    assert b"\n" not in raw.replace(b"\r\n", b"")


def test_load_fixture_directives(tmp_path):
    (tmp_path / "a.eml").write_bytes(b"From: x@y.example\n\nhi\n")
    (tmp_path / "manifest").write_text(
        "# comment\n"
        "mailbox Archive\n"
        "uidvalidity 77\n"
        "uidnext 900\n"
        "5 \\Seen,\\Flagged a.eml  # trailing comment\n"
    )
    mb = load_fixture(tmp_path)
    assert (mb.name, mb.uidvalidity, mb.uidnext) == ("Archive", 77, 900)
    assert mb.messages[0].flags == ("\\Flagged", "\\Seen")
    assert mb.messages[0].raw == b"From: x@y.example\r\n\r\nhi\r\n"


@pytest.mark.parametrize(
    "manifest",
    [
        "x - a.eml",  # uid not a number
        "0 - a.eml",  # uid below 1
        "5 - a.eml\n4 - a.eml",  # uids must increase
        "5 - missing.eml",  # file does not exist
        "5 a.eml",  # wrong field count
        "uidvalidity zero\n5 - a.eml",  # bad directive value
        "uidnext 0\n5 - a.eml",
    ],
)
def test_load_fixture_rejects(tmp_path, manifest):
    (tmp_path / "a.eml").write_bytes(b"From: x@y.example\n\nhi\n")
    (tmp_path / "manifest").write_text(manifest + "\n")
    with pytest.raises(ManifestError):
        load_fixture(tmp_path)


def test_load_fixture_requires_manifest(tmp_path):
    with pytest.raises(ManifestError):
        load_fixture(tmp_path)


def test_mailbox_invariants():
    msg = StoredMessage(5, (), b"x")
    with pytest.raises(ManifestError):
        FixtureMailbox("INBOX", [msg, StoredMessage(5, (), b"y")], 1, 10)
    with pytest.raises(ManifestError):
        FixtureMailbox("INBOX", [msg], 1, 5)  # uidnext must exceed max uid


# -- live server --------------------------------------------------------------


@pytest.fixture
def mclient(mock6):
    clients = []

    def _connect():
        client = ImapClient(mock6.port)
        clients.append(client)
        return client

    yield _connect
    for client in clients:
        client.close()


def login(client):
    out = client.cmd(b"a1 LOGIN person@gmail.com upstream-secret-pw\r\n")
    assert out[-1] == b"a1 OK LOGIN completed\r\n"


def select(client, verb=b"SELECT"):
    login(client)
    return client.cmd(b"a2 " + verb + b" INBOX\r\n")


def test_greeting_and_capability(mclient):
    client = mclient()
    assert client.greeting == b"* OK IMAP4rev1 service ready\r\n"
    out = client.cmd(b"c1 CAPABILITY\r\n")
    assert out[0] == b"* CAPABILITY IMAP4rev1 AUTH=PLAIN\r\n"


def test_login_rejects_bad_password(mclient):
    client = mclient()
    out = client.cmd(b"a1 LOGIN person@gmail.com wrong\r\n")
    assert out[-1] == b"a1 NO LOGIN failed\r\n"


def test_commands_require_auth(mclient):
    client = mclient()
    out = client.cmd(b"a1 SELECT INBOX\r\n")
    assert out[-1] == b"a1 NO not authenticated\r\n"


def test_authenticate_plain_inline(mclient):
    import base64

    client = mclient()
    blob = base64.b64encode(b"\x00" + ACCOUNT.encode() + b"\x00" + UPSTREAM_PASSWORD.encode())
    out = client.cmd(b"a1 AUTHENTICATE PLAIN " + blob + b"\r\n")
    assert out[-1] == b"a1 OK AUTHENTICATE completed\r\n"


def test_authenticate_plain_continuation(mclient):
    import base64

    client = mclient()
    client.send(b"a1 AUTHENTICATE PLAIN\r\n")
    assert client._read() == b"+ \r\n"
    blob = base64.b64encode(b"\x00" + ACCOUNT.encode() + b"\x00" + UPSTREAM_PASSWORD.encode())
    client.send(blob + b"\r\n")
    assert client._read() == b"a1 OK AUTHENTICATE completed\r\n"


def test_a_command_pipelined_behind_the_plain_response_is_answered(mclient):
    client = mclient()
    client.sock.settimeout(3)
    client.send(b"a1 AUTHENTICATE PLAIN\r\n")
    assert client._read() == b"+ \r\n"
    blob = base64.b64encode(b"\x00" + ACCOUNT.encode() + b"\x00" + UPSTREAM_PASSWORD.encode())
    client.send(blob + b"\r\na2 NOOP\r\n")
    assert client._read() == b"a1 OK AUTHENTICATE completed\r\n"
    assert client._read() == b"a2 OK NOOP completed\r\n"


@pytest.mark.parametrize(
    "lines, logged_in",
    [
        ([b"(bad NOOP\r\n"], False),
        ([b"a1 AUTHENTICATE PLAIN\r\n", b"*\r\n"], False),
        ([b"a1 STATUS INBOX ()\r\n"], True),
        ([b"a1 STATUS INBOX (HIGHESTMODSEQ)\r\n"], True),
        (["a1 STATUS INBOX (MESSé)\r\n".encode()], True),
    ],
    ids=["tag", "plain-cancel", "status-no-items", "status-unknown-item", "status-non-ascii-item"],
)
def test_the_mock_and_the_proxy_answer_malformed_input_alike(mock6, connect, lines, logged_in):
    """The same lines, sent to the mock directly and to the proxy, before
    LOGIN or in a sub-user session, get the same replies."""

    def replies(client, password):
        client.sock.settimeout(3)
        if logged_in:
            login = b"a0 LOGIN person@gmail.com %s\r\n" % password.encode()
            assert client.cmd(login)[-1] == b"a0 OK LOGIN completed\r\n"
        out = []
        for line in lines:
            client.send(line)
            out.append(client._read())
        return out

    direct = ImapClient(mock6.port)
    try:
        from_mock = replies(direct, UPSTREAM_PASSWORD)
        direct.cmd(b"a9 LOGOUT\r\n")  # the mock serves one connection at a time
    finally:
        direct.close()
    from_proxy = replies(connect(), SPOUSE_PASSWORD)
    assert from_mock == from_proxy


def test_select_announces_mailbox_shape(mclient):
    client = mclient()
    out = select(client)
    assert b"* FLAGS (\\Answered \\Flagged \\Deleted \\Seen \\Draft)\r\n" in out
    assert b"* 6 EXISTS\r\n" in out
    assert b"* 0 RECENT\r\n" in out
    assert b"* OK [UIDVALIDITY 4242] UIDs valid\r\n" in out
    assert b"* OK [UIDNEXT 61] Predicted next UID\r\n" in out
    assert out[-1] == b"a2 OK [READ-WRITE] SELECT completed\r\n"


def test_examine_is_read_only(mclient):
    client = mclient()
    out = select(client, b"EXAMINE")
    assert out[-1] == b"a2 OK [READ-ONLY] EXAMINE completed\r\n"


def test_select_unknown_mailbox(mclient):
    client = mclient()
    login(client)
    out = client.cmd(b"a2 SELECT Nope\r\n")
    assert out[-1] == b"a2 NO No such mailbox\r\n"


def test_refused_select_leaves_nothing_selected(mclient):
    client = mclient()
    select(client)
    assert client.cmd(b"a3 SELECT Nope\r\n") == [b"a3 NO No such mailbox\r\n"]
    assert client.cmd(b"a4 FETCH 1 (UID)\r\n") == [b"a4 NO no mailbox selected\r\n"]


def test_logout(mclient):
    client = mclient()
    out = client.cmd(b"a1 LOGOUT\r\n")
    assert out[0] == b"* BYE IMAP4rev1 server logging out\r\n"
    assert out[-1] == b"a1 OK LOGOUT completed\r\n"


def test_fetch_uid_and_flags(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 FETCH 3 (UID FLAGS)\r\n")
    assert out[0] == b"* 3 FETCH (UID 30 FLAGS (\\Seen))\r\n"


def test_uid_fetch_appends_uid(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 UID FETCH 40 (FLAGS)\r\n")
    assert out[0] == b"* 4 FETCH (FLAGS () UID 40)\r\n"


def test_uid_fetch_star_range(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 UID FETCH 50:* (UID)\r\n")
    assert out[:-1] == [b"* 5 FETCH (UID 50)\r\n", b"* 6 FETCH (UID 60)\r\n"]


def test_fetch_envelope(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 FETCH 3 (ENVELOPE)\r\n")
    assert b"ENVELOPE" in out[0]
    assert b'"ex" "gmail.com"' in out[0]
    assert b"TULIP9407" in out[0]


def test_fetch_header_fields_literal(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 FETCH 1 (BODY.PEEK[HEADER.FIELDS (FROM SUBJECT)])\r\n")
    assert out[0].startswith(b"* 1 FETCH (BODY[HEADER.FIELDS (FROM SUBJECT)] {")
    assert b"From: Dana Boss <boss@work.example>\r\n" in out[0]
    assert b"Subject: Quarterly planning\r\n" in out[0]
    assert b"Date:" not in out[0]


def test_fetch_partial_body(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 FETCH 1 (BODY.PEEK[]<0.10>)\r\n")
    assert out[0].startswith(b"* 1 FETCH (BODY[]<0> {10}\r\nFrom: Dana")


def test_fetch_size_and_internaldate(mclient, inbox6):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 FETCH 2 (RFC822.SIZE INTERNALDATE)\r\n")
    assert b"RFC822.SIZE %d" % len(inbox6.messages[1].raw) in out[0]
    assert b"INTERNALDATE \"" in out[0]


def test_fetch_body_sets_seen_in_read_write(mclient, mock6):
    client = mclient()
    select(client)
    client.cmd(b"a3 FETCH 2 (BODY[TEXT])\r\n")
    assert mock6.mailboxes["INBOX"].messages[1].has_flag("\\Seen")


def test_fetch_peek_does_not_set_seen(mclient, mock6):
    client = mclient()
    select(client)
    client.cmd(b"a3 FETCH 2 (BODY.PEEK[TEXT])\r\n")
    assert not mock6.mailboxes["INBOX"].messages[1].has_flag("\\Seen")


def test_fetch_under_examine_never_sets_seen(mclient, mock6):
    client = mclient()
    select(client, b"EXAMINE")
    client.cmd(b"a3 FETCH 2 (BODY[TEXT])\r\n")
    assert not mock6.mailboxes["INBOX"].messages[1].has_flag("\\Seen")


@pytest.mark.parametrize(
    "criteria, hits",
    [
        (b"ALL", b"1 2 3 4 5 6"),
        (b"FROM ex@gmail.com", b"3 5"),  # header match is case-insensitive
        (b"FROM nobody@nowhere.example", b""),
        (b"SUBJECT TULIP9407", b"3"),
        (b"UNSEEN", b"2 4 5 6"),
        (b"ANSWERED", b"5"),
        (b"TEXT lake", b"3"),
        (b"BODY casserole", b"2"),
        (b"UID 30:50", b"3 4 5"),
        (b"2:4 UNSEEN", b"2 4"),
        (b"CHARSET UTF-8 FROM mom", b"2"),
        (b"OR FROM mom FROM ex@gmail.com", b"2 3 5"),
        (b"NOT FROM ex@gmail.com", b"1 2 4 6"),
        (b"NOT 2:5", b"1 6"),
        (b"(FROM ex@gmail.com ANSWERED)", b"5"),
        (b"OR (FROM mom SEEN) NOT UNSEEN", b"1 3"),
        (b"NOT OR UID 10 (UID 60)", b"2 3 4 5"),
    ],
)
def test_search(mclient, criteria, hits):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 SEARCH " + criteria + b"\r\n")
    expected = b"* SEARCH" + (b" " + hits if hits else b"") + b"\r\n"
    assert out[0] == expected


def test_uid_search_returns_uids(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 UID SEARCH FROM ex@gmail.com\r\n")
    assert out[0] == b"* SEARCH 30 50\r\n"


def test_search_rejects_unknown_criterion(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 SEARCH WOMBAT\r\n")
    assert out[-1].startswith(b"a3 BAD")


@pytest.mark.parametrize(
    "criteria", [b"(FROM mom", b"FROM mom)", b"()", b"NOT", b"OR FROM mom", b"SUBJECT ("]
)
def test_search_rejects_unbalanced_keys(mclient, criteria):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 SEARCH " + criteria + b"\r\n")
    assert len(out) == 1 and out[0].startswith(b"a3 BAD ")


def test_store_adds_flags(mclient, mock6):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 STORE 2 +FLAGS (\\Flagged)\r\n")
    assert out[0] == b"* 2 FETCH (FLAGS (\\Flagged))\r\n"
    assert mock6.mailboxes["INBOX"].messages[1].has_flag("\\Flagged")


def test_store_silent_suppresses_untagged(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 STORE 2 +FLAGS.SILENT (\\Flagged)\r\n")
    assert out == [b"a3 OK STORE completed\r\n"]


def test_store_removes_and_replaces(mclient, mock6):
    client = mclient()
    select(client)
    client.cmd(b"a3 STORE 1 -FLAGS.SILENT (\\Seen)\r\n")
    assert mock6.mailboxes["INBOX"].messages[0].flags == ()
    client.cmd(b"a4 STORE 1 FLAGS.SILENT (\\Draft)\r\n")
    assert mock6.mailboxes["INBOX"].messages[0].flags == ("\\Draft",)


def test_uid_store_reports_uid(mclient):
    client = mclient()
    select(client)
    out = client.cmd(b"a3 UID STORE 20 +FLAGS (\\Flagged)\r\n")
    assert out[0] == b"* 2 FETCH (UID 20 FLAGS (\\Flagged))\r\n"


def test_expunge_removes_deleted(mclient, mock6):
    client = mclient()
    select(client)
    client.cmd(b"a3 STORE 2,4 +FLAGS.SILENT (\\Deleted)\r\n")
    out = client.cmd(b"a4 EXPUNGE\r\n")
    # seq 4 becomes 3 once seq 2 is gone
    assert out[:-1] == [b"* 2 EXPUNGE\r\n", b"* 3 EXPUNGE\r\n"]
    assert [m.uid for m in mock6.mailboxes["INBOX"].messages] == [10, 30, 50, 60]


def test_expunge_rejected_on_examine(mclient):
    client = mclient()
    select(client, b"EXAMINE")
    out = client.cmd(b"a3 EXPUNGE\r\n")
    assert out[-1] == b"a3 NO mailbox is read-only\r\n"


def test_close_purges_deleted_silently(mclient, mock6):
    client = mclient()
    select(client)
    client.cmd(b"a3 STORE 1 +FLAGS.SILENT (\\Deleted)\r\n")
    out = client.cmd(b"a4 CLOSE\r\n")
    assert out == [b"a4 OK CLOSE completed\r\n"]
    assert mock6.mailboxes["INBOX"].exists() == 5


def test_close_after_examine_keeps_deleted(mclient, mock6):
    mock6.mailboxes["INBOX"].messages[0].flags = ("\\Deleted",)
    client = mclient()
    select(client, b"EXAMINE")
    client.cmd(b"a3 CLOSE\r\n")
    assert mock6.mailboxes["INBOX"].exists() == 6


def test_append_stores_message(mclient, mock6):
    client = mclient()
    login(client)
    body = b"From: new@x.example\r\n\r\nhello\r\n"
    out = client.cmd(
        b"a2 APPEND INBOX (\\Seen) {%d+}\r\n" % len(body) + body + b"\r\n"
    )
    assert out[-1] == b"a2 OK APPEND completed\r\n"
    mb = mock6.mailboxes["INBOX"]
    assert mb.exists() == 7
    assert mb.messages[-1].uid == 61
    assert mb.uidnext == 62
    assert mb.messages[-1].flags == ("\\Seen",)


def test_append_while_selected_queues_exists(mclient):
    client = mclient()
    select(client)
    body = b"From: new@x.example\r\n\r\nhello\r\n"
    client.cmd(b"a3 APPEND INBOX () {%d+}\r\n" % len(body) + body + b"\r\n")
    out = client.cmd(b"a4 NOOP\r\n")
    assert out[0] == b"* 7 EXISTS\r\n"


def test_status(mclient):
    client = mclient()
    login(client)
    out = client.cmd(b"a2 STATUS INBOX (MESSAGES UNSEEN UIDNEXT UIDVALIDITY RECENT)\r\n")
    assert out[0] == (
        b"* STATUS INBOX (MESSAGES 6 UNSEEN 4 UIDNEXT 61 UIDVALIDITY 4242 RECENT 0)\r\n"
    )


def test_status_unknown_item(mclient):
    client = mclient()
    login(client)
    out = client.cmd(b"a2 STATUS INBOX (HIGHESTMODSEQ)\r\n")
    assert out[-1].startswith(b"a2 BAD")


def test_list(mclient):
    client = mclient()
    login(client)
    out = client.cmd(b'a2 LIST "" *\r\n')
    assert out[0] == b'* LIST () "/" INBOX\r\n'
    out = client.cmd(b'a3 LIST "" Drafts\r\n')
    assert out == [b"a3 OK LIST completed\r\n"]


def test_injected_message_surfaces_before_next_command(mclient, mock6):
    client = mclient()
    select(client)
    uid = mock6.inject_new_message("INBOX", b"From: a@b.example\r\n\r\nx\r\n")
    assert uid == 61
    out = client.cmd(b"a3 NOOP\r\n")
    assert out[0] == b"* 7 EXISTS\r\n"


def test_injected_expunge_surfaces_with_sequence_number(mclient, mock6):
    client = mclient()
    select(client)
    mock6.inject_expunge("INBOX", 30)
    out = client.cmd(b"a3 NOOP\r\n")
    assert out[0] == b"* 3 EXPUNGE\r\n"
    with pytest.raises(KeyError):
        mock6.inject_expunge("INBOX", 999)


def test_exists_reports_the_count_at_arrival(mclient, mock6):
    client = mclient()
    select(client)
    mock6.inject_new_message("INBOX", b"From: a@b.example\r\n\r\nx\r\n")
    mock6.inject_expunge("INBOX", 10)
    out = client.cmd(b"a3 NOOP\r\n")
    assert out == [b"* 7 EXISTS\r\n", b"* 1 EXPUNGE\r\n", b"a3 OK NOOP completed\r\n"]


def test_select_discards_stale_events(mclient, mock6):
    client = mclient()
    login(client)
    mock6.inject_new_message("INBOX", b"From: a@b.example\r\n\r\nx\r\n")
    out = client.cmd(b"a2 SELECT INBOX\r\n")
    assert b"* 7 EXISTS\r\n" in out
    out = client.cmd(b"a3 NOOP\r\n")  # no replayed event
    assert out == [b"a3 OK NOOP completed\r\n"]


def test_drop_connection(mclient, mock6):
    client = mclient()
    select(client)
    mock6.drop_connection()
    with pytest.raises(AssertionError):
        client.cmd(b"a3 NOOP\r\n")


def test_oversized_literal_rejected(mclient):
    client = mclient()
    out = client.cmd(b"a1 LOGIN person@gmail.com {9999999}\r\n")
    assert out[-1] == b"a1 BAD literal too large\r\n"


def test_received_log_and_clear(mclient, mock6):
    client = mclient()
    select(client)
    client.cmd(b"a3 NOOP\r\n")
    assert mock6.received_verbs() == ["LOGIN", "SELECT", "NOOP"]
    mock6.clear_log()
    assert mock6.received_verbs() == []
    assert mock6.transcript == []


def test_one_connection_at_a_time(mock6):
    first = ImapClient(mock6.port)
    try:
        second = socket.create_connection(("127.0.0.1", mock6.port), timeout=5)
        second.settimeout(0.3)
        with pytest.raises(TimeoutError):
            second.recv(64)  # no greeting while the first client holds the server
        first.cmd(b"a1 LOGOUT\r\n")
        first.close()
        second.settimeout(5)
        assert second.recv(64).startswith(b"* OK")
        second.close()
    finally:
        first.close()


def test_8bit_header_is_read_as_utf8():
    """A raw UTF-8 Subject (RFC 6532) is answered in ENVELOPE and SEARCH,
    and the server goes on serving the next connection."""
    raw = "From: a@b.example\r\nSubject: café plan\r\n\r\nhi\r\n".encode()
    inbox = FixtureMailbox("INBOX", [StoredMessage(10, (), raw)], uidvalidity=1, uidnext=11)
    with MockIMAPServer([inbox], {ACCOUNT: UPSTREAM_PASSWORD}) as server:
        client = ImapClient(server.port)
        try:
            select(client)
            out = client.cmd(b"a3 FETCH 1 (ENVELOPE)\r\n")
            assert '"café plan"'.encode() in out[0]
            out = client.cmd('a4 SEARCH SUBJECT "café"\r\n'.encode())
            assert out == [b"* SEARCH 1\r\n", b"a4 OK SEARCH completed\r\n"]
            client.cmd(b"a5 LOGOUT\r\n")
        finally:
            client.close()
        second = ImapClient(server.port)
        try:
            login(second)
        finally:
            second.close()
