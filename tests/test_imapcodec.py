"""Wire codec: command parsing, sequence sets, responses, literals."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st
from reference_imapcodec import reference_parse_fetch_attrs

from chamail.errors import ImapSyntaxError, LiteralTooLarge
from chamail.imapcodec import (
    LITERAL_CAP,
    Command,
    Continuation,
    Exists,
    ExpungeEvent,
    FetchData,
    ListData,
    RawUntagged,
    Recent,
    SearchData,
    SequenceSet,
    Tagged,
    UntaggedStatus,
    Verb,
    WRITE_VERBS,
    map_search_sets,
    parse_command,
    parse_fetch_attrs,
    parse_response,
    parse_sequence_set,
    quote_string,
    read_response_blob,
    render_astring,
    render_command,
    render_response,
)
from wiregen import command_line, naive_expand, response_blob


class ScriptedIO:
    """CommandIO stub serving literal bodies and follow-up lines from a script."""

    def __init__(self, script: bytes = b""):
        self._data = io.BytesIO(script)
        self.continuations = 0
        self.literal_reads = []

    def send_continuation(self):
        self.continuations += 1

    def read_literal(self, size):
        self.literal_reads.append(size)
        return self._data.read(size)

    def read_line(self):
        return self._data.readline()


# -- command parsing ----------------------------------------------------------


def test_parse_noop():
    cmd = parse_command(b"a1 NOOP\r\n")
    assert (cmd.tag, cmd.verb, cmd.name) == ("a1", Verb.NOOP, "NOOP")
    assert cmd.raw == b"a1 NOOP\r\n"


def test_verb_is_case_insensitive():
    assert parse_command(b"a1 noop\r\n").verb is Verb.NOOP
    assert parse_command(b"a1 Select INBOX\r\n").verb is Verb.SELECT


def test_parse_login_atoms():
    cmd = parse_command(b"a1 LOGIN person@gmail.com appleball\r\n")
    assert cmd.login == ("person@gmail.com", "appleball")


def test_parse_login_quoted():
    cmd = parse_command(b'a1 LOGIN "person@gmail.com" "cats and dogs"\r\n')
    assert cmd.login == ("person@gmail.com", "cats and dogs")


def test_parse_login_quoted_escapes():
    cmd = parse_command(b'a1 LOGIN user1234 "pa\\"ss\\\\word"\r\n')
    assert cmd.login == ("user1234", 'pa"ss\\word')


def test_parse_login_sync_literal():
    scripted = ScriptedIO(b"cats and dogs\r\n")
    cmd = parse_command(b"a1 LOGIN person@gmail.com {13}\r\n", scripted)
    assert cmd.login == ("person@gmail.com", "cats and dogs")
    assert scripted.continuations == 1
    assert cmd.literals == (b"cats and dogs",)
    assert cmd.raw == b"a1 LOGIN person@gmail.com {13}\r\ncats and dogs\r\n"


def test_parse_login_nonsync_literal():
    scripted = ScriptedIO(b"topsecret\r\n")
    cmd = parse_command(b"a1 LOGIN person@gmail.com {9+}\r\n", scripted)
    assert cmd.login == ("person@gmail.com", "topsecret")
    assert scripted.continuations == 0  # LITERAL+ sends no continuation


def test_parse_select_quoted_mailbox():
    cmd = parse_command(b'a2 SELECT "Archive 2024"\r\n')
    assert cmd.verb is Verb.SELECT
    assert cmd.mailbox == "Archive 2024"


def test_parse_uid_fetch():
    cmd = parse_command(b"a3 UID FETCH 10:20,25 (FLAGS)\r\n")
    assert cmd.verb is Verb.UID_FETCH
    assert cmd.name == "UID FETCH"
    assert cmd.seq_set.render() == "10:20,25"
    assert cmd.rest == b"(FLAGS)"


def test_parse_store_is_a_write_verb():
    cmd = parse_command(b"a4 STORE 1 +FLAGS (\\Seen)\r\n")
    assert cmd.verb in WRITE_VERBS
    assert cmd.rest == b"+FLAGS (\\Seen)"


def test_parse_unknown_verb_keeps_tail_verbatim():
    cmd = parse_command(b"a5 XAPPLEPUSH aps-version 2\r\n")
    assert cmd.verb is Verb.OTHER
    assert cmd.name == "XAPPLEPUSH"
    assert cmd.rest == b"aps-version 2"


def test_parse_append_keeps_literal_inline():
    msg = b"From: a@b.c\r\n\r\nhi\r\n"
    scripted = ScriptedIO(msg + b"\r\n")
    cmd = parse_command(b"a6 APPEND INBOX (\\Seen) {%d}\r\n" % len(msg), scripted)
    assert cmd.verb is Verb.APPEND
    assert cmd.mailbox == "INBOX"
    assert cmd.literals == (msg,)
    assert cmd.rest == b"(\\Seen) {%d}\r\n" % len(msg) + msg


@pytest.mark.parametrize(
    "line",
    [
        b"\r\n",
        b"a1\r\n",
        b"a1 NOOP",  # missing CRLF
        b"a1 NOOP extra\r\n",
        b"a1 LOGIN onlyone\r\n",
        b"a1 SELECT\r\n",
        b"a1 FETCH (FLAGS)\r\n",  # no sequence set
        b"+tag NOOP\r\n",  # '+' cannot start a tag
        b"a1 UID\r\n",
    ],
)
def test_rejects_malformed_commands(line):
    with pytest.raises(ImapSyntaxError):
        parse_command(line)


def test_oversized_literal_rejected_before_reading():
    scripted = ScriptedIO()
    with pytest.raises(LiteralTooLarge):
        parse_command(b"a1 LOGIN user {%d}\r\n" % (LITERAL_CAP + 1), scripted)
    assert scripted.literal_reads == []
    assert scripted.continuations == 0


def test_oversized_literal_rejected_in_tail_position():
    scripted = ScriptedIO()
    with pytest.raises(LiteralTooLarge):
        parse_command(b"a1 SEARCH TEXT {%d+}\r\n" % (LITERAL_CAP + 1), scripted)
    assert scripted.literal_reads == []


def test_literal_at_cap_is_accepted():
    body = b"x" * LITERAL_CAP
    scripted = ScriptedIO(body + b"\r\n")
    cmd = parse_command(b"a1 LOGIN user {%d+}\r\n" % LITERAL_CAP, scripted)
    assert cmd.login[1] == body.decode()


# -- sequence sets ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("text", "exists", "expected"),
    [
        ("1:3,5", 9, [1, 2, 3, 5]),
        ("*", 4, [4]),
        ("3:*", 2, [2]),
        ("7", 3, []),
        ("*", 0, []),
        ("1:*", 4, [1, 2, 3, 4]),
        ("5:1", 9, [1, 2, 3, 4, 5]),
        ("2,2,2", 9, [2]),
        ("*:2", 4, [2, 3, 4]),
        ("1,2:4,3:6", 9, [1, 2, 3, 4, 5, 6]),
    ],
)
def test_expand_examples(text, exists, expected):
    assert parse_sequence_set(text).expand(exists) == expected


@pytest.mark.parametrize("text", ["", "0", "1:", ":5", "a", "1,,2", "1:2:3", "-1"])
def test_rejects_bad_sequence_sets(text):
    with pytest.raises(ImapSyntaxError):
        parse_sequence_set(text)


def test_from_numbers_merges_runs():
    assert SequenceSet.from_numbers([5, 1, 2, 3, 9]).render() == "1:3,5,9"
    assert SequenceSet.from_numbers([]).render() == ""


endpoints = st.one_of(st.integers(1, 40).map(str), st.just("*"))
items = st.one_of(
    endpoints, st.tuples(endpoints, endpoints).map(lambda t: f"{t[0]}:{t[1]}")
)
seq_texts = st.lists(items, min_size=1, max_size=6).map(",".join)


@given(seq_texts, st.integers(0, 45))
def test_expand_matches_naive_expansion(text, exists):
    parsed = parse_sequence_set(text)
    assert parsed.expand(exists) == naive_expand(text, exists)


@given(seq_texts)
def test_normalization_is_render_stable(text):
    parsed = parse_sequence_set(text)
    assert parse_sequence_set(parsed.render()) == parsed


@given(st.lists(st.integers(1, 60), min_size=1, max_size=20))
def test_from_numbers_expand_roundtrip(numbers):
    assert SequenceSet.from_numbers(numbers).expand(60) == sorted(set(numbers))


# -- SEARCH criteria ---------------------------------------------------------------


def _tag_sets(criteria: bytes) -> bytes:
    """map_search_sets with mappers that mark which set went where."""
    return map_search_sets(
        criteria,
        lambda s: SequenceSet(((100, 100),)) if s.render() == "*" else SequenceSet(((7, 8),)),
        lambda s: SequenceSet(((99, 99),)),
    )


@pytest.mark.parametrize(
    "criteria, expected",
    [
        (b"ALL", b"ALL"),
        (b"3", b"7:8"),
        (b"*", b"100"),
        (b"NOT 3:4 UNSEEN", b"NOT 7:8 UNSEEN"),
        (b"OR 1 (2,5 SEEN) uid 1:*", b"OR 7:8 (7:8 SEEN) uid 99"),
        (b"(1)", b"(7:8)"),
        (b"LARGER 500 SMALLER 9000", b"LARGER 500 SMALLER 9000"),
        (b"HEADER X-Seq 5 1", b"HEADER X-Seq 5 7:8"),
        (b"UNKEYWORD 8 2", b"UNKEYWORD 8 7:8"),
        (b'HEADER "X-Seq" "5" 1', b'HEADER "X-Seq" "5" 7:8'),
        (b"SUBJECT {1}\r\n5 2", b"SUBJECT {1}\r\n5 7:8"),
        (b'CHARSET UTF-8 TEXT "a\\"b 3" 4', b'CHARSET UTF-8 TEXT "a\\"b 3" 7:8'),
        (b"FROM UID 3", b"FROM UID 7:8"),
        (b"SINCE 1-Feb-1994 KEYWORD 7 2", b"SINCE 1-Feb-1994 KEYWORD 7 7:8"),
    ],
)
def test_map_search_sets_rewrites_only_sequence_sets(criteria, expected):
    assert _tag_sets(criteria) == expected


def test_map_search_sets_rejects():
    nothing = lambda s: SequenceSet(())  # noqa: E731
    with pytest.raises(ImapSyntaxError, match="invalid sequence set"):
        map_search_sets(b"SEEN 9", nothing, nothing)
    with pytest.raises(ImapSyntaxError, match="invalid sequence set"):
        map_search_sets(b"UID 9", nothing, nothing)
    for bad in (b"UID SEEN", b"1::2", b'FROM "open', b"X{y"):
        with pytest.raises(ImapSyntaxError):
            _tag_sets(bad)


# -- responses -------------------------------------------------------------------


def test_parse_tagged():
    r = parse_response(b"a7 NO [ALERT] quota exceeded\r\n")
    assert isinstance(r, Tagged)
    assert (r.tag, r.status) == ("a7", "NO")
    assert "quota" in r.text


def test_parse_untagged_status_code():
    r = parse_response(b"* OK [UIDVALIDITY 4242] UIDs valid\r\n")
    assert isinstance(r, UntaggedStatus)
    assert (r.status, r.code, r.code_args) == ("OK", "UIDVALIDITY", "4242")


def test_parse_counters():
    assert parse_response(b"* 23 EXISTS\r\n") == Exists(23)
    assert parse_response(b"* 2 RECENT\r\n") == Recent(2)
    assert parse_response(b"* 4 EXPUNGE\r\n") == ExpungeEvent(4)


def test_parse_fetch_keeps_attrs_raw():
    blob = b"* 2 FETCH (BODY[TEXT] {5}\r\nhello)\r\n"
    r = parse_response(blob)
    assert isinstance(r, FetchData)
    assert r.seq == 2
    assert r.attrs == b"(BODY[TEXT] {5}\r\nhello)"


def test_parse_search():
    assert parse_response(b"* SEARCH 2 5 9\r\n") == SearchData((2, 5, 9))
    assert parse_response(b"* SEARCH\r\n") == SearchData(())


def _assert_stays_raw(blob):
    r = parse_response(blob)
    assert isinstance(r, RawUntagged)
    assert r.payload == blob[2:-2]
    assert render_response(r) == render_response(RawUntagged(r.payload)) == blob


def test_parse_status():
    """The proxy never reads an upstream STATUS reply: it parses as
    RawUntagged and renders back byte for byte."""
    _assert_stays_raw(b'* STATUS "My Folder" (MESSAGES 4 UNSEEN 3)\r\n')


def test_parse_capability():
    """Likewise an upstream CAPABILITY reply."""
    _assert_stays_raw(b"* CAPABILITY IMAP4rev1 AUTH=PLAIN\r\n")


def test_parse_list_data():
    r = parse_response(b'* LIST (\\HasNoChildren) "/" INBOX\r\n')
    assert isinstance(r, ListData)
    assert r.name == "LIST"


def test_parse_flags_line_is_raw_untagged():
    r = parse_response(b"* FLAGS (\\Answered \\Seen)\r\n")
    assert isinstance(r, RawUntagged)
    assert r.payload.startswith(b"FLAGS")


def test_parse_continuation():
    assert isinstance(parse_response(b"+ \r\n"), Continuation)
    r = parse_response(b"+ send literal\r\n")
    assert isinstance(r, Continuation)
    assert r.text == "send literal"


def test_parse_bye():
    r = parse_response(b"* BYE IMAP4rev1 server logging out\r\n")
    assert isinstance(r, UntaggedStatus)
    assert r.status == "BYE"


RECORDED_TRANSCRIPT = [
    b"* OK IMAP4rev1 service ready\r\n",
    b"a1 OK LOGIN completed\r\n",
    b"a2 NO [ALERT] quota exceeded\r\n",
    b"* 23 EXISTS\r\n",
    b"* 0 RECENT\r\n",
    b"* 4 EXPUNGE\r\n",
    b"* 1 FETCH (UID 10 FLAGS (\\Seen))\r\n",
    b"* 2 FETCH (BODY[TEXT] {5}\r\nhello)\r\n",
    b"* SEARCH\r\n",
    b"* SEARCH 2 5 9\r\n",
    b"* STATUS INBOX (MESSAGES 4 UNSEEN 3)\r\n",
    b"* CAPABILITY IMAP4rev1 AUTH=PLAIN\r\n",
    b'* LIST (\\HasNoChildren) "/" INBOX\r\n',
    b"* FLAGS (\\Answered \\Seen)\r\n",
    b"* OK [PERMANENTFLAGS ()] read-only\r\n",
    b"+ \r\n",
    b"+ ready for literal\r\n",
    b"* BYE IMAP4rev1 server logging out\r\n",
]


def test_render_parse_is_byte_identity_on_recorded_lines():
    for blob in RECORDED_TRANSCRIPT:
        assert render_response(parse_response(blob)) == blob


def test_render_without_raw_is_canonical():
    assert render_response(Exists(23)) == b"* 23 EXISTS\r\n"
    assert render_response(SearchData((1, 2))) == b"* SEARCH 1 2\r\n"
    assert render_response(Tagged("a1", "OK", "done")) == b"a1 OK done\r\n"
    assert render_response(Continuation("")) == b"+ \r\n"


# -- generated corpus: parse∘render fixpoint ------------------------------------


def test_generated_command_corpus_roundtrips():
    rng = random.Random(20240214)
    for i in range(200):
        line = command_line(rng, f"t{i}")
        first = parse_command(line)
        rendered = render_command(first)
        second = parse_command(rendered)
        assert second.tag == first.tag
        assert second.verb is first.verb
        assert second.login == first.login
        assert second.mailbox == first.mailbox
        assert (second.seq_set is None) == (first.seq_set is None)
        if first.seq_set is not None:
            assert second.seq_set == first.seq_set
        assert second.rest == first.rest
        # canonical form is a fixpoint
        assert render_command(second) == rendered


def test_generated_response_corpus_roundtrips():
    rng = random.Random(99)
    for _ in range(200):
        blob = response_blob(rng)
        assert render_response(parse_response(blob)) == blob


# -- astring / quoting helpers -----------------------------------------------------


def test_quote_string_escapes():
    assert quote_string('a"b\\c') == b'"a\\"b\\\\c"'


def test_render_astring_picks_form():
    assert render_astring("INBOX") == b"INBOX"
    assert render_astring("two words") == b'"two words"'
    assert render_astring("line\r\nbreak") == b"{11}\r\nline\r\nbreak"


# -- stream reading ------------------------------------------------------------


def test_read_blob_one_line_at_a_time():
    stream = io.BytesIO(b"* 1 EXISTS\r\na1 OK done\r\n")
    assert read_response_blob(stream) == b"* 1 EXISTS\r\n"
    assert read_response_blob(stream) == b"a1 OK done\r\n"
    assert read_response_blob(stream) == b""


def test_read_blob_follows_literals():
    body = b"two\r\nlines"
    blob = b"* 1 FETCH (BODY[TEXT] {%d}\r\n%s)\r\n" % (len(body), body)
    stream = io.BytesIO(blob)
    assert read_response_blob(stream) == blob


def test_read_blob_eof_mid_literal():
    stream = io.BytesIO(b"* 1 FETCH (BODY[TEXT] {100}\r\nshort")
    with pytest.raises(ImapSyntaxError):
        read_response_blob(stream)


def test_read_blob_eof_mid_line():
    stream = io.BytesIO(b"* 1 EXIS")
    with pytest.raises(ImapSyntaxError):
        read_response_blob(stream)


# -- FETCH attribute scanning --------------------------------------------------


def test_fetch_attrs_mixed_values():
    attrs = (
        b'(UID 10 FLAGS (\\Seen \\Answered) RFC822.SIZE 321 '
        b'INTERNALDATE "10-Feb-2024 11:30:00 +0000")'
    )
    pairs = dict(parse_fetch_attrs(attrs))
    assert pairs["UID"] == 10
    assert pairs["FLAGS"] == b"(\\Seen \\Answered)"
    assert pairs["RFC822.SIZE"] == 321
    assert pairs["INTERNALDATE"] == b"10-Feb-2024 11:30:00 +0000"


def test_fetch_attrs_literal_section():
    header = b"From: x@y.z\r\nSubject: hello\r\n\r\n"
    attrs = b"(UID 7 BODY[HEADER.FIELDS (FROM SUBJECT)] {%d}\r\n%s)" % (len(header), header)
    pairs = parse_fetch_attrs(attrs)
    assert [name for name, _ in pairs] == ["UID", "BODY[HEADER.FIELDS (FROM SUBJECT)]"]
    assert pairs[1][1] == header


def test_fetch_attrs_partial_marker_and_nil():
    pairs = dict(parse_fetch_attrs(b'(BODY[TEXT]<0.65536> "abc" BODY[1] NIL)'))
    assert pairs["BODY[TEXT]<0.65536>"] == b"abc"
    assert pairs["BODY[1]"] is None


def test_fetch_attrs_require_parens():
    with pytest.raises(ImapSyntaxError):
        parse_fetch_attrs(b"UID 10")


def _literal(body: bytes) -> bytes:
    return b"{%d}\r\n" % len(body) + body


fetch_atoms = st.sampled_from(
    [b"NIL", b"0", b"42", b"007", b"\\Seen", b"$Junk", b"a{b", b"x\"y", b"\t", b"NILS", b"\xff"]
)
fetch_quoted = st.lists(
    st.sampled_from([b"a", b" ", b"(", b")", b"{", b"\\\"", b"\\\\", b"\\x", b"\r\n"]), max_size=5
).map(lambda parts: b'"' + b"".join(parts) + b'"')
fetch_literals = st.lists(
    st.sampled_from([b"From: a@b.c\r\n", b"(", b")", b'"', b"{3}\r\n", b"\r\n"]), max_size=4
).map(lambda parts: _literal(b"".join(parts)))
fetch_values = st.recursive(
    st.one_of(fetch_atoms, fetch_quoted, fetch_literals),
    lambda inner: st.lists(inner, max_size=3).map(lambda vs: b"(" + b" ".join(vs) + b")"),
    max_leaves=6,
)
fetch_names = st.sampled_from(
    [b"UID", b"uid", b"FLAGS", b"RFC822.SIZE", b"BODY[TEXT]<0.65536>", b"BODY[1]",
     b"BODY[HEADER.FIELDS (FROM SUBJECT)]", b"X"]
)
fetch_junk = st.sampled_from([b"", b"", b"", b" ", b"\r\n", b"(", b")", b'"', b"{9}\r\n", b"\\", b"["])


@settings(max_examples=400)
@given(
    st.lists(st.tuples(fetch_names, st.sampled_from([b" ", b"  ", b"\r\n", b""]), fetch_values),
             max_size=4),
    fetch_junk,
    st.integers(0, 200),
)
def test_fetch_attrs_agree_with_the_byte_scan(items, junk, cut):
    """The tokenizer against the byte-by-byte scan it replaced, on attribute
    lists that are well formed and on ones cut short or spliced with junk:
    the same pairs, or the same error."""
    body = b" ".join(name + gap + value for name, gap, value in items)
    for attrs in (b"(" + body + b")", b"(" + body[:cut] + junk + body[cut:] + b")"):
        try:
            expected = reference_parse_fetch_attrs(attrs)
        except (ImapSyntaxError, UnicodeDecodeError) as exc:
            with pytest.raises(type(exc)) as raised:
                parse_fetch_attrs(attrs)
            assert str(raised.value) == str(exc)
        else:
            assert parse_fetch_attrs(attrs) == expected
