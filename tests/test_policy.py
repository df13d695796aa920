"""Policy engine: evaluation semantics, metadata extraction, validation."""

import base64

import pytest
from hypothesis import given, settings, strategies as st
from reference_policy import reference_evaluate, reference_extract_meta

from chamail.errors import InvalidPolicy
from chamail.policy import (
    BODY_EXCERPT_CAP,
    Decision,
    KeywordConstraint,
    KeywordMode,
    MessageMeta,
    PolicySet,
    SenderConstraint,
    SenderMode,
    UNPARSEABLE,
    evaluate,
    extract_meta,
    sender_constraints_pass,
    validate,
)
from chamail.principal import Owner, SubUser

SPOUSE = SubUser("spouse")
LISTS = {
    "exes": frozenset({"ex@gmail.com", "other-ex@example.org"}),
    "family": frozenset({"mom@family.example"}),
    "empty": frozenset(),
}


def blacklist(name):
    return SenderConstraint(SenderMode.BLACKLIST, name)


def whitelist(name):
    return SenderConstraint(SenderMode.WHITELIST, name)


def meta(sender="someone@example.com", subject="", body=""):
    return MessageMeta(sender=sender, subject=subject, body_excerpt=body)


# -- sender constraints ------------------------------------------------------


def test_blacklist_hides_listed_sender():
    policy = PolicySet(sender_constraints=(blacklist("exes"),))
    assert evaluate(policy, meta("ex@gmail.com"), LISTS, SPOUSE) is Decision.HIDDEN


def test_blacklist_shows_unlisted_sender():
    policy = PolicySet(sender_constraints=(blacklist("exes"),))
    assert evaluate(policy, meta("mom@family.example"), LISTS, SPOUSE) is Decision.VISIBLE


def test_whitelist_hides_unlisted_sender():
    policy = PolicySet(sender_constraints=(whitelist("family"),))
    assert evaluate(policy, meta("boss@work.example"), LISTS, SPOUSE) is Decision.HIDDEN


def test_whitelist_shows_listed_sender():
    policy = PolicySet(sender_constraints=(whitelist("family"),))
    assert evaluate(policy, meta("mom@family.example"), LISTS, SPOUSE) is Decision.VISIBLE


def test_unparseable_sender_fails_blacklist_too():
    # fail closed: a garbled From hides the message even under a blacklist
    # that the real sender would not match
    policy = PolicySet(sender_constraints=(blacklist("exes"),))
    assert evaluate(policy, meta(UNPARSEABLE), LISTS, SPOUSE) is Decision.HIDDEN
    assert not sender_constraints_pass(policy, UNPARSEABLE, LISTS)


def test_constraints_are_conjunctive():
    policy = PolicySet(sender_constraints=(blacklist("exes"), whitelist("family")))
    assert evaluate(policy, meta("mom@family.example"), LISTS, SPOUSE) is Decision.VISIBLE
    # passes the blacklist but not the whitelist
    assert evaluate(policy, meta("boss@work.example"), LISTS, SPOUSE) is Decision.HIDDEN


# -- keyword constraints -------------------------------------------------------


def test_require_any_needs_a_hit():
    policy = PolicySet(
        keyword_constraints=(KeywordConstraint(KeywordMode.REQUIRE_ANY, {"invoice"}),)
    )
    assert evaluate(policy, meta(subject="Invoice 42"), LISTS, SPOUSE) is Decision.VISIBLE
    assert evaluate(policy, meta(subject="hello"), LISTS, SPOUSE) is Decision.HIDDEN


def test_forbid_any_hides_on_hit():
    policy = PolicySet(
        keyword_constraints=(KeywordConstraint(KeywordMode.FORBID_ANY, {"lake house"}),)
    )
    assert evaluate(policy, meta(body="meet at the Lake House?"), LISTS, SPOUSE) is Decision.HIDDEN
    assert evaluate(policy, meta(body="meet at the cabin?"), LISTS, SPOUSE) is Decision.VISIBLE


def test_keywords_match_casefolded_substrings():
    policy = PolicySet(
        keyword_constraints=(KeywordConstraint(KeywordMode.REQUIRE_ANY, {"TULIP"}),)
    )
    assert evaluate(policy, meta(subject="re: tulips"), LISTS, SPOUSE) is Decision.VISIBLE


def test_keyword_checks_subject_and_body():
    policy = PolicySet(
        keyword_constraints=(KeywordConstraint(KeywordMode.REQUIRE_ANY, {"magic"}),)
    )
    assert evaluate(policy, meta(subject="magic"), LISTS, SPOUSE) is Decision.VISIBLE
    assert evaluate(policy, meta(body="magic"), LISTS, SPOUSE) is Decision.VISIBLE


# -- principals and the empty policy ---------------------------------------------


def test_owner_bypasses_everything():
    policy = PolicySet(
        sender_constraints=(whitelist("empty"),),
        keyword_constraints=(KeywordConstraint(KeywordMode.REQUIRE_ANY, {"nope"}),),
    )
    assert evaluate(policy, meta("ex@gmail.com"), LISTS, Owner()) is Decision.VISIBLE


def test_empty_policy_shows_everything():
    assert evaluate(PolicySet.empty(), meta(UNPARSEABLE), LISTS, SPOUSE) is Decision.VISIBLE


# -- validation ---------------------------------------------------------------


def test_validate_accepts_known_lists():
    validate(PolicySet(sender_constraints=(blacklist("exes"),)), LISTS)


def test_validate_rejects_unknown_list():
    with pytest.raises(InvalidPolicy, match="unknown list"):
        validate(PolicySet(sender_constraints=(blacklist("nope"),)), LISTS)


def test_validate_rejects_empty_keyword_set():
    policy = PolicySet(
        keyword_constraints=(KeywordConstraint(KeywordMode.REQUIRE_ANY, frozenset()),)
    )
    with pytest.raises(InvalidPolicy, match="empty"):
        validate(policy, LISTS)


def test_validate_rejects_oversized_keyword():
    policy = PolicySet(
        keyword_constraints=(KeywordConstraint(KeywordMode.FORBID_ANY, {"x" * 129}),)
    )
    with pytest.raises(InvalidPolicy):
        validate(policy, LISTS)


def test_policy_json_roundtrip():
    policy = PolicySet(
        sender_constraints=(blacklist("exes"), whitelist("family")),
        keyword_constraints=(
            KeywordConstraint(KeywordMode.REQUIRE_ANY, {"a", "b"}),
            KeywordConstraint(KeywordMode.FORBID_ANY, {"c"}),
        ),
    )
    assert PolicySet.from_json(policy.to_json()) == policy


# -- differential property: evaluate vs the naive oracle -----------------------

addresses = st.sampled_from(
    ["ex@gmail.com", "other-ex@example.org", "mom@family.example", "new@nowhere.example"]
)
senders = st.one_of(addresses, st.just(UNPARSEABLE))
words = st.sampled_from(["tulip", "orchid", "lake", "invoice", "zzz"])
texts = st.lists(words, max_size=4).map(" ".join)

sender_constraints = st.builds(
    SenderConstraint,
    st.sampled_from(SenderMode),
    st.sampled_from(sorted(LISTS)),
)
keyword_constraints = st.builds(
    KeywordConstraint,
    st.sampled_from(KeywordMode),
    st.sets(words, min_size=1, max_size=3),
)
policies = st.builds(
    PolicySet,
    st.lists(sender_constraints, max_size=3).map(tuple),
    st.lists(keyword_constraints, max_size=3).map(tuple),
)
metas = st.builds(MessageMeta, senders, texts, texts)


@given(policies, metas, st.sampled_from([Owner(), SPOUSE]))
def test_evaluate_agrees_with_reference(policy, message, principal):
    assert evaluate(policy, message, LISTS, principal) is reference_evaluate(
        policy, message, LISTS, principal
    )


# -- metadata extraction --------------------------------------------------------


def test_extract_plain_message():
    raw = (
        b"From: Alex <EX@GMAIL.COM>\r\n"
        b"To: person@gmail.com\r\n"
        b"Subject: do you remember\r\n"
        b"\r\n"
        b"the lake house\r\n"
    )
    m = extract_meta(raw)
    assert m.sender == "ex@gmail.com"  # normalized to lowercase
    assert m.subject == "do you remember"
    assert "lake house" in m.body_excerpt


def test_extract_missing_from_is_unparseable():
    assert extract_meta(b"Subject: hi\r\n\r\nbody\r\n").sender is UNPARSEABLE


def test_extract_garbled_from_is_unparseable():
    raw = b"From: totally not an address\r\n\r\nbody\r\n"
    assert extract_meta(raw).sender is UNPARSEABLE


def test_extract_folded_subject_is_unfolded():
    raw = b"From: a@b.c\r\nSubject: one\r\n two\r\n\r\n"
    assert extract_meta(raw).subject == "one two"


def test_extract_decodes_quoted_printable():
    raw = (
        b"From: mom@family.example\r\n"
        b"Subject: dinner\r\n"
        b"Content-Type: text/plain; charset=utf-8\r\n"
        b"Content-Transfer-Encoding: quoted-printable\r\n"
        b"\r\n"
        b"caf=C3=A9 at six\r\n"
    )
    assert "café at six" in extract_meta(raw).body_excerpt


def test_extract_decodes_base64():
    raw = (
        b"From: a@b.c\r\n"
        b"Content-Type: text/plain\r\n"
        b"Content-Transfer-Encoding: base64\r\n"
        b"\r\n"
        b"T1JDSElEQk9EWQ==\r\n"
    )
    assert "ORCHIDBODY" in extract_meta(raw).body_excerpt


def test_extract_picks_text_plain_from_multipart():
    raw = (
        b"From: news@shop.example\r\n"
        b"MIME-Version: 1.0\r\n"
        b'Content-Type: multipart/alternative; boundary="b"\r\n'
        b"\r\n"
        b"--b\r\n"
        b"Content-Type: text/plain\r\n"
        b"\r\n"
        b"plain deal text\r\n"
        b"--b\r\n"
        b"Content-Type: text/html\r\n"
        b"\r\n"
        b"<p>html deal text</p>\r\n"
        b"--b--\r\n"
    )
    excerpt = extract_meta(raw).body_excerpt
    assert "plain deal text" in excerpt
    assert "html" not in excerpt


def test_extract_caps_body_excerpt():
    raw = b"From: a@b.c\r\n\r\n" + b"x" * (BODY_EXCERPT_CAP + 5000)
    assert len(extract_meta(raw).body_excerpt) <= BODY_EXCERPT_CAP


def test_extract_never_raises_on_junk():
    idna = b"Content-Type: text/plain; charset=idna\r\n\r\n\xff\r\n"
    nul = b'Content-Type: text/plain; charset="a\x00b"\r\n\r\nbody\r\n'
    for raw in (b"", b"\x00\xff\xfe", b"no headers at all", b"From: \r\n\r\n", idna, nul):
        m = extract_meta(raw)
        assert m.sender is UNPARSEABLE or isinstance(m.sender, str)


def test_extract_reads_8bit_headers_as_utf8():
    m = extract_meta("From: é <a@b.c>\r\nSubject: café plan\r\n\r\n".encode())
    assert (m.sender, m.subject) == ("a@b.c", "café plan")
    invalid = extract_meta(b"From: a@b.c\r\nSubject: caf\xe9\r\n\r\n")
    assert invalid.subject == "caf\N{REPLACEMENT CHARACTER}"
    encoded = extract_meta(b"From: a@b.c\r\nSubject: =?utf-8?q?caf=C3=A9?=\r\n\r\n")
    assert encoded.subject == "café"  # RFC 2047 encoded words are decoded


def test_extract_8bit_addr_spec_is_unparseable():
    assert extract_meta("From: café@b.c\r\n\r\n".encode()).sender is UNPARSEABLE
    assert extract_meta("From: <a@bé.c>\r\n\r\n".encode()).sender is UNPARSEABLE


# -- differential property: extract_meta vs the email-parser oracle -------------


def _same_meta_where_the_oracle_returns(raw: bytes) -> None:
    try:
        expected = reference_extract_meta(raw)
    except TypeError:  # the parser's 8-bit From or Subject; extract_meta must not raise
        extract_meta(raw)
        return
    assert extract_meta(raw) == expected


line_ends = st.sampled_from(["\r\n", "\n", "\r"])
field_names = st.sampled_from(
    ["From", "FROM", "from", "Subject", "SUBJECT", "Content-Type", "content-type",
     "To", "X-Note", ""]
)
colons = st.sampled_from([":", ": ", ":\t", " :", "\t:"])  # a space before ":" ends the block
field_values = st.sampled_from(
    ["ex@gmail.com", "Alex <EX@GMAIL.COM>", '"Doe, J" <j@d.example>, k@d.example',
     "not an address", "<>", "", "  ", "café plan", "é <a@b.c>", "=?utf-8?q?caf=C3=A9?= <a@b.c>",
     "=?utf-8?b?Y2Fmw6k=?=", "tulip orchid", "text/plain", "TEXT/Plain; charset=utf-8",
     "text/html", 'multipart/mixed; boundary="b"', "message/rfc822", "bogus", "a/b/c",
     "text/plain\u00a0", "message/café", "invoice\x1c"]
)
other_lines = st.sampled_from(
    ["From someone@example.com Mon Jan  1 00:00:00 2024", "a line that is no header",
     " a continuation", "\tanother continuation", ":nameless", "Sé: 8-bit name"]
)


@st.composite
def header_blocks(draw) -> bytes:
    """Header blocks as a server might serve them, and some it should not:
    folding, repeated fields, space before the colon, stray lines, a leading
    mbox From line, 8-bit bytes, any line ends, with or without the blank
    line, sometimes with bytes after it."""
    lines = []
    if draw(st.booleans()):
        lines.append(draw(other_lines))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(other_lines))
            continue
        pieces = draw(st.lists(field_values, min_size=1, max_size=3))
        folds = [draw(st.sampled_from([" ", "\t", "   "])) for _ in pieces[1:]]
        value = pieces[0] + "".join(
            "<EOL>" + fold + piece for fold, piece in zip(folds, pieces[1:])
        )
        lines.append(draw(field_names) + draw(colons) + value)
    end = draw(st.sampled_from(["", "<EOL>", "<EOL><EOL>"]))
    text = "<EOL>".join(lines) + end + draw(st.sampled_from(["", "", "body text<EOL>", "<EOL>"]))
    pieces = text.split("<EOL>")
    out = pieces[0]
    for piece in pieces[1:]:
        out += draw(line_ends) + piece
    return out.encode(draw(st.sampled_from(["utf-8", "latin-1"])), "replace")


@settings(max_examples=400)
@given(header_blocks())
def test_extract_meta_agrees_with_the_email_parser_on_header_blocks(raw):
    _same_meta_where_the_oracle_returns(raw)


def _leaf(kind: str, size: int, marker: str) -> str:
    text = (marker + " " + "plain filler words " * (size // 19 + 1))[:size]
    if kind == "text/plain":
        return "Content-Type: text/plain; charset=utf-8\r\n\r\n" + text
    if kind == "text/plain-qp":
        return (
            "Content-Type: text/plain\r\nContent-Transfer-Encoding: quoted-printable"
            "\r\n\r\n" + text.replace(" ", "=20")
        )
    if kind == "text/html":
        return "Content-Type: text/html\r\n\r\n<p>" + text + "</p>"
    return "Content-Type: application/octet-stream\r\n\r\n" + "A" * size


@st.composite
def mime_trees(draw, depth=0) -> str:
    """A multipart body (headers included) whose parts run from a few bytes
    to tens of KiB, so the 64 KiB cut falls before, inside or after the
    text/plain part."""
    boundary = f"b{depth}"
    parts = []
    for i in range(draw(st.integers(1, 3))):
        if depth < 2 and draw(st.integers(0, 3)) == 0:
            parts.append(draw(mime_trees(depth + 1)))
        else:
            kind = draw(st.sampled_from(["text/plain", "text/plain-qp", "text/html", "other"]))
            size = draw(st.sampled_from([10, 2_000, 30_000, 60_000, 70_000]))
            parts.append(_leaf(kind, size, f"marker{depth}{i}"))
    subtype = draw(st.sampled_from(["mixed", "alternative"]))
    body = "".join(f"--{boundary}\r\n{part}\r\n" for part in parts) + f"--{boundary}--\r\n"
    return f'Content-Type: multipart/{subtype}; boundary="{boundary}"\r\n\r\n{body}'


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["From: ex@gmail.com\r\nSubject: plans\r\n", "Subject: plans\r\n"]),
       mime_trees())
def test_extract_meta_agrees_with_the_email_parser_on_mime_trees(fields, tree):
    header, _, body = tree.partition("\r\n\r\n")
    # what decide() reads: the header block and the first 64 KiB of the body
    raw = (fields + header + "\r\n\r\n").encode() + body.encode()[:BODY_EXCERPT_CAP]
    _same_meta_where_the_oracle_returns(raw)


@settings(max_examples=300)
@given(st.binary(max_size=300))
def test_extract_meta_is_total(raw):
    _same_meta_where_the_oracle_returns(raw)


# -- RFC 2047 encoded words in the subject ----------------------------------------


def _q_encoded(data: bytes) -> str:
    return "".join(
        "_" if b == 0x20 else chr(b) if 0x21 <= b <= 0x7E and b not in b"=?_" else f"={b:02X}"
        for b in data
    )


@st.composite
def encoded_words(draw) -> str:
    """One RFC 2047 encoded word in some charset, B or Q, sometimes with
    its base64 padding left out; now and then one that cannot be decoded."""
    broken = draw(st.integers(0, 9))
    if broken == 0:
        return draw(st.sampled_from(
            ["=?x-unknown?q?plans?=", "=?utf-8?b?abcde?=", "=?utf-8*en?q?hi?=", "=??q?hi?="]
        ))
    charset = draw(st.sampled_from(
        ["utf-8", "UTF-8", "iso-8859-1", "ISO-8859-2", "koi8-r", "windows-1252",
         "shift_jis", "us-ascii"]
    ))
    text = draw(st.text(alphabet="secret plan café ŝ ёж 日本_=?.\u00a0", max_size=12))
    data = text.encode(charset, "replace")
    if draw(st.booleans()):
        return f"=?{charset}?{draw(st.sampled_from('qQ'))}?{_q_encoded(data)}?="
    b64 = base64.b64encode(data).decode()
    if draw(st.booleans()):
        b64 = b64.rstrip("=")
    return f"=?{charset}?{draw(st.sampled_from('bB'))}?{b64}?="


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(encoded_words(), st.sampled_from(["plain", "the plan", "re:", "a=b?c"])),
        min_size=1, max_size=5,
    ),
    st.lists(st.sampled_from(["", " ", "  ", "\t", "\r\n ", " x "]), min_size=4, max_size=4),
)
def test_encoded_subjects_decode_as_the_stdlib_decodes_them(pieces, gaps):
    subject = pieces[0] + "".join(gap + piece for gap, piece in zip(gaps, pieces[1:]))
    raw = ("From: a@b.c\r\nSubject: " + subject + "\r\n\r\n").encode()
    _same_meta_where_the_oracle_returns(raw)


def test_encoded_subjects_are_matched_decoded():
    def subject(raw: bytes):
        m = extract_meta(b"From: a@b.c\r\nSubject: " + raw + b"\r\n\r\n")
        return m.subject, m.subject_decoded

    assert subject(b"=?utf-8?b?c2VjcmV0IHBsYW4=?=") == ("secret plan", True)
    # adjacent words join without the white space between them (RFC 2047 §6.2)
    assert subject(b"=?utf-8?q?sec?= \t =?utf-8?q?ret?= plan") == ("secret plan", True)
    assert subject(b"=?utf-8?q?caf=C3?= =?UTF-8?q?=A9?=") == ("café", True)
    assert subject(b"=?x-unknown?q?secret?=") == ("=?x-unknown?q?secret?=", False)
    assert subject(b"=?utf-8?b?abcde?=") == ("=?utf-8?b?abcde?=", False)
