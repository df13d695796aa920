"""Policy engine: evaluation semantics, metadata extraction, validation."""

import pytest
from hypothesis import given, strategies as st
from reference_policy import reference_evaluate

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
    for raw in (b"", b"\x00\xff\xfe", b"no headers at all", b"From: \r\n\r\n"):
        m = extract_meta(raw)
        assert m.sender is UNPARSEABLE or isinstance(m.sender, str)
