"""Visibility policy engine.

A sub-user's policy is a conjunction of constraints: every constraint must
pass for a message to be VISIBLE. Sender constraints test the message's
From addr-spec against a named address list (hide-if-listed blacklists,
hide-unless-listed whitelists); keyword constraints test for casefolded
substring occurrences in the subject or the body excerpt. The empty policy
is legal and makes everything visible. The owner bypasses evaluation
entirely.

A message that yields no parseable From address fails every sender
constraint: when in doubt, hide.
"""

from __future__ import annotations

import binascii
import re
from dataclasses import dataclass, field
from email import message_from_bytes
from email.utils import getaddresses
from enum import Enum
from itertools import groupby
from typing import Iterable, Mapping, AbstractSet

from . import addr
from .errors import InvalidPolicy
from .principal import Owner, Principal

# Decoded text/plain content is excerpted to this many bytes; bounds both
# proxy memory and upstream fetch cost.
BODY_EXCERPT_CAP = 64 * 1024

MAX_KEYWORD_LEN = 128


class Decision(Enum):
    VISIBLE = "visible"
    HIDDEN = "hidden"


class SenderMode(Enum):
    BLACKLIST = "blacklist"
    WHITELIST = "whitelist"


class KeywordMode(Enum):
    REQUIRE_ANY = "require_any"
    FORBID_ANY = "forbid_any"


class _Unparseable:
    """Marker for a missing or garbled From address."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNPARSEABLE"

    def __str__(self) -> str:
        return "<unparseable>"


UNPARSEABLE = _Unparseable()


@dataclass(frozen=True)
class SenderConstraint:
    mode: SenderMode
    list_ref: str


@dataclass(frozen=True)
class KeywordConstraint:
    mode: KeywordMode
    keywords: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        # Matching is case-insensitive; store keywords casefolded once.
        object.__setattr__(
            self, "keywords", frozenset(k.casefold() for k in self.keywords)
        )


@dataclass(frozen=True)
class PolicySet:
    sender_constraints: tuple[SenderConstraint, ...] = ()
    keyword_constraints: tuple[KeywordConstraint, ...] = ()

    @classmethod
    def empty(cls) -> "PolicySet":
        return cls()

    @property
    def has_keyword_constraints(self) -> bool:
        return bool(self.keyword_constraints)

    @property
    def has_forbid_constraints(self) -> bool:
        return any(c.mode is KeywordMode.FORBID_ANY for c in self.keyword_constraints)

    def referenced_lists(self) -> set[str]:
        return {c.list_ref for c in self.sender_constraints}

    def to_json(self) -> dict:
        return {
            "senders": [
                {"mode": c.mode.value, "list": c.list_ref}
                for c in self.sender_constraints
            ],
            "keywords": [
                {"mode": c.mode.value, "keywords": sorted(c.keywords)}
                for c in self.keyword_constraints
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolicySet":
        senders = tuple(
            SenderConstraint(SenderMode(c["mode"]), c["list"])
            for c in data.get("senders", ())
        )
        keywords = tuple(
            KeywordConstraint(KeywordMode(c["mode"]), frozenset(c["keywords"]))
            for c in data.get("keywords", ())
        )
        return cls(senders, keywords)


@dataclass(frozen=True)
class MessageMeta:
    """The policy engine's sole input: extracted sender, subject, body excerpt.

    *has_text_part* records whether the extracted bytes held a text/plain
    part at all, so a caller can tell an empty excerpt from a missing one.
    *subject_decoded* is False when an RFC 2047 encoded word in the subject
    names an unknown charset or holds bad base64; the subject is then kept
    as it came.
    """

    sender: str | _Unparseable
    subject: str = ""
    body_excerpt: str = ""
    has_text_part: bool = False
    subject_decoded: bool = True


Lists = Mapping[str, AbstractSet[str]]


# -- validation ---------------------------------------------------------------

def validate(policy: PolicySet, lists: Lists) -> None:
    """Check every list reference resolves and every keyword set is sane.

    Raises InvalidPolicy naming the first offending constraint.
    """
    for i, c in enumerate(policy.sender_constraints):
        if not c.list_ref:
            raise InvalidPolicy(f"sender constraint #{i + 1}: empty list name")
        if c.list_ref not in lists:
            raise InvalidPolicy(
                f"sender constraint #{i + 1}: references unknown list {c.list_ref!r}"
            )
    for i, c in enumerate(policy.keyword_constraints):
        if not c.keywords:
            raise InvalidPolicy(f"keyword constraint #{i + 1}: keyword set is empty")
        for kw in c.keywords:
            if not kw or len(kw) > MAX_KEYWORD_LEN:
                raise InvalidPolicy(
                    f"keyword constraint #{i + 1}: keyword length must be "
                    f"1-{MAX_KEYWORD_LEN}"
                )


# -- evaluation ---------------------------------------------------------------

def _sender_ok(c: SenderConstraint, sender: str | _Unparseable, lists: Lists) -> bool:
    if not isinstance(sender, str):
        return False  # unparseable sender fails every sender constraint
    listed = sender in lists.get(c.list_ref, frozenset())
    return listed if c.mode is SenderMode.WHITELIST else not listed


def _keyword_ok(c: KeywordConstraint, subject_cf: str, body_cf: str) -> bool:
    hit = any(kw in subject_cf or kw in body_cf for kw in c.keywords)
    return hit if c.mode is KeywordMode.REQUIRE_ANY else not hit


def sender_constraints_pass(
    policy: PolicySet, sender: str | _Unparseable, lists: Lists
) -> bool:
    """True iff every sender constraint passes for *sender*.

    Lets callers skip body fetches for messages already hidden by sender
    rules alone.
    """
    return all(_sender_ok(c, sender, lists) for c in policy.sender_constraints)


def evaluate(
    policy: PolicySet,
    meta: MessageMeta,
    lists: Lists,
    principal: Principal,
) -> Decision:
    """Decide VISIBLE or HIDDEN. Total for validated policies."""
    if isinstance(principal, Owner):
        return Decision.VISIBLE
    if not sender_constraints_pass(policy, meta.sender, lists):
        return Decision.HIDDEN
    subject_cf = meta.subject.casefold()
    body_cf = meta.body_excerpt.casefold()
    for c in policy.keyword_constraints:
        if not _keyword_ok(c, subject_cf, body_cf):
            return Decision.HIDDEN
    return Decision.VISIBLE


# -- metadata extraction --------------------------------------------------------

# The header block as the stdlib email parser reads it: the lines that start
# a field (a name of RFC 5322 ftext, so no space, then a colon), continue one
# (a space or tab) or are an mbox "From " line, then the blank line that ends
# the block, if there is one.
_HEADER_BLOCK_RE = re.compile(
    rb"((?:(?:[!-9;-~]*:|[ \t]|From )[^\r\n]*(?:\r\n|\r|\n|\Z))*)(?:\r\n|\r|\n)?"
)
_LINE_END_RE = re.compile(r"\r\n|\r|\n")
# What str.strip() removes from the email parser's ASCII view of a header,
# in which no 8-bit byte is a space.
_ASCII_SPACE = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "


def _scan_header(raw: bytes) -> tuple[list[str], str, str | None, bool]:
    """Read the header block of *raw* as the email parser does, but as
    UTF-8 with replacement (RFC 6532). Returns every From value and the
    first Subject and Content-Type, each unfolded, and whether any bytes
    follow the block."""
    match = _HEADER_BLOCK_RE.match(raw)
    lines = _LINE_END_RE.split(match[1].decode("utf-8", "replace"))
    if not lines[-1]:
        lines.pop()  # the block ended with a line end
    # The parser takes a "From " line after the first as the first body
    # line when nothing follows it.
    body_follows = match.end() < len(raw) or (
        len(lines) > 1 and lines[-1].startswith("From ")
    )
    froms: list[list[str]] = []
    subject: list[str] | None = None
    content_type: list[str] | None = None
    value: list[str] | None = None  # the pieces of the field being read
    for line in lines:
        if line[0] in " \t":
            if value is not None:
                value.append(line)
            continue
        name, _, first = line.partition(":")
        if line.startswith("From ") or not name:
            value = None  # an mbox line or a nameless field: skipped, with its continuations
            continue
        value = [first.lstrip(" \t")]
        name = name.lower()
        if name == "from":
            froms.append(value)
        elif name == "subject" and subject is None:
            subject = value
        elif name == "content-type" and content_type is None:
            content_type = value
    return (
        ["".join(v) for v in froms],
        "".join(subject) if subject is not None else "",
        "".join(content_type) if content_type is not None else None,
        body_follows,
    )


# An RFC 2047 encoded word. Its encoded text holds no "?" (§2), which also
# keeps the search linear in the subject's length.
_ENCODED_WORD_RE = re.compile(r"=\?([^?]*?)\?([qQbB])\?([^?]*)\?=")
_Q_ESCAPE_RE = re.compile(rb"=([0-9A-Fa-f]{2})")


def _decode_word(encoding: str, text: str) -> bytes:
    """The bytes of one encoded word's text (RFC 2047 §4); raises
    binascii.Error on bad base64."""
    raw = text.encode("utf-8")
    if encoding in "qQ":
        return _Q_ESCAPE_RE.sub(lambda m: bytes.fromhex(m[1].decode()), raw.replace(b"_", b" "))
    return binascii.a2b_base64(raw + b"=" * (-len(raw) % 4))  # padding may be left out


def _decode_subject(subject: str) -> tuple[str, bool]:
    """*subject* with its encoded words decoded, split and joined as
    email.header.decode_header does: per line, the first piece of text
    left-stripped; white space between two encoded words dropped (§6.2);
    adjacent words in one charset decoded as one run, with replacement.
    Returns the subject unchanged and False when a word names an unknown
    charset or holds bad base64."""
    if not _ENCODED_WORD_RE.search(subject):
        return subject, True
    words: list[tuple[str | bytes, str | None]] = []  # (text, None) or (bytes, charset)
    try:
        for line in subject.splitlines():
            parts = _ENCODED_WORD_RE.split(line)
            parts[0] = parts[0].lstrip()
            for i in range(0, len(parts), 4):
                if parts[i]:
                    words.append((parts[i], None))
                if i + 1 < len(parts):
                    charset, encoding, text = parts[i + 1 : i + 4]
                    words.append((_decode_word(encoding, text), charset.lower()))
        kept = [
            word
            for n, word in enumerate(words)
            if not (
                word[1] is None
                and word[0].isspace()
                and 0 < n < len(words) - 1
                and words[n - 1][1] is not None
                and words[n + 1][1] is not None
            )
        ]
        decoded = [
            " ".join(w for w, _ in run) if charset is None
            else b"".join(w for w, _ in run).decode(charset, "replace")
            for charset, run in groupby(kept, key=lambda word: word[1])
        ]
    except (LookupError, ValueError):  # bad base64 (binascii.Error), a bad charset name
        return subject, False
    return "".join(decoded), True


def _first_from_addr(values: list[str]) -> str | _Unparseable:
    for _display, address in getaddresses(values):
        if addr.is_addr_spec(address):
            return address.lower()
        if address:
            break  # first address present but garbled: unparseable, not "skip"
    return UNPARSEABLE


def _names_text_part(content_type: str | None) -> bool:
    """Whether the email parser finds a text/plain part in a message with
    this Content-Type and no body: its own (the default, also for an
    invalid type, RFC 2045 §5.2) or the empty message inside a message/*."""
    if content_type is None:
        return True
    ctype = content_type.partition(";")[0].strip(_ASCII_SPACE).lower()
    return ctype.count("/") != 1 or ctype == "text/plain" or ctype.startswith("message/")


def _body_excerpt(msg) -> str | None:
    """The decoded start of the first text/plain part; None if there is none."""
    for part in msg.walk():
        if part.get_content_type() != "text/plain":
            continue
        try:
            payload = part.get_payload(decode=True)
        except Exception:
            payload = None
        if payload is None:
            text = part.get_payload()
            payload = text.encode("utf-8", "replace") if isinstance(text, str) else b""
        payload = payload[:BODY_EXCERPT_CAP]
        charset = part.get_content_charset() or "utf-8"
        try:
            return payload.decode(charset, "replace")
        except (LookupError, ValueError):  # unknown, refuses "replace" (idna), or holds a NUL
            return payload.decode("utf-8", "replace")
    return None


def extract_meta(raw_message: bytes) -> MessageMeta:
    """Extract (sender, subject, body excerpt) from an RFC 5322-shaped blob.

    Total: header violations degrade to empty fields or an UNPARSEABLE
    sender rather than raising. Header bytes are read as UTF-8 with
    replacement (RFC 6532), so a UTF-8 subject is matched as text and an
    8-bit addr-spec is UNPARSEABLE. The subject's RFC 2047 encoded words
    (B and Q) are decoded with replacement, as a mail client shows them;
    one that cannot be decoded leaves the subject as it came and clears
    *subject_decoded*. The header block is read by a scanner; the email
    parser runs only when a body follows it, for the excerpt, whose
    transfer decoding covers base64 and quoted-printable.
    """
    froms, subject, content_type, body_follows = _scan_header(raw_message)
    subject, subject_decoded = _decode_subject(subject)
    if body_follows:
        excerpt = _body_excerpt(message_from_bytes(raw_message))
    else:
        excerpt = "" if _names_text_part(content_type) else None
    return MessageMeta(
        sender=_first_from_addr(froms),
        subject=subject,
        body_excerpt=excerpt or "",
        has_text_part=excerpt is not None,
        subject_decoded=subject_decoded,
    )
