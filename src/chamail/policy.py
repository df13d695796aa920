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

import re
from dataclasses import dataclass, field
from email import message_from_bytes
from email.utils import getaddresses
from enum import Enum
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
    """

    sender: str | _Unparseable
    subject: str = ""
    body_excerpt: str = ""
    has_text_part: bool = False


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

_CRLF_RE = re.compile(r"[\r\n]+")


def _unfold(value: str) -> str:
    return _CRLF_RE.sub("", value)


def _first_from_addr(msg) -> str | _Unparseable:
    raw = msg.get_all("From")
    if not raw:
        return UNPARSEABLE
    pairs = getaddresses([_unfold(v) for v in raw])
    for _display, address in pairs:
        if addr.is_addr_spec(address):
            return address.lower()
        if address:
            break  # first address present but garbled: unparseable, not "skip"
    return UNPARSEABLE


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
        except LookupError:
            return payload.decode("utf-8", "replace")
    return None


def extract_meta(raw_message: bytes) -> MessageMeta:
    """Extract (sender, subject, body excerpt) from an RFC 5322-shaped blob.

    Total: header violations degrade to empty fields or an UNPARSEABLE
    sender rather than raising. Transfer decoding covers base64 and
    quoted-printable; RFC 2047 encoded words in headers are left as-is.
    """
    msg = message_from_bytes(raw_message)
    subject = msg.get("Subject")
    excerpt = _body_excerpt(msg)
    return MessageMeta(
        sender=_first_from_addr(msg),
        subject=_unfold(subject) if subject is not None else "",
        body_excerpt=excerpt or "",
        has_text_part=excerpt is not None,
    )
