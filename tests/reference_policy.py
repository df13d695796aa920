"""Test oracles for the policy engine: evaluation (acceptance criterion 3)
and metadata extraction through the stdlib email parser."""

import re
from email import message_from_bytes
from email.errors import HeaderParseError
from email.header import decode_header
from email.utils import getaddresses

from chamail import addr
from chamail.policy import (
    BODY_EXCERPT_CAP,
    UNPARSEABLE,
    Decision,
    KeywordMode,
    Lists,
    MessageMeta,
    PolicySet,
    SenderMode,
)
from chamail.principal import Owner, Principal


def reference_evaluate(
    policy: PolicySet,
    meta: MessageMeta,
    lists: Lists,
    principal: Principal,
) -> Decision:
    """Deliberately naive re-implementation of evaluate(), kept as an
    independent correctness oracle. No shared helpers, no short-circuits."""
    if isinstance(principal, Owner):
        return Decision.VISIBLE
    verdicts = []
    for c in policy.sender_constraints:
        if not isinstance(meta.sender, str):
            verdicts.append(False)
            continue
        member = False
        for entry in lists.get(c.list_ref, ()):
            if entry == meta.sender:
                member = True
        if c.mode is SenderMode.WHITELIST:
            verdicts.append(member)
        else:
            verdicts.append(not member)
    for c in policy.keyword_constraints:
        found = False
        for kw in c.keywords:
            if kw.casefold() in meta.subject.casefold():
                found = True
            if kw.casefold() in meta.body_excerpt.casefold():
                found = True
        if c.mode is KeywordMode.REQUIRE_ANY:
            verdicts.append(found)
        else:
            verdicts.append(not found)
    if all(verdicts):
        return Decision.VISIBLE
    return Decision.HIDDEN


_CRLF_RE = re.compile(r"[\r\n]+")


def _unfold(value: str) -> str:
    return _CRLF_RE.sub("", value)


def _first_from_addr(msg):
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


def reference_decode_subject(subject: str) -> tuple[str, bool]:
    """The subject's RFC 2047 encoded words decoded by the stdlib; the
    subject unchanged and False when one cannot be decoded."""
    try:
        text = "".join(
            chunk if isinstance(chunk, str)  # no encoded word at all
            else chunk.decode("raw-unicode-escape" if charset is None else charset, "replace")
            for chunk, charset in decode_header(subject)
        )
    except (HeaderParseError, LookupError, ValueError):
        return subject, False
    return text, True


def reference_extract_meta(raw_message: bytes) -> MessageMeta:
    """extract_meta as it was before the header scanner: the whole blob
    through the stdlib email parser, and the subject through its RFC 2047
    decoder. It raises TypeError on a raw 8-bit From or Subject, so compare
    only where it returns."""
    msg = message_from_bytes(raw_message)
    subject = msg.get("Subject")
    subject, decoded = reference_decode_subject(_unfold(subject) if subject is not None else "")
    excerpt = _body_excerpt(msg)
    return MessageMeta(
        sender=_first_from_addr(msg),
        subject=subject,
        body_excerpt=excerpt or "",
        has_text_part=excerpt is not None,
        subject_decoded=decoded,
    )
