"""Parsing and serialization for the IMAP4rev1 subset the proxy speaks.

Commands are parsed just deeply enough to route and rewrite them: LOGIN
credentials, mailbox names, and leading sequence-sets come out structured,
everything else stays raw bytes so owner passthrough is byte-exact.
Unknown verbs become OTHER and round-trip verbatim. FETCH response
attributes are opaque bytes except the leading sequence number; the proxy
never needs to understand ENVELOPE or BODY structure to renumber.

Client-side literals are buffered, capped at 1 MiB; the cap is enforced on
the size announcement, before any literal byte is read. Client command
lines are capped at 64 KiB, Dovecot's default line limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol

from .errors import ImapSyntaxError, LineTooLong, LiteralTooLarge

CRLF = b"\r\n"
LITERAL_CAP = 1024 * 1024
LINE_CAP = 64 * 1024  # bytes per command line, CRLF included
HANDSHAKE_TIMEOUT = 10.0  # seconds a client has to complete its TLS handshake

GREETING = b"* OK IMAP4rev1 service ready\r\n"

# Advertised on both listener and mock upstream; extensions the proxy
# cannot filter (IDLE, CONDSTORE, QRESYNC, ...) are never advertised.
CAPABILITY_TOKENS = ("IMAP4rev1", "AUTH=PLAIN")

BYE_LINE = b"* BYE IMAP4rev1 server logging out\r\n"
NOT_AUTHENTICATED_TEXT = "not authenticated"
NO_MAILBOX_TEXT = "no mailbox selected"

_TAG_RE = re.compile(rb"^[\x21-\x2a\x2c-\x7e]{1,32}$")  # visible ASCII, no '+'
_ATOM_RE = re.compile(rb'[^(){ %*"\\\x00-\x1f\x7f-\xff]+')
_VERB_RE = re.compile(rb"[A-Za-z0-9._-]+")
_LITERAL_TAIL_RE = re.compile(rb"\{(\d+)(\+?)\}\r\n$")


def completion_text(name: str) -> str:
    return f"{name} completed"


class Verb(Enum):
    CAPABILITY = "CAPABILITY"
    NOOP = "NOOP"
    LOGIN = "LOGIN"
    AUTHENTICATE = "AUTHENTICATE"
    LOGOUT = "LOGOUT"
    LIST = "LIST"
    LSUB = "LSUB"
    STATUS = "STATUS"
    SELECT = "SELECT"
    EXAMINE = "EXAMINE"
    CLOSE = "CLOSE"
    FETCH = "FETCH"
    UID_FETCH = "UID FETCH"
    SEARCH = "SEARCH"
    UID_SEARCH = "UID SEARCH"
    STORE = "STORE"
    UID_STORE = "UID STORE"
    EXPUNGE = "EXPUNGE"
    APPEND = "APPEND"
    OTHER = "OTHER"


_NO_ARG_VERBS = {Verb.CAPABILITY, Verb.NOOP, Verb.LOGOUT, Verb.CLOSE, Verb.EXPUNGE}

# Commands that mutate upstream state; sub-users are denied these outright.
WRITE_VERBS = {Verb.STORE, Verb.UID_STORE, Verb.EXPUNGE, Verb.APPEND}


class CommandIO(Protocol):
    """Byte source for literal continuations while parsing a command."""

    def send_continuation(self) -> None: ...

    def read_literal(self, size: int) -> bytes: ...

    def read_line(self) -> bytes: ...


class StreamCommandIO:
    """CommandIO over a buffered binary reader/writer pair."""

    def __init__(self, rfile, wfile):
        self._rfile = rfile
        self._wfile = wfile

    def send_continuation(self) -> None:
        self._wfile.write(b"+ \r\n")
        self._wfile.flush()

    def read_literal(self, size: int) -> bytes:
        return self._rfile.read(size)

    def read_line(self) -> bytes:
        """One command line, CRLF included; b"" at end of stream. Raises
        LineTooLong after reading LINE_CAP + 1 bytes without an end."""
        line = self._rfile.readline(LINE_CAP + 1)
        if len(line) > LINE_CAP:
            raise LineTooLong(f"command line longer than {LINE_CAP} bytes")
        return line


def reply_tag(line: bytes) -> str:
    """The tag to answer a rejected command *line* with: its own when it is
    a valid tag, else "*"."""
    tag = line.rstrip(CRLF).split(b" ", 1)[0]
    return tag.decode("ascii") if _TAG_RE.match(tag) else "*"


@dataclass
class Command:
    tag: str
    verb: Verb
    name: str  # verb text; for OTHER, verbatim as sent
    login: tuple[str, str] | None = None
    mailbox: str | None = None
    seq_set: "SequenceSet | None" = None
    rest: bytes = b""  # raw argument tail (literal markers inline)
    literals: tuple[bytes, ...] = ()  # resolved literal bodies, in order
    raw: bytes = field(default=b"", compare=False)  # as received, for replay


# -- low-level token scanning --------------------------------------------------


class _Scanner:
    """Cursor over a command's argument bytes, resolving literals via io.

    Keeps the command's bytes and every resolved literal so the command
    can be replayed upstream exactly as received.
    """

    def __init__(self, first_line: bytes, io: CommandIO | None):
        if not first_line.endswith(CRLF):
            raise ImapSyntaxError("command line must end with CRLF")
        self.io = io
        self.line = first_line[:-2]
        self.pos = 0
        self.raw = bytearray(first_line)
        self.literals: list[bytes] = []

    # how much of the current line remains
    def remaining(self) -> bytes:
        return self.line[self.pos :]

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def skip_sp(self) -> None:
        if self.at_end() or self.line[self.pos : self.pos + 1] != b" ":
            raise ImapSyntaxError("expected space between arguments")
        self.pos += 1

    def read_atom(self) -> bytes:
        m = _ATOM_RE.match(self.line, self.pos)
        if not m:
            raise ImapSyntaxError(f"expected atom at {self.remaining()[:20]!r}")
        self.pos = m.end()
        return m.group(0)

    def read_seq_set_token(self) -> bytes:
        m = re.compile(rb"[0-9:,*]+").match(self.line, self.pos)
        if not m:
            raise ImapSyntaxError(f"expected sequence set at {self.remaining()[:20]!r}")
        self.pos = m.end()
        return m.group(0)

    def read_quoted(self) -> bytes:
        assert self.line[self.pos : self.pos + 1] == b'"'
        out = bytearray()
        i = self.pos + 1
        while i < len(self.line):
            c = self.line[i : i + 1]
            if c == b"\\":
                if i + 1 >= len(self.line) or self.line[i + 1 : i + 2] not in (b'"', b"\\"):
                    raise ImapSyntaxError("bad escape in quoted string")
                out += self.line[i + 1 : i + 2]
                i += 2
            elif c == b'"':
                self.pos = i + 1
                return bytes(out)
            else:
                out += c
                i += 1
        raise ImapSyntaxError("unterminated quoted string")

    def _take_literal(self, size: int, nonsync: bool) -> bytes:
        """Read a literal of *size* bytes and the command line after it,
        which becomes the current line."""
        if size > LITERAL_CAP:
            # raised before a single literal byte is consumed
            raise LiteralTooLarge(f"literal of {size} bytes exceeds cap")
        if self.io is None:
            raise ImapSyntaxError("literal not allowed here")
        if not nonsync:
            self.io.send_continuation()
        data = self.io.read_literal(size)
        if len(data) != size:
            raise ImapSyntaxError("connection closed inside literal")
        next_line = self.io.read_line()
        if not next_line.endswith(CRLF):
            raise ImapSyntaxError("command line must end with CRLF")
        self.raw += data + next_line
        self.literals.append(data)
        self.line = next_line[:-2]
        self.pos = 0
        return data

    def read_astring(self) -> bytes:
        if self.at_end():
            raise ImapSyntaxError("expected argument")
        c = self.line[self.pos : self.pos + 1]
        if c == b'"':
            return self.read_quoted()
        if c == b"{":
            m = re.match(rb"\{(\d+)(\+?)\}$", self.remaining())
            if not m:
                raise ImapSyntaxError("malformed literal, or bytes after literal size")
            return self._take_literal(int(m.group(1)), m.group(2) == b"+")
        return self.read_atom()

    def read_tail(self) -> bytes:
        """Consume everything left as raw bytes, resolving any literals.

        The returned tail keeps literal markers and bodies inline, exactly
        as they appeared on the wire.
        """
        out = bytearray()
        while True:
            rest = self.remaining()
            out += rest
            self.pos = len(self.line)
            m = _LITERAL_TAIL_RE.search(rest + CRLF)
            if not m:
                return bytes(out)
            out += CRLF + self._take_literal(int(m.group(1)), m.group(2) == b"+")


def _decode_text(raw: bytes) -> str:
    return raw.decode("utf-8", "replace")


def parse_command(line: bytes, io: CommandIO | None = None) -> Command:
    """Parse one client command line (plus literal continuations via *io*)."""
    scanner = _Scanner(line, io)
    m = re.match(rb"[^ ]+", scanner.line)
    if not m:
        raise ImapSyntaxError("missing tag")
    tag_raw = m.group(0)
    if not _TAG_RE.match(tag_raw):
        raise ImapSyntaxError(f"bad tag {tag_raw[:32]!r}")
    tag = tag_raw.decode("ascii")
    scanner.pos = m.end()
    scanner.skip_sp()
    vm = _VERB_RE.match(scanner.line, scanner.pos)
    if not vm:
        raise ImapSyntaxError("missing command verb")
    scanner.pos = vm.end()
    verb_text = vm.group(0).decode("ascii")
    verb_upper = verb_text.upper()

    if verb_upper == "UID":
        scanner.skip_sp()
        vm2 = _VERB_RE.match(scanner.line, scanner.pos)
        if not vm2:
            raise ImapSyntaxError("UID requires a command")
        scanner.pos = vm2.end()
        sub = vm2.group(0).decode("ascii")
        verb_text = f"{verb_text} {sub}"
        verb_upper = f"UID {sub.upper()}"

    try:
        verb = Verb(verb_upper)
    except ValueError:
        verb = Verb.OTHER

    cmd = Command(tag=tag, verb=verb, name=verb_upper if verb is not Verb.OTHER else verb_text)

    if verb in _NO_ARG_VERBS:
        if not scanner.at_end():
            raise ImapSyntaxError(f"{verb_upper} takes no arguments")
    elif verb is Verb.LOGIN:
        scanner.skip_sp()
        user = scanner.read_astring()
        scanner.skip_sp()
        password = scanner.read_astring()
        if not scanner.at_end():
            raise ImapSyntaxError("LOGIN takes exactly two arguments")
        cmd.login = (_decode_text(user), _decode_text(password))
    elif verb in (Verb.SELECT, Verb.EXAMINE):
        scanner.skip_sp()
        mailbox = scanner.read_astring()
        if not scanner.at_end():
            raise ImapSyntaxError(f"{verb_upper} takes one argument")
        cmd.mailbox = _decode_text(mailbox)
    elif verb in (Verb.STATUS, Verb.APPEND):
        scanner.skip_sp()
        cmd.mailbox = _decode_text(scanner.read_astring())
        scanner.skip_sp()
        cmd.rest = scanner.read_tail()
        if not cmd.rest:
            raise ImapSyntaxError(f"{verb_upper} requires arguments")
    elif verb in (Verb.FETCH, Verb.UID_FETCH, Verb.STORE, Verb.UID_STORE):
        scanner.skip_sp()
        seq_text = scanner.read_seq_set_token()
        cmd.seq_set = parse_sequence_set(seq_text.decode("ascii"))
        scanner.skip_sp()
        cmd.rest = scanner.read_tail()
        if not cmd.rest:
            raise ImapSyntaxError(f"{verb_upper} requires attributes")
    elif verb in (Verb.SEARCH, Verb.UID_SEARCH, Verb.LIST, Verb.LSUB, Verb.AUTHENTICATE):
        scanner.skip_sp()
        cmd.rest = scanner.read_tail()
        if not cmd.rest:
            raise ImapSyntaxError(f"{verb_upper} requires arguments")
    else:  # OTHER: preserve the tail verbatim
        if not scanner.at_end():
            scanner.skip_sp()
            cmd.rest = scanner.read_tail()

    cmd.literals = tuple(scanner.literals)
    cmd.raw = bytes(scanner.raw)
    return cmd


# -- sequence sets --------------------------------------------------------------

_SEQ_ITEM_RE = re.compile(r"^(\*|[1-9][0-9]*)(?::(\*|[1-9][0-9]*))?$")


@dataclass(frozen=True)
class SequenceSet:
    """Normalized RFC 3501 sequence-set. None stands for '*'."""

    ranges: tuple[tuple[int | None, int | None], ...]

    def render(self) -> str:
        parts = []
        for lo, hi in self.ranges:
            if lo is None and hi is None:
                parts.append("*")
            elif hi is None:
                parts.append(f"{lo}:*")
            elif lo == hi:
                parts.append(str(lo))
            else:
                parts.append(f"{lo}:{hi}")
        return ",".join(parts)

    def expand(self, exists: int) -> list[int]:
        """Resolve '*' to *exists*, reorder endpoints, clip to 1..exists.

        Numbers beyond *exists* are dropped; result ascending, deduplicated.
        """
        chosen: set[int] = set()
        for lo, hi in self.ranges:
            a = exists if lo is None else lo
            b = exists if hi is None else hi
            start, stop = min(a, b), max(a, b)
            stop = min(stop, exists)
            if start > stop:
                continue
            chosen.update(range(start, stop + 1))
        chosen.discard(0)
        return sorted(chosen)

    @classmethod
    def from_numbers(cls, numbers: list[int]) -> "SequenceSet":
        """Build a compact set from explicit numbers (merged ascending runs)."""
        if not numbers:
            return cls(())
        ordered = sorted(set(numbers))
        ranges: list[tuple[int | None, int | None]] = []
        run_lo = run_hi = ordered[0]
        for n in ordered[1:]:
            if n == run_hi + 1:
                run_hi = n
            else:
                ranges.append((run_lo, run_hi))
                run_lo = run_hi = n
        ranges.append((run_lo, run_hi))
        return cls(tuple(ranges))


def parse_sequence_set(text: str) -> SequenceSet:
    """Parse and normalize: finite ranges sorted and merged, at most one
    star-open range, expansion-equivalent to the input."""
    if not text:
        raise ImapSyntaxError("empty sequence set")
    finite: list[tuple[int, int]] = []
    star_only = False
    star_from: int | None = None
    for item in text.split(","):
        m = _SEQ_ITEM_RE.match(item)
        if not m:
            raise ImapSyntaxError(f"bad sequence set item {item!r}")
        a_txt, b_txt = m.group(1), m.group(2)
        a = None if a_txt == "*" else int(a_txt)
        b = a if b_txt is None else (None if b_txt == "*" else int(b_txt))
        if a is None and b is None:
            star_only = True
        elif a is None or b is None:
            bound = a if a is not None else b
            star_from = bound if star_from is None else min(star_from, bound)
        else:
            finite.append((min(a, b), max(a, b)))

    merged: list[tuple[int | None, int | None]] = []
    for lo, hi in sorted(finite):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    if star_from is not None:
        # a:* absorbs any finite range at or above a, and '*' itself
        kept: list[tuple[int | None, int | None]] = []
        for lo, hi in merged:
            if lo >= star_from:
                continue
            kept.append((lo, min(hi, star_from - 1)))
        merged = kept + [(star_from, None)]
    elif star_only:
        merged.append((None, None))
    if not merged:
        raise ImapSyntaxError("empty sequence set")
    return SequenceSet(tuple(merged))


# -- SEARCH criteria -------------------------------------------------------------

# RFC 3501 §6.4.4 keys that take arguments, with how many. NOT and OR take
# search keys, which are scanned like any others; UID takes a sequence set.
_SEARCH_KEY_ARGS = dict.fromkeys(
    b"BCC BEFORE BODY CC CHARSET FROM KEYWORD LARGER ON SENTBEFORE SENTON SENTSINCE SINCE"
    b" SMALLER SUBJECT TEXT TO UNKEYWORD".split(),
    1,
) | {b"HEADER": 2}
# a literal (its body follows), a quoted string, an atom, or a delimiter
_SEARCH_TOKEN_RE = re.compile(rb'\{(\d+)\+?\}\r\n|"(?:[^"\\]|\\.)*"|[^ ()"{]+|[ ()]')
_SEQ_SET_TOKEN_RE = re.compile(rb"[0-9*][0-9:,*]*")


def map_search_sets(
    criteria: bytes,
    map_seqs: Callable[[SequenceSet], SequenceSet],
    map_uids: Callable[[SequenceSet], SequenceSet],
) -> bytes:
    """Rewrite the sequence sets in SEARCH *criteria*, keeping every other
    byte verbatim.

    A bare sequence set goes through *map_seqs* and the set after UID
    through *map_uids*. Quoted strings, literals and the arguments of the
    keys that take them are passed over. A set that maps to nothing, or
    criteria that cannot be scanned, raise ImapSyntaxError.
    """
    out = bytearray()
    pos = 0
    skip = 0  # key arguments still to pass over
    after_uid = False
    while pos < len(criteria):
        m = _SEARCH_TOKEN_RE.match(criteria, pos)
        if m is None:
            raise ImapSyntaxError(f"cannot scan SEARCH criteria at {criteria[pos : pos + 20]!r}")
        literal = m.group(1) is not None
        end = m.end() + int(m.group(1)) if literal else m.end()
        token, pos = criteria[pos:end], end
        if token in (b" ", b"(", b")"):
            pass
        elif skip:
            skip -= 1
        elif after_uid or _SEQ_SET_TOKEN_RE.fullmatch(token):
            mapper = map_uids if after_uid else map_seqs
            mapped = mapper(parse_sequence_set(token.decode("latin-1")))
            if not mapped.ranges:
                raise ImapSyntaxError("invalid sequence set")
            token = mapped.render().encode("ascii")
            after_uid = False
        elif not literal and token[:1] != b'"':
            skip = _SEARCH_KEY_ARGS.get(token.upper(), 0)
            after_uid = token.upper() == b"UID"
        out += token
    return bytes(out)


# -- responses -------------------------------------------------------------------


@dataclass
class Tagged:
    tag: str
    status: str  # OK | NO | BAD
    text: str
    raw: bytes = field(default=b"", compare=False)


@dataclass
class UntaggedStatus:
    status: str  # OK | NO | BAD | BYE | PREAUTH
    code: str | None = None
    code_args: str = ""
    text: str = ""
    raw: bytes = field(default=b"", compare=False)


@dataclass
class Exists:
    count: int
    raw: bytes = field(default=b"", compare=False)


@dataclass
class Recent:
    count: int
    raw: bytes = field(default=b"", compare=False)


@dataclass
class ExpungeEvent:
    seq: int
    raw: bytes = field(default=b"", compare=False)


@dataclass
class FetchData:
    seq: int
    attrs: bytes  # raw parenthesized attribute bytes, literals inline
    raw: bytes = field(default=b"", compare=False)


@dataclass
class SearchData:
    numbers: tuple[int, ...]
    raw: bytes = field(default=b"", compare=False)


@dataclass
class ListData:
    name: str  # LIST | LSUB
    payload: bytes
    raw: bytes = field(default=b"", compare=False)


@dataclass
class RawUntagged:
    payload: bytes
    raw: bytes = field(default=b"", compare=False)


@dataclass
class Continuation:
    text: str
    raw: bytes = field(default=b"", compare=False)


Response = (
    Tagged
    | UntaggedStatus
    | Exists
    | Recent
    | ExpungeEvent
    | FetchData
    | SearchData
    | ListData
    | RawUntagged
    | Continuation
)

_UNTAGGED_NUM_RE = re.compile(rb"^(\d+) ([A-Za-z0-9.-]+)(?: |$)")
_RESP_CODE_RE = re.compile(r"^\[([^\] ]+)(?: ([^\]]*))?\] ?")


def _parse_untagged(payload: bytes, raw: bytes) -> Response:
    m = _UNTAGGED_NUM_RE.match(payload)
    if m:
        number = int(m.group(1))
        keyword = m.group(2).upper()
        tail = payload[m.end() :]
        if keyword == b"EXISTS" and not tail:
            return Exists(number, raw=raw)
        if keyword == b"RECENT" and not tail:
            return Recent(number, raw=raw)
        if keyword == b"EXPUNGE" and not tail:
            return ExpungeEvent(number, raw=raw)
        if keyword == b"FETCH":
            return FetchData(number, attrs=tail, raw=raw)
        return RawUntagged(payload, raw=raw)

    head, _, tail_b = payload.partition(b" ")
    keyword = head.upper()
    if keyword in (b"OK", b"NO", b"BAD", b"BYE", b"PREAUTH"):
        text = _decode_text(tail_b)
        code = None
        code_args = ""
        cm = _RESP_CODE_RE.match(text)
        if cm:
            code = cm.group(1).upper()
            code_args = cm.group(2) or ""
            text = text[cm.end() :]
        return UntaggedStatus(keyword.decode(), code, code_args, text, raw=raw)
    if keyword == b"SEARCH":
        numbers = []
        for token in tail_b.split():
            if not token.isdigit():
                raise ImapSyntaxError(f"bad SEARCH number {token!r}")
            numbers.append(int(token))
        return SearchData(tuple(numbers), raw=raw)
    if keyword in (b"LIST", b"LSUB"):
        return ListData(keyword.decode(), tail_b, raw=raw)
    return RawUntagged(payload, raw=raw)


def parse_response(blob: bytes) -> Response:
    """Parse one complete response (all lines and literals of it)."""
    if not blob.endswith(CRLF):
        raise ImapSyntaxError("response must end with CRLF")
    body = blob[:-2]
    if body.startswith(b"* "):
        return _parse_untagged(body[2:], raw=blob)
    if body == b"*":
        raise ImapSyntaxError("empty untagged response")
    if body.startswith(b"+ ") or body == b"+":
        return Continuation(_decode_text(body[2:]), raw=blob)
    m = re.match(rb"([^ ]+) (OK|NO|BAD) ?", body)
    if not m or not _TAG_RE.match(m.group(1)):
        raise ImapSyntaxError(f"cannot parse response {body[:40]!r}")
    return Tagged(
        m.group(1).decode("ascii"),
        m.group(2).decode("ascii"),
        _decode_text(body[m.end() :]),
        raw=blob,
    )


# -- rendering -------------------------------------------------------------------


def quote_string(value: str) -> bytes:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return b'"' + escaped.encode("utf-8") + b'"'


def render_astring(value: str) -> bytes:
    raw = value.encode("utf-8")
    if raw and _ATOM_RE.fullmatch(raw):
        return raw
    if any(c in raw for c in (b"\r", b"\n")) or any(b >= 0x80 for b in raw):
        return b"{%d}\r\n%s" % (len(raw), raw)
    return quote_string(value)


def render_command(cmd: Command) -> bytes:
    """Canonical single-blob rendering. A mailbox or login that needs a
    literal is written as a synchronizing {n} one, whose continuation
    UpstreamConnection.send_blob waits for."""
    head = f"{cmd.tag} {cmd.name}".encode("ascii")
    if cmd.verb is Verb.LOGIN:
        assert cmd.login is not None
        return head + b" " + render_astring(cmd.login[0]) + b" " + render_astring(cmd.login[1]) + CRLF
    if cmd.verb in (Verb.SELECT, Verb.EXAMINE):
        assert cmd.mailbox is not None
        return head + b" " + render_astring(cmd.mailbox) + CRLF
    if cmd.verb in (Verb.STATUS, Verb.APPEND):
        assert cmd.mailbox is not None
        return head + b" " + render_astring(cmd.mailbox) + b" " + cmd.rest + CRLF
    if cmd.verb in (Verb.FETCH, Verb.UID_FETCH, Verb.STORE, Verb.UID_STORE):
        assert cmd.seq_set is not None
        return head + b" " + cmd.seq_set.render().encode("ascii") + b" " + cmd.rest + CRLF
    if cmd.rest:
        return head + b" " + cmd.rest + CRLF
    return head + CRLF


def render_response(resp: Response) -> bytes:
    """Original bytes when the value came off the wire, else canonical."""
    if resp.raw:
        return resp.raw
    if isinstance(resp, Tagged):
        text = f" {resp.text}" if resp.text else ""
        return f"{resp.tag} {resp.status}{text}".encode("utf-8") + CRLF
    if isinstance(resp, UntaggedStatus):
        parts = [f"* {resp.status}"]
        if resp.code is not None:
            inner = f"{resp.code} {resp.code_args}" if resp.code_args else resp.code
            parts.append(f"[{inner}]")
        if resp.text:
            parts.append(resp.text)
        return " ".join(parts).encode("utf-8") + CRLF
    if isinstance(resp, Exists):
        return b"* %d EXISTS\r\n" % resp.count
    if isinstance(resp, Recent):
        return b"* %d RECENT\r\n" % resp.count
    if isinstance(resp, ExpungeEvent):
        return b"* %d EXPUNGE\r\n" % resp.seq
    if isinstance(resp, FetchData):
        return b"* %d FETCH " % resp.seq + resp.attrs + CRLF
    if isinstance(resp, SearchData):
        tail = b"".join(b" %d" % n for n in resp.numbers)
        return b"* SEARCH" + tail + CRLF
    if isinstance(resp, ListData):
        return b"* " + resp.name.encode("ascii") + b" " + resp.payload + CRLF
    if isinstance(resp, RawUntagged):
        return b"* " + resp.payload + CRLF
    if isinstance(resp, Continuation):
        return (b"+ " + resp.text.encode("utf-8") if resp.text else b"+ ") + CRLF
    raise TypeError(f"cannot render {resp!r}")


# -- stream reading ----------------------------------------------------------------

_RESPONSE_LITERAL_RE = re.compile(rb"\{(\d+)\}\r\n$")


def read_response_blob(stream) -> bytes:
    """Read one complete server response from a binary stream.

    Follows `{n}` literal announcements across continuation lines so the
    returned blob is the whole response, byte-for-byte. Returns b"" on a
    clean EOF at a response boundary; raises mid-response.
    """
    out = bytearray()
    while True:
        line = stream.readline()
        if not line:
            if not out:
                return b""
            raise ImapSyntaxError("connection closed mid-response")
        if not line.endswith(CRLF):
            raise ImapSyntaxError("response line missing CRLF")
        out += line
        m = _RESPONSE_LITERAL_RE.search(line)
        if not m:
            return bytes(out)
        size = int(m.group(1))
        body = stream.read(size)
        if len(body) != size:
            raise ImapSyntaxError("connection closed inside response literal")
        out += body


# -- FETCH attribute scanning ------------------------------------------------------

# One attribute: its name, then an atom or a parenthesized group with
# nothing inside to skip, if its value is one; _fetch_value reads the rest.
_FETCH_ITEM_RE = re.compile(
    rb"([A-Za-z0-9.]+(?:\[[^\]]*\])?(?:<[0-9.]+>)?)[ \r\n]*"
    rb'(?:([^ ()"{][^ ()]*)|(\([^()"{]*\)))?'
)
_FETCH_SPACE_RE = re.compile(rb"[ \r\n]*")
_FETCH_ATOM_RE = re.compile(rb"[^ ()]+")
_FETCH_LITERAL_RE = re.compile(rb"\{(\d+)\}\r\n")
# A quoted string's body and closing quote; a backslash escapes any byte.
_FETCH_QUOTED_RE = re.compile(rb'((?:[^"\\]|\\.)*)"', re.S)
_FETCH_ESCAPE_RE = re.compile(rb"\\(.)", re.S)
# What a parenthesized group's scan stops at.
_FETCH_GROUP_MARK_RE = re.compile(rb'[()"{]')


def parse_fetch_attrs(attrs: bytes) -> list[tuple[str, bytes | int | None]]:
    """Tokenize a FETCH attribute list into (name, value) pairs.

    Values: int for numbers, None for NIL, raw bytes for quoted strings,
    literals, and parenthesized groups (parens included). Used by the
    proxy for its own metadata fetches; relayed client fetches stay raw.
    """
    if not attrs.startswith(b"(") or not attrs.endswith(b")"):
        raise ImapSyntaxError("FETCH attributes must be parenthesized")
    data = attrs[1:-1]
    out: list[tuple[str, bytes | int | None]] = []
    pos = 0
    while (pos := _FETCH_SPACE_RE.match(data, pos).end()) < len(data):
        item = _FETCH_ITEM_RE.match(data, pos)
        if not item:
            raise ImapSyntaxError(f"bad FETCH attribute name at {data[pos : pos + 20]!r}")
        key = item.group(1).decode("ascii").upper()
        atom, group = item.group(2, 3)
        if atom is not None:
            value = _atom_value(atom)
            pos = item.end()
        elif group is not None:
            value = group
            pos = item.end()
        else:
            value, pos = _fetch_value(data, item.end())
        out.append((key, value))
    return out


def _atom_value(token: bytes) -> bytes | int | None:
    if token == b"NIL":
        return None
    if token.isdigit():
        return int(token)
    return token


def _fetch_value(data: bytes, pos: int) -> tuple[bytes | int | None, int]:
    """The FETCH attribute value at *pos*, and the position after it."""
    c = data[pos : pos + 1]
    if c == b"(":
        depth = 0
        at = pos
        while (mark := _FETCH_GROUP_MARK_RE.search(data, at)) is not None:
            at = mark.start()
            ch = data[at : at + 1]
            if ch == b'"':
                quoted = _FETCH_QUOTED_RE.match(data, at + 1)
                if quoted is None:
                    break
                at = quoted.end()
            elif ch == b"{" and (lm := _FETCH_LITERAL_RE.match(data, at)):
                at = lm.end() + int(lm.group(1))
            else:
                at += 1
                depth += (ch == b"(") - (ch == b")")
                if depth == 0:
                    return data[pos:at], at
        raise ImapSyntaxError("unbalanced parens in FETCH attributes")
    if c == b'"':
        quoted = _FETCH_QUOTED_RE.match(data, pos + 1)
        if quoted is None:
            raise ImapSyntaxError("unterminated quoted string in FETCH attributes")
        return _FETCH_ESCAPE_RE.sub(rb"\1", quoted.group(1)), quoted.end()
    if c == b"{":
        lm = _FETCH_LITERAL_RE.match(data, pos)
        if not lm:
            raise ImapSyntaxError("malformed literal in FETCH attributes")
        size = int(lm.group(1))
        start = lm.end()
        if start + size > len(data):
            raise ImapSyntaxError("truncated literal in FETCH attributes")
        return data[start : start + size], start + size
    m = _FETCH_ATOM_RE.match(data, pos)
    if not m:
        raise ImapSyntaxError("expected FETCH attribute value")
    return _atom_value(m.group(0)), m.end()
