"""In-memory IMAP server for integration tests.

Serves fixture mailboxes loaded from .eml files plus a manifest, records
every command it receives (write-isolation assertions read that log), and
lets tests inject mailbox events — new message, expunge, dropped
connection — that surface between client commands.

Responses are deterministic for a given fixture and command sequence:
INTERNALDATE derives from the UID, RECENT is always 0, and flag order is
canonicalized. The grammar comes from imapcodec, the same module the
proxy uses, so the two cannot drift apart: commands and reply tags, SEARCH
and LIST arguments, AUTHENTICATE PLAIN, STATUS items, sequence sets and
the CAPABILITY and SELECT lines.
"""

from __future__ import annotations

import email
import email.header
import email.utils
import re
import socket
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from . import imapcodec
from .errors import ClientGone, ImapSyntaxError, LineTooLong, LiteralTooLarge, ManifestError
from .imapcodec import CRLF, Verb, completion_text

_FLAG_ORDER = ("\\Answered", "\\Flagged", "\\Deleted", "\\Seen", "\\Draft")


def _order_flags(flags) -> tuple[str, ...]:
    rest = sorted(set(flags) - set(_FLAG_ORDER))
    return tuple(f for f in _FLAG_ORDER if f in flags) + tuple(rest)


@dataclass
class StoredMessage:
    uid: int
    flags: tuple[str, ...]
    raw: bytes

    def has_flag(self, flag: str) -> bool:
        return flag in self.flags


@dataclass
class FixtureMailbox:
    name: str
    messages: list[StoredMessage]
    uidvalidity: int
    uidnext: int

    def __post_init__(self):
        uids = [m.uid for m in self.messages]
        if any(b <= a for a, b in zip(uids, uids[1:])):
            raise ManifestError("uids must strictly increase")
        if uids and self.uidnext <= max(uids):
            raise ManifestError("uidnext must exceed the largest uid")

    def exists(self) -> int:
        return len(self.messages)


def _normalize_crlf(raw: bytes) -> bytes:
    return raw.replace(b"\r\n", b"\n").replace(b"\n", b"\r\n")


def load_fixture(directory: str | Path) -> FixtureMailbox:
    """Build a mailbox from `<directory>/manifest`.

    Manifest lines: `uid flags filename` where flags is `-` or a
    comma-joined list like `\\Seen,\\Answered`. Directive lines
    `mailbox NAME`, `uidvalidity N`, and `uidnext N` may appear anywhere;
    `#` starts a comment.
    """
    directory = Path(directory)
    manifest = directory / "manifest"
    if not manifest.is_file():
        raise ManifestError(f"no manifest in {directory}")
    name = "INBOX"
    uidvalidity = 1
    uidnext: int | None = None
    messages: list[StoredMessage] = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "mailbox" and len(fields) == 2:
            name = fields[1]
            continue
        if fields[0] in ("uidvalidity", "uidnext") and len(fields) == 2:
            if not fields[1].isdigit() or int(fields[1]) < 1:
                raise ManifestError(f"line {lineno}: bad {fields[0]}")
            if fields[0] == "uidvalidity":
                uidvalidity = int(fields[1])
            else:
                uidnext = int(fields[1])
            continue
        if len(fields) != 3:
            raise ManifestError(f"line {lineno}: expected `uid flags filename`")
        uid_text, flags_text, filename = fields
        if not uid_text.isdigit() or int(uid_text) < 1:
            raise ManifestError(f"line {lineno}: bad uid {uid_text!r}")
        uid = int(uid_text)
        if messages and uid <= messages[-1].uid:
            raise ManifestError(f"line {lineno}: uid {uid} not increasing")
        flags = () if flags_text == "-" else tuple(flags_text.split(","))
        path = directory / filename
        if not path.is_file():
            raise ManifestError(f"line {lineno}: missing file {filename}")
        messages.append(
            StoredMessage(uid, _order_flags(flags), _normalize_crlf(path.read_bytes()))
        )
    if uidnext is None:
        uidnext = (messages[-1].uid + 1) if messages else 1
    return FixtureMailbox(name, messages, uidvalidity, uidnext)


# -- message part extraction -----------------------------------------------------


def _split_message(raw: bytes) -> tuple[bytes, bytes]:
    """(header bytes incl. blank line, body bytes)."""
    idx = raw.find(b"\r\n\r\n")
    if idx < 0:
        return raw + CRLF + CRLF if not raw.endswith(CRLF) else raw + CRLF, b""
    return raw[: idx + 4], raw[idx + 4 :]


def _header_fields(raw: bytes, wanted: list[str]) -> bytes:
    header, _ = _split_message(raw)
    wanted_lower = {w.lower() for w in wanted}
    out = bytearray()
    keep = False
    for line in header.split(CRLF):
        if not line:
            break
        if line[:1] in (b" ", b"\t"):
            if keep:
                out += line + CRLF
            continue
        field_name = line.split(b":", 1)[0].decode("latin-1").strip().lower()
        keep = field_name in wanted_lower
        if keep:
            out += line + CRLF
    out += CRLF
    return bytes(out)


def _get_header(raw: bytes, name: str) -> str | None:
    msg = email.message_from_bytes(raw)
    value = msg.get(name)
    if isinstance(value, email.header.Header):  # raw 8-bit bytes: read as UTF-8 (RFC 6532)
        octets = b"".join(chunk for chunk, _charset in email.header.decode_header(value))
        value = octets.decode("utf-8", "replace")
    return None if value is None else re.sub(r"[\r\n]+", "", value)


def _nstring(value: str | None) -> bytes:
    if value is None:
        return b"NIL"
    return imapcodec.quote_string(value)


def _env_addresses(raw: bytes, header: str) -> bytes:
    value = _get_header(raw, header)
    if not value:
        return b"NIL"
    pairs = email.utils.getaddresses([value])
    parts = []
    for display, addr in pairs:
        local, _, domain = addr.rpartition("@")
        parts.append(
            b"("
            + _nstring(display or None)
            + b" NIL "
            + _nstring(local or addr)
            + b" "
            + _nstring(domain or None)
            + b")"
        )
    return b"(" + b"".join(parts) + b")" if parts else b"NIL"


def _envelope(raw: bytes) -> bytes:
    from_addrs = _env_addresses(raw, "From")
    sender = _env_addresses(raw, "Sender")
    reply_to = _env_addresses(raw, "Reply-To")
    if sender == b"NIL":
        sender = from_addrs
    if reply_to == b"NIL":
        reply_to = from_addrs
    fields = [
        _nstring(_get_header(raw, "Date")),
        _nstring(_get_header(raw, "Subject")),
        from_addrs,
        sender,
        reply_to,
        _env_addresses(raw, "To"),
        _env_addresses(raw, "Cc"),
        _env_addresses(raw, "Bcc"),
        _nstring(_get_header(raw, "In-Reply-To")),
        _nstring(_get_header(raw, "Message-ID")),
    ]
    return b"(" + b" ".join(fields) + b")"


def _internaldate(uid: int) -> str:
    day = 1 + uid % 28
    return f'"{day:02d}-Jan-2024 {uid % 24:02d}:{uid % 60:02d}:00 +0000"'


_SECTION_RE = re.compile(r"^(?:BODY|RFC822)(\.PEEK)?(?:\[([^\]]*)\])?(?:<(\d+)\.(\d+)>)?$", re.I)


# -- search criteria ---------------------------------------------------------------


_FLAG_CRITERIA = {
    "SEEN": ("\\Seen", True),
    "UNSEEN": ("\\Seen", False),
    "ANSWERED": ("\\Answered", True),
    "UNANSWERED": ("\\Answered", False),
    "DELETED": ("\\Deleted", True),
    "UNDELETED": ("\\Deleted", False),
    "FLAGGED": ("\\Flagged", True),
    "UNFLAGGED": ("\\Flagged", False),
    "DRAFT": ("\\Draft", True),
    "UNDRAFT": ("\\Draft", False),
}

def _header_contains(raw: bytes, header: str, needle: bytes) -> bool:
    value = _get_header(raw, header)
    return value is not None and needle.lower() in value.encode("utf-8", "replace").lower()


def _search_matches(msg: StoredMessage, seq: int, criteria: list) -> bool:
    for item in criteria:
        kind = item[0]
        if kind == "all":
            continue
        if kind == "flag":
            _, flag, want = item
            if msg.has_flag(flag) is not want:
                return False
        elif kind == "header":
            _, header, needle = item
            if not _header_contains(msg.raw, header, needle):
                return False
        elif kind == "text":
            if item[1].lower() not in msg.raw.lower():
                return False
        elif kind == "body":
            _, needle = item
            if needle.lower() not in _split_message(msg.raw)[1].lower():
                return False
        elif kind == "seqs":
            if seq not in item[1]:
                return False
        elif kind == "not":
            if _search_matches(msg, seq, item[1]):
                return False
        elif kind == "or":
            if not (_search_matches(msg, seq, item[1]) or _search_matches(msg, seq, item[2])):
                return False
        else:  # pragma: no cover - parse stage rejects unknowns
            raise ImapSyntaxError(f"unhandled criterion {kind}")
    return True


def _arguments(rest: bytes) -> list[bytes]:
    """The strings the tokens of *rest* stand for, spaces dropped."""
    return [imapcodec.token_value(t) for t in imapcodec.search_tokens(rest) if t != b" "]


def _parse_search_criteria(rest: bytes, seqs_of) -> list:
    """The criteria in *rest*, all of which must match. A sequence set
    becomes ("seqs", *seqs_of*(set, by UID)); NOT and OR hold the
    criteria of their one or two keys, and a parenthesised list joins the
    list around it."""
    tokens = (t for t in imapcodec.search_tokens(rest) if t != b" ")

    def arg() -> bytes:
        token = next(tokens, None)
        if token is None or token in (b"(", b")"):
            raise ImapSyntaxError("unexpected end of arguments")
        return imapcodec.token_value(token)

    def keys(nested: bool) -> list:
        criteria: list = []
        for token in tokens:
            if token == b")" and nested and criteria:
                return criteria
            key(token, criteria)
        if nested:
            raise ImapSyntaxError("unbalanced parenthesis in search criteria")
        return criteria

    def one_key() -> list:
        token = next(tokens, None)
        if token is None:
            raise ImapSyntaxError("unexpected end of arguments")
        criteria: list = []
        key(token, criteria)
        return criteria

    def key(token: bytes, criteria: list) -> None:
        word = token.decode("latin-1").upper()
        if word == "CHARSET":
            charset = arg().decode("latin-1").upper()
            if charset not in ("US-ASCII", "UTF-8"):
                raise ImapSyntaxError(f"unsupported charset {charset}")
        elif word == "ALL":
            criteria.append(("all",))
        elif word in _FLAG_CRITERIA:
            flag, want = _FLAG_CRITERIA[word]
            criteria.append(("flag", flag, want))
        elif word in ("FROM", "TO", "CC", "BCC", "SUBJECT"):
            criteria.append(("header", word.capitalize(), arg()))
        elif word == "HEADER":
            header = arg().decode("latin-1")
            criteria.append(("header", header, arg()))
        elif word == "TEXT":
            criteria.append(("text", arg()))
        elif word == "BODY":
            criteria.append(("body", arg()))
        elif word == "UID":
            seq_set = imapcodec.parse_sequence_set(arg().decode("latin-1"))
            criteria.append(("seqs", seqs_of(seq_set, True)))
        elif imapcodec.SEQ_SET_TOKEN_RE.fullmatch(token):
            criteria.append(("seqs", seqs_of(imapcodec.parse_sequence_set(word), False)))
        elif word == "NOT":
            criteria.append(("not", one_key()))
        elif word == "OR":
            criteria.append(("or", one_key(), one_key()))
        elif word == "(":
            criteria.extend(keys(nested=True))
        else:
            raise ImapSyntaxError(f"unsupported search criterion {word}")

    return keys(nested=False)


def _match_mailbox_pattern(name: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace(r"\*", ".*").replace("%", "[^/]*")
    return re.fullmatch(regex, name, re.I if name.upper() == "INBOX" else 0) is not None


def _targets(mb: FixtureMailbox, seq_set, by_uid: bool) -> list[tuple[int, StoredMessage]]:
    """The (seq, message) pairs *seq_set* names in *mb*, in mailbox order;
    by UID when *by_uid*, '*' then being the largest UID."""
    if not by_uid:
        return [(seq, mb.messages[seq - 1]) for seq in seq_set.expand(mb.exists())]
    uids = [msg.uid for msg in mb.messages]
    seqs: set[int] = set()
    for a, b in seq_set.with_star(uids[-1] if uids else 0).ranges:
        seqs.update(range(bisect_left(uids, min(a, b)) + 1, bisect_right(uids, max(a, b)) + 1))
    return [(seq, mb.messages[seq - 1]) for seq in sorted(seqs)]


# -- the server --------------------------------------------------------------------


class _Drop(Exception):
    """Raised internally to sever the current connection."""


class MockIMAPServer:
    """One-connection-at-a-time IMAP server over fixture mailboxes.

    `credentials` maps login name to password. Every parsed command is
    appended to `received`; everything written to the client is appended
    to `transcript`.
    """

    def __init__(
        self,
        mailboxes: FixtureMailbox | list[FixtureMailbox],
        credentials: dict[str, str],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        if isinstance(mailboxes, FixtureMailbox):
            mailboxes = [mailboxes]
        self.mailboxes: dict[str, FixtureMailbox] = {mb.name: mb for mb in mailboxes}
        self.credentials = dict(credentials)
        self.received: list[imapcodec.Command] = []
        self.transcript: list[bytes] = []
        self._lock = threading.Lock()
        self._pending: list[tuple] = []  # events for the next command, in order
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread: threading.Thread | None = None
        self._conn: socket.socket | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MockIMAPServer":
        self._thread = threading.Thread(target=self._serve_loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        # Shutting the listening socket down wakes a blocked accept();
        # shutting the connection down ends its handler.
        for sock in (self._sock, self._conn):
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._sock.close()

    def __enter__(self) -> "MockIMAPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- test hooks ------------------------------------------------------

    def received_verbs(self) -> list[str]:
        return [cmd.name for cmd in self.received]

    def clear_log(self) -> None:
        self.received.clear()
        self.transcript.clear()

    def inject_new_message(self, mailbox: str, raw: bytes, flags: tuple[str, ...] = ()) -> int:
        """Add a message; an EXISTS with the count it made surfaces before
        the next command."""
        with self._lock:
            mb = self.mailboxes[mailbox]
            uid = mb.uidnext
            mb.uidnext += 1
            mb.messages.append(StoredMessage(uid, _order_flags(flags), _normalize_crlf(raw)))
            self._pending.append(("exists", mailbox, mb.exists()))
            return uid

    def inject_expunge(self, mailbox: str, uid: int) -> None:
        """Remove a message; the EXPUNGE surfaces before the next command."""
        with self._lock:
            mb = self.mailboxes[mailbox]
            for idx, msg in enumerate(mb.messages):
                if msg.uid == uid:
                    del mb.messages[idx]
                    self._pending.append(("expunge", mailbox, idx + 1))
                    return
            raise KeyError(f"no message with uid {uid}")

    def drop_connection(self) -> None:
        """Sever the client connection when the next command arrives."""
        with self._lock:
            self._pending.append(("drop",))

    # -- serving -----------------------------------------------------------

    def _serve_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:  # stop() shut the listening socket down
                return
            self._conn = conn
            try:
                self._handle_connection(conn)
            except (_Drop, OSError, ClientGone, ImapSyntaxError, LineTooLong):
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
                self._conn = None

    def _handle_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        io = imapcodec.StreamCommandIO(rfile, wfile)

        def send(data: bytes) -> None:
            self.transcript.append(data)
            wfile.write(data)
            wfile.flush()

        send(imapcodec.GREETING)
        state = {"auth": False, "selected": None, "readonly": False, "io": io}
        while line := rfile.readline():
            try:
                cmd = imapcodec.parse_command(line, io)
            except LiteralTooLarge:
                send(f"{imapcodec.reply_tag(line)} BAD literal too large\r\n".encode())
                return
            except ImapSyntaxError as exc:
                send(f"{imapcodec.reply_tag(line)} BAD {exc}\r\n".encode())
                continue
            self.received.append(cmd)
            with self._lock:
                pending, self._pending = self._pending, []
            for event in pending:
                if event[0] == "drop":
                    raise _Drop
                if state["selected"] is None or event[1] != state["selected"]:
                    continue
                if event[0] == "exists":
                    send(b"* %d EXISTS\r\n" % event[2])
                elif event[0] == "expunge":
                    send(b"* %d EXPUNGE\r\n" % event[2])
            try:
                if not self._dispatch(cmd, send, state):
                    return
            except ImapSyntaxError as exc:
                send(f"{cmd.tag} BAD {exc}\r\n".encode())

    # -- command dispatch ---------------------------------------------------

    def _dispatch(self, cmd: imapcodec.Command, send, state) -> bool:
        verb = cmd.verb
        if verb is Verb.CAPABILITY:
            send(imapcodec.CAPABILITY_LINE)
            send(self._ok(cmd))
        elif verb is Verb.NOOP:
            send(self._ok(cmd))
        elif verb is Verb.LOGOUT:
            send(imapcodec.BYE_LINE)
            send(self._ok(cmd))
            return False
        elif verb in (Verb.LOGIN, Verb.AUTHENTICATE):
            io = state["io"]
            creds = cmd.login if verb is Verb.LOGIN else imapcodec.plain_credentials(cmd, io)
            if creds is None:
                send(f"{cmd.tag} NO {imapcodec.UNSUPPORTED_MECHANISM_TEXT}\r\n".encode())
            elif self.credentials.get(creds[0]) == creds[1]:
                state["auth"] = True
                send(self._ok(cmd))
            else:
                send(f"{cmd.tag} NO LOGIN failed\r\n".encode())
        elif not state["auth"]:
            send(f"{cmd.tag} NO {imapcodec.NOT_AUTHENTICATED_TEXT}\r\n".encode())
        elif verb in (Verb.SELECT, Verb.EXAMINE):
            self._select(cmd, send, state)
        elif verb in (Verb.LIST, Verb.LSUB):
            self._list(cmd, send)
        elif verb is Verb.STATUS:
            self._status(cmd, send)
        elif verb is Verb.APPEND:
            self._append(cmd, send, state)
        elif state["selected"] is None:
            send(f"{cmd.tag} NO {imapcodec.NO_MAILBOX_TEXT}\r\n".encode())
        elif verb is Verb.CLOSE:
            mb = self.mailboxes[state["selected"]]
            if not state["readonly"]:
                mb.messages[:] = [m for m in mb.messages if not m.has_flag("\\Deleted")]
            state["selected"] = None
            send(self._ok(cmd))
        elif verb in (Verb.FETCH, Verb.UID_FETCH):
            self._fetch(cmd, send, state, by_uid=verb is Verb.UID_FETCH)
        elif verb in (Verb.SEARCH, Verb.UID_SEARCH):
            self._search(cmd, send, state, by_uid=verb is Verb.UID_SEARCH)
        elif verb in (Verb.STORE, Verb.UID_STORE):
            self._store(cmd, send, state, by_uid=verb is Verb.UID_STORE)
        elif verb is Verb.EXPUNGE:
            self._expunge(cmd, send, state)
        else:
            send(f"{cmd.tag} BAD unsupported command\r\n".encode())
        return True

    def _ok(self, cmd: imapcodec.Command, code: str | None = None) -> bytes:
        prefix = f"[{code}] " if code else ""
        return f"{cmd.tag} OK {prefix}{completion_text(cmd.name)}\r\n".encode()

    def _resolve_mailbox(self, name: str) -> FixtureMailbox | None:
        if name.upper() == "INBOX":
            name = "INBOX"
        return self.mailboxes.get(name)

    def _select(self, cmd, send, state) -> None:
        assert cmd.mailbox is not None
        mb = self._resolve_mailbox(cmd.mailbox)
        if mb is None:
            state["selected"] = None  # a refused SELECT deselects (RFC 3501 §6.3.1, §6.3.2)
            send(f"{cmd.tag} NO No such mailbox\r\n".encode())
            return
        with self._lock:
            self._pending.clear()
        readonly = cmd.verb is Verb.EXAMINE
        state["selected"] = mb.name
        state["readonly"] = readonly
        send(imapcodec.select_lines(mb.exists(), mb.uidvalidity, mb.uidnext))
        send(self._ok(cmd, "READ-ONLY" if readonly else "READ-WRITE"))

    def _list(self, cmd, send) -> None:
        args = _arguments(cmd.rest)
        if len(args) != 2:
            raise ImapSyntaxError(f"{cmd.name} takes a reference and a mailbox pattern")
        pattern = args[1].decode("utf-8", "replace")
        keyword = cmd.name.encode("ascii")
        for name in sorted(self.mailboxes):
            if _match_mailbox_pattern(name, pattern):
                send(b"* " + keyword + b' () "/" ' + imapcodec.render_astring(name) + CRLF)
        send(self._ok(cmd))

    def _status(self, cmd, send) -> None:
        assert cmd.mailbox is not None
        items = imapcodec.parse_status_items(cmd.rest)
        mb = self._resolve_mailbox(cmd.mailbox)
        if mb is None:
            send(f"{cmd.tag} NO No such mailbox\r\n".encode())
            return
        values = {
            "MESSAGES": mb.exists(),
            "RECENT": 0,
            "UIDNEXT": mb.uidnext,
            "UIDVALIDITY": mb.uidvalidity,
            "UNSEEN": sum(1 for m in mb.messages if not m.has_flag("\\Seen")),
        }
        send(imapcodec.status_line(mb.name, [(item, values[item]) for item in items]))
        send(self._ok(cmd))

    def _append(self, cmd, send, state) -> None:
        assert cmd.mailbox is not None
        mb = self._resolve_mailbox(cmd.mailbox)
        if mb is None:
            send(f"{cmd.tag} NO [TRYCREATE] No such mailbox\r\n".encode())
            return
        if not cmd.literals:
            raise ImapSyntaxError("APPEND requires a message literal")
        flags: tuple[str, ...] = ()
        m = re.match(rb"\(([^)]*)\)", cmd.rest)
        if m:
            flags = tuple(f.decode("ascii") for f in m.group(1).split())
        with self._lock:
            uid = mb.uidnext
            mb.uidnext += 1
            mb.messages.append(
                StoredMessage(uid, _order_flags(flags), _normalize_crlf(cmd.literals[-1]))
            )
            if state["selected"] == mb.name:
                self._pending.append(("exists", mb.name, mb.exists()))
        send(self._ok(cmd))

    # -- fetch ---------------------------------------------------------------

    def _fetch(self, cmd, send, state, by_uid: bool) -> None:
        mb = self.mailboxes[state["selected"]]
        assert cmd.seq_set is not None
        targets = _targets(mb, cmd.seq_set, by_uid)
        attr_names = self._fetch_attr_names(cmd.rest)
        for seq, msg in targets:
            parts: list[bytes] = []
            for name in attr_names:
                parts.append(self._fetch_one_attr(name, msg, state["readonly"]))
            if by_uid and not any(n.upper() == "UID" for n in attr_names):
                parts.append(b"UID %d" % msg.uid)
            send(b"* %d FETCH (" % seq + b" ".join(parts) + b")" + CRLF)
        send(self._ok(cmd))

    def _fetch_attr_names(self, rest: bytes) -> list[str]:
        text = rest.strip()
        if text.startswith(b"(") and text.endswith(b")"):
            text = text[1:-1]
        names = []
        for m in re.finditer(rb"[A-Za-z0-9.]+(?:\[[^\]]*\])?(?:<[0-9.]+>)?", text):
            names.append(m.group(0).decode("ascii"))
        if not names:
            raise ImapSyntaxError("no FETCH attributes")
        return names

    def _fetch_one_attr(self, name: str, msg: StoredMessage, readonly: bool) -> bytes:
        upper = name.upper()
        if upper == "UID":
            return b"UID %d" % msg.uid
        if upper == "FLAGS":
            return ("FLAGS (" + " ".join(msg.flags) + ")").encode("ascii")
        if upper == "RFC822.SIZE":
            return b"RFC822.SIZE %d" % len(msg.raw)
        if upper == "INTERNALDATE":
            return f"INTERNALDATE {_internaldate(msg.uid)}".encode("ascii")
        if upper == "ENVELOPE":
            return b"ENVELOPE " + _envelope(msg.raw)
        m = _SECTION_RE.match(name)
        if m and "[" in name:
            peek, section, start, size = m.group(1), m.group(2) or "", m.group(3), m.group(4)
            data = self._section_bytes(msg.raw, section)
            label_section = section
            label_partial = ""
            if start is not None:
                origin = int(start)
                data = data[origin : origin + int(size)]
                label_partial = f"<{origin}>"
            if not peek and not readonly and "\\Seen" not in msg.flags:
                msg.flags = _order_flags(msg.flags + ("\\Seen",))
            label = f"BODY[{label_section}]{label_partial}".encode("ascii")
            return label + b" {%d}\r\n" % len(data) + data
        raise ImapSyntaxError(f"unsupported FETCH attribute {name}")

    def _section_bytes(self, raw: bytes, section: str) -> bytes:
        upper = section.upper()
        if upper == "":
            return raw
        if upper == "HEADER":
            return _split_message(raw)[0]
        if upper == "TEXT":
            return _split_message(raw)[1]
        m = re.match(r"HEADER\.FIELDS \(([^)]*)\)", section, re.I)
        if m:
            return _header_fields(raw, m.group(1).split())
        raise ImapSyntaxError(f"unsupported section {section}")

    # -- search / store / expunge ----------------------------------------------

    def _search(self, cmd, send, state, by_uid: bool) -> None:
        mb = self.mailboxes[state["selected"]]
        criteria = _parse_search_criteria(
            cmd.rest,
            lambda seq_set, by_uid: {seq for seq, _ in _targets(mb, seq_set, by_uid)},
        )
        hits = [
            msg.uid if by_uid else seq
            for seq, msg in enumerate(mb.messages, start=1)
            if _search_matches(msg, seq, criteria)
        ]
        send(imapcodec.render_response(imapcodec.SearchData(tuple(hits))))
        send(self._ok(cmd))

    def _store(self, cmd, send, state, by_uid: bool) -> None:
        mb = self.mailboxes[state["selected"]]
        assert cmd.seq_set is not None
        targets = _targets(mb, cmd.seq_set, by_uid)
        m = re.match(rb"([+-]?)FLAGS(\.SILENT)? (.+)$", cmd.rest, re.I)
        if not m:
            raise ImapSyntaxError("unsupported STORE operation")
        op = m.group(1)
        silent = m.group(2) is not None
        flags_text = m.group(3).strip()
        if flags_text.startswith(b"(") and flags_text.endswith(b")"):
            flags_text = flags_text[1:-1]
        new_flags = tuple(f.decode("ascii") for f in flags_text.split())
        for seq, msg in targets:
            if op == b"+":
                msg.flags = _order_flags(msg.flags + new_flags)
            elif op == b"-":
                msg.flags = _order_flags(f for f in msg.flags if f not in new_flags)
            else:
                msg.flags = _order_flags(new_flags)
            if not silent:
                uid_part = b"UID %d " % msg.uid if by_uid else b""
                send(
                    b"* %d FETCH (" % seq
                    + uid_part
                    + ("FLAGS (" + " ".join(msg.flags) + ")").encode("ascii")
                    + b")"
                    + CRLF
                )
        send(self._ok(cmd))

    def _expunge(self, cmd, send, state) -> None:
        mb = self.mailboxes[state["selected"]]
        if state["readonly"]:
            send(f"{cmd.tag} NO mailbox is read-only\r\n".encode())
            return
        seq = 1
        for msg in list(mb.messages):
            if msg.has_flag("\\Deleted"):
                mb.messages.remove(msg)
                send(b"* %d EXPUNGE\r\n" % seq)
            else:
                seq += 1
        send(self._ok(cmd))
