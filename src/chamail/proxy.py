"""The session engine: one mailbox, many passwords, one filtered view each.

A client connects, logs in with the account email plus any of the
account's passwords, and the proxy resolves which principal that password
belongs to. The owner's session becomes a byte pipe once the upstream
accepts its LOGIN. A sub-user gets a read-only, policy-filtered mailbox:
hidden messages are renumbered away, their UIDs never reach the client,
and every mutating command dies at the proxy with a permission error.
The upstream sees a sub-user's commands only under the proxy's own tags
(p1, p2, ...), and the proxy writes every tagged line and the FLAGS line
the sub-user reads: an upstream's own words reach it only as the reason
for a refusal.

Fail-closed rules, in one place:
  * policy metadata that cannot be fetched or parsed never degrades into
    an unfiltered view — the command fails or the session dies instead;
  * a UIDVALIDITY change mid-session kills the session;
  * upstream traffic the sub-user engine cannot interpret kills the
    session rather than being relayed.
"""

from __future__ import annotations

import contextlib
import io
import logging
import re
import selectors
import socket
import ssl
import threading
import traceback
from . import imapcodec, store
from .config import ProxyConfig, UpstreamOverride, load_config  # noqa: F401 (re-exported)
from .credstore import CredStore
from .decisions import DecisionCache, decision_key
from .errors import (
    AuthFailed,
    ChamailError,
    ClientGone,
    ImapSyntaxError,
    LineTooLong,
    LiteralTooLarge,
    SessionAborted,
    StoreError,
    UpstreamUnavailable,
)
from .imapcodec import (
    CRLF,
    Command,
    Continuation,
    Exists,
    ExpungeEvent,
    FetchData,
    RawUntagged,
    SearchData,
    SequenceSet,
    Tagged,
    UntaggedStatus,
    Verb,
    completion_text,
    parse_fetch_attrs,
    parse_response,
    render_astring,
)
from .policy import (
    BODY_EXCERPT_CAP,
    Decision,
    Lists,
    MessageMeta,
    PolicySet,
    evaluate,
    extract_meta,
    sender_constraints_pass,
)
from .principal import Owner, Principal, SubUser
from .viewmap import ViewMap

log = logging.getLogger("chamail.proxy")

_META_HEADER_FIELDS = "FROM SUBJECT CONTENT-TYPE CONTENT-TRANSFER-ENCODING MIME-VERSION"
_LITERAL_MARKER_RE = re.compile(rb"\{(\d+)(\+?)\}\r\n")
_TAGGED_STATUS_RE = re.compile(rb"^([^ ]+) (OK|NO|BAD)(?: |\r\n)")
# seconds the upstream has to greet and to answer LOGIN
UPSTREAM_TIMEOUT = 10.0

AUTH_FAILED_TEXT = "LOGIN failed"
UPSTREAM_FAILED_TEXT = "upstream unavailable"
PERMISSION_DENIED_TEXT = "Permission denied"


# -- upstream connection --------------------------------------------------------


def _is_tagged_for(blob: bytes, tag: str) -> bool:
    m = _TAGGED_STATUS_RE.match(blob)
    return m is not None and m.group(1) == tag.encode("ascii")


class _FlushFirstIO(socket.SocketIO):
    """A socket's raw reader that calls *before_read* before each read.

    The buffered reader over it reads here only when its buffer is empty,
    that is only when the session would wait on the kernel. A session that
    flushes its client writer here thus never waits with replies unsent,
    and sends each batch of replies at once rather than line by line.
    """

    def __init__(self, sock: socket.socket, before_read):
        super().__init__(sock, "rb")
        self._before_read = before_read

    def readinto(self, b) -> int | None:
        self._before_read()
        return super().readinto(b)


def _no_delay(sock: socket.socket) -> None:
    """Send small writes at once: every write is a whole batch, so Nagle's
    algorithm would only hold it for the peer's delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class UpstreamConnection:
    """Blocking IMAP connection to the real server, one per session.

    *before_read* runs before every read that waits on the server; the
    session passes the flush of its client writer. The socket keeps the
    UPSTREAM_TIMEOUT it connects with until the session clears it after
    LOGIN, so a server that never greets or never answers LOGIN fails it.
    """

    def __init__(self, host: str, port: int, use_tls: bool, before_read):
        try:
            sock = socket.create_connection((host, port), timeout=UPSTREAM_TIMEOUT)
            _no_delay(sock)
            if use_tls:
                context = ssl.create_default_context()
                sock = context.wrap_socket(sock, server_hostname=host)
        except OSError as exc:
            raise UpstreamUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
        self.sock = sock
        self.rfile = io.BufferedReader(_FlushFirstIO(sock, before_read))
        self.wfile = sock.makefile("wb")
        self._tag_counter = 0
        try:
            greeting = self.read_blob()
        except UpstreamUnavailable:
            self.close()
            raise
        try:
            parsed = parse_response(greeting)
        except ImapSyntaxError:
            parsed = None
        if not (isinstance(parsed, UntaggedStatus) and parsed.status in ("OK", "PREAUTH")):
            self.close()
            raise UpstreamUnavailable(f"unexpected upstream greeting {greeting[:60]!r}")

    def read_blob(self) -> bytes:
        try:
            blob = imapcodec.read_response_blob(self.rfile)
        except (OSError, ImapSyntaxError) as exc:
            raise UpstreamUnavailable(f"upstream read failed: {exc}") from exc
        if blob == b"":
            raise UpstreamUnavailable("upstream closed the connection")
        return blob

    def _write(self, data: bytes) -> None:
        try:
            self.wfile.write(data)
            self.wfile.flush()
        except OSError as exc:
            raise UpstreamUnavailable(f"upstream write failed: {exc}") from exc

    def send_blob(self, blob: bytes, tag: str, on_reply) -> bytes | None:
        """Send command bytes, honoring sync-literal continuations.

        Replies that arrive while waiting for a continuation prompt go to
        *on_reply*. A server may refuse a literal by completing *tag* in
        place of the prompt (RFC 3501 §7.5); the rest of the command is then
        not sent and that completion is returned. Otherwise returns None.
        """
        sent = pos = 0
        while (m := _LITERAL_MARKER_RE.search(blob, pos)) is not None:
            if m.group(2) != b"+":
                self._write(blob[sent : m.end()])
                sent = m.end()
                while not (reply := self.read_blob()).startswith(b"+"):
                    if _is_tagged_for(reply, tag):
                        return reply
                    on_reply(reply)
            pos = m.end() + int(m.group(1))  # skip the literal's body
        self._write(blob[sent:])
        return None

    def exchange(self, command: bytes, on_reply) -> bytes:
        """Send *command*, given without tag or CRLF, under this connection's
        next tag p<n>, and read replies until that tag completes.

        Every untagged reply (and continuation) goes to *on_reply* as soon
        as it arrives; the tagged completion is returned.
        """
        self._tag_counter += 1
        tag = f"p{self._tag_counter}"
        tagged = self.send_blob(tag.encode("ascii") + b" " + command + CRLF, tag, on_reply)
        while tagged is None:
            reply = self.read_blob()
            if _is_tagged_for(reply, tag):
                tagged = reply
            else:
                on_reply(reply)
        return tagged

    def close(self) -> None:
        for closer in (self.rfile.close, self.wfile.close, self.sock.close):
            with contextlib.suppress(OSError):
                closer()


# -- per-session engine -----------------------------------------------------------


class ClientSession:
    def __init__(self, server: "ProxyServer", conn: socket.socket, peer: str):
        self.server = server
        self.conn = conn
        self.peer = peer
        self.wfile = conn.makefile("wb")
        self.rfile = io.BufferedReader(_FlushFirstIO(conn, self._flush))
        self.io = imapcodec.StreamCommandIO(self.rfile, self.wfile)
        self.principal: Principal | None = None
        self.email: str | None = None
        self.upstream: UpstreamConnection | None = None
        self.upstream_id: tuple[str, int, str] | None = None  # host, port, login
        self.view: ViewMap | None = None
        self.selected_mailbox: str | None = None
        self.active_policy: PolicySet | None = None
        self.active_lists: dict | None = None

    # -- plumbing -------------------------------------------------------------

    def _send(self, data: bytes) -> None:
        """Queue *data* for the client. The writer sends when its buffer
        fills, and _flush sends the rest before the session next waits."""
        try:
            self.wfile.write(data)
        except OSError as exc:
            raise ClientGone(f"client write failed: {exc}") from exc

    def _flush(self) -> None:
        """Runs before every read that waits on the client or the upstream."""
        try:
            self.wfile.flush()
        except OSError as exc:
            raise ClientGone(f"client write failed: {exc}") from exc

    def _tagged(self, tag: str, status: str, text: str) -> None:
        self._send(f"{tag} {status} {text}\r\n".encode("utf-8"))

    # -- main loop ---------------------------------------------------------------

    def run(self) -> None:
        log.info("client connected from %s", self.peer)
        try:
            if isinstance(self.conn, ssl.SSLSocket):
                self.conn.settimeout(imapcodec.HANDSHAKE_TIMEOUT)
                try:
                    self.conn.do_handshake()
                except OSError as exc:
                    log.warning("TLS handshake failed from %s: %s", self.peer, exc)
                    return
                self.conn.settimeout(None)
            self._send(imapcodec.GREETING)
            self._loop()
        except (SessionAborted, UpstreamUnavailable) as exc:
            log.warning("session from %s aborted: %s", self.peer, exc)
            with contextlib.suppress(ClientGone):
                self._send(b"* BYE session terminated\r\n")
        except (ClientGone, OSError) as exc:  # the client's socket, or either in an owner's pipe
            log.info("client %s went away: %s", self.peer, exc)
        except Exception:
            log.exception("session from %s crashed", self.peer)
        finally:
            self._close()

    def shutdown(self) -> None:
        """From any thread: end both of the session's streams, which wakes
        the session's own thread to close itself."""
        upstream = self.upstream
        for sock in [self.conn] if upstream is None else [self.conn, upstream.sock]:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)

    def _close(self) -> None:
        if self.upstream is not None:
            self.upstream.close()
            self.upstream = None
        for closer in (self.rfile.close, self.wfile.close, self.conn.close):
            with contextlib.suppress(OSError):
                closer()
        log.info("client %s disconnected", self.peer)

    def _loop(self) -> None:
        try:
            while line := self.io.read_line():
                try:
                    cmd = imapcodec.parse_command(line, self.io)
                except LiteralTooLarge:
                    self._tagged(imapcodec.reply_tag(line), "BAD", "literal too large")
                    return
                except ImapSyntaxError as exc:
                    self._tagged(imapcodec.reply_tag(line), "BAD", str(exc))
                    continue
                if not self._dispatch(cmd):
                    return
        except LineTooLong:
            self._send(b"* BAD line too long\r\n")

    def _dispatch(self, cmd: Command) -> bool:
        """Handle one command; False ends the session."""
        verb = cmd.verb
        if verb is Verb.CAPABILITY:
            self._send(imapcodec.CAPABILITY_LINE)
            self._tagged(cmd.tag, "OK", completion_text(cmd.name))
            return True
        if verb is Verb.LOGOUT:
            return self._handle_logout(cmd)

        if self.principal is None:
            if verb is Verb.LOGIN:
                self._handle_login(cmd, cmd.login)
            elif verb is Verb.AUTHENTICATE:
                self._handle_authenticate(cmd)
            elif verb is Verb.NOOP:
                self._tagged(cmd.tag, "OK", completion_text(cmd.name))
            else:
                self._tagged(cmd.tag, "NO", imapcodec.NOT_AUTHENTICATED_TEXT)
            if isinstance(self.principal, Owner):
                log.info("owner session from %s ended by the %s", self.peer, self._pipe())
                return False
            return True
        return self._dispatch_subuser(cmd)

    # -- authentication ------------------------------------------------------------

    def _handle_authenticate(self, cmd: Command) -> None:
        try:
            creds = imapcodec.plain_credentials(cmd, self.io)
        except ImapSyntaxError as exc:
            self._tagged(cmd.tag, "BAD", str(exc))
            return
        if creds is None:
            self._tagged(cmd.tag, "NO", imapcodec.UNSUPPORTED_MECHANISM_TEXT)
            return
        self._handle_login(cmd, creds)

    def _handle_login(self, cmd: Command, creds: tuple[str, str] | None) -> None:
        assert creds is not None
        email, password = creds
        try:
            principal = self.server.credstore.authenticate(email, password)
            account = self.server.credstore.get_account(email)
        except (AuthFailed, ChamailError):
            log.info("authentication failed for %r from %s", email, self.peer)
            self._tagged(cmd.tag, "NO", AUTH_FAILED_TEXT)
            return

        target = account.upstream
        override = self.server.config.upstream_overrides.get(account.email)
        host, port, use_tls = (
            (override.host, override.port, override.use_tls)
            if override
            else (target.host, target.port, target.use_tls)
        )
        try:
            upstream_password = store.open_sealed(
                target.sealed_password, self.server.master_key
            ).decode("utf-8")
        except StoreError as exc:
            log.error("cannot unseal upstream credential for %s: %s", account.email, exc)
            self._tagged(cmd.tag, "NO", UPSTREAM_FAILED_TEXT)
            return
        try:
            upstream = UpstreamConnection(host, port, use_tls, self._flush)
        except UpstreamUnavailable as exc:
            log.warning("upstream connect failed for %s: %s", account.email, exc)
            self._tagged(cmd.tag, "NO", UPSTREAM_FAILED_TEXT)
            return

        login = b"LOGIN " + render_astring(target.upstream_login)
        login += b" " + render_astring(upstream_password)
        untagged: list[bytes] = []  # forwarded only once the upstream says OK
        try:
            tagged_blob = upstream.exchange(login, untagged.append)
        except UpstreamUnavailable as exc:
            upstream.close()
            log.warning("upstream login exchange failed for %s: %s", account.email, exc)
            self._tagged(cmd.tag, "NO", UPSTREAM_FAILED_TEXT)
            return
        m = _TAGGED_STATUS_RE.match(tagged_blob)
        if m is None or m.group(2) != b"OK":
            upstream.close()
            log.error("upstream rejected credentials for %s", account.email)
            self._tagged(cmd.tag, "NO", "upstream login failed")
            return

        upstream.sock.settimeout(None)  # from here the session waits as long as the upstream takes
        self.upstream = upstream
        self.upstream_id = (host, port, target.upstream_login)
        self.principal = principal
        self.email = account.email
        if isinstance(principal, Owner):  # a sub-user hears only the proxy
            self._send(b"".join(untagged))
        if isinstance(principal, Owner) and cmd.verb is Verb.LOGIN:
            self._send(cmd.tag.encode("ascii") + tagged_blob[m.end(1) :])
        else:  # a sub-user, or AUTHENTICATE: the upstream spoke LOGIN, the client did not
            self._tagged(cmd.tag, "OK", completion_text(cmd.name))
        log.info("%s authenticated as %s from %s", account.email, principal, self.peer)

    def _handle_logout(self, cmd: Command) -> bool:
        if self.upstream is not None:
            with contextlib.suppress(UpstreamUnavailable):
                self.upstream.exchange(b"LOGOUT", lambda _reply: None)
        self._send(imapcodec.BYE_LINE)
        self._tagged(cmd.tag, "OK", completion_text(cmd.name))
        return False

    # -- owner: a byte pipe ----------------------------------------------------

    def _pipe(self) -> str:
        """Copy bytes both ways, first what the readers already hold (commands
        pipelined behind the LOGIN), until either side ends or its socket
        fails; returns which, "client" or "upstream". One thread serves both
        ways: an SSLSocket is not safe to read and write from two."""
        assert self.upstream is not None
        ends = {self.conn: (self.rfile, self.upstream.wfile, "client", "upstream")}
        ends[self.upstream.sock] = (self.upstream.rfile, self.wfile, "upstream", "client")

        def relay(sock) -> str | None:  # the side that ended, if one did
            rfile, wfile, side, other = ends[sock]
            try:
                data = rfile.read1(1 << 16)
                while data and isinstance(sock, ssl.SSLSocket) and (held := sock.pending()):
                    data += rfile.read1(held)  # decrypted already, so select would not see it
            except ssl.SSLWantReadError:  # only in the first pass, which does not wait
                raise
            except OSError:
                return side
            if not data:
                return side
            try:
                wfile.write(data)
                wfile.flush()
            except OSError:
                return other
            return None

        with selectors.DefaultSelector() as selector:
            for sock in ends:
                sock.settimeout(0)
                with contextlib.suppress(ssl.SSLWantReadError):  # nothing held
                    relay(sock)
                sock.settimeout(None)
                selector.register(sock, selectors.EVENT_READ)
            while True:
                for key, _ in selector.select():
                    if ended := relay(key.fileobj):
                        return ended

    # -- sub-user: filtered engine -------------------------------------------------

    def _dispatch_subuser(self, cmd: Command) -> bool:
        verb = cmd.verb
        if verb in imapcodec.WRITE_VERBS or verb is Verb.OTHER:
            self._tagged(cmd.tag, "NO", PERMISSION_DENIED_TEXT)
            return True
        if verb in (Verb.LOGIN, Verb.AUTHENTICATE):
            self._tagged(cmd.tag, "BAD", "already authenticated")
            return True
        if verb is Verb.NOOP:
            self._subuser_noop(cmd)
        elif verb in (Verb.SELECT, Verb.EXAMINE):
            self._subuser_select(cmd)
        elif verb is Verb.CLOSE:
            self._subuser_close(cmd)
        elif verb in (Verb.LIST, Verb.LSUB):
            self._subuser_list(cmd)
        elif verb is Verb.STATUS:
            self._subuser_status(cmd)
        elif verb in (Verb.FETCH, Verb.UID_FETCH):
            self._subuser_fetch(cmd)
        elif verb in (Verb.SEARCH, Verb.UID_SEARCH):
            self._subuser_search(cmd)
        else:  # pragma: no cover - verbs above are exhaustive
            self._tagged(cmd.tag, "NO", PERMISSION_DENIED_TEXT)
        return True

    # Internal exchange that interprets stray events against the view.

    def _subuser_exchange(self, command: bytes, on_data=None) -> Tagged:
        """Run one upstream *command*, untagged as UpstreamConnection.exchange
        takes it, handing each reply to *on_data* (or, when it declines, to
        _absorb_stray). Any failure while handling a reply is raised as
        SessionAborted only once the tagged line is read, so the upstream
        stays in step; replies after it are dropped uninterpreted. A client
        that went away ends the session at once."""
        assert self.upstream is not None
        failure: list[SessionAborted] = []

        def on_reply(reply: bytes) -> None:
            if failure:
                return
            try:
                resp = parse_response(reply)
                if isinstance(resp, Continuation):
                    raise SessionAborted("unexpected upstream continuation")
                if on_data is None or not on_data(resp):
                    self._absorb_stray(resp)
            except ClientGone:
                raise
            except SessionAborted as exc:
                failure.append(exc)
            except ImapSyntaxError as exc:
                failure.append(SessionAborted(f"unparseable upstream response: {exc}"))
            except Exception as exc:  # a handler bug fails the command closed, in step
                # The frames only: the exception's text may quote the message.
                trace = "".join(traceback.format_tb(exc.__traceback__))
                log.warning("handling an upstream reply failed:\n%s", trace)
                failure.append(SessionAborted(f"reply handler failed: {type(exc).__name__}"))

        tagged = parse_response(self.upstream.exchange(command, on_reply))
        if failure:
            raise failure[0]
        assert isinstance(tagged, Tagged)
        return tagged

    def _absorb_stray(self, resp) -> None:
        """Default handling for unsolicited upstream responses. The view
        answers for every seq up to the last EXISTS, and an arrival it has
        not decided yet counts as hidden; a seq it cannot answer for raises
        a ViewError, which fails the session closed."""
        view = self.view
        if view is None:
            return
        if isinstance(resp, ExpungeEvent):
            virtual = view.apply_upstream_expunge(resp.seq)
            if virtual is not None:
                self._send(b"* %d EXPUNGE\r\n" % virtual)
        elif isinstance(resp, Exists):
            view.note_exists(resp.count)
        elif isinstance(resp, FetchData):
            virtual = view.map_down_seq(resp.seq)
            if virtual is not None:
                self._send(b"* %d FETCH " % virtual + resp.attrs + CRLF)
        elif isinstance(resp, UntaggedStatus) and resp.code == "UIDVALIDITY":
            if resp.code_args.strip() != str(view.uidvalidity):
                raise SessionAborted("UIDVALIDITY changed mid-session")
        # everything else (RECENT, FLAGS lists, LIST data, alerts) is dropped:
        # the sub-user engine only forwards what it understands.

    def _flush_pending_exists(self, announce: bool = True, known=()) -> bool:
        """Decide the arrivals the upstream has announced, announcing the
        visible ones unless *announce* is False; an EXISTS during the
        metadata fetch adds more. *known* holds UIDs already learnt for the
        first arrivals. Returns True iff it decided, and so saved, any."""
        view = self.view
        if view is None or not view.undecided():
            return False
        while arrivals := view.undecided():
            rows = self._fetch_decisions(arrivals[0], arrivals[-1], known)
            announced = view.extend_on_new(rows)  # a UID not above the last raises
            known = ()
            if announce and announced is not None:
                self._send(b"* %d EXISTS\r\n" % announced)
        self._save_view()
        return True

    def _save_view(self) -> None:
        """Save the selected view as its key's last view, for any session
        to start from."""
        view = self.view
        assert view is not None and self.selected_mailbox is not None
        key = self._decision_key(self.selected_mailbox, view.uidvalidity)
        self.server.decisions.store(key, view.slots(), view.upstream_exists())

    # -- metadata fetching ---------------------------------------------------------

    def _policy_snapshot(self) -> tuple[PolicySet, dict]:
        assert self.email is not None and isinstance(self.principal, SubUser)
        account = self.server.credstore.get_account(self.email)
        sub = account.subuser(self.principal.name)
        return sub.policy, account.list_members()

    def _decision_key(self, mailbox: str, uidvalidity: int) -> tuple:
        policy, lists = self.active_policy, self.active_lists
        assert self.upstream_id is not None and policy is not None and lists is not None
        return decision_key(self.upstream_id, mailbox, uidvalidity, policy, lists)

    def _fetch_decisions(self, first: int, last: int, known=()) -> list[tuple[int, int, Decision]]:
        """Evaluate policy over upstream seqs first..last with one FETCH of
        every metadata item the policy reads, decided row by row; returns
        (upstream_seq, uid, decision) rows. *known* holds UIDs already
        learnt for seqs first..; a row with another UID, a gap or a parse
        failure fails the whole operation — a sub-user never sees an
        unfiltered or half-filtered mailbox.
        """
        policy, lists = self.active_policy, self.active_lists
        assert policy is not None and lists is not None
        seqs = range(first, last + 1)
        uids = [*known, *[0] * (len(seqs) - len(known))]  # uids[seq - first]; 0 while unknown
        decisions: list[Decision | None] = [None] * len(seqs)
        items = f"UID BODY.PEEK[HEADER.FIELDS ({_META_HEADER_FIELDS})]"
        if policy.has_keyword_constraints:
            items += f" BODY.PEEK[TEXT]<0.{BODY_EXCERPT_CAP}>"

        def judge(seq: int, attrs: dict) -> None:
            uid = _uid(seq, attrs)
            if uids[seq - first] not in (0, uid):
                raise SessionAborted(f"metadata fetch desync: seq {seq} changed UID")
            uids[seq - first] = uid
            header = _section(attrs, "BODY[HEADER.FIELDS", seq)
            body = _section(attrs, "BODY[TEXT]", seq) if policy.has_keyword_constraints else b""
            decisions[seq - first] = decide(policy, lists, self.principal, header, body)[0]

        self._fetch_rows(seqs, items, judge)
        return list(zip(seqs, uids, decisions))

    def _learn_uids(self, uids: list[int], layout, on_exists=None) -> bool:
        """Fill *uids* with the UIDs of upstream seqs 1.. by FETCH (UID),
        EXISTS counts meanwhile going to *on_exists*. A non-empty *layout*
        L of seqs 1..len(L) is checked with one row: if seq len(L) still
        has UID L[-1], seqs 1..len(L) are L, as UIDs ascend and are never
        reused under one UIDVALIDITY (RFC 3501 §2.3.1.1), and True is
        returned with only seqs len(L).. filled; if not, the rest are
        learnt."""

        def learn(seq: int, attrs: dict) -> None:
            uids[seq - 1] = _uid(seq, attrs)

        rest = range(1, len(uids) + 1)
        if len(layout) <= len(uids):
            self._fetch_rows(range(len(layout), len(uids) + 1), "UID", learn, on_exists)
            if uids[len(layout) - 1] == layout[-1]:
                return True
            rest = range(1, len(layout))
        self._fetch_rows(rest, "UID", learn, on_exists)
        return False

    def _fetch_rows(self, seqs, items: str, on_row, on_exists=None) -> None:
        """FETCH *items* for upstream *seqs* (none: no FETCH) by sequence
        number, handing each row's parsed attributes to *on_row(seq,
        attrs)* as it arrives (and EXISTS counts to *on_exists*). A missing
        seq, bad attributes or a failure in *on_row* abort, and so does what
        _own_command refuses."""
        pending = set(seqs)

        def row(resp) -> bool:
            if on_exists is not None and isinstance(resp, Exists):
                on_exists(resp.count)
                return True
            if not isinstance(resp, FetchData):
                return False
            if resp.seq in pending:
                pending.discard(resp.seq)
                on_row(resp.seq, dict(parse_fetch_attrs(resp.attrs)))
            return True

        if seqs:
            self._own_command(f"FETCH {SequenceSet.from_numbers(seqs).render()} ({items})", row)
        if pending:
            raise SessionAborted(f"metadata fetch missing seq {min(pending)}")

    def _own_command(self, command: str, on_data=None) -> list[int]:
        """Run the proxy's own *command*, a FETCH or SEARCH, handing each
        reply to *on_data* as _subuser_exchange does; returns the SEARCH
        hits. A refusal aborts, and so does an EXPUNGE, which RFC 3501
        §7.4.1 forbids meanwhile: it would shift the seqs the replies name."""
        verb = command.split(" ", 1)[0]
        hits: list[int] = []

        def handle(resp) -> bool:
            if isinstance(resp, ExpungeEvent):
                raise SessionAborted(f"EXPUNGE during the proxy's {verb}")
            if isinstance(resp, SearchData):
                hits.extend(resp.numbers)
                return True
            return on_data is not None and on_data(resp)

        tagged = self._subuser_exchange(command.encode("ascii"), handle)
        if tagged.status != "OK":
            raise SessionAborted(f"proxy's {verb} failed: {tagged.status} {tagged.text}")
        return hits

    # -- sub-user commands ---------------------------------------------------------

    def _complete(self, cmd: Command, tagged: Tagged) -> None:
        """Complete *cmd* after the upstream completed it with *tagged*. The
        upstream's text reaches the client only in a refusal, to say why."""
        if tagged.status == "OK":
            self._tagged(cmd.tag, "OK", completion_text(cmd.name))
        else:
            self._tagged(cmd.tag, tagged.status, tagged.text.strip() or f"{cmd.name} failed")

    def _subuser_noop(self, cmd: Command) -> None:
        self._subuser_exchange(b"NOOP")
        self._flush_pending_exists()
        self._tagged(cmd.tag, "OK", completion_text(cmd.name))

    def _open(self, mailbox: str, restore: ViewMap | None = None) -> Tagged:
        """EXAMINE *mailbox* and make it the session's selection.

        The view starts from *restore*, the session's own view put back
        after a STATUS, else from a copy of the view last saved under the
        mailbox's key, else empty. _learn_uids checks it against the
        server; vanished slots are dropped and the arrivals decided, and
        the client hears of them as upstream events would have told it for
        a put-back only. The view is then saved. Returns the EXAMINE's
        tagged reply. Nothing is selected when the upstream refuses the
        mailbox or deciding fails.
        """
        self.view = None
        self.selected_mailbox = None
        exists = uidvalidity_text = None

        def collect(resp) -> bool:
            nonlocal exists, uidvalidity_text
            if isinstance(resp, Exists):
                exists = resp.count
            elif isinstance(resp, UntaggedStatus):
                if resp.code == "UIDVALIDITY":
                    uidvalidity_text = resp.code_args.strip()
                # UIDNEXT, PERMANENTFLAGS, UNSEEN hints, alerts: dropped
            else:  # FLAGS and RECENT too: _absorb_stray drops them, as the view is detached
                return False
            return True

        tagged = self._subuser_exchange(b"EXAMINE " + render_astring(mailbox), collect)
        if tagged.status != "OK":
            return tagged
        if exists is None or uidvalidity_text is None or not uidvalidity_text.isdigit():
            raise SessionAborted("upstream EXAMINE response missing EXISTS/UIDVALIDITY")
        counts, vanished, uidvalidity = [exists], [], int(uidvalidity_text)
        view = restore
        if view is None:
            slots = self.server.decisions.load(self._decision_key(mailbox, uidvalidity))
            view = ViewMap.from_slots(slots or ((), (), 1), uidvalidity)
        if view.uidvalidity != uidvalidity:
            raise SessionAborted("UIDVALIDITY changed mid-session")
        # The view is detached, so an EXISTS during this FETCH is kept here
        # and noted after the expunges it may count.
        old, uids = view.decided_uids(), [0] * counts[0]
        if old and not self._learn_uids(uids, old, counts.append):
            live = set(uids)
            vanished = [seq for seq, uid in enumerate(old, start=1) if uid not in live]
            if [uid for uid in old if uid in live] != uids[: len(old) - len(vanished)]:
                raise SessionAborted("re-open desync: a UID moved")
        self.view, self.selected_mailbox = view, mailbox
        try:
            for seq in reversed(vanished):
                virtual = view.apply_upstream_expunge(seq)
                if restore is not None and virtual is not None:
                    self._send(b"* %d EXPUNGE\r\n" % virtual)
            kept = view.upstream_exists()
            self._absorb_stray(Exists(max(counts)))
            if not self._flush_pending_exists(announce=restore is not None, known=uids[kept:]):
                self._save_view()
        except SessionAborted:
            self.view = None
            self.selected_mailbox = None
            raise
        evaluated = view.upstream_exists() - kept
        log.info("policy decisions for %s: %d cached, %d evaluated", self.peer, kept, evaluated)
        return tagged

    def _subuser_select(self, cmd: Command) -> None:
        assert self.upstream is not None and cmd.mailbox is not None
        policy, lists = self._policy_snapshot()
        self.active_policy, self.active_lists = policy, lists
        try:
            tagged = self._open(cmd.mailbox)
        except SessionAborted as exc:
            # fail closed but keep the session: the mailbox simply cannot
            # be opened with filtering guaranteed
            log.warning("sub-user select of %r failed: %s", cmd.mailbox, exc)
            self._tagged(cmd.tag, "NO", "cannot open mailbox with filtering guaranteed")
            return
        if self.view is None:
            self._complete(cmd, tagged)
            return

        # The system flags only: the upstream's FLAGS list also names
        # keywords, and one set only on hidden messages would show them.
        view = self.view
        self._send(imapcodec.select_lines(view.exists(), view.uidvalidity, view.uidnext()))
        self._tagged(cmd.tag, "OK", f"[READ-ONLY] {completion_text(cmd.name)}")

    def _subuser_close(self, cmd: Command) -> None:
        if self.view is None:
            self._tagged(cmd.tag, "NO", imapcodec.NO_MAILBOX_TEXT)
            return
        self._subuser_exchange(b"CLOSE")
        self.view = None
        self.selected_mailbox = None
        self._tagged(cmd.tag, "OK", completion_text(cmd.name))

    def _subuser_list(self, cmd: Command) -> None:
        collected: list[bytes] = []
        prefix = cmd.name.encode("ascii") + b" "

        def collect(resp) -> bool:
            if isinstance(resp, RawUntagged) and resp.payload.upper().startswith(prefix):
                collected.append(resp.raw)
                return True
            return False

        tagged = self._subuser_exchange(prefix + cmd.rest, collect)
        self._flush_pending_exists()
        for raw in collected:
            self._send(raw)
        self._complete(cmd, tagged)

    def _subuser_status(self, cmd: Command) -> None:
        assert cmd.mailbox is not None
        try:
            requested = imapcodec.parse_status_items(cmd.rest)
        except ImapSyntaxError as exc:
            self._tagged(cmd.tag, "BAD", str(exc))
            return

        tagged, values = self._inspect(cmd.mailbox, "UNSEEN" in requested)
        if tagged is not None and tagged.status != "OK":
            self._complete(cmd, tagged)
            return
        if not all(item in values for item in requested):
            self._tagged(cmd.tag, "NO", "cannot inspect mailbox with filtering guaranteed")
            return

        self._send(imapcodec.status_line(cmd.mailbox, [(item, values[item]) for item in requested]))
        self._tagged(cmd.tag, "OK", completion_text(cmd.name))

    def _inspect(self, target: str, unseen: bool) -> tuple[Tagged | None, dict[str, int]]:
        """Policy-evaluate *target* over the main upstream connection and
        answer every STATUS item from that.

        The upstream holds one selection per connection, so this opens
        the target in place (_open), detaches its view and afterwards puts
        the session's own view back, which tells the client what changed
        meanwhile. With none selected the upstream stays on the target,
        whose events are dropped while the session has no view.
        Returns the EXAMINE's tagged reply (None if it failed in transit)
        and the values: MESSAGES counts the visible messages, UNSEEN how
        many of them a `SEARCH UNSEEN` hits when *unseen* asks (else 0),
        UIDVALIDITY is the EXAMINE's, UIDNEXT the view's (a hidden arrival
        never moves it) and RECENT is 0; an item the inspection could not
        answer is left out. The session goes on either way. Raises
        SessionAborted only when the selected mailbox cannot be restored.
        """
        if self.active_policy is None or self.active_lists is None:
            # no selection has pinned a snapshot yet
            self.active_policy, self.active_lists = self._policy_snapshot()
        old_view = self.view
        old_mailbox = self.selected_mailbox

        tagged, values = None, {}
        try:
            tagged = self._open(target)
            # Detached, so no stray reply about the target reaches the client.
            view, self.view, self.selected_mailbox = self.view, None, None
            if view is not None:
                hits = self._own_command("SEARCH UNSEEN") if unseen and view.exists() else []
                decided = range(1, view.upstream_exists() + 1)
                hits = [s for s in hits if s in decided and view.map_down_seq(s) is not None]
                values = {
                    "MESSAGES": view.exists(),
                    "UNSEEN": len(hits),
                    "RECENT": 0,
                    "UIDVALIDITY": view.uidvalidity,
                    "UIDNEXT": view.uidnext(),
                }
        except SessionAborted as exc:
            log.warning("STATUS inspection of %r failed: %s", target, exc)

        # A refused EXAMINE deselects the upstream too (RFC 3501 §6.3.2).
        if old_view is not None:
            assert old_mailbox is not None
            self._open(old_mailbox, old_view)
            if self.view is None:
                raise SessionAborted("cannot re-open selected mailbox after STATUS")
        return tagged, values

    def _subuser_fetch(self, cmd: Command) -> None:
        if not imapcodec.FETCH_ITEMS_RE.fullmatch(cmd.rest):
            self._tagged(cmd.tag, "BAD", "FETCH items outside RFC 3501")
            return
        if self.view is None:
            self._tagged(cmd.tag, "NO", imapcodec.NO_MAILBOX_TEXT)
            return
        assert cmd.seq_set is not None
        view = self.view

        # Only the endpoints of each range are translated: the upstream set
        # and the client's agree on every visible message, and the relay
        # drops the rows of hidden ones.
        if cmd.verb is Verb.FETCH:
            mapped = view.map_up(cmd.seq_set)
            if not mapped.ranges:
                self._tagged(cmd.tag, "BAD", "invalid sequence set")
                return
        else:
            mapped = view.map_up_uids(cmd.seq_set)
            if not mapped.ranges:  # nothing visible
                self._tagged(cmd.tag, "OK", completion_text(cmd.name))
                return
        command = f"{cmd.name} {mapped.render()} ".encode("ascii") + cmd.rest

        def relay(resp) -> bool:
            """Relay a UID FETCH row whose UID is its slot's; _absorb_stray takes the rest."""
            if cmd.verb is Verb.FETCH or not isinstance(resp, FetchData):
                return False
            virtual = view.map_down_seq(resp.seq)
            if virtual is None:  # a hidden row is never parsed
                return True
            uid = dict(parse_fetch_attrs(resp.attrs)).get("UID")
            if uid is None:  # an unsolicited update without its UID
                return True
            if uid != view.decided_uids()[resp.seq - 1]:
                raise SessionAborted(f"upstream fetch desync: seq {resp.seq} has another UID")
            self._send(b"* %d FETCH " % virtual + resp.attrs + CRLF)
            return True

        tagged = self._subuser_exchange(command, relay)
        self._flush_pending_exists()
        self._complete(cmd, tagged)

    def _subuser_search(self, cmd: Command) -> None:
        if self.view is None:
            self._tagged(cmd.tag, "NO", imapcodec.NO_MAILBOX_TEXT)
            return
        view = self.view
        if not view.exists():
            self._send(imapcodec.render_response(SearchData(())))
            self._tagged(cmd.tag, "OK", completion_text(cmd.name))
            return
        # Sequence sets are translated as FETCH translates them; the hits
        # are filtered below, so NOT and OR stay exact.
        try:
            criteria = imapcodec.map_search_sets(cmd.rest, view.map_up, view.map_up_uids)
        except ImapSyntaxError as exc:
            self._tagged(cmd.tag, "BAD", str(exc))
            return
        hits: list[int] = []

        def collect(resp) -> bool:
            if isinstance(resp, SearchData):
                hits.extend(resp.numbers)
                return True
            return False

        tagged = self._subuser_exchange(f"{cmd.name} ".encode("ascii") + criteria, collect)
        self._flush_pending_exists()
        if tagged.status == "OK":
            if cmd.verb is Verb.UID_SEARCH:
                mapped = view.filter_uids(hits)
            else:
                mapped = [v for seq in hits if (v := view.map_down_seq(seq)) is not None]
            self._send(imapcodec.render_response(SearchData(tuple(mapped))))
        self._complete(cmd, tagged)


def decide(
    policy: PolicySet, lists: Lists, principal: Principal, header: bytes, body: bytes
) -> tuple[Decision, MessageMeta]:
    """Decide one message from its header block and the first
    BODY_EXCERPT_CAP bytes of its body, CRLF-ended as an IMAP server serves
    them; the proxy and `chamail dryrun` both decide here. The body is read
    only past the sender rules, and a FORBID rule cannot clear a body cut
    off before any text/plain part, nor a subject it cannot decode.
    Returns the decision and its metadata.
    The policy functions are called as this module's globals, where
    perfbench/tracing.py times them.
    """
    meta = extract_meta(header)
    if not sender_constraints_pass(policy, meta.sender, lists):
        return Decision.HIDDEN, meta
    if policy.has_keyword_constraints:
        meta = extract_meta(header + body)
        cut = len(body) >= BODY_EXCERPT_CAP and not meta.has_text_part
        if (cut or not meta.subject_decoded) and policy.has_forbid_constraints:
            return Decision.HIDDEN, meta
    return evaluate(policy, meta, lists, principal), meta


def _uid(seq: int, attrs: dict) -> int:
    uid = attrs.get("UID")
    if not isinstance(uid, int) or not 0 < uid < 2**32:  # RFC 3501 nz-number
        raise SessionAborted(f"malformed metadata for seq {seq}")
    return uid


def _section(attrs: dict, prefix: str, seq: int) -> bytes:
    """The bytes of the first attribute named *prefix*..., e.g. BODY[TEXT]<0>;
    b"" for NIL."""
    for name, value in attrs.items():
        if name.startswith(prefix) and (value is None or isinstance(value, bytes)):
            return value or b""
    raise SessionAborted(f"malformed metadata for seq {seq}: no {prefix}")


# -- the listener --------------------------------------------------------------------


class ProxyServer:
    def __init__(self, config: ProxyConfig, credstore: CredStore, master_key: bytes):
        self.config = config
        self.credstore = credstore
        self.master_key = master_key
        self._sock = socket.create_server((config.listen_host, config.listen_port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._ssl_context: ssl.SSLContext | None = None
        if config.tls_certfile:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(config.tls_certfile, config.tls_keyfile)
            self._ssl_context = context
        self._thread: threading.Thread | None = None
        self._sessions: list[tuple[ClientSession, threading.Thread]] = []
        self.decisions = DecisionCache()

    def start(self) -> "ProxyServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        log.info("listening on %s:%d", self.host, self.port)
        while True:
            try:
                conn, addr = self._sock.accept()
            except OSError:  # stop() shut the listening socket down
                return
            try:
                _no_delay(conn)
                if self._ssl_context is not None:
                    # The session's own thread runs the handshake, under a
                    # time limit, so a silent client holds up only itself.
                    conn = self._ssl_context.wrap_socket(
                        conn, server_side=True, do_handshake_on_connect=False
                    )
            except OSError as exc:
                log.warning("socket setup failed for %s: %s", addr, exc)
                conn.close()
                continue
            session = ClientSession(self, conn, f"{addr[0]}:{addr[1]}")
            thread = threading.Thread(target=session.run, daemon=True)
            thread.start()
            self._sessions = [(s, t) for s, t in self._sessions if t.is_alive()]
            self._sessions.append((session, thread))

    def stop(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._sock.close()
        # With the accept loop gone the list is final; a session blocked on
        # either socket wakes to end of stream and closes itself.
        for session, thread in self._sessions:
            session.shutdown()
            thread.join(timeout=2)

    def __enter__(self) -> "ProxyServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
