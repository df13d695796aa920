"""Upstream stand-in: `MockIMAPServer` tuned to be a fair floor, in its own process.

Run as a program it generates the seeded mailbox, serves it on a loopback
port and prints `{"port": P}` as its first stdout line. Each further stdin
line is a JSON control request (inject or expunge messages); closing stdin
stops the server, after which it writes its per-command service spans to
`--spans` if that was given.

Three differences from the stock mock, so that the proxy is what gets
measured and what it is sent is valid IMAP:

* Accepted sockets get TCP_NODELAY. The stock mock flushes once per response
  line, so every multi-line reply waits out Nagle's algorithm against the
  client's delayed ACK: about 40 ms per SELECT, SEARCH or STATUS. The proxy
  flushes once per response too, so it has the same stall on its downstream
  side; with the stall also upstream, the proxy's own would be hidden
  behind the mock's. Only the stand-in's sockets are changed, never the
  proxy's.
* `clear_log()` runs after every command, so `received` and `transcript`
  stay bounded over a long run.
* An injected arrival is reported with the EXISTS count it made, not the
  count when the report goes out. The stock mock reports the latter, so
  arrivals followed by an expunge burst before the next command came out
  as an EXISTS that already counted the expunges, then the EXPUNGEs: a
  response no server sends. The stand-in keeps the two in the order they
  happened, whichever that is.

The program also gives the mock a header index (see `index_headers`).
"""

from __future__ import annotations

import argparse
import base64
import email
import functools
import json
import re
import socket
import sys
import time
from array import array

from chamail import mockimap
from chamail.mockimap import FixtureMailbox, MockIMAPServer, StoredMessage

import mailgen


class StandIn(MockIMAPServer):
    def __init__(self, mailboxes, credentials):
        super().__init__(mailboxes, credentials)
        # one row per served command: start, end (monotonic ns), line bytes
        self.spans = array("q")
        # (mailbox, untagged line) of each injected change, in order,
        # reported before the next command to a session that has it selected
        self.events: list[tuple[str, bytes]] = []

    def inject_new_message(self, mailbox: str, raw: bytes, flags: tuple[str, ...] = ()) -> int:
        with self._lock:
            mb = self.mailboxes[mailbox]
            uid = mb.uidnext
            mb.uidnext += 1
            mb.messages.append(StoredMessage(
                uid, mockimap._order_flags(flags), mockimap._normalize_crlf(raw)))
            self.events.append((mailbox, b"* %d EXISTS\r\n" % mb.exists()))
            return uid

    def inject_expunge(self, mailbox: str, uid: int) -> None:
        with self._lock:
            mb = self.mailboxes[mailbox]
            seq = next(i for i, msg in enumerate(mb.messages, 1) if msg.uid == uid)
            del mb.messages[seq - 1]
            self.events.append((mailbox, b"* %d EXPUNGE\r\n" % seq))

    def _handle_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super()._handle_connection(conn)

    def _dispatch(self, cmd, send, state) -> bool:
        start = time.monotonic_ns()
        with self._lock:
            events, self.events = self.events, []
        for mailbox, line in events:
            if mailbox == state["selected"]:
                send(line)
        try:
            return super()._dispatch(cmd, send, state)
        finally:
            self.spans.extend((start, time.monotonic_ns(), len(cmd.raw)))
            self.clear_log()


@functools.lru_cache(maxsize=1 << 15)
def _parsed_header(raw: bytes) -> email.message.Message:
    return email.message_from_bytes(raw[: raw.find(b"\r\n\r\n") + 4])


def _indexed_get_header(raw: bytes, name: str) -> str | None:
    value = _parsed_header(raw).get(name)
    return None if value is None else re.sub(r"[\r\n]+", "", value)


def index_headers(mailboxes: list[FixtureMailbox]) -> None:
    """Answer the mock's header lookups from a parsed-header cache.

    The stock mock re-parses the whole message, attachment included, for
    every header it reads: a SEARCH FROM over 4000 messages takes 3.5 s
    and an ENVELOPE page of 50 takes 0.4 s, which would bury the proxy's
    own cost. A real server answers both from an index. Parsing only the
    header block gives the same values. This replaces a function of the
    mock module, so it is done only by this program's main(), never on
    import; the cache is filled here so set-up, not the first session,
    pays for it.
    """
    mockimap._get_header = _indexed_get_header
    for mb in mailboxes:
        for msg in mb.messages:
            _parsed_header(msg.raw)


def build_mailboxes(account: mailgen.Account) -> list[FixtureMailbox]:
    return [
        FixtureMailbox(
            mb.name,
            [StoredMessage(s.uid, s.flags, mailgen.render(s)) for s in mb.specs],
            mb.uidvalidity,
            mb.uidnext,
        )
        for mb in (account.inbox, account.archive)
    ]


def _control(server: StandIn, request: dict) -> dict:
    if request["op"] == "inject":
        uids = [
            server.inject_new_message(request["mailbox"], base64.b64decode(raw))
            for raw in request["raws"]
        ]
        return {"uids": uids}
    if request["op"] == "expunge":
        for uid in request["uids"]:
            server.inject_expunge(request["mailbox"], uid)
        return {"ok": True}
    raise ValueError(f"unknown control op {request['op']!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--spans", help="write service spans here on exit")
    args = parser.parse_args()

    mailboxes = build_mailboxes(mailgen.generate(args.seed, args.n))
    index_headers(mailboxes)
    server = StandIn(mailboxes, {mailgen.ACCOUNT: mailgen.UPSTREAM_PASSWORD})
    server.start()
    try:
        print(json.dumps({"port": server.port}), flush=True)
        for line in sys.stdin:
            print(json.dumps(_control(server, json.loads(line))), flush=True)
    finally:
        server.stop()
    if args.spans:
        with open(args.spans, "wb") as fh:
            server.spans.tofile(fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
