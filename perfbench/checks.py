"""Output checks: every response is compared with the generator's ground truth.

`Expect` holds what one principal must see. `check(op, command, view)` returns
None when the response is right and a short reason when it is not. The
checks never call `chamail.policy`: visibility comes from `mailgen`.
"""

from __future__ import annotations

import re

import mailgen
from client import Op

_EXISTS_RE = re.compile(rb"^\* (\d+) EXISTS\r\n", re.M)
_FETCH_RE = re.compile(rb"^\* (\d+) FETCH \(")
_UID_RE = re.compile(rb"UID (\d+)")
_FLAGS_RE = re.compile(rb"FLAGS \(([^)]*)\)")
_LITERAL_RE = re.compile(rb"BODY\[\] \{(\d+)\}\r\n")
_SEARCH_RE = re.compile(rb"^\* SEARCH((?: \d+)*)\r\n", re.M)
_STATUS_RE = re.compile(rb"^\* STATUS \S+ \(MESSAGES (\d+) UNSEEN (\d+)\)\r\n", re.M)
_CANARY_RE = re.compile(rb"cnry[0-9a-f]{10}")


def exists(op: Op) -> int | None:
    found = _EXISTS_RE.findall(b"".join(op.blobs[:-1]))
    return int(found[-1]) if found else None


def fetch_rows(op: Op) -> list[tuple[int, bytes]]:
    """(seq, blob) of each untagged FETCH response, in order."""
    rows = []
    for blob in op.blobs[:-1]:
        m = _FETCH_RE.match(blob)
        if m:
            rows.append((int(m.group(1)), blob))
    return rows


def uid_of(blob: bytes) -> int | None:
    m = _UID_RE.search(blob[: blob.find(b"\r\n")])
    return int(m.group(1)) if m else None


def body_of(blob: bytes) -> bytes | None:
    m = _LITERAL_RE.search(blob)
    return None if m is None else blob[m.end() : m.end() + int(m.group(1))]


def search_hits(op: Op) -> list[int] | None:
    found = _SEARCH_RE.findall(b"".join(op.blobs[:-1]))
    return None if len(found) != 1 else [int(x) for x in found[0].split()]


def status_of(op: Op) -> bytes:
    return op.tagged.split(b" ", 2)[1]


class Expect:
    """The mailbox one principal must see: all of it for the owner, the
    ground-truth visible part for a sub-user."""

    def __init__(self, account: mailgen.Account, policy: str | None):
        self.account = account
        self.policy = policy
        self.inbox = list(account.inbox.specs)
        self.archive = list(account.archive.specs)
        self._render_cache: dict[int, bytes] = {}

    def shows(self, spec: mailgen.Spec) -> bool:
        return self.policy is None or mailgen.visible(self.policy, spec, self.account)

    @property
    def view(self) -> list[mailgen.Spec]:
        return [s for s in self.inbox if self.shows(s)]

    def hidden(self) -> tuple[set[int], set[bytes]]:
        """INBOX UIDs and canaries (of any mailbox) that must never reach
        this principal. UIDs are per mailbox, so only INBOX ones are checked:
        every UID-bearing command of the scripts runs on INBOX."""
        gone = [s for s in self.inbox if not self.shows(s)]
        canaries = {s.canary.encode() for s in gone}
        canaries.update(s.canary.encode() for s in self.archive if not self.shows(s))
        return {s.uid for s in gone}, canaries

    def raw(self, spec: mailgen.Spec) -> bytes:
        if spec.uid not in self._render_cache:
            if len(self._render_cache) > 512:
                self._render_cache.clear()
            self._render_cache[spec.uid] = mailgen.render(spec)
        return self._render_cache[spec.uid]

    # -- per-operation checks -----------------------------------------------------

    def check(self, op: Op, command: bytes, view: list[mailgen.Spec]) -> str | None:
        """None if *op*'s response is right for *command* against *view*."""
        kind = op.name
        if kind == "login_wrong":
            return None if status_of(op) == b"NO" else "wrong password not refused"
        if status_of(op) != b"OK":
            return f"{kind}: tagged {op.tagged[:60]!r}"
        if kind in ("select", "reselect"):
            got = exists(op)
            return None if got == len(view) else f"{kind}: EXISTS {got} != {len(view)}"
        if kind == "flags_sync":
            rows = fetch_rows(op)
            if [(seq, uid_of(b)) for seq, b in rows] != [
                (i, s.uid) for i, s in enumerate(view, 1)
            ]:
                return f"flags_sync: {len(rows)} rows, expected {len(view)}"
            for (_, blob), spec in zip(rows, view):
                m = _FLAGS_RE.search(blob)
                if m is None or m.group(1).split() != [f.encode() for f in sorted_flags(spec)]:
                    return f"flags_sync: flags of uid {spec.uid}"
            return None
        if kind in ("headers", "bulk"):
            lo, hi = _range(command)
            rows = fetch_rows(op)
            want = list(range(lo, min(hi, len(view)) + 1))
            if [seq for seq, _ in rows] != want:
                return f"{kind}: rows {len(rows)} for {lo}:{hi}"
            for seq, blob in rows:
                spec = view[seq - 1]
                if kind == "bulk" and body_of(blob) != self.raw(spec):
                    return f"bulk: body of seq {seq}"
                if kind == "headers" and (uid_of(blob) != spec.uid or spec.canary.encode() not in blob):
                    return f"headers: seq {seq}"
            return None
        if kind == "body":
            uid = int(command.split()[2])
            spec = next((s for s in view if s.uid == uid), None)
            rows = fetch_rows(op)
            if spec is None or len(rows) != 1 or body_of(rows[0][1]) != self.raw(spec):
                return f"body: uid {uid}"
            return None
        if kind == "search":
            hits = search_hits(op)
            if hits is None:
                return "search: no SEARCH response"
            return self._check_search(command, hits, view)
        if kind == "status":
            m = _STATUS_RE.search(b"".join(op.blobs[:-1]))
            shown = [s for s in self.archive if self.shows(s)]
            want = (len(shown), sum("\\Seen" not in s.flags for s in shown))
            if m is None or (int(m.group(1)), int(m.group(2))) != want:
                return f"status: expected MESSAGES {want[0]} UNSEEN {want[1]}"
            return None
        return None  # poll, logout: the tagged OK is the check

    def _check_search(self, command: bytes, hits: list[int], view) -> str | None:
        by_uid = command.startswith(b"UID ")
        words = command.split()
        key = words[2 if by_uid else 1].upper()
        if key == b"ALL":
            match = list(view)
        elif key == b"UNSEEN":
            match = [s for s in view if "\\Seen" not in s.flags]
        elif key == b"FROM":
            match = [s for s in view if s.sender.encode() == words[-1]]
        else:  # SUBJECT and TEXT: substring rules of the server; check the domain
            domain = {s.uid for s in view} if by_uid else set(range(1, len(view) + 1))
            return None if set(hits) <= domain else f"search {key!r}: hit outside view"
        chosen = set(match)
        want = [s.uid for s in match] if by_uid else [
            i for i, s in enumerate(view, 1) if s in chosen
        ]
        return None if hits == want else f"search {key!r}: {len(hits)} hits, want {len(want)}"


def sorted_flags(spec: mailgen.Spec) -> list[str]:
    order = ("\\Answered", "\\Flagged", "\\Deleted", "\\Seen", "\\Draft")
    return [f for f in order if f in spec.flags]


def _range(command: bytes) -> tuple[int, int]:
    lo, _, hi = command.split()[1].partition(b":")
    return int(lo), int(hi or lo)


def follow(seen: list, op: Op) -> str | None:
    """Apply *op*'s EXISTS and EXPUNGE responses, in order, to *seen*, the
    client's model of the mailbox (None for a message it has not fetched
    yet); a reason if one of them cannot hold."""
    for blob in op.blobs[:-1]:
        word = blob.split()
        if word[2:3] == [b"EXISTS"]:
            count = int(word[1])
            if count < len(seen):
                return f"{op.name}: EXISTS {count} after {len(seen)} without EXPUNGE"
            seen.extend([None] * (count - len(seen)))
        elif word[2:3] == [b"EXPUNGE"]:
            seq = int(word[1])
            if not 1 <= seq <= len(seen):
                return f"{op.name}: EXPUNGE {seq} of {len(seen)}"
            del seen[seq - 1]
    return None


def leaks(op: Op, command: bytes, hidden_uids: set[int], hidden_canaries: set[bytes]) -> str | None:
    """A reason if any byte of *op*'s response names a hidden message."""
    data = b"".join(op.blobs)
    if set(_CANARY_RE.findall(data)) & hidden_canaries:
        return f"{op.name}: hidden canary leaked"
    uids = {int(u) for u in _UID_RE.findall(data)}
    if command.startswith(b"UID SEARCH"):
        uids.update(search_hits(op) or ())
    if uids & hidden_uids:
        return f"{op.name}: hidden uid leaked"
    return None
