"""Contiguous renumbering of a filtered mailbox view.

A sub-user session sees visible messages as virtual sequence numbers
1..K with no gaps; hidden messages simply do not exist from the client's
side of the socket. UIDs pass through unchanged for visible messages
(UID gaps are ordinary IMAP), so only sequence numbers are virtualized.

The map lives for one selected mailbox in one session and is never
shared across sessions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InconsistentInput, UnknownSeq
from .imapcodec import SequenceSet
from .policy import Decision


class _HiddenType:
    """Marker returned by map_down_seq for upstream messages the sub-user
    must not learn about."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "HIDDEN"


HIDDEN = _HiddenType()


class ViewMap:
    """Bijection between virtual sequence numbers and visible upstream
    messages, updated live as the upstream mailbox changes."""

    def __init__(
        self,
        messages: Iterable[tuple[int, int, Decision]],
        uidvalidity: int,
    ):
        self.uidvalidity = uidvalidity
        # slot index i holds upstream seq i+1: (uid, visible)
        self._slots: list[tuple[int, bool]] = []
        for upstream_seq, uid, decision in messages:
            if upstream_seq != len(self._slots) + 1:
                raise InconsistentInput(
                    f"upstream seq {upstream_seq} breaks contiguity at "
                    f"{len(self._slots) + 1}"
                )
            self._slots.append((uid, decision is Decision.VISIBLE))

    # -- introspection ---------------------------------------------------

    def exists(self) -> int:
        """Number of messages the sub-user can see."""
        return sum(1 for _, visible in self._slots if visible)

    def upstream_exists(self) -> int:
        return len(self._slots)

    def hidden_uids(self) -> frozenset[int]:
        return frozenset(uid for uid, visible in self._slots if not visible)

    def visible_uids(self) -> tuple[int, ...]:
        """UIDs of visible messages in mailbox order."""
        return tuple(uid for uid, visible in self._slots if visible)

    def uid_visible(self, uid: int) -> bool:
        return any(visible and u == uid for u, visible in self._slots)

    def entries(self) -> list[tuple[int, int, int]]:
        """(virtual_seq, upstream_seq, uid) rows for every visible message."""
        rows = []
        virtual = 0
        for idx, (uid, visible) in enumerate(self._slots):
            if visible:
                virtual += 1
                rows.append((virtual, idx + 1, uid))
        return rows

    # -- sequence number translation --------------------------------------

    def map_up(self, virtual_set: SequenceSet) -> SequenceSet:
        """Translate a client sequence-set into upstream sequence numbers.

        Expansion happens against the virtual mailbox size, so out-of-range
        virtual numbers drop out here and never reach the upstream server.
        """
        upstream_by_virtual = [upstream for _, upstream, _ in self.entries()]
        chosen = virtual_set.expand(len(upstream_by_virtual))
        return SequenceSet.from_numbers([upstream_by_virtual[v - 1] for v in chosen])

    def map_down_seq(self, upstream_seq: int):
        """Virtual sequence number for *upstream_seq*, or HIDDEN.

        A sequence number beyond what upstream has announced means this
        session's model has desynced; that is not survivable.
        """
        if not 1 <= upstream_seq <= len(self._slots):
            raise UnknownSeq(f"upstream seq {upstream_seq} out of range")
        uid, visible = self._slots[upstream_seq - 1]
        if not visible:
            return HIDDEN
        return sum(1 for _, vis in self._slots[:upstream_seq] if vis)

    def filter_uids(self, uids: Sequence[int]) -> list[int]:
        """Drop hidden and unknown UIDs, preserving input order."""
        visible = set(self.visible_uids())
        return [uid for uid in uids if uid in visible]

    # -- live updates ------------------------------------------------------

    def apply_upstream_expunge(self, upstream_seq: int) -> int | None:
        """Remove the message at *upstream_seq*; later seqs shift down.

        Returns the virtual sequence number to announce downstream, or
        None when the expunged message was hidden (the client sees no
        traffic at all).
        """
        if not 1 <= upstream_seq <= len(self._slots):
            raise UnknownSeq(f"cannot expunge upstream seq {upstream_seq}")
        translated = self.map_down_seq(upstream_seq)
        del self._slots[upstream_seq - 1]
        return None if translated is HIDDEN else translated

    def extend_on_new(
        self, new_messages: Iterable[tuple[int, int, Decision]]
    ) -> int | None:
        """Append newly arrived messages.

        Returns the new virtual EXISTS count iff at least one newcomer is
        visible; hidden arrivals are silent.
        """
        any_visible = False
        for upstream_seq, uid, decision in new_messages:
            if upstream_seq != len(self._slots) + 1:
                raise InconsistentInput(
                    f"new message seq {upstream_seq} breaks contiguity at "
                    f"{len(self._slots) + 1}"
                )
            visible = decision is Decision.VISIBLE
            self._slots.append((uid, visible))
            any_visible = any_visible or visible
        return self.exists() if any_visible else None
