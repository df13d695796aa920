"""Contiguous renumbering of a filtered mailbox view.

A sub-user session sees visible messages as virtual sequence numbers
1..K with no gaps; hidden messages simply do not exist from the client's
side of the socket. UIDs pass through unchanged for visible messages
(UID gaps are ordinary IMAP), so only sequence numbers are virtualized.

The map models the whole upstream mailbox as this session knows it. Slots
past the decided ones, up to the last EXISTS the upstream announced, are
undecided arrivals: they count as hidden until extend_on_new decides them,
so a reply about a message nobody has evaluated yet never reaches the
client. A seq the map cannot answer for raises a ViewError, which is a
SessionAborted: the session's model has desynced, and it fails closed.

The map lives for one selected mailbox in one session and is never
shared across sessions; a copy of its slots is, through the decision cache.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from .errors import InconsistentInput, UnknownSeq
from .imapcodec import SequenceSet
from .policy import Decision


class ViewMap:
    """Bijection between virtual sequence numbers and visible upstream
    messages, updated live as the upstream mailbox changes.

    Upstream seqs 1..upstream_exists() are decided, VISIBLE or HIDDEN;
    the seqs in undecided() follow them up to the announced EXISTS and
    count as hidden. Only a seq beyond the announced EXISTS is unknown.

    The map holds two ascending UID arrays: the UIDs of the decided slots
    in seq order, and the visible ones among them. UIDs ascend with seq
    (RFC 3501 §2.3.1.1), so the v-th visible UID is virtual seq v, and
    each translation is one bisect in the other array; a UID that is not
    above the last is refused. An arrival appends to the arrays and an
    expunge deletes its UID from each array that holds it, so there is
    no index to rebuild.

    The view's UIDNEXT is one above the largest UID it ever showed, and
    an expunge never lowers it, so a hidden arrival never moves it.
    """

    def __init__(
        self,
        messages: Iterable[tuple[int, int, Decision]],
        uidvalidity: int,
    ):
        self.uidvalidity = uidvalidity
        # slot index i holds upstream seq i+1
        self._uids = array("I")
        self._visible = array("I")  # the UIDs the sub-user may see
        self._announced = 0  # the upstream's EXISTS; slots past _uids are undecided
        self._uidnext = 1
        self._append(messages, "upstream seq")

    @classmethod
    def from_slots(
        cls, slots: tuple[Sequence[int], Sequence[int], int], uidvalidity: int
    ) -> "ViewMap":
        """A map of the decided slots a view's slots() copied out."""
        view = cls((), uidvalidity)
        uids, visible, view._uidnext = slots
        view._uids, view._visible = array("I", uids), array("I", visible)
        view._announced = len(uids)
        return view

    def slots(self) -> tuple[array, array, int]:
        """A copy of the decided slots: their UIDs, the visible ones and
        the view's UIDNEXT."""
        return array("I", self._uids), array("I", self._visible), self._uidnext

    def _append(self, messages: Iterable[tuple[int, int, Decision]], what: str) -> bool:
        """Append slots in upstream order; True iff one of them is visible."""
        shown = len(self._visible)
        for upstream_seq, uid, decision in messages:
            if upstream_seq != len(self._uids) + 1:
                raise InconsistentInput(
                    f"{what} {upstream_seq} breaks contiguity at {len(self._uids) + 1}"
                )
            if self._uids and uid <= self._uids[-1]:
                raise InconsistentInput(f"{what} {upstream_seq} has a UID not above the last")
            self._uids.append(uid)
            if decision is Decision.VISIBLE:
                self._visible.append(uid)
                self._uidnext = max(self._uidnext, uid + 1)
        self._announced = max(self._announced, len(self._uids))
        return len(self._visible) > shown

    # -- introspection ---------------------------------------------------

    def exists(self) -> int:
        """Number of messages the sub-user can see."""
        return len(self._visible)

    def upstream_exists(self) -> int:
        """Number of decided upstream messages."""
        return len(self._uids)

    def undecided(self) -> range:
        """Upstream seqs announced by EXISTS and not yet decided."""
        return range(len(self._uids) + 1, self._announced + 1)

    def decided_uids(self) -> Sequence[int]:
        """UIDs of upstream seqs 1..upstream_exists(): the view's own list."""
        return self._uids

    def hidden_uids(self) -> frozenset[int]:
        return frozenset(self._uids).difference(self._visible)

    def uidnext(self) -> int:
        """The sub-user's UIDNEXT: above every UID the view has shown."""
        return self._uidnext

    def visible_uids(self) -> tuple[int, ...]:
        """UIDs of visible messages in mailbox order."""
        return tuple(self._visible)

    def entries(self) -> list[tuple[int, int, int]]:
        """(virtual_seq, upstream_seq, uid) rows for every visible message."""
        return [
            (virtual, bisect_left(self._uids, uid) + 1, uid)
            for virtual, uid in enumerate(self._visible, start=1)
        ]

    # -- sequence number translation --------------------------------------

    def map_up(self, virtual_set: SequenceSet) -> SequenceSet:
        """Translate a client sequence-set into upstream sequence numbers.

        Each client range, with '*' as the virtual EXISTS and clipped to
        1..EXISTS as SequenceSet.expand clips, becomes one upstream range
        from its first visible message to its last. The hidden messages in
        between are asked for too; the caller drops their replies. Ranges
        wholly out of range drop out and never reach the upstream server.
        """
        exists = self.exists()

        def upstream_seq(virtual: int) -> int:
            return bisect_left(self._uids, self._visible[virtual - 1]) + 1

        ranges = []
        for a, b in virtual_set.with_star(exists).ranges:
            start, stop = max(min(a, b), 1), min(max(a, b), exists)
            if start <= stop:
                ranges.append((upstream_seq(start), upstream_seq(stop)))
        return SequenceSet(tuple(ranges))

    def map_up_uids(self, uid_set: SequenceSet) -> SequenceSet:
        """A client UID set for the upstream: UIDs pass through and '*' is
        the largest *visible* UID. Empty when nothing is visible."""
        if not self._visible:
            return SequenceSet(())
        return uid_set.with_star(self._visible[-1])

    def map_down_seq(self, upstream_seq: int) -> int | None:
        """Virtual sequence number for *upstream_seq*, or None when it is
        hidden or an undecided arrival.

        A sequence number beyond what upstream has announced means this
        session's model has desynced: UnknownSeq, which fails closed.
        """
        if not 1 <= upstream_seq <= self._announced:
            raise UnknownSeq(f"upstream seq {upstream_seq} out of range")
        if upstream_seq > len(self._uids):
            return None
        uid = self._uids[upstream_seq - 1]
        virtual = bisect_right(self._visible, uid)  # the visible UIDs up to uid
        return virtual if virtual and self._visible[virtual - 1] == uid else None

    def filter_uids(self, uids: Sequence[int]) -> list[int]:
        """Drop hidden and unknown UIDs, preserving input order."""
        visible = set(self._visible)
        return [uid for uid in uids if uid in visible]

    # -- live updates ------------------------------------------------------

    def note_exists(self, count: int) -> None:
        """Record an upstream EXISTS; the seqs it adds are undecided.

        EXISTS never shrinks without an EXPUNGE, so a count below the
        announced one means this session's model has desynced.
        """
        if count < self._announced:
            raise UnknownSeq(f"EXISTS {count} below the announced {self._announced}")
        self._announced = count

    def apply_upstream_expunge(self, upstream_seq: int) -> int | None:
        """Remove the message at *upstream_seq*; later seqs shift down.

        Returns the virtual sequence number to announce downstream, or
        None when the expunged message was hidden or undecided (the client
        sees no traffic at all).
        """
        translated = self.map_down_seq(upstream_seq)  # raises UnknownSeq if unannounced
        self._announced -= 1
        if upstream_seq <= len(self._uids):
            del self._uids[upstream_seq - 1]
        if translated is not None:
            del self._visible[translated - 1]
        return translated

    def extend_on_new(
        self, new_messages: Iterable[tuple[int, int, Decision]]
    ) -> int | None:
        """Decide arrivals: append them as the next slots, the undecided
        ones first; any past the announced EXISTS raise it.

        Returns the new virtual EXISTS count iff at least one newcomer is
        visible; hidden arrivals are silent.
        """
        any_visible = self._append(new_messages, "new message seq")
        return self.exists() if any_visible else None
