"""Server-wide cache of sub-user policy decisions.

RFC 3501 §2.3.1.1: within one UIDVALIDITY, a mailbox's UID names one
immutable message for as long as the mailbox exists. A VISIBLE/HIDDEN
decision for that message under one exact policy, with the exact members
of the address lists the policy names, therefore never goes stale. The key
holds all of that by value and is compared by equality, so a changed
policy or list is a different key: a miss, never a stale hit.

The cache belongs to one ProxyServer; its sessions share it.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Iterable, Mapping, AbstractSet

from .policy import Decision, PolicySet

# Total UIDs held over all keys. Each costs a dict slot and an int, 65 to
# 100 bytes, so the cache stays under about 20 MB whatever the mailbox sizes.
# A key's layout adds 4 bytes per message, which this count leaves out.
CAP_UIDS = 200_000


def mailbox_id(name: str) -> str:
    """The mailbox a name refers to: INBOX is case-insensitive (RFC 3501 §5.1)."""
    return "INBOX" if name.upper() == "INBOX" else name


def decision_key(
    upstream: tuple[str, int, str],
    mailbox: str,
    uidvalidity: int,
    policy: PolicySet,
    lists: Mapping[str, AbstractSet[str]],
) -> tuple:
    """Key for decisions on *mailbox* of the account *upstream* (host,
    port, login) under *policy*, which reads only the lists it references."""
    referenced = tuple(
        sorted((name, frozenset(lists.get(name, ()))) for name in policy.referenced_lists())
    )
    return (*upstream, mailbox_id(mailbox), uidvalidity, policy, referenced)


class DecisionCache:
    """Bounded LRU of key -> {uid: Decision}, sized in UIDs over all keys.

    Each key may also hold its mailbox's layout: the UIDs of seqs 1..E as
    the server last listed them all. It lives and dies with the key's
    decisions.

    Eviction drops whole least-recently-used keys until the total is at
    most CAP_UIDS; a key that alone exceeds it is not kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, dict[int, Decision]] = OrderedDict()
        self._layouts: dict[tuple, array] = {}
        self._size = 0

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def lookup(self, key: tuple, uids: Iterable[int]) -> list[Decision | None]:
        """The cached decision per UID, None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return [None for _ in uids]
            self._entries.move_to_end(key)
            return [entry.get(uid) for uid in uids]

    def layout(self, key: tuple) -> array | None:
        """The UIDs of seqs 1..E stored with *key*'s decisions, if any.
        The array is never changed in place; store replaces it."""
        with self._lock:
            return self._layouts.get(key)

    def forget_expunged(self, key: tuple, live: Iterable[int]) -> None:
        """*live* holds every UID the mailbox under *key* has: drop the
        UIDs of the entry below the largest of them that are not live.
        UIDs only ascend, so those messages were expunged. A larger UID may
        be an arrival that another session has already decided; it stays."""
        live = set(live)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not live:
                return
            top = max(live)
            dead = [uid for uid in entry if uid <= top and uid not in live]
            for uid in dead:
                del entry[uid]
            self._size -= len(dead)

    def store(
        self, key: tuple, decisions: Mapping[int, Decision], layout: array | None = None
    ) -> None:
        """Add *decisions* under *key*; a *layout*, the UIDs of seqs 1..E
        as the server just listed them all, replaces the key's layout."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = {}
            else:
                self._entries.move_to_end(key)
            before = len(entry)
            entry.update(decisions)
            self._size += len(entry) - before
            if layout is not None:
                self._layouts[key] = layout
            while self._size > CAP_UIDS:
                dropped_key, dropped = self._entries.popitem(last=False)
                self._layouts.pop(dropped_key, None)
                self._size -= len(dropped)
