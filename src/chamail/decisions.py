"""Server-wide cache of each mailbox's last sub-user view.

RFC 3501 §2.3.1.1: within one UIDVALIDITY, a mailbox's UID names one
immutable message for as long as the mailbox exists. A VISIBLE/HIDDEN
decision for that message under one exact policy, with the exact members
of the address lists the policy names, therefore never goes stale. The key
holds all of that by value and is compared by equality, so a changed
policy or list is a different key: a miss, never a stale hit.

Under each key the cache keeps the slots of the view a session last saved
(ViewMap.slots), which it never looks inside. A session checks them
against the server before it uses them.

The cache belongs to one ProxyServer; its sessions share it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Mapping, AbstractSet

from .policy import PolicySet

# Total slots held over all keys. A slot is a 4-byte UID, plus 4 bytes more
# when it is visible, so the cache stays under 1.6 MB whatever the mailbox
# sizes.
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
    """Bounded LRU of key -> the last view saved under it, sized in slots
    over all keys.

    Eviction drops whole least-recently-used keys until the total is at
    most CAP_UIDS; a key that alone exceeds it is not kept.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._size = 0

    def load(self, key: tuple):
        """The slots last saved under *key*, or None. They are never
        changed in place; store replaces them."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def store(self, key: tuple, slots, count: int) -> None:
        """Save *slots*, a view's copy of its *count* slots, as *key*'s
        last view in place of the one before."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._size -= old[1]
            self._entries[key] = (slots, count)
            self._size += count
            while self._size > CAP_UIDS:
                _key, (_slots, dropped) = self._entries.popitem(last=False)
                self._size -= dropped
