"""The server-wide cache of saved views: what its key tells apart, and its bound."""

import random
import sys
import threading
from array import array

from chamail import decisions
from chamail.decisions import DecisionCache, decision_key
from chamail.policy import (
    KeywordConstraint,
    KeywordMode,
    PolicySet,
    SenderConstraint,
    SenderMode,
)

UPSTREAM = ("imap.example", 993, "person@example.org")
BLACKLIST = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),))
LISTS = {"exes": frozenset({"ex@example.org"}), "work": frozenset({"boss@work.example"})}


def slots(*uids):
    """Saved slots of a view whose odd UIDs are visible."""
    return array("I", uids), bytes(uid % 2 for uid in uids)


def key(mailbox="INBOX", uidvalidity=7, policy=BLACKLIST, lists=LISTS, upstream=UPSTREAM):
    return decision_key(upstream, mailbox, uidvalidity, policy, lists)


def test_key_names_the_same_mailbox_and_policy_alike():
    assert key("inbox") == key("INBOX") == key("InBox")
    # a list the policy does not read does not split the key
    assert key(lists={**LISTS, "work": frozenset()}) == key()
    # equal policies built apart are one key
    rebuilt = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),))
    assert key(policy=rebuilt) == key()


def test_key_tells_every_input_apart():
    base = key()
    others = [
        key(mailbox="Archive"),
        key(mailbox="inbox/sub"),
        key(uidvalidity=8),
        key(upstream=("imap.example", 143, "person@example.org")),
        key(upstream=("other.example", 993, "person@example.org")),
        key(upstream=("imap.example", 993, "someone@example.org")),
        key(lists={**LISTS, "exes": frozenset({"ex@example.org", "new@example.org"})}),
        key(lists={**LISTS, "exes": frozenset()}),
        key(policy=PolicySet()),
        key(policy=PolicySet(sender_constraints=(SenderConstraint(SenderMode.WHITELIST, "exes"),))),
        key(
            policy=PolicySet(
                BLACKLIST.sender_constraints,
                (KeywordConstraint(KeywordMode.FORBID_ANY, frozenset({"tulip"})),),
            )
        ),
    ]
    assert len({base, *others}) == len(others) + 1


def test_load_returns_the_last_saved_slots():
    cache = DecisionCache()
    assert cache.load(key()) is None
    saved = slots(10, 21)
    cache.store(key(), saved, 2)
    assert cache.load(key()) is saved
    assert cache.load(key(uidvalidity=8)) is None
    # a later save replaces the view and its count
    cache.store(key(), slots(21, 30, 41), 3)
    assert cache.load(key()) == slots(21, 30, 41)
    assert cache._size == 3


def test_eviction_drops_least_recently_used_keys(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 6)
    cache = DecisionCache()
    a, b, c = key("A"), key("B"), key("C")
    cache.store(a, slots(1, 2, 3), 3)
    cache.store(b, slots(1, 2, 3), 3)
    cache.load(a)  # a is now the most recently used
    cache.store(c, slots(1), 1)
    assert cache.load(b) is None
    assert cache.load(a) == slots(1, 2, 3) and cache.load(c) == slots(1)
    # re-saving a key counts its slots once
    cache.store(c, slots(1, 2), 2)
    assert cache.load(a) is not None and cache._size == 5
    cache.store(c, slots(1, 2, 3, 4), 4)
    assert cache.load(a) is None and cache.load(c) == slots(1, 2, 3, 4)
    assert cache._size == 4


def test_a_key_larger_than_the_cap_is_not_kept(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 5)
    cache = DecisionCache()
    cache.store(key("A"), slots(1), 1)
    cache.store(key("B"), slots(*range(1, 7)), 6)
    assert cache.load(key("A")) is None and cache.load(key("B")) is None
    assert cache._size == 0


def test_concurrent_sessions_keep_the_count_exact(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 50)
    cache = DecisionCache()
    keys = [key(f"box{i}") for i in range(5)]
    errors = []

    def session(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                k = rng.choice(keys)
                held = cache.load(k)
                if held is not None and held != slots(*held[0]):
                    errors.append((k, held))
                uids = sorted(rng.sample(range(1, 40), rng.randint(1, 15)))
                cache.store(k, slots(*uids), len(uids))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=session, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    entries = cache._entries.values()
    assert cache._size == sum(count for _saved, count in entries) <= 50
    assert all(count == len(saved[0]) for saved, count in entries)
