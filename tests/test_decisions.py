"""The server-wide decision cache: what its key tells apart, and its bound."""

import random
import sys
import threading
from array import array

from chamail import decisions
from chamail.decisions import DecisionCache, decision_key
from chamail.policy import (
    Decision,
    KeywordConstraint,
    KeywordMode,
    PolicySet,
    SenderConstraint,
    SenderMode,
)

V, H = Decision.VISIBLE, Decision.HIDDEN
UPSTREAM = ("imap.example", 993, "person@example.org")
BLACKLIST = PolicySet(sender_constraints=(SenderConstraint(SenderMode.BLACKLIST, "exes"),))
LISTS = {"exes": frozenset({"ex@example.org"}), "work": frozenset({"boss@work.example"})}


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


def test_lookup_reports_hits_and_misses_in_order():
    cache = DecisionCache()
    assert key() not in cache
    assert cache.lookup(key(), [10, 20]) == [None, None]
    cache.store(key(), {10: V, 30: H})
    assert key() in cache
    assert cache.lookup(key(), [30, 20, 10]) == [H, None, V]
    assert cache.lookup(key(uidvalidity=8), [10]) == [None]


def test_eviction_drops_least_recently_used_keys(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 6)
    cache = DecisionCache()
    a, b, c = key("A"), key("B"), key("C")
    cache.store(a, {1: V, 2: V, 3: H})
    cache.store(b, {1: H, 2: H, 3: V})
    cache.lookup(a, [1])  # a is now the most recently used
    cache.store(c, {1: V})
    assert a in cache and c in cache and b not in cache
    assert cache.lookup(a, [1, 2, 3]) == [V, V, H]
    # growing a key counts its new UIDs only
    cache.store(c, {1: V, 2: H})
    assert a in cache and c in cache
    cache.store(c, {3: V, 4: V})
    assert a not in cache and cache.lookup(c, [1, 2, 3, 4]) == [V, H, V, V]


def test_a_key_larger_than_the_cap_is_not_kept(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 5)
    cache = DecisionCache()
    cache.store(key("A"), {1: V})
    cache.store(key("B"), dict.fromkeys(range(6), V))
    assert key("A") not in cache and key("B") not in cache
    assert cache._size == 0


def test_a_layout_is_kept_with_its_entry_and_evicted_with_it(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 4)
    cache = DecisionCache()
    assert cache.layout(key("A")) is None
    cache.store(key("A"), {10: V, 20: H}, array("I", [10, 20]))
    assert cache.layout(key("A")) == array("I", [10, 20])
    cache.store(key("A"), {30: V})  # decisions alone leave the layout as it was
    assert cache.layout(key("A")) == array("I", [10, 20])
    cache.store(key("A"), {}, array("I", [20, 30]))
    assert cache.layout(key("A")) == array("I", [20, 30])
    cache.store(key("B"), {1: V, 2: H})  # A is the least recently used
    assert key("A") not in cache and cache.layout(key("A")) is None
    assert cache._layouts == {}


def test_no_layout_is_kept_for_a_key_larger_than_the_cap(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 5)
    cache = DecisionCache()
    cache.store(key("B"), dict.fromkeys(range(1, 7), V), array("I", range(1, 7)))
    assert key("B") not in cache and cache.layout(key("B")) is None
    assert cache._layouts == {} and cache._size == 0


def test_forgetting_expunged_uids_leaves_the_layout_alone():
    cache = DecisionCache()
    cache.store(key(), {10: V, 20: H, 30: V}, array("I", [10, 20, 30]))
    cache.forget_expunged(key(), [10, 30])
    assert cache.lookup(key(), [10, 20, 30]) == [V, None, V]
    assert cache.layout(key()) == array("I", [10, 20, 30])


def test_forgetting_expunged_uids_keeps_later_arrivals_and_the_count():
    cache = DecisionCache()
    cache.store(key(), {10: V, 20: H, 30: V, 40: H, 50: V, 60: H})
    cache.store(key("A"), {20: V})
    # 20 and 40 were expunged; 60 arrived after the caller's EXISTS
    cache.forget_expunged(key(), [10, 30, 50])
    assert cache.lookup(key(), [10, 20, 30, 40, 50, 60]) == [V, None, V, None, V, H]
    assert cache.lookup(key("A"), [20]) == [V]
    assert cache._size == 5
    cache.forget_expunged(key("B"), [10])
    assert key("B") not in cache and cache._size == 5


def test_concurrent_sessions_keep_the_count_exact(monkeypatch):
    monkeypatch.setattr(decisions, "CAP_UIDS", 50)
    cache = DecisionCache()
    keys = [key(f"box{i}") for i in range(5)]
    errors = []

    def decision_of(uid):
        return V if uid % 3 == 0 else H

    def session(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                k = rng.choice(keys)
                uids = rng.sample(range(40), rng.randint(1, 15))
                for uid, hit in zip(uids, cache.lookup(k, uids)):
                    if hit not in (None, decision_of(uid)):
                        errors.append((k, uid, hit))
                layout = array("I", sorted(uids)) if rng.random() < 0.3 else None
                cache.store(k, {uid: decision_of(uid) for uid in uids}, layout)
                if rng.random() < 0.2:
                    cache.forget_expunged(k, rng.sample(range(40), rng.randint(1, 30)))
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
    assert cache._size == sum(len(entry) for entry in cache._entries.values()) <= 50
    assert set(cache._layouts) <= set(cache._entries)
