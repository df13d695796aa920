"""Virtual sequence renumbering: frozen examples plus a shadow-model property."""

from array import array

import pytest
from hypothesis import given, strategies as st

from chamail.errors import InconsistentInput, UnknownSeq
from chamail.imapcodec import parse_sequence_set
from chamail.policy import Decision
from chamail.viewmap import ViewMap

V, H = Decision.VISIBLE, Decision.HIDDEN


def make_view(pattern: str, uidvalidity: int = 4242) -> ViewMap:
    """Build from a pattern like 'VVHVHV'; uids are 10, 20, 30, ..."""
    rows = [
        (i + 1, (i + 1) * 10, V if c == "V" else H) for i, c in enumerate(pattern)
    ]
    return ViewMap(rows, uidvalidity)


# the six-message shape: messages 3 and 5 hidden
MIXED = "VVHVHV"


def test_counts():
    view = make_view(MIXED)
    assert view.exists() == 4
    assert view.upstream_exists() == 6
    assert view.uidvalidity == 4242


def test_entries_are_contiguous():
    view = make_view(MIXED)
    assert view.entries() == [(1, 1, 10), (2, 2, 20), (3, 4, 40), (4, 6, 60)]


def test_uid_partition():
    view = make_view(MIXED)
    assert view.visible_uids() == (10, 20, 40, 60)
    assert view.hidden_uids() == frozenset({30, 50})
    assert view.filter_uids([40, 30, 99]) == [40]


def test_map_down():
    view = make_view(MIXED)
    assert view.map_down_seq(1) == 1
    assert view.map_down_seq(3) is None
    assert view.map_down_seq(4) == 3
    assert view.map_down_seq(6) == 4
    with pytest.raises(UnknownSeq):
        view.map_down_seq(7)
    with pytest.raises(UnknownSeq):
        view.map_down_seq(0)


def test_map_up():
    """Each client range becomes one upstream range between its first and
    last visible messages; hidden messages inside it are asked for too."""
    view = make_view(MIXED)
    assert view.map_up(parse_sequence_set("1:4")).render() == "1:6"
    assert view.map_up(parse_sequence_set("2:3")).render() == "2:4"
    assert view.map_up(parse_sequence_set("*")).render() == "6"
    assert view.map_up(parse_sequence_set("3:*")).render() == "4:6"
    assert view.map_up(parse_sequence_set("1,3,9")).render() == "1,4"
    assert view.map_up(parse_sequence_set("9:2")).render() == "2:6"


def test_map_up_uids_resolves_star_to_largest_visible():
    view = make_view(MIXED + "H")  # uid 70 hidden
    assert view.map_up_uids(parse_sequence_set("65:*")).render() == "65:60"
    assert view.map_up_uids(parse_sequence_set("1:100000")).render() == "1:100000"
    assert view.map_up_uids(parse_sequence_set("*")).render() == "60"
    assert make_view("HH").map_up_uids(parse_sequence_set("1:*")).ranges == ()


def test_map_up_out_of_range_is_empty():
    view = make_view(MIXED)
    assert view.map_up(parse_sequence_set("9")).ranges == ()
    assert make_view("HH").map_up(parse_sequence_set("1:*")).ranges == ()


def test_filter_uids_keeps_order():
    view = make_view(MIXED)
    assert view.filter_uids([60, 30, 10, 50, 99]) == [60, 10]


def test_expunge_hidden_is_silent():
    view = make_view(MIXED)
    assert view.apply_upstream_expunge(3) is None  # uid 30, hidden
    assert view.upstream_exists() == 5
    assert view.exists() == 4
    # seqs above the gap shifted down
    assert view.entries() == [(1, 1, 10), (2, 2, 20), (3, 3, 40), (4, 5, 60)]


def test_expunge_visible_returns_virtual_seq():
    view = make_view(MIXED)
    assert view.apply_upstream_expunge(4) == 3  # uid 40 was virtual 3
    assert view.exists() == 3
    assert view.visible_uids() == (10, 20, 60)


def test_expunge_out_of_range():
    view = make_view("VV")
    with pytest.raises(UnknownSeq):
        view.apply_upstream_expunge(3)


def test_extend_announces_only_visible_arrivals():
    view = make_view(MIXED)
    assert view.extend_on_new([(7, 70, H)]) is None
    assert view.exists() == 4
    assert view.extend_on_new([(8, 80, V), (9, 90, H)]) == 5
    assert view.visible_uids() == (10, 20, 40, 60, 80)


def test_extend_rejects_gaps():
    view = make_view("VV")
    with pytest.raises(InconsistentInput):
        view.extend_on_new([(4, 40, V)])


def test_build_rejects_non_contiguous_input():
    with pytest.raises(InconsistentInput):
        ViewMap([(1, 10, V), (3, 30, V)], 1)


def test_a_uid_not_above_the_last_is_refused():
    """The bisects rely on UIDs ascending with seq (RFC 3501 §2.3.1.1)."""
    for rows in ([(1, 10, V), (2, 10, H)], [(1, 20, H), (2, 10, V)]):
        with pytest.raises(InconsistentInput):
            ViewMap(rows, 1)
    view = make_view("VH")
    for uid in (20, 15):
        with pytest.raises(InconsistentInput):
            view.extend_on_new([(3, uid, V)])
    assert view.slots() == make_view("VH").slots()


def test_empty_mailbox():
    view = ViewMap([], 1)
    assert view.exists() == 0
    assert view.upstream_exists() == 0
    assert view.entries() == []
    assert view.map_up(parse_sequence_set("1:*")).ranges == ()


# -- shadow model -------------------------------------------------------------
#
# The same bookkeeping, recomputed from scratch after every operation.


def shadow_entries(rows):
    out = []
    virtual = 0
    for upstream, (uid, visible) in enumerate(rows, start=1):
        if visible:
            virtual += 1
            out.append((virtual, upstream, uid))
    return out


ops = st.lists(
    st.one_of(
        st.tuples(st.just("expunge"), st.integers(1, 30)),
        st.tuples(st.just("extend"), st.lists(st.booleans(), min_size=1, max_size=4)),
    ),
    max_size=12,
)


@given(st.lists(st.booleans(), max_size=12), ops)
def test_incremental_equals_rebuild(initial, operations):
    next_uid = 1000
    rows = []
    for visible in initial:
        rows.append((next_uid, visible))
        next_uid += 7
    view = ViewMap(
        [(i + 1, uid, V if vis else H) for i, (uid, vis) in enumerate(rows)], 1
    )

    for op in operations:
        if op[0] == "expunge":
            if not rows:
                continue
            seq = (op[1] - 1) % len(rows) + 1
            uid, was_visible = rows[seq - 1]
            expected = None
            if was_visible:
                expected = sum(1 for u, vis in rows[:seq] if vis)
            assert view.apply_upstream_expunge(seq) == expected
            del rows[seq - 1]
        else:
            batch = []
            for visible in op[1]:
                rows.append((next_uid, visible))
                batch.append((len(rows), next_uid, V if visible else H))
                next_uid += 7
            announced = view.extend_on_new(batch)
            if any(vis for _, vis in rows[len(rows) - len(batch):]):
                assert announced == sum(1 for _, vis in rows if vis)
            else:
                assert announced is None

        # incremental state must equal a from-scratch rebuild...
        rebuilt = ViewMap(
            [(i + 1, uid, V if vis else H) for i, (uid, vis) in enumerate(rows)], 1
        )
        assert view.entries() == rebuilt.entries() == shadow_entries(rows)
        # ...virtual numbering stays contiguous...
        assert [v for v, _, _ in view.entries()] == list(range(1, view.exists() + 1))
        # ...and the count identity holds
        assert view.exists() + len(view.hidden_uids()) == view.upstream_exists()
        assert view.upstream_exists() == len(rows)


# Arrivals the upstream announces (EXISTS) before the view decides them.
arrival_ops = st.lists(
    st.one_of(
        st.tuples(st.just("expunge"), st.integers(1, 30)),
        st.tuples(st.just("exists"), st.lists(st.booleans(), max_size=4)),
        st.tuples(st.just("extend")),
    ),
    max_size=12,
)


@given(st.lists(st.booleans(), max_size=12), arrival_ops, st.data())
def test_indexed_lookups_follow_updates(initial, operations, data):
    """Every lookup agrees with the shadow model after each update, also
    when lookups were made before the update.
    Announced arrivals stay hidden until an extend decides them; only a
    seq past the announced EXISTS is unknown."""
    next_uid = 1000
    rows = []
    for visible in initial:
        rows.append((next_uid, visible))
        next_uid += 7
    pending = []  # announced, undecided: (uid, the decision extend will make)
    view = ViewMap(
        [(i + 1, uid, V if vis else H) for i, (uid, vis) in enumerate(rows)], 1
    )
    for op in operations:
        view.map_up(parse_sequence_set("1:*"))  # a lookup before each update
        if op[0] == "expunge":
            if not rows and not pending:
                continue
            seq = (op[1] - 1) % (len(rows) + len(pending)) + 1
            expected = None
            if seq <= len(rows):
                if rows[seq - 1][1]:
                    expected = sum(1 for _, vis in rows[:seq] if vis)
                del rows[seq - 1]
            else:
                del pending[seq - len(rows) - 1]
            assert view.apply_upstream_expunge(seq) == expected
        elif op[0] == "exists":
            for visible in op[1]:
                pending.append((next_uid, visible))
                next_uid += 7
            view.note_exists(len(rows) + len(pending))
        else:
            batch = [
                (len(rows) + i, uid, V if vis else H) for i, (uid, vis) in enumerate(pending, 1)
            ]
            rows += pending
            pending = []
            announced = view.extend_on_new(batch)
            visible_count = sum(1 for _, vis in rows if vis)
            assert announced == (visible_count if any(d is V for _, _, d in batch) else None)

        announced_count = len(rows) + len(pending)
        with pytest.raises(UnknownSeq):
            view.map_down_seq(announced_count + 1)
        with pytest.raises(UnknownSeq):
            view.apply_upstream_expunge(announced_count + 1)
        if announced_count:
            with pytest.raises(UnknownSeq):
                view.note_exists(announced_count - 1)
        # the refused calls above changed nothing
        assert view.undecided() == range(len(rows) + 1, announced_count + 1)
        shadow = shadow_entries(rows)
        visible_uids = tuple(uid for _, _, uid in shadow)
        virtual_of = {upstream: virtual for virtual, upstream, _ in shadow}
        assert view.visible_uids() == visible_uids
        assert view.exists() == len(shadow)
        for upstream in range(1, announced_count + 1):
            assert view.map_down_seq(upstream) == virtual_of.get(upstream)
        assert view.filter_uids([uid for uid, _ in rows]) == list(visible_uids)
        number = st.one_of(st.integers(1, len(shadow) + 2).map(str), st.just("*"))
        item = st.one_of(number, st.tuples(number, number).map(":".join))
        asked = parse_sequence_set(",".join(data.draw(st.lists(item, min_size=1, max_size=6))))
        mapped = view.map_up(asked)
        # the visible members are exactly the asked ones, one range per range
        assert [seq for seq in mapped.expand(len(rows)) if seq in virtual_of] == [
            shadow[v - 1][1] for v in asked.expand(len(shadow))
        ]
        assert len(mapped.ranges) <= len(asked.ranges)
        assert mapped.expand(len(rows) + 9) == mapped.expand(len(rows))
        probe = [uid for uid, _ in rows] + [1, next_uid]
        assert view.filter_uids(probe) == [uid for uid in probe if uid in visible_uids]


@given(st.lists(st.booleans(), max_size=12), arrival_ops)
def test_a_view_built_from_saved_slots_replays_like_one_built_row_by_row(initial, operations):
    """Slots copied out of a view build an equal view, which then follows
    expunges and arrivals as one built row by row from the final rows
    would; changing it leaves the saved copy as it was. Its UIDNEXT is
    one above the largest UID it ever showed, which an expunge or a
    hidden arrival never moves."""
    original = make_view("".join("V" if visible else "H" for visible in initial))
    saved = original.slots()
    kept = (array("I", saved[0]), array("I", saved[1]), saved[2])
    view = ViewMap.from_slots(saved, 4242)
    rows = list(zip(original.decided_uids(), initial))
    shown = max((uid for uid, visible in rows if visible), default=0)
    assert view.slots() == saved and view.entries() == original.entries()
    assert not view.undecided()
    next_uid = 10 * (len(rows) + 1)
    pending = []
    for op in operations:
        if op[0] == "expunge":
            if not rows and not pending:
                continue
            seq = (op[1] - 1) % (len(rows) + len(pending)) + 1
            if seq <= len(rows):
                del rows[seq - 1]
            else:
                del pending[seq - len(rows) - 1]
            view.apply_upstream_expunge(seq)
        elif op[0] == "exists":
            for visible in op[1]:
                pending.append((next_uid, visible))
                next_uid += 10
            view.note_exists(len(rows) + len(pending))
        else:
            view.extend_on_new(
                (len(rows) + i, uid, V if vis else H) for i, (uid, vis) in enumerate(pending, 1)
            )
            rows += pending
            shown = max([shown] + [uid for uid, visible in pending if visible])
            pending = []
    rebuilt = ViewMap([(i, uid, V if vis else H) for i, (uid, vis) in enumerate(rows, 1)], 4242)
    assert view.slots()[:2] == rebuilt.slots()[:2]
    assert view.uidnext() == shown + 1 >= rebuilt.uidnext()
    assert view.entries() == rebuilt.entries() == shadow_entries(rows)
    assert view.undecided() == range(len(rows) + 1, len(rows) + len(pending) + 1)
    assert saved == kept
