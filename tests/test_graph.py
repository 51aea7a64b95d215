import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigat.errors import DataError, DomainError
from pigat.graph import ITEM, USER, InteractionEvent, InteractionGraph


def ev(u, i, ts, label=1):
    return InteractionEvent(user_ids=(u,), item_ids=(i,), timestamp=ts, label=label)


def items_of(events):
    return [e.item_ids[0] for e in events]


def test_first_interaction_gets_order_one_on_both_sides():
    g = InteractionGraph()
    first = ev(0, 0, 10)
    g.insert(first)
    assert g.neighbor_events(USER, 0) == [first]
    assert g.neighbor_events(ITEM, 0) == [first]


def test_orders_count_per_head_independently():
    g = InteractionGraph()
    g.insert(ev(0, 0, 1))
    g.insert(ev(1, 0, 2))
    g.insert(ev(0, 1, 3))
    assert items_of(g.neighbor_events(USER, 0)) == [0, 1]  # user 0's second interaction
    assert len(g.neighbor_events(ITEM, 1)) == 1  # item 1's first
    assert [e.user_ids[0] for e in g.neighbor_events(ITEM, 0)] == [0, 1]


def test_twelve_inserts_window_of_ten():
    g = InteractionGraph()
    for t in range(12):
        g.insert(ev(0, t, 100 + t))
    assert items_of(g.neighbor_events(USER, 0)) == list(range(12))
    assert items_of(g.neighbor_events(USER, 0, max_len=10)) == list(range(2, 12))
    assert g.neighbor_events(USER, 0, max_len=0) == []
    with pytest.raises(DomainError):
        g.neighbor_events(USER, 0, max_len=-1)


def test_max_len_longer_than_history():
    g = InteractionGraph()
    g.insert(ev(0, 0, 1))
    assert len(g.neighbor_events(USER, 0, max_len=10)) == 1


def test_unknown_node_is_cold_not_an_error():
    g = InteractionGraph()
    assert g.neighbor_events(USER, 99) == []
    assert g.neighbor_events(ITEM, 99, max_len=3, before=5) == []


def test_out_of_order_timestamp_rejected():
    g = InteractionGraph()
    g.insert(ev(0, 0, 5))
    with pytest.raises(DataError):
        g.insert(ev(0, 1, 4))
    g.insert(ev(0, 1, 5))  # ties are fine and keep arrival order
    assert items_of(g.neighbor_events(USER, 0)) == [0, 1]


def test_frozen_bounds_enforced():
    g = InteractionGraph(num_users=2, num_items=3)
    g.insert(ev(1, 2, 1))
    with pytest.raises(DataError):
        g.insert(ev(2, 0, 2))
    with pytest.raises(DataError):
        g.insert(ev(0, 3, 2))
    assert g.neighbor_events(USER, 0) == []  # a rejected insert leaves no trace


def test_positives_only_checks_every_insert_but_records_positives_alone():
    g = InteractionGraph(num_users=2, num_items=3, positives_only=True)
    g.insert(ev(0, 0, 5))
    g.insert(ev(0, 1, 6, label=0))
    with pytest.raises(DataError):
        g.insert(ev(0, 2, 5, label=0))  # before the negative at 6
    with pytest.raises(DataError):
        g.insert(ev(2, 0, 7, label=0))
    with pytest.raises(DataError):
        g.insert(ev(0, 3, 7, label=0))
    assert items_of(g.neighbor_events(USER, 0)) == [0]
    assert g.neighbor_events(ITEM, 1) == []


def test_snapshot_cutoff_is_strict():
    g = InteractionGraph()
    g.insert(ev(0, 0, 1))
    g.insert(ev(0, 1, 5))
    g.insert(ev(0, 2, 5))
    assert items_of(g.neighbor_events(USER, 0, before=5)) == [0]
    assert items_of(g.neighbor_events(USER, 0, before=6)) == [0, 1, 2]
    # the window is the last max_len of the visible history, not of all of it
    assert items_of(g.neighbor_events(USER, 0, max_len=1, before=5)) == [0]


def test_snapshot_at_infinity_matches_live_graph():
    g = InteractionGraph()
    rng = np.random.default_rng(0)
    for t in range(30):
        g.insert(ev(int(rng.integers(4)), int(rng.integers(6)), t))
    for u in range(4):
        assert g.neighbor_events(USER, u, 10, before=30) == g.neighbor_events(USER, u, 10)
        assert g.neighbor_events(USER, u, before=math.inf) == g.neighbor_events(USER, u)


histories = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 5)),
    min_size=1,
    max_size=40,
).map(lambda h: sorted(h, key=lambda e: e[2]))


@settings(max_examples=60, deadline=None)
@given(histories, st.integers(0, 6))
def test_snapshot_equals_rebuild_on_prefix(history, cutoff):
    g = InteractionGraph()
    for u, i, t in history:
        g.insert(ev(u, i, t))

    rebuilt = InteractionGraph()
    for u, i, t in history:
        if t < cutoff:
            rebuilt.insert(ev(u, i, t))

    for part, count in ((USER, 4), (ITEM, 5)):
        for idx in range(count):
            assert g.neighbor_events(part, idx, 10, before=cutoff) == rebuilt.neighbor_events(part, idx, 10)


@settings(max_examples=40, deadline=None)
@given(histories)
def test_orders_are_gapless_from_one(history):
    g = InteractionGraph()
    events = [ev(u, i, t) for u, i, t in history]
    for e in events:
        g.insert(e)
    for idx in range(4):
        assert g.neighbor_events(USER, idx) == [e for e in events if e.user_ids[0] == idx]
    for idx in range(5):
        assert g.neighbor_events(ITEM, idx) == [e for e in events if e.item_ids[0] == idx]


def test_neighbor_events_expose_payload():
    g = InteractionGraph()
    g.insert(InteractionEvent(user_ids=(0, 5), item_ids=(7, 9), timestamp=1, label=0))
    (event,) = g.neighbor_events(USER, 0)
    assert g.neighbor_events(ITEM, 7) == [event]
    assert event.label == 0 and event.item_ids == (7, 9)
