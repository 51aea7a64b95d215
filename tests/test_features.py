import numpy as np
import pytest

from pigat.errors import DataError, DomainError, ShapeError
from pigat import features
from pigat.features import (
    Batch,
    EncodedInstance,
    FeatureSchema,
    FieldVocab,
    encode_instance,
    lookup,
    scatter_gradient,
    table_for_side,
    table_init,
    write_schema,
    zero_gradients,
)
from pigat.graph import ITEM, USER, InteractionEvent, InteractionGraph


def toy_schema():
    return FeatureSchema(
        user_fields=[FieldVocab("uid", ["u0", "u1", "u2"]), FieldVocab("seg", ["a", "b"])],
        item_fields=[FieldVocab("iid", ["i0", "i1", "i2", "i3"]), FieldVocab("cat", ["x", "y"])],
        user_width=4,
        item_width=3,
    )


def test_field_blocks_are_disjoint_and_sized():
    s = toy_schema()
    # uid block: 3 values + oov + pad = 5 slots, then seg block of 4.
    assert s.table_size(USER) == 9
    assert s.table_size(ITEM) == 10
    assert s.global_id(USER, 0, "u0") == 0
    assert s.global_id(USER, 1, "a") == 5
    assert s.pad_id(USER, 0) == 4
    assert s.pad_id(USER, 1) == 8


def test_oov_maps_to_reserved_slot():
    s = toy_schema()
    assert s.global_id(USER, 0, "unseen") == 3
    assert s.node_count(USER) == 4  # the OOV identity id is the last graph node


def test_encode_profile_checks_arity():
    s = toy_schema()
    assert s.encode_profile(ITEM, ("i2", "y")) == (2, 7)
    with pytest.raises(DataError):
        s.encode_profile(ITEM, ("i2",))


def test_structural_hash_ignores_vocab_growth_but_not_fields():
    s1 = toy_schema()
    s2 = toy_schema()
    s2.user_fields[0].add("u99")
    assert s1.structural_hash() == s2.structural_hash()
    s3 = toy_schema()
    s3.user_fields[1].name = "device"
    assert s1.structural_hash() != s3.structural_hash()


def test_schema_file_round_trip(tmp_path):
    s = toy_schema()
    path = tmp_path / "schema.txt"
    write_schema(s, str(path))
    lines = [line.split() for line in path.read_text().splitlines()]
    assert [(side, name, int(card)) for side, name, card in lines[:-2]] == s.shape()
    assert lines[-2:] == [["embed", "user", "4"], ["embed", "item", "3"]]


def test_table_init_pins_padding_rows():
    s = toy_schema()
    rng = np.random.default_rng(0)
    table = table_for_side(rng, s, USER)
    assert table.count == 9 and table.width == 4
    np.testing.assert_array_equal(table.weight[4], np.zeros(4))
    np.testing.assert_array_equal(table.weight[8], np.zeros(4))
    assert np.abs(table.weight[0]).max() > 0


def test_lookup_shapes_and_bounds():
    rng = np.random.default_rng(1)
    table = table_init(rng, 6, 3)
    out = lookup(table, np.array([[0, 1], [2, 3]]))
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out[0, 1], table.weight[1])
    with pytest.raises(DomainError):
        lookup(table, np.array([6]))


def test_scatter_accumulates_repeats_and_skips_padding():
    s = toy_schema()
    table = table_for_side(np.random.default_rng(2), s, USER)
    ids = np.array([0, 0, 4])  # slot 4 is uid padding
    up = np.ones((3, 4))
    scatter_gradient(table, ids, up)
    np.testing.assert_array_equal(table.grad[0], 2 * np.ones(4))
    np.testing.assert_array_equal(table.grad[4], np.zeros(4))


def test_zero_gradients_clears_exactly_the_scattered_rows():
    s = toy_schema()
    table = table_for_side(np.random.default_rng(2), s, USER)
    scatter_gradient(table, np.array([3, 0, 4, 3]), np.ones((4, 4)))  # 4 is uid padding
    scatter_gradient(table, np.array([[7], [0]]), np.ones((2, 1, 4)))
    assert table.touched.tolist() == [0, 3, 7]
    table.grad[1] = 5.0  # a row no scatter wrote is not the zeroing's to clear
    zero_gradients(table)
    assert table.touched.size == 0
    assert not np.delete(table.grad, 1, axis=0).any()
    assert (table.grad[1] == 5.0).all()


def test_scatter_shape_check():
    table = table_init(np.random.default_rng(3), 5, 4)
    with pytest.raises(ShapeError):
        scatter_gradient(table, np.array([0, 1]), np.ones((2, 3)))


def _graph_with_history(schema, n_prior, user="u0"):
    g = InteractionGraph()
    items = ["i0", "i1", "i2", "i3"]
    cats = ["x", "y"]
    t = 0
    for j in range(n_prior):
        name = items[j % 4]
        t = j + 1
        g.insert(
            InteractionEvent(
                user_ids=schema.encode_profile(USER, (user, "a")),
                item_ids=schema.encode_profile(ITEM, (name, cats[j % 2])),
                timestamp=t,
                label=1,
            )
        )
    return g, t


def _query_event(schema, ts, user="u0", item="i3"):
    return InteractionEvent(
        user_ids=schema.encode_profile(USER, (user, "a")),
        item_ids=schema.encode_profile(ITEM, (item, "y")),
        timestamp=ts,
        label=1,
    )


def test_encode_cold_start_all_padding():
    s = toy_schema()
    g = InteractionGraph()
    inst = encode_instance(s, _query_event(s, 5), g, 5, k=4)
    assert not inst.user_mask.any() and not inst.item_mask.any()
    assert (inst.user_nbrs[:, 0] == s.pad_id(ITEM, 0)).all()
    assert (inst.user_nbrs[:, 1] == s.pad_id(ITEM, 1)).all()
    assert (inst.item_nbrs == s.pad_id(USER, 0)).all()


def test_encode_two_priors_live_slots_first():
    s = toy_schema()
    g, t = _graph_with_history(s, 2)
    inst = encode_instance(s, _query_event(s, t + 1), g, t + 1, k=4)
    assert inst.user_mask.tolist() == [True, True, False, False]
    # Window position 1 is the earliest: i0 then i1, with their categories.
    np.testing.assert_array_equal(inst.user_nbrs[0], s.encode_profile(ITEM, ("i0", "x")))
    np.testing.assert_array_equal(inst.user_nbrs[1], s.encode_profile(ITEM, ("i1", "y")))
    assert inst.label == 1.0


def test_encode_truncates_to_most_recent_window():
    s = toy_schema()
    g, t = _graph_with_history(s, 12)
    inst = encode_instance(s, _query_event(s, t + 1), g, t + 1, k=10)
    assert inst.user_mask.all()
    # Interactions 3..12 survive; their item names cycle i0..i3.
    want_first = s.encode_profile(ITEM, ("i2", "x"))
    np.testing.assert_array_equal(inst.user_nbrs[0], want_first)


def test_encode_item_side_carries_user_identity_only():
    s = toy_schema()
    g, t = _graph_with_history(s, 3, user="u1")
    # u1 interacted with i0, i1, i2; now query (u2, i1): i1 has one prior user.
    q = _query_event(s, t + 1, user="u2", item="i1")
    inst = encode_instance(s, q, g, t + 1, k=4)
    assert inst.item_mask.tolist() == [True, False, False, False]
    assert inst.item_nbrs[0] == s.global_id(USER, 0, "u1")


def test_encode_positives_only_filters_before_truncation():
    s = toy_schema()
    g = InteractionGraph()
    seq = [("i0", 1), ("i1", 0), ("i2", 1), ("i3", 0)]
    for t, (name, label) in enumerate(seq, start=1):
        g.insert(
            InteractionEvent(
                user_ids=s.encode_profile(USER, ("u0", "a")),
                item_ids=s.encode_profile(ITEM, (name, "x")),
                timestamp=t,
                label=label,
            )
        )
    inst = encode_instance(s, _query_event(s, 9), g, 9, k=2, positives_only=True)
    np.testing.assert_array_equal(inst.user_nbrs[0], s.encode_profile(ITEM, ("i0", "x")))
    np.testing.assert_array_equal(inst.user_nbrs[1], s.encode_profile(ITEM, ("i2", "x")))


def test_encoding_is_leakage_free():
    s = toy_schema()
    g, t = _graph_with_history(s, 5)
    q = _query_event(s, 3)  # encode mid-history: only priors at t < 3 visible
    got = encode_instance(s, q, g, 3, k=4)

    truncated, _ = _graph_with_history(s, 2)  # rebuild with later records deleted
    want = encode_instance(s, q, truncated, 3, k=4)
    np.testing.assert_array_equal(got.user_nbrs, want.user_nbrs)
    np.testing.assert_array_equal(got.user_mask, want.user_mask)
    np.testing.assert_array_equal(got.item_nbrs, want.item_nbrs)


def test_batch_stacking_and_take():
    s = toy_schema()
    g, t = _graph_with_history(s, 3)
    insts = [
        encode_instance(s, _query_event(s, t + 1), g, t + 1, k=4),
        encode_instance(s, _query_event(s, t + 2, user="u2"), g, t + 2, k=4),
    ]
    batch = Batch.from_instances(insts)
    assert len(batch) == 2
    assert batch.user_nbrs.shape == (2, 4, 2)
    sub = batch.take(np.array([1]))
    np.testing.assert_array_equal(sub.user_ids[0], insts[1].user_ids)
    with pytest.raises(DataError):
        Batch.from_instances([])
