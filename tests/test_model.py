"""Model forward/backward behavior against independent oracles.

The heavyweight check lives in test_gradcheck (finite differences over
the whole parameter set); here the forward pass is pinned down with a
straight-line scalar reimplementation, frozen constants, and structural
invariants (masking, permutation, determinism, checkpoint round trips).
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pigat.model as model_mod
from pigat.config import TrainConfig
from pigat.data import prepare_dataset
from pigat.errors import DataError, DomainError, UsageError
from pigat.features import ITEM, USER, Batch, EncodedInstance, FeatureSchema, FieldVocab
from pigat.gradcheck import _toy_batch, toy_config, toy_schema
from pigat.nn import LEAKY_SLOPE, FfnParams, glorot_uniform, masked_softmax, masked_softmax_backward
from pigat.synth import SynthSpec, generate
from pigat.model import (
    ATT_HIDDEN,
    AttentionHead,
    CKPT_MAGIC,
    PROB_CLAMP,
    _ffn_layout,
    _head_backward,
    _views,
    attention_logits,
    backward,
    bce_loss,
    forward,
    head_wiring,
    init_params,
    layout,
    load_checkpoint,
    named_parameters,
    pooled_embedding,
    predict,
    save_checkpoint,
    uniform_coefficients,
)
from schema_ids import profile_ids, table_id

# softmax of logits (1, 0); the first entry equals 1 / (1 + e^-1)
DOT_PAIR = (0.7310585786300049, 0.2689414213699951)
# same with the scaled variant on width-2 keys: logits (1/sqrt(2), 0)
SCALED_PAIR = (0.6697615493266569, 0.3302384506733431)
LN2 = 0.6931471805599453


def make_head(rng, kind, q_width, k_width) -> AttentionHead:
    """A head drawn as the model draws one: glorot weights layer by layer, zero biases."""
    if kind in ATT_HIDDEN:
        dims = [q_width + k_width, *ATT_HIDDEN[kind], 1]
        weights = tuple(glorot_uniform(rng, d_out, d_in) for d_in, d_out in zip(dims, dims[1:]))
        return AttentionHead(kind, ffn=FfnParams(weights, tuple(np.zeros(d) for d in dims[1:])))
    if q_width == k_width:
        return AttentionHead(kind)
    return AttentionHead(kind, proj_w=glorot_uniform(rng, k_width, q_width), proj_b=np.zeros(k_width))


def tiny_schema() -> FeatureSchema:
    return FeatureSchema(
        fields={USER: [FieldVocab("uid", ["a", "b"])], ITEM: [FieldVocab("iid", ["p", "q", "r"])]},
        widths={USER: 2, ITEM: 2},
    )


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        confidence="fce",
        attention="dot",
        max_neighbors=2,
        user_embed_width=2,
        item_embed_width=2,
        hidden_width=3,
        dropout=0.0,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def tiny_batch(schema: FeatureSchema) -> Batch:
    """Two hand-built instances: full windows, and partial/cold windows."""
    gid_u = lambda v: table_id(schema, USER, 0, v)
    gid_i = lambda v: table_id(schema, ITEM, 0, v)
    pad_u, pad_i = schema.pad_id(USER, 0), schema.pad_id(ITEM, 0)
    full = EncodedInstance(
        user_ids=np.array([gid_u("a")]),
        item_ids=np.array([gid_i("p")]),
        user_nbrs=np.array([[gid_i("q")], [gid_i("r")]]),
        user_mask=np.array([True, True]),
        item_nbrs=np.array([gid_u("a"), gid_u("b")]),
        item_mask=np.array([True, True]),
        label=1.0,
    )
    sparse = EncodedInstance(
        user_ids=np.array([gid_u("b")]),
        item_ids=np.array([gid_i("q")]),
        user_nbrs=np.array([[gid_i("p")], [pad_i]]),
        user_mask=np.array([True, False]),
        item_nbrs=np.array([pad_u, pad_u]),
        item_mask=np.array([False, False]),
        label=0.0,
    )
    return Batch.from_instances([full, sparse])


def straightline_prob(params, batch: Batch, idx: int) -> float:
    """Scalar reimplementation of the forward pass with explicit loops.

    Deliberately shares no helpers with the model module: plain floats,
    list comprehensions, and math.exp, so a bookkeeping error in the
    vectorized code cannot hide here.
    """

    def row(table, gid):
        return [float(v) for v in table.weight[int(gid)]]

    e_u = [x for gid in batch.ids[USER][idx] for x in row(params.tables[USER], gid)]
    e_i = [x for gid in batch.ids[ITEM][idx] for x in row(params.tables[ITEM], gid)]

    def user_window():
        ids, mask, conf = batch.nbrs[USER][idx], batch.mask[USER][idx], params.views["conf_user"]
        live = int(mask.sum())
        slots = []
        for s in range(ids.shape[0]):
            vec = [x for gid in ids[s] for x in row(params.tables[ITEM], gid)]
            if mask[s]:
                vec = [v + float(conf[live - 1, s, j]) for j, v in enumerate(vec)]
            slots.append(vec)
        return slots, [bool(m) for m in mask]

    def item_window():
        ids, mask, conf = batch.nbrs[ITEM][idx], batch.mask[ITEM][idx], params.views["conf_item"]
        live = int(mask.sum())
        slots = []
        for s in range(ids.shape[0]):
            vec = row(params.tables[USER], ids[s])
            if mask[s]:
                vec = [v + float(conf[live - 1, s, j]) for j, v in enumerate(vec)]
            slots.append(vec)
        return slots, [bool(m) for m in mask]

    un, umask = user_window()
    inn, imask = item_window()

    def attend(query, slots, mask):
        logits = [sum(q * s for q, s in zip(query, slot)) for slot in slots]
        live = [l for l, m in zip(logits, mask) if m]
        if not live:
            return [0.0] * len(slots)
        top = max(live)
        exps = [math.exp(l - top) if m else 0.0 for l, m in zip(logits, mask)]
        total = sum(exps)
        return [e / total for e in exps]

    def pool(weights, slots):
        return [sum(w * s[j] for w, s in zip(weights, slots)) for j in range(len(slots[0]))]

    p_ui = pool(attend(e_u, un, umask), un)
    p_ua = pool(attend(e_i, un, umask), un)
    p_ii = pool(attend(e_i, inn, imask), inn)
    p_ia = pool(attend(e_u, inn, imask), inn)

    def leaky(v):
        return v if v > 0.0 else 0.01 * v

    def affine(w, b, x):
        return [float(b[h]) + sum(float(w[h, j]) * x[j] for j in range(len(x))) for h in range(w.shape[0])]

    merged = (
        [leaky(v) for v in affine(*params.integrate["int_user"], e_u + p_ui)]
        + [leaky(v) for v in affine(*params.integrate["int_item"], e_i + p_ii)]
        + [leaky(v) for v in affine(*params.integrate["adp_user"], p_ui + p_ua)]
        + [leaky(v) for v in affine(*params.integrate["adp_item"], p_ii + p_ia)]
    )
    x = merged
    last = len(params.mlp.weights) - 1
    for li, (w, b) in enumerate(zip(params.mlp.weights, params.mlp.biases)):
        x = affine(w, b, x) if li == last else [leaky(v) for v in affine(w, b, x)]
    prob = 1.0 / (1.0 + math.exp(-x[0]))
    return min(max(prob, 1e-7), 1.0 - 1e-7)


def attention_weights(head, query, keys, mask):
    """Softmax weights of one window, through the batched scoring path."""
    logits, _ = attention_logits(head, query[None], keys[None], slice(None), train=False)
    return masked_softmax(logits, mask[None])[0]


class TestAttentionScores:
    def test_dot_orthogonal_keys_frozen_weights(self):
        head = AttentionHead("dot")
        query = np.array([1.0, 0.0])
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights = attention_weights(head, query, keys, np.array([True, True]))
        assert np.allclose(weights, DOT_PAIR, rtol=0, atol=1e-15)

    def test_scaled_dot_divides_by_root_width(self):
        head = AttentionHead("scaled-dot")
        query = np.array([1.0, 0.0])
        keys = np.array([[1.0, 0.0], [0.0, 1.0]])
        weights = attention_weights(head, query, keys, np.array([True, True]))
        assert np.allclose(weights, SCALED_PAIR, rtol=0, atol=1e-15)

    def test_identical_keys_split_evenly(self):
        head = AttentionHead("dot")
        query = np.array([0.3, -0.7])
        keys = np.stack([np.array([0.2, 0.9])] * 2)
        weights = attention_weights(head, query, keys, np.array([True, True]))
        assert np.allclose(weights, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_single_live_slot_takes_all_weight(self):
        head = AttentionHead("dot")
        query = np.array([2.0, 1.0])
        keys = np.array([[0.4, 0.1], [9.0, 9.0]])
        weights = attention_weights(head, query, keys, np.array([True, False]))
        assert weights[0] == 1.0 and weights[1] == 0.0

    def test_projected_query_matches_loop(self):
        rng = np.random.default_rng(4)
        head = make_head(rng, "scaled-dot", q_width=3, k_width=2)
        head.proj_b[:] = rng.normal(size=2)
        query = rng.normal(size=(2, 3))
        keys = rng.normal(size=(2, 4, 2))
        logits, _ = attention_logits(head, query, keys, slice(None), train=False)
        for b in range(2):
            proj = [
                float(head.proj_b[o]) + sum(float(head.proj_w[o, j]) * query[b, j] for j in range(3))
                for o in range(2)
            ]
            for s in range(4):
                want = sum(proj[o] * keys[b, s, o] for o in range(2)) / math.sqrt(2.0)
                assert abs(logits[b, s] - want) < 1e-12


def concat_head_reference(head, query, keys, d_logits, mag=lambda a: a):
    """An ffn head scored the direct way: [query || key] per slot, np.where leaky-relu.

    Returns the logits, the parameter gradients as {"w0": ..., "b0": ...},
    and the input gradients (d_keys, d_query). With mag=np.abs every operand
    enters by its magnitude, so each output becomes a bound on the rounding
    error of the same output computed in any summation order.
    """
    ws, bs, slope = [mag(w) for w in head.ffn.weights], [mag(b) for b in head.ffn.biases], LEAKY_SLOPE
    query, keys, d_logits = mag(query), mag(keys), mag(d_logits)
    k, qw = keys.shape[1], query.shape[1]
    inputs = [np.concatenate([np.repeat(query[:, None, :], k, axis=1), keys], axis=2)]
    pres = []
    for i, (w, b) in enumerate(zip(ws, bs)):
        pres.append(inputs[-1] @ w.T + b)
        inputs.append(pres[-1] if i == len(ws) - 1 else np.where(pres[-1] >= 0.0, pres[-1], slope * pres[-1]))
    grads = {}
    g = d_logits[:, :, None]
    for i in reversed(range(len(ws))):
        if i != len(ws) - 1:
            g = g * np.where(pres[i] >= 0.0, 1.0, slope)
        grads[f"w{i}"] = np.einsum("bko,bki->oi", g, inputs[i])
        grads[f"b{i}"] = g.sum(axis=(0, 1))
        g = g @ ws[i]
    return inputs[-1][..., 0], grads, g[:, :, qw:], g[:, :, :qw].sum(axis=1)


def assert_equal_to_rounding(got, want, magnitude):
    """float64 rounding of sums this small stays far below 1e-12 of the operand magnitude."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * magnitude), (got, want)


class TestFfnHeadAgainstConcatReference:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ATT_HIDDEN)),
        q_width=st.integers(1, 6),
        k_width=st.integers(1, 6),
        window=st.integers(1, 5),
        lengths=st.lists(st.integers(0, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_logits_and_gradients_match(self, kind, q_width, k_width, window, lengths, seed):
        rng = np.random.default_rng(seed)
        head = make_head(rng, kind, q_width, k_width)
        for b in head.ffn.biases:
            b[:] = rng.normal(size=b.shape)
        n = len(lengths)
        mask = np.arange(window)[None, :] < np.minimum(lengths, window)[:, None]  # rows may be all dead
        query = rng.normal(size=(n, q_width))
        keys = rng.normal(size=(n, window, k_width))

        logits, cache = attention_logits(head, query, keys, slice(None), train=True)
        d_logits = masked_softmax_backward(masked_softmax(logits, mask), rng.normal(size=(n, window)))
        # Views of one NaN-filled store, as the model passes them: each must be overwritten.
        shapes = _ffn_layout("att_ui", [q_width + k_width, *ATT_HIDDEN[kind], 1])
        grads = _views(np.full(sum(map(math.prod, shapes.values())), np.nan), shapes)
        d_keys, d_query = _head_backward(head, "ui", cache, query, keys, d_logits, grads, slice(None))

        want_logits, want_grads, want_d_keys, want_d_query = concat_head_reference(head, query, keys, d_logits)
        mag_logits, mag_grads, mag_d_keys, mag_d_query = concat_head_reference(
            head, query, keys, d_logits, mag=np.abs
        )
        assert_equal_to_rounding(logits, want_logits, mag_logits)
        assert_equal_to_rounding(d_keys, want_d_keys, mag_d_keys)
        assert_equal_to_rounding(d_query, want_d_query, mag_d_query)
        assert set(grads) == {f"att_ui.{name}" for name in want_grads}
        for name, want in want_grads.items():
            assert_equal_to_rounding(grads[f"att_ui.{name}"], want, mag_grads[name])


class TestPooling:
    def test_pooled_embedding_matches_loop(self):
        rng = np.random.default_rng(1)
        weights = rng.random((3, 4))
        values = rng.normal(size=(3, 4, 5))
        out = pooled_embedding(weights, values)
        for b in range(3):
            for j in range(5):
                want = sum(weights[b, s] * values[b, s, j] for s in range(4))
                assert abs(out[b, j] - want) < 1e-12

    def test_uniform_coefficients_share_live_slots(self):
        mask = np.array([[True, True, False], [False, False, False]])
        got = uniform_coefficients(mask)
        assert np.allclose(got[0], [0.5, 0.5, 0.0], rtol=0, atol=0)
        assert np.all(got[1] == 0.0)

    def test_average_pooling_is_masked_mean(self):
        config = tiny_config(pooling="average")
        schema = tiny_schema()
        params = init_params(np.random.default_rng(2), schema, config)
        batch = tiny_batch(schema)
        state = forward(params, batch)
        live = state.aug[USER][1][batch.mask[USER][1]]
        assert np.allclose(state.pools["ui"][1], live.mean(axis=0), rtol=0, atol=1e-15)
        assert np.all(state.pools["ii"][1] == 0.0)  # cold window pools to zero


class TestForwardOracle:
    @pytest.mark.parametrize("confidence", ["none", "pe", "fce", "rce", "ce"])
    def test_full_forward_matches_straightline(self, confidence):
        config = tiny_config(confidence=confidence)
        schema = tiny_schema()
        params = init_params(np.random.default_rng(7), schema, config)
        batch = tiny_batch(schema)
        state = forward(params, batch)
        for idx in range(len(batch)):
            want = straightline_prob(params, batch, idx)
            assert abs(state.prob[idx] - want) < 1e-12

    def test_average_pooling_matches_uniform_straightline(self):
        # With equal weights forced, attention and the oracle's uniform
        # coefficients coincide when every key is identical.
        config = tiny_config(pooling="average")
        schema = tiny_schema()
        params = init_params(np.random.default_rng(9), schema, config)
        batch = tiny_batch(schema)
        state = forward(params, batch)
        for name in ("ui", "ua", "ii", "ia"):
            side = USER if name in ("ui", "ua") else ITEM
            # The weights hold the rows state.rows selects for the head's window side.
            for weights, mask in zip(state.weights[name], batch.mask[side][state.rows[side]], strict=True):
                live = mask.sum()
                assert np.allclose(weights[mask], (1.0 / live if live else 0.0), rtol=0, atol=0)

    def test_eval_forward_is_deterministic(self):
        config = tiny_config()
        schema = tiny_schema()
        params = init_params(np.random.default_rng(3), schema, config)
        batch = tiny_batch(schema)
        assert np.array_equal(predict(params, batch), predict(params, batch))

    def test_user_query_only_rewires_adaptive_heads(self):
        assert head_wiring(tiny_config(user_query_only=True)) == {
            "ui": (USER, USER),
            "ua": (USER, USER),
            "ii": (ITEM, USER),
            "ia": (ITEM, USER),
        }
        schema = tiny_schema()
        batch = tiny_batch(schema)
        rewired = init_params(np.random.default_rng(5), schema, tiny_config(user_query_only=True))
        default = init_params(np.random.default_rng(5), schema, tiny_config())
        assert not np.array_equal(predict(rewired, batch), predict(default, batch))


@pytest.fixture(scope="module")
def scored_setup():
    """Params and a prepared train split for an ffn-3 model with batch_size 32."""
    config = TrainConfig(
        attention="ffn-3",
        confidence="ce",
        max_neighbors=8,
        user_embed_width=8,
        item_embed_width=8,
        hidden_width=16,
        batch_size=32,
        seed=2,
    ).validate()
    log, _ = generate(SynthSpec(users=12, items=20, events=200, exponent=1.0, seed=7))
    data = prepare_dataset(log, config)
    params = init_params(np.random.default_rng(4), data.schema, config)
    return params, data.train


def traced_peak(fn):
    """(peak bytes traced while fn runs, fn's result)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, out


class TestChunkedScoring:
    def test_equals_forward_over_batch_size_slices(self, scored_setup):
        params, split = scored_setup
        size = params.config.batch_size
        batch = split.take(slice(0, size * 5 // 2))
        chunks = [
            forward(params, batch.take(slice(start, start + size))).prob
            for start in (0, size, 2 * size)
        ]
        assert [len(c) for c in chunks] == [size, size, size // 2]
        assert predict(params, batch).tobytes() == np.concatenate(chunks).tobytes()

    def test_short_batch_is_one_forward(self, scored_setup):
        params, split = scored_setup
        batch = split.take(np.arange(params.config.batch_size - 3))
        assert predict(params, batch).tobytes() == forward(params, batch).prob.tobytes()

    def test_memory_bounded_by_one_chunk(self, scored_setup):
        params, split = scored_setup
        size = params.config.batch_size
        many = split.take(np.arange(8 * size) % len(split))
        chunks = [many.take(slice(start, start + size)) for start in range(0, len(many), size)]
        predict(params, chunks[0])  # first-call allocations are not the working set
        # Cold window rows skip the window work, and the split's first chunk is its
        # coldest, so one chunk's working set is the largest peak of any chunk.
        one_peak = max(traced_peak(lambda: predict(params, chunk))[0] for chunk in chunks)
        many_peak, probs = traced_peak(lambda: predict(params, many))
        assert len(probs) == 8 * size
        assert many_peak <= 1.5 * one_peak + probs.nbytes


class TestMasking:
    def test_masked_slot_content_never_reaches_output_or_gradients(self):
        config = toy_config(TrainConfig(confidence="ce", attention="ffn-3"))
        schema = toy_schema(config)
        rng = np.random.default_rng(0)
        params = init_params(rng, schema, config)
        batch = _toy_batch(schema, config, rng)
        before = forward(params, batch).prob
        backward(params, forward(params, batch, "train"))
        grads_before = {k: v.copy() for k, v in params.grads.items()}

        # Stuff real profiles into every dead slot; the mask must make
        # forward and backward blind to them.
        filler_item = profile_ids(schema, ITEM, ("i3", "y"))
        filler_user = table_id(schema, USER, 0, "u1")
        tampered = Batch(batch.ids, {side: nbrs.copy() for side, nbrs in batch.nbrs.items()}, batch.mask, batch.labels)
        tampered.nbrs[USER][~batch.mask[USER]] = filler_item
        tampered.nbrs[ITEM][~batch.mask[ITEM]] = filler_user

        after = forward(params, tampered).prob
        assert np.array_equal(before, after)
        backward(params, forward(params, tampered, "train"))
        for name, grad in grads_before.items():
            assert np.array_equal(grad, params.grads[name]), name

    def test_all_masked_windows_produce_finite_outputs(self):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(11), schema, tiny_config())
        batch = tiny_batch(schema)
        state = forward(params, batch)
        assert np.all(np.isfinite(state.prob))
        # An eval forward leaves the cold item window of row 1 out of every head's work.
        assert 1 not in np.arange(len(batch))[state.rows[ITEM]]


def random_batch(schema: FeatureSchema, k: int, lengths: list[tuple[int, int]], rng) -> Batch:
    """Row r has lengths[r] = (user, item) live window slots, live first, padding ids after."""
    n = len(lengths)

    def ids(side, pos, shape):  # any value id of the field, its out-of-vocabulary id included
        return rng.integers(schema.field_base(side, pos), schema.pad_id(side, pos), size=shape)

    fields = {side: range(len(schema.fields[side])) for side in (USER, ITEM)}
    profile = {side: np.stack([ids(side, p, n) for p in fields[side]], axis=1) for side in (USER, ITEM)}
    live = {side: np.arange(k)[None, :] < np.array(lengths)[:, [i]] for i, side in enumerate((USER, ITEM))}
    nbrs = {
        USER: np.stack([np.where(live[USER], ids(ITEM, p, (n, k)), schema.pad_id(ITEM, p)) for p in fields[ITEM]], -1),
        ITEM: np.where(live[ITEM], ids(USER, 0, (n, k)), schema.pad_id(USER, 0)),
    }
    return Batch(profile, nbrs, live, rng.integers(0, 2, size=n).astype(np.float64))


# (user width, item width): the dot heads project the user-window query, the
# item-window query, or both.
COLD_ROW_WIDTHS = [(3, 3), (4, 2), (2, 3)]
NO_COLD, USER_COLD, BOTH_COLD, ONE_ROW = [(3, 2), (1, 3)], [(0, 2), (0, 1)], [(0, 0), (0, 0)], [(2, 0)]
# 64 rows, 13 of them live on both sides: an ffn head's query share, computed
# on the 13 packed query rows rather than on all 64, gives other bytes.
MOSTLY_COLD = [(1 + r % 3, 3 - r % 2) if r % 5 == 0 else (0, 0) for r in range(64)]


class TestColdRows:
    """Window work on only the rows with a live slot gives the bytes of work on every row."""

    @staticmethod
    def _run(params, batch, mode, seed, every_row):
        """forward (and backward in train mode): the state and a copy of every gradient view."""
        with pytest.MonkeyPatch.context() as patched:
            if every_row:
                patched.setattr(model_mod, "window_rows", lambda config, mask, train: slice(None))
            state = forward(params, batch, mode, np.random.default_rng(seed))
            if mode == "train":
                backward(params, state)
        return state, {name: g.tobytes() for name, g in params.grads.items()}

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["dot", "scaled-dot", "average", "ffn-1", "ffn-2", "ffn-3"]),
        confidence=st.sampled_from(["none", "pe", "fce", "rce", "ce"]),
        user_query_only=st.booleans(),
        confidence_in_pooling=st.booleans(),
        dropout=st.sampled_from([0.0, 0.3]),
        widths=st.sampled_from(COLD_ROW_WIDTHS),
        lengths=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="dot", confidence="ce", user_query_only=False, confidence_in_pooling=True, dropout=0.0,
             widths=(4, 2), lengths=NO_COLD, seed=0)
    @example(kind="scaled-dot", confidence="rce", user_query_only=True, confidence_in_pooling=False, dropout=0.3,
             widths=(2, 3), lengths=USER_COLD, seed=1)
    @example(kind="dot", confidence="fce", user_query_only=False, confidence_in_pooling=False, dropout=0.0,
             widths=(4, 2), lengths=BOTH_COLD, seed=2)
    @example(kind="average", confidence="ce", user_query_only=False, confidence_in_pooling=True, dropout=0.3,
             widths=(3, 3), lengths=BOTH_COLD, seed=3)
    @example(kind="scaled-dot", confidence="pe", user_query_only=False, confidence_in_pooling=True, dropout=0.0,
             widths=(4, 2), lengths=ONE_ROW, seed=4)
    @example(kind="ffn-3", confidence="ce", user_query_only=False, confidence_in_pooling=True, dropout=0.0,
             widths=(4, 2), lengths=USER_COLD, seed=5)
    @example(kind="ffn-2", confidence="rce", user_query_only=True, confidence_in_pooling=False, dropout=0.3,
             widths=(2, 3), lengths=BOTH_COLD, seed=6)
    @example(kind="ffn-3", confidence="ce", user_query_only=False, confidence_in_pooling=True, dropout=0.0,
             widths=(8, 16), lengths=MOSTLY_COLD, seed=7)
    def test_skipping_cold_rows_changes_no_byte(
        self, kind, confidence, user_query_only, confidence_in_pooling, dropout, widths, lengths, seed
    ):
        attention = {"pooling": "average"} if kind == "average" else {"attention": kind}
        config = TrainConfig(
            confidence=confidence,
            user_query_only=user_query_only,
            confidence_in_pooling=confidence_in_pooling,
            dropout=dropout,
            max_neighbors=3,
            user_embed_width=widths[0],
            item_embed_width=widths[1],
            hidden_width=4,
            **attention,
        ).validate()
        schema = toy_schema(config)
        rng = np.random.default_rng(seed)
        params = init_params(rng, schema, config)
        for view in named_parameters(params).values():
            if view.ndim == 1:  # biases: off zero, so cold rows do not sit on the leaky kinks
                view += rng.normal(size=view.shape)
        batch = random_batch(schema, 3, lengths, rng)
        for mode in ("train", "eval"):
            packed, packed_grads = self._run(params, batch, mode, seed, every_row=False)
            full, full_grads = self._run(params, batch, mode, seed, every_row=True)
            # ffn heads keep every row in training: their weight gradients sum over all of them.
            keeps_all = mode == "train" and kind in ATT_HIDDEN
            if keeps_all:
                assert packed.rows == {USER: slice(None), ITEM: slice(None)}
            for i, side in enumerate((USER, ITEM)):
                live = sum(length[i] > 0 for length in lengths)
                assert len(packed.aug[side]) == (len(lengths) if keeps_all else live)
                # Pooling reads the augmented window itself, or a second one without confidence.
                for state in (packed, full):
                    assert (state.values[side] is state.aug[side]) == confidence_in_pooling
            assert packed.prob.tobytes() == full.prob.tobytes()
            for name, (window, _) in head_wiring(config).items():
                cold = np.ones(len(lengths), dtype=bool)
                cold[packed.rows[window]] = False
                # The packed weights are the every-row weights at the packed rows, whose others are +0.0.
                assert packed.weights[name].tobytes() == full.weights[name][~cold].tobytes(), name
                assert full.weights[name][cold].tobytes() == np.zeros_like(full.weights[name][cold]).tobytes(), name
                assert packed.pools[name].tobytes() == full.pools[name].tobytes(), name
            if mode == "train":
                for name, grad in full_grads.items():
                    assert packed_grads[name] == grad, name


class TestPermutation:
    @staticmethod
    def _swap_window_slots(batch: Batch, perm) -> Batch:
        nbrs, mask = batch.nbrs[USER].copy(), batch.mask[USER].copy()
        nbrs[0], mask[0] = nbrs[0][perm], mask[0][perm]
        return Batch(batch.ids, {**batch.nbrs, USER: nbrs}, {**batch.mask, USER: mask}, batch.labels)

    def test_no_confidence_ignores_slot_order(self):
        config = toy_config(TrainConfig(confidence="none", attention="ffn-2"))
        schema = toy_schema(config)
        rng = np.random.default_rng(1)
        params = init_params(rng, schema, config)
        batch = _toy_batch(schema, config, rng)
        base = forward(params, batch).prob
        swapped = forward(params, self._swap_window_slots(batch, [2, 0, 3, 1])).prob
        assert np.max(np.abs(base - swapped)) < 1e-10

    def test_positional_confidence_sees_slot_order(self):
        config = toy_config(TrainConfig(confidence="fce", attention="ffn-2"))
        schema = toy_schema(config)
        rng = np.random.default_rng(1)
        params = init_params(rng, schema, config)
        batch = _toy_batch(schema, config, rng)
        base = forward(params, batch).prob
        swapped = forward(params, self._swap_window_slots(batch, [2, 0, 3, 1])).prob
        assert np.max(np.abs(base - swapped)) > 1e-6


class TestLossAndModes:
    def test_uninformative_probability_costs_ln2(self):
        prob = np.array([0.5, 0.5, 0.5])
        labels = np.array([1.0, 0.0, 1.0])
        assert abs(bce_loss(prob, labels) - LN2) < 1e-15

    def test_loss_rejects_mismatched_shapes(self):
        with pytest.raises(DataError):
            bce_loss(np.array([0.5, 0.5]), np.array([1.0]))

    def test_bad_mode_rejected(self):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(0), schema, tiny_config())
        with pytest.raises(DomainError):
            forward(params, tiny_batch(schema), mode="test")

    @pytest.mark.parametrize("attention", ["ffn-3", "dot"])
    def test_backward_rejects_an_eval_state(self, attention):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(0), schema, tiny_config(attention=attention))
        batch = tiny_batch(schema)
        state = forward(params, batch, mode="eval")
        assert all(cache is None for cache in state.caches.values())
        assert state.mlp_cache is None and all(s is None for s in state.int_states.values())
        assert state.clamp_active is None  # only backward reads it
        with pytest.raises(UsageError, match="train mode"):
            backward(params, state)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([np.nan, 0.0, -0.0, 1.0, PROB_CLAMP, 1.0 - PROB_CLAMP, np.inf, -np.inf]),
                st.floats(0.0, 1.0),
            ),
            min_size=2,
            max_size=2,
        )
    )
    def test_output_clamp_gives_the_bytes_of_np_clip(self, raw):
        # The sigmoid's output is replaced by drawn values, nan included.
        schema = tiny_schema()
        params = init_params(np.random.default_rng(0), schema, tiny_config())
        raw = np.array(raw)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(model_mod, "sigmoid", lambda logits: raw.copy())
            states = {mode: forward(params, tiny_batch(schema), mode=mode) for mode in ("eval", "train")}
        want = np.clip(raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
        for state in states.values():
            assert state.prob.tobytes() == want.tobytes()
        active = (raw > PROB_CLAMP) & (raw < 1.0 - PROB_CLAMP)
        assert states["train"].clamp_active.tobytes() == active.tobytes()

    @pytest.mark.parametrize("attention", ["ffn-3", "ffn-1", "dot"])
    def test_a_second_backward_on_one_state_raises(self, attention):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(0), schema, tiny_config(attention=attention))
        batch = tiny_batch(schema)
        state = forward(params, batch, mode="train")
        backward(params, state)
        assert state.mode == "consumed"
        assert all(cache is None for cache in state.caches.values())  # each head's cache went with its backward
        grads = {name: g.tobytes() for name, g in params.grads.items()}
        with pytest.raises(UsageError, match="not yet consumed, got a 'consumed' state"):
            backward(params, state)
        assert {name: g.tobytes() for name, g in params.grads.items()} == grads  # the refused call wrote nothing
        backward(params, forward(params, batch, mode="train"))
        assert {name: g.tobytes() for name, g in params.grads.items()} == grads

    def test_leaky_layers_keep_only_the_sign_of_their_pre_activation(self):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(0), schema, tiny_config(attention="ffn-3"))
        state = forward(params, tiny_batch(schema), mode="train")
        signs = [sign for _, sign in state.int_states.values()] + state.mlp_cache.signs
        signs += [sign for cache in state.caches.values() for sign in cache.signs]
        assert len(signs) == 4 + 2 + 4 * 2
        assert all(sign.dtype == bool for sign in signs)

    def test_dropout_training_needs_generator(self):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(0), schema, tiny_config(dropout=0.4))
        batch = tiny_batch(schema)
        with pytest.raises(UsageError):
            forward(params, batch, mode="train")
        a = forward(params, batch, mode="train", rng=np.random.default_rng(5)).prob
        b = forward(params, batch, mode="train", rng=np.random.default_rng(5)).prob
        assert np.array_equal(a, b)

    def test_dropout_gradients_match_differences_under_fixed_masks(self):
        schema = tiny_schema()
        params = init_params(np.random.default_rng(2), schema, tiny_config(dropout=0.3))
        batch = tiny_batch(schema)

        def loss():
            st = forward(params, batch, mode="train", rng=np.random.default_rng(17))
            return bce_loss(st.prob, batch.labels)

        state = forward(params, batch, mode="train", rng=np.random.default_rng(17))
        backward(params, state)
        flat = params.mlp.weights[0].reshape(-1)
        g_flat = params.grads["mlp.w0"].reshape(-1)
        for c in (0, 7, 23):
            keep = flat[c]
            flat[c] = keep + 1e-6
            up = loss()
            flat[c] = keep - 1e-6
            down = loss()
            flat[c] = keep
            fd = (up - down) / 2e-6
            assert abs(fd - g_flat[c]) < 1e-6 + 1e-4 * abs(fd)


def offset_in(flat, view) -> int:
    """Where view starts in flat's memory, in elements."""
    return (view.__array_interface__["data"][0] - flat.__array_interface__["data"][0]) // flat.itemsize


def assert_tiles(flat, views):
    """The views cover flat exactly, in order, each contiguous, with no gap or overlap."""
    owner = flat if flat.base is None else flat.base
    offset = 0
    for name, view in views.items():
        assert view.base is owner and view.flags.c_contiguous, name
        assert offset_in(flat, view) == offset, name
        offset += view.size
    assert offset == flat.size


def model_arrays(p) -> dict:
    """Every array the model computes with, by layout name, read off its tables, heads and layers.

    forward reads the confidence rows from views, so they come from there.
    """
    arrays = {f"{side}_table": p.tables[side].weight for side in (USER, ITEM)}
    arrays |= {f"conf_{side}": p.views[f"conf_{side}"] for side in (USER, ITEM)}
    for name, head in p.heads.items():
        if head.ffn is not None:
            for i, (w, b) in enumerate(zip(head.ffn.weights, head.ffn.biases)):
                arrays |= {f"att_{name}.w{i}": w, f"att_{name}.b{i}": b}
        if head.proj_w is not None:
            arrays |= {f"att_{name}.proj_w": head.proj_w, f"att_{name}.proj_b": head.proj_b}
    for name, (w, b) in p.integrate.items():
        arrays |= {f"{name}.w": w, f"{name}.b": b}
    for i, (w, b) in enumerate(zip(p.mlp.weights, p.mlp.biases)):
        arrays |= {f"mlp.w{i}": w, f"mlp.b{i}": b}
    return arrays


def assert_store_layout(p):
    """The model's arrays tile store in layout order; dense is the slice of it after the tables."""
    arrays = model_arrays(p)
    assert_tiles(p.store, {name: arrays[name] for name in layout(p.schema, p.config)})
    assert_tiles(p.dense, {n: a for n, a in named_parameters(p).items() if not n.endswith("_table")})
    assert offset_in(p.store, p.dense) == sum(p.tables[side].weight.size for side in (USER, ITEM))


LAYOUT_CONFIGS = [
    dict(confidence="rce", attention="ffn-3"),
    dict(confidence="ce", attention="dot", user_embed_width=3),  # projected dot heads
    dict(pooling="average"),  # no head parameters, frozen confidence
    dict(confidence="rce", attention="ffn-1", user_query_only=True),
    dict(confidence="pe", attention="dot"),  # dot heads without projection, frozen confidence
    dict(confidence="none", attention="scaled-dot", user_embed_width=3, user_query_only=True),
]


def layout_case(overrides):
    config = tiny_config(**overrides)
    return FeatureSchema(tiny_schema().fields, {USER: config.user_embed_width, ITEM: 2}), config


class TestDenseLayout:
    @pytest.mark.parametrize("overrides", LAYOUT_CONFIGS)
    def test_non_table_parameters_tile_the_dense_vector(self, overrides, tmp_path):
        schema, config = layout_case(overrides)
        params = init_params(np.random.default_rng(1), schema, config)
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), params)
        loaded, _ = load_checkpoint(str(path))
        for p in (params, loaded):
            assert_store_layout(p)
            # The gradients tile a second store as the arrays tile store: each at its parameter's offset.
            grad_store = p.dense_grad.base
            assert_tiles(grad_store, {name: p.grads[name] for name in layout(schema, config)})
            assert offset_in(grad_store, p.dense_grad) == offset_in(p.store, p.dense)
            assert p.dense_grad.size == p.dense.size
            for side in (USER, ITEM):
                assert p.tables[side].grad is p.grads[f"{side}_table"]
            # A gradient backward forgot to write would keep its NaN.
            p.dense_grad[...] = np.nan
            batch = tiny_batch(schema)
            assert backward(p, forward(p, batch, mode="train")) is None
            assert np.isfinite(p.dense_grad).all()
        assert loaded.store.tobytes() == params.store.tobytes()

    @pytest.mark.parametrize("overrides", LAYOUT_CONFIGS)
    def test_layout_lists_the_checkpoint_arrays_in_order(self, overrides):
        schema, config = layout_case(overrides)
        params = init_params(np.random.default_rng(1), schema, config)
        arrays = sorted(model_arrays(params).items(), key=lambda item: offset_in(params.store, item[1]))
        assert list(layout(schema, config).items()) == [(name, a.shape) for name, a in arrays]

    def test_frozen_confidence_rows_come_last(self):
        heads = [f"att_{head}.{p}0" for head in ("ui", "ua", "ii", "ia") for p in "wb"]
        integrate = [f"{name}.{p}" for name in ("int_user", "int_item", "adp_user", "adp_item") for p in "wb"]
        mlp = [f"mlp.{p}{i}" for i in range(3) for p in "wb"]
        names = ["user_table", "item_table", *heads, *integrate, *mlp, "conf_user", "conf_item"]
        assert list(layout(tiny_schema(), tiny_config(confidence="fce", attention="ffn-1"))) == names
        assert list(layout(tiny_schema(), tiny_config(confidence="ce", attention="ffn-1"))) == [
            *names[:2], "conf_user", "conf_item", *names[2:-2]
        ]


class TestCheckpoint:
    def _trained_like_params(self, seed=3):
        config = tiny_config(confidence="rce")
        schema = tiny_schema()
        rng = np.random.default_rng(seed)
        params = init_params(rng, schema, config)
        for arr in named_parameters(params).values():
            arr += rng.normal(scale=0.01, size=arr.shape)
        return params

    def test_round_trip_is_bitwise(self, tmp_path):
        params = self._trained_like_params()
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), params, extra={"epoch": 4})
        loaded, extra = load_checkpoint(str(path))
        assert extra == {"epoch": 4}
        assert loaded.store.tobytes() == params.store.tobytes()
        batch = tiny_batch(params.schema)
        assert np.array_equal(predict(params, batch), predict(loaded, batch))

    def test_header_line_is_pinned(self, tmp_path):
        # The header is a file format: saved models must keep loading.
        config = tiny_config(item_embed_width=3)
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), init_params(np.random.default_rng(0), toy_schema(config), config), {"epoch": 4})
        magic, header, _ = path.read_bytes().split(b"\n", 2)
        assert magic + b"\n" == model_mod.CKPT_MAGIC
        assert header.decode() == (
            '{"arrays":[["user_table",[9,2]],["item_table",[10,3]],["att_ui.proj_w",[6,4]],'
            '["att_ui.proj_b",[6]],["att_ii.proj_w",[2,6]],["att_ii.proj_b",[2]],["att_ia.proj_w",[2,4]],'
            '["att_ia.proj_b",[2]],["int_user.w",[3,10]],["int_user.b",[3]],["int_item.w",[3,8]],'
            '["int_item.b",[3]],["adp_user.w",[3,12]],["adp_user.b",[3]],["adp_item.w",[3,4]],'
            '["adp_item.b",[3]],["mlp.w0",[80,12]],["mlp.b0",[80]],["mlp.w1",[40,80]],["mlp.b1",[40]],'
            '["mlp.w2",[1,40]],["mlp.b2",[1]],["conf_user",[2,2,6]],["conf_item",[2,2,2]]],'
            '"config":{"attention":"dot","batch_size":256,"confidence":"fce","confidence_in_pooling":true,'
            '"decay_every":1,"decay_rate":1.0,"dropout":0.0,"epochs":10,"graph_mode":"dynamic",'
            '"hidden_width":3,"include_negative_neighbors":true,"item_embed_width":3,"l2":0.0,'
            '"learning_rate":0.001,"max_neighbors":2,"pooling":"attention","seed":0,"user_embed_width":2,'
            '"user_query_only":false},"extra":{"epoch":4},'
            '"schema":{"item_fields":[{"name":"iid","values":["i0","i1","i2","i3"]},'
            '{"name":"cat","values":["x","y"]}],"item_width":3,'
            '"user_fields":[{"name":"uid","values":["u0","u1","u2"]},{"name":"seg","values":["a","b"]}],'
            '"user_width":2},'
            '"schema_hash":"79d28f0eefd10c9c677460ae329a364a39b750dc925716558a6d0df8493409c5","version":1}'
        )

    def test_identical_saves_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(str(a), self._trained_like_params())
        save_checkpoint(str(b), self._trained_like_params())
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._trained_like_params())
        raw = path.read_bytes()
        path.write_bytes(b"X" + raw[1:])
        with pytest.raises(DataError):
            load_checkpoint(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._trained_like_params())
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        header_end = raw.index(b"\n", magic_end) + 1
        header = json.loads(raw[magic_end:header_end])
        header["version"] = 2
        body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(raw[:magic_end] + body + raw[header_end:])
        with pytest.raises(DataError, match="version"):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._trained_like_params())
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), self._trained_like_params())
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(str(path))


JSON_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    schema = tiny_schema()
    params = init_params(np.random.default_rng(4), schema, tiny_config(confidence="rce", attention="ffn-2"))
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    save_checkpoint(str(path), params, extra={"best_epoch": 2})
    return path.read_bytes()


# mutation -> how the error names the first manifest entry that differs from the layout
MANIFEST_ERRORS = {
    "missing": "is the end, expected ('mlp.b2', (1,))",
    "extra": "is ('mlp.b3', (1,)), expected the end",
    "duplicated": "is ('mlp.b2', (1,)), expected the end",
    "renamed": "is ('mlp.b3', (1,)), expected ('mlp.b2', (1,))",
    "transposed": "is ('mlp.w1', (80, 40)), expected ('mlp.w1', (40, 80))",
    "swapped": "is ('int_item.b', (3,)), expected ('int_user.b', (3,))",
}


@pytest.mark.parametrize("mutation", list(MANIFEST_ERRORS))
def test_manifest_is_checked_against_the_layout_before_the_model_is_built(
    tmp_path, checkpoint_bytes, monkeypatch, mutation
):
    magic, header_line, payload = checkpoint_bytes.split(b"\n", 2)
    header = json.loads(header_line)
    arrays = header["arrays"]
    assert arrays[-1] == ["mlp.b2", [1]] and ["mlp.w1", [40, 80]] in arrays
    swap = [arrays.index(["int_user.b", [3]]), arrays.index(["int_item.b", [3]])]
    if mutation == "missing":
        arrays.pop()
        payload = payload[:-8]
    elif mutation in ("extra", "duplicated"):
        arrays.append(["mlp.b3" if mutation == "extra" else "mlp.b2", [1]])
        payload += bytes(8)
    elif mutation == "renamed":
        arrays[-1][0] = "mlp.b3"
    elif mutation == "transposed":  # the same payload size
        arrays[arrays.index(["mlp.w1", [40, 80]])][1] = [80, 40]
    else:  # two same-shape arrays exchange places; names, shapes and size still add up
        arrays[swap[0]], arrays[swap[1]] = arrays[swap[1]], arrays[swap[0]]
    path = tmp_path / "mutated.bin"
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)

    def refuse(*args, **kwargs):
        raise AssertionError("the store was allocated before the manifest was checked")

    monkeypatch.setattr(model_mod, "_build", refuse)
    with pytest.raises(DataError, match=re.escape(MANIFEST_ERRORS[mutation])):
        load_checkpoint(str(path))


def test_save_writes_the_store_and_load_draws_nothing(tmp_path, monkeypatch):
    params = init_params(np.random.default_rng(6), tiny_schema(), tiny_config(confidence="rce", attention="ffn-2"))
    params.store += np.random.default_rng(7).normal(scale=0.01, size=params.store.size)
    path = tmp_path / "model.bin"
    save_checkpoint(str(path), params)
    assert path.read_bytes().split(b"\n", 2)[2] == params.store.tobytes()

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint used numpy.random")

    for name in dir(np.random):  # every generator constructor and legacy draw function
        if not name.startswith("_") and callable(getattr(np.random, name)):
            monkeypatch.setattr(np.random, name, no_draws)
    loaded, _ = load_checkpoint(str(path))
    monkeypatch.undo()
    assert loaded.store.tobytes() == params.store.tobytes()
    batch = tiny_batch(params.schema)
    assert predict(loaded, batch).tobytes() == predict(params, batch).tobytes()


def mutate_header(header, path: list[int], value):
    """Replace (value None: delete) the node that path walks to, choosing children by index."""
    parent, key = None, None
    node = header
    for step in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        parent, key = node, list(node)[step % len(node)] if isinstance(node, dict) else step % len(node)
        node = parent[key]
    if parent is None:
        return value
    if value is None:
        del parent[key]
    else:
        parent[key] = value
    return header


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    path=st.lists(st.integers(min_value=0, max_value=63), max_size=5),
    value=st.none() | JSON_VALUE.map(lambda v: [v]),  # None deletes the node; [v] writes v, JSON null included
    splice=st.none() | st.tuples(st.integers(min_value=0), st.integers(0, 12), st.binary(max_size=4)),
)
@example(path=[2], value=[[]], splice=None)  # extra no longer an object
@example(path=[1, 14], value=[10**6], splice=None)  # max_neighbors far beyond the payload
@example(path=[1, 9], value=[10**5], splice=None)  # hidden_width likewise
def test_mutated_checkpoint_is_rejected_or_round_trips(tmp_path, checkpoint_bytes, path, value, splice):
    """A mutated checkpoint raises DataError, or loads with the dense layout and saves back unchanged.

    The header is mutated as JSON (one node replaced or deleted), then the
    raw bytes are spliced: some deleted at a position and a few inserted.
    """
    magic, header_line, payload = checkpoint_bytes.split(b"\n", 2)
    header = mutate_header(json.loads(header_line), path, None if value is None else value[0])
    raw = magic + b"\n" + json.dumps(header).encode() + b"\n" + payload
    if splice is not None:
        at, drop, junk = splice
        at %= len(raw) + 1
        raw = raw[:at] + junk + raw[at + drop :]
    mutated = tmp_path / "mutated.bin"
    mutated.write_bytes(raw)
    try:
        params, extra = load_checkpoint(str(mutated))
    except DataError:
        return
    assert_store_layout(params)
    echoed = tmp_path / "echoed.bin"
    save_checkpoint(str(echoed), params, extra)
    again, extra_again = load_checkpoint(str(echoed))
    assert extra_again == extra
    assert again.config == params.config
    assert again.store.tobytes() == params.store.tobytes()
    assert echoed.read_bytes().endswith(params.store.tobytes())
