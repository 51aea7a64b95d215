"""The recommender model: batched forward pass and manual backward pass.

Dataflow per instance, with every per-side array keyed by side (USER, ITEM):

  profiles            concatenated field lookups of the user and the item
  windows             user side: item profiles; item side: bare user ids
  aug windows         windows plus additive per-position confidence vectors
  four attention heads (HEADS: window side, query side)
      ui  user window scored against the user profile   (interactive)
      ua  user window scored against the item profile   (adaptive)
      ii  item window scored against the item profile   (interactive)
      ia  item window scored against the user profile   (adaptive)
  pooling             attention-weighted (or uniform) sums per (aug) window
  integrate           leaky affine of [profile || interactive pool]
  adaptive integrate  leaky affine of [interactive pool || adaptive pool]
  head MLP            80 -> 40 -> 1, sigmoid, clamped away from {0, 1}

Every array keeps the batch axis first. The (B, k, ·) window work
(lookup, confidence, logits, softmax, pooling and their backward) runs
only on the batch rows whose window has a live slot (window_rows), and
its arrays, weights included, hold those rows only. A cold row's pool is
exactly +0.0, so it is written as zeros.
Every product over the whole batch (a dot head's query projection, an ffn
head's query share of its first layer, integrate, the MLP) still runs on
every row. ffn heads under attention keep every row in training only,
because their weight gradients sum over all B * k slots in one product
whose order would change; eval forwards skip cold rows for every head.
backward() consumes the state returned by forward(), writes each gradient
into its view of params.grads (a second store laid out like the
parameters) and returns nothing; the test suite holds those gradients to
the central finite-difference oracle.

Heads with two hidden layers (ffn-3 under attention pooling) run on up to
HEAD_THREADS threads (_each_head). The calling thread adds every head's
results into shared state in head order, so the bytes do not depend on the
thread count. The first model a process builds (_build) sets its allocator
policy (_keep_freed_memory) and its BLAS threads (_one_blas_thread), for
every model and CPU count, before any head thread starts.
"""

from __future__ import annotations

import functools
import glob
import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .confidence import TRAINABLE, apply_confidence, build_confidence, scatter_confidence_gradient
from .config import MAX_MODEL_SIZE, TrainConfig, config_from_dict, config_to_dict
from .errors import DataError, DomainError, UsageError
from .features import (
    ITEM,
    SIDES,
    USER,
    Batch,
    EmbeddingTable,
    FeatureSchema,
    FieldVocab,
    lookup,
    scatter_gradient,
    zero_gradients,
)
from .nn import (
    FfnCache,
    FfnParams,
    affine_backward,
    affine_forward,
    dropout_mask,
    ffn_backward,
    ffn_forward,
    glorot_uniform,
    leaky_relu,
    leaky_relu_slope_at,
    masked_softmax,
    masked_softmax_backward,
    sigmoid,
)

Array = np.ndarray
T = TypeVar("T")

PROB_CLAMP = 1e-7
MLP_HIDDEN = (80, 40)
ATT_HIDDEN = {"ffn-1": (), "ffn-2": (32,), "ffn-3": (64, 32)}
OTHER = {USER: ITEM, ITEM: USER}  # a side's window holds the other side's nodes
# Each head scores one history window against one profile:
# head name -> (window side, query side).
HEADS = {"ui": (USER, USER), "ua": (USER, ITEM), "ii": (ITEM, ITEM), "ia": (ITEM, USER)}
# The integrate layers as (name, left input, right input), in the order
# their outputs are concatenated. Sides name the profile embeddings,
# head names their pooled windows.
INTEGRATE = (
    ("int_user", USER, "ui"),
    ("int_item", ITEM, "ii"),
    ("adp_user", "ui", "ua"),
    ("adp_item", "ii", "ia"),
)
TABLES = tuple(f"{side}_table" for side in SIDES)  # the row-sparse parameters
CONF = tuple(f"conf_{side}" for side in SIDES)  # confidence rows, per window side
CKPT_MAGIC = b"PIGATCKPT1\n"
# Threads the ffn-3 heads of one forward or backward may use: the caller and one
# pool thread. Two is the only count measured (on 2 CPUs); a pool of four
# threads there raised the peak memory by 16 %.
HEAD_THREADS = 2
# glibc's mallopt parameters (malloc.h), and the size below which freed
# memory stays in the process and arrays come from the heap, not mmap.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
KEEP_FREED_BYTES = 1 << 28
# The environment variables that set a BLAS thread count; where the user
# set one, pigat leaves BLAS as it is.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class AttentionHead:
    """Scoring function for one (query, window) pair.

    ffn kinds score [query || neighbor] with a small FFN to one logit; the
    FFN takes the query and the window as a pair, so the query's share of
    the first layer is computed once per instance, not once per slot. dot
    kinds take an inner product, projecting the query to the
    neighbor width first when the two widths differ; scaled-dot divides
    by sqrt(width).
    """

    kind: str
    ffn: FfnParams | None = None
    proj_w: Array | None = None
    proj_b: Array | None = None


@dataclass
class PigatParams:
    schema: FeatureSchema
    config: TrainConfig
    tables: dict[str, EmbeddingTable]  # side -> embedding rows
    heads: dict[str, AttentionHead]
    integrate: dict[str, tuple[Array, Array]]  # INTEGRATE name -> (weight, bias)
    mlp: FfnParams
    # Every array layout() lists, flat in layout order; the arrays above and
    # the confidence rows (views["conf_<window side>"]) are views of it, so a
    # checkpoint's payload is its bytes.
    store: Array
    views: dict[str, Array]  # layout name -> view of store
    # A second store of the same layout holds the gradients.
    grads: dict[str, Array]  # layout name -> view of the gradient store
    dense: Array  # the slice of store after the tables: the trainables one Adam call updates
    dense_grad: Array  # the same slice of the gradient store


def head_wiring(config: TrainConfig) -> dict[str, tuple[str, str]]:
    """HEADS as configured: user_query_only scores every window against the user."""
    if config.user_query_only:
        return {name: (window, USER) for name, (window, _) in HEADS.items()}
    return HEADS


def _widths(schema: FeatureSchema) -> tuple[dict[str, int], dict[str, int]]:
    """(profile width, window width) per side."""
    profile_w = {side: len(schema.fields[side]) * schema.widths[side] for side in SIDES}
    # A user window holds whole item profiles, an item window bare user ids.
    return profile_w, {USER: profile_w[ITEM], ITEM: schema.widths[USER]}


def _ffn_layout(prefix: str, dims: list[int]) -> dict[str, tuple[int, ...]]:
    """Weight (out, in) and bias of each layer of an FFN with the given layer widths."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        shapes |= {f"{prefix}.w{i}": (d_out, d_in), f"{prefix}.b{i}": (d_out,)}
    return shapes


def layout(schema: FeatureSchema, config: TrainConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every array a checkpoint holds, in checkpoint order.

    The tables, trainable confidence rows, heads, integrate layers and MLP,
    then frozen confidence rows. This is the one description of the
    model's arrays: init_params lays them out from it, and a checkpoint's
    manifest must match it.
    """
    profile_w, window_w = _widths(schema)
    k, dh = config.max_neighbors, config.hidden_width
    conf = {f"conf_{side}": (k, k, window_w[side]) for side in SIDES}
    front, back = (conf, {}) if config.confidence in TRAINABLE else ({}, conf)
    shapes = {f"{side}_table": (schema.table_size(side), schema.widths[side]) for side in SIDES} | front
    if config.pooling == "attention":
        for name, (window, query) in head_wiring(config).items():
            q_w, k_w, prefix = profile_w[query], window_w[window], f"att_{name}"
            if config.attention in ATT_HIDDEN:
                shapes |= _ffn_layout(prefix, [q_w + k_w, *ATT_HIDDEN[config.attention], 1])
            elif q_w != k_w:  # a dot head projects the query to the window width
                shapes |= {f"{prefix}.proj_w": (k_w, q_w), f"{prefix}.proj_b": (k_w,)}
    widths = {**profile_w, **{name: window_w[window] for name, (window, _) in HEADS.items()}}
    for name, left, right in INTEGRATE:
        shapes |= {f"{name}.w": (dh, widths[left] + widths[right]), f"{name}.b": (dh,)}
    return shapes | _ffn_layout("mlp", [len(INTEGRATE) * dh, *MLP_HIDDEN, 1]) | back


def _views(flat: Array, shapes: dict[str, tuple[int, ...]]) -> dict[str, Array]:
    """Consecutive views of flat with the given shapes, in order."""
    ends = np.cumsum([0, *map(math.prod, shapes.values())])
    return {name: flat[a:b].reshape(shape) for (name, shape), a, b in zip(shapes.items(), ends, ends[1:])}


def _ffn(views: dict[str, Array], prefix: str) -> FfnParams:
    """The FFN whose layers are views[f"{prefix}.w{i}"] and views[f"{prefix}.b{i}"]."""
    layers = range(sum(name.startswith(f"{prefix}.w") for name in views))
    return FfnParams(
        tuple(views[f"{prefix}.w{i}"] for i in layers), tuple(views[f"{prefix}.b{i}"] for i in layers)
    )


def _build(schema: FeatureSchema, config: TrainConfig) -> PigatParams:
    """A zeroed model whose every array and gradient is a view of one of two new stores.

    Both stores are laid out by layout(); they are the only allocations of
    model-sized memory, and a model above MAX_MODEL_SIZE values is a
    DataError.
    """
    _one_blas_thread()  # before the model's first matmul
    _keep_freed_memory()  # before any head thread exists or any step's arrays are freed
    shapes = layout(schema, config)
    size = sum(map(math.prod, shapes.values()))
    if size > MAX_MODEL_SIZE:
        raise DataError(f"the model would hold {size} values, more than the {MAX_MODEL_SIZE} allowed")
    store, grad_store = np.zeros(size), np.zeros(size)
    views, grads = _views(store, shapes), _views(grad_store, shapes)
    # Layout order: the tables, every other trainable array, then any frozen rows.
    start = sum(views[name].size for name in TABLES)
    frozen = 0 if config.confidence in TRAINABLE else sum(views[name].size for name in CONF)
    dense = slice(start, size - frozen)
    tables = {
        side: EmbeddingTable(views[f"{side}_table"], grads[f"{side}_table"], schema.pad_rows(side)) for side in SIDES
    }
    kind = config.attention
    heads = {
        name: AttentionHead(
            kind,
            _ffn(views, f"att_{name}") if kind in ATT_HIDDEN else None,
            views.get(f"att_{name}.proj_w"),
            views.get(f"att_{name}.proj_b"),
        )
        for name in (head_wiring(config) if config.pooling == "attention" else ())
    }
    integrate = {name: (views[f"{name}.w"], views[f"{name}.b"]) for name, _, _ in INTEGRATE}
    mlp = _ffn(views, "mlp")
    return PigatParams(
        schema, config, tables, heads, integrate, mlp, store, views, grads, store[dense], grad_store[dense]
    )


def init_params(rng: np.random.Generator, schema: FeatureSchema, config: TrainConfig) -> PigatParams:
    """Build and draw all trainable state.

    Draw order is fixed for determinism: the tables (padding rows zeroed),
    the confidence rows, then every weight matrix in layout order; biases
    start at zero.
    """
    config.validate()
    params = _build(schema, config)
    for table in params.tables.values():
        bound = np.sqrt(6.0 / (table.count + table.width))
        table.weight[...] = rng.uniform(-bound, bound, size=table.weight.shape)
        table.weight[table.frozen_rows] = 0.0
    for name in CONF:
        rows = params.views[name]
        rows[...] = build_confidence(config.confidence, config.max_neighbors, rows.shape[2], rng)
    for name, view in params.views.items():
        if view.ndim == 2 and name not in TABLES:  # the weight matrices; confidence rows are 3-D, biases 1-D
            view[...] = glorot_uniform(rng, *view.shape)
    return params


def named_parameters(params: PigatParams) -> dict[str, Array]:
    """Stable name -> array view of everything the optimizer may touch, in layout order.

    That is every array but frozen confidence rows.
    """
    trainable = params.config.confidence in TRAINABLE
    return {name: view for name, view in params.views.items() if trainable or name not in CONF}


def touched_rows(params: PigatParams) -> dict[str, Array]:
    """Per table parameter, the rows its last backward gradient may be nonzero on."""
    return {f"{side}_table": params.tables[side].touched for side in SIDES}


@dataclass
class ForwardState:
    """The outputs of one forward, plus what backward() needs of it and no more.

    A train state keeps each leaky layer's input and the sign of its
    pre-activation (pre >= 0.0, one byte a value), never the float
    pre-activation. An eval state keeps no cache at all. backward() takes a
    train state once: it marks it "consumed" before it writes anything and
    then writes gradients into the activations it no longer needs, so no
    cache of a consumed state may be read.
    """

    mode: str  # "train", "eval" or "consumed"; backward() takes only "train" states
    batch: Batch
    profiles: dict[str, Array]  # side -> (B, profile width)
    # window side -> window_rows: the batch rows its window arrays hold; every row for ffn heads in train mode
    rows: dict[str, Array | slice]
    aug: dict[str, Array]  # window side -> looked-up window of those rows plus confidence (n, k, width)
    # window side -> the window pooling read: aug[side] itself under confidence_in_pooling, else the bare lookup
    values: dict[str, Array]
    weights: dict[str, Array]  # head -> (n, k) pooling weights of its window side's rows
    caches: dict[str, FfnCache | Array | None]  # head -> attention_logits' cache; None in eval mode
    pools: dict[str, Array]  # head -> (B, window width) pooled window, 0 on the rows `rows` leaves out
    int_states: dict[str, tuple[Array, Array] | None]  # name -> (concat input, pre-activation sign); None in eval
    drop: Array | None
    mlp_cache: FfnCache | None  # None in eval mode
    prob: Array
    clamp_active: Array


def window_rows(config: TrainConfig, mask: Array, train: bool) -> Array | slice:
    """The batch rows a window side's (B, k, ·) work runs on and its arrays hold, given its (B, k) mask.

    Those are the rows with a live slot. Leaving a cold row out changes no
    byte: it pools to +0.0 with weight 0, and its gradients land only on
    frozen padding rows, or as +-0.0 terms in sums that start from a zeroed
    accumulator. ffn heads under attention keep every row (slice(None)) in
    training only: their weight gradients sum over all B * k slots in one
    BLAS product, and removing rows would change the order of that sum. An
    eval forward takes no gradient, so there they skip cold rows too. A side
    without a cold row also takes slice(None), so its arrays are not copied.
    """
    if train and config.pooling == "attention" and config.attention in ATT_HIDDEN:
        return slice(None)
    live = mask.any(axis=1)
    return slice(None) if live.all() else np.flatnonzero(live)


def _at_rows(rows: Array | slice, packed: Array, b: int) -> Array:
    """packed (n, ...) placed at `rows` of a zeroed (b, ...) array; packed itself when rows takes them all."""
    if isinstance(rows, slice):
        return packed
    out = np.zeros((b, *packed.shape[1:]))
    out[rows] = packed
    return out


def uniform_coefficients(mask: Array) -> Array:
    """Average pooling: equal weight on live slots, zero rows stay zero."""
    return mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1)


def attention_logits(
    head: AttentionHead, query: Array, keys: Array, rows: Array | slice, train: bool
) -> tuple[Array, FfnCache | Array | None]:
    """Score each window slot against the query; returns logits and cache.

    query is (B, query width) for the whole batch, keys (n, k, key width)
    for its rows `rows`; logits are (n, k). A dot head projects the whole
    batch's query and an ffn head computes its query share of the first
    layer on the whole batch, each then taking those rows, so their bytes
    do not depend on them. The cache is the FFN's for ffn kinds and the
    (projected) query rows for dot kinds; without train it is None, and an
    ffn head builds none.
    """
    if head.ffn is not None:
        out, cache = ffn_forward(head.ffn, (query, keys), train, rows)
        return out[..., 0], cache
    q = (query if head.proj_w is None else affine_forward(head.proj_w, query, head.proj_b))[rows]
    logits = np.einsum("bw,bkw->bk", q, keys)
    if head.kind == "scaled-dot":
        logits = logits / np.sqrt(keys.shape[-1])
    return logits, q if train else None


def pooled_embedding(weights: Array, values: Array) -> Array:
    """Weighted sum over window slots: (..., k) x (..., k, w) -> (..., w)."""
    return np.einsum("...k,...kw->...w", weights, values)


def integrate_forward(
    w: Array, b: Array, left: Array, right: Array, train: bool
) -> tuple[Array, tuple[Array, Array] | None]:
    """leaky(W [left || right] + b); returns (out, (concat, pre-activation >= 0.0)), the pair None without train."""
    x = np.concatenate([left, right], axis=-1)
    pre = affine_forward(w, x, b)
    return leaky_relu(pre), (x, pre >= 0.0) if train else None


def forward(
    params: PigatParams,
    batch: Batch,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardState:
    if mode not in ("train", "eval"):
        raise DomainError(f"mode must be train or eval, got {mode!r}")
    cfg = params.config
    b = len(batch)
    train = mode == "train"  # only a train forward keeps caches for backward

    profiles = {side: lookup(params.tables[side], batch.ids[side]).reshape(b, -1) for side in SIDES}
    rows = {side: window_rows(cfg, batch.mask[side], train) for side in SIDES}
    masks = {side: batch.mask[side][rows[side]] for side in SIDES}
    window_w = _widths(params.schema)[1]  # given, not inferred: a window may have no rows
    raw = {
        side: lookup(params.tables[OTHER[side]], batch.nbrs[side][rows[side]]).reshape(
            *masks[side].shape, window_w[side]
        )
        for side in SIDES
    }
    aug = {side: apply_confidence(params.views[f"conf_{side}"], raw[side], masks[side]) for side in SIDES}
    values = aug if cfg.confidence_in_pooling else raw  # under confidence_in_pooling, raw dies with this call

    wiring = head_wiring(cfg)

    def head_forward(name: str) -> tuple[Array, FfnCache | Array | None, Array]:
        """(weights, cache, pooled window) of one head; the weights hold its window's rows, the pool every row."""
        window, query = wiring[name]
        mask = masks[window]
        if cfg.pooling == "attention":
            logits, cache = attention_logits(params.heads[name], profiles[query], aug[window], rows[window], train)
            weights = masked_softmax(logits, mask)
        else:
            weights, cache = uniform_coefficients(mask), None
        return weights, cache, _at_rows(rows[window], pooled_embedding(weights, values[window]), b)

    weights, caches, pools = {}, {}, {}
    for name, (head_weights, cache, pool) in _each_head(cfg, head_forward):
        weights[name], caches[name], pools[name] = head_weights, cache, pool

    sources = {**profiles, **pools}
    int_states: dict[str, tuple[Array, Array] | None] = {}
    int_outs = []
    for name, left, right in INTEGRATE:
        out, int_states[name] = integrate_forward(*params.integrate[name], sources[left], sources[right], train)
        int_outs.append(out)

    merged = np.concatenate(int_outs, axis=1)
    drop = None
    if train and cfg.dropout > 0.0:
        if rng is None:
            raise UsageError("training forward with dropout needs a random generator")
        drop = dropout_mask(merged.shape, cfg.dropout, rng)
        merged_in = merged * drop
    else:
        merged_in = merged

    mlp_out, mlp_cache = ffn_forward(params.mlp, merged_in, train)
    prob_raw = sigmoid(mlp_out[:, 0])
    prob = np.clip(prob_raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
    clamp_active = (prob_raw > PROB_CLAMP) & (prob_raw < 1.0 - PROB_CLAMP)

    return ForwardState(
        mode=mode,
        batch=batch,
        profiles=profiles,
        rows=rows,
        aug=aug,
        values=values,
        weights=weights,
        caches=caches,
        pools=pools,
        int_states=int_states,
        drop=drop,
        mlp_cache=mlp_cache,
        prob=prob,
        clamp_active=clamp_active,
    )


def predict(params: PigatParams, batch: Batch) -> Array:
    """Eval-mode probabilities, scored in consecutive batch_size slices.

    Each slice is a view and one forward, so memory is bounded by the
    configured batch size rather than by the length of the batch given.
    """
    size = params.config.batch_size
    chunks = [
        forward(params, batch.take(slice(start, start + size)), mode="eval").prob
        for start in range(0, len(batch), size)
    ]
    return np.concatenate(chunks)


def bce_loss(prob: Array, labels: Array) -> float:
    """Mean binary cross-entropy; prob must already be clamped away from 0/1."""
    if prob.shape != labels.shape:
        raise DataError(f"prob {prob.shape} and labels {labels.shape} must match")
    return float(-np.mean(labels * np.log(prob) + (1.0 - labels) * np.log(1.0 - prob)))


def backward(params: PigatParams, state: ForwardState) -> None:
    """Write the mean-BCE gradient of every named parameter on state.batch into params.grads.

    Each gradient goes into its view of the gradient store and nothing is
    returned; the embedding and trainable confidence accumulators are zeroed
    before this batch's gradients are scattered into them, so after the call
    params.grads holds exactly this batch's gradients. Frozen confidence rows
    get no gradient: theirs stays the zero it was built with.

    The state is consumed: it is marked "consumed" before anything is
    written, each ffn's input gradients are written into its cached
    activations, and each head's cache is released once its backward is
    done. A second backward on the state, or one after a backward that
    raised, is a UsageError; run forward again instead.
    """
    if state.mode != "train":
        raise UsageError(
            f"backward needs a forward state computed in train mode and not yet consumed, got a {state.mode!r} state"
        )
    state.mode = "consumed"
    cfg = params.config
    batch = state.batch
    b = len(batch)
    grads = params.grads

    # Head: d loss / d logit, zero where the output clamp is active.
    d_logit = np.where(state.clamp_active, (state.prob - batch.labels) / b, 0.0)
    d_merged_in = ffn_backward(params.mlp, state.mlp_cache, d_logit[:, None], _ffn(grads, "mlp"))
    d_merged = d_merged_in * state.drop if state.drop is not None else d_merged_in

    dh = cfg.hidden_width
    sources = {**state.profiles, **state.pools}
    d_sources: dict[str, Array] = {}  # gradient per INTEGRATE input
    for idx, (name, left, right) in enumerate(INTEGRATE):
        x, sign = state.int_states[name]
        d_pre = d_merged[:, idx * dh : (idx + 1) * dh] * leaky_relu_slope_at(sign)
        d_x = affine_backward(params.integrate[name][0], x, d_pre, grads[f"{name}.w"], grads[f"{name}.b"])
        cut = sources[left].shape[1]
        d_sources[left] = _acc(d_sources.get(left), d_x[:, :cut])
        d_sources[right] = _acc(d_sources.get(right), d_x[:, cut:])

    # The window gradients hold the rows state.rows selects; d_sources keeps every row.
    rows, values, aug = state.rows, state.values, state.aug
    d_aug = {side: np.zeros_like(aug[side]) for side in SIDES}
    # d_values is the gradient of the window pooling read, and at the end that of the
    # bare lookup. When pooling read aug, the lookup's gradient is the augmented one's
    # and nothing more, so d_values is d_aug itself: +0.0 + x differs from x only at
    # x = -0.0, which the table gradients (+0.0 before the scatter) take as +0.0 either way.
    d_values = {side: d_aug[side] if values[side] is aug[side] else np.zeros_like(values[side]) for side in SIDES}

    wiring = head_wiring(cfg)

    def head_backward(name: str) -> tuple[Array, Array | None, Array | None]:
        """(d pooled values, d_keys, d_query); writes only the head's own gradient views."""
        window, query = wiring[name]
        weights, d_pool = state.weights[name], d_sources[name][rows[window]]
        d_keys = d_query = None
        # Pooling backward: weights and values both carry gradient; uniform weights carry no parameters.
        if cfg.pooling == "attention":
            d_logits = masked_softmax_backward(weights, np.einsum("bw,bkw->bk", d_pool, values[window]))
            d_keys, d_query = _head_backward(
                params.heads[name],
                name,
                state.caches[name],
                state.profiles[query],
                aug[window],
                d_logits,
                grads,
                rows[window],
            )
            state.caches[name] = None  # spent: freed now, its memory serves the next head
        # After _head_backward has freed its temporaries, so this does not raise the peak memory.
        return weights[:, :, None] * d_pool[:, None, :], d_keys, d_query

    for name, (d_pooled, d_keys, d_query) in _each_head(cfg, head_backward):
        window, query = wiring[name]
        d_values[window] += d_pooled
        if d_keys is not None:
            d_aug[window] += d_keys
            d_sources[query] += d_query
        del d_pooled, d_keys  # freed before the next head runs, so its memory serves that head

    # Confidence addition: augmented = raw + mask * rows.
    for side in SIDES:
        if cfg.confidence in TRAINABLE:
            conf_grad = grads[f"conf_{side}"]
            conf_grad[...] = 0.0
            scatter_confidence_gradient(conf_grad, batch.mask[side][rows[side]], d_aug[side])
        if d_values[side] is not d_aug[side]:
            d_values[side] += d_aug[side]

    # A side's table holds its profiles and the entries of the other side's window.
    for side in SIDES:
        table = params.tables[side]
        zero_gradients(table)
        scatter_gradient(table, batch.ids[side], d_sources[side].reshape(-1, table.width))
        window = OTHER[side]
        scatter_gradient(table, batch.nbrs[window][rows[window]], d_values[window].reshape(-1, table.width))


def _acc(current: Array | None, delta: Array) -> Array:
    return delta.copy() if current is None else current + delta


def _cpus() -> int:
    """The CPUs this process may run on (taskset narrows them where the OS has affinity)."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@functools.cache
def _keep_freed_memory() -> None:
    """Ask glibc, once per process, to keep freed memory below KEEP_FREED_BYTES.

    _build calls it at the first model build, for every model, before any
    head thread starts. By default glibc hands a step's freed arrays (about
    20 MB per ffn-3 chunk) back to the kernel, and the next step faults them
    in again. Both thresholds are set together: the trim threshold alone also
    turns off glibc's dynamic mmap threshold, so every array above 128 KiB
    would be mapped afresh. A C library without mallopt is left as it is.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        for param in (M_TRIM_THRESHOLD, M_MMAP_THRESHOLD):
            mallopt(param, KEEP_FREED_BYTES)
    except (OSError, AttributeError, TypeError):  # no C library to open, or one without mallopt
        pass


@functools.cache
def _one_blas_thread() -> None:
    """Ask numpy's bundled OpenBLAS, once per process, for one thread, unless a count is set.

    OpenBLAS otherwise starts one thread per CPU, and those threads share
    the CPUs with the head threads. The call reaches the library numpy has
    loaded, so it works after numpy's import too. A library or symbol that
    is missing is left as it is.
    """
    if any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
    try:
        for path in glob.glob(libs):
            ctypes.CDLL(path).scipy_openblas_set_num_threads64_(1)
    except (OSError, AttributeError, TypeError):  # no library to open, or one without the symbol
        pass


@functools.cache
def _pool():
    """The persistent pool of HEAD_THREADS - 1 threads that runs heads besides the caller."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(HEAD_THREADS - 1, thread_name_prefix="pigat-head")


def _each_head(cfg: TrainConfig, run: Callable[[str], T]) -> Iterator[tuple[str, T]]:
    """Yield (name, run(name)) for each head of head_wiring(cfg), in head order.

    Heads with two hidden layers (ffn-3 under attention pooling) use W =
    min(HEAD_THREADS, CPUs) threads; every other head kind uses one. When
    the call starts, head i with i % W != 0 goes to the pool; every other
    head runs on the caller when its turn comes. run may write only what
    belongs to its own head and add into nothing shared. An error raised on
    any thread reaches the caller, and no head outlives the call.
    """
    names = list(head_wiring(cfg))
    deep = cfg.pooling == "attention" and len(ATT_HIDDEN.get(cfg.attention, ())) > 1
    threads = min(HEAD_THREADS, _cpus()) if deep else 1
    futures = {i: _pool().submit(run, name) for i, name in enumerate(names) if i % threads}
    try:
        for i, name in enumerate(names):
            yield name, futures[i].result() if i in futures else run(name)
    finally:
        for future in futures.values():
            future.exception()  # waits, without raising: no head outlives the call


def _head_backward(
    head: AttentionHead,
    name: str,
    cache: FfnCache | Array,
    query: Array,
    keys: Array,
    d_logits: Array,
    grads: dict,
    rows: Array | slice,
) -> tuple[Array, Array]:
    """Returns (d_keys, d_query); writes the head's parameter grads into their views in grads.

    cache is what attention_logits(head, query, keys, rows, train=True)
    returned with the logits. keys and d_logits hold the batch rows `rows`,
    query and the returned d_query every row; a dot head's query
    projection takes its backward on the whole batch.
    """
    b = query.shape[0]
    if head.ffn is not None:
        d_query, d_keys = ffn_backward(head.ffn, cache, d_logits[:, :, None], _ffn(grads, f"att_{name}"))
        return d_keys, _at_rows(rows, d_query, b)
    scale = 1.0 / np.sqrt(keys.shape[-1]) if head.kind == "scaled-dot" else 1.0
    d_q_proj = _at_rows(rows, np.einsum("bk,bkw->bw", d_logits, keys) * scale, b)
    d_keys = d_logits[:, :, None] * cache[:, None, :] * scale
    if head.proj_w is None:
        return d_keys, d_q_proj
    d_query = affine_backward(head.proj_w, query, d_q_proj, grads[f"att_{name}.proj_w"], grads[f"att_{name}.proj_b"])
    return d_keys, d_query


def save_checkpoint(path: str, params: PigatParams, extra: dict | None = None) -> None:
    """Write a self-describing checkpoint.

    Layout: a magic line, one JSON header line (schema with full
    vocabularies, config, array manifest, metadata), then the store's
    float64 bytes: every array of the manifest, in its order. Nothing in
    the file depends on wall-clock time, so identical runs produce
    identical bytes.
    """
    schema = params.schema
    fields = {side: [{"name": f.name, "values": f.values} for f in schema.fields[side]] for side in SIDES}
    header = {
        "version": 1,
        "schema_hash": schema.structural_hash(),
        "schema": {f"{side}_fields": fields[side] for side in SIDES}
        | {f"{side}_width": schema.widths[side] for side in SIDES},
        "config": config_to_dict(params.config),
        "arrays": [[name, list(view.shape)] for name, view in params.views.items()],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC + json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        fh.write(params.store)


def load_checkpoint(path: str) -> tuple[PigatParams, dict]:
    """Rebuild params bit-for-bit from a checkpoint; returns (params, extra). Draws nothing."""
    with open(path, "rb") as fh:
        if fh.readline() != CKPT_MAGIC:
            raise DataError(f"{path}: not a model checkpoint")
        try:
            header = json.loads(fh.readline().decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise DataError(f"{path}: corrupt checkpoint header: {err}") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: checkpoint header is not a JSON object")
        if header.get("version") != 1:
            raise DataError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
        try:
            sch = header["schema"]
            widths = {side: sch[f"{side}_width"] for side in SIDES}
            if not all(type(w) is int for w in widths.values()):
                raise TypeError(f"embedding widths {tuple(widths.values())} are not integers")
            schema = FeatureSchema(
                {side: [FieldVocab(d["name"], list(d["values"])) for d in sch[f"{side}_fields"]] for side in SIDES},
                widths,
            )
            config = config_from_dict(header["config"])
            entries = [(name, tuple(shape)) for name, shape in header["arrays"]]
            extra = header.get("extra", {})
            if not isinstance(extra, dict):
                raise TypeError(f"extra is a {type(extra).__name__}, not an object")
        except DataError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise DataError(f"{path}: malformed checkpoint header: {type(err).__name__}: {err}") from None
        # The manifest must be the layout, entry for entry, and the payload
        # its size, before the model is built: a corrupt header cannot make
        # the reader allocate more than the file holds, or load two
        # same-shape arrays into each other's places.
        expected = list(layout(schema, config).items())
        if entries != expected:
            got, want = entries + ["the end"], expected + ["the end"]
            i = next(i for i, entry in enumerate(got) if entry != want[i])
            raise DataError(
                f"{path}: array manifest does not match the layout: entry {i} is {got[i]}, expected {want[i]}"
            )
        need = 8 * sum(math.prod(shape) for _, shape in expected)
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != need:
            what = "truncated checkpoint" if have < need else "trailing bytes after the last array"
            raise DataError(f"{path}: {what}: the manifest needs {need} payload bytes, the file holds {have}")
        params = _build(schema, config)
        fh.readinto(memoryview(params.store).cast("B"))
    if header.get("schema_hash") != schema.structural_hash():
        raise DataError(f"{path}: schema hash does not match the stored schema")
    return params, extra
