"""The recommender model: batched forward pass and manual backward pass.

Dataflow per instance, with every per-side array keyed by side (USER, ITEM):

  profiles            concatenated field lookups of the user and the item
  raw windows         user side: item profiles; item side: bare user ids
  aug windows         raw plus additive per-position confidence vectors
  four attention heads (HEADS: window side, query side)
      ui  user window scored against the user profile   (interactive)
      ua  user window scored against the item profile   (adaptive)
      ii  item window scored against the item profile   (interactive)
      ia  item window scored against the user profile   (adaptive)
  pooling             attention-weighted (or uniform) sums per window
  integrate           leaky affine of [profile || interactive pool]
  adaptive integrate  leaky affine of [interactive pool || adaptive pool]
  head MLP            80 -> 40 -> 1, sigmoid, clamped away from {0, 1}

Every array keeps the batch axis first. backward() consumes the state
returned by forward() and produces a gradient per named parameter; the
test suite holds those gradients to the central finite-difference
oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .confidence import (
    ConfidenceTable,
    apply_confidence,
    build_confidence,
    scatter_confidence_gradient,
    zero_confidence_gradient,
)
from .config import TrainConfig, config_from_dict, config_to_dict
from .errors import DataError, DomainError, UsageError
from .features import (
    Batch,
    EmbeddingTable,
    FeatureSchema,
    FieldVocab,
    lookup,
    scatter_gradient,
    table_for_side,
    zero_gradients,
)
from .graph import ITEM, USER
from .nn import (
    FfnCache,
    FfnParams,
    affine_forward,
    dropout_mask,
    ffn_backward,
    ffn_forward,
    ffn_init,
    glorot_uniform,
    leaky_relu,
    leaky_relu_slope_at,
    masked_softmax,
    masked_softmax_backward,
    sigmoid,
)

Array = np.ndarray

PROB_CLAMP = 1e-7
MLP_HIDDEN = (80, 40)
ATT_HIDDEN = {"ffn-1": (), "ffn-2": (32,), "ffn-3": (64, 32)}
SIDES = (USER, ITEM)
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
CKPT_MAGIC = b"PIGATCKPT1\n"


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


def _init_head(rng: np.random.Generator, kind: str, q_width: int, k_width: int) -> AttentionHead:
    if kind in ATT_HIDDEN:
        dims = [q_width + k_width, *ATT_HIDDEN[kind], 1]
        return AttentionHead(kind, ffn=ffn_init(rng, dims))
    if kind in ("dot", "scaled-dot"):
        if q_width == k_width:
            return AttentionHead(kind)
        return AttentionHead(
            kind, proj_w=glorot_uniform(rng, k_width, q_width), proj_b=np.zeros(k_width)
        )
    raise DomainError(f"unknown attention kind {kind!r}")


@dataclass
class PigatParams:
    schema: FeatureSchema
    config: TrainConfig
    tables: dict[str, EmbeddingTable]  # side -> embedding rows
    conf: dict[str, ConfidenceTable]  # window side -> confidence rows
    heads: dict[str, AttentionHead]
    integrate: dict[str, tuple[Array, Array]]  # INTEGRATE name -> (weight, bias)
    mlp: FfnParams


def head_wiring(config: TrainConfig) -> dict[str, tuple[str, str]]:
    """HEADS as configured: user_query_only scores every window against the user."""
    if config.user_query_only:
        return {name: (window, USER) for name, (window, _) in HEADS.items()}
    return HEADS


def init_params(rng: np.random.Generator, schema: FeatureSchema, config: TrainConfig) -> PigatParams:
    """Build all trainable state. Draw order is fixed for determinism."""
    config.validate()
    profile_w = {side: len(schema.fields(side)) * schema.width(side) for side in SIDES}
    # A user window holds whole item profiles, an item window bare user ids.
    window_w = {USER: profile_w[ITEM], ITEM: schema.user_width}
    k = config.max_neighbors

    tables = {side: table_for_side(rng, schema, side) for side in SIDES}
    conf = {side: build_confidence(config.confidence, k, window_w[side], rng) for side in SIDES}

    heads: dict[str, AttentionHead] = {}
    if config.pooling == "attention":
        for name, (window, query) in head_wiring(config).items():
            heads[name] = _init_head(rng, config.attention, profile_w[query], window_w[window])

    dh = config.hidden_width
    widths = {**profile_w, **{name: window_w[window] for name, (window, _) in HEADS.items()}}
    integrate = {
        name: (glorot_uniform(rng, dh, widths[left] + widths[right]), np.zeros(dh))
        for name, left, right in INTEGRATE
    }
    mlp = ffn_init(rng, [len(INTEGRATE) * dh, *MLP_HIDDEN, 1])
    return PigatParams(schema, config, tables, conf, heads, integrate, mlp)


def named_parameters(params: PigatParams) -> dict[str, Array]:
    """Stable name -> array view of everything the optimizer may touch."""
    out = {f"{side}_table": params.tables[side].weight for side in SIDES}
    for side in SIDES:
        if params.conf[side].trainable:
            out[f"conf_{side}"] = params.conf[side].rows
    for name, head in params.heads.items():
        if head.ffn is not None:
            for i, (w, b) in enumerate(zip(head.ffn.weights, head.ffn.biases)):
                out[f"att_{name}.w{i}"] = w
                out[f"att_{name}.b{i}"] = b
        elif head.proj_w is not None:
            out[f"att_{name}.proj_w"] = head.proj_w
            out[f"att_{name}.proj_b"] = head.proj_b
    for name, _, _ in INTEGRATE:
        out[f"{name}.w"], out[f"{name}.b"] = params.integrate[name]
    for i, (w, b) in enumerate(zip(params.mlp.weights, params.mlp.biases)):
        out[f"mlp.w{i}"] = w
        out[f"mlp.b{i}"] = b
    return out


def touched_rows(params: PigatParams) -> dict[str, Array]:
    """Per table parameter, the rows its last backward gradient may be nonzero on."""
    return {f"{side}_table": params.tables[side].touched for side in SIDES}


@dataclass
class HeadState:
    weights: Array  # (B, k)
    query: Array | None = None  # the scoring query, for dot kinds
    keys: Array | None = None  # the scored window, for dot kinds
    ffn_cache: FfnCache | None = None  # holds query and window for ffn kinds
    q_proj: Array | None = None  # projected query for dot kinds


@dataclass
class ForwardState:
    """Everything backward() needs, plus the outputs."""

    batch: Batch
    profiles: dict[str, Array]  # side -> (B, profile width)
    raw: dict[str, Array]  # window side -> looked-up window (B, k, width)
    aug: dict[str, Array]  # window side -> raw plus confidence
    heads: dict[str, HeadState]
    pools: dict[str, Array]
    int_states: dict[str, tuple[Array, Array]]  # name -> (concat input, pre-activation)
    drop: Array | None
    mlp_cache: FfnCache
    prob: Array
    clamp_active: Array


def _side_arrays(batch: Batch) -> tuple[dict[str, Array], dict[str, Array], dict[str, Array]]:
    """(profile ids, window ids, window mask) of the batch, each keyed by side."""
    return (
        {USER: batch.user_ids, ITEM: batch.item_ids},
        {USER: batch.user_nbrs, ITEM: batch.item_nbrs},
        {USER: batch.user_mask, ITEM: batch.item_mask},
    )


def uniform_coefficients(mask: Array) -> Array:
    """Average pooling: equal weight on live slots, zero rows stay zero."""
    mask = np.asarray(mask, dtype=np.float64)
    total = mask.sum(axis=-1, keepdims=True)
    return mask / np.maximum(total, 1.0)


def attention_logits(head: AttentionHead, query: Array, keys: Array) -> tuple[Array, HeadState]:
    """Score each window slot against the query; returns logits and cache.

    query is (B, query width), keys (B, k, key width); logits are (B, k).
    """
    if head.kind in ATT_HIDDEN:
        out, cache = ffn_forward(head.ffn, (query, keys))
        logits = out[..., 0]
        state = HeadState(np.empty(0), ffn_cache=cache)
    else:
        q = query if head.proj_w is None else affine_forward(head.proj_w, query, head.proj_b)
        logits = np.einsum("bw,bkw->bk", q, keys)
        if head.kind == "scaled-dot":
            logits = logits / np.sqrt(keys.shape[-1])
        state = HeadState(np.empty(0), query=query, keys=keys, q_proj=q)
    return logits, state


def pooled_embedding(weights: Array, values: Array) -> Array:
    """Weighted sum over window slots: (..., k) x (..., k, w) -> (..., w)."""
    return np.einsum("...k,...kw->...w", weights, values)


def integrate_forward(w: Array, b: Array, left: Array, right: Array) -> tuple[Array, Array, Array]:
    """leaky(W [left || right] + b); returns (out, pre-activation, concat)."""
    x = np.concatenate([left, right], axis=-1)
    pre = affine_forward(w, x, b)
    return leaky_relu(pre), pre, x


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
    ids, nbrs, masks = _side_arrays(batch)

    profiles = {side: lookup(params.tables[side], ids[side]).reshape(b, -1) for side in SIDES}
    raw = {
        side: lookup(params.tables[OTHER[side]], nbrs[side]).reshape(*masks[side].shape, -1)
        for side in SIDES
    }
    aug = {side: apply_confidence(params.conf[side], raw[side], masks[side]) for side in SIDES}
    pool_src = aug if cfg.confidence_in_pooling else raw

    head_states: dict[str, HeadState] = {}
    pools: dict[str, Array] = {}
    for name, (window, query) in head_wiring(cfg).items():
        mask = masks[window]
        if cfg.pooling == "attention":
            logits, state = attention_logits(params.heads[name], profiles[query], aug[window])
            state.weights = masked_softmax(logits, mask)
        else:
            state = HeadState(uniform_coefficients(mask))
        head_states[name] = state
        pools[name] = pooled_embedding(state.weights, pool_src[window])

    sources = {**profiles, **pools}
    int_states: dict[str, tuple[Array, Array]] = {}
    int_outs = []
    for name, left, right in INTEGRATE:
        out, pre, x = integrate_forward(*params.integrate[name], sources[left], sources[right])
        int_states[name] = (x, pre)
        int_outs.append(out)

    merged = np.concatenate(int_outs, axis=1)
    drop = None
    if mode == "train" and cfg.dropout > 0.0:
        if rng is None:
            raise UsageError("training forward with dropout needs a random generator")
        drop = dropout_mask(merged.shape, cfg.dropout, rng)
        merged_in = merged * drop
    else:
        merged_in = merged

    mlp_out, mlp_cache = ffn_forward(params.mlp, merged_in)
    prob_raw = sigmoid(mlp_out[:, 0])
    prob = np.clip(prob_raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
    clamp_active = (prob_raw > PROB_CLAMP) & (prob_raw < 1.0 - PROB_CLAMP)

    return ForwardState(
        batch=batch,
        profiles=profiles,
        raw=raw,
        aug=aug,
        heads=head_states,
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
    prob = np.asarray(prob, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if prob.shape != labels.shape:
        raise DataError(f"prob {prob.shape} and labels {labels.shape} must match")
    return float(-np.mean(labels * np.log(prob) + (1.0 - labels) * np.log(1.0 - prob)))


def backward(params: PigatParams, state: ForwardState, labels: Array) -> dict[str, Array]:
    """Mean-BCE gradients for every named parameter of this batch.

    Embedding and confidence accumulators are zeroed before this batch's
    gradients are scattered into them, so the returned dict always holds
    exactly this batch's gradients.
    """
    cfg = params.config
    batch = state.batch
    b = len(batch)
    labels = np.asarray(labels, dtype=np.float64)
    grads: dict[str, Array] = {}

    # Head: d loss / d logit, zero where the output clamp is active.
    d_logit = np.where(state.clamp_active, (state.prob - labels) / b, 0.0)
    d_merged_in, mlp_dw, mlp_db = ffn_backward(params.mlp, state.mlp_cache, d_logit[:, None])
    for i in range(len(params.mlp.weights)):
        grads[f"mlp.w{i}"] = mlp_dw[i]
        grads[f"mlp.b{i}"] = mlp_db[i]
    d_merged = d_merged_in * state.drop if state.drop is not None else d_merged_in

    dh = cfg.hidden_width
    sources = {**state.profiles, **state.pools}
    d_sources: dict[str, Array] = {}  # gradient per INTEGRATE input
    for idx, (name, left, right) in enumerate(INTEGRATE):
        x, pre = state.int_states[name]
        d_out = d_merged[:, idx * dh : (idx + 1) * dh]
        d_pre = d_out * leaky_relu_slope_at(pre)
        grads[f"{name}.w"] = d_pre.T @ x
        grads[f"{name}.b"] = d_pre.sum(axis=0)
        d_x = d_pre @ params.integrate[name][0]
        cut = sources[left].shape[1]
        d_sources[left] = _acc(d_sources.get(left), d_x[:, :cut])
        d_sources[right] = _acc(d_sources.get(right), d_x[:, cut:])

    ids, nbrs, masks = _side_arrays(batch)
    d_aug = {side: np.zeros_like(state.aug[side]) for side in SIDES}
    d_raw = {side: np.zeros_like(state.raw[side]) for side in SIDES}
    # Pooling reads the windows with or without confidence; its gradient goes there.
    pool_src, d_pool_src = (state.aug, d_aug) if cfg.confidence_in_pooling else (state.raw, d_raw)

    for name, (window, query) in head_wiring(cfg).items():
        hstate = state.heads[name]
        d_pool = d_sources[name]

        # Pooling backward: weights and values both carry gradient.
        d_weights = np.einsum("bw,bkw->bk", d_pool, pool_src[window])
        d_pool_src[window] += hstate.weights[:, :, None] * d_pool[:, None, :]

        if cfg.pooling != "attention":
            continue  # uniform weights carry no parameters
        d_logits = masked_softmax_backward(hstate.weights, d_weights)
        d_keys, d_query = _head_backward(params.heads[name], name, hstate, d_logits, grads)
        d_aug[window] += d_keys
        d_sources[query] += d_query

    # Confidence addition: augmented = raw + mask * rows.
    for side in SIDES:
        conf = params.conf[side]
        zero_confidence_gradient(conf)
        scatter_confidence_gradient(conf, masks[side], d_aug[side])
        if conf.trainable:
            grads[f"conf_{side}"] = conf.grad
        d_raw[side] += d_aug[side]

    # A side's table holds its profiles and the entries of the other side's window.
    for side in SIDES:
        table = params.tables[side]
        zero_gradients(table)
        scatter_gradient(table, ids[side], d_sources[side].reshape(-1, table.width))
        scatter_gradient(table, nbrs[OTHER[side]], d_raw[OTHER[side]].reshape(-1, table.width))
        grads[f"{side}_table"] = table.grad
    return grads


def _acc(current: Array | None, delta: Array) -> Array:
    return delta.copy() if current is None else current + delta


def _head_backward(
    head: AttentionHead, name: str, hstate: HeadState, d_logits: Array, grads: dict[str, Array]
) -> tuple[Array, Array]:
    """Returns (d_keys, d_query) and records the head's parameter grads."""
    if head.kind in ATT_HIDDEN:
        (d_query, d_keys), d_ws, d_bs = ffn_backward(head.ffn, hstate.ffn_cache, d_logits[:, :, None])
        for i in range(len(head.ffn.weights)):
            grads[f"att_{name}.w{i}"] = d_ws[i]
            grads[f"att_{name}.b{i}"] = d_bs[i]
        return d_keys, d_query
    scale = 1.0 / np.sqrt(hstate.keys.shape[-1]) if head.kind == "scaled-dot" else 1.0
    d_q_proj = np.einsum("bk,bkw->bw", d_logits, hstate.keys) * scale
    d_keys = d_logits[:, :, None] * hstate.q_proj[:, None, :] * scale
    if head.proj_w is None:
        return d_keys, d_q_proj
    grads[f"att_{name}.proj_w"] = d_q_proj.T @ hstate.query
    grads[f"att_{name}.proj_b"] = d_q_proj.sum(axis=0)
    return d_keys, d_q_proj @ head.proj_w


def checkpoint_arrays(params: PigatParams) -> dict[str, Array]:
    """All persisted arrays: trainables plus any frozen confidence rows."""
    arrays = dict(named_parameters(params))
    for side in SIDES:
        arrays.setdefault(f"conf_{side}", params.conf[side].rows)
    return arrays


def save_checkpoint(path: str, params: PigatParams, extra: dict | None = None) -> None:
    """Write a self-describing checkpoint.

    Layout: a magic line, one JSON header line (schema with full
    vocabularies, config, array manifest, metadata), then the raw
    float64 bytes of each array in manifest order. Nothing in the file
    depends on wall-clock time, so identical runs produce identical
    bytes.
    """
    schema = params.schema
    arrays = checkpoint_arrays(params)
    header = {
        "version": 1,
        "schema_hash": schema.structural_hash(),
        "schema": {
            "user_fields": [{"name": f.name, "values": f.values} for f in schema.user_fields],
            "item_fields": [{"name": f.name, "values": f.values} for f in schema.item_fields],
            "user_width": schema.user_width,
            "item_width": schema.item_width,
        },
        "config": config_to_dict(params.config),
        "arrays": [[name, list(a.shape)] for name, a in arrays.items()],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def load_checkpoint(path: str) -> tuple[PigatParams, dict]:
    """Rebuild params bit-for-bit from a checkpoint; returns (params, extra)."""
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
            widths = (sch["user_width"], sch["item_width"])
            if not all(type(w) is int for w in widths):
                raise TypeError(f"embedding widths {widths} are not integers")
            schema = FeatureSchema(
                user_fields=[FieldVocab(d["name"], list(d["values"])) for d in sch["user_fields"]],
                item_fields=[FieldVocab(d["name"], list(d["values"])) for d in sch["item_fields"]],
                user_width=widths[0],
                item_width=widths[1],
            )
            config = config_from_dict(header["config"])
            manifest = {name: tuple(shape) for name, shape in header["arrays"]}
        except DataError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            raise DataError(f"{path}: malformed checkpoint header: {type(err).__name__}: {err}") from None
        params = init_params(np.random.default_rng(0), schema, config)
        arrays = checkpoint_arrays(params)
        if set(manifest) != set(arrays):
            raise DataError(f"{path}: array manifest does not match the rebuilt model")
        for name, shape in header["arrays"]:
            target = arrays[name]
            if tuple(target.shape) != tuple(shape):
                raise DataError(f"{path}: array {name} has shape {shape}, expected {target.shape}")
            raw = fh.read(target.size * 8)
            if len(raw) != target.size * 8:
                raise DataError(f"{path}: truncated checkpoint while reading {name}")
            np.copyto(target, np.frombuffer(raw, dtype=np.float64).reshape(target.shape))
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after the last array")
    if header.get("schema_hash") != schema.structural_hash():
        raise DataError(f"{path}: schema hash does not match the stored schema")
    return params, header.get("extra", {})
