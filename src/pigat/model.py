"""The recommender model: batched forward pass and manual backward pass.

Dataflow per instance:

  profile embeddings  e_user, e_item        (concatenated field lookups)
  neighbor windows    user side: item profiles; item side: bare user ids
  confidence          additive per-position vectors on the windows
  four attention heads
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
from dataclasses import dataclass, field

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

LEAKY_SLOPE = 0.01
PROB_CLAMP = 1e-7
MLP_HIDDEN = (80, 40)
ATT_HIDDEN = {"ffn-1": (), "ffn-2": (32,), "ffn-3": (64, 32)}
HEAD_NAMES = ("ui", "ua", "ii", "ia")
# The integrate layers as (name, left input, right input), in the order
# their outputs are concatenated. "user" and "item" are the profile
# embeddings, head names their pooled windows.
INTEGRATE = (
    ("int_user", "user", "ui"),
    ("int_item", "item", "ii"),
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
        return AttentionHead(kind, ffn=ffn_init(rng, dims, LEAKY_SLOPE))
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
    user_table: EmbeddingTable
    item_table: EmbeddingTable
    conf_user: ConfidenceTable
    conf_item: ConfidenceTable
    heads: dict[str, AttentionHead]
    int_user_w: Array
    int_user_b: Array
    int_item_w: Array
    int_item_b: Array
    adp_user_w: Array
    adp_user_b: Array
    adp_item_w: Array
    adp_item_b: Array
    mlp: FfnParams

    def integrate_layer(self, name: str) -> tuple[Array, Array]:
        """(weight, bias) of one INTEGRATE layer."""
        return getattr(self, f"{name}_w"), getattr(self, f"{name}_b")


def query_sides(config: TrainConfig) -> dict[str, str]:
    """Which profile embedding each head scores the window against."""
    if config.user_query_only:
        return {name: "user" for name in HEAD_NAMES}
    return {"ui": "user", "ua": "item", "ii": "item", "ia": "user"}


def init_params(rng: np.random.Generator, schema: FeatureSchema, config: TrainConfig) -> PigatParams:
    """Build all trainable state. Draw order is fixed for determinism."""
    config.validate()
    du = len(schema.user_fields) * schema.user_width
    di = len(schema.item_fields) * schema.item_width
    win_user, win_item = di, schema.user_width  # window entry widths per side
    k = config.max_neighbors

    user_table = table_for_side(rng, schema, USER)
    item_table = table_for_side(rng, schema, ITEM)
    conf_user = build_confidence(config.confidence, k, win_user, rng)
    conf_item = build_confidence(config.confidence, k, win_item, rng)

    heads: dict[str, AttentionHead] = {}
    if config.pooling == "attention":
        sides = query_sides(config)
        qw = {"user": du, "item": di}
        for name in HEAD_NAMES:
            k_width = win_user if name in ("ui", "ua") else win_item
            heads[name] = _init_head(rng, config.attention, qw[sides[name]], k_width)

    dh = config.hidden_width
    widths = {"user": du, "item": di, "ui": win_user, "ua": win_user, "ii": win_item, "ia": win_item}
    integrate = {}
    for name, left, right in INTEGRATE:
        integrate[f"{name}_w"] = glorot_uniform(rng, dh, widths[left] + widths[right])
        integrate[f"{name}_b"] = np.zeros(dh)
    return PigatParams(
        schema=schema,
        config=config,
        user_table=user_table,
        item_table=item_table,
        conf_user=conf_user,
        conf_item=conf_item,
        heads=heads,
        **integrate,
        mlp=ffn_init(rng, [len(INTEGRATE) * dh, *MLP_HIDDEN, 1], LEAKY_SLOPE),
    )


def named_parameters(params: PigatParams) -> dict[str, Array]:
    """Stable name -> array view of everything the optimizer may touch."""
    out: dict[str, Array] = {
        "user_table": params.user_table.weight,
        "item_table": params.item_table.weight,
    }
    if params.conf_user.trainable:
        out["conf_user"] = params.conf_user.rows
    if params.conf_item.trainable:
        out["conf_item"] = params.conf_item.rows
    for name, head in params.heads.items():
        if head.ffn is not None:
            for i, (w, b) in enumerate(zip(head.ffn.weights, head.ffn.biases)):
                out[f"att_{name}.w{i}"] = w
                out[f"att_{name}.b{i}"] = b
        elif head.proj_w is not None:
            out[f"att_{name}.proj_w"] = head.proj_w
            out[f"att_{name}.proj_b"] = head.proj_b
    for name, _, _ in INTEGRATE:
        out[f"{name}.w"], out[f"{name}.b"] = params.integrate_layer(name)
    for i, (w, b) in enumerate(zip(params.mlp.weights, params.mlp.biases)):
        out[f"mlp.w{i}"] = w
        out[f"mlp.b{i}"] = b
    return out


@dataclass
class HeadState:
    logits: Array  # (B, k)
    weights: Array  # (B, k)
    query: Array | None = None  # the scoring query, for dot kinds
    keys: Array | None = None  # the scored window, for dot kinds
    ffn_cache: FfnCache | None = None  # holds query and window for ffn kinds
    q_proj: Array | None = None  # projected query for dot kinds


@dataclass
class ForwardState:
    """Everything backward() needs, plus the outputs."""

    batch: Batch
    mode: str
    e_user: Array
    e_item: Array
    un_raw: Array
    in_raw: Array
    un_aug: Array
    in_aug: Array
    heads: dict[str, HeadState]
    pools: dict[str, Array]
    int_states: dict[str, tuple[Array, Array]]  # name -> (concat input, pre-activation)
    merged: Array
    drop: Array | None
    mlp_cache: FfnCache
    logit: Array
    prob_raw: Array
    prob: Array
    clamp_active: Array


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
        state = HeadState(logits, np.empty(0), ffn_cache=cache)
    else:
        q = query if head.proj_w is None else affine_forward(head.proj_w, query, head.proj_b)
        logits = np.einsum("bw,bkw->bk", q, keys)
        if head.kind == "scaled-dot":
            logits = logits / np.sqrt(keys.shape[-1])
        state = HeadState(logits, np.empty(0), query=query, keys=keys, q_proj=q)
    return logits, state


def pooled_embedding(weights: Array, values: Array) -> Array:
    """Weighted sum over window slots: (..., k) x (..., k, w) -> (..., w)."""
    return np.einsum("...k,...kw->...w", weights, values)


def integrate_forward(w: Array, b: Array, left: Array, right: Array) -> tuple[Array, Array, Array]:
    """leaky(W [left || right] + b); returns (out, pre-activation, concat)."""
    x = np.concatenate([left, right], axis=-1)
    pre = affine_forward(w, x, b)
    return leaky_relu(pre, LEAKY_SLOPE), pre, x


def forward(
    params: PigatParams,
    batch: Batch,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> ForwardState:
    if mode not in ("train", "eval"):
        raise DomainError(f"mode must be train or eval, got {mode!r}")
    cfg = params.config
    schema = params.schema
    b = len(batch)
    h_u, h_i = schema.user_width, schema.item_width
    n_u, n_i = len(schema.user_fields), len(schema.item_fields)

    e_user = lookup(params.user_table, batch.user_ids).reshape(b, n_u * h_u)
    e_item = lookup(params.item_table, batch.item_ids).reshape(b, n_i * h_i)
    un_raw = lookup(params.item_table, batch.user_nbrs).reshape(b, -1, n_i * h_i)
    in_raw = lookup(params.user_table, batch.item_nbrs)

    un_aug = apply_confidence(params.conf_user, un_raw, batch.user_mask)
    in_aug = apply_confidence(params.conf_item, in_raw, batch.item_mask)
    un_pool = un_aug if cfg.confidence_in_pooling else un_raw
    in_pool = in_aug if cfg.confidence_in_pooling else in_raw

    profiles = {"user": e_user, "item": e_item}
    sides = query_sides(cfg)
    head_states: dict[str, HeadState] = {}
    pools: dict[str, Array] = {}
    for name in HEAD_NAMES:
        keys, pool_src, mask = (
            (un_aug, un_pool, batch.user_mask)
            if name in ("ui", "ua")
            else (in_aug, in_pool, batch.item_mask)
        )
        if cfg.pooling == "attention":
            logits, state = attention_logits(params.heads[name], profiles[sides[name]], keys)
            state.weights = masked_softmax(logits, mask)
        else:
            state = HeadState(np.zeros_like(mask, dtype=np.float64), uniform_coefficients(mask))
        head_states[name] = state
        pools[name] = pooled_embedding(state.weights, pool_src)

    sources = {**profiles, **pools}
    int_states: dict[str, tuple[Array, Array]] = {}
    int_outs = []
    for name, left, right in INTEGRATE:
        w, bias = params.integrate_layer(name)
        out, pre, x = integrate_forward(w, bias, sources[left], sources[right])
        int_states[name] = (x, pre)
        int_outs.append(out)

    merged = np.concatenate(int_outs, axis=1)
    drop = None
    if mode == "train" and cfg.dropout > 0.0:
        if rng is None:
            raise UsageError("training forward with dropout needs a random generator")
        drop = np.stack([dropout_mask(merged.shape[1], cfg.dropout, rng) for _ in range(b)])
        merged_in = merged * drop
    else:
        merged_in = merged

    mlp_out, mlp_cache = ffn_forward(params.mlp, merged_in)
    logit = mlp_out[:, 0]
    prob_raw = sigmoid(logit)
    prob = np.clip(prob_raw, PROB_CLAMP, 1.0 - PROB_CLAMP)
    clamp_active = (prob_raw > PROB_CLAMP) & (prob_raw < 1.0 - PROB_CLAMP)

    return ForwardState(
        batch=batch,
        mode=mode,
        e_user=e_user,
        e_item=e_item,
        un_raw=un_raw,
        in_raw=in_raw,
        un_aug=un_aug,
        in_aug=in_aug,
        heads=head_states,
        pools=pools,
        int_states=int_states,
        merged=merged,
        drop=drop,
        mlp_cache=mlp_cache,
        logit=logit,
        prob_raw=prob_raw,
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


def zero_all_gradients(params: PigatParams) -> None:
    zero_gradients(params.user_table)
    zero_gradients(params.item_table)
    zero_confidence_gradient(params.conf_user)
    zero_confidence_gradient(params.conf_item)


def backward(params: PigatParams, state: ForwardState, labels: Array) -> dict[str, Array]:
    """Mean-BCE gradients for every named parameter of this batch.

    Embedding and confidence accumulators are zeroed on entry, so the
    returned dict always holds exactly this batch's gradients.
    """
    cfg = params.config
    batch = state.batch
    b = len(batch)
    labels = np.asarray(labels, dtype=np.float64)
    zero_all_gradients(params)
    grads: dict[str, Array] = {}

    # Head: d loss / d logit, zero where the output clamp is active.
    d_logit = np.where(state.clamp_active, (state.prob - labels) / b, 0.0)
    d_merged_in, mlp_dw, mlp_db = ffn_backward(params.mlp, state.mlp_cache, d_logit[:, None])
    for i in range(len(params.mlp.weights)):
        grads[f"mlp.w{i}"] = mlp_dw[i]
        grads[f"mlp.b{i}"] = mlp_db[i]
    d_merged = d_merged_in * state.drop if state.drop is not None else d_merged_in

    dh = cfg.hidden_width
    sources = {"user": state.e_user, "item": state.e_item, **state.pools}
    d_sources: dict[str, Array] = {}  # gradient per INTEGRATE input
    for idx, (name, left, right) in enumerate(INTEGRATE):
        x, pre = state.int_states[name]
        d_out = d_merged[:, idx * dh : (idx + 1) * dh]
        d_pre = d_out * leaky_relu_slope_at(pre, LEAKY_SLOPE)
        grads[f"{name}.w"] = d_pre.T @ x
        grads[f"{name}.b"] = d_pre.sum(axis=0)
        d_x = d_pre @ params.integrate_layer(name)[0]
        cut = sources[left].shape[1]
        d_sources[left] = _acc(d_sources.get(left), d_x[:, :cut])
        d_sources[right] = _acc(d_sources.get(right), d_x[:, cut:])

    un_pool = state.un_aug if cfg.confidence_in_pooling else state.un_raw
    in_pool = state.in_aug if cfg.confidence_in_pooling else state.in_raw
    d_un_aug = np.zeros_like(state.un_aug)
    d_in_aug = np.zeros_like(state.in_aug)
    d_un_raw = np.zeros_like(state.un_raw)
    d_in_raw = np.zeros_like(state.in_raw)
    sides = query_sides(cfg)

    for name in HEAD_NAMES:
        hstate = state.heads[name]
        user_side = name in ("ui", "ua")
        mask = batch.user_mask if user_side else batch.item_mask
        pool_src = un_pool if user_side else in_pool
        d_pool = d_sources[name]

        # Pooling backward: weights and values both carry gradient.
        d_weights = np.einsum("bw,bkw->bk", d_pool, pool_src)
        d_src = hstate.weights[:, :, None] * d_pool[:, None, :]
        if cfg.confidence_in_pooling:
            (d_un_aug if user_side else d_in_aug)[...] += d_src
        else:
            (d_un_raw if user_side else d_in_raw)[...] += d_src

        if cfg.pooling != "attention":
            continue  # uniform weights carry no parameters
        d_logits = masked_softmax_backward(hstate.weights, d_weights)
        head = params.heads[name]
        d_keys, d_query = _head_backward(head, name, hstate, d_logits, grads)
        (d_un_aug if user_side else d_in_aug)[...] += d_keys
        d_sources[sides[name]] += d_query

    # Confidence addition: augmented = raw + mask * rows.
    scatter_confidence_gradient(params.conf_user, batch.user_mask, d_un_aug)
    scatter_confidence_gradient(params.conf_item, batch.item_mask, d_in_aug)
    if params.conf_user.trainable:
        grads["conf_user"] = params.conf_user.grad
    if params.conf_item.trainable:
        grads["conf_item"] = params.conf_item.grad
    d_un_raw += d_un_aug
    d_in_raw += d_in_aug

    h_u, h_i = params.schema.user_width, params.schema.item_width
    scatter_gradient(params.user_table, batch.user_ids, d_sources["user"].reshape(b, -1, h_u))
    scatter_gradient(params.item_table, batch.item_ids, d_sources["item"].reshape(b, -1, h_i))
    scatter_gradient(params.item_table, batch.user_nbrs, d_un_raw.reshape(b, d_un_raw.shape[1], -1, h_i))
    scatter_gradient(params.user_table, batch.item_nbrs, d_in_raw)
    grads["user_table"] = params.user_table.grad
    grads["item_table"] = params.item_table.grad
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
    arrays.setdefault("conf_user", params.conf_user.rows)
    arrays.setdefault("conf_item", params.conf_item.rows)
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
