"""Whole-model gradient verification.

Builds a small but structurally complete model (multi-field schema,
cold / partial / full neighbor windows) and compares every analytic
gradient against central finite differences of the batch loss.

Finite differences are only meaningful where the loss is locally smooth,
so case construction rejects draws that put any leaky-relu pre-activation
within a safety margin of its kink, or the output inside its clamp band.
The margin is an order of magnitude above the worst pre-activation shift
a single coordinate step can cause; as a second line of defense, any
coordinate whose difference quotient disagrees with the analytic value is
re-measured at smaller steps. A kink crossing shrinks with the step, a
wrong analytic gradient does not, so the retry cannot hide a real bug.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .data import InteractionLog, RawInteraction, build_instances, derive_labels, encode_events
from .errors import NumericError, UsageError
from .features import ITEM, SIDES, USER, Batch, FeatureSchema, FieldVocab
from .model import ForwardState, PigatParams, backward, bce_loss, forward, init_params, named_parameters
from .nn import FfnCache, _pair_affine_forward, affine_forward, fd_coordinate

SMOOTH_MARGIN = 2e-4
DEFAULT_STEP = 1e-5
RETRY_STEPS = (1e-6, 1e-7)  # used only when a coordinate disagrees at DEFAULT_STEP
RETRY_THRESHOLD = 1e-4
# Central differences of an O(1) loss carry ~1e-11 of float64 rounding noise,
# so a 1e-4 relative comparison is only meaningful above ~1e-7. Coordinates
# where both sides sit below this floor agree to measurement precision.
REL_ERR_FLOOR = 1e-6


def toy_config(config: TrainConfig) -> TrainConfig:
    """The configured model at toy size: a 4-slot window, 8-wide embeddings, no dropout.

    Every other field keeps its configured value, the hidden width and the
    neighbor filter included.
    """
    return replace(config, max_neighbors=4, user_embed_width=8, item_embed_width=8, dropout=0.0).validate()


def toy_schema(config: TrainConfig) -> FeatureSchema:
    return FeatureSchema(
        fields={
            USER: [FieldVocab("uid", ["u0", "u1", "u2"]), FieldVocab("seg", ["a", "b"])],
            ITEM: [FieldVocab("iid", ["i0", "i1", "i2", "i3"]), FieldVocab("cat", ["x", "y"])],
        },
        widths={USER: config.user_embed_width, ITEM: config.item_embed_width},
    )


def _toy_batch(schema: FeatureSchema, config: TrainConfig, rng: np.random.Generator) -> Batch:
    """Three instances: full window, partial window, cold start."""
    segs, cats = ["a", "b"], ["x", "y"]

    def record(u, i, ts, label):
        return RawInteraction(ts, (f"u{u}", segs[u % 2]), (f"i{i}", cats[i % 2]), float(label))

    history = [(0, 0), (0, 1), (1, 2), (0, 2), (1, 0), (0, 3), (0, 1)]
    records = [record(u, i, ts, int(rng.random() < 0.5)) for ts, (u, i) in enumerate(history, start=1)]
    end = len(history) + 1
    # The queries share one timestamp, so none sees another in its window.
    queries = [record(0, 3, end, 1), record(1, 1, end, 0), record(2, 0, end, 1)]
    names = {side: [f.name for f in schema.fields[side]] for side in SIDES}
    log = InteractionLog.from_records(names, records + queries)
    args = log.timestamps, encode_events(schema, log), derive_labels(log.signals)
    batch = build_instances(schema, *args, "dynamic", config.max_neighbors, not config.include_negative_neighbors)
    return batch.take(np.arange(len(records), len(log)))


def leaky_margin(params: PigatParams, state: ForwardState) -> float:
    """Smallest |pre-activation| over every leaky layer of one train forward that no backward consumed.

    The leaky layers are the hidden layers of the ffn attention heads, the
    integrate layers and the hidden layers of the prediction MLP. The state
    keeps only their signs, so each pre-activation is computed again from
    the layer's cached input with the forward's own kernel, which gives it
    the forward's bytes.
    """
    if state.mode != "train":
        raise UsageError(f"the leaky margin needs an unconsumed train state, got a {state.mode!r} state")
    layers = [(*params.integrate[name], x) for name, (x, _) in state.int_states.items()]  # (weight, bias, input)
    ffns = [(params.mlp, state.mlp_cache)]
    ffns += [(params.heads[name].ffn, cache) for name, cache in state.caches.items() if isinstance(cache, FfnCache)]
    for ffn, cache in ffns:
        layers += zip(ffn.weights[:-1], ffn.biases, cache.inputs)  # the hidden layers
    pre_acts = [
        _pair_affine_forward(w, *x, b) if isinstance(x, tuple) else affine_forward(w, x, b) for w, b, x in layers
    ]
    return min((float(np.abs(pre).min()) for pre in pre_acts if pre.size), default=np.inf)


def build_case(config: TrainConfig, seed: int, max_tries: int = 200):
    """Deterministic (params, batch) pair with a smooth loss surface.

    Biases get a small random offset: with zero biases an all-masked
    window parks adaptive pre-activations exactly on the leaky kink,
    where finite differences do not measure the derivative.
    """
    for attempt in range(max_tries):
        rng = np.random.default_rng(seed + 7919 * attempt)
        schema = toy_schema(config)
        params = init_params(rng, schema, config)
        for arr in named_parameters(params).values():
            if arr.ndim == 1:
                arr += rng.uniform(0.02, 0.1, arr.shape) * rng.choice([-1.0, 1.0], arr.shape)
        batch = _toy_batch(schema, config, rng)
        state = forward(params, batch, mode="train")
        clamp_ok = bool(state.clamp_active.all())
        if leaky_margin(params, state) > SMOOTH_MARGIN and clamp_ok:
            return params, batch
    raise NumericError(
        f"could not find a smooth verification point for seed {seed} "
        f"after {max_tries} tries"
    )


def relative_error(a: float, f: float) -> float:
    denom = max(abs(a), abs(f))
    if denom < REL_ERR_FLOOR:
        return 0.0
    return abs(a - f) / denom


@dataclass
class GradCheckReport:
    per_group: dict[str, float]  # parameter name -> max relative error

    @property
    def max_rel_err(self) -> float:
        return max(self.per_group.values()) if self.per_group else 0.0


def check_gradients(
    params, batch: Batch, samples_per_array: int | None = 6, sample_seed: int = 0
) -> GradCheckReport:
    """Compare the gradients backward() writes to finite differences on sampled coordinates.

    samples_per_array=None checks every coordinate of every parameter.
    Parameters are perturbed in place and restored exactly.
    """
    backward(params, forward(params, batch, mode="train"))

    def loss_now(_: np.ndarray) -> float:
        # The perturbed array is a live parameter, so forward() reads it.
        st = forward(params, batch, mode="train")
        return bce_loss(st.prob, batch.labels)

    rng = np.random.default_rng(sample_seed)
    per_group: dict[str, float] = {}
    for name, arr in named_parameters(params).items():
        if samples_per_array is None or samples_per_array >= arr.size:
            coords = np.arange(arr.size)
        else:
            coords = rng.choice(arr.size, size=samples_per_array, replace=False)
        worst = 0.0
        g_flat = params.grads[name].reshape(-1)
        for c in coords:
            analytic = float(g_flat[c])
            err = relative_error(analytic, fd_coordinate(loss_now, arr, c, DEFAULT_STEP))
            for step in RETRY_STEPS:
                if err <= RETRY_THRESHOLD:
                    break
                err = min(err, relative_error(analytic, fd_coordinate(loss_now, arr, c, step)))
            worst = max(worst, err)
        per_group[name] = worst
    return GradCheckReport(per_group)


def run_case(config: TrainConfig, seed: int, samples_per_array: int | None = 6) -> GradCheckReport:
    """Check the configured model, shrunk by toy_config, at one verification point."""
    params, batch = build_case(toy_config(config), seed)
    return check_gradients(params, batch, samples_per_array, sample_seed=seed)
