"""Dense numeric kernels with hand-written backward passes.

Everything runs in float64. Each forward that participates in training
returns a cache consumed by its matching backward; the test suite checks
every backward against the central finite-difference oracle implemented
at the bottom of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, UsageError

Array = np.ndarray

# Negative-side slope of every leaky-relu in the model.
LEAKY_SLOPE = 0.01


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> Array:
    """Sample a (out_dim, in_dim) matrix uniform in +-sqrt(6 / (in + out))."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def affine_forward(w: Array, x: Array, b: Array) -> Array:
    """Apply x -> w @ x + b along the last axis of x.

    x may carry leading batch axes; w is (out, in), b is (out,).
    """
    if w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine expects matrix and vector, got w {w.shape}, b {b.shape}")
    if x.shape[-1] != w.shape[1] or b.shape[0] != w.shape[0]:
        raise ShapeError(f"affine shapes do not chain: w {w.shape}, x {x.shape}, b {b.shape}")
    return x @ w.T + b


# The two leaky-relu kernels avoid np.where: selecting on a mask of random
# signs mispredicts about half its branches, which on pre-activation arrays
# costs several times the arithmetic. Both give the same bytes as the
# np.where forms, signed zeros, infinities and nan included.


def leaky_relu(x: Array) -> Array:
    """Elementwise max(x, LEAKY_SLOPE * x)."""
    # np.maximum returns its first argument when both are nan; LEAKY_SLOPE * x
    # first gives nan inputs the same (quieted) bytes as the np.where form.
    return np.maximum(LEAKY_SLOPE * x, x)


def leaky_relu_slope_at(x: Array) -> Array:
    """Derivative factor of leaky_relu: 1 where x >= 0, else LEAKY_SLOPE (nan included)."""
    return np.maximum((x >= 0.0).astype(np.float64), LEAKY_SLOPE)


def masked_softmax(z: Array, mask: Array) -> Array:
    """Softmax restricted to live positions; dead positions come out 0.

    A row with no live positions yields the all-zero row rather than an
    error, which is how cold-start neighbor windows are represented.
    """
    z = np.asarray(z, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if z.shape != mask.shape:
        raise ShapeError(f"logits {z.shape} and mask {mask.shape} must match")
    if z.shape[-1] == 0:
        raise DomainError("masked softmax over an empty vector is undefined")
    any_live = mask.any(axis=-1, keepdims=True)
    zmax = np.max(np.where(mask, z, -np.inf), axis=-1, keepdims=True)
    zmax = np.where(any_live, zmax, 0.0)
    e = np.where(mask, np.exp(np.where(mask, z - zmax, 0.0)), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    return np.where(any_live, e / np.where(total == 0.0, 1.0, total), 0.0)


def masked_softmax_backward(weights: Array, d_weights: Array) -> Array:
    """Gradient of masked_softmax given its output and the upstream grad.

    Dead positions have weight 0 and therefore receive logit gradient 0.
    """
    inner = np.sum(weights * d_weights, axis=-1, keepdims=True)
    return weights * (d_weights - inner)


def sigmoid(x: Array | float) -> Array | float:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out) if out.ndim == 0 else out


def dropout_mask(shape: int | tuple[int, ...], ratio: float, rng: np.random.Generator) -> Array:
    """Inverted-dropout scaling array: kept units scale by 1/(1-ratio)."""
    if not 0.0 <= ratio < 1.0:
        raise DomainError(f"dropout ratio must be in [0, 1), got {ratio}")
    if ratio == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= ratio
    return keep / (1.0 - ratio)


@dataclass
class FfnParams:
    """A stack of affine layers with leaky-relu between them.

    The final layer is linear; hidden layers apply leaky-relu.
    weights[i] has shape (dims[i + 1], dims[i]).
    """

    weights: list[Array]
    biases: list[Array]


def ffn_init(rng: np.random.Generator, dims: list[int]) -> FfnParams:
    """Build an FFN with the given layer widths, glorot weights, zero biases."""
    if len(dims) < 2:
        raise DomainError("an FFN needs at least an input and an output width")
    weights = [glorot_uniform(rng, dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return FfnParams(weights, biases)


@dataclass
class FfnCache:
    inputs: list  # per layer its input; the first may be a (query, keys) pair
    pre_acts: list[Array]


def _pair_affine_forward(w: Array, query: Array, keys: Array, b: Array) -> Array:
    """w @ [query || keys[:, j]] + b for every slot j, without the concatenation.

    The weight splits by columns, W [q || k] = W[:, :qw] q + W[:, qw:] k,
    so the query term is computed once per row and broadcast over the slots.
    """
    if query.ndim != 2 or keys.ndim != 3 or query.shape[0] != keys.shape[0]:
        raise ShapeError(f"pair input expects (B, qw) and (B, k, kw), got {query.shape}, {keys.shape}")
    qw = query.shape[1]
    if qw + keys.shape[2] != w.shape[1]:
        raise ShapeError(f"affine shapes do not chain: w {w.shape}, query {query.shape}, keys {keys.shape}")
    return keys @ w[:, qw:].T + (query @ w[:, :qw].T + b)[:, None, :]


def ffn_forward(params: FfnParams, x: Array | tuple[Array, Array]) -> tuple[Array, FfnCache]:
    """Run the FFN on (..., in_dim) input, returning output and cache.

    x may instead be a pair (query, keys) of shapes (B, qw) and (B, k, kw)
    with qw + kw = in_dim. Each slot j is then scored as the input
    [query || keys[:, j]] would be, giving (B, k, out_dim), but the query's
    share of the first layer is computed once per row rather than per slot.
    """
    inputs: list = []
    pre_acts: list[Array] = []
    pair = isinstance(x, tuple)
    h = x if pair else np.asarray(x, dtype=np.float64)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        inputs.append(h)
        pre = _pair_affine_forward(w, *h, b) if pair and i == 0 else affine_forward(w, h, b)
        pre_acts.append(pre)
        h = pre if i == last else leaky_relu(pre)
    return h, FfnCache(inputs, pre_acts)


def ffn_backward(
    params: FfnParams, cache: FfnCache, d_out: Array
) -> tuple[Array, list[Array], list[Array]]:
    """Backprop through the FFN.

    Returns (d_input, d_weights, d_biases). Leading batch axes of d_out
    are flattened into the accumulation, matching ffn_forward. After a
    (query, keys) pair input, d_input is the pair (d_query, d_keys); the
    query was broadcast over the slots, so its gradient sums over them,
    and that sum is taken before the query-side matmuls.
    """
    n_layers = len(params.weights)
    if len(cache.inputs) != n_layers or len(cache.pre_acts) != n_layers:
        raise UsageError("forward cache does not match the FFN it came from")
    d_weights: list[Array] = [np.empty(0)] * n_layers
    d_biases: list[Array] = [np.empty(0)] * n_layers
    g = np.asarray(d_out, dtype=np.float64)
    for i in range(n_layers - 1, -1, -1):
        w, x_in, pre = params.weights[i], cache.inputs[i], cache.pre_acts[i]
        if g.shape != pre.shape:
            raise UsageError(
                f"stale cache: upstream grad {g.shape} does not match pre-activation {pre.shape}"
            )
        if i != n_layers - 1:
            g = g * leaky_relu_slope_at(pre)
        if isinstance(x_in, tuple):  # only the first layer takes a pair
            query, keys = x_in
            qw = query.shape[1]
            g_query = g.sum(axis=1)
            d_keys_w = g.reshape(-1, g.shape[-1]).T @ keys.reshape(-1, keys.shape[-1])
            d_weights[0] = np.concatenate([g_query.T @ query, d_keys_w], axis=1)
            d_biases[0] = g_query.sum(axis=0)
            return (g_query @ w[:, :qw], g @ w[:, qw:]), d_weights, d_biases
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x_in.reshape(-1, x_in.shape[-1])
        d_weights[i] = g2.T @ x2
        d_biases[i] = g2.sum(axis=0)
        g = g @ w
    return g, d_weights, d_biases


@dataclass
class RowMoments:
    """Adam moments of a table's live rows, kept compactly in first-touch order.

    A row is live once it has had a gradient; until then its moments are
    exactly +0.0 and its update is exactly zero, so it is not stored.
    """

    slot: Array  # (rows,) position of each row in `live`, -1 while it has none
    live: Array  # (rows,) live rows in first-touch order; the first n are valid
    m: Array  # (rows, ...) row i holds the moments of live[i]
    v: Array
    n: int = 0


@dataclass
class AdamState:
    """Adam accumulators plus the schedule knobs the trainer mutates."""

    learning_rate: float
    l2: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, Array] | None = None
    v: dict[str, Array] | None = None
    # Row-sparse arrays whose moments are still compact; each moves to m
    # and v once half its rows are live.
    compact: dict[str, RowMoments] = field(default_factory=dict, repr=False)
    # Two flat buffers as large as the largest parameter; every step's
    # temporaries are written into slices of them instead of allocated.
    scratch: tuple[Array, Array] = field(default_factory=lambda: (np.empty(0), np.empty(0)), repr=False)

    def __post_init__(self) -> None:
        if self.m is None:
            self.m = {}
        if self.v is None:
            self.v = {}


def adam_step(
    state: AdamState,
    params: dict[str, Array],
    grads: dict[str, Array],
    rows: dict[str, Array] | None = None,
) -> None:
    """One bias-corrected Adam update, in place, over named arrays.

    L2 enters as coupled weight decay: the effective gradient is
    grad + l2 * param. The step counter increments exactly once per call.
    After an array's first update it allocates no parameter-sized array,
    except once, when a row-sparse array's moments turn dense. Each
    operation keeps the operand order of the plain expression
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), so the bytes match it.

    rows optionally names, per array, the distinct first-axis rows
    where its gradient may be nonzero; every other row must be +0.0. With
    l2 == 0 such an array is updated row-sparsely with the same bytes as
    the dense update: the gradient terms are added on those rows only,
    and rows that never had a gradient are skipped. On a row with a zero
    gradient the dense update adds +0.0 to m * beta1 and v * beta2, and on
    a row whose moments are +0.0 it subtracts +0.0 / (0 + eps) from p;
    both leave every bit unchanged. The one exception: where m * beta1
    underflows to -0.0 on an idle row, the dense update makes it +0.0.
    That reaches p only when p is exactly -0.0, after some 7000 idle steps.
    """
    state.t += 1
    t = state.t
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    largest = max((p.size for p in params.values()), default=0)
    if state.scratch[0].size < largest:
        state.scratch = (np.empty(largest), np.empty(largest))
    rows = rows if rows is not None and state.l2 == 0.0 else {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.shape} for {name}")
        if name in rows and _row_sparse_update(state, name, p, g, rows[name], c1, c2):
            continue
        if name in state.compact:
            _to_dense(state, name)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        a, b = (buf[: p.size].reshape(p.shape) for buf in state.scratch)
        if state.l2 != 0.0:
            np.multiply(state.l2, p, out=a)
            g = np.add(g, a, out=a)
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=b)
        v *= state.beta2
        np.multiply(g, g, out=b)
        v += np.multiply(1.0 - state.beta2, b, out=b)
        p -= _step(state, m, v, c1, c2)


def _step(state: AdamState, m: Array, v: Array, c1: float, c2: float) -> Array:
    """lr * (m / c1) / (sqrt(v / c2) + eps), in the first scratch buffer; the second is free after."""
    a, b = (buf[: m.size].reshape(m.shape) for buf in state.scratch)
    m_hat = np.divide(m, c1, out=a)
    step = np.multiply(state.learning_rate, m_hat, out=a)
    denom = np.sqrt(np.divide(v, c2, out=b), out=b)
    denom += state.eps
    return np.divide(step, denom, out=a)


def _to_dense(state: AdamState, name: str) -> None:
    """Move an array's compact moments into table-shaped m and v."""
    rm = state.compact.pop(name)
    live = rm.live[: rm.n]
    for dense, compact in ((state.m, rm.m), (state.v, rm.v)):
        dense[name] = np.zeros_like(compact)
        dense[name][live] = compact[: rm.n]


# Once moments are dense, a larger share of touched rows is updated faster
# by the plain dense update than by gathering and scattering those rows
# (measured on tables of 1.5k-11k rows and widths 8-32).
ROW_SPARSE_MAX_SHARE = 1 / 8


def _row_sparse_update(
    state: AdamState, name: str, p: Array, g: Array, touched: Array, c1: float, c2: float
) -> bool:
    """The l2 == 0 update of adam_step where only the `touched` rows of g are nonzero.

    Returns False, having updated nothing, when the plain dense update is
    the faster way to do it.
    """
    if name not in state.m and name not in state.compact:
        state.compact[name] = RowMoments(
            np.full(p.shape[0], -1, dtype=np.intp), np.empty(p.shape[0], dtype=np.intp),
            np.zeros_like(p), np.zeros_like(p),
        )
    rm = state.compact.get(name)
    if rm is not None:
        new = touched[rm.slot[touched] < 0]
        rm.slot[new] = np.arange(rm.n, rm.n + new.size)
        rm.live[rm.n : rm.n + new.size] = new
        rm.n += new.size
        if 2 * rm.n > p.shape[0]:
            _to_dense(state, name)
            rm = None
    if rm is None and touched.size > ROW_SPARSE_MAX_SHARE * p.shape[0]:
        return False
    g = g[touched]
    if rm is None:  # dense moments: decay every row, add gradient terms on touched rows
        m, v, at = state.m[name], state.v[name], touched
    else:
        m, v, at = rm.m[: rm.n], rm.v[: rm.n], rm.slot[touched]
    m *= state.beta1
    m[at] += (1.0 - state.beta1) * g
    v *= state.beta2
    v[at] += (1.0 - state.beta2) * (g * g)
    step = _step(state, m, v, c1, c2)
    if rm is None:
        p -= step
        return True
    live = rm.live[: rm.n]
    # mode="clip" writes straight into out; the default mode buffers.
    q = np.take(p, live, axis=0, out=state.scratch[1][: m.size].reshape(m.shape), mode="clip")
    q -= step
    p[live] = q
    return True


def fd_coordinate(f, x: Array, i: int, h: float = 1e-5) -> float:
    """Central difference of the scalar f(x) along one flattened coordinate of x.

    This is the independent oracle the analytic backward passes are judged
    against; it is only meaningful in double precision. x is perturbed in
    place and restored exactly, so f may also read it through an alias,
    such as a model parameter array.
    """
    flat = x.reshape(-1)
    if not np.shares_memory(flat, x):
        raise UsageError("finite differences need a contiguous array to perturb in place")
    keep = flat[i]
    flat[i] = keep + h
    up = f(x)
    flat[i] = keep - h
    down = f(x)
    flat[i] = keep
    return (up - down) / (2.0 * h)
