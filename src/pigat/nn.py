"""Dense numeric kernels with hand-written backward passes.

Everything runs in float64. Each forward that participates in training
returns a cache consumed by its matching backward, which may write into
the arrays the cache owns; the test suite checks
every backward against the central finite-difference oracle implemented
at the bottom of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, UsageError

Array = np.ndarray

# Negative-side slope of every leaky-relu in the model.
LEAKY_SLOPE = 0.01
# Adam's moment decay rates and denominator shift.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Values per block of an Adam update: its temporaries live in two scratch
# buffers of this size. The model's dense trainables (about 58k values at
# the default widths) take one block; a table takes one per 64 Ki values.
ADAM_BLOCK = 1 << 16


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
    out = x @ w.T
    out += b  # into the product: one new array, with the bytes of x @ w.T + b
    return out


def affine_backward(w: Array, x: Array, g: Array, d_w: Array, d_b: Array, out: Array | None = None) -> Array:
    """Backprop g through affine_forward(w, x, b): writes d_w and d_b summed over batch axes, returns d_x.

    d_x goes into out when given; out may be x itself, which is read only
    before d_x is written.
    """
    g2 = g.reshape(-1, g.shape[-1])
    np.matmul(g2.T, x.reshape(-1, x.shape[-1]), out=d_w)
    g2.sum(axis=0, out=d_b)
    return np.matmul(g, w, out=out)


# The two leaky-relu kernels avoid np.where: selecting on a mask of random
# signs mispredicts about half its branches, which on pre-activation arrays
# costs several times the arithmetic. Both give the same bytes as the
# np.where forms, signed zeros, infinities and nan included, and write their
# result into their own first temporary rather than a second new array.


def _into_first(ufunc: np.ufunc, a: Array, b: Array | float) -> Array:
    """ufunc(a, b) written into a, a temporary the caller made; a 0-d a is a numpy scalar and takes no out=."""
    return ufunc(a, b, out=a) if isinstance(a, np.ndarray) else ufunc(a, b)


def leaky_relu(x: Array) -> Array:
    """Elementwise max(x, LEAKY_SLOPE * x), in a new array; x is only read."""
    # np.maximum returns its first argument when both are nan; LEAKY_SLOPE * x
    # first gives nan inputs the same (quieted) bytes as the np.where form.
    return _into_first(np.maximum, LEAKY_SLOPE * x, x)


def leaky_relu_slope_at(sign: Array) -> Array:
    """Derivative factor of leaky_relu at x, from sign = (x >= 0.0): 1 where it holds, else LEAKY_SLOPE.

    A nan x has sign False, so its factor is LEAKY_SLOPE.
    """
    return _into_first(np.maximum, sign.astype(np.float64), LEAKY_SLOPE)


def masked_softmax(z: Array, mask: Array) -> Array:
    """Softmax restricted to live positions; dead positions come out 0.

    A row with no live positions yields the all-zero row rather than an
    error, which is how cold-start neighbor windows are represented.
    """
    if z.shape != mask.shape:
        raise ShapeError(f"logits {z.shape} and mask {mask.shape} must match")
    if z.shape[-1] == 0:
        raise DomainError("masked softmax over an empty vector is undefined")
    # The ufuncs' own reduce, not np.max and e.sum: the same C loops without
    # their Python wrappers, which cost more than the arithmetic of a small batch.
    zmax = np.maximum.reduce(z, axis=-1, keepdims=True, where=mask, initial=-np.inf)
    e = np.exp(z - zmax, where=mask, out=np.zeros(z.shape))
    # A live row's largest slot adds exp(0) = 1 to a sum of non-negative
    # terms, so its total is at least 1 (or nan); only a dead row, all of
    # whose terms are 0, is divided by the floor.
    return e / np.maximum(np.add.reduce(e, axis=-1, keepdims=True), 1.0)


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
    one_z = 1.0 + z
    out = np.where(x >= 0.0, 1.0 / one_z, z / one_z)
    return float(out) if out.ndim == 0 else out


def dropout_mask(shape: int | tuple[int, ...], ratio: float, rng: np.random.Generator) -> Array:
    """Inverted-dropout scaling array: kept units scale by 1/(1-ratio)."""
    if not 0.0 <= ratio < 1.0:
        raise DomainError(f"dropout ratio must be in [0, 1), got {ratio}")
    keep = rng.random(shape) >= ratio
    return keep / (1.0 - ratio)


@dataclass
class FfnParams:
    """A stack of affine layers with leaky-relu between them.

    The final layer is linear; hidden layers apply leaky-relu.
    weights[i] has shape (dims[i + 1], dims[i]).
    """

    weights: tuple[Array, ...]
    biases: tuple[Array, ...]


@dataclass
class FfnCache:
    """What ffn_backward needs of one training forward, and no more.

    inputs[i] is layer i's input; the first may be a (query, keys) pair.
    signs[i] is hidden layer i's pre-activation >= 0.0, a bool array: the
    leaky-relu derivative reads nothing else of it. ffn_backward consumes
    the cache, writing each input gradient below the first layer into the
    input array it replaces, and leaves both lists empty.
    """

    inputs: list
    signs: list[Array]


def _pair_affine_forward(w: Array, query: Array, keys: Array, b: Array, rows: Array | slice = slice(None)) -> Array:
    """w @ [query[rows][i] || keys[i, j]] + b for every slot j of each key row i, without the concatenation.

    The weight splits by columns, W [q || k] = W[:, :qw] q + W[:, qw:] k,
    so the query term is computed once per row and broadcast over the slots.
    It is computed on every row of query and then taken at rows: a 2-D
    product's bytes may depend on its row count, while the stacked
    (n, k, ·) key product runs row by row and gives the same bytes on any
    subset of rows.
    """
    if query.ndim != 2 or keys.ndim != 3:
        raise ShapeError(f"pair input expects (B, qw) and (n, k, kw), got {query.shape}, {keys.shape}")
    qw = query.shape[1]
    if qw + keys.shape[2] != w.shape[1]:
        raise ShapeError(f"affine shapes do not chain: w {w.shape}, query {query.shape}, keys {keys.shape}")
    share = (query @ w[:, :qw].T + b)[rows]
    if share.shape[0] != keys.shape[0]:
        raise ShapeError(f"keys {keys.shape} do not hold one window per query row taken, {share.shape[0]}")
    out = keys @ w[:, qw:].T
    out += share[:, None, :]  # the same sum, into the (n, k, out) product
    return out


def ffn_forward(
    params: FfnParams, x: Array | tuple[Array, Array], train: bool, rows: Array | slice = slice(None)
) -> tuple[Array, FfnCache | None]:
    """Run the FFN on (..., in_dim) input, returning output and cache.

    x may instead be a pair (query, keys) of shapes (B, qw) and (n, k, kw)
    with qw + kw = in_dim, where keys holds the windows of the query rows
    `rows`. Each slot j of key row i is then scored as the input
    [query[rows][i] || keys[i, j]] would be, giving (n, k, out_dim), but the
    query's share of the first layer is computed once per query row rather
    than per slot, and with the bytes it has when every row is taken.

    With train the cache keeps each layer's input, the pair as
    (query[rows], keys), and each hidden layer's sign (FfnCache); without it
    nothing is kept for a backward, no sign is computed, and the cache is
    None.
    """
    inputs: list = []
    signs: list[Array] = []
    pair = isinstance(x, tuple)
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        first_pair = pair and i == 0
        if train:
            inputs.append((x[0][rows], x[1]) if first_pair else x)
        x = _pair_affine_forward(w, *x, b, rows) if first_pair else affine_forward(w, x, b)
        if i != last:
            if train:
                signs.append(x >= 0.0)
            x = leaky_relu(x)  # the pre-activation is freed here; only its sign is kept
    return x, FfnCache(inputs, signs) if train else None


def ffn_backward(
    params: FfnParams, cache: FfnCache, d_out: Array, grads: FfnParams
) -> Array | tuple[Array, Array]:
    """Backprop through the FFN; writes each layer's gradients into grads.

    grads holds arrays shaped like params' weights and biases, overwritten
    in place. Returns d_input. Leading batch axes of d_out are flattened
    into the accumulation, matching ffn_forward. After a (query, keys) pair
    input, d_input is the pair (d_query, d_keys); the query was broadcast
    over the slots, so its gradient sums over them, and that sum is taken
    before the query-side matmuls.

    The cache is consumed: each layer's input gradient below the first
    layer is written into that layer's cached input, dead once the layer's
    weight gradient is taken, and the cache is left empty, so a second call
    on it raises UsageError. Only arrays the cache owns are written; d_out
    and the first layer's input are only read.
    """
    n_layers = len(params.weights)
    if len(cache.inputs) != n_layers or len(cache.signs) != n_layers - 1:
        raise UsageError("forward cache does not match the FFN it came from")
    first = cache.inputs[0]
    out_shape = (*(first[1] if isinstance(first, tuple) else first).shape[:-1], params.weights[-1].shape[0])
    if d_out.shape != out_shape:
        raise UsageError(f"stale cache: upstream grad {d_out.shape} does not match the output {out_shape}")
    inputs, signs = cache.inputs, cache.signs
    cache.inputs, cache.signs = [], []  # spent: a second backward on it fails the check above
    g = d_out
    for i in range(n_layers - 1, 0, -1):
        x_in = inputs[i]
        g = affine_backward(params.weights[i], x_in, g, grads.weights[i], grads.biases[i], out=x_in)
        g *= leaky_relu_slope_at(signs[i - 1])
    w, d_w, d_b = params.weights[0], grads.weights[0], grads.biases[0]
    if isinstance(first, tuple):  # only the first layer takes a pair
        query, keys = first
        qw = query.shape[1]
        np.matmul(g.reshape(-1, g.shape[-1]).T, keys.reshape(-1, keys.shape[-1]), out=d_w[:, qw:])
        return affine_backward(w[:, :qw], query, g.sum(axis=1), d_w[:, :qw], d_b), g @ w[:, qw:]
    return affine_backward(w, first, g, d_w, d_b)


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
    t: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)
    # Row-sparse arrays whose moments are still compact; each moves to m
    # and v once half its rows are live.
    compact: dict[str, RowMoments] = field(default_factory=dict, repr=False)
    # Two flat buffers of ADAM_BLOCK values (more only for a wider row);
    # every block's temporaries are written into slices of them instead of
    # allocated.
    scratch: tuple[Array, Array] = field(
        default_factory=lambda: (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)), repr=False
    )


def adam_step(
    state: AdamState,
    params: dict[str, Array],
    grads: dict[str, Array],
    rows: dict[str, Array] | None = None,
) -> None:
    """One bias-corrected Adam update, in place, over named arrays.

    L2 enters as coupled weight decay: the effective gradient is
    grad + l2 * param. The step counter increments exactly once per call.
    After an array's first update it allocates no parameter-sized array:
    each update runs over blocks of the first axis of about ADAM_BLOCK
    values. Each operation keeps the operand order of the plain expression
    p -= lr * (m / c1) / (sqrt(v / c2) + eps), so the bytes match it.

    Every operation is elementwise, so one update of a flat vector gives
    the bytes of separate updates of the arrays it holds, at the cost of
    one array's fixed per-call overhead (14 numpy calls) instead of one per
    array. The model keeps all its non-table parameters in one such vector.

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
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
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
        m, v = state.m[name], state.v[name]
        for block in _blocks(p):
            _dense_update(state, p[block], g[block], m[block], v[block], c1, c2)


def _blocks(p: Array) -> list[slice]:
    """Slices of p's first axis of about ADAM_BLOCK values each, at least one row."""
    rows = max(1, ADAM_BLOCK // max(1, p[0].size)) if len(p) else 1
    return [slice(start, start + rows) for start in range(0, len(p), rows)]


def _scratch(state: AdamState, shape: tuple[int, ...]) -> tuple[Array, Array]:
    """Both scratch buffers' leading values, shaped; they grow only for a row wider than ADAM_BLOCK."""
    size = math.prod(shape)
    if state.scratch[0].size < size:
        state.scratch = (np.empty(size), np.empty(size))
    a, b = (buf[:size].reshape(shape) for buf in state.scratch)
    return a, b


def _dense_update(state: AdamState, p: Array, g: Array, m: Array, v: Array, c1: float, c2: float) -> None:
    """adam_step's update of one block, its temporaries in the scratch buffers."""
    a, b = _scratch(state, p.shape)
    if state.l2 != 0.0:
        np.multiply(state.l2, p, out=a)
        g = np.add(g, a, out=a)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=b)
    v *= ADAM_BETA2
    np.multiply(g, g, out=b)
    v += np.multiply(1.0 - ADAM_BETA2, b, out=b)
    p -= _step(state, m, v, c1, c2)


def _step(state: AdamState, m: Array, v: Array, c1: float, c2: float) -> Array:
    """lr * (m / c1) / (sqrt(v / c2) + eps), in the first scratch buffer; the second is free after."""
    a, b = _scratch(state, m.shape)
    m_hat = np.divide(m, c1, out=a)
    step = np.multiply(state.learning_rate, m_hat, out=a)
    denom = np.sqrt(np.divide(v, c2, out=b), out=b)
    denom += ADAM_EPS
    return np.divide(step, denom, out=a)


def _to_dense(state: AdamState, name: str) -> None:
    """Turn an array's compact moments, already table-sized, into its m and v in place.

    The n live rows are copied out, the first n rows zeroed, and the copies
    put back at their own rows; every row past n is still +0.0.
    """
    rm = state.compact.pop(name)
    live = rm.live[: rm.n]
    for dense, compact in ((state.m, rm.m), (state.v, rm.v)):
        moments = compact[: rm.n].copy()
        compact[: rm.n] = 0.0
        compact[live] = moments
        dense[name] = compact


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
    m *= ADAM_BETA1
    m[at] += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v[at] += (1.0 - ADAM_BETA2) * (g * g)
    live = None if rm is None else rm.live[: rm.n]
    for block in _blocks(m):
        step = _step(state, m[block], v[block], c1, c2)
        if live is None:
            p[block] -= step
            continue
        # mode="clip" writes straight into out; the default mode buffers.
        q = np.take(p, live[block], axis=0, out=_scratch(state, step.shape)[1], mode="clip")
        q -= step
        p[live[block]] = q
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
