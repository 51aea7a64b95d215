import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigat import features, nn
from pigat.confidence import apply_confidence, recency_profile
from pigat.errors import DomainError, ShapeError, UsageError
from pigat.model import uniform_coefficients

# Hand-derived expected values. softmax(ln 2, 0) exponentiates to (2, 1)
# and normalizes by 3; the masked case exponentiates the live pair
# (ln 3, ln 1) to (3, 1) and normalizes by 4.
SOFTMAX_LN2 = (2.0 / 3.0, 1.0 / 3.0)
MASKED_LN3 = (0.75, 0.0, 0.25)
SIGMOID_LN3 = 0.75


def test_affine_example():
    w = np.array([[1.0, 1.0], [0.0, 1.0]])
    x = np.array([1.0, 2.0])
    b = np.array([1.0, 0.0])
    np.testing.assert_allclose(nn.affine_forward(w, x, b), [4.0, 2.0], rtol=0, atol=0)


def test_affine_batched_matches_loop():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 5))
    b = rng.normal(size=3)
    xs = rng.normal(size=(7, 5))
    out = nn.affine_forward(w, xs, b)
    for i in range(7):
        np.testing.assert_allclose(out[i], w @ xs[i] + b, rtol=1e-12, atol=1e-14)


def test_affine_shape_mismatch_names_shapes():
    with pytest.raises(ShapeError) as exc:
        nn.affine_forward(np.zeros((2, 3)), np.zeros(4), np.zeros(2))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)


def test_leaky_relu_values():
    assert nn.leaky_relu(np.array(3.0)) == 3.0
    assert nn.leaky_relu(np.array(-100.0)) == -1.0
    assert nn.leaky_relu(np.array(0.0)) == 0.0


def _bits(*words):
    return np.array(words, dtype=np.uint64).view(np.float64)


# Signed zeros, infinities, quiet and signalling nans of both signs,
# subnormals and the smallest normals, repeated past one SIMD block.
LEAKY_EDGES = np.tile(
    np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308],
        [-2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308],
        _bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000005),
        _bits(0xFFF0000000000001),
    ]),
    3,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_leaky_kernels_equal_where_forms_bytewise(values):
    slope = nn.LEAKY_SLOPE
    x = np.concatenate([LEAKY_EDGES, np.array(values, dtype=np.float64)])
    with np.errstate(invalid="ignore"):
        want = np.where(x >= 0.0, x, slope * x)
        got = nn.leaky_relu(x)
    assert got.tobytes() == want.tobytes()
    assert nn.leaky_relu_slope_at(x >= 0.0).tobytes() == np.where(x >= 0.0, 1.0, slope).tobytes()


@settings(max_examples=60, deadline=None)
@given(lead=st.sampled_from([(), (4,), (2, 3)]), data=st.data())
def test_affine_forward_equals_the_plain_sum_bytewise(lead, data):
    """The bias goes into the product affine_forward allocated, with the bytes of x @ w.T + b."""
    values = st.one_of(st.sampled_from(LEAKY_EDGES[:15].tolist()), st.floats())

    def draw(*shape):
        n = int(np.prod(shape))
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64).reshape(shape)

    w, x, b = draw(2, 3), draw(*lead, 3), draw(2)
    with np.errstate(all="ignore"):
        got, want = nn.affine_forward(w, x, b), x @ w.T + b
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def read_only(*arrays):
    """Mark the arrays read-only: a kernel that writes into one raises instead of passing."""
    for a in arrays:
        a.flags.writeable = False


def test_leaky_kernels_leave_read_only_inputs_alone():
    slope = nn.LEAKY_SLOPE
    for x in (LEAKY_EDGES.copy(), np.array(-2.0), np.array(3.0), np.array(np.nan)):  # 0-d arrays included
        read_only(x)
        keep = x.tobytes()
        with np.errstate(invalid="ignore"):
            want = np.where(x >= 0.0, x, slope * x)
            got = nn.leaky_relu(x)
        assert np.asarray(got).tobytes() == want.tobytes()
        sign = np.asarray(x >= 0.0)  # a 0-d array, not a numpy bool, so it takes read_only
        read_only(sign)
        assert np.asarray(nn.leaky_relu_slope_at(sign)).tobytes() == np.where(x >= 0.0, 1.0, slope).tobytes()
        assert x.tobytes() == keep
    # The affine kernel, on a batch and on one vector.
    rng = np.random.default_rng(3)
    w, xs, x, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), rng.normal(size=3), rng.normal(size=2)
    given = (w, xs, x, b)
    keep = [a.tobytes() for a in given]
    read_only(*given)
    assert nn.affine_forward(w, xs, b).tobytes() == (xs @ w.T + b).tobytes()
    assert nn.affine_forward(w, x, b).tobytes() == (x @ w.T + b).tobytes()
    assert [a.tobytes() for a in given] == keep
    # The window kernels, on a batch with an all-dead row and a non-prefix mask.
    rng = np.random.default_rng(4)
    z, nbrs = rng.normal(size=(3, 4)), rng.normal(size=(3, 4, 2))
    mask = np.array([[True, True, False, False], [False, False, False, False], [True, False, True, True]])
    rows = recency_profile(4, 2)
    given = (z, nbrs, mask, rows)
    keep = [a.tobytes() for a in given]
    read_only(*given)
    assert nn.masked_softmax(z, mask).tobytes() == where_masked_softmax(z, mask).tobytes()
    assert uniform_coefficients(mask).tobytes() == float_average(mask).tobytes()
    assert apply_confidence(rows, nbrs, mask).shape == nbrs.shape
    assert [a.tobytes() for a in given] == keep


def where_masked_softmax(z, mask):
    """masked_softmax as five np.where passes and an any_live pass, the form it replaced."""
    any_live = mask.any(axis=-1, keepdims=True)
    zmax = np.max(np.where(mask, z, -np.inf), axis=-1, keepdims=True)
    zmax = np.where(any_live, zmax, 0.0)
    e = np.where(mask, np.exp(np.where(mask, z - zmax, 0.0)), 0.0)
    total = e.sum(axis=-1, keepdims=True)
    return np.where(any_live, e / np.where(total == 0.0, 1.0, total), 0.0)


def float_average(mask):
    """uniform_coefficients over the mask cast to float64, the form it replaced."""
    mask = mask.astype(np.float64)
    return mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1.0)


WINDOW_VALUES = st.one_of(
    st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0]),
    st.floats(min_value=-1e3, max_value=1e3),
)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 10)),
    prefix=st.booleans(),
    data=st.data(),
)
def test_window_kernels_equal_where_forms_bytewise(shape, prefix, data):
    """Both pooling kernels give the bytes of the forms they replaced.

    Rows mix ±inf, nan, ±0.0 and finite logits; masks are live-first
    prefixes, as the windows are, or any pattern; every row may be dead.
    """
    b, k = shape
    z = np.array(data.draw(st.lists(WINDOW_VALUES, min_size=b * k, max_size=b * k)), dtype=np.float64).reshape(b, k)
    if prefix:
        lengths = np.array(data.draw(st.lists(st.integers(0, k), min_size=b, max_size=b)))
        mask = np.arange(k)[None, :] < lengths[:, None]
    else:
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=b * k, max_size=b * k))).reshape(b, k)
    with np.errstate(invalid="ignore"):
        got, want = nn.masked_softmax(z, mask), where_masked_softmax(z, mask)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    got, want = uniform_coefficients(mask), float_average(mask)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def softmax(z):
    """The plain softmax: masked_softmax with every position live."""
    return nn.masked_softmax(z, np.ones(np.shape(z), dtype=bool))


def test_softmax_example():
    out = softmax(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(out, SOFTMAX_LN2, rtol=1e-15)


def test_softmax_empty_domain_error():
    with pytest.raises(DomainError):
        softmax(np.zeros(0))


@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
    st.floats(min_value=-30, max_value=30),
)
def test_softmax_shift_invariant_and_normalized(zs, shift):
    z = np.array(zs)
    a = softmax(z)
    b = softmax(z + shift)
    assert abs(a.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_masked_softmax_example():
    z = np.array([np.log(3.0), 0.0, np.log(1.0)])
    mask = np.array([True, False, True])
    np.testing.assert_allclose(nn.masked_softmax(z, mask), MASKED_LN3, rtol=1e-15)


def test_masked_softmax_all_dead_is_zero_vector():
    out = nn.masked_softmax(np.array([5.0, -2.0]), np.array([False, False]))
    np.testing.assert_array_equal(out, np.zeros(2))


def test_masked_softmax_shape_mismatch():
    with pytest.raises(ShapeError):
        nn.masked_softmax(np.zeros(3), np.zeros(2, dtype=bool))


@given(
    st.lists(st.floats(min_value=-40, max_value=40), min_size=1, max_size=7),
    st.data(),
)
def test_masked_softmax_matches_softmax_on_live_subset(zs, data):
    z = np.array(zs)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(zs), max_size=len(zs))))
    out = nn.masked_softmax(z, mask)
    assert np.all(out[~mask] == 0.0)
    if mask.any():
        e = np.exp(z[mask] - z[mask].max())
        np.testing.assert_allclose(out[mask], e / e.sum(), atol=1e-12)


def test_masked_softmax_batched_rows_independent():
    z = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    mask = np.array([[True, True, False], [False, False, False]])
    out = nn.masked_softmax(z, mask)
    np.testing.assert_allclose(out[0], nn.masked_softmax(z[0], mask[0]))
    np.testing.assert_array_equal(out[1], np.zeros(3))


def test_sigmoid_values():
    assert nn.sigmoid(0.0) == 0.5
    assert abs(nn.sigmoid(np.log(3.0)) - SIGMOID_LN3) < 1e-15
    # No overflow at extreme logits, and the limits are exact.
    assert nn.sigmoid(1000.0) == 1.0
    assert nn.sigmoid(-1000.0) == 0.0


@given(st.floats(min_value=-100, max_value=100))
def test_sigmoid_symmetry(x):
    assert abs(nn.sigmoid(x) + nn.sigmoid(-x) - 1.0) < 1e-12


def test_dropout_mask_zero_ratio_is_identity():
    rng = np.random.default_rng(1)
    np.testing.assert_array_equal(nn.dropout_mask(10, 0.0, rng), np.ones(10))


def test_dropout_mask_scales_kept_units():
    rng = np.random.default_rng(7)
    m = nn.dropout_mask(1000, 0.5, rng)
    kept = m[m > 0]
    assert np.all(kept == 2.0)
    # Same seed, same mask.
    m2 = nn.dropout_mask(1000, 0.5, np.random.default_rng(7))
    np.testing.assert_array_equal(m, m2)


def test_dropout_mask_ratio_domain():
    rng = np.random.default_rng(0)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(DomainError):
            nn.dropout_mask(4, bad, rng)


def test_glorot_bound():
    rng = np.random.default_rng(3)
    w = nn.glorot_uniform(rng, 30, 50)
    bound = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.5 * bound


def fd_gradient(f, x, h=1e-5):
    """Every coordinate of the central-difference oracle, on a copy of x."""
    x = np.array(x, dtype=np.float64)
    return np.array([nn.fd_coordinate(f, x, i, h) for i in range(x.size)])


def test_finite_difference_on_square():
    x = np.array([3.0])
    assert abs(nn.fd_coordinate(lambda v: float(v[0] ** 2), x, 0) - 6.0) < 1e-8
    assert x[0] == 3.0  # perturbed in place, restored exactly


def test_finite_difference_multivariate():
    f = lambda x: float(np.sin(x[0]) + x[1] ** 3)
    grad = fd_gradient(f, np.array([0.3, 1.2]))
    np.testing.assert_allclose(grad, [np.cos(0.3), 3 * 1.2**2], rtol=1e-8)


def test_finite_difference_refuses_a_copy():
    # a strided view would be perturbed through a copy f never sees
    with pytest.raises(UsageError):
        nn.fd_coordinate(lambda v: float(v.sum()), np.zeros((3, 4))[:, :2], 0)


def ffn_init(rng, dims):
    """An FFN drawn as the model draws its FFNs: glorot weights layer by layer, zero biases."""
    return nn.FfnParams(
        tuple(nn.glorot_uniform(rng, d_out, d_in) for d_in, d_out in zip(dims, dims[1:])),
        tuple(np.zeros(d_out) for d_out in dims[1:]),
    )


def _ffn_case(seed, dims):
    rng = np.random.default_rng(seed)
    params = ffn_init(rng, dims)
    for w in params.weights:
        w += 0.05 * np.sign(w)  # push pre-activations away from the kink
    x = rng.normal(size=(4, dims[0]))
    coef = rng.normal(size=(4, dims[-1]))
    return params, x, coef


@pytest.mark.parametrize("dims", [[3, 1], [4, 5, 1], [4, 6, 3, 2]])
def test_ffn_backward_matches_finite_differences(dims):
    params, x, coef = _ffn_case(11, dims)
    out, cache = nn.ffn_forward(params, x, train=True)
    # NaN-filled, so a gradient ffn_backward does not overwrite fails the comparison.
    weights, biases = (tuple(np.full_like(a, np.nan) for a in arrays) for arrays in (params.weights, params.biases))
    grads = nn.FfnParams(weights, biases)
    d_in = nn.ffn_backward(params, cache, coef, grads)
    d_ws, d_bs = grads.weights, grads.biases

    def loss_with(arr, setter):
        def f(v):
            old = arr.copy()
            arr[...] = v.reshape(arr.shape)
            y, _ = nn.ffn_forward(params, setter(), train=True)
            arr[...] = old
            return float(np.sum(y * coef))

        return f

    for i, w in enumerate(params.weights):
        fd = fd_gradient(loss_with(w, lambda: x), w.ravel(), h=1e-6)
        np.testing.assert_allclose(d_ws[i].ravel(), fd, rtol=1e-5, atol=1e-8)
    for i, b in enumerate(params.biases):
        fd = fd_gradient(loss_with(b, lambda: x), b.ravel(), h=1e-6)
        np.testing.assert_allclose(d_bs[i].ravel(), fd, rtol=1e-5, atol=1e-8)

    def loss_x(v):
        y, _ = nn.ffn_forward(params, v.reshape(x.shape), train=True)
        return float(np.sum(y * coef))

    fd_x = fd_gradient(loss_x, x.ravel(), h=1e-6)
    np.testing.assert_allclose(d_in.ravel(), fd_x, rtol=1e-5, atol=1e-8)


def test_ffn_single_layer_is_affine():
    rng = np.random.default_rng(2)
    params = ffn_init(rng, [4, 2])
    x = rng.normal(size=4)
    out, _ = nn.ffn_forward(params, x, train=True)
    np.testing.assert_allclose(out, nn.affine_forward(params.weights[0], x, params.biases[0]))


def test_ffn_pair_input_shapes_must_chain():
    params = ffn_init(np.random.default_rng(6), [5, 3, 1])
    for query, keys in [
        (np.zeros((2, 2)), np.zeros((2, 4, 2))),  # widths sum to 4, not 5
        (np.zeros((2, 2)), np.zeros((3, 4, 3))),  # batch sizes differ
        (np.zeros((2, 2)), np.zeros((2, 3))),  # keys lack the window axis
    ]:
        with pytest.raises(ShapeError):
            nn.ffn_forward(params, (query, keys), train=True)


@pytest.mark.parametrize("dims", [[5, 1], [5, 6, 1], [5, 6, 3, 2]])
def test_ffn_pair_kernels_write_only_into_arrays_they_allocated(dims):
    # Every array the caller passes in is read-only, its bytes checked; only the cache's own arrays may be written.
    rng = np.random.default_rng(8)
    params = ffn_init(rng, dims)
    query, keys, d_out = rng.normal(size=(3, 2)), rng.normal(size=(3, 4, 3)), rng.normal(size=(3, 4, dims[-1]))
    given = [*params.weights, *params.biases, query, keys, d_out]
    keep = [a.tobytes() for a in given]
    read_only(*given)
    out, cache = nn.ffn_forward(params, (query, keys), train=True)
    w, b = params.weights[0], params.biases[0]
    # The first layer's bytes are those of the sum of the two products; the cache keeps its sign only.
    first = keys @ w[:, 2:].T + (query @ w[:, :2].T + b)[:, None, :]
    assert nn._pair_affine_forward(w, query, keys, b).tobytes() == first.tobytes()
    if len(dims) == 2:
        assert out.tobytes() == first.tobytes()
    else:
        assert cache.signs[0].dtype == bool and np.array_equal(cache.signs[0], first >= 0.0)
    concat = np.concatenate([np.broadcast_to(query[:, None, :], (3, 4, 2)), keys], axis=-1)
    np.testing.assert_allclose(out, nn.ffn_forward(params, concat, train=True)[0], rtol=1e-12, atol=1e-12)
    read_only(out)
    grads = nn.FfnParams(tuple(map(np.zeros_like, params.weights)), tuple(map(np.zeros_like, params.biases)))
    d_query, d_keys = nn.ffn_backward(params, cache, d_out, grads)
    assert d_query.shape == query.shape and d_keys.shape == keys.shape
    assert [a.tobytes() for a in given] == keep


@pytest.mark.parametrize("dims", [[24, 1], [24, 32, 1], [24, 64, 32, 1]])
@pytest.mark.parametrize("picked", [[], [0], [3, 17, 40, 63], list(range(0, 64, 5))])
def test_ffn_pair_forward_on_some_rows_gives_those_rows_bytes(dims, picked):
    # The query share is computed on all 64 query rows, then taken: each row's bytes do not depend on the others.
    rng = np.random.default_rng(10)
    params = ffn_init(rng, dims)
    params.biases[0][...] = rng.normal(size=dims[1])
    query, keys = rng.normal(size=(64, 8)), rng.normal(size=(64, 4, 16))
    rows = np.array(picked, dtype=np.intp)
    full, _ = nn.ffn_forward(params, (query, keys), train=False)
    some, cache = nn.ffn_forward(params, (query, keys[rows]), train=True, rows=rows)
    assert some.tobytes() == full[rows].tobytes()
    assert cache.inputs[0][0].tobytes() == query[rows].tobytes()
    with pytest.raises(ShapeError):
        nn.ffn_forward(params, (query, keys), train=False, rows=rows)  # keys must hold just those rows


@pytest.mark.parametrize("dims", [[4, 1], [4, 5, 1], [4, 6, 3, 2]])
def test_ffn_eval_forward_keeps_no_cache_and_the_same_bytes(dims):
    rng = np.random.default_rng(9)
    params = ffn_init(rng, dims)
    x = rng.normal(size=(5, dims[0]))
    query, keys = rng.normal(size=(5, 1)), rng.normal(size=(5, 3, dims[0] - 1))
    for given in (x, (query, keys)):
        out, cache = nn.ffn_forward(params, given, train=True)
        assert len(cache.inputs) == len(dims) - 1 and len(cache.signs) == len(dims) - 2
        eval_out, eval_cache = nn.ffn_forward(params, given, train=False)
        assert eval_cache is None
        assert eval_out.tobytes() == out.tobytes()


def test_ffn_backward_writes_input_gradients_into_the_cached_activations():
    rng = np.random.default_rng(10)
    params = ffn_init(rng, [4, 6, 3, 2])
    x, d_out = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    _, cache = nn.ffn_forward(params, x, train=True)
    hidden, signs = list(cache.inputs[1:]), list(cache.signs)
    grads = nn.FfnParams(tuple(map(np.zeros_like, params.weights)), tuple(map(np.zeros_like, params.biases)))
    d_x = nn.ffn_backward(params, cache, d_out, grads)
    with pytest.raises(UsageError):  # the cache is spent
        nn.ffn_backward(params, cache, d_out, grads)
    # Each hidden input now holds the gradient with respect to it, as the plain chain rule gives it.
    slopes = [np.where(s, 1.0, nn.LEAKY_SLOPE) for s in signs]
    d_h2 = d_out @ params.weights[2]
    d_h1 = (d_h2 * slopes[1]) @ params.weights[1]
    assert hidden[1].tobytes() == (d_h2 * slopes[1]).tobytes()
    assert hidden[0].tobytes() == (d_h1 * slopes[0]).tobytes()
    assert d_x.tobytes() == ((d_h1 * slopes[0]) @ params.weights[0]).tobytes()


def test_ffn_backward_rejects_stale_cache():
    rng = np.random.default_rng(5)
    params = ffn_init(rng, [3, 2])
    other = ffn_init(rng, [3, 4, 2])
    _, cache = nn.ffn_forward(params, rng.normal(size=3), train=True)
    with pytest.raises(UsageError):
        nn.ffn_backward(other, cache, np.zeros(2), other)


def test_adam_first_step_moves_by_learning_rate():
    state = nn.AdamState(learning_rate=1e-3)
    p = {"w": np.array([0.0])}
    nn.adam_step(state, p, {"w": np.array([1.0])})
    # Bias correction makes the first step -lr regardless of gradient scale,
    # up to the eps denominator shift.
    assert abs(p["w"][0] + 1e-3) < 1e-10
    assert state.t == 1


def test_adam_step_counter_and_l2():
    state = nn.AdamState(learning_rate=0.1, l2=0.5)
    p = {"w": np.array([2.0])}
    nn.adam_step(state, p, {"w": np.array([0.0])})
    nn.adam_step(state, p, {"w": np.array([0.0])})
    assert state.t == 2
    # Zero gradient still decays the weight through the coupled L2 term.
    assert p["w"][0] < 2.0


def test_adam_converges_on_quadratic():
    state = nn.AdamState(learning_rate=0.05)
    p = {"w": np.array([4.0])}
    for _ in range(400):
        nn.adam_step(state, p, {"w": 2.0 * p["w"]})
    assert abs(p["w"][0]) < 1e-3


def allocating_adam_step(state: dict, params, grads, lr, l2, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as plain array expressions, each temporary a fresh array."""
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name]
        if l2 != 0.0:
            g = g + l2 * p
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    l2=st.sampled_from([0.0, 1e-4, 0.3]),
    steps=st.integers(min_value=1, max_value=6),
    rows=st.integers(min_value=1, max_value=40),
    long=st.sampled_from([1, nn.ADAM_BLOCK + 3, 2 * nn.ADAM_BLOCK]),
)
def test_adam_step_equals_allocating_reference_bytewise(seed, l2, steps, rows, long):
    rng = np.random.default_rng(seed)
    # The shared scratch buffers are sliced for every array. "long" spans one
    # to three blocks of the update (the last one partial, or two whole), and
    # each row of "wide" is a block of its own, wider than the scratch was.
    shapes = {"table": (rows + 12, 5), "long": (long,), "wide": (2, nn.ADAM_BLOCK + 1), "w": (3, 4), "b": (4,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    expected = {name: p.copy() for name, p in params.items()}
    state = nn.AdamState(learning_rate=1.0, l2=l2)
    reference = {"t": 0, "m": {}, "v": {}}
    for _ in range(steps):
        lr = float(10.0 ** rng.uniform(-5, 0))  # a new rate every step, as step decay does
        state.learning_rate = lr
        grads = {
            name: rng.normal(size=shape) * (rng.random(shape) < 0.6) * 10.0 ** rng.uniform(-8, 3)
            for name, shape in shapes.items()
        }
        nn.adam_step(state, params, grads)
        allocating_adam_step(reference, expected, grads, lr, l2)
        for name in shapes:
            assert params[name].tobytes() == expected[name].tobytes(), name
            assert state.m[name].tobytes() == reference["m"][name].tobytes(), name
            assert state.v[name].tobytes() == reference["v"][name].tobytes(), name
    assert state.t == reference["t"] == steps


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    l2=st.sampled_from([0.0, 1e-4, 0.3]),
    steps=st.integers(min_value=20, max_value=30),
    shapes=st.lists(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3).map(tuple),
        min_size=1,
        max_size=6,
    ),
)
def test_adam_on_one_flat_vector_equals_per_array_steps_bytewise(seed, l2, steps, shapes):
    """Adam is elementwise: one update of a flat vector equals one per view of it, bit for bit."""
    rng = np.random.default_rng(seed)
    sizes = [int(np.prod(shape)) for shape in shapes]
    cuts = np.cumsum([0, *sizes])
    flat = rng.normal(size=cuts[-1])
    flat_grad = np.empty_like(flat)
    names = [f"p{i}" for i in range(len(shapes))]
    per_array = {name: flat[a:b].reshape(shape).copy() for name, a, b, shape in zip(names, cuts, cuts[1:], shapes)}
    views = {name: flat_grad[a:b].reshape(shape) for name, a, b, shape in zip(names, cuts, cuts[1:], shapes)}
    flat_state = nn.AdamState(learning_rate=1.0, l2=l2)
    array_state = nn.AdamState(learning_rate=1.0, l2=l2)
    for _ in range(steps):
        flat_state.learning_rate = array_state.learning_rate = float(10.0 ** rng.uniform(-5, 0))
        flat_grad[:] = rng.normal(size=flat.size) * (rng.random(flat.size) < 0.6) * 10.0 ** rng.uniform(-8, 3)
        nn.adam_step(flat_state, {"dense": flat}, {"dense": flat_grad})
        nn.adam_step(array_state, per_array, views)
        for got, name in ((flat, None), (flat_state.m["dense"], "m"), (flat_state.v["dense"], "v")):
            source = per_array if name is None else getattr(array_state, name)
            want = np.concatenate([source[n].reshape(-1) for n in names])
            assert got.tobytes() == want.tobytes(), name


def _dense_moments(state: nn.AdamState, name: str) -> tuple[np.ndarray, np.ndarray]:
    rm = state.compact.get(name)
    if rm is None:
        return state.m[name], state.v[name]
    live = rm.live[: rm.n]
    assert (rm.slot[live] == np.arange(rm.n)).all() and (np.delete(rm.slot, live) == -1).all()
    m, v = np.zeros_like(rm.m), np.zeros_like(rm.v)
    m[live], v[live] = rm.m[: rm.n], rm.v[: rm.n]
    return m, v


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    l2=st.sampled_from([0.0, 0.0, 1e-4]),
    steps=st.integers(min_value=20, max_value=40),
    rows=st.integers(min_value=4, max_value=80),
    hot=st.floats(min_value=0.1, max_value=1.0),
    dense_steps=st.sampled_from([(), (7,), (3, 11)]),
    block=st.sampled_from([nn.ADAM_BLOCK, 7, 1]),
)
def test_row_sparse_adam_equals_dense_bytewise(seed, l2, steps, rows, hot, dense_steps, block):
    """Passing the rows a table's gradient was scattered to changes no byte.

    Ids repeat and are drawn from the first `hot` share of the rows, so
    some rows never get a gradient and a small share keeps the moments
    compact throughout. Zeroed upstream slices touch rows with an all-zero
    gradient, and the frozen padding rows silently drop theirs. With
    l2 > 0 the rows are ignored. On dense_steps no rows are passed.
    Gradient magnitudes stay far above the range where a decayed moment
    underflows to -0.0, the one case where the bytes may differ. A small
    block splits these small tables into several blocks of the update.
    """
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(nn, "ADAM_BLOCK", block)
        _row_sparse_against_dense(seed, l2, steps, rows, hot, dense_steps)


def _row_sparse_against_dense(seed, l2, steps, rows, hot, dense_steps):
    rng = np.random.default_rng(seed)
    frozen = rng.random(rows) < 0.2
    bound = np.sqrt(6.0 / (rows + 3))
    weight = rng.uniform(-bound, bound, size=(rows, 3))
    weight[frozen] = 0.0
    table = features.EmbeddingTable(weight, np.zeros_like(weight), frozen)
    params = {"table": table.weight, "w": rng.normal(size=(2, 3))}
    dense = {name: p.copy() for name, p in params.items()}
    sparse_state = nn.AdamState(learning_rate=1.0, l2=l2)
    dense_state = nn.AdamState(learning_rate=1.0, l2=l2)
    n_hot = max(1, int(hot * rows))
    for step in range(steps):
        lr = float(10.0 ** rng.uniform(-4, -1))
        sparse_state.learning_rate = dense_state.learning_rate = lr
        features.zero_gradients(table)
        ids = rng.integers(0, n_hot, size=(int(rng.integers(1, 8)), 2))
        upstream = rng.normal(size=(*ids.shape, 3)) * 10.0 ** rng.uniform(-3, 3)
        upstream *= rng.random((*ids.shape, 1)) < 0.7
        features.scatter_gradient(table, ids, upstream)
        grads = {"table": table.grad, "w": rng.normal(size=(2, 3))}
        rows_arg = None if step in dense_steps else {"table": table.touched}
        nn.adam_step(sparse_state, params, grads, rows_arg)
        nn.adam_step(dense_state, dense, grads)
        for name in params:
            m, v = _dense_moments(sparse_state, name)
            assert params[name].tobytes() == dense[name].tobytes(), (step, name)
            assert m.tobytes() == dense_state.m[name].tobytes(), (step, name)
            assert v.tobytes() == dense_state.v[name].tobytes(), (step, name)
    assert (table.weight[frozen] == 0.0).all()


def _second_step_peak(rows=None) -> tuple[int, int]:
    """Peak bytes traced during a second Adam step on a large table, and the table's bytes."""
    rng = np.random.default_rng(8)
    params = {"table": rng.normal(size=(20000, 32))}
    grads = {"table": rng.normal(size=(20000, 32))}
    state = nn.AdamState(learning_rate=1e-3)
    nn.adam_step(state, params, grads, rows)  # the first step allocates the moments and scratch
    tracemalloc.start()
    try:
        nn.adam_step(state, params, grads, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, params["table"].nbytes


def test_adam_steady_state_step_allocates_less_than_one_parameter():
    peak, size = _second_step_peak()
    assert peak < size


@pytest.mark.parametrize("touched", [20000, 300], ids=["dense-moments", "compact-moments"])
def test_row_sparse_adam_steady_state_step_allocates_less_than_one_parameter(touched):
    peak, size = _second_step_peak({"table": np.arange(touched)})
    assert peak < size


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_masked_softmax_sums_to_one_or_zero(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=6) * 5
    mask = rng.random(6) < 0.5
    s = nn.masked_softmax(z, mask).sum()
    expected = 1.0 if mask.any() else 0.0
    assert abs(s - expected) < 1e-12
