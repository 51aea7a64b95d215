import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pigat.confidence import (
    TRAINABLE,
    VARIANTS,
    apply_confidence,
    build_confidence,
    recency_profile,
    scatter_confidence_gradient,
)
from pigat.errors import DomainError, ShapeError

E_INV = 0.36787944117144233  # exp(-1), the newest slot's leading entry


def test_recency_profile_matches_scalar_formula():
    # Independent scalar re-evaluation of the decay-cosine surface.
    width, k = 8, 6
    rows = recency_profile(k, width)
    for live in range(1, k + 1):
        for pos in range(1, live + 1):
            for i in range(1, width + 1):
                want = math.exp(pos - live - 1) * math.cos((i - 1) * math.pi / width)
                assert abs(rows[live - 1, pos - 1, i - 1] - want) <= 1e-12


def test_recency_known_values():
    rows = recency_profile(5, 8)
    assert abs(rows[4, 4, 0] - E_INV) < 1e-15  # l = L, first dim
    assert abs(rows[4, 4, 4]) < 1e-16  # cos(pi/2) column for even width
    # One step older decays by exactly exp(-1).
    ratio = rows[4, 3, 0] / rows[4, 4, 0]
    assert abs(ratio - E_INV) < 1e-15


def test_recency_unused_triangle_is_zero():
    rows = recency_profile(4, 3)
    for live in range(1, 5):
        assert np.all(rows[live - 1, live:] == 0.0)


def test_recency_row_norms_grow_toward_newest():
    rows = recency_profile(6, 8)
    for live in range(1, 7):
        norms = np.linalg.norm(rows[live - 1, :live], axis=1)
        assert np.all(np.diff(norms) > 0)
        assert norms[0] > 0


def test_build_variants_flags():
    rng = np.random.default_rng(0)
    for variant in VARIANTS:
        assert build_confidence(variant, 4, 6, rng).shape == (4, 4, 6)
    assert TRAINABLE == {"rce", "ce"}
    with pytest.raises(DomainError):
        build_confidence("wat", 4, 6, rng)


def test_none_is_zero_and_ce_starts_at_fce():
    assert not build_confidence("none", 5, 4).any()
    np.testing.assert_array_equal(build_confidence("ce", 5, 4), build_confidence("fce", 5, 4))


def test_rce_is_small_seeded_noise():
    a = build_confidence("rce", 4, 6, np.random.default_rng(7))
    b = build_confidence("rce", 4, 6, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert np.abs(a).max() <= 0.01
    assert np.abs(a).max() > 0


def test_pe_rows_do_not_depend_on_live_length():
    rows = build_confidence("pe", 5, 8)
    for live in range(1, 5):
        np.testing.assert_array_equal(rows[live - 1], rows[4])
    assert np.abs(rows).max() <= 1.0
    # Position 0 is sin(0), cos(0), ... = 0, 1, 0, 1 pattern at the start.
    assert rows[0, 0, 0] == 0.0
    assert rows[0, 0, 1] == 1.0


def test_apply_none_is_identity():
    rows = build_confidence("none", 4, 3)
    nbrs = np.random.default_rng(1).normal(size=(4, 3))
    mask = np.array([True, True, False, False])
    np.testing.assert_array_equal(apply_confidence(rows, nbrs, mask), nbrs)


def test_apply_adds_correct_live_rows():
    rows = build_confidence("fce", 4, 6)
    nbrs = np.zeros((4, 6))
    mask = np.array([True, True, False, False])
    out = apply_confidence(rows, nbrs, mask)
    np.testing.assert_array_equal(out[0], rows[1, 0])  # L = 2 surface
    np.testing.assert_array_equal(out[1], rows[1, 1])
    np.testing.assert_array_equal(out[2:], np.zeros((2, 6)))


def test_apply_batched_uses_per_row_lengths():
    rows = build_confidence("fce", 3, 4)
    nbrs = np.zeros((2, 3, 4))
    mask = np.array([[True, False, False], [True, True, True]])
    out = apply_confidence(rows, nbrs, mask)
    np.testing.assert_array_equal(out[0, 0], rows[0, 0])
    np.testing.assert_array_equal(out[1], rows[2])


def test_apply_all_masked_passes_through():
    rows = build_confidence("fce", 3, 4)
    nbrs = np.ones((3, 4))
    out = apply_confidence(rows, nbrs, np.zeros(3, dtype=bool))
    np.testing.assert_array_equal(out, nbrs)


def test_apply_width_mismatch():
    rows = build_confidence("fce", 3, 4)
    with pytest.raises(ShapeError):
        apply_confidence(rows, np.zeros((3, 5)), np.ones(3, dtype=bool))
    with pytest.raises(ShapeError):
        apply_confidence(rows, np.zeros((2, 4)), np.ones(3, dtype=bool))


def test_scatter_confidence_targets_live_surface():
    # Frozen variants get no scatter at all: test_train checks their rows and gradient through training.
    grad = np.zeros((3, 3, 2))
    mask = np.array([[True, True, False]])
    up = np.ones((1, 3, 2))
    scatter_confidence_gradient(grad, mask, up)
    np.testing.assert_array_equal(grad[1, :2], np.ones((2, 2)))
    assert not grad[0].any() and not grad[2].any()
    assert not grad[1, 2].any()


@settings(max_examples=60, deadline=None)
@given(
    window=st.integers(1, 6),
    width=st.integers(1, 3),
    lengths=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_scatter_confidence_equals_add_at_bytewise(window, width, lengths, seed):
    # Live lengths 0 (all-dead rows) up to the window, which may be 1.
    mask = np.arange(window)[None, :] < np.minimum(lengths, window)[:, None]
    up = np.random.default_rng(seed).normal(size=(len(lengths), window, width))
    grad = np.zeros((window, window, width))
    scatter_confidence_gradient(grad, mask, up)
    want = np.zeros((window, window, width))
    np.add.at(want, np.maximum(mask.sum(axis=1) - 1, 0), np.where(mask[..., None], up, 0.0))
    assert grad.tobytes() == want.tobytes()
