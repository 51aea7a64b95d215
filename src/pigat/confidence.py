"""Additive confidence vectors for neighbor windows.

A neighbor at window position l out of L live slots gets a vector added
to its embedding before attention. The recency-decay surface makes that
vector's scale grow exponentially toward the most recent slot, encoding
"recent interactions say more about the current interest". Variants:

  none  zero vectors (baseline)
  pe    classic sinusoidal position encoding, frozen
  fce   the recency-decay surface, frozen
  rce   small random vectors, trainable
  ce    the recency-decay surface as initialization, trainable

Vectors live in a (k, k, width) tensor indexed by [L-1, l-1]; only the
l <= L triangle is ever applied.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

Array = np.ndarray


def recency_profile(k: int, width: int) -> Array:
    """Fixed decay-times-cosine surface.

    Entry [L-1, l-1, i] is exp(l - L - 1) * cos(i * pi / width) with
    1-based l and L; positions beyond L stay zero.
    """
    cos_vec = np.cos(np.arange(width) * np.pi / width)
    out = np.zeros((k, k, width))
    for live in range(1, k + 1):
        decay = np.exp(np.arange(1, live + 1) - live - 1.0)
        out[live - 1, :live] = decay[:, None] * cos_vec[None, :]
    return out


def positional_profile(k: int, width: int) -> Array:
    """Sinusoidal position encoding, identical for every live length."""
    pos = np.arange(k, dtype=np.float64)[:, None]
    j = np.arange(width)
    angle = pos / np.power(10000.0, (j - (j % 2)) / width)
    row = np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
    return np.broadcast_to(row, (k, k, width)).copy()


def _random_rows(k: int, width: int, rng: np.random.Generator | None) -> Array:
    if rng is None:
        raise DomainError("rce needs a random generator")
    return rng.uniform(-0.01, 0.01, size=(k, k, width))


# variant -> (rows builder (k, width, rng) -> (k, k, width) array, trainable)
BUILDERS = {
    "none": (lambda k, width, rng: np.zeros((k, k, width)), False),
    "pe": (lambda k, width, rng: positional_profile(k, width), False),
    "fce": (lambda k, width, rng: recency_profile(k, width), False),
    "rce": (_random_rows, True),
    "ce": (lambda k, width, rng: recency_profile(k, width), True),  # recency-initialized, then learned
}
VARIANTS = tuple(BUILDERS)
TRAINABLE = frozenset(variant for variant, (_, trainable) in BUILDERS.items() if trainable)


def build_confidence(variant: str, k: int, width: int, rng: np.random.Generator | None = None) -> Array:
    """The variant's (k, k, width) rows."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown confidence variant {variant!r}, expected one of {VARIANTS}")
    if k < 1 or width < 1:
        raise DomainError(f"window {k} and width {width} must be positive")
    return BUILDERS[variant][0](k, width, rng)


def apply_confidence(rows: Array, neighbors: Array, mask: Array) -> Array:
    """Add the (l, L) vector of the (k, k, width) rows to each live neighbor slot.

    neighbors is (..., k, width) with live slots first; dead slots pass
    through untouched. Live length L is read off the mask.
    """
    k, _, width = rows.shape
    if neighbors.shape[-1] != width:
        raise ShapeError(f"neighbor width {neighbors.shape[-1]} != confidence width {width}")
    if neighbors.shape[:-1] != mask.shape or mask.shape[-1] != k:
        raise ShapeError(f"mask {mask.shape} does not match neighbors {neighbors.shape} with window {k}")
    live_rows = rows[np.maximum(mask.sum(axis=-1) - 1, 0)]  # (..., k, width)
    return neighbors + np.where(mask[..., None], live_rows, 0.0)


def scatter_confidence_gradient(grad: Array, mask: Array, upstream: Array) -> None:
    """Accumulate d(loss)/d(rows) into grad, given the grad flowing into the addition.

    One sum per distinct live length instead of np.add.at, several times
    faster. Both add the instances in order, so into a zeroed accumulator
    they give the same bytes.
    """
    contrib = np.where(mask[..., None], upstream, 0.0).reshape(-1, *grad.shape[1:])
    idx = np.maximum(mask.sum(axis=-1) - 1, 0).reshape(-1)
    for row in range(grad.shape[0]):
        hit = contrib[idx == row]
        if len(hit) == 0:
            continue
        # An axis-0 sum runs in order over a row of two or more entries;
        # over one entry numpy sums pairwise, while cumsum is always in order.
        grad[row] += hit.sum(axis=0) if hit[0].size > 1 else np.cumsum(hit, axis=0)[-1]
