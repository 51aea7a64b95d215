"""Synthetic interaction-log generator with controllable structure.

Generative process: every user and item gets a latent vector; an
interaction's label is Bernoulli(sigmoid(<user latent, item latent>)).
Item popularity follows a power law (low indices popular, high indices
long-tail), items cluster around shared centers that also name their
category field, and the acting user's latent can drift a little after
every event, so preferences move over time. A configurable fraction of
noise events picks the item uniformly and labels it by a coin flip.

Everything is driven by one seed: the same spec file always produces
byte-identical records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_MODEL_SIZE, check_finite_and_seed, coerce_pairs, field_types, parse_kv_lines
from .data import InteractionLog, first_seen
from .errors import DataError
from .features import ITEM, USER
from .nn import sigmoid

Array = np.ndarray

N_CLUSTERS = 8
N_SEGMENTS = 4


@dataclass
class SynthSpec:
    users: int
    items: int
    events: int
    latent_dim: int = 8
    tastes: int = 1  # taste vectors per user; affinity is the max over them
    drift: float = 0.0  # per-event latent turnover of the acting user, in [0, 1]
    exponent: float = 1.0  # item popularity power-law exponent
    scale: float = 3.0  # typical magnitude of the label logit
    noise: float = 0.0  # fraction of uniformly random, coin-labeled events
    seed: int = 0

    def validate(self) -> "SynthSpec":
        check_finite_and_seed(self)
        if self.users < 2 or self.items < 2:
            raise DataError("need at least 2 users and 2 items")
        if self.events < 10:
            raise DataError(f"need at least 10 events, got {self.events}")
        # At k >= 1 each event's windows hold at least 3 ids (2 item fields, 1 user id),
        # so no larger log can be prepared.
        if self.events > MAX_MODEL_SIZE // 3:
            raise DataError(f"{self.events} events are more than the {MAX_MODEL_SIZE // 3} a log can be prepared with")
        if self.latent_dim < 1:
            raise DataError("latent_dim must be positive")
        if self.tastes < 1:
            raise DataError("tastes must be positive")
        latents = max(self.users * self.tastes, self.items) * self.latent_dim
        if latents > MAX_MODEL_SIZE:
            raise DataError(f"the latents would hold {latents} values, more than the {MAX_MODEL_SIZE} allowed")
        if not 0.0 <= self.drift <= 1.0:
            raise DataError(f"drift must be in [0, 1], got {self.drift}")
        if self.exponent < 0.0:
            raise DataError(f"exponent must be non-negative, got {self.exponent}")
        if self.scale <= 0.0:
            raise DataError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.noise < 1.0:
            raise DataError(f"noise must be in [0, 1), got {self.noise}")
        return self


def read_synth_spec(path: str) -> SynthSpec:
    kwargs = coerce_pairs(parse_kv_lines(path), field_types(SynthSpec), "generator")
    missing = {"users", "items", "events"} - set(kwargs)
    if missing:
        raise DataError(f"generator spec is missing {sorted(missing)}")
    return SynthSpec(**kwargs).validate()


@dataclass
class GroundTruth:
    """The latents behind a generated log, for diagnostics."""

    initial_users: Array
    final_users: Array
    items: Array
    clusters: Array
    segments: Array


def generate(spec: SynthSpec) -> tuple[InteractionLog, GroundTruth]:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    d = spec.latent_dim
    # Entry scale chosen so <u, v> has standard deviation `scale`.
    s = np.sqrt(spec.scale / np.sqrt(d))

    # A user is a bundle of taste vectors and likes an item that suits
    # any one of them; with a single taste this is plain dot-product
    # affinity. Several tastes make the liked set multi-modal, so its
    # centroid stops being a faithful summary of the user.
    users = rng.standard_normal((spec.users, spec.tastes, d)) * s
    centers = rng.standard_normal((N_CLUSTERS, d)) * s
    clusters = rng.integers(N_CLUSTERS, size=spec.items)
    # items mix a shared cluster direction with their own identity;
    # 0.6^2 + 0.8^2 = 1 keeps the marginal scale unchanged
    items = 0.6 * centers[clusters] + 0.8 * rng.standard_normal((spec.items, d)) * s
    segments = rng.integers(N_SEGMENTS, size=spec.users)

    ranks = np.arange(1, spec.items + 1, dtype=np.float64)
    popularity = ranks**-spec.exponent
    popularity /= popularity.sum()
    # The cdf Generator.choice builds from p, built once: searching it with one
    # uniform draw picks the item choice(items, p=popularity) would.
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    initial_users = users.copy()
    keep = np.sqrt(1.0 - spec.drift)
    stir = np.sqrt(spec.drift)
    user_nodes, item_nodes, labels = [], [], []
    for _ in range(spec.events):
        u = int(rng.integers(spec.users))
        if rng.random() < spec.noise:
            i = int(rng.integers(spec.items))
            label = int(rng.integers(2))
        else:
            i = int(cdf.searchsorted(rng.random(), side="right"))
            affinity = float(np.max(users[u] @ items[i]))
            label = int(rng.random() < sigmoid(affinity))
        user_nodes.append(u)
        item_nodes.append(i)
        labels.append(label)
        if spec.drift > 0.0:
            users[u] = keep * users[u] + stir * rng.standard_normal((spec.tastes, d)) * s

    seen_users, user_of = first_seen(user_nodes)
    seen_items, item_of = first_seen(item_nodes)
    log = InteractionLog(
        field_names={USER: ["uid", "seg"], ITEM: ["iid", "cat"]},
        timestamps=np.arange(1, spec.events + 1, dtype=np.int64),
        signals=np.array(labels, dtype=np.float64),
        profiles={
            USER: [(f"u{u}", f"s{segments[u]}") for u in seen_users],
            ITEM: [(f"i{i}", f"c{clusters[i]}") for i in seen_items],
        },
        profile_of={USER: user_of, ITEM: item_of},
    )
    truth = GroundTruth(initial_users, users, items, clusters, segments)
    return log, truth


def write_latents(path: str, truth: GroundTruth) -> None:
    """Ground-truth dump: part, name, stage, comma-joined coordinates.

    A multi-taste user's vectors are concatenated taste by taste."""

    def fmt(vec: Array) -> str:
        return ",".join(repr(float(x)) for x in vec.reshape(-1))

    with open(path, "w", encoding="utf-8") as fh:
        for idx in range(truth.initial_users.shape[0]):
            fh.write(f"user\tu{idx}\tinitial\t{fmt(truth.initial_users[idx])}\n")
            fh.write(f"user\tu{idx}\tfinal\t{fmt(truth.final_users[idx])}\n")
        for idx in range(truth.items.shape[0]):
            fh.write(f"item\ti{idx}\tstatic\t{fmt(truth.items[idx])}\n")


def degree_summary(log: InteractionLog, total_items: int, threshold: int = 3) -> dict:
    """Interaction counts per item over the whole log; items the
    generator never drew count as zero-degree (they are the deep tail)."""
    # Profiles sharing an item id are one item; every profile occurs, so every count is positive.
    _, item_of_profile = first_seen(profile[0] for profile in log.profiles[ITEM])
    counts = np.bincount(item_of_profile[log.profile_of[ITEM]])
    if total_items < len(counts):
        raise DataError(f"log names {len(counts)} items but only {total_items} exist")
    at_most = int(np.count_nonzero(counts <= threshold)) + total_items - len(counts)
    return {
        "events": len(log),
        "items": total_items,
        "items_seen": len(counts),
        "longtail_threshold": threshold,
        "longtail_fraction": at_most / total_items,
    }
