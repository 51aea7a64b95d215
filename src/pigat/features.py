"""Categorical feature schema, embedding tables, and instance encoding.

Each side (user, item) owns one embedding table covering all of its
fields: field vocabularies occupy disjoint id blocks, and every field
gets two extra slots, one trainable out-of-vocabulary id and one padding
id pinned at zero. The first field on each side is the identity field;
its block comes first, so an identity's table id (the OOV id included)
is also its graph node number.

Neighbor sequences share tables across sides: a user's neighbors are
item profiles looked up in the item table, an item's neighbors are bare
user ids looked up in the user table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, ShapeError
from .graph import ITEM, USER, InteractionEvent, InteractionGraph

Array = np.ndarray


@dataclass
class FieldVocab:
    """One categorical field's value list, in first-seen order."""

    name: str
    values: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index = {v: i for i, v in enumerate(self.values)}
        if len(self._index) != len(self.values):
            raise DataError(f"field {self.name!r} has duplicate vocabulary entries")

    @property
    def card(self) -> int:
        return len(self.values)

    def add(self, value: str) -> int:
        if value not in self._index:
            self._index[value] = len(self.values)
            self.values.append(value)
        return self._index[value]

    def local_id(self, value: str) -> int:
        # Unseen values collapse onto the shared out-of-vocabulary slot.
        return self._index.get(value, self.card)


@dataclass
class FeatureSchema:
    user_fields: list[FieldVocab]
    item_fields: list[FieldVocab]
    user_width: int
    item_width: int

    def __post_init__(self) -> None:
        if not self.user_fields or not self.item_fields:
            raise DataError("schema needs at least one field per side")
        if self.user_width < 1 or self.item_width < 1:
            raise DataError("embedding widths must be positive")

    def fields(self, side: str) -> list[FieldVocab]:
        return self.user_fields if side == USER else self.item_fields

    def width(self, side: str) -> int:
        return self.user_width if side == USER else self.item_width

    def field_base(self, side: str, pos: int) -> int:
        # Every field block reserves card + 2 slots: values, oov, padding.
        return sum(f.card + 2 for f in self.fields(side)[:pos])

    def table_size(self, side: str) -> int:
        return sum(f.card + 2 for f in self.fields(side))

    def global_id(self, side: str, pos: int, value: str) -> int:
        return self.field_base(side, pos) + self.fields(side)[pos].local_id(value)

    def pad_id(self, side: str, pos: int) -> int:
        return self.field_base(side, pos) + self.fields(side)[pos].card + 1

    def pad_rows(self, side: str) -> Array:
        mask = np.zeros(self.table_size(side), dtype=bool)
        for pos in range(len(self.fields(side))):
            mask[self.pad_id(side, pos)] = True
        return mask

    def encode_profile(self, side: str, values: tuple[str, ...]) -> tuple[int, ...]:
        fields = self.fields(side)
        if len(values) != len(fields):
            raise DataError(
                f"{side} profile has {len(values)} values for {len(fields)} schema fields"
            )
        return tuple(self.global_id(side, p, v) for p, v in enumerate(values))

    def node_count(self, side: str) -> int:
        return self.fields(side)[0].card + 1

    def shape(self) -> list[tuple[str, str, int]]:
        return [(USER, f.name, f.card) for f in self.user_fields] + [
            (ITEM, f.name, f.card) for f in self.item_fields
        ]

    def structural_hash(self) -> str:
        text = "|".join(f"{s}:{n}" for s, n, _ in self.shape())
        text += f"|embed:{self.user_width}:{self.item_width}"
        return hashlib.sha256(text.encode()).hexdigest()


def write_schema(schema: FeatureSchema, path: str) -> None:
    """Write the side/field/cardinality summary plus embedding widths."""
    with open(path, "w") as fh:
        for side, name, card in schema.shape():
            fh.write(f"{side} {name} {card}\n")
        fh.write(f"embed user {schema.user_width}\n")
        fh.write(f"embed item {schema.item_width}\n")


@dataclass
class EmbeddingTable:
    """Per-side embedding rows plus a same-shape gradient accumulator."""

    weight: Array
    grad: Array
    frozen_rows: Array  # padding rows: pinned at zero, never updated
    # Sorted distinct rows scatter_gradient wrote since zero_gradients; every
    # other row of grad is +0.0.
    touched: Array = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def count(self) -> int:
        return self.weight.shape[0]

    @property
    def width(self) -> int:
        return self.weight.shape[1]


def table_init(rng: np.random.Generator, count: int, width: int, frozen_rows: Array | None = None) -> EmbeddingTable:
    bound = np.sqrt(6.0 / (count + width))
    weight = rng.uniform(-bound, bound, size=(count, width))
    if frozen_rows is None:
        frozen_rows = np.zeros(count, dtype=bool)
    weight[frozen_rows] = 0.0
    return EmbeddingTable(weight, np.zeros_like(weight), frozen_rows.copy())


def table_for_side(rng: np.random.Generator, schema: FeatureSchema, side: str) -> EmbeddingTable:
    return table_init(rng, schema.table_size(side), schema.width(side), schema.pad_rows(side))


def lookup(table: EmbeddingTable, ids: Array) -> Array:
    """Gather rows; output shape is ids.shape + (width,)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.count):
        raise DomainError(f"embedding id outside table of {table.count} rows")
    return table.weight[ids]


def scatter_gradient(table: EmbeddingTable, ids: Array, upstream: Array) -> None:
    """Accumulate per-slot gradients into the table's accumulator.

    Repeated ids add up; padding rows silently discard their slice so the
    pinned zero rows never move.
    """
    ids = np.asarray(ids).reshape(-1)
    upstream = np.asarray(upstream)
    if upstream.shape[-1] != table.width or upstream.size != ids.size * table.width:
        raise ShapeError(
            f"upstream {upstream.shape} does not cover {ids.size} slots of width {table.width}"
        )
    flat = upstream.reshape(-1, table.width)
    keep = ~table.frozen_rows[ids]
    written = ids[keep]
    np.add.at(table.grad, written, flat[keep])
    # A row mask finds the distinct rows several times faster than sorting
    # the ids (np.unique sorts), even over 20000-row tables.
    mask = np.zeros(table.count, dtype=bool)
    mask[table.touched] = True
    mask[written] = True
    table.touched = np.flatnonzero(mask)


def zero_gradients(table: EmbeddingTable) -> None:
    """Clear the rows written since the last call; the rest are already zero."""
    table.grad[table.touched] = 0.0
    table.touched = table.touched[:0]


@dataclass
class EncodedInstance:
    """One interaction, fully resolved into embedding ids and masks.

    Live neighbor slots come first (window positions 1..length in
    interaction order); dead slots carry padding ids and a False mask.
    """

    user_ids: Array  # (n_user_fields,)
    item_ids: Array  # (n_item_fields,)
    user_nbrs: Array  # (k, n_item_fields) ids into the item table
    user_mask: Array  # (k,) bool
    item_nbrs: Array  # (k,) identity ids into the user table
    item_mask: Array  # (k,) bool
    label: float


def encode_instance(
    schema: FeatureSchema,
    event: InteractionEvent,
    graph: InteractionGraph,
    before: float,
    k: int,
    positives_only: bool = False,
) -> EncodedInstance:
    """Encode one interaction against the graph's history before a cutoff.

    The caller controls leakage through the cutoff: pass the event's own
    timestamp for causal encoding. positives_only drops negative-label
    interactions from the windows before truncation.
    """
    if k < 1:
        raise DomainError(f"neighbor window k must be >= 1, got {k}")
    u_events = _window(graph, USER, event.user_ids[0], before, k, positives_only)
    i_events = _window(graph, ITEM, event.item_ids[0], before, k, positives_only)

    n_item_fields = len(schema.item_fields)
    user_nbrs = np.empty((k, n_item_fields), dtype=np.int64)
    user_nbrs[:] = [schema.pad_id(ITEM, p) for p in range(n_item_fields)]
    user_mask = np.zeros(k, dtype=bool)
    for slot, ev in enumerate(u_events):
        user_nbrs[slot] = ev.item_ids
        user_mask[slot] = True

    item_nbrs = np.full(k, schema.pad_id(USER, 0), dtype=np.int64)
    item_mask = np.zeros(k, dtype=bool)
    for slot, ev in enumerate(i_events):
        item_nbrs[slot] = ev.user_ids[0]  # identity field only on this path
        item_mask[slot] = True

    return EncodedInstance(
        user_ids=np.asarray(event.user_ids, dtype=np.int64),
        item_ids=np.asarray(event.item_ids, dtype=np.int64),
        user_nbrs=user_nbrs,
        user_mask=user_mask,
        item_nbrs=item_nbrs,
        item_mask=item_mask,
        label=float(event.label),
    )


def _window(
    graph: InteractionGraph, part: str, index: int, before: float, k: int, positives_only: bool
) -> list[InteractionEvent]:
    if positives_only:
        kept = [e for e in graph.neighbor_events(part, index, before=before) if e.label > 0]
        return kept[-k:]
    return graph.neighbor_events(part, index, k, before)


@dataclass
class Batch:
    """Stacked encoded instances; every array keeps the batch axis first."""

    user_ids: Array
    item_ids: Array
    user_nbrs: Array
    user_mask: Array
    item_nbrs: Array
    item_mask: Array
    labels: Array

    @classmethod
    def from_instances(cls, instances: list[EncodedInstance]) -> "Batch":
        if not instances:
            raise DataError("cannot build an empty batch")
        return cls(
            user_ids=np.stack([i.user_ids for i in instances]),
            item_ids=np.stack([i.item_ids for i in instances]),
            user_nbrs=np.stack([i.user_nbrs for i in instances]),
            user_mask=np.stack([i.user_mask for i in instances]),
            item_nbrs=np.stack([i.item_nbrs for i in instances]),
            item_mask=np.stack([i.item_mask for i in instances]),
            labels=np.array([i.label for i in instances], dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, idx: Array) -> "Batch":
        return Batch(
            self.user_ids[idx],
            self.item_ids[idx],
            self.user_nbrs[idx],
            self.user_mask[idx],
            self.item_nbrs[idx],
            self.item_mask[idx],
            self.labels[idx],
        )
