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
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, DomainError, ShapeError

if TYPE_CHECKING:  # only the per-event reference path, encode_instance, names them
    from .graph import InteractionEvent, InteractionGraph

Array = np.ndarray

USER = "user"
ITEM = "item"
SIDES = (USER, ITEM)


@dataclass
class FieldVocab:
    """One categorical field's values, in first-seen order.

    values is stored as a tuple, whatever sequence it was given as, so it
    cannot be grown in place behind the index built from it; a grown
    vocabulary is a new FieldVocab.
    """

    name: str
    values: tuple[str, ...] = ()
    index: dict[str, int] = field(init=False, repr=False)  # value -> its position in values

    def __post_init__(self) -> None:
        self.values = tuple(self.values)
        self.index = {value: pos for pos, value in enumerate(self.values)}
        if len(self.index) != len(self.values):
            raise DataError(f"field {self.name!r} has duplicate vocabulary entries")

    @property
    def card(self) -> int:
        return len(self.values)


@dataclass
class FeatureSchema:
    """Per side: its field vocabularies, identity field first, and its embedding width."""

    fields: dict[str, list[FieldVocab]]
    widths: dict[str, int]

    def __post_init__(self) -> None:
        if not all(self.fields.get(side) for side in SIDES):
            raise DataError("schema needs at least one field per side")
        if not all(self.widths.get(side, 0) >= 1 for side in SIDES):
            raise DataError("embedding widths must be positive")

    def field_base(self, side: str, pos: int) -> int:
        # Every field block reserves card + 2 slots: values, oov, padding.
        return sum(f.card + 2 for f in self.fields[side][:pos])

    def table_size(self, side: str) -> int:
        return sum(f.card + 2 for f in self.fields[side])

    def pad_id(self, side: str, pos: int) -> int:
        return self.field_base(side, pos) + self.fields[side][pos].card + 1

    def pad_rows(self, side: str) -> Array:
        mask = np.zeros(self.table_size(side), dtype=bool)
        for pos in range(len(self.fields[side])):
            mask[self.pad_id(side, pos)] = True
        return mask

    def node_count(self, side: str) -> int:
        return self.fields[side][0].card + 1

    def shape(self) -> list[tuple[str, str, int]]:
        return [(side, f.name, f.card) for side in SIDES for f in self.fields[side]]

    def structural_hash(self) -> str:
        text = "|".join(f"{s}:{n}" for s, n, _ in self.shape())
        text += f"|embed:{self.widths[USER]}:{self.widths[ITEM]}"
        return hashlib.sha256(text.encode()).hexdigest()


def write_schema(schema: FeatureSchema, path: str) -> None:
    """Write the side/field/cardinality summary plus embedding widths."""
    with open(path, "w", encoding="utf-8") as fh:
        for side, name, card in schema.shape():
            fh.write(f"{side} {name} {card}\n")
        for side in SIDES:
            fh.write(f"embed {side} {schema.widths[side]}\n")


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


def lookup(table: EmbeddingTable, ids: Array) -> Array:
    """Gather rows; output shape is ids.shape + (width,)."""
    if ids.size and (ids.min() < 0 or ids.max() >= table.count):
        raise DomainError(f"embedding id outside table of {table.count} rows")
    return table.weight[ids]


def scatter_gradient(table: EmbeddingTable, ids: Array, upstream: Array) -> None:
    """Accumulate per-slot gradients into the table's accumulator.

    Repeated ids add up; padding rows silently discard their slice so the
    pinned zero rows never move.
    """
    ids = ids.reshape(-1)
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


def window_pads(schema: FeatureSchema, k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The k padding slots of each window: item-table pad profiles, user-table pad ids."""
    item_pad = tuple(schema.pad_id(ITEM, p) for p in range(len(schema.fields[ITEM])))
    return [item_pad] * k, [schema.pad_id(USER, 0)] * k


def encode_instance(
    schema: FeatureSchema,
    event: InteractionEvent,
    graph: InteractionGraph,
    before: float,
    k: int,
    pads: tuple[list[tuple[int, ...]], list[int]] | None = None,
) -> EncodedInstance:
    """Encode one interaction against the graph's history before a cutoff.

    The caller controls leakage through the cutoff: pass the event's own
    timestamp for causal encoding. The windows show what the graph
    recorded, so a positives-only graph gives positives-only windows.
    pads, from window_pads(schema, k), may be built once and shared.
    """
    if k < 1:
        raise DomainError(f"neighbor window k must be >= 1, got {k}")
    user_pad, item_pad = window_pads(schema, k) if pads is None else pads
    u_events = graph.neighbor_events(USER, event.user_ids[0], k, before)
    i_events = graph.neighbor_events(ITEM, event.item_ids[0], k, before)
    # Live slots first, in interaction order; the item side carries the
    # user identity field only.
    user_nbrs = np.array([ev.item_ids for ev in u_events] + user_pad[len(u_events) :], dtype=np.int64)
    item_nbrs = np.array([ev.user_ids[0] for ev in i_events] + item_pad[len(i_events) :], dtype=np.int64)
    user_mask = np.zeros(k, dtype=bool)
    user_mask[: len(u_events)] = True
    item_mask = np.zeros(k, dtype=bool)
    item_mask[: len(i_events)] = True
    return EncodedInstance(
        user_ids=np.asarray(event.user_ids, dtype=np.int64),
        item_ids=np.asarray(event.item_ids, dtype=np.int64),
        user_nbrs=user_nbrs,
        user_mask=user_mask,
        item_nbrs=item_nbrs,
        item_mask=item_mask,
        label=float(event.label),
    )


@dataclass
class Batch:
    """Stacked encoded instances, keyed by side; every array keeps the batch axis first."""

    ids: dict[str, Array]  # side -> (B, fields of the side)
    nbrs: dict[str, Array]  # window side -> user: (B, k, item fields), item: (B, k)
    mask: dict[str, Array]  # window side -> (B, k) bool
    labels: Array

    @classmethod
    def from_instances(cls, instances: list[EncodedInstance]) -> "Batch":
        if not instances:
            raise DataError("cannot build an empty batch")

        def by_side(user: list[Array], item: list[Array]) -> dict[str, Array]:
            return {USER: np.stack(user), ITEM: np.stack(item)}

        return cls(
            ids=by_side([i.user_ids for i in instances], [i.item_ids for i in instances]),
            nbrs=by_side([i.user_nbrs for i in instances], [i.item_nbrs for i in instances]),
            mask=by_side([i.user_mask for i in instances], [i.item_mask for i in instances]),
            labels=np.array([i.label for i in instances], dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.labels.shape[0]

    def take(self, idx: Array) -> "Batch":
        sides = ({side: a[idx] for side, a in arrays.items()} for arrays in (self.ids, self.nbrs, self.mask))
        return Batch(*sides, self.labels[idx])
