"""Interaction-log files, timeline splits, and instance construction.

File format: UTF-8, one interaction per line, three tab-separated
sections plus a signal column:

    timestamp<TAB>user_field=value;...<TAB>item_field=value;...<TAB>signal

The first line fixes the field names and their order; every later line
must repeat them. Signals are either already-binary labels (all values
in {0, 1}) or ratings, which become positive above 3.

Instance construction builds every window of the log at once: one
stable sort of the recorded events by (node, timestamp rank) and two
binary searches per side, then one gather. It is leakage-free by
construction: each interaction's window ends at the first recorded event
of its node whose timestamp is not strictly below its own, so a window
never contains the interaction itself, a tie, or anything later. Static
mode deliberately breaks this for the ablation: the whole training
period, with no cutoff, serves every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .config import MAX_MODEL_SIZE, TrainConfig, read_utf8_lines
from .errors import DataError
from .features import Batch, FeatureSchema, FieldVocab
from .features import encode_instance  # noqa: F401  perfbench's PROBES wrap pigat.data:encode_instance
from .graph import ITEM, SIDES, USER

Array = np.ndarray

RATING_POSITIVE_ABOVE = 3.0
# A value may hold "=", a field name may not: a field's first "=" separates
# name from value.
# Reading splits lines at "\r" too (universal newlines).
_FORBIDDEN = set("\t;\r\n")


@dataclass
class RawInteraction:
    timestamp: int
    user_values: tuple[str, ...]
    item_values: tuple[str, ...]
    signal: float


@dataclass
class InteractionLog:
    user_field_names: list[str]
    item_field_names: list[str]
    records: list[RawInteraction]  # sorted by (timestamp, source order)


def _parse_fields(path: str, line_no: int, section: str, expected: list[str] | None):
    pairs = []
    for part in section.split(";"):
        if "=" not in part:
            raise DataError(f"{path}:{line_no}: expected field=value, got {part!r}")
        name, value = part.split("=", 1)
        pairs.append((name, value))
    names = [n for n, _ in pairs]
    if expected is not None and names != expected:
        raise DataError(
            f"{path}:{line_no}: field names {names} do not match the first line's {expected}"
        )
    return names, tuple(v for _, v in pairs)


def read_interactions(path: str) -> InteractionLog:
    """Parse a log file; records come back time-sorted, stable on ties."""
    records: list[RawInteraction] = []
    user_names: list[str] | None = None
    item_names: list[str] | None = None
    for line_no, line in enumerate(read_utf8_lines(path), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{line_no}: expected 4 tab-separated columns, got {len(parts)}")
        try:
            timestamp = int(parts[0])
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad timestamp {parts[0]!r}") from None
        if timestamp < 0:
            raise DataError(f"{path}:{line_no}: negative timestamp {timestamp}")
        user_names, user_values = _parse_fields(path, line_no, parts[1], user_names)
        item_names, item_values = _parse_fields(path, line_no, parts[2], item_names)
        try:
            signal = float(parts[3])
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad signal {parts[3]!r}") from None
        if not math.isfinite(signal):
            raise DataError(f"{path}:{line_no}: non-finite signal {parts[3]!r}")
        records.append(RawInteraction(timestamp, user_values, item_values, signal))
    if not records:
        raise DataError(f"{path}: no interactions")
    records.sort(key=lambda r: r.timestamp)  # sort is stable: ties keep file order
    return InteractionLog(list(user_names), list(item_names), records)


def format_signal(signal: float) -> str:
    return str(int(signal)) if float(signal).is_integer() else repr(float(signal))


def write_interactions(path: str, log: InteractionLog) -> None:
    """Serialize canonically; a write/read round trip is the identity."""
    for name in (*log.user_field_names, *log.item_field_names):
        if (_FORBIDDEN | {"="}) & set(name):
            raise DataError(f"field name {name!r} contains a delimiter character")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in log.records:
            for value in (*rec.user_values, *rec.item_values):
                if _FORBIDDEN & set(value):
                    raise DataError(f"value {value!r} contains a delimiter character")
            user = ";".join(f"{n}={v}" for n, v in zip(log.user_field_names, rec.user_values))
            item = ";".join(f"{n}={v}" for n, v in zip(log.item_field_names, rec.item_values))
            fh.write(f"{rec.timestamp}\t{user}\t{item}\t{format_signal(rec.signal)}\n")


def derive_labels(records: list[RawInteraction]) -> Array:
    """Binary signals pass through; ratings become positive above 3."""
    signals = np.array([r.signal for r in records], dtype=np.float64)
    if np.all((signals == 0.0) | (signals == 1.0)):
        return signals
    return (signals > RATING_POSITIVE_ABOVE).astype(np.float64)


def timeline_split(count: int) -> tuple[int, int]:
    """80/10/10 cut points over time-sorted records."""
    if count < 10:
        raise DataError(f"need at least 10 interactions to split, got {count}")
    return int(count * 0.8), int(count * 0.9)


def build_schema(log: InteractionLog, user_width: int, item_width: int) -> FeatureSchema:
    """First-seen vocabularies over the whole log.

    Later-period values therefore have table rows, but rows touched only
    by validation/test interactions never receive gradient during
    training; files scored against a foreign schema fall back to OOV.
    """
    names = {USER: log.user_field_names, ITEM: log.item_field_names}
    profiles = _profiles(log.records)
    # dict.fromkeys keeps each value once, at its first occurrence in log order.
    fields = {
        side: [FieldVocab(name, list(dict.fromkeys(column))) for name, column in zip(names[side], zip(*profiles[side]))]
        for side in SIDES
    }
    return FeatureSchema(fields, {USER: user_width, ITEM: item_width})


def _profiles(records: list[RawInteraction]) -> dict[str, list[tuple[str, ...]]]:
    return {USER: [r.user_values for r in records], ITEM: [r.item_values for r in records]}


def encode_events(schema: FeatureSchema, records: list[RawInteraction]) -> dict[str, Array]:
    """Resolve every record's profiles into table ids: per side, an (N, fields) int64 array.

    One dict lookup per value; one array per field.
    """
    profiles = _profiles(records)
    value_ids = {side: schema.value_ids(side) for side in SIDES}
    if any(set(map(len, profiles[side])) - {len(value_ids[side])} for side in SIDES):
        arity = (len(value_ids[USER]), len(value_ids[ITEM]))
        rec = next(r for r in records if (len(r.user_values), len(r.item_values)) != arity)
        raise DataError(
            f"profiles of {len(rec.user_values)} user and {len(rec.item_values)} item values "
            f"for {arity[0]} user and {arity[1]} item schema fields"
        )
    ids = {}
    for side in SIDES:
        ids[side] = np.empty((len(records), len(value_ids[side])), dtype=np.int64)
        for pos, (column, (table_ids, oov)) in enumerate(zip(zip(*profiles[side]), value_ids[side])):
            ids[side][:, pos] = np.fromiter(map(table_ids.get, column, repeat(oov)), np.int64, len(records))
    return ids


def build_instances(
    schema: FeatureSchema,
    timestamps,
    ids: dict[str, Array],
    labels: Array,
    mode: str,
    k: int,
    positives_only: bool = False,
) -> Batch:
    """Both windows of every event, in log order, from one sort and two searches per side.

    A window holds the last k recorded events of the event's node (its
    user on the user side, its item on the item side), oldest first; dead
    slots carry padding ids and a False mask. dynamic: only events whose
    timestamp is strictly below the event's own, so never the event
    itself, a tie or anything later; the log keeps recording through
    validation and test time, only the model stays fixed. static: the
    events of the training period, with no cutoff, serve everyone.
    positives_only records positive events alone.
    """
    if mode not in ("dynamic", "static"):
        raise DataError(f"graph mode must be dynamic or static, got {mode!r}")
    ts = np.asarray(timestamps)
    if ts.dtype.kind not in "iu":  # beyond int64 (or empty): compare the Python ints exactly
        ts = np.array(timestamps, dtype=object)
    back = np.flatnonzero(ts[1:] < ts[:-1])
    if back.size:
        raise DataError(
            f"out-of-order timestamp {ts[back[0] + 1]} after {ts[back[0]]}; sort interactions before building windows"
        )
    n = len(ts)
    # Dense rank of each timestamp: equal timestamps share one, later ones count up.
    rank = np.zeros(n, dtype=np.int64)
    np.cumsum(ts[1:] != ts[:-1], out=rank[1:])
    span = n  # above every rank: keeps (node, rank) keys apart, and cuts off nothing
    positive = np.asarray(labels) > 0
    rows = np.flatnonzero(positive) if positives_only else np.arange(n)  # the recorded events
    cutoff = rank
    if mode == "static":
        rows, cutoff = rows[rows < timeline_split(n)[0]], span
    slot = np.arange(k)
    # What a window slot shows, by source row; row n is the padding.
    pad_profile = [[schema.pad_id(ITEM, p) for p in range(ids[ITEM].shape[1])]]
    shown = {USER: np.vstack([ids[ITEM], pad_profile]), ITEM: np.append(ids[USER][:, 0], schema.pad_id(USER, 0))}
    nbrs, mask = {}, {}
    for side in SIDES:
        node = ids[side][:, 0]
        # Recorded rows by (node, rank); the stable sort keeps log order on ties.
        key = node[rows] * span + rank[rows]
        order = np.argsort(key, kind="stable")
        key, source = key[order], np.append(rows[order], n)
        start = np.searchsorted(key, node * span, "left")
        end = np.searchsorted(key, node * span + cutoff, "left")
        length = np.minimum(end - start, k)
        mask[side] = slot < length[:, None]
        picked = np.where(mask[side], (end - length)[:, None] + slot, len(rows))
        nbrs[side] = shown[side][source[picked]]
    return Batch(ids=ids, nbrs=nbrs, mask=mask, labels=positive.astype(np.float64))


@dataclass
class PreparedData:
    schema: FeatureSchema
    train: Batch
    val: Batch
    test: Batch
    item_degrees: Array  # per item node, counted over train interactions only

    def degrees_for(self, batch: Batch) -> Array:
        return self.item_degrees[batch.ids[ITEM][:, 0]]


# The config fields prepare_dataset reads: configs that agree on them
# get identical prepared data.
PREPARE_FIELDS = (
    "graph_mode",
    "max_neighbors",
    "include_negative_neighbors",
    "user_embed_width",
    "item_embed_width",
)


def prepare_dataset(
    log: InteractionLog, config: TrainConfig, schema: FeatureSchema | None = None
) -> PreparedData:
    """Everything the trainer and evaluator need from one log file.

    Passing a schema (from a checkpoint) scores the log against that
    model's vocabulary; unseen values collapse onto the OOV rows. The
    log's field names must then be the schema's, in the schema's order.
    """
    labels = derive_labels(log.records)
    if schema is None:
        if config.max_neighbors > len(log.records):  # no window can hold more entries than the log
            raise DataError(f"max_neighbors {config.max_neighbors} exceeds the log's {len(log.records)} events")
        schema = build_schema(log, config.user_embed_width, config.item_embed_width)
    for side, names in ((USER, log.user_field_names), (ITEM, log.item_field_names)):
        expected = [f.name for f in schema.fields[side]]
        if names != expected:
            raise DataError(f"the log's {side} fields {names} are not the schema's {expected}")
    # Each event's windows: k item profiles on the user side, k user ids on the item side.
    window_ids = len(log.records) * config.max_neighbors * (len(log.item_field_names) + 1)
    if window_ids > MAX_MODEL_SIZE:
        raise DataError(
            f"the windows would hold {window_ids} ids, more than the {MAX_MODEL_SIZE} allowed; lower max_neighbors"
        )
    ids = encode_events(schema, log.records)
    n_train, n_val = timeline_split(len(log.records))
    batch = build_instances(
        schema,
        [r.timestamp for r in log.records],
        ids,
        labels,
        config.graph_mode,
        config.max_neighbors,
        positives_only=not config.include_negative_neighbors,
    )
    return PreparedData(
        schema=schema,
        train=_rows(batch, 0, n_train),
        val=_rows(batch, n_train, n_val),
        test=_rows(batch, n_val, len(batch)),
        item_degrees=np.bincount(ids[ITEM][:n_train, 0], minlength=schema.node_count(ITEM)),
    )


def _rows(batch: Batch, lo: int, hi: int) -> Batch:
    """Rows lo:hi in arrays of their own: training read slice views of the whole log measurably slower."""
    sides = ({side: a[lo:hi].copy() for side, a in arrays.items()} for arrays in (batch.ids, batch.nbrs, batch.mask))
    return Batch(*sides, batch.labels[lo:hi].copy())
