"""Interaction-log files, timeline splits, and instance construction.

File format: UTF-8, one interaction per line, three tab-separated
sections plus a signal column:

    timestamp<TAB>user_field=value;...<TAB>item_field=value;...<TAB>signal

The first line fixes the field names and their order; every later line
must repeat them. Signals are either already-binary labels (all values
in {0, 1}) or ratings, which become positive above 3.

Instance construction is leakage-free by construction: each interaction
is encoded against the graph's history strictly before its own timestamp,
so a window never contains the interaction itself, a tie, or anything
later. Static mode deliberately breaks this for the ablation: the whole
training-period graph, with no cutoff, serves every instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_MODEL_SIZE, TrainConfig, read_utf8_lines
from .errors import DataError
from .features import Batch, FeatureSchema, FieldVocab, encode_instance, window_pads
from .graph import ITEM, USER, InteractionEvent, InteractionGraph

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
    fields = {
        USER: [FieldVocab(name) for name in log.user_field_names],
        ITEM: [FieldVocab(name) for name in log.item_field_names],
    }
    for rec in log.records:
        for vocab, value in zip(fields[USER], rec.user_values):
            vocab.add(value)
        for vocab, value in zip(fields[ITEM], rec.item_values):
            vocab.add(value)
    return FeatureSchema(fields, {USER: user_width, ITEM: item_width})


def encode_events(
    schema: FeatureSchema, records: list[RawInteraction], labels: Array
) -> list[InteractionEvent]:
    """Resolve every record's profiles into table ids, one dict lookup per field."""
    user_maps, user_oovs = zip(*schema.value_ids(USER))
    item_maps, item_oovs = zip(*schema.value_ids(ITEM))
    events = []
    for rec, label in zip(records, labels):
        if len(rec.user_values) != len(user_maps) or len(rec.item_values) != len(item_maps):
            raise DataError(
                f"profiles of {len(rec.user_values)} user and {len(rec.item_values)} item values "
                f"for {len(user_maps)} user and {len(item_maps)} item schema fields"
            )
        events.append(
            InteractionEvent(
                user_ids=tuple(map(dict.get, user_maps, rec.user_values, user_oovs)),
                item_ids=tuple(map(dict.get, item_maps, rec.item_values, item_oovs)),
                timestamp=rec.timestamp,
                label=int(label),
            )
        )
    return events


def rebuild_graph(
    schema: FeatureSchema, events: list[InteractionEvent], positives_only: bool = False
) -> InteractionGraph:
    graph = InteractionGraph(schema.node_count(USER), schema.node_count(ITEM), positives_only)
    for event in events:
        graph.insert(event)
    return graph


def build_instances(
    schema: FeatureSchema,
    events: list[InteractionEvent],
    mode: str,
    k: int,
    positives_only: bool = False,
):
    """Encode every event; returns instances aligned with the input order.

    dynamic: encode against the history before the event's own
    timestamp, then insert, so each window sees exactly the
    strictly-earlier interactions (later splits keep inserting; the graph
    grows through validation and test time, only the model stays fixed).
    static: the graph of the training period, with no cutoff, serves
    everyone. positives_only builds a graph that records only positive
    interactions, so every window holds positives alone.
    """
    pads = window_pads(schema, k)
    if mode == "dynamic":
        graph = InteractionGraph(schema.node_count(USER), schema.node_count(ITEM), positives_only)
        instances = []
        for event in events:
            instances.append(encode_instance(schema, event, graph, event.timestamp, k, pads))
            graph.insert(event)
        return instances
    if mode != "static":
        raise DataError(f"graph mode must be dynamic or static, got {mode!r}")
    n_train, _ = timeline_split(len(events))
    frozen = rebuild_graph(schema, events[:n_train], positives_only)
    return [encode_instance(schema, ev, frozen, math.inf, k, pads) for ev in events]


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
    events = encode_events(schema, log.records, labels)
    n_train, n_val = timeline_split(len(events))
    instances = build_instances(
        schema,
        events,
        config.graph_mode,
        config.max_neighbors,
        positives_only=not config.include_negative_neighbors,
    )
    degrees = np.bincount([e.item_ids[0] for e in events[:n_train]], minlength=schema.node_count(ITEM))
    return PreparedData(
        schema=schema,
        train=Batch.from_instances(instances[:n_train]),
        val=Batch.from_instances(instances[n_train:n_val]),
        test=Batch.from_instances(instances[n_val:]),
        item_degrees=degrees,
    )
