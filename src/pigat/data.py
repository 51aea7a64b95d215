"""Interaction-log files, timeline splits, and instance construction.

File format: UTF-8, one interaction per line, three tab-separated
sections plus a signal column:

    timestamp<TAB>user_field=value;...<TAB>item_field=value;...<TAB>signal

Lines end where file iteration ends them ("\n", "\r\n" or "\r"; no other
character breaks a line), and blank lines are skipped. A timestamp is a
non-negative integer in Python's `int()` syntax, of any size. The first
line fixes the field names and their order; every later line must repeat
them. Signals are finite numbers, either already-binary labels (all
values in {0, 1}) or ratings, which become positive above 3.

A log in memory is columns (`InteractionLog`): timestamps, signals and,
per side, each distinct profile once plus one profile index per event.
The reader fills them a block of lines at a time: it splits the block
into cells, converts its timestamps and signals with `int()` and
`float()` and keeps one code per section, each distinct section once.
Then it sorts stably by time and parses each distinct section once, in
order of first occurrence. When any check fails it reads the text again
line by line, so that the DataError names the first bad line as
`path:line`.

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
import re
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .config import MAX_MODEL_SIZE, TrainConfig, read_utf8_lines
from .errors import DataError
from .features import ITEM, SIDES, USER, Batch, FeatureSchema, FieldVocab
from .features import encode_instance  # noqa: F401  perfbench's PROBES wrap pigat.data:encode_instance

Array = np.ndarray

RATING_POSITIVE_ABOVE = 3.0
# A value may hold "=", a field name may not: a field's first "=" separates
# name from value.
# Reading splits lines at "\r" too (universal newlines).
_FORBIDDEN = set("\t;\r\n")


class RawInteraction(NamedTuple):
    """One event as a record: what `InteractionLog.records` yields and `from_records` takes."""

    timestamp: int
    user_values: tuple[str, ...]
    item_values: tuple[str, ...]
    signal: float


@dataclass(eq=False)
class InteractionLog:
    """A log as columns, one entry per event; a log read from a file is sorted by (timestamp, file order).

    Per side, `profiles` holds each distinct profile (one value per field)
    once, in order of first occurrence, and `profile_of` holds each event's
    index into it. Two logs are equal when their field names and records are.
    """

    field_names: dict[str, list[str]]
    timestamps: Array  # int64, or exact Python ints (object) when one is beyond int64
    signals: Array  # float64
    profiles: dict[str, list[tuple[str, ...]]]
    profile_of: dict[str, Array]  # int64

    def __post_init__(self) -> None:
        for side in SIDES:
            names = self.field_names[side]
            if set(map(len, self.profiles[side])) - {len(names)}:
                profile = next(p for p in self.profiles[side] if len(p) != len(names))
                raise DataError(f"{side} profile {profile} has {len(profile)} values for the fields {names}")
        negative = np.flatnonzero(self.timestamps < 0)
        if negative.size:
            raise DataError(f"negative timestamp {self.timestamps[negative[0]]}")
        non_finite = np.flatnonzero(~np.isfinite(self.signals))
        if non_finite.size:
            raise DataError(f"non-finite signal {float(self.signals[non_finite[0]])!r}")

    @classmethod
    def from_records(cls, field_names: dict[str, list[str]], records: Iterable[RawInteraction]) -> InteractionLog:
        """The log of these records, in the order given."""
        records = list(records)
        users, user_of = first_seen(r.user_values for r in records)
        items, item_of = first_seen(r.item_values for r in records)
        return cls(
            field_names,
            _timestamp_array([r.timestamp for r in records]),
            np.array([r.signal for r in records], dtype=np.float64),
            {USER: users, ITEM: items},
            {USER: user_of, ITEM: item_of},
        )

    @property
    def records(self) -> list[RawInteraction]:
        """The events as records, rebuilt from the columns at each access."""
        users, items = (list(map(self.profiles[side].__getitem__, self.profile_of[side].tolist())) for side in SIDES)
        return list(map(RawInteraction, self.timestamps.tolist(), users, items, self.signals.tolist()))

    def __len__(self) -> int:
        return len(self.signals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionLog):
            return NotImplemented
        return self.field_names == other.field_names and self.records == other.records


def first_seen(keys: Iterable) -> tuple[list, Array]:
    """The distinct keys in order of first occurrence, and each key's index among them."""
    seen: dict = {}
    index = [seen.setdefault(key, len(seen)) for key in keys]
    return list(seen), np.array(index, dtype=np.int64)


def _timestamp_array(timestamps: list[int]) -> Array:
    """int64 when every timestamp fits, else the exact Python ints."""
    try:
        return np.array(timestamps, dtype=np.int64)
    except OverflowError:
        return np.array(timestamps, dtype=object)


def _parse_section(section: str, expected: list[str] | None) -> tuple[list[str], tuple[str, ...]]:
    """One side's field names and values; a ValueError says what is wrong, but not where."""
    pairs = []
    for part in section.split(";"):
        if "=" not in part:
            raise ValueError(f"expected field=value, got {part!r}")
        pairs.append(part.split("=", 1))
    names = [n for n, _ in pairs]
    if expected is not None and names != expected:
        raise ValueError(f"field names {names} do not match the first line's {expected}")
    return names, tuple(v for _, v in pairs)


def read_interactions(path: str) -> InteractionLog:
    """Parse a log file; events come back time-sorted, stable on ties."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        text = "".join(read_utf8_lines(path))  # raises the DataError that file iteration gives
    try:
        return _read_columns(text)
    except ValueError:
        # The lines file iteration gives, without their "\n": str.splitlines
        # would also break at "\x85", "\u2028" and other characters.
        return _read_each_line(path, text.split("\n"))


# Characters of text the column reader splits into cells at a time, so that
# it holds one block's lines and cells at once, not the whole log's.
READ_BLOCK_CHARS = 1 << 16


def _read_columns(text: str) -> InteractionLog:
    """The reader over whole columns; it raises a ValueError, without the line, on any failed check.

    It converts the text a block of whole lines at a time and keeps, per
    side, each distinct section once plus one int64 code per event.
    InteractionLog rejects negative timestamps and non-finite signals
    itself, with a DataError, which is a ValueError too.
    """
    stamp_blocks, signal_blocks = [], []
    codes: dict[str, list[Array]] = {USER: [], ITEM: []}
    distinct: dict[str, dict[str, int]] = {USER: {}, ITEM: {}}  # section -> code, in file order
    start = 0
    while start < len(text):
        end = text.find("\n", start + READ_BLOCK_CHARS)
        end = len(text) if end < 0 else end
        lines = [line for line in text[start:end].split("\n") if line]
        start = end + 1
        if not lines:
            continue
        if set(map(str.count, lines, repeat("\t"))) != {3}:
            raise ValueError("not four columns on every line")
        cells = "\t".join(lines).split("\t")
        stamp_blocks.append(_timestamp_array(list(map(int, cells[0::4]))))
        signal_blocks.append(np.array(list(map(float, cells[3::4])), dtype=np.float64))
        for side, column in zip(SIDES, (cells[1::4], cells[2::4])):
            seen = distinct[side]
            codes[side].append(np.array([seen.setdefault(section, len(seen)) for section in column], dtype=np.int64))
    if not stamp_blocks:
        raise ValueError("no interactions")
    stamps = np.concatenate(stamp_blocks)  # exact Python ints (object) if one block's are
    signals = np.concatenate(signal_blocks)
    order = np.argsort(stamps, kind="stable")  # ties keep file order
    names, profiles, profile_of = {}, {}, {}
    for side in SIDES:
        # Renumber the sections by first occurrence in time order, not file order.
        in_time_order = np.concatenate(codes[side])[order]
        first = np.full(len(distinct[side]), len(in_time_order), dtype=np.int64)
        np.minimum.at(first, in_time_order, np.arange(len(in_time_order)))  # each code's first event
        firsts = np.argsort(first)  # the codes by first occurrence
        renumber = np.empty(len(firsts), dtype=np.int64)
        renumber[firsts] = np.arange(len(firsts))
        profile_of[side] = renumber[in_time_order]
        in_file_order = list(distinct[side])
        sections = [in_file_order[code] for code in firsts.tolist()]
        names[side], _ = _parse_section(sections[0], None)
        # A name holds neither ";" nor "=", a value no ";": a match is exactly
        # a section _parse_section accepts with these names.
        pattern = re.compile(";".join(re.escape(name) + "=([^;]*)" for name in names[side]))
        profiles[side] = [match.groups() for match in map(pattern.fullmatch, sections) if match]
        if len(profiles[side]) != len(sections):
            raise ValueError("field names differ between lines")
    return InteractionLog(names, stamps[order], signals[order], profiles, profile_of)


def _read_each_line(path: str, lines: list[str]) -> InteractionLog:
    """The reader one line at a time, checks in file order: its DataError names the first bad line."""
    records: list[RawInteraction] = []
    names: dict[str, list[str] | None] = {USER: None, ITEM: None}
    for line_no, line in enumerate(lines, 1):
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
        values = {}
        for side, section in zip(SIDES, parts[1:3]):
            try:
                names[side], values[side] = _parse_section(section, names[side])
            except ValueError as err:
                raise DataError(f"{path}:{line_no}: {err}") from None
        try:
            signal = float(parts[3])
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad signal {parts[3]!r}") from None
        if not math.isfinite(signal):
            raise DataError(f"{path}:{line_no}: non-finite signal {parts[3]!r}")
        records.append(RawInteraction(timestamp, values[USER], values[ITEM], signal))
    if not records:
        raise DataError(f"{path}: no interactions")
    records.sort(key=lambda r: r.timestamp)  # sort is stable: ties keep file order
    return InteractionLog.from_records(names, records)


def format_signal(signal: float) -> str:
    return str(int(signal)) if float(signal).is_integer() else repr(float(signal))


def write_interactions(path: str, log: InteractionLog) -> None:
    """Serialize canonically; a write/read round trip is the identity."""
    for name in chain(*log.field_names.values()):
        if (_FORBIDDEN | {"="}) & set(name):
            raise DataError(f"field name {name!r} contains a delimiter character")
    for value in chain(*log.profiles[USER], *log.profiles[ITEM]):
        if _FORBIDDEN & set(value):
            raise DataError(f"value {value!r} contains a delimiter character")
    names = log.field_names
    with open(path, "w", encoding="utf-8") as fh:
        for rec in log.records:
            user = ";".join(f"{n}={v}" for n, v in zip(names[USER], rec.user_values))
            item = ";".join(f"{n}={v}" for n, v in zip(names[ITEM], rec.item_values))
            fh.write(f"{rec.timestamp}\t{user}\t{item}\t{format_signal(rec.signal)}\n")


def derive_labels(signals: Array) -> Array:
    """Binary signals pass through; ratings become positive above 3."""
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
    # The profiles come in order of first occurrence, so dict.fromkeys over
    # them keeps each value once, at its first occurrence in log order.
    fields = {
        side: [
            FieldVocab(name, list(dict.fromkeys(column)))
            for name, column in zip(log.field_names[side], zip(*log.profiles[side]))
        ]
        for side in SIDES
    }
    return FeatureSchema(fields, {USER: user_width, ITEM: item_width})


def encode_events(schema: FeatureSchema, log: InteractionLog) -> dict[str, Array]:
    """Resolve every event's profiles into table ids: per side, an (N, fields) int64 array.

    Each distinct profile is resolved once, one lookup in its field's index
    per value, an unseen value taking the field's out-of-vocabulary id; one
    gather per side spreads the rows over the events.
    """
    fields = schema.fields
    arity = {side: len(log.field_names[side]) for side in SIDES}
    if any(arity[side] != len(fields[side]) for side in SIDES):
        raise DataError(
            f"profiles of {arity[USER]} user and {arity[ITEM]} item values "
            f"for {len(fields[USER])} user and {len(fields[ITEM])} item schema fields"
        )
    ids = {}
    for side in SIDES:
        profiles = log.profiles[side]
        rows = np.empty((len(profiles), arity[side]), dtype=np.int64)
        for pos, (column, vocab) in enumerate(zip(zip(*profiles), fields[side])):
            rows[:, pos] = np.fromiter(map(vocab.index.get, column, repeat(vocab.card)), np.int64, len(profiles))
            rows[:, pos] += schema.field_base(side, pos)
        ids[side] = rows[log.profile_of[side]]
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


def prepare_dataset(
    log: InteractionLog, config: TrainConfig, schema: FeatureSchema | None = None
) -> PreparedData:
    """Everything the trainer and evaluator need from one log file.

    Passing a schema (from a checkpoint) scores the log against that
    model's vocabulary; unseen values collapse onto the OOV rows. The
    log's field names must then be the schema's, in the schema's order.
    """
    labels = derive_labels(log.signals)
    if schema is None:
        if config.max_neighbors > len(log):  # no window can hold more entries than the log
            raise DataError(f"max_neighbors {config.max_neighbors} exceeds the log's {len(log)} events")
        schema = build_schema(log, config.user_embed_width, config.item_embed_width)
    for side in SIDES:
        names, expected = log.field_names[side], [f.name for f in schema.fields[side]]
        if names != expected:
            raise DataError(f"the log's {side} fields {names} are not the schema's {expected}")
    # Each event's windows: k item profiles on the user side, k user ids on the item side.
    window_ids = len(log) * config.max_neighbors * (len(log.field_names[ITEM]) + 1)
    if window_ids > MAX_MODEL_SIZE:
        raise DataError(
            f"the windows would hold {window_ids} ids, more than the {MAX_MODEL_SIZE} allowed; lower max_neighbors"
        )
    ids = encode_events(schema, log)
    n_train, n_val = timeline_split(len(log))
    batch = build_instances(
        schema,
        log.timestamps,
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
