"""Log parsing, splits, and leakage-free instance construction."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pigat.data as data_mod
from pigat.config import TrainConfig, read_utf8_lines
from pigat.data import (
    InteractionLog,
    RawInteraction,
    build_instances,
    build_schema,
    derive_labels,
    encode_events,
    prepare_dataset,
    read_interactions,
    timeline_split,
    write_interactions,
)
from pigat.errors import DataError
from pigat.features import ITEM, SIDES, USER
from schema_ids import profile_ids, table_id
from window_reference import events_of, reference_batch


def mk_record(ts, uid, seg, iid, cat, signal):
    return RawInteraction(ts, (uid, seg), (iid, cat), float(signal))


NAMES = {USER: ["uid", "seg"], ITEM: ["iid", "cat"]}


def mk_log(rows):
    return InteractionLog.from_records(NAMES, [mk_record(*row) for row in rows])


def build_args(log, schema=None):
    """build_instances' arguments before the mode: schema, timestamps, ids, labels."""
    schema = schema or build_schema(log, 4, 4)
    return schema, log.timestamps.tolist(), encode_events(schema, log), derive_labels(log.signals)


def assert_same_batch(got, want):
    """Array for array, dtype and shape included."""
    pairs = [(got.labels, want.labels)]
    for ours, theirs in ((got.ids, want.ids), (got.nbrs, want.nbrs), (got.mask, want.mask)):
        assert ours.keys() == theirs.keys()
        pairs += [(ours[side], theirs[side]) for side in ours]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParsing:
    def test_round_trip_is_identity(self, tmp_path):
        log = mk_log(
            [
                (1, "u0", "a", "i0", "x", 1),
                (2, "u1", "b", "i1", "y", 0),
                (2, "u0", "a", "i1", "y", 4.5),
            ]
        )
        path = tmp_path / "log.tsv"
        write_interactions(str(path), log)
        back = read_interactions(str(path))
        assert back.field_names == log.field_names
        assert back.records == log.records
        second = tmp_path / "again.tsv"
        write_interactions(str(second), back)
        assert path.read_bytes() == second.read_bytes()

    def test_unsorted_input_comes_back_sorted_stably(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(
            path,
            [
                "9\tuid=u1\tiid=i9\t1",
                "3\tuid=u2\tiid=iA\t0",
                "3\tuid=u3\tiid=iB\t1",
                "1\tuid=u4\tiid=iC\t0",
            ],
        )
        log = read_interactions(str(path))
        assert [r.timestamp for r in log.records] == [1, 3, 3, 9]
        # equal timestamps keep file order
        assert [r.item_values[0] for r in log.records[1:3]] == ["iA", "iB"]

    def test_column_count_error_names_the_line(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, ["1\tuid=u1\tiid=i1\t1", "2\tuid=u2\tiid=i2"])
        with pytest.raises(DataError, match=r":2:"):
            read_interactions(str(path))

    def test_bad_timestamp_rejected(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, ["soon\tuid=u1\tiid=i1\t1"])
        with pytest.raises(DataError, match="timestamp"):
            read_interactions(str(path))

    def test_negative_timestamp_rejected(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, ["-4\tuid=u1\tiid=i1\t1"])
        with pytest.raises(DataError, match="negative"):
            read_interactions(str(path))

    def test_bad_signal_rejected(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, ["1\tuid=u1\tiid=i1\tmaybe"])
        with pytest.raises(DataError, match="signal"):
            read_interactions(str(path))

    @pytest.mark.parametrize("signal", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_signal_rejected(self, tmp_path, signal):
        # one such row would otherwise switch the whole file to rating mode
        path = tmp_path / "log.tsv"
        write_lines(path, ["1\tuid=u1\tiid=i1\t1", f"2\tuid=u2\tiid=i2\t{signal}"])
        with pytest.raises(DataError, match=r":2: non-finite signal"):
            read_interactions(str(path))

    def test_field_name_drift_rejected(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, ["1\tuid=u1\tiid=i1\t1", "2\tuser=u2\tiid=i2\t1"])
        with pytest.raises(DataError, match="first line"):
            read_interactions(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "log.tsv"
        write_lines(path, ["1\tu1\tiid=i1\t1"])
        with pytest.raises(DataError, match="field=value"):
            read_interactions(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no interactions"):
            read_interactions(str(path))

    def test_delimiter_in_value_refuses_to_serialize(self, tmp_path):
        for value in ("u;0", "u\t0", "u\n0", "u\r0"):  # reading splits lines at a bare CR
            log = mk_log([(1, value, "a", "i0", "x", 1)])
            with pytest.raises(DataError, match="delimiter"):
                write_interactions(str(tmp_path / "log.tsv"), log)


VALID_LINES = [
    "1\tuid=u0;seg=a\tiid=i0;cat=x\t1",
    "2\tuid=u1;seg=b\tiid=i1;cat=y\t0",
    "2\tuid=u0;seg=a\tiid=i1;cat=y\t4.5",
]
TRICKY = [
    "", " ", "=", "a=b", ";", "\t", "\r", "\r\n", "\x85", "\u2028", "\ufeff1", "nan", "inf", "1e400",
    "-0.0", "+7", "-1", " 3", "1_0", "0x10", "\u0663",
]
log_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
log_mutation = st.tuples(
    st.integers(0, 100),
    st.sampled_from(["field", "separator", "drop"]),
    st.integers(0, 100),
    st.sampled_from(TRICKY) | log_text,
)


def mutate_log(lines: list[str], edits) -> str:
    """Replace a token or a separator of a line, or drop the line."""
    lines = list(lines)
    for line_pos, kind, pos, arg in edits:
        if not lines:
            break
        i = line_pos % len(lines)
        if kind == "drop":
            del lines[i]
            continue
        parts = re.split(r"([\t;=])", lines[i])  # tokens at even, separators at odd positions
        slots = range(0 if kind == "field" else 1, len(parts), 2)
        parts[slots[pos % len(slots)]] = arg
        lines[i] = "".join(parts)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(log_mutation, min_size=1, max_size=4),
    splice=st.none() | st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=2)),
    rename=st.none() | st.tuples(st.integers(0, 3), st.sampled_from(TRICKY) | log_text),
)
@example(edits=[(0, "field", 2, "a=b")], splice=None, rename=None)
@example(edits=[(1, "field", 0, "\u0663")], splice=None, rename=None)
@example(edits=[(0, "drop", 0, "")], splice=(0, b"\xff"), rename=None)
@example(edits=[(0, "drop", 0, "")], splice=None, rename=(0, "u=id"))
@example(edits=[(0, "drop", 0, "")], splice=None, rename=(3, "c;d"))
def test_mutated_log_is_rejected_or_round_trips(tmp_path, edits, splice, rename):
    """A mutated file is rejected or reads as a log its write -> read keeps.

    rename then gives one field of the log read a new name, which the
    writer must refuse or keep through the round trip as well.
    """
    raw = mutate_log(VALID_LINES, edits).encode()
    if splice is not None:  # raw bytes, possibly not UTF-8
        at, junk = splice
        raw = raw[:at] + junk + raw[at:]
    path = tmp_path / "log.tsv"
    path.write_bytes(raw)
    try:
        log = read_interactions(str(path))
    except DataError:
        return
    if rename is not None:
        pos, name = rename
        names = log.field_names[USER] + log.field_names[ITEM]
        names[pos % len(names)] = name
        cut = len(log.field_names[USER])
        log = dataclasses.replace(log, field_names={USER: names[:cut], ITEM: names[cut:]})
    echoed = tmp_path / "echoed.tsv"
    try:
        write_interactions(str(echoed), log)
    except DataError:
        assert rename is not None and set("\t;\r\n=") & set(rename[1])
        return
    assert read_interactions(str(echoed)) == log


def per_line_reference(path: str) -> InteractionLog:
    """The per-line reader over the lines file iteration gives: the reader the columns must agree with."""
    return data_mod._read_each_line(path, read_utf8_lines(path))


def assert_reads_as_per_line(path: str) -> None:
    """read_interactions fails with the reference's exact text, or both read equal logs.

    On a file the reference accepts, the columnar reader alone must accept
    it too, so a fast path that gives up on valid files fails here.
    """
    try:
        want = per_line_reference(path)
    except DataError as err:
        with pytest.raises(DataError) as got:
            read_interactions(path)
        assert str(got.value) == str(err)
        return
    assert read_interactions(path) == want
    got = data_mod._read_columns("".join(read_utf8_lines(path)))
    assert got == want
    # The same distinct profiles in the same order, so the schema built from them is the same too.
    assert got.profiles == want.profiles
    assert all(got.profile_of[side].tobytes() == want.profile_of[side].tobytes() for side in SIDES)


# Block sizes of the column reader, in characters: from one line per block
# (any block ends at a line's end) to the whole of any generated file.
BLOCKS = st.sampled_from([1, 2, 7, 30, data_mod.READ_BLOCK_CHARS])


# int() syntax the reader keeps: sign, surrounding space, underscores, other
# digits; ties, and timestamps at and beyond the int64 range.
STAMPS = ["0", "3", "+7", " 3", "1_0", "\u0663", "7 ", str(2**63), str(2**64), str(2**63 - 1)]
SIGNALS = ["0", "1", "4.5", " 1", "1e0", "-0.0"]
# Few shared values make repeated profiles, free text unique ones; "=" may
# sit inside a value, and "\x85" or "\u2028" break no line.
VALUE = st.sampled_from(["a", "b", "a=b", "=", "", "\x85", "\u2028", "\x0c"]) | st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t;\r\n"), max_size=4
)
FIELD_NAME = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t;\r\n="), max_size=3)


@st.composite
def log_texts(draw) -> str:
    """A valid log file in any line order, with the first line's field names on every line."""
    names = [draw(st.lists(FIELD_NAME, min_size=1, max_size=3)) for _ in range(2)]
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        sections = [";".join(f"{name}={draw(VALUE)}" for name in side) for side in names]
        lines.append("\t".join([draw(st.sampled_from(STAMPS)), *sections, draw(st.sampled_from(SIGNALS))]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending, ending * 2]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=log_texts(), block=BLOCKS)
@example(text="3\tuid=u\x85v\tiid=i\t1\n", block=data_mod.READ_BLOCK_CHARS)
@example(text=f"{2**64}\tuid=u\tiid=a=b\t1\n{2**63}\tuid=u\tiid=a=b\t0\n+7\tuid=v\tiid=c\t1\n", block=1)
@example(text=f"1\tuid=u\tiid=a\t1\n\n\n{2**64}\tuid=v\tiid=b\t0\n5\tuid=u\tiid=b\t1\n", block=2)
def test_columnar_reader_equals_the_per_line_reader(tmp_path, monkeypatch, text, block):
    monkeypatch.setattr(data_mod, "READ_BLOCK_CHARS", block)
    path = tmp_path / "log.tsv"
    path.write_bytes(text.encode())
    per_line_reference(str(path))  # the generated file is valid
    assert_reads_as_per_line(str(path))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(log_mutation, min_size=1, max_size=4),
    splice=st.none() | st.tuples(st.integers(0, 200), st.binary(min_size=1, max_size=2)),
    block=BLOCKS,
)
@example(edits=[(1, "field", 1, "user")], splice=None, block=data_mod.READ_BLOCK_CHARS)
@example(edits=[(2, "separator", 1, "=")], splice=None, block=data_mod.READ_BLOCK_CHARS)
@example(edits=[(1, "field", 9, "1e400")], splice=None, block=1)  # token 9 is the signal
@example(edits=[(2, "field", 0, "-1")], splice=None, block=7)
def test_mutated_log_fails_as_the_per_line_reader_does(tmp_path, monkeypatch, edits, splice, block):
    monkeypatch.setattr(data_mod, "READ_BLOCK_CHARS", block)
    raw = mutate_log(VALID_LINES, edits).encode()
    if splice is not None:
        at, junk = splice
        raw = raw[:at] + junk + raw[at:]
    path = tmp_path / "log.tsv"
    path.write_bytes(raw)
    assert_reads_as_per_line(str(path))


class TestLabels:
    def test_ratings_above_three_are_positive(self):
        labels = derive_labels(np.array((5, 3, 1), dtype=np.float64))
        assert labels.tolist() == [1.0, 0.0, 0.0]

    def test_binary_signals_pass_through(self):
        labels = derive_labels(np.array((0, 1, 1), dtype=np.float64))
        assert labels.tolist() == [0.0, 1.0, 1.0]

    def test_mixed_signals_use_the_rating_rule(self):
        labels = derive_labels(np.array((0, 1, 5), dtype=np.float64))
        assert labels.tolist() == [0.0, 0.0, 1.0]


class TestSplit:
    def test_exact_ratios(self):
        assert timeline_split(10) == (8, 9)
        assert timeline_split(100) == (80, 90)

    def test_too_small_rejected(self):
        with pytest.raises(DataError, match="at least 10"):
            timeline_split(9)


def demo_rows(n=30, users=4, items=6, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(1, n + 1):
        u = int(rng.integers(users))
        i = int(rng.integers(items))
        rows.append((t, f"u{u}", f"s{u % 2}", f"i{i}", f"c{i % 3}", int(rng.integers(2))))
    return rows


class TestSchemaAndEvents:
    def test_vocab_sizes_count_distinct_values(self):
        log = mk_log(demo_rows())
        schema = build_schema(log, 4, 4)
        assert schema.fields[USER][0].card == len({r.user_values[0] for r in log.records})
        assert schema.fields[ITEM][0].card == len({r.item_values[0] for r in log.records})
        assert schema.fields[USER][1].name == "seg"

    def test_events_carry_node_indices_and_profiles(self):
        log = mk_log([(1, "u0", "a", "i0", "x", 1), (2, "u1", "b", "i0", "x", 0)])
        schema = build_schema(log, 4, 4)
        ids = encode_events(schema, log)
        assert ids[USER].dtype == ids[ITEM].dtype == np.int64
        assert tuple(ids[USER][0]) == profile_ids(schema, USER, ("u0", "a"))
        assert ids[ITEM][1, 0] == ids[ITEM][0, 0]
        assert tuple(ids[ITEM][0]) == profile_ids(schema, ITEM, ("i0", "x"))


def reference_windows(events, mode, k, positives_only=False):
    """Brute-force windows per event: (user-side item profiles, item-side user ids)."""
    n_train, _ = timeline_split(len(events))
    windows = []
    for e in events:
        seen = events[:n_train] if mode == "static" else [p for p in events if p.timestamp < e.timestamp]
        if positives_only:
            seen = [p for p in seen if p.label > 0]
        user_side = [p.item_ids for p in seen if p.user_ids[0] == e.user_ids[0]][-k:]
        item_side = [p.user_ids[0] for p in seen if p.item_ids[0] == e.item_ids[0]][-k:]
        windows.append((user_side, item_side))
    return windows


# Few timestamps (many ties) and more ids than a short log touches (cold nodes).
log_rows = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 6), st.integers(0, 8), st.integers(0, 1)),
    min_size=10,
    max_size=40,
).map(
    lambda rows: [
        (t, f"u{u}", f"s{u % 2}", f"i{i}", f"c{i % 3}", label)
        for t, u, i, label in sorted(rows, key=lambda r: r[0])
    ]
)


@settings(max_examples=60, deadline=None)
@given(log_rows, st.booleans())
def test_encoded_ids_match_per_field_global_ids(rows, half_vocab):
    log = mk_log(rows)
    # A schema from the first half leaves later values on the OOV ids.
    schema = build_schema(mk_log(rows[: len(rows) // 2]) if half_vocab else log, 4, 4)
    ids = encode_events(schema, log)
    assert ids[USER].shape == (len(rows), 2) and ids[ITEM].shape == (len(rows), 2)
    for rec, user_ids, item_ids in zip(log.records, ids[USER].tolist(), ids[ITEM].tolist(), strict=True):
        assert tuple(user_ids) == profile_ids(schema, USER, rec.user_values)
        assert tuple(item_ids) == profile_ids(schema, ITEM, rec.item_values)


def test_profile_arity_mismatch_rejected():
    schema = build_schema(mk_log(demo_rows(12)), 4, 4)
    one_user_field = {USER: ["uid"], ITEM: NAMES[ITEM]}
    short = InteractionLog.from_records(one_user_field, [RawInteraction(1, ("u0",), ("i0", "x"), 1.0)])
    with pytest.raises(DataError, match="profiles of 1 user and 2 item values for 2 user and 2 item schema fields"):
        encode_events(schema, short)


class TestLogFromRecords:
    """A log built in memory holds only what a file can say and the reader accepts."""

    def test_profile_arity_other_than_the_field_names_rejected(self):
        with pytest.raises(DataError, match=r"user profile \('u', 'x'\) has 2 values for the fields \['uid'\]"):
            InteractionLog.from_records({USER: ["uid"], ITEM: ["iid"]}, [RawInteraction(5, ("u", "x"), ("i",), 1.0)])

    def test_negative_timestamp_rejected(self):
        with pytest.raises(DataError, match="negative timestamp -3"):
            mk_log([(1, "u0", "a", "i0", "x", 1), (-3, "u1", "b", "i1", "y", 0)])

    @pytest.mark.parametrize("signal", [np.nan, np.inf, -np.inf])
    def test_non_finite_signal_rejected(self, signal):
        with pytest.raises(DataError, match="non-finite signal"):
            mk_log([(1, "u0", "a", "i0", "x", 1), (2, "u1", "b", "i1", "y", signal)])


class TestInstanceConstruction:
    def _prep(self, rows, mode="dynamic", k=10):
        args = build_args(mk_log(rows))
        return args, build_instances(*args, mode, k)

    def test_first_record_has_empty_windows(self):
        _, batch = self._prep(demo_rows(12))
        assert not batch.mask[USER][0].any()
        assert not batch.mask[ITEM][0].any()

    def test_second_record_by_same_user_sees_the_first_item(self):
        rows = [
            (1, "u0", "a", "i0", "x", 1),
            (2, "u0", "a", "i1", "y", 1),
        ] + demo_rows(10)[2:]
        (schema, *_), batch = self._prep(rows)
        assert batch.mask[USER][1].tolist()[:1] == [True]
        assert tuple(batch.nbrs[USER][1, 0]) == profile_ids(schema, ITEM, ("i0", "x"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dynamic_windows_never_see_the_future(self, seed):
        rng = np.random.default_rng(seed)
        rows = demo_rows(n=24, users=3, items=4, seed=seed)
        schema, timestamps, ids, labels = build_args(mk_log(rows))
        batch = build_instances(schema, timestamps, ids, labels, "dynamic", k=5)
        probe = int(rng.integers(len(rows)))
        # rebuild with everything after the probe deleted; its encoding
        # must not change
        head = {side: a[: probe + 1] for side, a in ids.items()}
        replay = build_instances(schema, timestamps[: probe + 1], head, labels[: probe + 1], "dynamic", k=5)
        for side in (USER, ITEM):
            assert np.array_equal(batch.nbrs[side][probe], replay.nbrs[side][probe])
            assert np.array_equal(batch.mask[side][probe], replay.mask[side][probe])

    def test_static_mode_serves_one_frozen_view(self):
        # user u0 interacts during the test period; dynamic test
        # instances see it, the static train-period view cannot
        rows = [(t, "u0", "a", f"i{t}", "x", 1) for t in range(1, 13)]
        args, dynamic = self._prep(rows, mode="dynamic", k=10)
        static = build_instances(*args, "static", k=10)
        assert dynamic.mask[USER][-1].sum() > static.mask[USER][-1].sum()
        # and the static window for the FIRST record already contains
        # train-period items (the deliberate contrast with dynamic)
        assert static.mask[USER][0].any()
        assert not dynamic.mask[USER][0].any()

    @settings(max_examples=80, deadline=None)
    @given(
        log_rows,
        st.sampled_from(["dynamic", "static"]),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
    )
    def test_windows_match_brute_force_reference(self, rows, mode, k, positives_only, half_vocab):
        log = mk_log(rows)
        # A schema from the first half leaves later newcomers on the shared OOV node.
        args = build_args(log, build_schema(mk_log(rows[: len(rows) // 2]), 4, 4) if half_vocab else None)
        batch = build_instances(*args, mode, k, positives_only)
        windows = reference_windows(events_of(*args[1:]), mode, k, positives_only)
        assert len(batch) == len(windows)
        for n, (user_side, item_side) in enumerate(windows):
            user_mask, item_mask = batch.mask[USER][n], batch.mask[ITEM][n]
            assert user_mask.tolist() == [True] * len(user_side) + [False] * (k - len(user_side))
            assert item_mask.tolist() == [True] * len(item_side) + [False] * (k - len(item_side))
            assert [tuple(ids) for ids in batch.nbrs[USER][n][user_mask].tolist()] == user_side
            assert batch.nbrs[ITEM][n][item_mask].tolist() == item_side

    @settings(max_examples=80, deadline=None)
    @given(
        log_rows,
        st.sampled_from(["dynamic", "static"]),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
    )
    def test_array_builder_equals_per_event_reference(self, rows, mode, k, positives_only, half_vocab):
        log = mk_log(rows)
        args = build_args(log, build_schema(mk_log(rows[: len(rows) // 2]), 4, 4) if half_vocab else None)
        assert_same_batch(
            build_instances(*args, mode, k, positives_only), reference_batch(*args, mode, k, positives_only)
        )

    def test_timestamps_beyond_int64_keep_their_order(self):
        rows = [(2**63 + t // 2, f"u{t % 3}", "a", f"i{t % 4}", "x", t % 2) for t in range(12)]
        args = build_args(mk_log(rows))
        assert_same_batch(build_instances(*args, "dynamic", 3), reference_batch(*args, "dynamic", 3))

    def test_unknown_mode_rejected(self):
        args = build_args(mk_log(demo_rows(12)))
        with pytest.raises(DataError, match="graph mode"):
            build_instances(*args, "frozen", k=5)


class TestGraphLogRoundTrip:
    def test_dump_and_reload_preserve_answers(self, tmp_path):
        log = mk_log(demo_rows(20))
        schema = build_schema(log, 4, 4)
        path = tmp_path / "dump.tsv"
        write_interactions(str(path), log)
        reloaded = read_interactions(str(path))
        for mode in ("dynamic", "static"):
            assert_same_batch(
                build_instances(*build_args(reloaded, schema), mode, 20),
                build_instances(*build_args(log, schema), mode, 20),
            )


class TestPrepareDataset:
    def test_split_sizes_and_degrees(self):
        log = mk_log(demo_rows(40))
        config = TrainConfig(user_embed_width=4, item_embed_width=4, max_neighbors=5).validate()
        data = prepare_dataset(log, config)
        assert (len(data.train), len(data.val), len(data.test)) == (32, 4, 4)
        # degrees: count each item's train interactions by hand
        want = {}
        for rec in log.records[:32]:
            want[rec.item_values[0]] = want.get(rec.item_values[0], 0) + 1
        for name, count in want.items():
            node = table_id(data.schema, ITEM, 0, name)
            assert data.item_degrees[node] == count
        assert data.degrees_for(data.test).shape == (4,)

    def test_foreign_schema_maps_unknowns_to_oov(self):
        base = mk_log(demo_rows(20))
        config = TrainConfig(user_embed_width=4, item_embed_width=4).validate()
        schema = build_schema(base, 4, 4)
        foreign = mk_log([(t, f"u{90 + t}", "znew", f"i{90 + t}", "cnew", 1) for t in range(1, 13)])
        data = prepare_dataset(foreign, config, schema=schema)
        oov_user = table_id(schema, USER, 0, "never-seen")
        assert np.all(data.train.ids[USER][:, 0] == oov_user)
        assert data.item_degrees.shape == (schema.node_count(ITEM),)

    def test_decreasing_timestamp_is_a_typed_error_before_any_window(self):
        # An in-memory log skips read_interactions' sort, so prepare checks the order itself.
        rows = demo_rows(2000)
        rows[1500] = (1, *rows[1500][1:])
        log = mk_log(rows)
        config = TrainConfig(user_embed_width=4, item_embed_width=4, max_neighbors=500).validate()
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="out-of-order timestamp 1 after 1500"):
                prepare_dataset(log, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The smallest window array, one side's (N, k) bool mask, would take N * k bytes.
        assert peak < len(rows) * config.max_neighbors

    @pytest.mark.parametrize("given_schema", [False, True], ids=["train", "eval"])
    def test_windows_are_bounded_before_they_are_built(self, monkeypatch, given_schema):
        # 6700 events x k 6700 x (2 item fields + 1 user id) = 134 670 000 ids > 2**27.
        # eval passes the checkpoint's schema and k; the bound holds there too.
        log = mk_log(demo_rows(6700))
        config = TrainConfig(user_embed_width=4, item_embed_width=4, max_neighbors=6700).validate()
        schema = build_schema(log, 4, 4) if given_schema else None

        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(data_mod, "encode_events", built)
        with pytest.raises(DataError, match="the windows would hold 134670000 ids, more than the 134217728 allowed"):
            prepare_dataset(log, config, schema=schema)
        monkeypatch.setattr(data_mod, "MAX_MODEL_SIZE", 134_670_000)  # exactly at the bound: allowed
        with pytest.raises(Built):
            prepare_dataset(log, config, schema=schema)
