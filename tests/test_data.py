"""Log parsing, splits, and leakage-free instance construction."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pigat.config import TrainConfig
from pigat.data import (
    InteractionLog,
    RawInteraction,
    build_instances,
    build_schema,
    derive_labels,
    encode_events,
    prepare_dataset,
    read_interactions,
    rebuild_graph,
    timeline_split,
    write_interactions,
)
from pigat.errors import DataError
from pigat.graph import ITEM, USER


def mk_record(ts, uid, seg, iid, cat, signal):
    return RawInteraction(ts, (uid, seg), (iid, cat), float(signal))


def mk_log(rows):
    return InteractionLog(
        ["uid", "seg"],
        ["iid", "cat"],
        [mk_record(*row) for row in rows],
    )


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
        assert back.user_field_names == log.user_field_names
        assert back.item_field_names == log.item_field_names
        for ours, theirs in zip(log.records, back.records):
            assert (ours.timestamp, ours.user_values, ours.item_values, ours.signal) == (
                theirs.timestamp,
                theirs.user_values,
                theirs.item_values,
                theirs.signal,
            )
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
        names = log.user_field_names + log.item_field_names
        names[pos % len(names)] = name
        cut = len(log.user_field_names)
        log = InteractionLog(names[:cut], names[cut:], log.records)
    echoed = tmp_path / "echoed.tsv"
    try:
        write_interactions(str(echoed), log)
    except DataError:
        assert rename is not None and set("\t;\r\n=") & set(rename[1])
        return
    assert read_interactions(str(echoed)) == log


class TestLabels:
    def test_ratings_above_three_are_positive(self):
        labels = derive_labels([mk_record(1, "u", "a", "i", "x", s) for s in (5, 3, 1)])
        assert labels.tolist() == [1.0, 0.0, 0.0]

    def test_binary_signals_pass_through(self):
        labels = derive_labels([mk_record(1, "u", "a", "i", "x", s) for s in (0, 1, 1)])
        assert labels.tolist() == [0.0, 1.0, 1.0]

    def test_mixed_signals_use_the_rating_rule(self):
        labels = derive_labels([mk_record(1, "u", "a", "i", "x", s) for s in (0, 1, 5)])
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
        assert schema.user_fields[0].card == len({r.user_values[0] for r in log.records})
        assert schema.item_fields[0].card == len({r.item_values[0] for r in log.records})
        assert schema.user_fields[1].name == "seg"

    def test_events_carry_node_indices_and_profiles(self):
        log = mk_log([(1, "u0", "a", "i0", "x", 1), (2, "u1", "b", "i0", "x", 0)])
        schema = build_schema(log, 4, 4)
        labels = derive_labels(log.records)
        events = encode_events(schema, log.records, labels)
        assert events[0].user_ids == schema.encode_profile(USER, ("u0", "a"))
        assert events[1].item_ids[0] == events[0].item_ids[0]
        assert events[0].item_ids == schema.encode_profile(ITEM, ("i0", "x"))
        assert events[1].label == 0


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


class TestInstanceConstruction:
    def _prep(self, rows, mode="dynamic", k=10):
        log = mk_log(rows)
        schema = build_schema(log, 4, 4)
        labels = derive_labels(log.records)
        events = encode_events(schema, log.records, labels)
        return schema, events, build_instances(schema, events, mode, k)

    def test_first_record_has_empty_windows(self):
        _, _, instances = self._prep(demo_rows(12))
        assert not instances[0].user_mask.any()
        assert not instances[0].item_mask.any()

    def test_second_record_by_same_user_sees_the_first_item(self):
        rows = [
            (1, "u0", "a", "i0", "x", 1),
            (2, "u0", "a", "i1", "y", 1),
        ] + demo_rows(10)[2:]
        schema, _, instances = self._prep(rows)
        inst = instances[1]
        assert inst.user_mask.tolist()[:1] == [True]
        assert tuple(inst.user_nbrs[0]) == schema.encode_profile(ITEM, ("i0", "x"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dynamic_windows_never_see_the_future(self, seed):
        rng = np.random.default_rng(seed)
        rows = demo_rows(n=24, users=3, items=4, seed=seed)
        log = mk_log(rows)
        schema = build_schema(log, 4, 4)
        labels = derive_labels(log.records)
        events = encode_events(schema, log.records, labels)
        instances = build_instances(schema, events, "dynamic", k=5)
        probe = int(rng.integers(len(events)))
        # rebuild with everything after the probe deleted; its encoding
        # must not change
        replay = build_instances(schema, events[: probe + 1], "dynamic", k=5)
        a, b = instances[probe], replay[probe]
        assert np.array_equal(a.user_nbrs, b.user_nbrs)
        assert np.array_equal(a.user_mask, b.user_mask)
        assert np.array_equal(a.item_nbrs, b.item_nbrs)
        assert np.array_equal(a.item_mask, b.item_mask)

    def test_static_mode_serves_one_frozen_view(self):
        # user u0 interacts during the test period; dynamic test
        # instances see it, the static train-period graph cannot
        rows = [(t, "u0", "a", f"i{t}", "x", 1) for t in range(1, 13)]
        schema, events, dynamic = self._prep(rows, mode="dynamic", k=10)
        static = build_instances(schema, events, "static", k=10)
        last_dyn, last_sta = dynamic[-1], static[-1]
        assert last_dyn.user_mask.sum() > last_sta.user_mask.sum()
        # and the static window for the FIRST record already contains
        # train-period items (the deliberate contrast with dynamic)
        assert static[0].user_mask.any()
        assert not dynamic[0].user_mask.any()

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
        schema = build_schema(mk_log(rows[: len(rows) // 2]) if half_vocab else log, 4, 4)
        labels = derive_labels(log.records)
        events = encode_events(schema, log.records, labels)
        instances = build_instances(schema, events, mode, k, positives_only)
        for inst, (user_side, item_side) in zip(
            instances, reference_windows(events, mode, k, positives_only), strict=True
        ):
            assert inst.user_mask.tolist() == [True] * len(user_side) + [False] * (k - len(user_side))
            assert inst.item_mask.tolist() == [True] * len(item_side) + [False] * (k - len(item_side))
            assert [tuple(ids) for ids in inst.user_nbrs[inst.user_mask].tolist()] == user_side
            assert inst.item_nbrs[inst.item_mask].tolist() == item_side

    def test_unknown_mode_rejected(self):
        log = mk_log(demo_rows(12))
        schema = build_schema(log, 4, 4)
        labels = derive_labels(log.records)
        events = encode_events(schema, log.records, labels)
        with pytest.raises(DataError, match="graph mode"):
            build_instances(schema, events, "frozen", k=5)


class TestGraphLogRoundTrip:
    def test_dump_and_reload_preserve_answers(self, tmp_path):
        log = mk_log(demo_rows(20))
        schema = build_schema(log, 4, 4)
        labels = derive_labels(log.records)
        graph = rebuild_graph(schema, encode_events(schema, log.records, labels))

        path = tmp_path / "dump.tsv"
        write_interactions(str(path), log)
        reloaded = read_interactions(str(path))
        labels2 = derive_labels(reloaded.records)
        graph2 = rebuild_graph(schema, encode_events(schema, reloaded.records, labels2))

        for part in (USER, ITEM):
            for idx in range(schema.node_count(part)):
                assert graph.neighbor_events(part, idx) == graph2.neighbor_events(part, idx)


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
            node = data.schema.global_id(ITEM, 0, name)
            assert data.item_degrees[node] == count
        assert data.degrees_for(data.test).shape == (4,)

    def test_foreign_schema_maps_unknowns_to_oov(self):
        base = mk_log(demo_rows(20))
        config = TrainConfig(user_embed_width=4, item_embed_width=4).validate()
        schema = build_schema(base, 4, 4)
        foreign = mk_log([(t, f"u{90 + t}", "znew", f"i{90 + t}", "cnew", 1) for t in range(1, 13)])
        data = prepare_dataset(foreign, config, schema=schema)
        oov_user = schema.global_id(USER, 0, "never-seen")
        assert np.all(data.train.user_ids[:, 0] == oov_user)
        assert data.item_degrees.shape == (schema.node_count(ITEM),)
