"""Generator tests: determinism, popularity shape, label process, validation."""

import math

import numpy as np
import pytest

from pigat.data import RawInteraction, read_interactions, write_interactions
from pigat.errors import DataError
from pigat.features import ITEM, USER
from pigat.nn import sigmoid
from pigat.synth import (
    N_CLUSTERS,
    N_SEGMENTS,
    GroundTruth,
    SynthSpec,
    degree_summary,
    generate,
    read_synth_spec,
    write_latents,
)


def small_spec(**kw):
    base = dict(users=15, items=40, events=400, seed=11)
    base.update(kw)
    return SynthSpec(**base)


class TestDeterminism:
    def test_same_spec_same_records(self):
        log_a, _ = generate(small_spec())
        log_b, _ = generate(small_spec())
        assert log_a.records == log_b.records

    def test_same_spec_same_bytes(self, tmp_path):
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_interactions(str(pa), generate(small_spec())[0])
        write_interactions(str(pb), generate(small_spec())[0])
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_output(self):
        log_a, _ = generate(small_spec(seed=1))
        log_b, _ = generate(small_spec(seed=2))
        assert log_a.records != log_b.records

    def test_round_trip_through_file(self, tmp_path):
        log, _ = generate(small_spec())
        path = tmp_path / "log.tsv"
        write_interactions(str(path), log)
        back = read_interactions(str(path))
        assert [r.timestamp for r in back.records] == [r.timestamp for r in log.records]
        assert [r.item_values for r in back.records] == [r.item_values for r in log.records]


class TestShape:
    def test_timestamps_distinct_increasing(self):
        log, _ = generate(small_spec())
        stamps = [r.timestamp for r in log.records]
        assert stamps == list(range(1, len(stamps) + 1))

    def test_field_names(self):
        log, _ = generate(small_spec())
        assert log.field_names == {USER: ["uid", "seg"], ITEM: ["iid", "cat"]}

    def test_category_matches_cluster(self):
        log, truth = generate(small_spec())
        for rec in log.records:
            idx = int(rec.item_values[0][1:])
            assert rec.item_values[1] == f"c{truth.clusters[idx]}"

    def test_segment_consistent_per_user(self):
        log, truth = generate(small_spec())
        for rec in log.records:
            idx = int(rec.user_values[0][1:])
            assert rec.user_values[1] == f"s{truth.segments[idx]}"


def choice_generate(spec):
    """generate's records and latents as drawn with one rng.choice(items, p=popularity) per event."""
    rng = np.random.default_rng(spec.seed)
    d = spec.latent_dim
    s = np.sqrt(spec.scale / np.sqrt(d))
    users = rng.standard_normal((spec.users, spec.tastes, d)) * s
    centers = rng.standard_normal((N_CLUSTERS, d)) * s
    clusters = rng.integers(N_CLUSTERS, size=spec.items)
    items = 0.6 * centers[clusters] + 0.8 * rng.standard_normal((spec.items, d)) * s
    segments = rng.integers(N_SEGMENTS, size=spec.users)
    popularity = np.arange(1, spec.items + 1, dtype=np.float64) ** -spec.exponent
    popularity /= popularity.sum()
    initial_users = users.copy()
    keep, stir = np.sqrt(1.0 - spec.drift), np.sqrt(spec.drift)
    records = []
    for t in range(1, spec.events + 1):
        u = int(rng.integers(spec.users))
        if rng.random() < spec.noise:
            i = int(rng.integers(spec.items))
            label = int(rng.integers(2))
        else:
            i = int(rng.choice(spec.items, p=popularity))
            label = int(rng.random() < sigmoid(float(np.max(users[u] @ items[i]))))
        records.append(RawInteraction(t, (f"u{u}", f"s{segments[u]}"), (f"i{i}", f"c{clusters[i]}"), float(label)))
        if spec.drift > 0.0:
            users[u] = keep * users[u] + stir * rng.standard_normal((spec.tastes, d)) * s
    return records, GroundTruth(initial_users, users, items, clusters, segments)


@pytest.mark.parametrize(
    "kw",
    [
        dict(),
        dict(exponent=0.0),
        dict(exponent=1.2, noise=0.3),
        dict(drift=0.1, tastes=3),
        dict(items=2, exponent=1.2, noise=0.3, drift=0.1, tastes=3),
    ],
)
def test_generate_draws_the_items_rng_choice_draws(kw):
    spec = small_spec(**kw)
    log, truth = generate(spec)
    records, want = choice_generate(spec)
    assert log.records == records
    assert log.signals.tobytes() == np.array([r.signal for r in records]).tobytes()
    for name in ("initial_users", "final_users", "items", "clusters", "segments"):
        assert getattr(truth, name).tobytes() == getattr(want, name).tobytes(), name


class TestPopularity:
    def test_steep_exponent_concentrates_mass(self):
        log, _ = generate(small_spec(items=100, events=2000, exponent=2.0))
        counts = {}
        for rec in log.records:
            counts[rec.item_values[0]] = counts.get(rec.item_values[0], 0) + 1
        # with exponent 2 the single most popular item draws ~60% of mass
        assert max(counts.values()) > 0.3 * len(log.records)

    def test_flat_exponent_spreads_mass(self):
        log, _ = generate(small_spec(items=100, events=2000, exponent=0.0))
        counts = {}
        for rec in log.records:
            counts[rec.item_values[0]] = counts.get(rec.item_values[0], 0) + 1
        assert max(counts.values()) < 0.05 * len(log.records)

    def test_degree_summary_matches_recount(self):
        spec = small_spec(items=60, events=500, exponent=1.5)
        log, _ = generate(spec)
        summary = degree_summary(log, spec.items)
        counts = {}
        for rec in log.records:
            counts[rec.item_values[0]] = counts.get(rec.item_values[0], 0) + 1
        tail = sum(1 for c in counts.values() if c <= 3) + (spec.items - len(counts))
        assert summary["longtail_fraction"] == tail / spec.items
        assert summary["events"] == 500
        assert summary["items_seen"] == len(counts)

    def test_summary_rejects_impossible_item_count(self):
        log, _ = generate(small_spec())
        with pytest.raises(DataError):
            degree_summary(log, total_items=2)


class TestLabelProcess:
    def test_labels_follow_latent_affinity(self):
        # drift 0 keeps user latents fixed, so the dot product at any
        # time is the dot product at generation time
        spec = small_spec(users=30, items=60, events=3000, drift=0.0, scale=4.0)
        log, truth = generate(spec)
        hi, lo = [], []
        for rec in log.records:
            u = int(rec.user_values[0][1:])
            i = int(rec.item_values[0][1:])
            dot = float(np.max(truth.final_users[u] @ truth.items[i]))
            if dot > 1.0:
                hi.append(rec.signal)
            elif dot < -1.0:
                lo.append(rec.signal)
        assert len(hi) > 30 and len(lo) > 30
        assert np.mean(hi) > 0.7
        assert np.mean(lo) < 0.3

    def test_noise_randomizes_labels(self):
        spec = small_spec(users=30, items=60, events=3000, noise=1.0 - 1e-9, scale=4.0)
        log, truth = generate(spec)
        agree = 0
        for rec in log.records:
            u = int(rec.user_values[0][1:])
            i = int(rec.item_values[0][1:])
            predicted = float(np.max(truth.final_users[u] @ truth.items[i])) > 0
            agree += predicted == (rec.signal > 0.5)
        # coin-flip labels agree with the latent sign about half the time
        assert 0.4 < agree / len(log.records) < 0.6

    def test_signals_are_binary(self):
        log, _ = generate(small_spec())
        assert set(r.signal for r in log.records) <= {0.0, 1.0}


class TestDrift:
    def test_zero_drift_keeps_users_fixed(self):
        _, truth = generate(small_spec(drift=0.0))
        np.testing.assert_array_equal(truth.initial_users, truth.final_users)

    def test_positive_drift_moves_acting_users(self):
        log, truth = generate(small_spec(drift=0.4))
        actors = {int(r.user_values[0][1:]) for r in log.records}
        moved = [u for u in actors if not np.array_equal(truth.initial_users[u], truth.final_users[u])]
        assert len(moved) == len(actors)

    def test_drift_preserves_scale(self):
        # sqrt(1-d), sqrt(d) mixing keeps the stationary variance, so
        # latents do not blow up over many events
        spec = small_spec(users=5, events=2000, drift=0.5, scale=3.0)
        _, truth = generate(spec)
        rms_before = float(np.sqrt((truth.initial_users**2).mean()))
        rms_after = float(np.sqrt((truth.final_users**2).mean()))
        assert 0.5 < rms_after / rms_before < 2.0


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(users=1),
            dict(items=1),
            dict(events=9),
            dict(latent_dim=0),
            dict(tastes=0),
            dict(drift=-0.1),
            dict(drift=1.5),
            dict(exponent=-1.0),
            dict(scale=0.0),
            dict(noise=1.0),
            dict(noise=-0.2),
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(DataError):
            small_spec(**kw).validate()

    def test_boundary_values_accepted(self):
        small_spec(drift=0.0).validate()
        small_spec(drift=1.0).validate()
        small_spec(exponent=0.0).validate()
        small_spec(events=10).validate()


class TestSpecFile:
    def test_read_round_trip(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("users = 12\nitems = 30\nevents = 100\ndrift = 0.25\nseed = 4\n")
        spec = read_synth_spec(str(path))
        assert spec == SynthSpec(users=12, items=30, events=100, drift=0.25, seed=4)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("users = 12\nitems = 30\nevents = 100\nwhat = 1\n")
        with pytest.raises(DataError, match="unknown"):
            read_synth_spec(str(path))

    def test_missing_required(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("users = 12\nitems = 30\n")
        with pytest.raises(DataError, match="missing"):
            read_synth_spec(str(path))

    def test_bad_type(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("users = twelve\nitems = 30\nevents = 100\n")
        with pytest.raises(DataError, match="expects"):
            read_synth_spec(str(path))

    @pytest.mark.parametrize("key", ["users", "items", "latent_dim"])
    def test_oversized_latents_rejected_before_any_allocation(self, tmp_path, key):
        pairs = {"users": "12", "items": "30", "events": "100", "tastes": "2", key: "100000000000"}
        path = tmp_path / "spec.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        with pytest.raises(DataError, match="latents would hold"):
            read_synth_spec(str(path))


    def test_oversized_event_count_rejected_before_any_allocation(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("users = 20\nitems = 40\nevents = 100000000\n")
        with pytest.raises(DataError, match="100000000 events are more than the 44739242"):
            read_synth_spec(str(path))
        path.write_text("users = 20\nitems = 40\nevents = 44739242\n")  # the largest preparable log
        assert read_synth_spec(str(path)).events == 44_739_242


class TestLatentsFile:
    def test_dump_layout(self, tmp_path):
        spec = small_spec(users=4, items=6)
        _, truth = generate(spec)
        path = tmp_path / "latents.tsv"
        write_latents(str(path), truth)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * spec.users + spec.items
        part, name, stage, coords = lines[0].split("\t")
        assert (part, name, stage) == ("user", "u0", "initial")
        vec = [float(x) for x in coords.split(",")]
        np.testing.assert_allclose(vec, truth.initial_users[0].reshape(-1), rtol=0, atol=0)
