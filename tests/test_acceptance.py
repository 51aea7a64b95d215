"""Acceptance suite: the package's headline guarantees, end to end.

Each test prints one PASS/FAIL line (visible with -s or on failure).
The tests are ordered cheapest-first except the gradient matrix, which
leads because everything downstream is meaningless if gradients are
wrong. Every training comparison uses fixed generator seeds and the
seed-derived determinism of the trainer, so the measured margins are
reproducible bit for bit.
"""

import copy
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pigat.cli import main as cli_main
from pigat.config import TrainConfig
from pigat.confidence import build_confidence
from pigat.data import prepare_dataset, write_interactions
from pigat.features import USER
from pigat.gradcheck import build_case, run_case, toy_config
from pigat.metrics import ScoredSet, auc, longtail_auc
from pigat.model import forward, predict
from pigat.synth import SynthSpec, generate
from pigat.train import train

_SUITE_START = time.perf_counter()
_SUITE_BUDGET_SECONDS = 600.0

CONFIDENCE_VARIANTS = ("none", "pe", "fce", "rce", "ce")
ATTENTION_KINDS = ("ffn-1", "ffn-2", "ffn-3", "dot", "scaled-dot")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_gradient_matrix_all_variant_pairs():
    # This process's CPU time, not wall time: other processes sharing the
    # CPUs stretch the wall time without this run doing more work.
    started = time.process_time()
    results = {
        (conf, att): max(
            run_case(TrainConfig(confidence=conf, attention=att), seed).max_rel_err for seed in range(20)
        )
        for conf in CONFIDENCE_VARIANTS
        for att in ATTENTION_KINDS
    }
    elapsed = time.process_time() - started
    worst = max(results.values())
    worst_pair = max(results, key=results.get)
    ok = worst < 1e-4 and elapsed < 120.0
    report(
        "gradient matrix (5 confidence x 5 attention, 20 points each)",
        ok,
        f"max rel err {worst:.3e} at {worst_pair} (< 1e-4), {elapsed:.1f} CPU s (< 120s)",
    )


def test_recency_surface_matches_closed_form():
    worst = 0.0
    for width in (8, 64, 128):
        for variant in ("fce", "ce"):
            rows = build_confidence(variant, 10, width)
            for live in range(1, 11):
                for slot in range(1, live + 1):
                    for i in range(1, width + 1):
                        expected = math.exp(slot - live - 1) * math.cos((i - 1) * math.pi / width)
                        worst = max(worst, abs(rows[live - 1, slot - 1, i - 1] - expected))
    report(
        "recency surface closed form (length <= 10, width in {8, 64, 128})",
        worst <= 1e-12,
        f"max abs deviation {worst:.2e} (<= 1e-12)",
    )


def _brute_force_auc(scores, labels) -> float:
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    credit = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                credit += 1.0
            elif p == n:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def test_auc_agrees_with_quadratic_brute_force():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        if trial % 2 == 0:
            scores = np.round(scores, 2)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] = 1 - labels[0]
        fast = auc(ScoredSet(scores, labels.astype(float), np.zeros(n)))
        slow = _brute_force_auc(scores.tolist(), labels.tolist())
        mismatches += fast != slow
    report(
        "ranking metric vs quadratic brute force (100 random sets, n <= 200)",
        mismatches == 0,
        f"{mismatches} mismatches out of 100 (exact equality required)",
    )


def _window_prob(confidence: str, perm) -> tuple[float, float]:
    """Probability for one instance before and after permuting its live
    user-window slots."""
    config = toy_config(TrainConfig(confidence=confidence, attention="ffn-2"))
    params, batch = build_case(config, seed=3)
    base = float(forward(params, batch).prob[0])
    shuffled = copy.deepcopy(batch)
    live = int(shuffled.mask[USER][0].sum())
    assert live == len(perm)
    shuffled.nbrs[USER][0, :live] = shuffled.nbrs[USER][0, :live][list(perm)]
    return base, float(forward(params, shuffled).prob[0])


def test_window_order_sensitivity():
    a, b = _window_prob("none", (2, 0, 3, 1))
    invariant = abs(a - b)
    c, d = _window_prob("fce", (2, 0, 3, 1))
    sensitive = abs(c - d)
    ok = invariant < 1e-10 and sensitive > 1e-6
    report(
        "window order: invariant without confidence, sensitive with it",
        ok,
        f"|delta| {invariant:.2e} (< 1e-10) without, {sensitive:.2e} (> 1e-6) with",
    )


def test_overfits_small_dataset():
    log, _ = generate(SynthSpec(users=40, items=80, events=320, exponent=1.0, seed=13))
    config = TrainConfig(
        epochs=500,
        batch_size=256,
        learning_rate=5e-3,
        max_neighbors=8,
        user_embed_width=16,
        item_embed_width=16,
        hidden_width=32,
        confidence="ce",
        attention="ffn-2",
        seed=0,
    )
    # This process's CPU time, not wall time: other processes sharing the
    # CPUs stretch the wall time several-fold without this run doing more work.
    started = time.process_time()
    data = prepare_dataset(log, config)
    assert len(data.train) == 256
    result = train(config, data)
    elapsed = time.process_time() - started
    best = min(st.train_loss for st in result.history)
    ok = best < 0.05 and elapsed < 60.0
    report(
        "memorizes 256 training instances",
        ok,
        f"best train loss {best:.2e} (< 0.05) within 500 epochs, {elapsed:.1f} CPU s (< 60s)",
    )


# Power-law interaction data: 200 users, 2000 items, 10k events. Three
# tastes per user make the liked set multi-modal, which is the regime
# where per-candidate attention has something real to select.
POWERLAW_SPEC = SynthSpec(
    users=200, items=2000, events=10000, tastes=3, exponent=1.2, scale=6.0, seed=42
)
POWERLAW_CONFIG = TrainConfig(
    epochs=20,
    batch_size=256,
    learning_rate=3e-3,
    max_neighbors=16,
    user_embed_width=8,
    item_embed_width=16,
    hidden_width=64,
    confidence="ce",
    attention="scaled-dot",
    include_negative_neighbors=False,
)

# Preference-drift data: 50 heavy users whose tastes move, so windows
# go stale between the training cutoff and the test period.
DRIFT_SPEC = SynthSpec(
    users=50, items=600, events=6000, exponent=1.0, scale=5.0, drift=0.04, seed=7
)
DRIFT_CONFIG = TrainConfig(
    epochs=12,
    batch_size=256,
    learning_rate=3e-3,
    max_neighbors=10,
    user_embed_width=8,
    item_embed_width=16,
    hidden_width=64,
    confidence="ce",
    attention="scaled-dot",
    confidence_in_pooling=False,
    include_negative_neighbors=False,
)

SEEDS = (0, 1, 2, 3, 4)


def _test_scored(config, data) -> ScoredSet:
    result = train(config, data)
    probs = predict(result.params, data.test)
    return ScoredSet(probs, data.test.labels, data.degrees_for(data.test))


@pytest.fixture(scope="module")
def powerlaw_runs():
    log, _ = generate(POWERLAW_SPEC)
    data = prepare_dataset(log, POWERLAW_CONFIG)  # encoding ignores pooling
    out = {}
    for pooling in ("attention", "average"):
        out[pooling] = [
            _test_scored(replace(POWERLAW_CONFIG, pooling=pooling, seed=s), data)
            for s in SEEDS
        ]
    return out


@pytest.fixture(scope="module")
def drift_runs():
    log, _ = generate(DRIFT_SPEC)
    datasets = {
        mode: prepare_dataset(log, replace(DRIFT_CONFIG, graph_mode=mode))
        for mode in ("dynamic", "static")
    }
    arms = {
        "dynamic/ce": replace(DRIFT_CONFIG, graph_mode="dynamic"),
        "static/ce": replace(DRIFT_CONFIG, graph_mode="static"),
        "dynamic/none": replace(DRIFT_CONFIG, graph_mode="dynamic", confidence="none"),
    }
    return {
        name: [_test_scored(replace(cfg, seed=s), datasets[cfg.graph_mode]) for s in SEEDS]
        for name, cfg in arms.items()
    }


def _mean_auc(scored_sets) -> float:
    return float(np.mean([auc(s) for s in scored_sets]))


def test_attention_beats_average_pooling(powerlaw_runs):
    att = _mean_auc(powerlaw_runs["attention"])
    avg = _mean_auc(powerlaw_runs["average"])
    report(
        "attention vs average pooling on power-law data (5 seeds)",
        att - avg >= 0.01,
        f"mean test AUC {att:.4f} vs {avg:.4f}, margin {att - avg:+.4f} (>= 0.01)",
    )


def test_dynamic_graph_beats_static_under_drift(drift_runs):
    dyn = _mean_auc(drift_runs["dynamic/ce"])
    sta = _mean_auc(drift_runs["static/ce"])
    report(
        "dynamic vs static graph on drifting data (5 seeds)",
        dyn > sta,
        f"mean test AUC {dyn:.4f} vs {sta:.4f}, margin {dyn - sta:+.4f} (> 0)",
    )


def test_confidence_does_not_hurt_under_drift(drift_runs):
    ce = _mean_auc(drift_runs["dynamic/ce"])
    none = _mean_auc(drift_runs["dynamic/none"])
    report(
        "recency confidence vs none on drifting data (5 seeds)",
        ce >= none,
        f"mean test AUC {ce:.4f} vs {none:.4f}, margin {ce - none:+.4f} (>= 0)",
    )


def test_longtail_slice_metric(powerlaw_runs):
    scored = powerlaw_runs["attention"][0]
    unlimited = longtail_auc(scored, float("inf"))
    rare_rows = int((scored.degrees <= 3).sum())
    lt3 = longtail_auc(scored, 3)
    ok = unlimited == auc(scored) and rare_rows > 0 and lt3 is not None and 0.0 <= lt3 <= 1.0
    report(
        "long-tail slice metric",
        ok,
        f"unlimited cutoff equals plain AUC exactly, k=3 slice has {rare_rows} rows, AUC {lt3}",
    )


def test_repeated_runs_are_byte_identical(tmp_path):
    log, _ = generate(SynthSpec(users=20, items=40, events=400, exponent=1.2, seed=5))
    data_path = tmp_path / "data.tsv"
    write_interactions(str(data_path), log)
    config_path = tmp_path / "config.txt"
    config_path.write_text(
        "epochs = 4\nbatch_size = 64\nmax_neighbors = 4\n"
        "user_embed_width = 4\nitem_embed_width = 4\nhidden_width = 8\n"
        "confidence = ce\nattention = ffn-2\ndropout = 0.1\nseed = 1\n"
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main([
            "train",
            "--config", str(config_path),
            "--data", str(data_path),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out)
    same_metrics = (outs[0] / "metrics.tsv").read_bytes() == (outs[1] / "metrics.tsv").read_bytes()
    same_model = (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
    report(
        "identical reruns produce identical bytes",
        same_metrics and same_model,
        f"metrics identical: {same_metrics}, checkpoint identical: {same_model}",
    )


def test_suite_stays_within_budget():
    elapsed = time.perf_counter() - _SUITE_START
    report(
        "whole suite runs offline within budget",
        elapsed < _SUITE_BUDGET_SECONDS,
        f"{elapsed:.1f}s (< {_SUITE_BUDGET_SECONDS:.0f}s), local data only, no network use",
    )
