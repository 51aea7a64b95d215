"""Workloads, the measured pipeline and its correctness checks.

One pass runs pigat from outside, as `pigat train` followed by `pigat
eval` would: read_interactions -> prepare_dataset -> train ->
save_checkpoint -> predict over every prepared instance in chunks of the
config's batch_size. Every workload is an offline batch job: a closed
loop with one caller and no arrival rate. The interaction log comes from
pigat's own generator, seeded by the benchmark's --seed; generating it is
not timed.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from pigat import data as pdata
from pigat import model as pmodel
from pigat import train as ptrain
from pigat.config import TrainConfig
from pigat.metrics import ScoredSet, auc
from pigat.synth import SynthSpec, generate
from tracer import LAYER_METRICS, Probe, Tracer, layer_metrics

MIN_PASSES = 3  # setup_s is a median over at least this many passes

# Shared by every workload unless it overrides a key.
BASE_CONFIG = dict(
    learning_rate=0.003,
    user_embed_width=8,
    item_embed_width=16,
    hidden_width=64,
    confidence="ce",
    max_neighbors=10,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict  # SynthSpec fields except the seed
    config: dict  # TrainConfig fields except the seed, on top of BASE_CONFIG
    # Scoring sweeps over all instances per pass; a fixed count keeps the
    # work of a pass the same whatever the machine's speed.
    score_sweeps: int = 1

    def synth_spec(self, seed: int) -> SynthSpec:
        return SynthSpec(seed=seed, **self.spec)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **{**BASE_CONFIG, **self.config}).validate()


# Sizes are set so that one pass takes a few seconds on a 2-core box;
# README.md in this directory says what each workload is for.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ffn3-dense",
            "ffn-3 heads on a dense, drifting log: attention forward and backward dominate training",
            dict(users=300, items=3000, events=16000, tastes=2, drift=0.02, exponent=1.2, scale=5.0),
            dict(attention="ffn-3", batch_size=256, epochs=2),
        ),
        Workload(
            "positive-windows",
            "positives-only windows over popular items: window extraction dominates setup, heads are cheap",
            dict(users=2000, items=20000, events=8000, exponent=1.2, scale=5.0),
            dict(attention="scaled-dot", include_negative_neighbors=False, batch_size=256, epochs=6),
            score_sweeps=8,
        ),
        Workload(
            "wide-catalog",
            "large sparse embedding tables and small batches: dense Adam dominates training",
            dict(users=20000, items=20000, events=16000, exponent=0.5, scale=5.0),
            dict(
                attention="scaled-dot",
                include_negative_neighbors=False,
                batch_size=64,
                epochs=1,
                user_embed_width=16,
                item_embed_width=32,
            ),
            score_sweeps=3,
        ),
    )
}


@dataclass
class PassResult:
    """Timings, operation counts and outputs of one pipeline pass."""

    setup_s: float = math.nan
    train_s: float = math.nan
    wall_s: float = math.nan
    train_events: int = 0  # n_train x epochs
    steps: int = 0
    scored: int = 0
    failed: int = 0
    step_rates: list[float] = field(default_factory=list)  # instances/s of each timed train step
    chunk_rates: list[float] = field(default_factory=list)  # instances/s of each full scoring chunk
    test_auc: float | None = None
    checkpoint: bytes | None = None
    scores: np.ndarray | None = None
    problems: list[str] = field(default_factory=list)


def brute_force_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Pairwise definition: count every (positive, negative) pair, ties half."""
    pos = scores[labels == 1.0]
    neg = scores[labels == 0.0]
    twice_credit = 0
    for chunk in np.array_split(pos, max(1, len(pos) // 512)):
        twice_credit += 2 * int(np.count_nonzero(chunk[:, None] > neg[None, :]))
        twice_credit += int(np.count_nonzero(chunk[:, None] == neg[None, :]))
    return (twice_credit / 2.0) / (len(pos) * len(neg))


# The only probe of an untraced pass: one clock reading per train step.
STEP_CLOCK = (Probe("pigat.train:adam_step", "nn.adam_step"),)


def step_rates(ends: list[float], n_train: int, batch_size: int, epochs: int) -> list[float]:
    """Instances per second of each train step, from the times its Adam update returned.

    The first step of an epoch is skipped: its interval also holds the
    previous epoch's validation pass. An unexpected count of clock
    readings (the probe is absent) yields no rates.
    """
    per_epoch = math.ceil(n_train / batch_size)
    if len(ends) != per_epoch * epochs:
        return []
    rates = []
    for epoch in range(epochs):
        for j in range(1, per_epoch):
            i = epoch * per_epoch + j
            rates.append(min(batch_size, n_train - j * batch_size) / (ends[i] - ends[i - 1]))
    return rates


def run_pass(workload: Workload, seed: int, log_path: str, ckpt_path: str, tracer: Tracer) -> PassResult:
    """One full pipeline pass under an installed tracer, which brackets each stage."""
    spec, config = workload.synth_spec(seed), workload.train_config(seed)
    out = PassResult()
    started = time.perf_counter()
    with tracer.span("data.read_interactions"):
        log = pdata.read_interactions(log_path)
    with tracer.span("data.prepare_dataset"):
        data = pdata.prepare_dataset(log, config)
    setup_done = time.perf_counter()
    out.setup_s = setup_done - started
    if len(log.records) != spec.events:
        out.problems.append(f"log holds {len(log.records)} events, generator asked for {spec.events}")

    n_train = len(data.train)
    out.train_events = n_train * config.epochs
    out.steps = config.epochs * math.ceil(n_train / config.batch_size)
    first_span = len(tracer.spans)
    try:
        with tracer.span("train.train"):
            result = ptrain.train(config, data)
    except Exception:
        # The whole training call is lost, so all its steps count as failed.
        out.failed += out.steps
        out.problems.append("train raised:\n" + traceback.format_exc())
        out.wall_s = time.perf_counter() - started
        return out
    train_done = time.perf_counter()
    out.train_s = train_done - setup_done
    ends = [s[2] for s in tracer.spans[first_span:] if s[0] == "nn.adam_step"]
    out.step_rates = step_rates(ends, n_train, config.batch_size, config.epochs)

    with tracer.span("model.save_checkpoint"):
        pmodel.save_checkpoint(
            ckpt_path,
            result.params,
            extra={"best_epoch": result.best_epoch, "best_val_auc": result.best_val_auc},
        )

    sweeps = []
    with tracer.span("score"):
        for _ in range(workload.score_sweeps):
            chunks = []
            for split in (data.train, data.val, data.test):
                for start in range(0, len(split), config.batch_size):
                    idx = np.arange(start, min(start + config.batch_size, len(split)))
                    t = time.perf_counter()
                    chunks.append(pmodel.predict(result.params, split.take(idx)))
                    if len(idx) == config.batch_size:
                        out.chunk_rates.append(len(idx) / (time.perf_counter() - t))
            sweeps.append(np.concatenate(chunks))
    out.wall_s = time.perf_counter() - started
    out.scores = sweeps[0]
    out.scored = sum(len(s) for s in sweeps)
    if any(not np.array_equal(s, out.scores) for s in sweeps[1:]):
        out.problems.append("repeated scoring sweeps disagree")

    with open(ckpt_path, "rb") as fh:
        out.checkpoint = fh.read()
    clamp = pmodel.PROB_CLAMP
    bad = ~np.isfinite(out.scores) | (out.scores < clamp) | (out.scores > 1.0 - clamp)
    out.failed += int(np.count_nonzero(bad)) * workload.score_sweeps
    if bad.any():
        out.problems.append(f"{int(bad.sum())} scores are not finite or leave [{clamp}, 1-{clamp}]")
        return out

    test = out.scores[len(out.scores) - len(data.test) :]
    labels = data.test.labels
    out.test_auc = auc(ScoredSet(test, labels, data.degrees_for(data.test)))
    reference = brute_force_auc(test, labels)
    if out.test_auc != reference:
        out.problems.append(f"metrics.auc {out.test_auc!r} != brute-force pairwise {reference!r}")
    return out


def same_outputs(a: PassResult, b: PassResult) -> list[str]:
    """Reproducibility check between two passes of the same seed."""
    problems = []
    if a.checkpoint != b.checkpoint:
        problems.append("checkpoint bytes differ between passes")
    if a.scores is None or b.scores is None or not np.array_equal(a.scores, b.scores):
        problems.append("scores differ between passes")
    if a.test_auc != b.test_auc:
        problems.append(f"test_auc differs between passes: {a.test_auc!r} vs {b.test_auc!r}")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def blas_library() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def machine_facts(loadavg: tuple[float, float, float], blas_threads: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_library(),
        "blas_threads": blas_threads,
        "loadavg_start": list(loadavg),
    }


def generate_log(workload: Workload, seed: int, path: str) -> None:
    log, _ = generate(workload.synth_spec(seed))
    pdata.write_interactions(path, log)


def measure(workload: Workload, seed: int, seconds: float, workdir: str) -> tuple[list[PassResult], list[str]]:
    """Untraced passes for `seconds`, at least MIN_PASSES of them.

    A pass is not started when the longest pass so far would carry it past
    the deadline, so a run lasts about `seconds` plus generating the log.
    """
    log_path = os.path.join(workdir, "log.tsv")
    ckpt_path = os.path.join(workdir, "checkpoint.bin")
    generate_log(workload, seed, log_path)
    passes: list[PassResult] = []
    problems: list[str] = []
    started = time.perf_counter()
    longest = 0.0
    with Tracer(STEP_CLOCK) as clock:
        while len(passes) < MIN_PASSES or time.perf_counter() - started + longest <= seconds:
            gc.collect()
            p = run_pass(workload, seed, log_path, ckpt_path, clock)
            passes.append(p)
            longest = max(longest, p.wall_s)
            problems += p.problems
            if p.scores is None:
                break  # training failed; repeating it measures nothing new
            if len(passes) > 1:
                problems += same_outputs(passes[0], p)
    return passes, problems


def end_to_end(passes: list[PassResult]) -> dict[str, float]:
    """The end-to-end metrics over a run's passes.

    setup_s is the median pass. The throughputs are the best rate of any
    train step or full scoring chunk in the run: on a shared host the
    machine's speed wanders by tens of percent within seconds, and only the
    fastest of many short samples repeats from run to run (README.md).
    """
    ok = [p for p in passes if p.scores is not None]
    attempted = sum(p.steps + p.scored for p in passes)
    failed = sum(p.failed for p in passes)
    step_rates = [r for p in ok for r in p.step_rates] or [p.train_events / p.train_s for p in ok]
    chunk_rates = [r for p in ok for r in p.chunk_rates]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "train_events_per_s": max(step_rates, default=math.nan),
        "score_events_per_s": max(chunk_rates, default=math.nan),
        "peak_rss_mb": peak_rss_mb(),
        "test_auc": ok[0].test_auc if ok and ok[0].test_auc is not None else math.nan,
        "ok_frac": 1.0 - failed / attempted if attempted else math.nan,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_events_per_s": "events/s",
    "score_events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "test_auc": "1",
    "ok_frac": "1",
}


def traced(workload: Workload, seed: int, workdir: str, spans_path: str):
    """An untraced warm-up pass, a traced pass, then an untraced pass.

    Returns (layer metrics, absent probe targets, passes, problems). The
    traced pass must reproduce the untraced ones byte for byte; its wall
    time over the last untraced pass's, both warm, gives the overhead.
    """
    log_path = os.path.join(workdir, "log.tsv")
    ckpt_path = os.path.join(workdir, "checkpoint.bin")
    generate_log(workload, seed, log_path)
    gc.collect()
    with Tracer(()) as untraced:
        warm = run_pass(workload, seed, log_path, ckpt_path, untraced)
    gc.collect()
    with Tracer() as tracer:
        traced_pass = run_pass(workload, seed, log_path, ckpt_path, tracer)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer)
    gc.collect()
    with Tracer(()) as untraced:
        plain = run_pass(workload, seed, log_path, ckpt_path, untraced)
    passes = [warm, traced_pass, plain]
    problems = [p for run in passes for p in run.problems]
    problems += same_outputs(warm, traced_pass) + same_outputs(warm, plain)
    metrics["trace.overhead_frac"] = traced_pass.wall_s / plain.wall_s - 1.0
    return metrics, tracer.absent, passes, problems


LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
LAYER_UNITS["trace.overhead_frac"] = "1"
