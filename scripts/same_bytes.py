#!/usr/bin/env python3
"""Check that two checkouts train and score byte-identically.

    python3 scripts/same_bytes.py PARENT_DIR CHANGE_DIR

Each checkout runs in its own subprocess (this script with --worker), which
imports pigat from the checkout's src/ and the benchmark workloads from its
perfbench/bench.py. Per case the worker trains, saves the checkpoint,
reloads it and scores every prepared instance (train, val, test) with the
reloaded model, then prints one JSON line with the SHA-256 of the log
file the checkout's generator writes, of the prepared arrays, of the
checkpoint bytes and of the scores, the scores themselves and the test
AUC. The log digest reads only the file that `synth.generate` and
`data.write_interactions` produce, which every checkout has. The cases:

- each perfbench workload, its spec and config as that checkout defines
  them, with seeds 5 and 2;
- a small synthetic log under every confidence variant x attention kind x
  pooling, plus, with ffn-3 and with scaled-dot heads, user_query_only,
  l2 > 0, dropout, confidence_in_pooling = false, static graphs and
  positives-only windows.

One line is printed per case, and the exit status is 1 if any case
differs or is missing on one side. A case that differs also prints both
sides' test AUC and the largest absolute score difference, so a change
that moves bytes shows how far its results moved.

A third worker runs the change checkout's ffn-3 cases again with its own
process pinned to one CPU (os.sched_setaffinity, where the OS has it), so
its attention heads run one after another on one thread. One more line per
such case, "<case> on one CPU", compares it with the all-CPU run of the
change: threaded and sequential heads must give the same bytes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import sys
import tempfile

from checkouts import require_checkout_pigat, start_worker

SEEDS = (5, 2)
# The keys of a worker's line compared between runs.
DIGESTS = ("log bytes", "prepared arrays", "checkpoint bytes", "scores")
VARIANTS = ("none", "pe", "fce", "rce", "ce")
KINDS = ("ffn-1", "ffn-2", "ffn-3", "dot", "scaled-dot")
POOLINGS = ("attention", "average")
SMALL_SPEC = dict(users=40, items=120, events=600, drift=0.02, seed=5)
# Unequal widths, so dot heads project some queries and not others.
SMALL_CONFIG = dict(
    max_neighbors=4, user_embed_width=4, item_embed_width=6, hidden_width=8, batch_size=64, epochs=2, seed=5
)
# Each single knob runs with an ffn head, which scores every window row, and
# with a dot head, whose window work runs only on rows with a live slot.
KNOB_KINDS = ("ffn-3", "scaled-dot")
SINGLE_KNOBS = (
    dict(user_query_only=True),
    dict(l2=0.01),
    dict(dropout=0.3),
    dict(confidence_in_pooling=False),
    dict(graph_mode="static"),
    dict(include_negative_neighbors=False),
)


def cases(bench) -> list[tuple[str, dict, dict]]:
    """(name, SynthSpec fields, TrainConfig fields) of every case."""
    out = []
    for name, workload in bench.WORKLOADS.items():
        for seed in SEEDS:
            spec, config = workload.synth_spec(seed), workload.train_config(seed)
            out.append((f"{name}/seed{seed}", vars(spec), vars(config)))
    for variant in VARIANTS:
        for kind in KINDS:
            for pooling in POOLINGS:
                knobs = dict(confidence=variant, attention=kind, pooling=pooling)
                out.append((f"small/{variant}/{kind}/{pooling}", SMALL_SPEC, {**SMALL_CONFIG, **knobs}))
    for kind in KNOB_KINDS:
        for knob in SINGLE_KNOBS:
            label = ",".join(f"{k}={v}" for k, v in knob.items())
            knobs = dict(confidence="ce", attention=kind, **knob)
            out.append((f"small/ce/{kind}/{label}", SMALL_SPEC, {**SMALL_CONFIG, **knobs}))
    return out


def prepared_digest(prepared) -> str:
    """SHA-256 over every split's ids/nbrs/mask per side and labels, then item_degrees: dtype, shape, bytes."""
    arrays = []
    for split in (prepared.train, prepared.val, prepared.test):
        for by_side in (split.ids, split.nbrs, split.mask):
            arrays += [by_side[side] for side in sorted(by_side)]
        arrays.append(split.labels)
    digest = hashlib.sha256()
    for a in arrays + [prepared.item_degrees]:
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def run_case(spec: dict, config: dict, workdir: str) -> dict:
    """Train as perfbench does, reload the checkpoint and score every instance with it."""
    # Imported here: only a worker has a checkout's src/ on its path.
    import numpy as np

    from pigat import data, model, train
    from pigat.config import TrainConfig
    from pigat.metrics import ScoredSet, auc
    from pigat.synth import SynthSpec, generate

    log_path, ckpt_path = os.path.join(workdir, "log.tsv"), os.path.join(workdir, "checkpoint.bin")
    log, _ = generate(SynthSpec(**spec))
    data.write_interactions(log_path, log)
    with open(log_path, "rb") as fh:
        log_bytes = hashlib.sha256(fh.read()).hexdigest()
    cfg = TrainConfig(**config).validate()
    prepared = data.prepare_dataset(data.read_interactions(log_path), cfg)
    result = train.train(cfg, prepared)
    model.save_checkpoint(
        ckpt_path, result.params, extra={"best_epoch": result.best_epoch, "best_val_auc": result.best_val_auc}
    )
    params, _ = model.load_checkpoint(ckpt_path)
    splits = [model.predict(params, split) for split in (prepared.train, prepared.val, prepared.test)]
    scores = np.concatenate(splits).tobytes()
    with open(ckpt_path, "rb") as fh:
        checkpoint = fh.read()
    return {
        "log bytes": log_bytes,
        "prepared arrays": prepared_digest(prepared),
        "checkpoint bytes": hashlib.sha256(checkpoint).hexdigest(),
        "scores": hashlib.sha256(scores).hexdigest(),
        "raw scores": base64.b64encode(scores).decode(),
        "test AUC": auc(ScoredSet(splits[2], prepared.test.labels, prepared.degrees_for(prepared.test))),
    }


def quality(a: dict, b: dict) -> str:
    """Both sides' test AUC and the largest absolute difference between their scores."""
    import numpy as np

    ours, theirs = (np.frombuffer(base64.b64decode(row["raw scores"])) for row in (a, b))
    if ours.shape != theirs.shape:
        gap = f"{ours.size} and {theirs.size} scores"
    else:
        gap = f"largest score difference {float(np.abs(ours - theirs).max(initial=0.0)):.3e}"
    return f"test AUC {a['test AUC']!r} -> {b['test AUC']!r}, {gap}"


def worker(checkout: str, one_cpu: bool) -> None:
    """Print every case's digests; on one CPU, only the ffn-3 cases', in a process pinned to one CPU."""
    if one_cpu:  # before numpy loads, so its BLAS sees one CPU too
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import bench
    from pigat.config import TrainConfig

    require_checkout_pigat(checkout)
    with tempfile.TemporaryDirectory() as workdir:
        for name, spec, config in cases(bench):
            attention = TrainConfig(**config).attention
            if not one_cpu or attention == "ffn-3":
                print(json.dumps({"case": name, "attention": attention, **run_case(spec, config, workdir)}), flush=True)


def verdict(a: dict | None, b: dict | None, sides: tuple[str, str]) -> str:
    """'' when both rows hold the same digests, else what differs or which side is missing."""
    if a is None or b is None:
        return f"missing in {sides[0] if a is None else sides[1]}"
    differ = ", ".join(f"{what} differ" for what in DIGESTS if a[what] != b[what])
    return f"{differ}; {quality(a, b)}" if differ else ""


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] in ("--worker", "--one-cpu-worker"):
        worker(argv[1], one_cpu=argv[0] == "--one-cpu-worker")
        return 0
    if len(argv) != 2:
        print("usage: same_bytes.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 1
    # Each worker prints one JSON line per case.
    runs = [(checkout, start_worker(__file__, "--worker", checkout)) for checkout in argv]
    pinned = hasattr(os, "sched_setaffinity")
    if pinned:
        runs.append((f"{argv[1]} on one CPU", start_worker(__file__, "--one-cpu-worker", argv[1])))
    results = []
    for label, proc in runs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            print(f"{label}: the worker exited with status {proc.returncode}", file=sys.stderr)
        results.append({row["case"]: row for row in map(json.loads, out.splitlines())})
    parent, change = results[:2]
    lines = [(name, verdict(parent.get(name), change.get(name), ("parent", "change")))
             for name in dict.fromkeys([*parent, *change])]
    if pinned:
        one_cpu = results[2]
        names = [name for name, row in change.items() if row["attention"] == "ffn-3"]
        lines += [(f"{name} on one CPU", verdict(change.get(name), one_cpu.get(name), ("change", "one CPU")))
                  for name in dict.fromkeys([*names, *one_cpu])]
    else:
        print("one-CPU check skipped: this OS cannot pin a process to one CPU")
    for name, differs in lines:
        print(f"{name}\t{differs or 'same'}")
    return 1 if any(proc.returncode != 0 for _, proc in runs) or any(differs for _, differs in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
