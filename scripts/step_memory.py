#!/usr/bin/env python3
"""Traced memory of one training step and one scoring forward, per benchmark workload.

    python3 scripts/step_memory.py CHECKOUT [CHECKOUT ...]

Each checkout runs in its own subprocess (this script with --worker), which
imports pigat from the checkout's src/ and the workloads from its
perfbench/bench.py; nothing there is changed. Per workload the worker
generates the log with the workload's spec at seed 5, prepares it, builds
the model and runs one warm-up step on the first training batch, so that
first-call allocations are not counted. Then, with tracemalloc on, it
measures on that batch, in bytes above what was traced before the step:

- forward_live: what a train forward leaves alive (its ForwardState);
- backward_peak: the traced peak while backward runs on that state, the
  state included;
- eval_peak: the traced peak of one eval forward, the state it returns
  included.

Each figure is the median of 5 such steps. The ffn-3 heads run on two
threads, so a peak can move with their interleaving, and that interleaving
can stay the same for a whole process: one process read ffn3-dense's
backward_peak 0.7 MB above three others. So each checkout's worker runs in
PROCESSES processes, one after another, and each figure printed is the
median over them, with their min-max beside it. One line is printed per
checkout and workload, in MB (10^6 bytes).
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc

from checkouts import require_checkout_pigat, start_worker

SEED = 5
REPEATS = 5
PROCESSES = 3


def measure(workload) -> dict[str, float]:
    """The three figures of one workload, each the median over REPEATS steps, in MB."""
    # Imported here: only a worker has a checkout's src/ on its path.
    import numpy as np

    from pigat import data, model
    from pigat.synth import generate

    log, _ = generate(workload.synth_spec(SEED))
    cfg = workload.train_config(SEED)
    prepared = data.prepare_dataset(log, cfg)
    params = model.init_params(np.random.default_rng(cfg.seed), prepared.schema, cfg)
    batch = prepared.train.take(np.arange(min(cfg.batch_size, len(prepared.train))))
    rng = np.random.default_rng(cfg.seed)
    model.backward(params, model.forward(params, batch, mode="train", rng=rng))  # warm-up
    figures: dict[str, list[float]] = {"forward_live_mb": [], "backward_peak_mb": [], "eval_peak_mb": []}
    tracemalloc.start()
    try:
        for _ in range(REPEATS):
            base = tracemalloc.get_traced_memory()[0]
            state = model.forward(params, batch, mode="train", rng=rng)
            figures["forward_live_mb"].append(tracemalloc.get_traced_memory()[0] - base)
            tracemalloc.reset_peak()
            model.backward(params, state)
            figures["backward_peak_mb"].append(tracemalloc.get_traced_memory()[1] - base)
            del state
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.forward(params, batch, mode="eval")
            figures["eval_peak_mb"].append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return {name: round(statistics.median(values) / 1e6, 3) for name, values in figures.items()}


def worker(checkout: str) -> None:
    import bench

    require_checkout_pigat(checkout)
    for name, workload in bench.WORKLOADS.items():
        print(json.dumps({"workload": name, **measure(workload)}), flush=True)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        worker(argv[1])
        return 0
    if not argv or argv[0].startswith("-"):
        print("usage: step_memory.py CHECKOUT [CHECKOUT ...]", file=sys.stderr)
        return 1
    status = 0
    for checkout in argv:
        runs: dict[str, list[dict]] = {}  # workload -> one row per process
        for _ in range(PROCESSES):
            proc = start_worker(__file__, "--worker", checkout)
            out, _ = proc.communicate()
            for row in map(json.loads, out.splitlines()):
                runs.setdefault(row.pop("workload"), []).append(row)
            if proc.returncode != 0:
                print(f"{checkout}: the worker exited with status {proc.returncode}", file=sys.stderr)
                status = 1
        for workload, rows in runs.items():
            cells = []
            for key in rows[0]:
                values = [row[key] for row in rows]
                cells.append(f"{key} {statistics.median(values):.3f} ({min(values):.3f}-{max(values):.3f})")
            print("\t".join([checkout, workload, *cells]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
