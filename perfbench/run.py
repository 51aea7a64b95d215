#!/usr/bin/env python3
"""Run one pigat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ffn3-dense --seed 1 --seconds 15 --trace 0

--trace 0 times untraced pipeline passes for --seconds (at least three)
and reports the end-to-end metrics. --trace 1 runs an untraced warm-up
pass, a traced pass and an untraced pass, and reports the per-layer
metrics and the tracing overhead; its spans go to .perfbench/ in the
checkout. perfbench/README.md defines every metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every correctness check passed, 1 when one failed, and 2 when pigat
cannot be found in this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_CAP = 1  # at most nproc; one thread keeps timings steady on a shared box
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WAIT_NOTE = "wait: none to report; every layer runs on one thread of one process, with no queues"


def _import_bench():
    """Import the pigat of this checkout (never an installed copy) and bench."""
    src = ROOT / "src"
    if not (src / "pigat" / "__init__.py").is_file():
        raise ImportError(f"no pigat package under {src}")
    sys.path.insert(0, str(src))
    import pigat

    if Path(pigat.__file__).resolve().parent != (src / "pigat").resolve():
        raise ImportError(f"pigat imported from {pigat.__file__}, not from {src}")
    import bench

    return bench


def _metric_lines(metrics: dict, units: dict) -> tuple[list[str], dict]:
    lines, payload = [], {}
    for name, unit in units.items():
        value = metrics[name]
        if value is not None and not math.isfinite(value):
            value = None  # a failed pass leaves nothing to measure
        lines.append(f"{name}\t{'absent' if value is None else repr(value)}\t{unit}")
        payload[name] = {"value": value, "unit": unit}
    return lines, payload


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    loadavg = os.getloadavg()
    threads = str(min(BLAS_THREAD_CAP, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:  # must be set before numpy is first imported
        os.environ[var] = threads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = _import_bench()
    except ImportError as exc:
        print(f"perfbench: cannot load pigat: {exc}", file=sys.stderr)
        return 2
    workloads = workloads or bench.WORKLOADS
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    print("facts\t" + json.dumps(bench.machine_facts(loadavg, threads), sort_keys=True))
    print(f"workload\t{workload.name}\tseed {args.seed}\tclosed loop, one caller\t{workload.why}")
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        if args.trace:
            spans_path = out_dir / f"spans-{workload.name}-{args.seed}.jsonl"
            metrics, absent, passes, problems = bench.traced(workload, args.seed, workdir, str(spans_path))
            lines, payload = _metric_lines(metrics, bench.LAYER_UNITS)
            print(f"spans\t{spans_path}")
            print("absent\t" + (", ".join(absent) if absent else "none"))
            print(WAIT_NOTE)
        else:
            passes, problems = bench.measure(workload, args.seed, args.seconds, workdir)
            lines, payload = _metric_lines(bench.end_to_end(passes), bench.END_TO_END_UNITS)
            print(f"passes\t{len(passes)}\tmedians over passes; peak_rss_mb is the process peak")
    print("\n".join(lines))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.steps + p.scored for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": payload,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
