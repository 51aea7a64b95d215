"""Command-line front end.

Verbs: synth (generate an interaction log), train (fit a model and save
a checkpoint), eval (score a checkpoint on a dataset split), gradcheck
(compare analytic and numeric gradients), ablate (run a variant grid).

Exit codes: 0 success, 1 bad usage, 2 bad data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import ablation, gradcheck, synth
from .config import TrainConfig, format_config, read_config
from .data import prepare_dataset, read_interactions, write_interactions
from .errors import DataError, DomainError, NumericError, ShapeError, UsageError
from .features import write_schema
from .metrics import ScoredSet, auc, longtail_auc
from .model import load_checkpoint, predict, save_checkpoint
from .train import train, write_metrics

GRAD_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; we reserve 2 for data
    problems, so usage mistakes are rethrown and mapped to 1."""

    def error(self, message: str):
        raise UsageError(message)


def positive_int(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pigat", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic interaction log")
    p.add_argument("--spec", required=True, help="generator spec file (key = value lines)")
    p.add_argument("--out", required=True, help="interaction log to write")
    p.add_argument("--latents", help="optional ground-truth latent dump")

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", required=True, help="training config file")
    p.add_argument("--data", required=True, help="interaction log")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("eval", help="score a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="interaction log")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")

    p = sub.add_parser("gradcheck", help="verify analytic gradients numerically")
    p.add_argument("--config", help="training config file (defaults apply if omitted)")
    p.add_argument("--seeds", type=positive_int, default=20, help="number of verification points")
    p.add_argument("--samples", type=positive_int, default=6, help="coordinates checked per array")

    p = sub.add_parser("ablate", help="train a grid of config variants")
    p.add_argument("--matrix", required=True, help="INI file of variant overrides")
    p.add_argument("--data", required=True, help="interaction log")
    p.add_argument("--out", required=True, help="results table to write")
    p.add_argument("--config", help="base training config file")
    p.add_argument("--seeds", type=positive_int, default=3, help="seeds per variant")
    return parser


def cmd_synth(args) -> int:
    spec = synth.read_synth_spec(args.spec)
    log, truth = synth.generate(spec)
    write_interactions(args.out, log)
    if args.latents:
        synth.write_latents(args.latents, truth)
    for key, value in synth.degree_summary(log, spec.items).items():
        print(f"{key}\t{value}")
    return 0


def _load_config(path: str | None) -> TrainConfig:
    return read_config(path) if path else TrainConfig()


def cmd_train(args) -> int:
    config = read_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed).validate()
    log = read_interactions(args.data)
    data = prepare_dataset(log, config)
    result = train(config, data)

    os.makedirs(args.out, exist_ok=True)
    write_metrics(os.path.join(args.out, "metrics.tsv"), result.history)
    save_checkpoint(
        os.path.join(args.out, "checkpoint.bin"),
        result.params,
        extra={"best_epoch": result.best_epoch, "best_val_auc": result.best_val_auc},
    )
    with open(os.path.join(args.out, "config_resolved.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_config(config))
    write_schema(data.schema, os.path.join(args.out, "schema.txt"))
    print(f"best_epoch\t{result.best_epoch}")
    print(f"best_val_auc\t{result.best_val_auc!r}")
    return 0


def cmd_eval(args) -> int:
    params, extra = load_checkpoint(args.checkpoint)
    log = read_interactions(args.data)
    data = prepare_dataset(log, params.config, schema=params.schema)
    batch = getattr(data, args.split)
    scored = ScoredSet(predict(params, batch), batch.labels, data.degrees_for(batch))
    print(f"auc\t{auc(scored)!r}")
    for k in ablation.LONGTAIL_CUTS:
        tail = longtail_auc(scored, k)
        print(f"auc_le{k}\t{'na' if tail is None else repr(tail)}")
    return 0


def cmd_gradcheck(args) -> int:
    config = _load_config(args.config)
    reports = [gradcheck.run_case(config, seed, samples_per_array=args.samples) for seed in range(args.seeds)]
    for name in sorted(reports[0].per_group):
        print(f"{name}\t{max(report.per_group[name] for report in reports):.3e}")
    overall = max(report.max_rel_err for report in reports)
    print(f"max\t{overall:.3e}")
    if overall >= GRAD_TOLERANCE:
        raise NumericError(
            f"gradient mismatch: max relative error {overall:.3e} >= {GRAD_TOLERANCE}"
        )
    return 0


def cmd_ablate(args) -> int:
    base = _load_config(args.config)
    matrix = ablation.read_matrix(args.matrix)
    log = read_interactions(args.data)
    rows = ablation.run_ablation(base, matrix, log, seeds=tuple(range(args.seeds)))
    ablation.write_results(args.out, rows)
    for row in rows:
        if row.kind in ("mean", "std"):
            value = "na" if row.auc is None else f"{row.auc:.4f}"
            print(f"{row.label}\t{row.kind}\t{value}")
    failed = [row for row in rows if row.kind == "failed"]
    for row in failed:
        print(f"{row.label}\tseed {row.seed} failed: {row.note}", file=sys.stderr)
    return 0


VERBS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return VERBS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, ShapeError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
