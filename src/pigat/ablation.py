"""Grid runner: train one model per (variant, seed) and tabulate test AUC.

A variant file is INI-shaped: each section names a variant, each key
overrides one training-config field. Every variant trains once per seed
on the same dataset; rows report overall and long-tail test AUC plus
wall time, and mean/std summary rows close out each variant. A variant
that raises, or that sets `seed` (each run takes its seed from the
seeds given), is recorded as a failed row so the rest of the grid still
runs.
"""

from __future__ import annotations

import configparser
import dataclasses
import time
from dataclasses import dataclass

from .config import TrainConfig, config_from_pairs, read_utf8_lines
from .data import InteractionLog, PreparedData, prepare_dataset
from .errors import DataError, UsageError
from .metrics import ScoredSet, auc, longtail_auc
from .model import predict
from .train import train

LONGTAIL_CUTS = (3, 5, 10)


@dataclass
class AblationRow:
    label: str
    seed: int | None  # None marks a summary row
    kind: str  # "run", "mean", "std", or "failed"
    auc: float | None
    longtail: dict[int, float | None]
    seconds: float
    note: str = ""


def read_matrix(path: str) -> dict[str, dict[str, str]]:
    # No interpolation: a value is the text after "=", a "%" included.
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive config field names
    lines = read_utf8_lines(path)
    try:
        parser.read_file(lines, source=path)
    except configparser.Error as exc:
        raise DataError(f"bad variant file {path}: {exc}") from None
    matrix = {label: dict(parser[label]) for label in parser.sections()}
    if not matrix:
        raise UsageError(f"variant file {path} defines no variants")
    return matrix


def _evaluate(config: TrainConfig, data: PreparedData) -> tuple[float, dict[int, float | None]]:
    result = train(config, data)
    probs = predict(result.params, data.test)
    scored = ScoredSet(probs, data.test.labels, data.degrees_for(data.test))
    return auc(scored), {k: longtail_auc(scored, k) for k in LONGTAIL_CUTS}


def run_ablation(
    base: TrainConfig,
    matrix: dict[str, dict[str, str]],
    log: InteractionLog,
    seeds: tuple[int, ...] = (0, 1, 2),
) -> list[AblationRow]:
    if not matrix:
        raise UsageError("empty variant matrix")
    rows: list[AblationRow] = []
    for label, overrides in matrix.items():
        per_seed: list[AblationRow] = []
        for seed in seeds:
            started = time.perf_counter()
            try:
                if "seed" in overrides:  # else the run's seed would replace it without a word
                    raise DataError("config key 'seed' is set by the run's seeds, not by a variant")
                config = dataclasses.replace(config_from_pairs(overrides, base), seed=seed)
                score, tails = _evaluate(config, prepare_dataset(log, config))
                row = AblationRow(label, seed, "run", score, tails, time.perf_counter() - started)
            except Exception as exc:
                row = AblationRow(
                    label, seed, "failed", None, {k: None for k in LONGTAIL_CUTS},
                    time.perf_counter() - started, note=f"{type(exc).__name__}: {exc}",
                )
            per_seed.append(row)
            rows.append(row)
        runs = [r for r in per_seed if r.kind == "run"]
        if runs:
            mean, std = _mean_std([r.auc for r in runs])
            tails = {
                k: _mean_std([r.longtail[k] for r in runs if r.longtail[k] is not None]) for k in LONGTAIL_CUTS
            }
            seconds = sum(r.seconds for r in per_seed)
            rows.append(AblationRow(label, None, "mean", mean, {k: m for k, (m, _) in tails.items()}, seconds))
            rows.append(AblationRow(label, None, "std", std, {k: sd for k, (_, sd) in tails.items()}, 0.0))
    return rows


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    """Population mean and standard deviation; (None, None) for no values."""
    if not values:
        return None, None
    mean = sum(values) / len(values)
    return mean, (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def _cell(value: float | None) -> str:
    return "na" if value is None else repr(float(value))


def format_results(rows: list[AblationRow]) -> str:
    header = "variant\tseed\tkind\tauc\t" + "\t".join(f"auc_le{k}" for k in LONGTAIL_CUTS) + "\tseconds\tnote\n"
    lines = [header]
    for row in rows:
        seed = "" if row.seed is None else str(row.seed)
        tails = "\t".join(_cell(row.longtail[k]) for k in LONGTAIL_CUTS)
        lines.append(
            f"{row.label}\t{seed}\t{row.kind}\t{_cell(row.auc)}\t{tails}\t{row.seconds:.2f}\t{row.note}\n"
        )
    return "".join(lines)


def write_results(path: str, rows: list[AblationRow]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_results(rows))
