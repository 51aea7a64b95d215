"""Smoke-size tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from pigat import data, features, graph, model, train  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload: bench.Workload) -> bench.Workload:
    """The same workload shape at a size that runs in about a second."""
    spec = {**workload.spec, "users": 30, "items": 80, "events": 400}
    return dataclasses.replace(workload, spec=spec, config={**workload.config, "epochs": 1}, score_sweeps=1)


SMOKE = {name: _smoke(w) for name, w in bench.WORKLOADS.items()}


def _run(capsys, name: str, trace: int) -> dict:
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)], SMOKE)
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0, out
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("facts\t") for line in out)
    return result


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_end_to_end_metric_printed_with_its_unit(capsys, name):
    metrics = _run(capsys, name, 0)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_layer_metric_printed_with_its_unit(capsys, name):
    metrics = _run(capsys, name, 1)["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] is not None for v in metrics.values())


def test_failed_check_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr(bench, "brute_force_auc", lambda scores, labels: -1.0)
    code = run.main(["--workload", "ffn3-dense", "--seed", "3", "--seconds", "0", "--trace", "0"], SMOKE)
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_missing_checkout_exits_nonzero_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "ffn3-dense", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def _snapshot() -> dict:
    owners = (data, features, graph, model, train, graph.InteractionGraph, features.Batch)
    return {owner: dict(vars(owner)) for owner in owners}


def _traced_pass(tmp_path, probes=tracer_mod.PROBES) -> tracer_mod.Tracer:
    workload = SMOKE["ffn3-dense"]
    log_path = str(tmp_path / "log.tsv")
    bench.generate_log(workload, 1, log_path)
    with tracer_mod.Tracer(probes) as t:
        result = bench.run_pass(workload, 1, log_path, str(tmp_path / "ckpt.bin"), t)
    assert result.problems == []
    return t


def test_tracer_leaves_pigat_unmodified(tmp_path):
    before = _snapshot()
    t = _traced_pass(tmp_path)
    assert t.absent == [] and len(t.spans) > 0
    after = _snapshot()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys()
        assert all(after[owner][k] is v for k, v in attrs.items()), owner


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracer_mod.Tracer():
            assert model.lookup is not before[model]["lookup"]
            raise RuntimeError("boom")
    after = _snapshot()
    assert all(after[o][k] is v for o, attrs in before.items() for k, v in attrs.items())


def test_missing_wrapped_name_is_reported_absent(tmp_path):
    gone = ("pigat.graph:GraphSnapshotGone.neighbor_events", "pigat.model:renamed_away")
    t = _traced_pass(tmp_path, tracer_mod.PROBES + tuple(tracer_mod.Probe(g, "x") for g in gone))
    assert t.absent == list(gone)
    assert None not in tracer_mod.layer_metrics(t).values()
    # A metric is absent exactly when one of the probes it needs is.
    t.absent.append("pigat.model:_head_backward")
    metrics = tracer_mod.layer_metrics(t)
    assert metrics["nn.ffn_backward.att_frac"] is None
    assert sum(v is None for v in metrics.values()) == 1


def test_self_time_excludes_children():
    t = tracer_mod.Tracer(())
    t.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, 1], ["c", 5.0, 6.0, 0, 1]]
    t.hidden[0] = 0.5
    total, own = t.totals()
    assert total["a"] == 10.0 and own["a"] == 5.5 and own["b"] == 3.0
    assert t.step_seconds() == [5.0]


def test_brute_force_auc_matches_pairwise_definition():
    scores = np.array([0.1, 0.4, 0.4, 0.8, 0.3])
    labels = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
    # pairs (pos, neg): (0.4,0.1)=1 (0.4,0.4)=.5 (0.8,0.1)=1 (0.8,0.4)=1 (0.3,0.1)=1 (0.3,0.4)=0
    assert bench.brute_force_auc(scores, labels) == 4.5 / 6
