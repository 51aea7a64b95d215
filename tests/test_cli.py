"""End-to-end command tests: every verb on real files, plus exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pigat
import pigat.cli as cli_mod
import pigat.train as train_mod
from pigat.cli import main
from pigat.data import read_interactions
from pigat.gradcheck import GradCheckReport


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset and config shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    (root / "spec.txt").write_text(
        "users = 20\nitems = 40\nevents = 400\nexponent = 1.2\nseed = 5\n"
    )
    (root / "config.txt").write_text(
        "epochs = 2\nbatch_size = 64\nmax_neighbors = 4\n"
        "user_embed_width = 4\nitem_embed_width = 4\nhidden_width = 8\n"
        "confidence = ce\nattention = dot\nseed = 1\n"
    )
    assert main(["synth", "--spec", str(root / "spec.txt"), "--out", str(root / "data.tsv")]) == 0
    assert main([
        "train",
        "--config", str(root / "config.txt"),
        "--data", str(root / "data.tsv"),
        "--out", str(root / "run"),
    ]) == 0
    return root


class TestSynth:
    def test_summary_matches_file_recount(self, workspace, capsys):
        out = workspace / "data2.tsv"
        assert main(["synth", "--spec", str(workspace / "spec.txt"), "--out", str(out)]) == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        log = read_interactions(str(out))
        counts = {}
        for rec in log.records:
            counts[rec.item_values[0]] = counts.get(rec.item_values[0], 0) + 1
        tail = sum(1 for c in counts.values() if c <= 3) + 40 - len(counts)
        assert float(printed["longtail_fraction"]) == tail / 40
        assert int(printed["events"]) == len(log.records)

    def test_latents_written_on_request(self, workspace, tmp_path):
        latents = tmp_path / "latents.tsv"
        assert main([
            "synth",
            "--spec", str(workspace / "spec.txt"),
            "--out", str(tmp_path / "d.tsv"),
            "--latents", str(latents),
        ]) == 0
        assert latents.exists() and latents.read_text().startswith("user\tu0\tinitial\t")

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("users = 1\nitems = 5\nevents = 50\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d.tsv")]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["users", "latent_dim"])
    def test_oversized_spec_exits_2_and_writes_nothing(self, tmp_path, capsys, key):
        pairs = {"users": "20", "items": "40", "events": "400", key: "100000000000"}
        spec = tmp_path / "spec.txt"
        spec.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d.tsv")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "latents would hold" in err and "Traceback" not in err
        assert not (tmp_path / "d.tsv").exists()


class TestTrain:
    def test_writes_all_artifacts(self, workspace):
        run = workspace / "run"
        for name in ("checkpoint.bin", "metrics.tsv", "config_resolved.txt", "schema.txt"):
            assert (run / name).exists(), name

    def test_metrics_has_one_line_per_epoch(self, workspace):
        lines = (workspace / "run" / "metrics.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        second = tmp_path / "again"
        assert main([
            "train",
            "--config", str(workspace / "config.txt"),
            "--data", str(workspace / "data.tsv"),
            "--out", str(second),
        ]) == 0
        run = workspace / "run"
        assert (second / "metrics.tsv").read_bytes() == (run / "metrics.tsv").read_bytes()
        assert (second / "checkpoint.bin").read_bytes() == (run / "checkpoint.bin").read_bytes()

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        out = tmp_path / "seeded"
        assert main([
            "train",
            "--config", str(workspace / "config.txt"),
            "--data", str(workspace / "data.tsv"),
            "--out", str(out),
            "--seed", "9",
        ]) == 0
        assert "seed = 9" in (out / "config_resolved.txt").read_text()
        assert (out / "metrics.tsv").read_bytes() != (workspace / "run" / "metrics.tsv").read_bytes()

    def test_prints_best_epoch(self, workspace, tmp_path, capsys):
        assert main([
            "train",
            "--config", str(workspace / "config.txt"),
            "--data", str(workspace / "data.tsv"),
            "--out", str(tmp_path / "r"),
        ]) == 0
        out = capsys.readouterr().out
        assert "best_epoch\t" in out and "best_val_auc\t" in out

    def test_window_longer_than_the_log_exits_2(self, workspace, tmp_path, capsys):
        # No window can hold more entries than the log: k = 21 on 20 events is a data error, k = 20 is not.
        data = tmp_path / "data.tsv"
        data.write_text("".join(f"{t}\tuid=u{t % 4}\tiid=i{t % 5}\t{t % 2}\n" for t in range(20)))
        text = (workspace / "config.txt").read_text()
        codes = {}
        for k in (20, 21):
            config = tmp_path / f"k{k}.txt"
            config.write_text(text.replace("max_neighbors = 4", f"max_neighbors = {k}"))
            codes[k] = main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / f"r{k}")])
        assert codes == {20: 0, 21: 2}
        assert "max_neighbors 21 exceeds the log's 20 events" in capsys.readouterr().err

    def test_model_too_large_to_allocate_exits_2(self, workspace, tmp_path):
        # A mistyped width: the user table alone would take tens of GiB. The run
        # has a 2 GiB address-space limit, so without the size bound it fails
        # in an allocation instead of exhausting the host.
        config = tmp_path / "huge.txt"
        text = (workspace / "config.txt").read_text()
        config.write_text(text.replace("user_embed_width = 4", "user_embed_width = 100000000"))
        src = str(Path(pigat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # One BLAS thread: per-thread buffers on a many-core host would fill the address space.
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        limited = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from pigat.cli import entry; entry()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", limited, "train", "--config", str(config),
             "--data", str(workspace / "data.tsv"), "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2, proc.stderr
        assert "more than the 134217728 allowed" in proc.stderr
        assert not (tmp_path / "r" / "checkpoint.bin").exists()

    def test_windows_too_large_to_build_exits_2(self, workspace, tmp_path):
        # k = 8200 on 8200 events passes the log-length bound, but the windows
        # would hold 8200 x 8200 x 2 ids, just above 2**27. Without the bound
        # the per-event windows exhaust the 2 GiB address-space limit, or run
        # into the timeout, before training starts.
        data = tmp_path / "data.tsv"
        data.write_text("".join(f"{t}\tuid=u{t % 4}\tiid=i{t % 5}\t{t % 2}\n" for t in range(8200)))
        config = tmp_path / "wide.txt"
        config.write_text((workspace / "config.txt").read_text().replace("max_neighbors = 4", "max_neighbors = 8200"))
        src = str(Path(pigat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        limited = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
            "from pigat.cli import entry; entry()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", limited, "train", "--config", str(config),
             "--data", str(data), "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "the windows would hold 134480000 ids, more than the 134217728 allowed" in proc.stderr
        assert not (tmp_path / "r" / "checkpoint.bin").exists()

    def test_non_ascii_field_name_under_an_ascii_locale(self, workspace, tmp_path):
        # Text files are UTF-8 whatever the locale says.
        data = tmp_path / "data.tsv"
        text = (workspace / "data.tsv").read_text(encoding="utf-8")
        data.write_text(text.replace(";seg=", ";città="), encoding="utf-8")
        src = str(Path(pigat.__file__).resolve().parents[1])
        env = {
            **os.environ,
            "LC_ALL": "POSIX",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        out = tmp_path / "r"
        proc = subprocess.run(
            [sys.executable, "-m", "pigat", "train", "--config", str(workspace / "config.txt"),
             "--data", str(data), "--out", str(out)],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert "user città " in (out / "schema.txt").read_text(encoding="utf-8")


def _without(header, key):
    return {k: v for k, v in header.items() if k != key}


def _duplicate_user_value(header):
    """The header with the first user field's second value replaced by its first; the cardinality stays."""
    first, *rest = header["schema"]["user_fields"]
    values = list(first["values"])
    values[1] = values[0]
    return {**header, "schema": {**header["schema"], "user_fields": [{**first, "values": values}, *rest]}}


# Header edits that keep the JSON valid; each must end as a data error.
HEADER_MUTATIONS = {
    "unchanged": (lambda h: h, 0),
    "no-schema": (lambda h: _without(h, "schema"), 2),
    "no-config": (lambda h: _without(h, "config"), 2),
    "no-arrays": (lambda h: _without(h, "arrays"), 2),
    "string-width": (lambda h: {**h, "schema": {**h["schema"], "user_width": "4"}}, 2),
    "float-width": (lambda h: {**h, "schema": {**h["schema"], "item_width": 4.0}}, 2),
    "string-config-int": (lambda h: {**h, "config": {**h["config"], "max_neighbors": "4"}}, 2),
    "bool-config-int": (lambda h: {**h, "config": {**h["config"], "epochs": True}}, 2),
    "config-not-object": (lambda h: {**h, "config": []}, 2),
    # A model trained without confidence in pooling must not load as one with it.
    "config-key-missing": (lambda h: {**h, "config": _without(h["config"], "confidence_in_pooling")}, 2),
    "field-without-values": (lambda h: {**h, "schema": {**h["schema"], "item_fields": [{"name": "iid"}]}}, 2),
    "header-not-object": (lambda h: [h], 2),
    "duplicate-vocabulary-value": (_duplicate_user_value, 2),
}


class TestEval:
    @pytest.mark.parametrize("mutation", list(HEADER_MUTATIONS))
    def test_malformed_header_exits_2(self, workspace, tmp_path, capsys, mutation):
        mutate, code = HEADER_MUTATIONS[mutation]
        magic, header, body = (workspace / "run" / "checkpoint.bin").read_bytes().split(b"\n", 2)
        header = json.dumps(mutate(json.loads(header)), sort_keys=True, separators=(",", ":"))
        ckpt = tmp_path / "mutated.bin"
        ckpt.write_bytes(magic + b"\n" + header.encode() + b"\n" + body)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(workspace / "data.tsv")]) == code
        err = capsys.readouterr().err
        assert ("data error" in err) == (code == 2)
        assert "Traceback" not in err

    def test_prints_all_metrics(self, workspace, capsys):
        assert main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data", str(workspace / "data.tsv"),
        ]) == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert 0.0 <= float(printed["auc"]) <= 1.0
        assert set(printed) == {"auc", "auc_le3", "auc_le5", "auc_le10"}

    def test_undefined_tail_prints_na(self, workspace, capsys):
        # val split of this small set has no items that rare at k=3 or
        # the slice is one-sided; accept either a number or the marker
        assert main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data", str(workspace / "data.tsv"),
            "--split", "val",
        ]) == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        for key in ("auc_le3", "auc_le5", "auc_le10"):
            value = printed[key]
            assert value == "na" or 0.0 <= float(value) <= 1.0

    def test_val_auc_equals_training_best_val_auc(self, workspace, tmp_path, capsys):
        # Training's validation pass and eval share one scorer; batch_size 16
        # cuts the 40 validation instances into two full chunks and a part.
        config = tmp_path / "config.txt"
        text = (workspace / "config.txt").read_text()
        config.write_text(text.replace("batch_size = 64", "batch_size = 16").replace("= dot", "= ffn-3"))
        assert "batch_size = 16" in config.read_text() and "ffn-3" in config.read_text()
        data = str(workspace / "data.tsv")
        assert main(["train", "--config", str(config), "--data", data, "--out", str(tmp_path / "r")]) == 0
        trained = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        ckpt = str(tmp_path / "r" / "checkpoint.bin")
        assert main(["eval", "--checkpoint", ckpt, "--data", data, "--split", "val"]) == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert printed["auc"] == trained["best_val_auc"]

    def test_split_changes_result(self, workspace, capsys):
        ck = str(workspace / "run" / "checkpoint.bin")
        data = str(workspace / "data.tsv")
        assert main(["eval", "--checkpoint", ck, "--data", data, "--split", "train"]) == 0
        train_out = capsys.readouterr().out
        assert main(["eval", "--checkpoint", ck, "--data", data, "--split", "test"]) == 0
        assert train_out != capsys.readouterr().out

    def test_missing_checkpoint_exits_2(self, workspace, capsys):
        assert main([
            "eval",
            "--checkpoint", str(workspace / "nope.bin"),
            "--data", str(workspace / "data.tsv"),
        ]) == 2
        assert "data error" in capsys.readouterr().err

    def test_reordered_fields_exit_2_naming_both_lists(self, workspace, tmp_path, capsys):
        # Matching fields by position would read each user's segment as its identity.
        lines = []
        for line in (workspace / "data.tsv").read_text(encoding="utf-8").splitlines():
            ts, user, item, signal = line.split("\t")
            lines.append("\t".join([ts, ";".join(reversed(user.split(";"))), item, signal]))
        swapped = tmp_path / "swapped.tsv"
        swapped.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data", str(swapped),
        ]) == 2
        err = capsys.readouterr().err
        assert "['seg', 'uid']" in err and "['uid', 'seg']" in err

    def test_foreign_data_still_scores(self, workspace, tmp_path, capsys):
        # a log full of unseen users and items maps onto the fallback
        # rows of the stored vocabulary instead of crashing
        lines = [f"{t}\tuid=zz{t};seg=s9\tiid=qq{t % 4};cat=c9\t{t % 2}" for t in range(1, 21)]
        foreign = tmp_path / "foreign.tsv"
        foreign.write_text("\n".join(lines) + "\n")
        assert main([
            "eval",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--data", str(foreign),
        ]) == 0
        assert "auc\t" in capsys.readouterr().out


class TestGradcheckVerb:
    def test_passes_on_small_run(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("confidence = none\nattention = dot\n")
        assert main(["gradcheck", "--config", str(cfg), "--seeds", "2", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("max\t")
        assert "user_table\t" in out

    def test_checks_the_configured_model(self, tmp_path, monkeypatch):
        cfg = tmp_path / "config.txt"
        cfg.write_text("attention = dot\nhidden_width = 8\ninclude_negative_neighbors = false\n")
        checked = []
        real = cli_mod.gradcheck.check_gradients

        def spy(params, *args, **kwargs):
            checked.append(params)
            return real(params, *args, **kwargs)

        monkeypatch.setattr(cli_mod.gradcheck, "check_gradients", spy)
        assert main(["gradcheck", "--config", str(cfg), "--seeds", "1", "--samples", "1"]) == 0
        (params,) = checked
        assert params.integrate["int_user"][0].shape[0] == 8
        assert not params.config.include_negative_neighbors

    @pytest.mark.parametrize("flags", [["--seeds", "0"], ["--seeds", "1", "--samples", "0"], ["--samples", "-2"]])
    def test_nothing_to_compare_is_usage(self, monkeypatch, capsys, flags):
        cases = []
        monkeypatch.setattr(cli_mod.gradcheck, "run_case", lambda *a, **k: cases.append(a))
        assert main(["gradcheck", *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flags[-2] in err
        assert cases == []

    def test_exit_3_on_mismatch(self, monkeypatch, capsys):
        fake = GradCheckReport(per_group={"mlp.w0": 0.5})
        monkeypatch.setattr(cli_mod.gradcheck, "run_case", lambda *a, **k: fake)
        assert main(["gradcheck", "--seeds", "1"]) == 3
        assert "numeric failure" in capsys.readouterr().err


class TestAblateVerb:
    def test_grid_runs_and_reports(self, workspace, tmp_path, capsys):
        matrix = tmp_path / "matrix.ini"
        matrix.write_text("[att]\npooling = attention\n\n[avg]\npooling = average\n")
        out = tmp_path / "results.tsv"
        assert main([
            "ablate",
            "--matrix", str(matrix),
            "--data", str(workspace / "data.tsv"),
            "--out", str(out),
            "--config", str(workspace / "config.txt"),
            "--seeds", "2",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("variant\tseed\tkind")
        assert len(lines) == 1 + 2 * 4  # per variant: 2 runs + mean + std
        printed = capsys.readouterr().out
        assert "att\tmean\t" in printed and "avg\tstd\t" in printed

    def test_broken_variant_reported_on_stderr(self, workspace, tmp_path, capsys):
        matrix = tmp_path / "matrix.ini"
        matrix.write_text("[bad]\nattention = telepathy\n")
        out = tmp_path / "results.tsv"
        assert main([
            "ablate",
            "--matrix", str(matrix),
            "--data", str(workspace / "data.tsv"),
            "--out", str(out),
            "--seeds", "1",
        ]) == 0
        assert "failed" in capsys.readouterr().err
        assert "bad\t0\tfailed" in out.read_text()

    def test_percent_value_is_a_failed_row(self, workspace, tmp_path, capsys):
        matrix = tmp_path / "matrix.ini"
        matrix.write_text("[pct]\nlearning_rate = 5%\n")
        out = tmp_path / "results.tsv"
        assert main([
            "ablate",
            "--matrix", str(matrix),
            "--data", str(workspace / "data.tsv"),
            "--out", str(out),
            "--seeds", "1",
        ]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert "pct\t0\tfailed" in out.read_text()
        assert "5%" in out.read_text()

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_usage_and_writes_nothing(self, workspace, tmp_path, capsys, seeds):
        matrix = tmp_path / "matrix.ini"
        matrix.write_text("[avg]\npooling = average\n")
        out = tmp_path / "results.tsv"
        assert main([
            "ablate",
            "--matrix", str(matrix),
            "--data", str(workspace / "data.tsv"),
            "--out", str(out),
            "--seeds", seeds,
        ]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--seeds" in err
        assert not out.exists()

    def test_empty_matrix_exits_1(self, workspace, tmp_path, capsys):
        matrix = tmp_path / "matrix.ini"
        matrix.write_text("\n")
        assert main([
            "ablate",
            "--matrix", str(matrix),
            "--data", str(workspace / "data.tsv"),
            "--out", str(tmp_path / "r.tsv"),
        ]) == 1
        assert "usage error" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_required_flag_is_usage(self, capsys):
        assert main(["train", "--config", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_verb_is_usage(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unreadable_data_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tcolumns\n")
        assert main([
            "train",
            "--config", str(workspace / "config.txt"),
            "--data", str(bad),
            "--out", str(tmp_path / "r"),
        ]) == 2

    @pytest.mark.parametrize("verb", ["train", "ablate"])
    def test_non_utf8_input_exits_2(self, workspace, tmp_path, capsys, verb):
        data = workspace / "data.tsv"
        if verb == "train":
            data = tmp_path / "data.tsv"
            data.write_bytes((workspace / "data.tsv").read_bytes().replace(b"uid=u", b"uid=\xffu", 1))
            flags = ["--config", str(workspace / "config.txt")]
        else:
            matrix = tmp_path / "matrix.ini"
            matrix.write_bytes(b"[avg]\npooling = average\xff\n")
            flags = ["--matrix", str(matrix)]
        assert main([verb, *flags, "--data", str(data), "--out", str(tmp_path / "r")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_bad_config_key_is_data_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("epochs = 2\nturbo = yes\n")
        assert main([
            "train",
            "--config", str(cfg),
            "--data", str(workspace / "data.tsv"),
            "--out", str(tmp_path / "r"),
        ]) == 2

    def test_one_class_validation_split_exits_2_before_any_step(self, workspace, tmp_path, monkeypatch, capsys):
        # 100 events: the first 80 alternate labels, the last 20 (validation
        # and test) are all positive.
        lines = [
            f"{t}\tuid=u{t % 7}\tiid=i{t % 11}\t{1 if t >= 80 else t % 2}\n" for t in range(100)
        ]
        log = tmp_path / "one_class.tsv"
        log.write_text("".join(lines))
        steps = []
        monkeypatch.setattr("pigat.train.adam_step", lambda *a: steps.append(a))
        assert main([
            "train",
            "--config", str(workspace / "config.txt"),
            "--data", str(log),
            "--out", str(tmp_path / "r"),
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "validation" in err
        assert steps == []
        assert not (tmp_path / "r").exists()

    def test_non_finite_gradient_exits_3(self, workspace, tmp_path, monkeypatch, capsys):
        real = train_mod.backward

        def poisoned(params, state):
            real(params, state)
            params.grads["mlp.b0"][0] = np.inf

        monkeypatch.setattr(train_mod, "backward", poisoned)
        assert main([
            "train",
            "--config", str(workspace / "config.txt"),
            "--data", str(workspace / "data.tsv"),
            "--out", str(tmp_path / "r"),
        ]) == 3
        assert "non-finite gradient at epoch 1, batch 0: mlp.b0 (group mlp)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,flags",
        [
            ("l2", "nan", []),
            ("learning_rate", "inf", []),
            ("seed", "-1", []),
            (None, None, ["--seed", "-3"]),
        ],
        ids=["l2-nan", "learning-rate-inf", "config-seed-negative", "flag-seed-negative"],
    )
    def test_non_finite_or_negative_setting_exits_2_before_any_step(
        self, workspace, tmp_path, monkeypatch, capsys, key, value, flags
    ):
        pairs = dict(line.split(" = ") for line in (workspace / "config.txt").read_text().splitlines())
        if key is not None:
            pairs[key] = value
        cfg = tmp_path / "config.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        steps = []
        monkeypatch.setattr("pigat.train.adam_step", lambda *a: steps.append(a))
        assert main([
            "train",
            "--config", str(cfg),
            "--data", str(workspace / "data.tsv"),
            "--out", str(tmp_path / "r"),
            *flags,
        ]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and (key or "seed") in err
        assert steps == []
        assert not (tmp_path / "r").exists()

    def test_oversized_event_count_exits_2_without_writing(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("users = 20\nitems = 40\nevents = 100000000\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d.tsv")]) == 2
        assert "100000000 events" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize("key,value", [("seed", "-1"), ("exponent", "nan"), ("scale", "inf")])
    def test_non_finite_or_negative_spec_value_exits_2(self, tmp_path, capsys, key, value):
        pairs = {"users": "20", "items": "40", "events": "400", "seed": "5", key: value}
        spec = tmp_path / "spec.txt"
        spec.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d.tsv")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()
