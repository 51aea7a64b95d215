"""Variant-grid tests: matrix parsing, override handling, result rows."""

import numpy as np
import pytest

from pigat import ablation
from pigat.ablation import (
    LONGTAIL_CUTS,
    AblationRow,
    format_results,
    read_matrix,
    run_ablation,
    write_results,
)
from pigat.config import TrainConfig, config_from_pairs
from pigat.data import prepare_dataset
from pigat.errors import DataError, UsageError
from pigat.features import ITEM, USER
from pigat.synth import SynthSpec, generate


@pytest.fixture(scope="module")
def small_log():
    log, _ = generate(SynthSpec(users=12, items=20, events=200, seed=9))
    return log


def base_config():
    return TrainConfig(
        epochs=2,
        batch_size=64,
        max_neighbors=4,
        user_embed_width=4,
        item_embed_width=4,
        hidden_width=8,
        attention="dot",
        confidence="none",
    )


class TestMatrixFile:
    def test_sections_become_variants(self, tmp_path):
        path = tmp_path / "matrix.ini"
        path.write_text("[a]\npooling = average\n\n[b]\nconfidence = ce\nepochs = 3\n")
        matrix = read_matrix(str(path))
        assert matrix == {"a": {"pooling": "average"}, "b": {"confidence": "ce", "epochs": "3"}}

    def test_keys_stay_case_sensitive(self, tmp_path):
        path = tmp_path / "matrix.ini"
        path.write_text("[a]\nmax_neighbors = 6\n")
        assert read_matrix(str(path)) == {"a": {"max_neighbors": "6"}}

    def test_percent_sign_is_kept_raw(self, tmp_path):
        path = tmp_path / "matrix.ini"
        path.write_text("[a]\nlearning_rate = 5%\n")
        assert read_matrix(str(path)) == {"a": {"learning_rate": "5%"}}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "matrix.ini"
        path.write_text("# nothing here\n")
        with pytest.raises(UsageError):
            read_matrix(str(path))

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "matrix.ini"
        path.write_text("pooling = average\n")  # key before any section
        with pytest.raises(DataError):
            read_matrix(str(path))


class TestOverrides:
    def test_replaces_named_fields_only(self):
        cfg = config_from_pairs({"pooling": "average", "epochs": "5"}, base_config())
        assert cfg.pooling == "average"
        assert cfg.epochs == 5
        assert cfg.attention == "dot"

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            config_from_pairs({"poolin": "average"}, base_config())

    def test_bad_value_rejected(self):
        with pytest.raises(DataError):
            config_from_pairs({"epochs": "many"}, base_config())

    def test_invalid_combination_rejected(self):
        with pytest.raises(DataError):
            config_from_pairs({"attention": "telepathy"}, base_config())


class TestRunGrid:
    def test_rows_per_variant_and_summaries(self, small_log):
        matrix = {"att": {}, "avg": {"pooling": "average"}}
        rows = run_ablation(base_config(), matrix, small_log, seeds=(0, 1))
        kinds = [(r.label, r.kind) for r in rows]
        assert kinds == [
            ("att", "run"), ("att", "run"), ("att", "mean"), ("att", "std"),
            ("avg", "run"), ("avg", "run"), ("avg", "mean"), ("avg", "std"),
        ]
        att = [r for r in rows if r.label == "att" and r.kind == "run"]
        mean = next(r for r in rows if r.label == "att" and r.kind == "mean")
        assert mean.auc == pytest.approx(sum(r.auc for r in att) / 2)

    def test_seed_is_stamped_per_run(self, small_log):
        rows = run_ablation(base_config(), {"a": {}}, small_log, seeds=(4, 7))
        assert [r.seed for r in rows if r.kind == "run"] == [4, 7]

    def test_failures_recorded_not_fatal(self, small_log):
        matrix = {"bad": {"attention": "telepathy"}, "good": {}}
        rows = run_ablation(base_config(), matrix, small_log, seeds=(0,))
        bad = [r for r in rows if r.label == "bad"]
        assert [r.kind for r in bad] == ["failed"]  # no summary rows without runs
        assert "telepathy" in bad[0].note
        good = [r for r in rows if r.label == "good"]
        assert [r.kind for r in good] == ["run", "mean", "std"]

    def test_variant_that_sets_seed_fails_per_seed(self, small_log):
        rows = run_ablation(base_config(), {"a": {"seed": "7"}}, small_log, seeds=(0, 1))
        assert [(r.seed, r.kind) for r in rows] == [(0, "failed"), (1, "failed")]
        assert all("'seed'" in r.note for r in rows)

    def test_empty_matrix_rejected(self, small_log):
        with pytest.raises(UsageError):
            run_ablation(base_config(), {}, small_log)


class TestPreparedDataCache:
    def test_variants_get_data_prepared_for_their_own_config(self, small_log, monkeypatch):
        seen = []

        def record(config, data):
            seen.append((config, data))
            return 0.5, {k: None for k in LONGTAIL_CUTS}

        monkeypatch.setattr(ablation, "_evaluate", record)
        matrix = {
            "base": {},
            "user": {"user_embed_width": "8"},
            "item": {"item_embed_width": "8"},
            "positives": {"include_negative_neighbors": "false"},
        }
        rows = run_ablation(base_config(), matrix, small_log, seeds=(0,))
        assert [r.kind for r in rows if r.seed is not None] == ["run"] * 4
        assert len(seen) == 4
        for config, data in seen:
            fresh = prepare_dataset(small_log, config)
            assert data.schema.widths == {USER: config.user_embed_width, ITEM: config.item_embed_width}
            for split in ("train", "val", "test"):
                np.testing.assert_equal(vars(getattr(data, split)), vars(getattr(fresh, split)))


class TestResultsTable:
    def test_header_and_na_cells(self, tmp_path):
        rows = [
            AblationRow("a", 0, "run", 0.75, {3: None, 5: 0.5, 10: 0.625}, 1.0),
            AblationRow("a", None, "mean", 0.75, {3: None, 5: 0.5, 10: 0.625}, 1.0),
        ]
        path = tmp_path / "results.tsv"
        write_results(str(path), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "variant\tseed\tkind\tauc\tauc_le3\tauc_le5\tauc_le10\tseconds\tnote"
        cells = lines[1].split("\t")
        assert cells[:5] == ["a", "0", "run", "0.75", "na"]
        assert lines[2].split("\t")[1] == ""  # summary rows have no seed

    def test_failed_row_renders(self):
        rows = [AblationRow("x", 2, "failed", None, {3: None, 5: None, 10: None}, 0.5, note="boom")]
        text = format_results(rows)
        assert "x\t2\tfailed\tna\tna\tna\tna\t0.50\tboom" in text
