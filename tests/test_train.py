"""Training-loop tests: progress, decay, determinism, selection, failure."""

import dataclasses

import numpy as np
import pytest

import pigat.train as train_mod
from pigat.config import TrainConfig
from pigat.data import prepare_dataset
from pigat.errors import NumericError
from pigat.metrics import ScoredSet, auc
from pigat.model import checkpoint_arrays, predict, save_checkpoint
from pigat.synth import SynthSpec, generate
from pigat.train import EpochStats, format_metrics, train, write_metrics


@pytest.fixture(scope="module")
def small_log():
    log, _ = generate(SynthSpec(users=12, items=20, events=200, exponent=1.0, seed=7))
    return log


def small_config(**kw):
    base = dict(
        epochs=3,
        batch_size=64,
        max_neighbors=4,
        user_embed_width=4,
        item_embed_width=4,
        hidden_width=8,
        confidence="ce",
        attention="dot",
        seed=3,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestProgress:
    def test_loss_decreases(self, small_log):
        cfg = small_config(epochs=6)
        result = train(cfg, prepare_dataset(small_log, cfg))
        losses = [st.train_loss for st in result.history]
        assert losses[-1] < losses[0]

    def test_history_covers_every_epoch(self, small_log):
        cfg = small_config(epochs=4)
        result = train(cfg, prepare_dataset(small_log, cfg))
        assert [st.epoch for st in result.history] == [1, 2, 3, 4]

    def test_overfit_smoke(self, small_log):
        cfg = small_config(epochs=60, learning_rate=5e-3, hidden_width=16)
        result = train(cfg, prepare_dataset(small_log, cfg))
        assert result.history[-1].train_loss < 0.45


class TestDecay:
    def test_step_schedule(self, small_log):
        cfg = small_config(epochs=5, learning_rate=0.01, decay_rate=0.5, decay_every=2)
        result = train(cfg, prepare_dataset(small_log, cfg))
        lrs = [st.lr for st in result.history]
        assert lrs == [0.01, 0.01, 0.005, 0.005, 0.0025]

    def test_rate_one_is_constant(self, small_log):
        cfg = small_config(epochs=4, decay_rate=1.0)
        result = train(cfg, prepare_dataset(small_log, cfg))
        assert all(st.lr == cfg.learning_rate for st in result.history)

    def test_every_epoch_decay(self, small_log):
        cfg = small_config(epochs=3, learning_rate=0.008, decay_rate=0.25, decay_every=1)
        result = train(cfg, prepare_dataset(small_log, cfg))
        assert [st.lr for st in result.history] == [0.008, 0.002, 0.0005]


class TestDeterminism:
    def test_same_config_same_history(self, small_log):
        cfg = small_config(dropout=0.2)
        data = prepare_dataset(small_log, cfg)
        a = train(cfg, data)
        b = train(cfg, data)
        assert format_metrics(a.history) == format_metrics(b.history)

    def test_same_config_same_checkpoint_bytes(self, small_log, tmp_path):
        cfg = small_config()
        data = prepare_dataset(small_log, cfg)
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(str(pa), train(cfg, data).params)
        save_checkpoint(str(pb), train(cfg, data).params)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_history(self, small_log):
        data = prepare_dataset(small_log, small_config())
        a = train(small_config(seed=1), data)
        b = train(small_config(seed=2), data)
        assert format_metrics(a.history) != format_metrics(b.history)


class TestBestEpoch:
    def test_best_matches_history_max(self, small_log):
        cfg = small_config(epochs=6)
        result = train(cfg, prepare_dataset(small_log, cfg))
        best = max(st.val_auc for st in result.history)
        assert result.best_val_auc == best
        assert result.history[result.best_epoch - 1].val_auc == best

    def test_ties_go_to_first_epoch(self, small_log):
        cfg = small_config(epochs=6)
        result = train(cfg, prepare_dataset(small_log, cfg))
        first = next(st.epoch for st in result.history if st.val_auc == result.best_val_auc)
        assert result.best_epoch == first

    def test_returned_params_reproduce_best_val_auc(self, small_log):
        cfg = small_config(epochs=6)
        data = prepare_dataset(small_log, cfg)
        result = train(cfg, data)
        probs = predict(result.params, data.val)
        score = auc(ScoredSet(probs, data.val.labels, data.degrees_for(data.val)))
        assert score == result.best_val_auc

    def test_returned_params_are_the_best_epochs_bytes(self, small_log):
        cfg = small_config(epochs=6)
        data = prepare_dataset(small_log, cfg)
        result = train(cfg, data)
        assert result.best_epoch < cfg.epochs  # later epochs overwrote the best one
        cut = train(dataclasses.replace(cfg, epochs=result.best_epoch), data)
        ours, theirs = checkpoint_arrays(result.params), checkpoint_arrays(cut.params)
        assert ours.keys() == theirs.keys()
        assert all(ours[name].tobytes() == theirs[name].tobytes() for name in ours)


class TestNanAbort:
    def test_non_finite_loss_raises_with_location(self, small_log, monkeypatch):
        cfg = small_config()
        data = prepare_dataset(small_log, cfg)
        real = train_mod.bce_loss
        calls = {"n": 0}

        def poisoned(prob, labels):
            calls["n"] += 1
            return float("nan") if calls["n"] == 2 else real(prob, labels)

        monkeypatch.setattr(train_mod, "bce_loss", poisoned)
        with pytest.raises(NumericError) as err:
            train(cfg, data)
        msg = str(err.value)
        assert "epoch 1" in msg and "batch 1" in msg
        assert "=" in msg  # carries parameter norms for the postmortem


def read_metrics(path) -> list[EpochStats]:
    """Parse metrics.tsv back into epoch records."""
    history = []
    for line in path.read_text(encoding="utf-8").splitlines():
        epoch, loss, val_auc, lr = line.split("\t")
        history.append(EpochStats(int(epoch), float(loss), float(val_auc), float(lr)))
    return history


class TestMetricsFile:
    def test_round_trip(self, tmp_path):
        history = [
            EpochStats(1, 0.6931471805599453, 0.5, 0.001),
            EpochStats(2, 0.25, 2 / 3, 0.0005),
        ]
        path = tmp_path / "metrics.tsv"
        write_metrics(str(path), history)
        assert read_metrics(path) == history

    def test_format_is_headerless_tsv(self):
        text = format_metrics([EpochStats(1, 0.5, 0.75, 0.001)])
        assert text == "1\t0.5\t0.75\t0.001\n"

    def test_repr_floats_survive_exactly(self, tmp_path, small_log):
        cfg = small_config()
        result = train(cfg, prepare_dataset(small_log, cfg))
        path = tmp_path / "metrics.tsv"
        write_metrics(str(path), result.history)
        back = read_metrics(path)
        for ours, theirs in zip(result.history, back):
            assert ours.train_loss == theirs.train_loss
            assert ours.val_auc == theirs.val_auc
            assert ours.lr == theirs.lr
