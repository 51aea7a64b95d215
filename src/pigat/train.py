"""Minibatch training loop with Adam, step decay, and best-epoch selection.

All randomness in a run descends from the single config seed: one child
stream each for parameter init, epoch shuffling, and dropout, so runs
with the same config and data are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data import PreparedData
from .errors import NumericError, UndefinedMetricError
from .metrics import ScoredSet, auc
from .model import (
    PigatParams,
    backward,
    bce_loss,
    forward,
    init_params,
    named_parameters,
    predict,
    touched_rows,
)
from .nn import AdamState, adam_step


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float
    lr: float


@dataclass
class TrainResult:
    params: PigatParams
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_auc: float = float("nan")


def _param_norms(params: PigatParams) -> str:
    norms = {name: float(np.linalg.norm(arr)) for name, arr in named_parameters(params).items()}
    top = sorted(norms.items(), key=lambda kv: -kv[1])[:5]
    return ", ".join(f"{name}={value:.3e}" for name, value in top)


def train(config: TrainConfig, data: PreparedData) -> TrainResult:
    config.validate()
    # Epoch selection ranks by validation AUC; fail before the first step,
    # not after an epoch, when the split cannot define it.
    n_pos = int(data.val.labels.sum())
    if n_pos in (0, len(data.val)):
        raise UndefinedMetricError(
            f"the validation split needs both classes to select an epoch, "
            f"got {n_pos} positives among {len(data.val)} instances"
        )
    init_ss, shuffle_ss, dropout_ss = np.random.SeedSequence(config.seed).spawn(3)
    params = init_params(np.random.default_rng(init_ss), data.schema, config)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    adam = AdamState(learning_rate=config.learning_rate, l2=config.l2)
    result = TrainResult(params=params)
    # Parameter arrays of the best epoch so far, kept only while a later
    # epoch may overwrite them.
    best: dict[str, np.ndarray] | None = None
    n = len(data.train)

    for epoch in range(1, config.epochs + 1):
        lr = config.learning_rate * config.decay_rate ** ((epoch - 1) // config.decay_every)
        adam.learning_rate = lr

        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for batch_idx, start in enumerate(range(0, n, config.batch_size)):
            batch = data.train.take(order[start : start + config.batch_size])
            state = forward(params, batch, mode="train", rng=dropout_rng)
            loss = bce_loss(state.prob, batch.labels)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_idx}; "
                    f"largest parameter norms: {_param_norms(params)}"
                )
            loss_sum += loss * len(batch)
            grads = backward(params, state, batch.labels)
            adam_step(adam, named_parameters(params), grads, touched_rows(params))
        train_loss = loss_sum / n

        val_probs = predict(params, data.val)
        val_auc = auc(ScoredSet(val_probs, data.val.labels, data.degrees_for(data.val)))
        result.history.append(EpochStats(epoch, float(train_loss), float(val_auc), lr))

        if result.best_epoch == 0 or val_auc > result.best_val_auc:
            result.best_epoch = epoch
            result.best_val_auc = float(val_auc)
            if epoch < config.epochs:
                best = {name: arr.copy() for name, arr in named_parameters(params).items()}
            else:
                best = None

    if best is not None:
        for name, arr in named_parameters(params).items():
            np.copyto(arr, best[name])
    return result


def format_metrics(history: list[EpochStats]) -> str:
    lines = [f"{st.epoch}\t{st.train_loss!r}\t{st.val_auc!r}\t{st.lr!r}\n" for st in history]
    return "".join(lines)


def write_metrics(path: str, history: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_metrics(history))
