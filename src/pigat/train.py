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
    TABLES,
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


def _group(name: str) -> str:
    """The parameter group of a named parameter: tables, conf_*, att_*, integrate or mlp."""
    if name in TABLES:
        return "tables"
    if name.startswith(("conf_", "att_")):
        return name.split("_")[0] + "_*"
    return "mlp" if name.startswith("mlp.") else "integrate"


def _group_norms(params: PigatParams) -> str:
    """The L2 norm of each parameter group's values, groups in layout order."""
    squares: dict[str, float] = {}
    for name, arr in named_parameters(params).items():
        squares[_group(name)] = squares.get(_group(name), 0.0) + float(np.vdot(arr, arr))
    return ", ".join(f"{group}={np.sqrt(total):.3e}" for group, total in squares.items())


def _non_finite(params: PigatParams, rows: dict[str, np.ndarray]) -> str | None:
    """The first parameter whose gradient in params.grads holds a NaN or an infinity, or None.

    Table rows outside `rows` are +0.0, so only the touched rows are checked.
    """
    if np.isfinite(params.dense_grad).all() and all(np.isfinite(params.grads[n][r]).all() for n, r in rows.items()):
        return None
    return next(name for name, grad in params.grads.items() if not np.isfinite(grad).all())


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
    # Adam updates the tables row-sparsely and every other parameter as one flat vector.
    arrays = {name: params.views[name] for name in TABLES} | {"dense": params.dense}
    adam_grads = {name: params.grads[name] for name in TABLES} | {"dense": params.dense_grad}
    result = TrainResult(params=params)
    # The store of the best epoch so far, kept only while a later epoch may
    # overwrite it.
    best: np.ndarray | None = None
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
                    f"parameter norms by group: {_group_norms(params)}"
                )
            loss_sum += loss * len(batch)
            backward(params, state)
            rows = touched_rows(params)
            bad = _non_finite(params, rows)
            if bad is not None:
                raise NumericError(
                    f"non-finite gradient at epoch {epoch}, batch {batch_idx}: {bad} (group {_group(bad)})"
                )
            adam_step(adam, arrays, adam_grads, rows)
            # Freed before the next forward, so one step's arrays are alive at a time.
            del batch, state
        train_loss = loss_sum / n

        val_probs = predict(params, data.val)
        val_auc = auc(ScoredSet(val_probs, data.val.labels, data.degrees_for(data.val)))
        result.history.append(EpochStats(epoch, float(train_loss), float(val_auc), lr))

        if result.best_epoch == 0 or val_auc > result.best_val_auc:
            result.best_epoch = epoch
            result.best_val_auc = float(val_auc)
            best = params.store.copy() if epoch < config.epochs else None

    if best is not None:
        np.copyto(params.store, best)
    return result


def format_metrics(history: list[EpochStats]) -> str:
    lines = [f"{st.epoch}\t{st.train_loss!r}\t{st.val_auc!r}\t{st.lr!r}\n" for st in history]
    return "".join(lines)


def write_metrics(path: str, history: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_metrics(history))
