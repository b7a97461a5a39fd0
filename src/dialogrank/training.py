"""Minibatch training with Adam, validation-based stopping and checkpointing.

The checkpoint file is the only copy of the best state: each epoch whose
validation MRR beats every earlier one is saved to ``<out>.tmp`` and moved onto
``out`` with ``os.replace``, so ``out`` always holds a whole checkpoint of the
best epoch so far. That file is the run's result: ``train`` returns only its
epoch logs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .checkpoint import save_checkpoint
from .encoders import ModelDims
from .metrics import MetricsReport, evaluate_examples
from .model import DialogScorer, check_model_config, examples_from_dataset


@dataclass
class TrainConfig:
    task: str = "visdial"
    variant: str = "qih"
    mlp_depth: int = 2
    shared_embeddings: bool = True
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 5
    patience: int = 1  # epochs without a validation-MRR improvement before stopping
    seed: int = 0
    grad_clip: float | None = None  # global-norm clip; off unless set
    max_steps: int | None = None  # optional hard cap on Adam steps
    dims: ModelDims | None = None

    def __post_init__(self):
        if self.dims is None:
            self.dims = ModelDims.for_task(self.task)
        check_model_config(self.dims, self.task, self.variant, self.mlp_depth)
        nn.AdamConfig(self.learning_rate)  # the learning rate's rule
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass
class EpochLog:
    epoch: int
    mean_train_loss: float
    steps: int
    val: MetricsReport

    def format_line(self) -> str:
        v = self.val
        return (
            f"epoch {self.epoch} loss {self.mean_train_loss:.4f} "
            f"val_mrr {v.mrr:.4f} val_r1 {v.r_at_1:.2f} val_r5 {v.r_at_5:.2f} "
            f"val_r10 {v.r_at_10:.2f} val_mean_rank {v.mean_rank:.2f}"
        )


def _save_best(model: DialogScorer, out, extra_config) -> None:
    """Save ``model`` to ``<out>.tmp``, then move it onto ``out``: a save that
    fails part-way leaves ``out`` as it was, and no temporary file."""
    tmp = f"{out}.tmp"
    try:
        save_checkpoint(model, tmp, extra_config=extra_config)
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):  # the save or the move failed
            os.remove(tmp)


def _clip_grads(params, max_norm: float) -> None:
    total = 0.0
    for p in params:
        total += float(np.vdot(p.grad, p.grad))  # no full-size temporary
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale


def _check_one_example_batches(cfg: TrainConfig, examples) -> None:
    """Refuse a run that would reach a one-example batch in which a train-mode
    batch norm gets one row: each training example must give two, to
    ``history.bn`` (one row per history slot, so two slots at qih) and to every
    ``mlp.h*.bn`` (one row per option, so two options). The epoch shuffle
    decides which example lands alone, so any example counts. Each epoch's last
    batch holds what is left of the examples; the first epoch always runs to its
    end unless ``max_steps`` stops it earlier."""
    n = len(examples)
    last = n % cfg.batch_size or cfg.batch_size
    step = 1 if cfg.batch_size == 1 else -(-n // cfg.batch_size)
    if cfg.variant == "qih" and cfg.dims.history_slots == 1:
        one_row = "variant qih at rounds=2 batch-norms one history row per example"
    elif min(len(ex.option_ids) for ex in examples) < 2:  # a loaded round has >= 1
        one_row = "a training example with 1 option gives each mlp.h*.bn one row"
    else:
        return
    if last == 1 and (cfg.max_steps or step) >= step:
        raise ValueError(f"{one_row}, and train mode needs a batch of >= 2 rows: "
                         f"batch_size={cfg.batch_size} over {n} training examples gives a "
                         f"one-example batch at step {step}")


def train(train_set, val_set, features, cfg: TrainConfig, out, extra_config=None,
          log_fn=None) -> list[EpochLog]:
    """Train a scorer, write its best-validation-MRR state to the checkpoint
    ``out`` (with ``extra_config`` in its manifest) and return the epoch logs.

    ``out`` is rewritten at each improving epoch, so a run that fails after its
    first validation leaves there a whole checkpoint of its best epoch so far;
    one that fails before it writes nothing. ``load_checkpoint(out,
    adam_state=True)`` gives the best state back, writable and with its Adam
    moments.

    Every run is a pure function of (datasets, features, config): the model
    init, the per-epoch example shuffles and everything downstream are driven
    by seeded generators.
    """
    train_examples = examples_from_dataset(train_set, features, cfg.task, cfg.variant, cfg.dims)
    if not train_examples:
        raise ValueError("training set produced no examples")
    val_examples = examples_from_dataset(val_set, features, cfg.task, cfg.variant, cfg.dims)
    if not val_examples:
        raise ValueError("validation set produced no examples")
    _check_one_example_batches(cfg, train_examples)

    model = DialogScorer(
        cfg.dims, train_set.vocab, task=cfg.task, variant=cfg.variant,
        mlp_depth=cfg.mlp_depth, shared_embeddings=cfg.shared_embeddings,
        init_seed=cfg.seed,
    )
    params = list(model.parameters().values())
    adam = nn.AdamConfig(learning_rate=cfg.learning_rate)

    logs: list[EpochLog] = []
    best_mrr = -np.inf
    stale_epochs = 0
    steps_done = 0
    out_of_steps = False

    for epoch in range(1, cfg.max_epochs + 1):
        order = np.random.default_rng([cfg.seed, epoch]).permutation(len(train_examples))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_examples[i] for i in order[start : start + cfg.batch_size]]
            losses.append(model.batch_loss(batch))
            if cfg.grad_clip is not None:
                _clip_grads(params, cfg.grad_clip)
            nn.adam_step(params, adam)
            steps_done += 1
            if cfg.max_steps is not None and steps_done >= cfg.max_steps:
                out_of_steps = True
                break
        model.freeze()  # the validation pass encodes each distinct text once
        try:
            val_report = evaluate_examples(model, val_examples)
        finally:
            model.thaw()
        entry = EpochLog(epoch=epoch, mean_train_loss=float(np.mean(losses)),
                         steps=steps_done, val=val_report)
        logs.append(entry)
        if log_fn is not None:
            log_fn(entry.format_line())
        if val_report.mrr > best_mrr:
            best_mrr = val_report.mrr
            _save_best(model, out, extra_config)
            stale_epochs = 0
        else:
            stale_epochs += 1
        if out_of_steps or stale_epochs >= cfg.patience:
            break

    return logs
