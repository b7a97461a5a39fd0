"""Ranking evaluation: MRR, Recall@{1,5,10} and Mean Rank of the ground truth.

Rank ties are counted pessimistically (every tied competitor outranks the
ground truth), which keeps the metrics exactly reproducible; the report says
so for anyone comparing against other tie conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DialogScorer, RoundExample, examples_from_dataset


@dataclass
class MetricsReport:
    mrr: float
    r_at_1: float
    r_at_5: float
    r_at_10: float
    mean_rank: float
    n: int
    tie_policy: str = "pessimistic"


def rank_of_gt(scores, gt_index: int) -> int:
    """1 + number of competitors scoring >= the ground truth."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    if not 0 <= gt_index < s.size:
        raise IndexError(f"gt_index {gt_index} out of range for {s.size} scores")
    return int(np.count_nonzero(s >= s[gt_index]))


def compute_metrics(ranks) -> MetricsReport:
    r = np.asarray(list(ranks), dtype=np.float64)
    return MetricsReport(
        mrr=float((1.0 / r).mean()),
        r_at_1=float((r <= 1).mean() * 100.0),
        r_at_5=float((r <= 5).mean() * 100.0),
        r_at_10=float((r <= 10).mean() * 100.0),
        mean_rank=float(r.mean()),
        n=int(r.size),
    )


def evaluate_examples(model: DialogScorer, examples: list[RoundExample],
                      rank_log=None) -> MetricsReport:
    """Eval-mode scoring of every example; optionally logs one line per round."""
    if not examples:
        raise ValueError("no rounds to evaluate")
    ranks = []
    for ex in examples:
        scored = model.score_example(ex)
        rank = rank_of_gt(scored.scores, ex.gt_index)
        ranks.append(rank)
        if rank_log is not None:
            rank_log.write(f"{ex.image_id} {ex.round_no} {rank} {ex.gt_index}\n")
    return compute_metrics(ranks)


def evaluate_model(model: DialogScorer, dataset, features, task: str,
                   rank_log_path=None) -> MetricsReport:
    """Evaluate a checkpointed model on a dataset split."""
    if task != model.task:
        raise ValueError(f"checkpoint was trained for task {model.task!r}, asked for {task!r}")
    examples = examples_from_dataset(dataset, features, task, model.variant, model.dims)
    if rank_log_path is None:
        return evaluate_examples(model, examples)
    with open(rank_log_path, "w", encoding="utf-8") as log:
        return evaluate_examples(model, examples, rank_log=log)
