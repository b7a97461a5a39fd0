"""Joint similarity scoring and feature fusion.

Each candidate is scored independently: the context blocks and one option
embedding are concatenated into a single row and pushed through an MLP whose
hidden layers are linear -> batch norm -> ReLU and whose final layer is a
plain linear map to one scalar (normalizing the scalar would destroy the
ordering information between candidates).

Train mode norms over all rows of a call jointly. Eval mode norms with the
running statistics and pushes each row through its own 1-row products, so a
candidate's eval score is independent of which candidates are scored
alongside it: a row of a BLAS product is not bitwise independent of the row
count, even for two rows or more (model.py has the measurements).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass
class ScoredOptions:
    scores: np.ndarray

    @classmethod
    def from_scores(cls, scores) -> "ScoredOptions":
        s = np.asarray(scores, dtype=np.float64).ravel()
        if s.size < 1:
            raise ValueError("cannot score an empty option set")
        nn.ensure_finite("option scores", s)
        return cls(scores=s)


class FusionMlp:
    """Scoring MLP with one or two hidden layers of floor(input/2),
    floor(input/4) units."""

    def __init__(self, input_dim: int, depth: int, rng=None, name: str = "mlp"):
        if depth not in (1, 2):
            raise ValueError(f"mlp depth must be 1 or 2, got {depth}")
        self.input_dim = input_dim
        self.depth = depth
        widths = [input_dim, input_dim // 2]
        if depth == 2:
            widths.append(input_dim // 4)
        self.hidden_sizes = widths[1:]
        self.hidden = []
        self.norms = []
        for i in range(depth):
            self.hidden.append(nn.Linear(widths[i], widths[i + 1], rng, name=f"{name}.h{i}"))
            self.norms.append(nn.BatchNorm1d(widths[i + 1], name=f"{name}.h{i}.bn"))
        self.out = nn.Linear(widths[-1], 1, rng, name=f"{name}.out")

    def score_rows(self, rows: np.ndarray, train: bool, update_running: bool = True):
        """rows: [N, input_dim] -> (scores [N], cache). In train mode the
        batch-norm statistics are taken over all N rows jointly; eval mode
        scores one row at a time and returns no cache."""
        if not train:
            scores = np.empty(len(rows))
            for i in range(len(rows)):
                scores[i] = self._forward(rows[i : i + 1], False)[0][0]
            return scores, None
        return self._forward(rows, True, update_running)

    def _forward(self, x, train, update_running=True):
        caches = []
        for lin, bn in zip(self.hidden, self.norms):
            z, lin_cache = lin.forward(x)
            h, bn_cache = bn.forward(z, train=train, update_running=update_running)
            x, relu_cache = nn.relu(h)
            caches.append((lin_cache, bn_cache, relu_cache))
        scores, out_cache = self.out.forward(x)
        return scores[:, 0], (caches, out_cache)

    def backward_rows(self, cache, dscores: np.ndarray) -> np.ndarray:
        caches, out_cache = cache
        dx = self.out.backward(out_cache, np.asarray(dscores, dtype=np.float64)[:, None])
        for (lin_cache, bn_cache, relu_cache), lin, bn in zip(
            reversed(caches), reversed(self.hidden), reversed(self.norms)
        ):
            dh = nn.relu_backward(relu_cache, dx)
            dz = bn.backward(bn_cache, dh)
            dx = lin.backward(lin_cache, dz)
        return dx

    def parameters(self) -> dict[str, nn.Parameter]:
        out: dict[str, nn.Parameter] = {}
        for lin, bn in zip(self.hidden, self.norms):
            for p in lin.parameters() + bn.parameters():
                out[p.name] = p
        for p in self.out.parameters():
            out[p.name] = p
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for i, bn in enumerate(self.norms):
            out[f"mlp.h{i}.bn.running_mean"] = bn.running_mean
            out[f"mlp.h{i}.bn.running_var"] = bn.running_var
        return out
