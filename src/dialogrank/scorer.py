"""Joint similarity scoring and feature fusion.

Each candidate is scored independently: the context blocks and one option
embedding form one row for an MLP whose hidden layers are linear -> batch
norm -> ReLU and whose final layer is a plain linear map to one scalar
(normalizing the scalar would destroy the ordering between candidates).

The first layer is linear before its norm, so it splits by weight columns
("late fusion"): ``z = ctx[e] @ W_ctx.T + opt[o] @ W_opt.T + b`` with column
views of the one ``mlp.h0.weight``, the context term once per example and the
option term once per distinct option. Its backward sums ``dz`` per example
and per distinct option before the weight-gradient products; the context one
is added in row blocks of about ``nn.BLOCK`` elements, never as one array.

Train mode norms over all rows of a call jointly. Eval mode norms with the
running statistics and runs each product on fixed row blocks (``nn.project``):
the context term, one row per example, one row per product; the option term,
the later layers and the output, whose rows are candidates, on blocks of
``nn.ROWS`` rows, which hold a round's 100 candidates. So an eval score is
bitwise independent of which candidates and examples are scored with it
(model.py has the BLAS measurements behind this rule).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

MLP_DEPTHS = (1, 2)  # hidden layers the scoring MLP may have


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
    floor(input/4) units. ``layers`` holds them in registry order:
    ``mlp.h0``, ``mlp.h0.bn``, ..., ``mlp.out``."""

    def __init__(self, input_dim: int, depth: int, rng=None):
        if depth not in MLP_DEPTHS:
            raise ValueError(f"mlp depth must be 1 or 2, got {depth}")
        self.input_dim = input_dim
        widths = [input_dim, input_dim // 2]
        if depth == 2:
            widths.append(input_dim // 4)
        self.hidden_sizes = widths[1:]
        self.layers = []
        for i in range(depth):
            self.layers += [nn.Linear(widths[i], widths[i + 1], rng, name=f"mlp.h{i}"),
                            nn.BatchNorm1d(widths[i + 1], name=f"mlp.h{i}.bn")]
        self.layers.append(nn.Linear(widths[-1], 1, rng, name="mlp.out"))

    def forward(self, ctx: np.ndarray, opts: np.ndarray, offsets, option_of_row,
                train: bool):
        """Scores [N] of the rows ``ctx[e] | opts[option_of_row[r]]``, r in
        ``offsets[e] : offsets[e + 1]``, and the cache for backward (None in eval)."""
        h0, split = self.layers[0], ctx.shape[1]
        W = h0.weight.value
        rows = None if train else nn.ROWS
        z = nn.project(opts, W[:, split:], rows)[option_of_row]
        ctx_z = nn.project(ctx, W[:, :split], None if train else 1)  # a row per example
        z += np.repeat(ctx_z, np.diff(offsets), axis=0)
        z += h0.bias.value
        caches = []
        for bn, lin in zip(self.layers[1::2], self.layers[2::2]):
            h, bn_cache = bn.forward(z, train=train)
            x, relu_cache = nn.relu(h)
            z, lin_cache = lin.forward(x, rows)
            caches.append((bn_cache, relu_cache, lin_cache))
        cache = (ctx, opts, offsets, option_of_row, caches) if train else None
        return z[:, 0], cache

    def backward(self, cache, dscores: np.ndarray):
        """Backward of a train-mode forward; returns (dctx [B, Dc], dopts [U, Do])."""
        ctx, opts, offsets, option_of_row, caches = cache
        dz = np.asarray(dscores, dtype=np.float64)[:, None]
        for (bn_cache, relu_cache, lin_cache), bn, lin in zip(
            reversed(caches), reversed(self.layers[1::2]), reversed(self.layers[2::2])
        ):
            dz = bn.backward(bn_cache, nn.relu_backward(relu_cache, lin.backward(lin_cache, dz)))
        dz_ctx = np.add.reduceat(dz, offsets[:-1], axis=0)  # each example's rows summed
        dz_opt = np.zeros((len(opts), dz.shape[1]))
        np.add.at(dz_opt, option_of_row, dz)  # each distinct option's rows summed
        h0, split = self.layers[0], ctx.shape[1]
        rows = max(1, nn.BLOCK // split)
        for i in range(0, h0.out_dim, rows):
            h0.weight.grad[i : i + rows, :split] += dz_ctx[:, i : i + rows].T @ ctx
        h0.weight.grad[:, split:] += dz_opt.T @ opts
        h0.bias.grad += dz.sum(axis=0)
        return dz_ctx @ h0.weight.value[:, :split], dz_opt @ h0.weight.value[:, split:]
