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

In eval the context term is a sum of one term per input block (``spans``: the
query, the image with the caption, each history slot), added in block order.
A block's term depends on that block's input alone, so a frozen model
remembers it in its ``EncodingMemo`` under the block and the input's bytes: a
round that shares its image, caption and earlier history with one already
scored runs the products of its new blocks only. Train keeps one product over
the whole context. The candidate rows' elementwise stages (bias, batch norm,
ReLU) run in place on blocks of about ``nn.BLOCK`` elements, each block through
every stage of a layer before the next, so a [100, 3200] activation streams
through memory once per layer, not once per stage.
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
        nn.ensure_finite("option scores", s)
        return cls(scores=s)


class FusionMlp:
    """Scoring MLP with one or two hidden layers of floor(input/2),
    floor(input/4) units. ``layers`` holds them in registry order:
    ``mlp.h0``, ``mlp.h0.bn``, ..., ``mlp.out``. ``spans`` are the column spans
    of the context blocks, in the order eval sums their terms, which
    ``DialogScorer`` sets once the layers exist (``None``: the whole context is
    one block); ``memo`` is the model's ``EncodingMemo`` while it is frozen,
    else ``None``."""

    def __init__(self, input_dim: int, depth: int, rng=None):
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
        self.spans = None
        self.memo = None

    def forward(self, ctx: np.ndarray, opts: np.ndarray, offsets, option_of_row,
                train: bool):
        """Scores [N] of the rows ``ctx[e] | opts[option_of_row[r]]``, r in
        ``offsets[e] : offsets[e + 1]``, and the cache for backward (None in eval)."""
        if not train:
            return self.candidate_scores(self.context_terms(ctx), opts, offsets,
                                         option_of_row), None
        h0, split = self.layers[0], ctx.shape[1]
        W = h0.weight.value
        z = nn.project(opts, W[:, split:])[option_of_row]
        z += np.repeat(nn.project(ctx, W[:, :split]), np.diff(offsets), axis=0)
        z += h0.bias.value
        caches = []
        for bn, lin in zip(self.layers[1::2], self.layers[2::2]):
            h, bn_cache = bn.forward(z, train=True)
            x, relu_cache = nn.relu(h)
            z, lin_cache = lin.forward(x)
            caches.append((bn_cache, relu_cache, lin_cache))
        return z[:, 0], (ctx, opts, offsets, option_of_row, caches)

    def context_terms(self, ctx: np.ndarray) -> np.ndarray:
        """Eval context terms [B, out] of ``mlp.h0``: per example, the one-row products
        of its context blocks, summed in ``spans`` order. A frozen model remembers each
        block's term under the block and the bytes of the block's input."""
        W = self.layers[0].weight.value
        terms = np.empty((len(ctx), W.shape[0]))
        for row, out in zip(ctx, terms):
            for i, span in enumerate(self.spans or [(0, len(row))]):
                x = row[span[0] : span[1]]
                key = (span, x.tobytes())
                term = None if self.memo is None else self.memo.rows.get(key)
                if term is None:
                    term = nn.project(x[None], W[:, span[0] : span[1]], 1)[0]
                    if self.memo is not None:
                        term = self.memo.add(key, term)
                if i:
                    out += term
                else:
                    out[:] = term
        return terms

    def candidate_scores(self, ctx_z: np.ndarray, opts: np.ndarray, offsets,
                         option_of_row) -> np.ndarray:
        """Eval scores [N] from the context terms ``ctx_z`` [B, out] (``context_terms``).
        Each hidden layer's elementwise stages (for ``mlp.h0`` the option term plus
        the context term, then the bias, batch norm, ReLU) run in place on blocks of
        ``max(1, nn.BLOCK // width)`` rows, each block through every stage before the
        next; each stage rounds per element, so every value is bitwise that of the
        stages over whole arrays."""
        h0 = self.layers[0]
        W = h0.weight.value
        opt_z = nn.project(opts, W[:, W.shape[1] - opts.shape[1] :], nn.ROWS)
        example_of_row = np.repeat(np.arange(len(ctx_z)), np.diff(offsets))
        x = np.empty((len(option_of_row), h0.out_dim))
        for lin, bn in zip(self.layers[:-1:2], self.layers[1::2]):
            if lin is not h0:
                x = nn.project(x, lin.weight.value, nn.ROWS)
            rows = max(1, nn.BLOCK // lin.out_dim)
            for i in range(0, len(x), rows):
                block = x[i : i + rows]
                if lin is h0:
                    np.add(opt_z[option_of_row[i : i + rows]],
                           ctx_z[example_of_row[i : i + rows]], out=block)
                block += lin.bias.value
                block[:] = nn.relu(bn.eval_in_place(block))[0]
        out = self.layers[-1]
        return (nn.project(x, out.weight.value, nn.ROWS) + out.bias.value)[:, 0]

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
