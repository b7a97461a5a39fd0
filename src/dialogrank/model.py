"""End-to-end ranking model: text paths and the history pair-combine feeding
the fusion scorer.

One forward pass, ``DialogScorer.batch_forward``, serves training and
evaluation; ``score_example`` is ``batch_forward([ex], train=False)``. It
encodes the queries, captions, history slots (``DialogScorer.encode_histories``)
and distinct option sequences, stacks each example's context (query | image |
caption | history) and scores it against its options with the late-fusion MLP
(scorer.py), so the fused rows are never built.

Each text path encodes each distinct sequence once (``TextPath.encode``; in
train a repeat's gradient sums into its encoding), in at most one packed LSTM
call, and the MLP's option term runs once per distinct option. Train mode
batch-norms across the step. Eval mode uses the running statistics and runs
every matrix product on fixed row blocks, zero-padding the last
(``nn.project``), so a candidate's score does not depend on which candidates or
examples are scored with it; the elementwise stages (bias, norm, ReLU, gates)
are exactly rounded per element. The block height follows what the rows are,
never how many there are:
- one row per product for rows that are one per example: the query and
  caption LSTMs and each input block's ``mlp.h0`` context term (for
  ``score_example``, one unpadded product each);
- ``nn.SEQ_ROWS`` = 32 rows for the LSTM products (input and hidden terms) of
  sequences that come many per example: the option and history LSTMs. A
  round's first-seen options and history pairs are a few dozen short texts,
  so a 100-row block would be mostly padding at every step;
- ``nn.ROWS`` = 100 rows for the other rows that come many per example:
  ``history.combine``, the ``mlp.h0`` option term, ``mlp.h1`` and
  ``mlp.out``, so a round's 100 candidates fill one block and each weight is
  packed once per round (OpenBLAS packs the whole weight on every GEMM call).
The row count matters: on OpenBLAS 0.3.31 (Haswell kernels, numpy 2.4.6,
2 CPUs) the rows of ``X @ W.T`` change in their last bits with the row count M
of ``X`` even for M >= 2 (``[M, 1600] @ [1600, 1]``, the MLP output layer, at
71 of M = 2..99; ``[M, 256] @ [256, 128]``, the pair-combine layer, at every
M <= 8). With M fixed, each row was bitwise the same whatever its position in
the block and whatever its block-mates, for M = 1, 8, 16, 32, 64, 100, 112 and
128, 20 permutations and 20 sets of random block-mates, on every eval product
shape and with 1 and 2 BLAS threads; ``tests/test_nn.py::test_block_property``
checks this at every height the model runs each product at. Paper-dims K=100
eval scores stay within 1.5e-14, relative to the largest, of one row per
product over whole fused rows and one sequence per LSTM call (1.46e-14 over
30 rounds with the context term summed over its input blocks, 1.02e-14 with
it as one product), and a round took 0.113 s (2-CPU Xeon, one BLAS thread)
against 0.229 s with every product on 16-row blocks. A height
swept over 64, 100, 112 and 128 gave 8.7, 9.5, 8.6 and 8.4 rounds/s on the
``eval-paper`` benchmark. With ``nn.ROWS`` at 100, ``nn.SEQ_ROWS`` swept over
16, 24, 32, 48, 64 and 100 gave median rounds of 74, 75, 70, 70, 83 and 97 ms
(in-process, seed-1 ``eval-paper`` rounds with a fresh memo, three alternated
passes): one ``[h, 512] @ [512, 2048]`` hidden-term block costs about 0.75 ms
of weight packing plus 0.025 ms per row (1.45 ms at 32 rows, 3.28 ms at 100),
and the bench round's first-seen options hold about 4 tokens each. A BLAS that
broke the property would need a reproducible summation order (Demmel & Nguyen,
ARITH 2013), not a looser test.

A frozen model (``freeze``, as every default ``checkpoint.load_checkpoint``
returns) has read-only values and running statistics, and one
``encoders.EncodingMemo`` holds its eval encodings and its first-layer context
terms, one per input block (``context_spans``), so an eval forward runs the
LSTMs only over texts the model has not encoded yet and the context products
only over blocks it has not seen: in ``unroll`` the answer pool, the image, the
caption and the earlier history come back every round, and eval rounds share
their popular answers and, within a dialog, their image, caption and history.
By the block rule above, a remembered row is bitwise a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field
from itertools import accumulate

import numpy as np

from . import nn
from .encoders import TASKS, VARIANTS, EncodingMemo, ModelDims, TextPath
from .scorer import MLP_DEPTHS, FusionMlp, ScoredOptions
from .text import DialogDataset, ImageFeatureStore, Vocabulary


@dataclass
class RoundExample:
    """One scoring instance: a query round with its candidate set and context."""

    image_id: int
    round_no: int  # 1-based round of the query
    question_ids: list[int]
    option_ids: list[list[int]]
    gt_index: int
    query_answer_ids: list[int] | None = None  # follow-up task: the answer of the pair
    caption_ids: list[int] | None = None
    history: list[tuple[list[int], list[int]]] = field(default_factory=list)
    image_vec: np.ndarray | None = None


def examples_from_dataset(dataset: DialogDataset, features: ImageFeatureStore | None,
                          task: str, variant: str, dims: ModelDims) -> list[RoundExample]:
    """Flatten a dialog dataset into per-round scoring examples.

    Rounds beyond the model horizon are skipped; for the follow-up task only
    rounds carrying candidate follow-up questions become examples."""
    if task == "visdial-q" and dataset.task != "visdial-q":
        raise ValueError("task visdial-q needs a dataset with question options")
    needs_image = variant in ("qi", "qih")
    followup = task == "visdial-q"
    if needs_image:
        if features is None:
            raise ValueError(f"variant {variant} needs image features")
        if features.dim != dims.image_dim:
            raise ValueError(
                f"feature store dimension {features.dim} != configured image_dim {dims.image_dim}"
            )
    q_ids, a_ids = dataset.question_ids, dataset.answer_ids
    out = []
    for record in dataset.records:
        image_vec = features.get(record.image_id) if needs_image else None
        history: list[tuple[list[int], list[int]]] = []
        for t, rnd in enumerate(record.rounds, start=1):
            if t <= dims.rounds and (not followup or rnd.question_options is not None):
                out.append(RoundExample(
                    image_id=record.image_id,
                    round_no=t,
                    question_ids=q_ids[rnd.question],
                    query_answer_ids=a_ids[rnd.answer] if followup else None,
                    option_ids=([q_ids[i] for i in rnd.question_options] if followup else
                                [a_ids[i] for i in rnd.answer_options]),
                    gt_index=rnd.question_gt_index if followup else rnd.gt_index,
                    caption_ids=record.caption_ids,
                    history=list(history),
                    image_vec=image_vec,
                ))
            history.append((q_ids[rnd.question], a_ids[rnd.answer]))
    return out


def check_model_config(dims: ModelDims, task: str, variant: str, mlp_depth: int) -> None:
    """Raise ``ValueError`` unless the settings name a model that can be built
    and trained. ``DialogScorer`` and ``training.TrainConfig`` both apply it."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if mlp_depth not in MLP_DEPTHS:
        raise ValueError(f"mlp depth must be 1 or 2, got {mlp_depth}")
    if variant == "qih" and dims.history_slots < 1:
        raise ValueError(f"variant qih needs rounds >= 2 for its history block, "
                         f"got rounds={dims.rounds}")
    width = dims.fused_dim(variant)
    if width >> mlp_depth < 1:  # the last hidden layer has width // 2**depth units
        raise ValueError(f"mlp depth {mlp_depth} needs a fused width >= {1 << mlp_depth}, "
                         f"got {width} for variant {variant}")


def context_spans(dims: ModelDims, variant: str) -> list[tuple[int, int]]:
    """Column spans of the context's input blocks, in the order eval sums their
    ``mlp.h0`` terms (scorer.py): the query, the image (with the caption for
    qih), then each history slot. A block's term depends on its input alone."""
    widths = [dims.query_hidden]
    if variant != "q":
        widths.append(dims.image_dim + (dims.caption_hidden if variant == "qih" else 0))
    if variant == "qih":
        widths += [dims.history_pair_dim] * dims.history_slots
    edges = [0, *accumulate(widths)]
    return list(zip(edges, edges[1:]))


class DialogScorer:
    """Text paths, history pair-combine and fusion MLP, with a stable
    parameter registry: ``layers`` lists every layer in checkpoint manifest
    order (each path's table, each path's LSTM, ``history.combine`` and
    ``history.bn``, then the MLP's), and ``parameters`` and ``buffers`` walk it.

    With shared embeddings on, one table object serves the query, option,
    caption and both history paths, so its gradients accumulate from all of
    them and Adam updates it once per step.

    ``init_seed`` seeds the He-normal init. ``None`` draws no init and leaves
    every value at its zero (or fixed-bias) default, for a caller that fills
    every value itself, as ``checkpoint.load_checkpoint`` does before it sets
    ``init_seed`` to the recorded seed."""

    def __init__(self, dims: ModelDims, vocab: Vocabulary, task: str = "visdial",
                 variant: str = "qih", mlp_depth: int = 2, shared_embeddings: bool = True,
                 init_seed: int | None = 0):
        check_model_config(dims, task, variant, mlp_depth)
        self.dims = dims
        self.vocab = vocab
        self.task = task
        self.variant = variant
        self.mlp_depth = mlp_depth
        self.shared_embeddings = shared_embeddings
        self.init_seed = init_seed
        rng = None if init_seed is None else np.random.default_rng(init_seed)
        names = ["query", "option"]
        if variant == "qih":
            names += ["caption", "history_q", "history_a"]
        E, V = dims.embed_dim, len(vocab)
        # the random init draws in layer order
        if shared_embeddings:
            tables = [nn.Embedding(E, V, rng, name="embed.shared")] * len(names)
        else:
            tables = [nn.Embedding(E, V, rng, name=f"embed.{n}") for n in names]
        lstms = [nn.LstmEncoder(E, getattr(dims, f"{n}_hidden"), rng, name=f"lstm.{n}")
                 for n in names]
        self.paths = {n: TextPath(table, lstm, 1 if n in ("query", "caption") else nn.SEQ_ROWS)
                      for n, table, lstm in zip(names, tables, lstms)}
        self.layers = tables + lstms
        self.pair_combine = self.pair_bn = None
        if variant == "qih":
            self.pair_combine = nn.Linear(dims.history_q_hidden + dims.history_a_hidden,
                                          dims.history_pair_dim, rng, name="history.combine")
            self.pair_bn = nn.BatchNorm1d(dims.history_pair_dim, name="history.bn")
            self.layers += [self.pair_combine, self.pair_bn]
        self.mlp = FusionMlp(dims.fused_dim(variant), mlp_depth, rng)
        # after the MLP's layers: a size they refuse builds no per-slot span
        self.mlp.spans = context_spans(dims, variant)
        self.layers += self.mlp.layers
        self._token_ids: dict[tuple[str, int], list[int]] = {}  # unroll._token_ids

    # -- registry ------------------------------------------------------------

    def parameters(self) -> dict[str, nn.Parameter]:
        # a shared table is one object under one name, so it has one entry
        return {p.name: p for layer in self.layers for p in layer.parameters()}

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: buf for layer in self.layers if isinstance(layer, nn.BatchNorm1d)
                for name, buf in layer.buffers().items()}

    def config(self) -> dict:
        return {
            "task": self.task,
            "variant": self.variant,
            "mlp_depth": self.mlp_depth,
            "shared_embeddings": self.shared_embeddings,
            "init_seed": self.init_seed,
            "dims": asdict(self.dims),
        }

    def zero_grads(self) -> None:
        for p in self.parameters().values():
            p.zero_grad()

    def _set_writeable(self, flag: bool) -> None:
        for arr in [p.value for p in self.parameters().values()] + list(self.buffers().values()):
            arr.flags.writeable = flag

    def freeze(self) -> None:
        """Make every parameter value and running statistic read-only, so nothing an
        encoding or a first-layer term depends on can change, and give the text paths
        and the MLP one ``EncodingMemo``."""
        self._set_writeable(False)
        memo = EncodingMemo()
        for holder in [*self.paths.values(), self.mlp]:
            holder.memo = memo

    def thaw(self) -> None:
        """Undo ``freeze``: drop the memo and make the values writable again."""
        for holder in [*self.paths.values(), self.mlp]:
            holder.memo = None
        self._set_writeable(True)

    # -- text and history ----------------------------------------------------

    def query_ids(self, question_ids, answer_ids=None) -> list[int]:
        """Query token sequence: the question, or question+answer for follow-ups.

        The answer part is required exactly when the model was built for the
        follow-up-question task; both sub-sequences keep their stop tokens. The
        query path refuses an empty query, as every text path does (``TextPath``).
        """
        if self.task == "visdial":
            if answer_ids is not None:
                raise ValueError("answer part not allowed in the query for answer ranking")
            return list(question_ids)
        if answer_ids is None:
            raise ValueError("follow-up-question ranking queries need the answer part")
        return list(question_ids) + list(answer_ids)

    def empty_pair(self) -> tuple[list[int], list[int]]:
        pad = [self.vocab.empty_id, self.vocab.stop_id]
        return pad, list(pad)

    def encode_histories(self, histories, train: bool):
        """Slot-aligned history blocks [B, (T-1) * pair_dim] of B examples.

        ``histories[e]`` is the chronological list of (question_ids,
        answer_ids) pairs already exchanged before example e's query. History
        is always laid out as T-1 chronological slots, so the block has one
        fixed length per model however deep into the dialog the query sits;
        slots of rounds that do not exist yet hold the ([empty, stop],
        [empty, stop]) pair. Like any repeated text, it is encoded once.

        Each slot row runs through pair-combine FC -> batch norm -> ReLU.
        Train mode batch-norms the B * (T-1) slot rows jointly. Eval mode runs
        the history LSTMs' products on blocks of ``nn.SEQ_ROWS`` rows and the
        pair-combine product on blocks of ``nn.ROWS`` rows (``nn.project``), so a
        row's output depends on that row alone, and keeps no cache.
        """
        slots = self.dims.history_slots
        pairs = []
        for rounds in histories:
            if len(rounds) > slots:
                raise ValueError(f"history holds {len(rounds)} rounds, model fits {slots}")
            pairs += list(rounds) + [self.empty_pair()] * (slots - len(rounds))
        qv, qcache = self.paths["history_q"].encode([q for q, _ in pairs], train)
        av, acache = self.paths["history_a"].encode([a for _, a in pairs], train)
        lin, lin_cache = self.pair_combine.forward(np.concatenate([qv, av], axis=1),
                                                   None if train else nn.ROWS)
        normed, bn_cache = self.pair_bn.forward(lin, train=train)
        combined, relu_cache = nn.relu(normed)
        blocks = combined.reshape(len(histories), self.dims.history_len)
        if not train:
            return blocks, None
        return blocks, (qcache, acache, lin_cache, bn_cache, relu_cache)

    def _backward_histories(self, cache, dblocks: np.ndarray) -> None:
        qcache, acache, lin_cache, bn_cache, relu_cache = cache
        dnormed = nn.relu_backward(relu_cache, dblocks.reshape(-1, self.dims.history_pair_dim))
        dpre = self.pair_combine.backward(lin_cache, self.pair_bn.backward(bn_cache, dnormed))
        split = self.dims.history_q_hidden
        self.paths["history_q"].backward(qcache, dpre[:, :split])
        self.paths["history_a"].backward(acache, dpre[:, split:])

    # -- forward and backward ------------------------------------------------

    def _check_example(self, ex: RoundExample) -> None:
        if not ex.option_ids:
            raise ValueError("example has no options")
        if self.variant in ("qi", "qih"):
            if ex.image_vec is None:
                raise ValueError(f"variant {self.variant} example is missing image features")
            if np.shape(ex.image_vec) != (self.dims.image_dim,):
                raise ValueError(f"image features of shape {np.shape(ex.image_vec)} do not "
                                 f"match the model's image_dim {self.dims.image_dim}")
        if self.variant == "qih" and ex.caption_ids is None:
            raise ValueError("variant qih example is missing the caption")

    def score_example(self, ex: RoundExample) -> ScoredOptions:
        """Eval-mode scoring of one round's candidate set."""
        scores, _ = self.batch_forward([ex], train=False)
        return ScoredOptions.from_scores(scores[0])

    def batch_forward(self, batch: list[RoundExample], train: bool = True):
        """Forward over a minibatch; returns per-example scores and the cache
        bundle for batch_backward. Eval mode (``train=False``) keeps no
        caches, so its bundle cannot be passed to batch_backward."""
        if not batch:
            raise ValueError("empty batch")
        for ex in batch:
            self._check_example(ex)
        offsets = np.concatenate([[0], np.cumsum([len(ex.option_ids) for ex in batch])])
        distinct = {}  # option token tuple -> its row among the option encodings
        option_of_row = np.array([distinct.setdefault(tuple(ids), len(distinct))
                                  for ex in batch for ids in ex.option_ids])
        queries = [self.query_ids(ex.question_ids, ex.query_answer_ids) for ex in batch]
        q_vecs, q_cache = self.paths["query"].encode(queries, train)
        o_vecs, o_cache = self.paths["option"].encode(list(distinct), train)
        blocks = [q_vecs]  # the context: query | image | caption | history
        if self.variant != "q":
            blocks.append(np.stack([ex.image_vec for ex in batch]))
        c_cache = hist_cache = None
        if self.variant == "qih":
            c_vecs, c_cache = self.paths["caption"].encode([ex.caption_ids for ex in batch], train)
            hist, hist_cache = self.encode_histories([ex.history for ex in batch], train)
            blocks += [c_vecs, hist]

        flat_scores, mlp_cache = self.mlp.forward(np.concatenate(blocks, axis=1), o_vecs,
                                                  offsets, option_of_row, train)
        scores = [flat_scores[offsets[e] : offsets[e + 1]] for e in range(len(batch))]
        return scores, (q_cache, c_cache, o_cache, hist_cache, mlp_cache)

    def batch_backward(self, bundle, dscores: list[np.ndarray]) -> None:
        q_cache, c_cache, o_cache, hist_cache, mlp_cache = bundle
        if mlp_cache is None:
            raise RuntimeError("batch_backward requires a train-mode batch_forward")
        dctx, doptions = self.mlp.backward(mlp_cache, np.concatenate(dscores))
        self.paths["query"].backward(q_cache, dctx[:, : self.dims.query_hidden])
        self.paths["option"].backward(o_cache, doptions)
        if c_cache is not None:
            h0 = dctx.shape[1] - self.dims.history_len  # first history column
            self.paths["caption"].backward(c_cache, dctx[:, h0 - self.dims.caption_hidden : h0])
            self._backward_histories(hist_cache, dctx[:, h0:])

    def batch_loss(self, batch: list[RoundExample], want_grads: bool = True) -> float:
        """Mean cross-entropy over the minibatch; optionally accumulates grads."""
        scores, bundle = self.batch_forward(batch)
        total = 0.0
        dscores = []
        for ex, s in zip(batch, scores):
            loss, grad = nn.softmax_cross_entropy(s, ex.gt_index)
            total += loss
            dscores.append(grad / len(batch))
        if want_grads:
            self.batch_backward(bundle, dscores)
        return total / len(batch)


def reduced_check_dims(rounds: int = 4) -> ModelDims:
    """Small dimension set for full-model gradient checking."""
    return ModelDims(
        rounds=rounds,
        embed_dim=8,
        query_hidden=16,
        option_hidden=16,
        caption_hidden=8,
        history_q_hidden=8,
        history_a_hidden=8,
        history_pair_dim=8,
        image_dim=12,
    )


def synthetic_vocab(size: int = 50) -> Vocabulary:
    from .text import RESERVED_WORDS

    if size < len(RESERVED_WORDS) + 1:
        raise ValueError("vocabulary too small")
    return Vocabulary(list(RESERVED_WORDS) + [f"w{i}" for i in range(size - len(RESERVED_WORDS))])


def random_example(vocab: Vocabulary, dims: ModelDims, rng: np.random.Generator,
                   k_options: int = 5, task: str = "visdial",
                   n_history: int | None = None) -> RoundExample:
    """Random round example over the synthetic vocabulary, for checks and tests."""

    def seq(lo, hi):
        n = int(rng.integers(lo, hi + 1))
        ids = list(rng.integers(3, len(vocab), size=n))
        return [int(i) for i in ids] + [vocab.stop_id]

    if n_history is None:
        n_history = int(rng.integers(0, dims.history_slots + 1))
    image_vec = rng.normal(size=dims.image_dim)
    image_vec /= np.linalg.norm(image_vec)
    return RoundExample(
        image_id=int(rng.integers(0, 1 << 30)),
        round_no=n_history + 1,
        question_ids=seq(2, 5),
        query_answer_ids=seq(1, 3) if task == "visdial-q" else None,
        option_ids=[seq(1, 4) for _ in range(k_options)],
        gt_index=int(rng.integers(0, k_options)),
        caption_ids=seq(3, 6),
        history=[(seq(2, 4), seq(1, 3)) for _ in range(n_history)],
        image_vec=image_vec,
    )


def full_model_gradcheck(seed: int, dims: ModelDims | None = None, vocab_size: int = 50,
                         k_options: int = 5, task: str = "visdial", variant: str = "qih",
                         mlp_depth: int = 2, shared_embeddings: bool = True,
                         tolerance: float = 1e-4) -> nn.GradCheckReport:
    """Finite-difference check of every parameter gradient of the full model.

    Builds a reduced-dimension model and one random round example, then
    compares the analytic training-step gradient of each coordinate against
    central differences. A train-mode loss never reads the running
    statistics, so the closure is a pure function of the parameters.
    """
    dims = dims or reduced_check_dims()
    vocab = synthetic_vocab(vocab_size)
    model = DialogScorer(dims, vocab, task=task, variant=variant, mlp_depth=mlp_depth,
                         shared_embeddings=shared_embeddings, init_seed=seed)
    rng = np.random.default_rng([seed, 0xD1A6])
    batch = [random_example(vocab, dims, rng, k_options=k_options, task=task,
                            n_history=min(2, dims.history_slots))]

    return nn.grad_check(lambda want_grads: model.batch_loss(batch, want_grads=want_grads),
                         model.parameters().values(), tolerance=tolerance)
