"""Fixed-size feature blocks for ranking: query, caption, option and
slot-aligned history embeddings.

History is always laid out as T-1 chronological slots; rounds that do not
exist yet are padded with the encoding of the ([empty, stop], [empty, stop])
pair, so the history block has one fixed length per model regardless of how
deep into the dialog the query sits.

Each text path makes one packed LSTM call per forward, in train and eval alike
(distinct options only). In eval the LSTM's products run on fixed row blocks
(``nn.project``) of the path's height: one row for the query and caption paths,
whose sequences are one per example, and ``nn.ROWS`` rows for the option and
history paths, whose sequences come many per example. So an encoding is bitwise
free of the sequences packed with it (model.py has the measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .text import Vocabulary

VARIANTS = ("q", "qi", "qih")
TASKS = ("visdial", "visdial-q")


@dataclass
class ModelDims:
    """All sizing knobs of the architecture (defaults are the full-scale ones)."""

    rounds: int = 10  # dialog time horizon; 9 for the follow-up-question task
    max_question_words: int = 20
    max_answer_words: int = 20
    max_caption_words: int = 40
    embed_dim: int = 128
    query_hidden: int = 512
    option_hidden: int = 512
    caption_hidden: int = 128
    history_q_hidden: int = 128
    history_a_hidden: int = 128
    history_pair_dim: int = 128
    image_dim: int = 4096

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"dims.{name} must be a positive integer, got {value!r}")

    @property
    def history_slots(self) -> int:
        return self.rounds - 1

    @property
    def history_len(self) -> int:
        return self.history_slots * self.history_pair_dim

    def fused_dim(self, variant: str) -> int:
        """Input width of the fusion MLP for a context variant."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        total = self.query_hidden + self.option_hidden
        if variant in ("qi", "qih"):
            total += self.image_dim
        if variant == "qih":
            total += self.caption_hidden + self.history_len
        return total

    @classmethod
    def for_task(cls, task: str, **overrides) -> "ModelDims":
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        overrides.setdefault("rounds", 10 if task == "visdial" else 9)
        return cls(**overrides)


class TextPath:
    """Embedding lookup -> LSTM; a sequence's final hidden state is its embedding.
    ``rows`` is the eval block height of the path's products (``nn.project``)."""

    def __init__(self, embed: nn.Embedding, lstm: nn.LstmEncoder, rows: int):
        self.embed = embed
        self.lstm = lstm
        self.rows = rows

    def encode(self, seqs, train: bool = True):
        """Embeddings [N, hidden] of N id sequences, in input order, from one
        packed LSTM call (layout in nn.py). Returns (vecs, cache); eval's cache is None."""
        lengths = [len(s) for s in seqs]
        if min(lengths) < 1:
            raise ValueError(f"{self.lstm.weight.name}: cannot encode an empty sequence")
        order = sorted(range(len(seqs)), key=lengths.__getitem__, reverse=True)  # stable
        batch_sizes = [sum(n > t for n in lengths) for t in range(lengths[order[0]])]
        emb, ids = self.embed.lookup(
            [seqs[i][t] for t, n in enumerate(batch_sizes) for i in order[:n]])
        h, lcache = self.lstm.encode(emb, batch_sizes, None if train else self.rows)
        vecs = np.empty_like(h)
        vecs[order] = h
        return vecs, (((ids, order), lcache) if train else None)

    def backward(self, cache, dvecs) -> None:
        (ids, order), lcache = cache
        self.embed.backward(ids, self.lstm.backward(lcache, dvecs[order]))


class EncoderBank:
    """Embedding tables and LSTM encoders for every text path of the model.

    With shared embeddings on, one table object serves the query, option,
    caption and both history paths, so its gradients accumulate from all of
    them and Adam updates it once per step.
    """

    def __init__(self, dims: ModelDims, vocab: Vocabulary, task: str, variant: str,
                 shared_embeddings: bool, rng: np.random.Generator | None):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "qih" and dims.history_slots < 1:
            raise ValueError(f"variant qih needs rounds >= 2 for its history block, "
                             f"got rounds={dims.rounds}")
        self.dims = dims
        self.task = task
        self.variant = variant
        self.shared_embeddings = shared_embeddings
        self.vocab_size = len(vocab)
        self.stop_id = vocab.stop_id
        self.empty_id = vocab.empty_id

        names = ["query", "option"]
        if variant == "qih":
            names += ["caption", "history_q", "history_a"]
        E, V = dims.embed_dim, self.vocab_size
        # all tables are drawn before any LSTM, in path order
        if shared_embeddings:
            tables = [nn.Embedding(E, V, rng, name="embed.shared")] * len(names)
        else:
            tables = [nn.Embedding(E, V, rng, name=f"embed.{n}") for n in names]
        self.paths = {
            n: TextPath(table, nn.LstmEncoder(E, getattr(dims, f"{n}_hidden"), rng,
                                              name=f"lstm.{n}"),
                        1 if n in ("query", "caption") else nn.ROWS)
            for n, table in zip(names, tables)
        }
        if variant == "qih":
            self.pair_combine = nn.Linear(dims.history_q_hidden + dims.history_a_hidden,
                                          dims.history_pair_dim, rng, name="history.combine")
            self.pair_bn = nn.BatchNorm1d(dims.history_pair_dim, name="history.bn")
        else:
            self.pair_combine = None
            self.pair_bn = None

    # -- sequence encoders -------------------------------------------------

    def query_ids(self, question_ids, answer_ids=None) -> list[int]:
        """Query token sequence: the question, or question+answer for follow-ups.

        The answer part is required exactly when the bank was built for the
        follow-up-question task; both sub-sequences keep their stop tokens.
        """
        if self.task == "visdial":
            if answer_ids is not None:
                raise ValueError("answer part not allowed in the query for answer ranking")
            seq = list(question_ids)
        else:
            if answer_ids is None:
                raise ValueError("follow-up-question ranking queries need the answer part")
            seq = list(question_ids) + list(answer_ids)
        if not seq:
            raise ValueError("empty query")
        return seq

    # -- history -----------------------------------------------------------

    def empty_pair(self) -> tuple[list[int], list[int]]:
        pad = [self.empty_id, self.stop_id]
        return pad, list(pad)

    def combine_pairs(self, rows: np.ndarray, train: bool):
        """Pair-combine FC -> batch norm -> ReLU over a batch of pair rows.

        Eval mode runs the product on fixed blocks of ``nn.ROWS`` rows
        (``nn.project``), so a row's output depends on that row alone, and
        returns no cache.
        """
        lin, lin_cache = self.pair_combine.forward(rows, None if train else nn.ROWS)
        normed, bn_cache = self.pair_bn.forward(lin, train=train)
        out, relu_cache = nn.relu(normed)
        return out, ((lin_cache, bn_cache, relu_cache) if train else None)

    def encode_histories(self, histories, train: bool):
        """Slot-aligned history blocks [B, (T-1) * pair_dim] of B examples.

        ``histories[e]`` is the chronological list of (question_ids,
        answer_ids) pairs already exchanged before example e's query. Missing
        slots share one encoding of the empty pair, computed once per call.
        Train mode batch-norms the B * (T-1) slot rows jointly.
        """
        slots = self.dims.history_slots
        pairs, rows = [], []  # real rounds and their slot rows; then the empty pair
        padded = np.zeros(len(histories) * slots, dtype=bool)
        for e, rounds in enumerate(histories):
            if len(rounds) > slots:
                raise ValueError(f"history holds {len(rounds)} rounds, model fits {slots}")
            pairs += rounds
            rows += range(e * slots, e * slots + len(rounds))
            padded[e * slots + len(rounds) : (e + 1) * slots] = True
        if padded.any():
            pairs.append(self.empty_pair())
        qv, qcache = self.paths["history_q"].encode([q for q, _ in pairs], train)
        av, acache = self.paths["history_a"].encode([a for _, a in pairs], train)
        pre = np.concatenate([qv, av], axis=1)
        pre_rows = np.empty((len(padded), pre.shape[1]))
        pre_rows[rows] = pre[: len(rows)]
        pre_rows[padded] = pre[len(rows) :]
        combined, comb_cache = self.combine_pairs(pre_rows, train)
        blocks = combined.reshape(len(histories), self.dims.history_len)
        return blocks, (rows, padded, qcache, acache, comb_cache)

    def backward_histories(self, cache, dblocks: np.ndarray) -> None:
        """Backward for a train-mode encode_histories call."""
        rows, padded, qcache, acache, comb_cache = cache
        if comb_cache is None:
            raise RuntimeError("history backward requires a train-mode forward")
        lin_cache, bn_cache, relu_cache = comb_cache
        dnormed = nn.relu_backward(relu_cache, dblocks.reshape(-1, self.dims.history_pair_dim))
        dpre = self.pair_combine.backward(lin_cache, self.pair_bn.backward(bn_cache, dnormed))
        dpairs = dpre[rows]
        if padded.any():  # all padded slots share one encoding; their grads sum
            dpairs = np.vstack([dpairs, dpre[padded].sum(axis=0)])
        split = self.dims.history_q_hidden
        self.paths["history_q"].backward(qcache, dpairs[:, :split])
        self.paths["history_a"].backward(acache, dpairs[:, split:])

    # -- registry ----------------------------------------------------------

    def parameters(self) -> dict[str, nn.Parameter]:
        out: dict[str, nn.Parameter] = {}
        for path in self.paths.values():
            out.setdefault(path.embed.weight.name, path.embed.weight)
        for path in self.paths.values():
            out[path.lstm.weight.name] = path.lstm.weight
            out[path.lstm.bias.name] = path.lstm.bias
        if self.pair_combine is not None:
            out[self.pair_combine.weight.name] = self.pair_combine.weight
            out[self.pair_combine.bias.name] = self.pair_combine.bias
            out[self.pair_bn.gamma.name] = self.pair_bn.gamma
            out[self.pair_bn.beta.name] = self.pair_bn.beta
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        if self.pair_bn is None:
            return {}
        return {
            "history.bn.running_mean": self.pair_bn.running_mean,
            "history.bn.running_var": self.pair_bn.running_var,
        }
