"""Fixed-size feature blocks for ranking: query, caption, option and
slot-aligned history embeddings.

History is always laid out as T-1 chronological slots; rounds that do not
exist yet are padded with the encoding of the ([empty, stop], [empty, stop])
pair, so the history block has one fixed length per model regardless of how
deep into the dialog the query sits.
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
            if not isinstance(value, int) or value < 1:
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
    """Embedding lookup -> LSTM over one token sequence; the final hidden
    state is the sequence embedding."""

    def __init__(self, embed: nn.Embedding, lstm: nn.LstmEncoder):
        self.embed = embed
        self.lstm = lstm

    def encode(self, ids):
        emb, ecache = self.embed.lookup(ids)
        vec, lcache = self.lstm.encode(emb)
        return vec, (ecache, lcache)

    def backward(self, cache, dvec) -> None:
        ecache, lcache = cache
        self.embed.backward(ecache, self.lstm.backward(lcache, dvec))


class EncoderBank:
    """Embedding tables and LSTM encoders for every text path of the model.

    With shared embeddings on, one table object serves the query, option,
    caption and both history paths, so its gradients accumulate from all of
    them and Adam updates it once per step.
    """

    def __init__(self, dims: ModelDims, vocab: Vocabulary, task: str, variant: str,
                 shared_embeddings: bool, rng: np.random.Generator):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
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
                                              name=f"lstm.{n}"))
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

    def encode_query(self, question_ids, answer_ids=None):
        """Question embedding, or question+answer for the follow-up task.

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
        return self.paths["query"].encode(seq)

    def encode_option(self, option_ids):
        return self.paths["option"].encode(option_ids)

    def encode_caption(self, caption_ids):
        return self.paths["caption"].encode(caption_ids)

    # -- history -----------------------------------------------------------

    def empty_pair(self) -> tuple[list[int], list[int]]:
        pad = [self.empty_id, self.stop_id]
        return pad, list(pad)

    def encode_pair_pre(self, question_ids, answer_ids):
        """Concatenated question/answer hidden states of one history round,
        before the pair-combine layer."""
        qv, qcache = self.paths["history_q"].encode(question_ids)
        av, acache = self.paths["history_a"].encode(answer_ids)
        return np.concatenate([qv, av]), (qcache, acache)

    def combine_pairs(self, rows: np.ndarray, train: bool, update_running: bool = True):
        """Pair-combine FC -> batch norm -> ReLU over a batch of pair rows.

        Eval mode runs each row through its own 1-row products, so a row's
        output depends on that row alone (see model.py), and returns no cache.
        """
        if not train:
            out = np.empty((len(rows), self.dims.history_pair_dim))
            for i in range(len(rows)):
                out[i : i + 1] = self._combine(rows[i : i + 1], False)[0]
            return out, None
        return self._combine(rows, True, update_running)

    def _combine(self, rows, train, update_running=True):
        lin, lin_cache = self.pair_combine.forward(rows)
        normed, bn_cache = self.pair_bn.forward(lin, train=train, update_running=update_running)
        out, relu_cache = nn.relu(normed)
        return out, (lin_cache, bn_cache, relu_cache)

    def backward_combine_pairs(self, cache, dout: np.ndarray) -> np.ndarray:
        lin_cache, bn_cache, relu_cache = cache
        dnormed = nn.relu_backward(relu_cache, dout)
        dlin = self.pair_bn.backward(bn_cache, dnormed)
        return self.pair_combine.backward(lin_cache, dlin)

    def encode_histories(self, histories, train: bool, update_running: bool = True):
        """Slot-aligned history blocks [B, (T-1) * pair_dim] of B examples.

        ``histories[e]`` is the chronological list of (question_ids,
        answer_ids) pairs already exchanged before example e's query. Missing
        slots share one encoding of the empty pair, computed once per call.
        Train mode batch-norms the B * (T-1) slot rows jointly.
        """
        slots = self.dims.history_slots
        pre_rows = np.empty((len(histories) * slots,
                             self.dims.history_q_hidden + self.dims.history_a_hidden))
        pair_caches = []  # (row index, cache) of real rounds
        padded = np.zeros(len(pre_rows), dtype=bool)
        empty_pre = empty_cache = None
        for e, rounds in enumerate(histories):
            if len(rounds) > slots:
                raise ValueError(f"history holds {len(rounds)} rounds, model fits {slots}")
            base = e * slots
            for k, (q_ids, a_ids) in enumerate(rounds):
                pre_rows[base + k], cache = self.encode_pair_pre(q_ids, a_ids)
                pair_caches.append((base + k, cache))
            if len(rounds) < slots:
                if empty_pre is None:
                    empty_pre, empty_cache = self.encode_pair_pre(*self.empty_pair())
                pre_rows[base + len(rounds) : base + slots] = empty_pre
                padded[base + len(rounds) : base + slots] = True
        combined, comb_cache = self.combine_pairs(pre_rows, train, update_running)
        blocks = combined.reshape(len(histories), self.dims.history_len)
        return blocks, (pair_caches, empty_cache, padded, comb_cache)

    def backward_histories(self, cache, dblocks: np.ndarray) -> None:
        """Backward for a train-mode encode_histories call."""
        pair_caches, empty_cache, padded, comb_cache = cache
        if comb_cache is None:
            raise RuntimeError("history backward requires a train-mode forward")
        dpre = self.backward_combine_pairs(
            comb_cache, dblocks.reshape(-1, self.dims.history_pair_dim))
        grads = [(c, dpre[row]) for row, c in pair_caches]
        if empty_cache is not None:
            # all padded slots share one forward pass; their grads sum
            grads.append((empty_cache, dpre[padded].sum(axis=0)))
        split = self.dims.history_q_hidden
        for (qcache, acache), d in grads:
            self.paths["history_q"].backward(qcache, d[:split])
            self.paths["history_a"].backward(acache, d[split:])

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
