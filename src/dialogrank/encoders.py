"""Model sizing (``ModelDims``), the task and variant names, and the text
path (``TextPath``) that turns token sequences into fixed-size embeddings.

Each text path encodes each distinct sequence once per forward, in at most one
packed LSTM call, in train and eval alike: ``TextPath.encode`` applies this one
rule to every text, and in train a repeat's gradient sums into its encoding. In
eval the LSTM's products run on fixed row blocks (``nn.project``) of the path's
height: one row for the query and caption paths, whose sequences are one per
example, and ``nn.SEQ_ROWS`` rows for the option and history paths, whose
sequences come many per example. So an encoding is bitwise free of the
sequences packed with it (model.py has the measurement).

That is what lets a frozen model (``DialogScorer.freeze``, which every default
``checkpoint.load_checkpoint`` applies) remember its eval encodings: its text
paths share one ``EncodingMemo``, and a path encodes only the distinct sequences
it has not seen, so a remembered row is bitwise the one a fresh encode gives.
The same memo holds the first MLP layer's context terms, one per input block
(scorer.py), keyed by the block and the bytes of its input. It holds at most
``nn.MEMO_BYTES``, counting each row with its array header, each key with its
token tuple or input bytes, and the table, and drops the oldest entries first.
Train mode never reads or fills it.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, asdict

import numpy as np

from . import nn

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
        """Input width of the fusion MLP for a context variant, one of ``VARIANTS``."""
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


class EncodingMemo:
    """Eval rows of a frozen model: (path, token tuple) -> a text path's encoding,
    and (column span, input bytes) -> an ``mlp.h0`` context block's term; each a
    read-only row. ``nbytes`` sums each entry's ``charge``; with the table's own
    ``sys.getsizeof`` it may not pass ``nn.MEMO_BYTES``, so entries go oldest
    first. Filling it is not locked, so one thread at a time scores the model."""

    def __init__(self):
        self.rows: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.nbytes = 0

    @staticmethod
    def charge(key: tuple, row: np.ndarray) -> int:
        """Bytes an entry counts against the cap: the ``sys.getsizeof`` of its
        row (header and data), of its two-item key and of the key's tokens or
        input bytes."""
        return sys.getsizeof(row) + sys.getsizeof(key) + sys.getsizeof(key[1])

    def add(self, key: tuple, row: np.ndarray) -> np.ndarray:
        """Keep a read-only copy of ``row`` under ``key`` and return it."""
        row = row.copy()
        row.flags.writeable = False
        self.rows[key] = row
        self.nbytes += self.charge(key, row)
        while self.rows and self.nbytes + sys.getsizeof(self.rows) > nn.MEMO_BYTES:
            self.nbytes -= self.charge(*self.rows.popitem(last=False))
        return row


class TextPath:
    """Embedding lookup -> LSTM; a sequence's final hidden state is its embedding.
    ``rows`` is the eval block height of the path's products (``nn.project``).
    ``memo`` is the model's ``EncodingMemo`` while it is frozen, else ``None``."""

    def __init__(self, embed: nn.Embedding, lstm: nn.LstmEncoder, rows: int):
        self.embed = embed
        self.lstm = lstm
        self.rows = rows
        self.memo: EncodingMemo | None = None

    def encode(self, seqs, train: bool = True):
        """Embeddings [N, hidden] of N id sequences, in input order. Returns (vecs,
        cache); eval's cache is None. Each distinct sequence is encoded once, in one
        packed call over them in first-seen order; with a memo, eval encodes only
        the distinct sequences the memo lacks."""
        index = {}  # each distinct sequence -> its row among them, in first-seen order
        inverse = [index.setdefault(tuple(s), len(index)) for s in seqs]
        memo = None if train else self.memo
        rows = [None if memo is None else memo.rows.get((self, key)) for key in index]
        missing = [key for key, row in zip(index, rows) if row is None]
        if missing:  # in train all of them, so the cache's rows follow `index`
            vecs, cache = self._encode(missing, train)
            for key, vec in zip(missing, vecs):
                rows[index[key]] = vec if memo is None else memo.add((self, key), vec)
        vecs = np.stack([rows[i] for i in inverse])
        if not train:
            return vecs, None
        return vecs, (cache, None if len(index) == len(seqs) else inverse)

    def _encode(self, seqs, train: bool):
        """One packed LSTM call over ``seqs`` (layout in nn.py)."""
        lengths = [len(s) for s in seqs]
        if min(lengths) < 1:
            raise ValueError(f"{self.lstm.weight.name}: cannot encode an empty sequence")
        order = sorted(range(len(seqs)), key=lengths.__getitem__, reverse=True)  # stable
        batch_sizes, running = [], len(seqs)  # the first `running` of order are longer than t
        for t in range(lengths[order[0]]):
            while lengths[order[running - 1]] <= t:
                running -= 1
            batch_sizes.append(running)
        emb, ids = self.embed.lookup(
            [seqs[i][t] for t, n in enumerate(batch_sizes) for i in order[:n]])
        h, lcache = self.lstm.encode(emb, batch_sizes, None if train else self.rows)
        vecs = np.empty_like(h)
        vecs[order] = h
        return vecs, ((ids, order, lcache) if train else None)

    def backward(self, cache, dvecs) -> None:
        """Gradient of the N rows ``encode`` returned; a repeated sequence's rows
        sum into its one encoding."""
        (ids, order, lcache), inverse = cache
        if inverse is not None:
            summed = np.zeros((len(order), dvecs.shape[1]))
            np.add.at(summed, inverse, dvecs)
            dvecs = summed
        self.embed.backward(ids, self.lstm.backward(lcache, dvecs[order]))
