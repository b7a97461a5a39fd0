"""Tokenization, vocabulary, and ingestion of dialog / word-vector / feature files.

Dialog datasets are single JSON documents with two string pools ("questions",
"answers") and "dialogs" whose rounds reference pool indices; follow-up
question datasets reuse the same layout plus per-round "question_options".
All loaded stores are immutable after load and safe for concurrent reads.
The image-feature store is its two read-only arrays, the attributes ``matrix``
and ``id_array``, and checks its own ids: ``load_features`` only parses the
file, and a store built from a repeated id raises the loader's ``LoadError``.

The loaders pay only for their checks. The checks run in a fixed order, and
that order and each ``LoadError`` message are part of the file formats: a
malformed file fails the first check it breaks. A check that passes costs its
condition only; the message, and the "dialog d (image_id i) round t" that
names the record, are formatted from (d, i, t) when a check fails
(``_dialog_error``). ``tokenize`` is one ``str.translate`` and a ``split()``;
an encoding is one lookup in the vocabulary's dict per word; ``build_vocab``
counts every token in one ``Counter`` call. ``read_dataset``,
``build_vocab``, ``dataset_from_payload`` and ``load_glove`` each pause the
cyclic garbage collector (``@_gc_paused``): loading builds no reference
cycles, so a collection pass over the parsed document would free nothing.
The last load to end, in any thread, leaves the collector as the first one
found it, also when a load raises.
"""

from __future__ import annotations

import gc
import json
import re
import struct
import threading
from collections import Counter
from contextlib import ContextDecorator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

STOP_WORD = "<stop>"
EMPTY_WORD = "<empty>"
UNK_WORD = "<unk>"
RESERVED_WORDS = (STOP_WORD, EMPTY_WORD, UNK_WORD)

DATASET_FORMAT = "visdial-desk.v1"
PROVENANCE_LABELS = ("correct", "plausible", "popular", "random")

_SPACED_PUNCT = str.maketrans({mark: f" {mark} " for mark in "?,.!'"})


class LoadError(ValueError):
    """A file failed validation; the message names the offending record."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split out ? , . ! ' as standalone tokens, split on whitespace."""
    return text.lower().translate(_SPACED_PUNCT).split()


class _GcPause(ContextDecorator):
    """Pauses the cyclic garbage collector for a load, as a context manager or
    a decorator. The last load to end, in any thread, leaves the collector as
    the first one found it, also when a load raises."""

    def __init__(self):
        self._lock = threading.Lock()
        self._loads = 0  # loads running, in any thread
        self._was_enabled = False  # the collector's state when the first began

    def __enter__(self):
        with self._lock:
            if self._loads == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._loads += 1

    def __exit__(self, *exc):
        with self._lock:
            self._loads -= 1
            if self._loads == 0 and self._was_enabled:
                gc.enable()


_gc_paused = _GcPause()


class Vocabulary:
    """Dense word -> id table with reserved stop/empty/unk entries."""

    def __init__(self, words: list[str]):
        self._words = list(words)
        self._ids = {w: i for i, w in enumerate(self._words)}
        if len(self._ids) != len(self._words):
            raise ValueError("vocabulary words must be unique")
        for w in RESERVED_WORDS:
            if w not in self._ids:
                raise ValueError(f"vocabulary is missing reserved token {w!r}")
        self.stop_id = self._ids[STOP_WORD]
        self.empty_id = self._ids[EMPTY_WORD]
        self.unk_id = self._ids[UNK_WORD]

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._words == other._words

    @property
    def words(self) -> list[str]:
        return list(self._words)

    def encode_word(self, word: str) -> int:
        return self._ids.get(word, self.unk_id)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for w in self._words:
                f.write(w + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Raises ``LoadError`` naming the path for a file that is not a UTF-8 vocabulary."""
        try:
            with open(path, encoding="utf-8") as f:
                return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])
        except ValueError as exc:  # UnicodeDecodeError, or the checks of __init__
            raise LoadError(f"vocabulary file {path}: {exc}") from exc


@_gc_paused
def build_vocab(corpus, min_count: int = 1) -> Vocabulary:
    """Vocabulary over an iterable of token lists.

    Keeps words with frequency >= min_count; ids are assigned reserved tokens
    first, then by descending frequency with lexicographic ties. A reserved
    token in the text keeps its reserved id.
    """
    token_lists = iter(corpus)
    first = next(token_lists, None)
    if first is None:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts = Counter(chain(first, chain.from_iterable(token_lists)))
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count and w not in RESERVED_WORDS),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(list(RESERVED_WORDS) + kept)


def encode_truncate(words, vocab: Vocabulary, max_len: int) -> list[int]:
    """First max_len words as ids (OOV -> unk) with a trailing stop id."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    get, unk_id = vocab._ids.get, vocab.unk_id
    ids = [get(w, unk_id) for w in words[:max_len]]
    ids.append(vocab.stop_id)
    return ids


@dataclass
class DialogRound:
    """One round of a dialog; its encodings are the dataset's pool encodings
    ``question_ids[question]`` and ``answer_ids[answer]``."""

    question: int  # questions-pool index
    answer: int  # answers-pool index
    answer_options: list[int]  # answers-pool indices
    gt_index: int
    question_options: list[int] | None = None  # follow-up candidates (questions-pool)
    question_gt_index: int | None = None
    question_provenance: list[str] | None = None


@dataclass
class DialogRecord:
    image_id: int
    caption: str
    caption_ids: list[int]
    rounds: list[DialogRound]


ROUNDS_PER_DIALOG = 10


class DialogDataset:
    """Loaded dialog corpus: string pools, their encodings, and dialog records."""

    def __init__(self, questions, answers, records, vocab, question_ids, answer_ids,
                 task="visdial"):
        self.questions: list[str] = questions
        self.answers: list[str] = answers
        self.records: list[DialogRecord] = records
        self.vocab = vocab
        self.question_ids: list[list[int]] = question_ids  # one per pool string
        self.answer_ids: list[list[int]] = answer_ids
        self.task = task

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def by_image(self) -> dict[int, DialogRecord]:
        """image_id -> record, built on first use."""
        return {r.image_id: r for r in self.records}

    @cached_property
    def distinct_questions(self) -> tuple[list[str], frozenset[str]]:
        """The question pool's distinct strings, sorted, and as a set."""
        members = frozenset(self.questions)
        return sorted(members), members

    @cached_property
    def distinct_answers(self) -> tuple[list[str], frozenset[str]]:
        """The answer pool's distinct strings, sorted, and as a set."""
        members = frozenset(self.answers)
        return sorted(members), members


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise LoadError(message)


def _dialog_error(d: int, image_id, t: int, what: str) -> LoadError:
    """The ``LoadError`` of a failed dialog check: it names dialog ``d``, its
    image id once that has passed its check (``None`` before), and round ``t``
    (1-based; 0 for a check of the dialog itself). Only a failure formats it."""
    where = f"dialog {d}" if image_id is None else f"dialog {d} (image_id {image_id})"
    return LoadError(f"{where} round {t}: {what}" if t else f"{where}: {what}")


@_gc_paused
def read_dataset(path):
    """The parsed JSON document of a dataset file, unchecked: ``dataset_from_payload``
    and ``corpus_from_payload`` check what they read. A file that is not UTF-8 JSON,
    or nests deeper than the parser's recursion limit, raises ``LoadError`` naming
    the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise LoadError(f"dataset file {path}: not UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:  # nested deeper than the interpreter's recursion limit
        raise LoadError(f"dataset file {path}: JSON nested too deeply to read") from exc


def _indices(values: list, size: int) -> bool:
    """Whether every value is a JSON integer (not a bool) in ``range(size)``, with
    the loops in C: a dataset holds millions of option indices."""
    return not values or (set(map(type, values)) <= {int} and min(values) >= 0
                          and max(values) < size)


def _checked_pools(payload) -> tuple[list[str], list[str]]:
    _require(isinstance(payload, dict), "dataset root must be an object")
    for key in ("questions", "answers", "dialogs"):
        _require(isinstance(payload.get(key), list), f"dataset needs a {key!r} list")
    questions = payload["questions"]
    answers = payload["answers"]
    _require(all(isinstance(q, str) for q in questions), "questions pool must hold strings")
    _require(all(isinstance(a, str) for a in answers), "answers pool must hold strings")
    return questions, answers


def _checked_dialogs(payload, questions, answers):
    """The checks of what both ``corpus_from_payload`` and ``dataset_from_payload``
    read, dialog by dialog. Yields (d, image_id, caption, rounds) once dialog d's
    image id, caption and round list pass; ``rounds`` holds (round, question
    index, answer index) of each round, once both indices pass. A failure
    raises ``LoadError`` naming the dialog and round. Indices and image ids
    must be JSON integers: ``type(x) is int``, as a bool is not one."""
    n_questions, n_answers = len(questions), len(answers)
    for d, dialog in enumerate(payload["dialogs"]):
        if not isinstance(dialog, dict):
            raise _dialog_error(d, None, 0, "must be an object")
        image_id = dialog.get("image_id")
        if type(image_id) is not int:
            raise _dialog_error(d, None, 0, "image_id must be an integer")
        caption = dialog.get("caption", "")
        if not isinstance(caption, str):
            raise _dialog_error(d, image_id, 0, "caption must be a string")
        rounds_raw = dialog.get("rounds", [])
        if not (isinstance(rounds_raw, list) and all(isinstance(r, dict) for r in rounds_raw)):
            raise _dialog_error(d, image_id, 0, "rounds must be a list of objects")
        rounds = []
        for t, r in enumerate(rounds_raw, start=1):
            qi, ai = r.get("question"), r.get("answer")
            if not (type(qi) is int and 0 <= qi < n_questions):
                raise _dialog_error(d, image_id, t, "question index out of range")
            if not (type(ai) is int and 0 <= ai < n_answers):
                raise _dialog_error(d, image_id, t, "answer index out of range")
            rounds.append((r, qi, ai))
        yield d, image_id, caption, rounds


@_gc_paused
def dataset_from_payload(payload, vocab: Vocabulary, max_question_words: int = 20,
                         max_answer_words: int = 20,
                         max_caption_words: int = 40) -> DialogDataset:
    questions, answers = _checked_pools(payload)
    task = payload.get("task", "visdial")
    _require(task in ("visdial", "visdial-q"), f"unknown task {task!r}")

    q_pool_ids = [encode_truncate(tokenize(q), vocab, max_question_words) for q in questions]
    a_pool_ids = [encode_truncate(tokenize(a), vocab, max_answer_words) for a in answers]

    n_questions, n_answers = len(questions), len(answers)
    records = []
    seen_images = set()
    for d, image_id, caption, checked in _checked_dialogs(payload, questions, answers):
        if image_id in seen_images:
            raise _dialog_error(d, image_id, 0, "duplicate image_id")
        seen_images.add(image_id)
        if len(checked) != ROUNDS_PER_DIALOG:
            raise _dialog_error(d, image_id, 0, f"expected {ROUNDS_PER_DIALOG} rounds, "
                                f"got {len(checked)}")
        rounds = []
        for t, (r, qi, ai) in enumerate(checked, start=1):
            opts = r.get("answer_options", [])
            if not isinstance(opts, list):
                raise _dialog_error(d, image_id, t, "answer_options must be a list")
            if not _indices(opts, n_answers):
                raise _dialog_error(d, image_id, t, "answer option index out of range")
            if len(set(opts)) != len(opts):
                raise _dialog_error(d, image_id, t, "answer options not unique")
            gt = r.get("gt_index")
            if not (type(gt) is int and 0 <= gt < len(opts)):
                raise _dialog_error(d, image_id, t, "gt_index out of range")
            if answers[opts[gt]] != answers[ai]:
                raise _dialog_error(d, image_id, t, "gt option text differs from the round answer")
            q_opts = r.get("question_options")
            q_gt = r.get("question_gt_index")
            q_prov = r.get("question_provenance")
            if q_opts is not None:
                if not isinstance(q_opts, list):
                    raise _dialog_error(d, image_id, t, "question_options must be a list")
                if not _indices(q_opts, n_questions):
                    raise _dialog_error(d, image_id, t, "question option index out of range")
                if len(set(q_opts)) != len(q_opts):
                    raise _dialog_error(d, image_id, t, "question options not unique")
                if not (type(q_gt) is int and 0 <= q_gt < len(q_opts)):
                    raise _dialog_error(d, image_id, t, "question_gt_index out of range")
                if t >= ROUNDS_PER_DIALOG:
                    raise _dialog_error(d, image_id, t, "follow-up options on the last round")
                if questions[q_opts[q_gt]] != questions[checked[t][1]]:
                    raise _dialog_error(d, image_id, t,
                                        "gt follow-up differs from the next round's question")
                if q_prov is not None:
                    if not (isinstance(q_prov, list) and len(q_prov) == len(q_opts)):
                        raise _dialog_error(d, image_id, t, "provenance length mismatch")
                    if not all(p in PROVENANCE_LABELS for p in q_prov):
                        raise _dialog_error(d, image_id, t, "unknown provenance label")
                    if q_prov.count("correct") != 1:
                        raise _dialog_error(d, image_id, t,
                                            "exactly one candidate must be labelled correct")
            else:  # without candidates, a gt index or provenance means nothing
                q_gt = q_prov = None
            rounds.append(DialogRound(
                question=qi,
                answer=ai,
                answer_options=list(opts),
                gt_index=gt,
                question_options=list(q_opts) if q_opts is not None else None,
                question_gt_index=q_gt,
                question_provenance=list(q_prov) if q_prov is not None else None,
            ))
        records.append(DialogRecord(
            image_id=image_id,
            caption=caption,
            caption_ids=encode_truncate(tokenize(caption), vocab, max_caption_words),
            rounds=rounds,
        ))
    return DialogDataset(list(questions), list(answers), records, vocab, q_pool_ids,
                         a_pool_ids, task=task)


def corpus_from_payload(payload):
    """Token lists for vocabulary building: every caption, question and answer
    occurrence across the dialogs (pool entries count once per reference). What
    it reads gets the checks of ``dataset_from_payload``; each pool string is
    tokenized once."""
    questions, answers = _checked_pools(payload)
    q_tokens = [tokenize(q) for q in questions]
    a_tokens = [tokenize(a) for a in answers]
    for _, _, caption, rounds in _checked_dialogs(payload, questions, answers):
        yield tokenize(caption)
        for _, qi, ai in rounds:
            yield q_tokens[qi]
            yield a_tokens[ai]


def dataset_json_bytes(payload) -> bytes:
    """Canonical serialization: key-sorted, compact, newline-terminated."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def write_dataset(path, payload) -> None:
    with open(path, "wb") as f:
        f.write(dataset_json_bytes(payload))


class GloveTable:
    """Word -> dense vector table; all vectors share one dimension."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        if not vectors:
            raise ValueError("word-vector table is empty")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1:
            raise ValueError(f"word vectors disagree on dimension: {sorted(dims)}")
        self.dim = next(iter(dims))[0]
        self._vectors = {w: np.ascontiguousarray(v, dtype=np.float64)
                         for w, v in vectors.items()}

    def get(self, word: str):
        return self._vectors.get(word)


@_gc_paused
def load_glove(path) -> GloveTable:
    vectors: dict[str, np.ndarray] = {}
    # "surrogateescape" reads each byte that is not UTF-8 as one of U+DC80..U+DCFF
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii() and re.search("[\udc80-\udcff]", line):
                raise LoadError(f"word-vector file line {lineno}: not UTF-8")
            parts = line.split()
            if not parts:
                continue
            word = parts[0]
            if word in vectors:
                raise LoadError(f"word-vector file line {lineno}: duplicate word {word!r}")
            try:
                vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise LoadError(f"word-vector file line {lineno}: {exc}") from exc
            if vec.size == 0:
                raise LoadError(f"word-vector file line {lineno}: no components")
            if not np.isfinite(vec).all():
                raise LoadError(f"word-vector file line {lineno}: non-finite component")
            vectors[word] = vec
    try:
        return GloveTable(vectors)
    except ValueError as exc:
        raise LoadError(str(exc)) from exc


def write_glove(path, vectors: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for word, vec in vectors.items():
            f.write(word + " " + " ".join(repr(float(x)) for x in vec) + "\n")


FEATURE_MAGIC = b"IMGF"


class ImageFeatureStore:
    """image_id -> unit-l2-norm feature vector.

    The store is two read-only arrays: ``matrix``, the ``[N, d]`` float64
    vectors, and ``id_array``, their int64 ids, ascending, in the same row
    order. An id -> row map finds a row; ``get`` returns a row view of
    ``matrix``, so the store never holds a second copy of the features."""

    def __init__(self, ids: np.ndarray, matrix: np.ndarray):
        """Store over int64 ``ids`` [N] and raw float64 rows ``matrix`` [N, d],
        which it takes over: rows are normalized in place. An id given twice
        raises ``LoadError`` naming its later row, as does a row of zero or
        non-finite norm."""
        # one stable sort orders the rows and puts the rows of an id side by side
        order = np.argsort(ids, kind="stable")
        repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]  # later rows of an id
        if repeats.size:
            i = int(repeats.min())
            raise LoadError(f"feature row {i}: duplicate image_id {int(ids[i])}")
        # one per-vector norm per row, as np.linalg.norm(vec), so every stored
        # vector is bitwise the same as normalizing that vector alone
        norms = np.array([np.linalg.norm(row) for row in matrix])
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        if bad.size:
            raise LoadError(f"image {int(ids[bad[0]])}: feature vector has zero or "
                            "non-finite norm")
        matrix /= norms[:, None]
        if np.any(ids[1:] < ids[:-1]):  # a written file is sorted: no copy of its rows
            ids, matrix = ids[order], matrix[order]
        matrix.flags.writeable = False
        ids.flags.writeable = False
        self.dim = matrix.shape[1]
        self.matrix = matrix
        self.id_array = ids
        self._row = {image_id: row for row, image_id in enumerate(ids.tolist())}
        self._nearest: dict[tuple[int, int], tuple[int, ...]] = {}  # unroll.nearest_images

    def __len__(self) -> int:
        return len(self.id_array)

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Each row's squared l2 norm, built on first search."""
        return np.einsum("ij,ij->i", self.matrix, self.matrix)

    def row_of(self, image_id: int) -> int:
        try:
            return self._row[image_id]
        except KeyError:
            raise LoadError(f"image {image_id}: no feature vector in store") from None

    def get(self, image_id: int) -> np.ndarray:
        return self.matrix[self.row_of(image_id)]


def load_features(path) -> ImageFeatureStore:
    """Read a feature file in one pass (so pipes work), check its length
    against the header, and parse the rows straight into the store's matrix;
    the store checks the ids and norms."""
    with open(path, "rb") as f:
        data = f.read()
    magic = data[:4]
    if magic != FEATURE_MAGIC:
        raise LoadError(f"feature file magic mismatch: {magic!r}")
    if len(data) < 12:
        raise LoadError("feature file header truncated")
    count, dim = struct.unpack_from("<II", data, 4)
    _require(count > 0, "feature file holds no vectors")
    row_bytes = 8 + 4 * dim
    rows_in_file = (len(data) - 12) // row_bytes
    _require(rows_in_file >= count, f"feature row {rows_in_file}: truncated")
    _require(len(data) == 12 + count * row_bytes, "feature file has trailing bytes")
    rows = np.frombuffer(data, dtype=[("id", "<i8"), ("vec", "<f4", (dim,))],
                         count=count, offset=12)
    ids = rows["id"].astype(np.int64)
    matrix = rows["vec"].astype(np.float64)
    del rows, data
    return ImageFeatureStore(ids, matrix)


def write_features(path, features: dict[int, np.ndarray]) -> None:
    items = sorted(features.items())
    dims = {np.asarray(v).shape for _, v in items}
    if len(dims) != 1:
        raise ValueError("feature vectors disagree on dimension")
    dim = next(iter(dims))[0]
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<II", len(items), dim))
        for image_id, vec in items:
            f.write(struct.pack("<q", image_id))
            f.write(np.asarray(vec, dtype="<f4").tobytes())
