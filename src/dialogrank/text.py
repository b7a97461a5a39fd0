"""Tokenization, vocabulary, and ingestion of dialog / word-vector / feature files.

Dialog datasets are single JSON documents with two string pools ("questions",
"answers") and "dialogs" whose rounds reference pool indices; follow-up
question datasets reuse the same layout plus per-round "question_options".
All loaded stores are immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import json
import re
import struct
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

STOP_WORD = "<stop>"
EMPTY_WORD = "<empty>"
UNK_WORD = "<unk>"
RESERVED_WORDS = (STOP_WORD, EMPTY_WORD, UNK_WORD)

DATASET_FORMAT = "visdial-desk.v1"
PROVENANCE_LABELS = ("correct", "plausible", "popular", "random")

_PUNCT = re.compile(r"([?,.!'])")


class LoadError(ValueError):
    """A file failed validation; the message names the offending record."""


def tokenize(text: str) -> list[str]:
    """Lowercase, split out ? , . ! ' as standalone tokens, split on whitespace."""
    return _PUNCT.sub(r" \1 ", text.lower()).split()


def detokenize(tokens) -> str:
    return " ".join(tokens)


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

    def __contains__(self, word: str) -> bool:
        return word in self._ids

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


def build_vocab(corpus, min_count: int = 1) -> Vocabulary:
    """Vocabulary over an iterable of token lists.

    Keeps words with frequency >= min_count; ids are assigned reserved tokens
    first, then by descending frequency with lexicographic ties. A reserved
    token in the text keeps its reserved id.
    """
    counts: Counter = Counter()
    seen_any = False
    for tokens in corpus:
        seen_any = True
        counts.update(tokens)
    if not seen_any:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count and w not in RESERVED_WORDS),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary(list(RESERVED_WORDS) + kept)


def encode_truncate(words, vocab: Vocabulary, max_len: int) -> list[int]:
    """First max_len words as ids (OOV -> unk) with a trailing stop id."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ids = [vocab.encode_word(w) for w in words[:max_len]]
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
    return (set(map(type, values)) <= {int} and min(values, default=0) >= 0
            and max(values, default=-1) < size)


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
    read, dialog by dialog. Yields (where, image_id, caption, rounds) once the
    dialog's image id, caption and round list pass; ``rounds`` holds
    (where, round, question index, answer index) of each round, once both
    indices pass. A failure raises ``LoadError`` naming the dialog and round.
    Indices and image ids must be JSON integers: ``type(x) is int``, as a bool
    is not one."""
    for d, dialog in enumerate(payload["dialogs"]):
        where = f"dialog {d}"
        _require(isinstance(dialog, dict), f"{where}: must be an object")
        image_id = dialog.get("image_id")
        _require(type(image_id) is int, f"{where}: image_id must be an integer")
        where = f"dialog {d} (image_id {image_id})"
        caption = dialog.get("caption", "")
        _require(isinstance(caption, str), f"{where}: caption must be a string")
        rounds_raw = dialog.get("rounds", [])
        _require(isinstance(rounds_raw, list) and all(isinstance(r, dict) for r in rounds_raw),
                 f"{where}: rounds must be a list of objects")
        rounds = []
        for t, r in enumerate(rounds_raw, start=1):
            rwhere = f"{where} round {t}"
            qi, ai = r.get("question"), r.get("answer")
            _require(type(qi) is int and 0 <= qi < len(questions),
                     f"{rwhere}: question index out of range")
            _require(type(ai) is int and 0 <= ai < len(answers),
                     f"{rwhere}: answer index out of range")
            rounds.append((rwhere, r, qi, ai))
        yield where, image_id, caption, rounds


def dataset_from_payload(payload, vocab: Vocabulary, max_question_words: int = 20,
                         max_answer_words: int = 20,
                         max_caption_words: int = 40) -> DialogDataset:
    questions, answers = _checked_pools(payload)
    task = payload.get("task", "visdial")
    _require(task in ("visdial", "visdial-q"), f"unknown task {task!r}")

    q_pool_ids = [encode_truncate(tokenize(q), vocab, max_question_words) for q in questions]
    a_pool_ids = [encode_truncate(tokenize(a), vocab, max_answer_words) for a in answers]

    records = []
    seen_images = set()
    for where, image_id, caption, checked in _checked_dialogs(payload, questions, answers):
        _require(image_id not in seen_images, f"{where}: duplicate image_id")
        seen_images.add(image_id)
        _require(len(checked) == ROUNDS_PER_DIALOG,
                 f"{where}: expected {ROUNDS_PER_DIALOG} rounds, got {len(checked)}")
        rounds = []
        for t, (rwhere, r, qi, ai) in enumerate(checked, start=1):
            opts = r.get("answer_options", [])
            _require(isinstance(opts, list), f"{rwhere}: answer_options must be a list")
            _require(_indices(opts, len(answers)), f"{rwhere}: answer option index out of range")
            _require(len(set(opts)) == len(opts), f"{rwhere}: answer options not unique")
            gt = r.get("gt_index")
            _require(type(gt) is int and 0 <= gt < len(opts),
                     f"{rwhere}: gt_index out of range")
            _require(answers[opts[gt]] == answers[ai],
                     f"{rwhere}: gt option text differs from the round answer")
            q_opts = r.get("question_options")
            q_gt = r.get("question_gt_index")
            q_prov = r.get("question_provenance")
            if q_opts is not None:
                _require(isinstance(q_opts, list), f"{rwhere}: question_options must be a list")
                _require(_indices(q_opts, len(questions)),
                         f"{rwhere}: question option index out of range")
                _require(len(set(q_opts)) == len(q_opts),
                         f"{rwhere}: question options not unique")
                _require(type(q_gt) is int and 0 <= q_gt < len(q_opts),
                         f"{rwhere}: question_gt_index out of range")
                _require(t < ROUNDS_PER_DIALOG, f"{rwhere}: follow-up options on the last round")
                _require(questions[q_opts[q_gt]] == questions[checked[t][2]],
                         f"{rwhere}: gt follow-up differs from the next round's question")
                if q_prov is not None:
                    _require(isinstance(q_prov, list) and len(q_prov) == len(q_opts),
                             f"{rwhere}: provenance length mismatch")
                    _require(all(p in PROVENANCE_LABELS for p in q_prov),
                             f"{rwhere}: unknown provenance label")
                    _require(q_prov.count("correct") == 1,
                             f"{rwhere}: exactly one candidate must be labelled correct")
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
        for _, _, qi, ai in rounds:
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


def load_glove(path) -> GloveTable:
    vectors: dict[str, np.ndarray] = {}
    # "surrogateescape" reads each byte that is not UTF-8 as one of U+DC80..U+DCFF
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            _require(line.isascii() or not re.search("[\udc80-\udcff]", line),
                     f"word-vector file line {lineno}: not UTF-8")
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

    The vectors are one read-only, id-ordered ``[N, d]`` float64 matrix with an
    id array and an id -> row map; ``get`` returns a row view of that matrix,
    so the store never holds a second copy of the features."""

    def __init__(self, ids: np.ndarray, matrix: np.ndarray):
        """Store over unique int64 ``ids`` [N] and raw float64 rows ``matrix`` [N, d],
        which it takes over: rows are normalized in place."""
        # one per-vector norm per row, as np.linalg.norm(vec), so every stored
        # vector is bitwise the same as normalizing that vector alone
        norms = np.array([np.linalg.norm(row) for row in matrix])
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        if bad.size:
            raise LoadError(f"image {int(ids[bad[0]])}: feature vector has zero or "
                            "non-finite norm")
        matrix /= norms[:, None]
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, matrix = ids[order], matrix[order]
        matrix.flags.writeable = False
        ids.flags.writeable = False
        self.dim = matrix.shape[1]
        self._matrix = matrix
        self._ids = ids
        self._row = {image_id: row for row, image_id in enumerate(ids.tolist())}
        self._nearest: dict[tuple[int, int], tuple[int, ...]] = {}  # unroll.nearest_images

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def matrix(self) -> np.ndarray:
        """All vectors, one read-only row per id in ``id_array`` order."""
        return self._matrix

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Each row's squared l2 norm, built on first search."""
        return np.einsum("ij,ij->i", self._matrix, self._matrix)

    @cached_property
    def max_norm(self) -> float:
        """The largest row norm, built on first search."""
        return float(np.sqrt(self.sq_norms.max()))

    @property
    def id_array(self) -> np.ndarray:
        """The ids as a read-only int64 array, ascending, in matrix row order."""
        return self._ids

    def row_of(self, image_id: int) -> int:
        try:
            return self._row[image_id]
        except KeyError:
            raise LoadError(f"image {image_id}: no feature vector in store") from None

    def get(self, image_id: int) -> np.ndarray:
        return self._matrix[self.row_of(image_id)]


def load_features(path) -> ImageFeatureStore:
    """Read a feature file in one pass (so pipes work), check its length
    against the header, and parse the rows straight into the store's matrix."""
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
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]  # later rows of an id
    if repeats.size:
        i = int(repeats.min())
        raise LoadError(f"feature row {i}: duplicate image_id {int(ids[i])}")
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
