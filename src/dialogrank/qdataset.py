"""Re-purpose an answer-ranking dialog corpus for follow-up-question ranking.

For every question-answer pair at rounds 1..9, a set of 100 unique candidate
follow-up questions is assembled from four sources, in order:

  correct    the question the human actually asked next;
  plausible  follow-ups of the 50 nearest QA pairs under l2 distance on a
             word-vector key (never from the query's own image, never a
             dialog's last round, since that one has no follow-up);
  popular    the 30 most frequent questions of the corpus;
  random     seeded uniform draws from the question pool until the set
             reaches 100 unique strings (``chunked_draws``).

Candidates are deduplicated by exact string at every stage, keeping the
earliest provenance label. The per-round PRNG is seeded from
(seed, image_id, round) and the assembled set is shuffled with it, so the
output bytes are a pure function of (dataset, word vectors, seed) and
independent of build order. ``build_candidate_set`` returns one round's set as
the fields that the follow-up dataset file holds for that round:
``question_options`` (question-pool indices, shuffled), ``question_gt_index``
(the position of the correct follow-up among them) and
``question_provenance`` (each option's source label), and
``build_qdataset_payload`` merges them into the round.

The QA key is: word vectors of the question's first three words concatenated
(missing slots and unknown words are zero), then the mean vector of the
remaining question words (unknown words count as zero vectors), then the mean
vector of the answer's known words; punctuation tokens are dropped before
composition and words are used raw, before any vocabulary unk-mapping.

``CorpusKeys`` computes each key once and holds it once: ``matrix [N, 5d]``
has one row per round in dataset order (dialog by dialog, round by round),
and the parallel arrays ``image_ids``, ``round_nos`` (1-based) and
``followups`` (the question-pool index of the next round's question, -1 on a
dialog's last round) say which round a row is. A candidate set is a function
of one row: the row is the neighbour-search query, and its image, round and
follow-up are the ones the set is built for.

The neighbour search runs a block of queries at a time: ``nearest_rows`` takes
the squared distances of Q queries to all N rows in one product, ``K @ Q.T``,
with Q = max(1, SEARCH_BYTES // (8 N)) so that the [N, Q] float64 block stays
within ``SEARCH_BYTES``. Each query keeps a short list within a derived margin
of its k-th value, ordered by those product-form values. Consecutive rows
within the margin of each other form a near-tie chain, and only chained rows
get the exact distance: rows of different chains are far enough apart that
the exact formula orders them the same way (``nearest_rows`` gives the
bound).
``build_qdataset_payload`` searches the rows that have a follow-up one block at
a time, so the key matrix is read once per block, not once per set; its blocks
are also capped at SEARCH_BYTES // (8 D) rows, so each copied [Q, D] block of
query keys stays within ``SEARCH_BYTES`` too.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .text import (DATASET_FORMAT, DialogDataset, GloveTable,
                   ROUNDS_PER_DIALOG, tokenize)

N_PLAUSIBLE = 50
N_POPULAR = 30
POOL_SIZE = 100
FIRST_WORDS = 3
SEARCH_BYTES = 8 << 20  # bytes of one search block's [N, Q] squared distances

PUNCT_TOKENS = frozenset({"?", ",", ".", "!", "'"})


def content_words(text: str) -> list[str]:
    return [t for t in tokenize(text) if t not in PUNCT_TOKENS]


def embed_question_glove(tokens, glove: GloveTable) -> np.ndarray:
    """First three word vectors concatenated, then the mean of the rest.

    Words without a vector contribute zeros; questions shorter than three
    words zero-pad the missing head slots; no remaining words gives a zero
    mean block; an empty list gives zeros."""
    d = glove.dim
    out = np.zeros((FIRST_WORDS + 1) * d)
    for i, word in enumerate(tokens[:FIRST_WORDS]):
        vec = glove.get(word)
        if vec is not None:
            out[i * d : (i + 1) * d] = vec
    rest = tokens[FIRST_WORDS:]
    if rest:
        acc = np.zeros(d)
        for word in rest:
            vec = glove.get(word)
            if vec is not None:
                acc += vec
        out[FIRST_WORDS * d :] = acc / len(rest)
    return out


def embed_answer_glove(tokens, glove: GloveTable) -> np.ndarray:
    """Mean vector over the answer's in-table words; all-unknown words, or an
    empty list, give zeros."""
    acc = np.zeros(glove.dim)
    known = 0
    for word in tokens:
        vec = glove.get(word)
        if vec is not None:
            acc += vec
            known += 1
    return acc / known if known else acc


def qa_pair_key(question: str, answer: str, glove: GloveTable) -> np.ndarray:
    """Concatenated question and answer keys, dimension 5 * d."""
    return np.concatenate([embed_question_glove(content_words(question), glove),
                           embed_answer_glove(content_words(answer), glove)])


class CorpusKeys:
    """The QA key of every round, one row each, laid out as the module
    docstring says; ``sq_norms`` serves ``nearest_rows``."""

    def __init__(self, dataset: DialogDataset, glove: GloveTable):
        n = sum(len(record.rounds) for record in dataset.records)
        self.matrix = np.empty((n, (FIRST_WORDS + 2) * glove.dim))
        self.image_ids = np.empty(n, dtype=np.int64)
        self.round_nos = np.empty(n, dtype=np.int64)
        self.followups = np.full(n, -1, dtype=np.int64)
        row = 0
        for record in dataset.records:
            for t, rnd in enumerate(record.rounds, start=1):
                self.matrix[row] = qa_pair_key(dataset.questions[rnd.question],
                                               dataset.answers[rnd.answer], glove)
                self.image_ids[row] = record.image_id
                self.round_nos[row] = t
                if t < ROUNDS_PER_DIALOG:
                    self.followups[row] = record.rounds[t].question
                row += 1
        self.sq_norms = np.einsum("ij,ij->i", self.matrix, self.matrix)

    def __len__(self) -> int:
        return len(self.matrix)


# Squared distances below this scale may lose their relative accuracy to
# underflow: each product under 2**-1022 is off by at most 2**-1075.
_UNDERFLOW = 2.0 ** -1000
_EPS = float(np.finfo(np.float64).eps)
_FINITE_MAX = float(np.finfo(np.float64).max)


def search_height(n_rows: int) -> int:
    """Queries per search block against ``n_rows`` rows: as many as keep the
    [n_rows, Q] float64 distance block within ``SEARCH_BYTES``, at least one."""
    return max(1, SEARCH_BYTES // (8 * n_rows))


def nearest_rows(matrix: np.ndarray, sq_norms: np.ndarray, queries: np.ndarray, k: int,
                 skip: np.ndarray, exact, ties) -> list[np.ndarray]:
    """For each query row ``queries[j]``, the k rows of ``matrix`` nearest to it
    outside column ``skip[:, j]`` of the boolean mask ``skip`` [N, Q], nearest
    first, in the order of the exact distances ``exact(query, rows)`` with ties
    broken by the per-row keys ``ties`` (``np.lexsort`` order, least significant
    first). ``sq_norms`` holds each row's ``|m|**2``; the bound max|m| below is
    the square root of its largest. At k = 0 nothing is read. Where k does not
    cut, the k-th value is a skipped row's ``inf``; it is clamped to the largest
    finite double, so the short list is every row not skipped, and it is chained
    and ranked the same way.

    The prefilter takes squared distances ``|m|**2 - 2 m . q + |q|**2`` for
    every row and query, one product ``M @ Q.T`` with no copy of M, and keeps
    each column's short list: its rows within 2 err of its own k-th smallest
    value, where err = 8 D eps (max|m| + |q|)**2 + D * 2**-1000 for row
    dimension D.

    Each of |m|**2, m . q and |q|**2 is a sum of D products, so in any
    summation order (BLAS blocking, threads, FMA) its error is at most
    gamma_D = D eps / 2 times (max|m| + |q|)**2 (Higham 2002). An exact squared
    distance, a sum of D rounded squared differences in any order, has an
    error of the same size. So the two forms agree to within
    delta = (D + 3) eps (max|m| + |q|)**2, and err >= 2 delta. The k-th exact
    squared distance is then at most the k-th prefilter value plus delta, so
    every answer row has a prefilter value within 2 delta of the k-th one, and
    the short list holds them all, whatever queries share the block; the
    second term of err covers products that underflow.

    The short list is then ordered by its prefilter values, and consecutive
    rows whose values differ by at most 2 err form a near-tie chain. Rows of
    different chains are more than 2 err apart, so their exact squared
    distances differ by more than 2 err - 2 delta >= err >= 8 eps
    (max|m| + |q|)**2, several ulps, and their rounded square roots keep that
    order. Only a row that shares its chain gets its exact distance; the list
    is ranked by (chain, exact distance, ties) and cut at k."""
    if k == 0:
        return [np.empty(0, dtype=np.intp) for _ in queries]
    approx = matrix @ queries.T
    approx *= -2.0
    approx += sq_norms[:, None]
    q_sq = np.einsum("ij,ij->i", queries, queries)
    approx += q_sq
    approx[skip] = np.inf
    dim = matrix.shape[1]
    max_norm = np.sqrt(sq_norms.max())
    margin = 2.0 * (8.0 * dim * _EPS * (max_norm + np.sqrt(q_sq)) ** 2 + dim * _UNDERFLOW)
    part = min(k, len(matrix)) - 1
    out = []
    for j, query in enumerate(queries):
        column = approx[:, j]
        kth = min(np.partition(column, part)[part], _FINITE_MAX)  # not a skipped row's inf
        rows = np.flatnonzero(column <= kth + margin[j])
        values = column[rows]
        order = np.argsort(values)
        rows, values = rows[order], values[order]
        # first[i]: row i starts a chain (first[-1] closes the last one)
        first = np.ones(len(rows) + 1, dtype=bool)
        np.greater(values[1:] - values[:-1], margin[j], out=first[1:-1])
        chain = np.cumsum(first[:-1])
        tied = ~(first[:-1] & first[1:])
        dists = np.zeros(len(rows))
        if tied.any():
            dists[tied] = exact(query, rows[tied])
        out.append(rows[np.lexsort((*(key[rows] for key in ties), dists, chain))[:k]])
    return out


def find_plausible(queries: np.ndarray, query_image_ids, corpus: CorpusKeys,
                   k: int = N_PLAUSIBLE) -> list[list[int]]:
    """For each query key ``queries[j]`` of an image ``query_image_ids[j]``, the
    corpus rows of the k nearest usable QA pairs, nearest first: not from the
    query's image, not a dialog's last round. Distance ties break by
    (image_id, round).

    The distance is ``np.linalg.norm(K[rows] - q, axis=1)`` over the key
    matrix K. ``nearest_rows`` searches the usable rows for ``search_height``
    queries at a time and takes that norm only for the rows of a near-tie
    chain of a query's short list; this gives the same list as a
    copy-then-norm scan of every usable row."""
    image_ids = np.asarray(query_image_ids)
    last_rounds = (corpus.followups < 0)[:, None]
    height = search_height(len(corpus))

    def exact(query, rows):
        return np.linalg.norm(corpus.matrix[rows] - query, axis=1)

    out = []
    for start in range(0, len(queries), height):
        skip = corpus.image_ids[:, None] == image_ids[start:start + height]
        skip |= last_rounds
        out += [rows.tolist() for rows in nearest_rows(
            corpus.matrix, corpus.sq_norms, queries[start:start + height], k, skip, exact,
            (corpus.round_nos, corpus.image_ids))]
    return out


def compute_popular(dataset: DialogDataset, m: int = N_POPULAR) -> list[int]:
    """Pool indices of the m most frequent question strings across all rounds.

    Frequency counts every round reference; ties break lexicographically on
    the string. Each string maps to its lowest pool index."""
    counts: Counter = Counter()
    canonical: dict[str, int] = {}
    for i, q in enumerate(dataset.questions):
        canonical.setdefault(q, i)
    for record in dataset.records:
        for rnd in record.rounds:
            counts[dataset.questions[rnd.question]] += 1
    ranked = sorted(counts, key=lambda q: (-counts[q], q))
    return [canonical[q] for q in ranked[:m]]


def round_rng(seed: int, image_id: int, round_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, image_id, round_no])


def chunked_draws(rng: np.random.Generator, high: int, items: list, size: int):
    """Uniform draws from [0, high) until ``items`` holds ``size`` entries, one
    list per ``integers`` call: each has as many values as ``items`` has empty
    slots, and the caller takes each value into ``items`` or rejects it as a
    repeat before the next list is drawn.

    A value fills at most one slot, so a list never reaches past the last value
    that one draw at a time would take, and numpy gives a size-k call the values
    and end state of k scalar calls: the values taken, and the generator's state
    after the fill, are those of one draw at a time."""
    while len(items) < size:
        yield rng.integers(0, high, size=size - len(items)).tolist()


def _check_pool_size(dataset: DialogDataset, pool_size: int) -> None:
    if len(dataset.distinct_questions[0]) < pool_size:
        raise ValueError(
            f"corpus has fewer than {pool_size} distinct questions; cannot build candidates")


def build_candidate_set(dataset: DialogDataset, corpus: CorpusKeys, row: int,
                        plausible: list[int], popular: list[int], seed: int,
                        pool_size: int = POOL_SIZE) -> dict:
    """Candidate follow-up questions for the QA pair in corpus row ``row``;
    ``plausible`` holds that row's neighbour rows, nearest first, as
    ``find_plausible`` gives them for the row's own key and image. Returns the
    round's three follow-up fields, keyed as the file holds them (see above)."""
    image_id = int(corpus.image_ids[row])
    round_no = int(corpus.round_nos[row])
    followup = int(corpus.followups[row])
    if followup < 0:
        raise ValueError(f"image {image_id} round {round_no} has no follow-up question")
    _check_pool_size(dataset, pool_size)

    chosen: list[tuple[int, str]] = []  # (pool index, provenance)
    seen: set[str] = set()

    def push(pool_idx: int, label: str) -> None:
        s = dataset.questions[pool_idx]
        if s not in seen:
            seen.add(s)
            chosen.append((pool_idx, label))

    push(followup, "correct")
    for neighbor in plausible:
        push(int(corpus.followups[neighbor]), "plausible")
    for pool_idx in popular:
        push(pool_idx, "popular")

    rng = round_rng(seed, image_id, round_no)
    del chosen[pool_size:]
    for draws in chunked_draws(rng, len(dataset.questions), chosen, pool_size):
        for pool_idx in draws:
            push(pool_idx, "random")
    perm = rng.permutation(pool_size)
    shuffled = [chosen[i] for i in perm]
    gt_index = next(i for i, (_, label) in enumerate(shuffled) if label == "correct")
    return {
        "question_options": [idx for idx, _ in shuffled],
        "question_gt_index": gt_index,
        "question_provenance": [label for _, label in shuffled],
    }


def _plausible_by_row(corpus: CorpusKeys, k: int):
    """``find_plausible`` of every row with a follow-up, in row order, one
    search block at a time, so only a block of query keys is copied: both the
    block's [N, Q] distances and its [Q, D] copied keys stay within ``SEARCH_BYTES``."""
    rows = np.flatnonzero(corpus.followups >= 0)
    height = search_height(max(corpus.matrix.shape))
    for start in range(0, len(rows), height):
        block = rows[start:start + height]
        yield from find_plausible(corpus.matrix[block], corpus.image_ids[block], corpus, k)


def build_qdataset_payload(dataset: DialogDataset, glove: GloveTable, seed: int,
                           n_plausible: int = N_PLAUSIBLE, n_popular: int = N_POPULAR,
                           pool_size: int = POOL_SIZE) -> dict:
    """Follow-up-question dataset document: the source corpus with candidate
    follow-up options attached to rounds 1..9 of every dialog."""
    for name, value, least in (("n_plausible", n_plausible, 0), ("n_popular", n_popular, 0),
                               ("pool_size", pool_size, 1)):
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    _check_pool_size(dataset, pool_size)
    corpus = CorpusKeys(dataset, glove)
    popular = compute_popular(dataset, m=n_popular)
    plausible = _plausible_by_row(corpus, n_plausible)
    dialogs = []
    row = 0  # CorpusKeys holds the rounds in this order
    for record in dataset.records:
        rounds = []
        for rnd in record.rounds:
            out = {
                "question": rnd.question,
                "answer": rnd.answer,
                "answer_options": list(rnd.answer_options),
                "gt_index": rnd.gt_index,
            }
            if corpus.followups[row] >= 0:
                out.update(build_candidate_set(dataset, corpus, row, next(plausible),
                                               popular, seed, pool_size=pool_size))
            rounds.append(out)
            row += 1
        dialogs.append({
            "image_id": record.image_id,
            "caption": record.caption,
            "rounds": rounds,
        })
    return {
        "format": DATASET_FORMAT,
        "task": "visdial-q",
        "seed": seed,
        "questions": list(dataset.questions),
        "answers": list(dataset.answers),
        "dialogs": dialogs,
    }
