"""Bot-vs-bot dialog generation.

A follow-up-question model picks the next question and an answer model
answers it, alternating for a requested number of rounds. Because generated
dialogs have no dataset-provided option lists, candidate pools are built on
the fly from the dialogs of nearest-neighbor images (l2 distance between the
unit-normalized image features). The question step samples uniformly among
the top-10 ranked candidates for diversity; the answer step takes the argmax.

Every draw is seeded from (seed, image_id, round counter), so a transcript is
a pure function of (seed, checkpoints, dataset, features), and each round's
pools and scores are recorded for audit and replay.

The corpus is indexed once. The feature store is its read-only attributes
``matrix`` ([N, d]) and ``id_array`` (ascending ids, one per row, each id
once, which the store checks itself), and the neighbour list of an image is
memoised on it, since it depends only on the image. The dataset builds
``by_image`` and its sorted distinct pools on first use. ``nearest_images``
shares the search of the follow-up-question builder (``qdataset.nearest_rows``
for a block of one query: one matrix-vector product, a derived margin, and
the per-vector norm only for the near-tie chains of its short list, with the
id tie-break), so transcripts are the same bytes as with a per-vector scan of
every image. Pool, history and caption strings recur round after round, so
each is tokenized once per model and length cap (``_token_ids``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .model import DialogScorer, RoundExample
from .qdataset import chunked_draws, nearest_rows
from .text import (DialogDataset, ImageFeatureStore, dataset_json_bytes,
                   encode_truncate, tokenize)


@dataclass
class PoolSpec:
    n_neighbor_images: int = 10
    pool_size: int = 100
    top_m: int = 10
    seed: int = 0

    def __post_init__(self):
        if not self.pool_size >= self.top_m >= 1:
            raise ValueError("need pool_size >= top_m >= 1")
        if self.n_neighbor_images < 1:
            raise ValueError(f"need n_neighbor_images >= 1, got {self.n_neighbor_images}")


@dataclass
class DialogState:
    image_id: int
    caption: str
    history: list[tuple[str, str]] = field(default_factory=list)

    @property
    def round_counter(self) -> int:
        return len(self.history)


@dataclass
class TranscriptRound:
    question: str
    answer: str
    question_pool: list[str]
    question_scores: list[float]
    top_indices: list[int]  # best-first indices into question_pool
    draw: int  # which of the top candidates was sampled
    answer_pool: list[str]
    answer_scores: list[float]
    answer_index: int


@dataclass
class Transcript:
    image_id: int
    caption: str
    initial_history: list[tuple[str, str]]
    spec: PoolSpec
    q_model_config: dict
    a_model_config: dict
    rounds: list[TranscriptRound] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        """The transcript file: every field, with the model configs under
        ``q_model`` and ``a_model``."""
        payload = asdict(self)
        payload["q_model"] = payload.pop("q_model_config")
        payload["a_model"] = payload.pop("a_model_config")
        return dataset_json_bytes(payload)


def nearest_images(features: ImageFeatureStore, image_id: int, n: int) -> list[int]:
    """The n closest other images by l2 distance; ties break by id.

    The distance is the per-vector ``np.linalg.norm(v - q)``. The shared
    ``qdataset.nearest_rows`` search, run for this one query and skipping
    only its own row, keeps the rows that can be among the n nearest, orders
    them by the prefilter's squared distances, and takes the per-vector norm
    only for the rows of a near-tie chain (prefilter values within its margin
    of a neighbour's); ranking by (chain, norm, id) gives the same list as a
    per-vector scan of every image.

    Results are memoised per (image_id, n) on the immutable store; each call
    returns a fresh list."""
    memo = features._nearest
    key = (image_id, n)
    if key not in memo:
        row = features.row_of(image_id)
        matrix = features.matrix
        skip = np.zeros((len(matrix), 1), dtype=bool)
        skip[row] = True

        def exact(query, rows):
            return np.array([np.linalg.norm(matrix[i] - query) for i in rows])

        rows, = nearest_rows(matrix, features.sq_norms, np.arange(len(matrix)),
                             matrix[row:row + 1], n, skip, exact, (features.id_array,))
        memo[key] = tuple(features.id_array[rows].tolist())
    return list(memo[key])


_KIND_CODE = {"question": 0, "answer": 1}


def build_pool(kind: str, state: DialogState, dataset: DialogDataset,
               features: ImageFeatureStore, spec: PoolSpec) -> list[str]:
    """Candidate strings gathered from the nearest images' dialogs.

    Deduplicates, drops questions already asked in this dialog, and pads with
    uniform draws from the full corpus pool (or everything left, when the
    corpus cannot fill pool_size). The padding generator is seeded from
    (seed, image_id, round counter, 0 for question pools / 1 for answer
    pools).

    The dataset's ``by_image`` and sorted distinct pools are built once per
    dataset. Padding counts what is left as the distinct pool size minus the
    seen strings in it, and filters the sorted pool only when everything left
    is taken. Otherwise it draws with ``qdataset.chunked_draws``."""
    if kind not in _KIND_CODE:
        raise ValueError(f"unknown pool kind {kind!r}")
    if kind == "question":
        pool_source = dataset.questions
        distinct, members = dataset.distinct_questions
        excluded = {q for q, _ in state.history}
    else:
        pool_source = dataset.answers
        distinct, members = dataset.distinct_answers
        excluded = set()

    items: list[str] = []
    seen: set[str] = set(excluded)

    def take(s: str) -> None:
        if s not in seen:
            seen.add(s)
            items.append(s)

    for img in nearest_images(features, state.image_id, spec.n_neighbor_images):
        record = dataset.by_image.get(img)
        if record is None:
            continue
        for rnd in record.rounds:
            take(pool_source[rnd.question] if kind == "question" else pool_source[rnd.answer])
    del items[spec.pool_size :]
    if len(items) < spec.pool_size:
        n_available = len(distinct) - sum(1 for s in seen if s in members)
        needed = spec.pool_size - len(items)
        if n_available <= needed:
            items.extend(s for s in distinct if s not in seen)
        else:
            rng = np.random.default_rng(
                [spec.seed, state.image_id, state.round_counter, _KIND_CODE[kind]])
            for draws in chunked_draws(rng, len(pool_source), items, spec.pool_size):
                for i in draws:
                    take(pool_source[i])
    return items


def _token_ids(model: DialogScorer, s: str, cap: int) -> list[int]:
    """Token ids of ``s`` under the model's vocabulary, truncated to ``cap`` words,
    memoised per (string, cap) on the model; the id lists are shared, never mutated."""
    ids = model._token_ids.get((s, cap))
    if ids is None:
        ids = model._token_ids[s, cap] = encode_truncate(tokenize(s), model.vocab, cap)
    return ids


def _encode_pair(model: DialogScorer, question: str, answer: str):
    return (_token_ids(model, question, model.dims.max_question_words),
            _token_ids(model, answer, model.dims.max_answer_words))


def _model_example(model: DialogScorer, state: DialogState, features: ImageFeatureStore,
                   query: tuple[list[int], list[int] | None], pool: list[str],
                   history_pairs: list[tuple[str, str]]) -> RoundExample:
    """Assemble an eval example for one model, encoding with its own vocab and
    keeping only the most recent pairs that fit its history window."""
    option_len = (model.dims.max_question_words if model.task == "visdial-q"
                  else model.dims.max_answer_words)
    window = history_pairs[max(len(history_pairs) - model.dims.history_slots, 0):]
    return RoundExample(
        image_id=state.image_id,
        round_no=state.round_counter + 1,
        question_ids=query[0],
        query_answer_ids=query[1],
        option_ids=[_token_ids(model, s, option_len) for s in pool],
        gt_index=0,  # unused: generation has no ground truth
        caption_ids=_token_ids(model, state.caption, model.dims.max_caption_words),
        history=[_encode_pair(model, q, a) for q, a in window],
        image_vec=features.get(state.image_id) if model.variant != "q" else None,
    )


def step(state: DialogState, q_model: DialogScorer, a_model: DialogScorer,
         dataset: DialogDataset, features: ImageFeatureStore,
         spec: PoolSpec) -> tuple[DialogState, TranscriptRound]:
    """One exchange: pick a follow-up question, answer it, extend the history."""
    if q_model.task != "visdial-q":
        raise ValueError("the question model must be trained for follow-up ranking")
    if a_model.task != "visdial":
        raise ValueError("the answer model must be trained for answer ranking")

    q_pool = build_pool("question", state, dataset, features, spec)
    if not q_pool:
        raise RuntimeError("no candidate questions available for this round")
    if state.history:
        query = _encode_pair(q_model, *state.history[-1])
    else:
        query = q_model.empty_pair()  # caption-only start of dialog
    q_ex = _model_example(q_model, state, features, query, q_pool, state.history[:-1])
    q_scored = q_model.score_example(q_ex)
    best_first = np.lexsort((np.arange(len(q_pool)), -q_scored.scores))
    top = [int(i) for i in best_first[: min(spec.top_m, len(q_pool))]]
    rng = np.random.default_rng([spec.seed, state.image_id, state.round_counter])
    draw = int(rng.integers(0, len(top)))
    question = q_pool[top[draw]]

    a_pool = build_pool("answer", state, dataset, features, spec)
    if not a_pool:
        raise RuntimeError("no candidate answers available for this round")
    a_query = (_token_ids(a_model, question, a_model.dims.max_question_words), None)
    a_ex = _model_example(a_model, state, features, a_query, a_pool, state.history)
    a_scored = a_model.score_example(a_ex)
    answer_index = int(np.argmax(a_scored.scores))
    answer = a_pool[answer_index]

    new_state = replace(state, history=state.history + [(question, answer)])
    record = TranscriptRound(
        question=question,
        answer=answer,
        question_pool=q_pool,
        question_scores=[float(s) for s in q_scored.scores],
        top_indices=top,
        draw=draw,
        answer_pool=a_pool,
        answer_scores=[float(s) for s in a_scored.scores],
        answer_index=answer_index,
    )
    return new_state, record


def unroll(initial_state: DialogState, rounds: int, q_model: DialogScorer,
           a_model: DialogScorer, dataset: DialogDataset,
           features: ImageFeatureStore, spec: PoolSpec) -> Transcript:
    """Alternate the two models for the requested number of rounds."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    transcript = Transcript(
        image_id=initial_state.image_id,
        caption=initial_state.caption,
        initial_history=list(initial_state.history),
        spec=spec,
        q_model_config=q_model.config(),
        a_model_config=a_model.config(),
    )
    state = initial_state
    for _ in range(rounds):
        state, record = step(state, q_model, a_model, dataset, features, spec)
        transcript.rounds.append(record)
    return transcript


def verify_transcript(transcript: Transcript) -> list[str]:
    """Structural audit; returns a list of violations (empty when clean)."""
    problems = []
    asked = {q for q, _ in transcript.initial_history}
    top_m = transcript.spec.top_m
    for i, rnd in enumerate(transcript.rounds, start=1):
        if rnd.question in asked:
            problems.append(f"round {i}: question repeats an earlier one")
        asked.add(rnd.question)
        scores = np.array(rnd.question_scores)
        best_first = np.lexsort((np.arange(scores.size), -scores))
        expected_top = [int(j) for j in best_first[: min(top_m, scores.size)]]
        if rnd.top_indices != expected_top:
            problems.append(f"round {i}: recorded top candidates disagree with the scores")
        if rnd.question_pool[rnd.top_indices[rnd.draw]] != rnd.question:
            problems.append(f"round {i}: chosen question is not the recorded draw")
        a_scores = np.array(rnd.answer_scores)
        if rnd.answer_index != int(np.argmax(a_scores)):
            problems.append(f"round {i}: chosen answer does not attain the pool maximum")
        if rnd.answer_pool[rnd.answer_index] != rnd.answer:
            problems.append(f"round {i}: answer string mismatch")
    return problems
