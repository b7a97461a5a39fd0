"""Candidate-builder tests, anchored by a straight-line oracle that
re-implements the whole mining protocol directly from the documented rules."""

import tracemalloc

import numpy as np
import pytest

from dialogrank import qdataset as qd
from dialogrank.text import GloveTable, dataset_json_bytes
from oracles import oracle_candidate_set
from synth import (CountingRng, colliding_payload, counting_rngs, load_payload,
                   qbuilder_corpus, toy_glove)


@pytest.fixture(scope="module")
def corpus():
    payload = qbuilder_corpus(n_images=30, seed=0)
    dataset = load_payload(payload)
    glove = GloveTable({w: np.asarray(v) for w, v in toy_glove(payload, dim=5).items()})
    return payload, dataset, glove


# ---------------------------------------------------------------------------
# word-vector composition
# ---------------------------------------------------------------------------


def g5(x):
    return np.full(5, float(x))


def small_glove():
    return GloveTable({"is": g5(1), "it": g5(2), "sunny": g5(3), "big": g5(4),
                       "red": g5(5), "cat": g5(-5), "dog": g5(5)})


def test_question_key_one_word():
    key = qd.embed_question_glove(["sunny"], small_glove())
    assert np.array_equal(key[:5], g5(3))
    assert not key[5:].any()


def test_question_key_five_words():
    key = qd.embed_question_glove(["is", "it", "sunny", "big", "red"], small_glove())
    assert np.array_equal(key[:5], g5(1))
    assert np.array_equal(key[5:10], g5(2))
    assert np.array_equal(key[10:15], g5(3))
    assert np.array_equal(key[15:], (g5(4) + g5(5)) / 2.0)


def test_question_key_unknown_word_is_zero_slot():
    key = qd.embed_question_glove(["zebra", "it"], small_glove())
    assert not key[:5].any()
    assert np.array_equal(key[5:10], g5(2))
    assert np.all(np.isfinite(key))


def test_question_key_unknown_words_count_in_tail_mean():
    key = qd.embed_question_glove(["is", "it", "sunny", "big", "zebra"], small_glove())
    assert np.array_equal(key[15:], g5(4) / 2.0)


def test_question_key_empty_rejected():
    # an empty list is no longer refused: it gives zeros of the key's width
    key = qd.embed_question_glove([], small_glove())
    assert key.shape == (20,) and not key.any()


def test_answer_key_cases():
    glove = small_glove()
    assert np.array_equal(qd.embed_answer_glove(["sunny"], glove), g5(3))
    assert not qd.embed_answer_glove(["cat", "dog"], glove).any()
    assert not qd.embed_answer_glove(["zebra"], glove).any()
    empty = qd.embed_answer_glove([], glove)
    assert empty.shape == (5,) and not empty.any()


def test_qa_key_of_punctuation_only_pair_is_zeros():
    key = qd.qa_pair_key("?", "!", small_glove())
    assert key.shape == (25,) and not key.any()


def test_answer_key_matches_brute_force(corpus):
    _, dataset, glove = corpus
    rng = np.random.default_rng(5)
    for _ in range(50):
        words = qd.content_words(dataset.answers[int(rng.integers(0, len(dataset.answers)))])
        if not words:
            continue
        got = qd.embed_answer_glove(words, glove)
        total = np.zeros(glove.dim)
        count = 0
        for w in words:
            v = glove.get(w)
            if v is not None:
                total = total + v
                count += 1
        want = total / count if count else total
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# nearest-neighbor mining
# ---------------------------------------------------------------------------


def row_of(keys, image_id, round_no):
    """The corpus row of one dialog round."""
    return int(np.flatnonzero((keys.image_ids == image_id) & (keys.round_nos == round_no))[0])


def plausible_of(keys, row, k=qd.N_PLAUSIBLE):
    """The neighbour rows of one corpus row, searched as a block of one."""
    return qd.find_plausible(keys.matrix[[row]], keys.image_ids[[row]], keys, k)[0]


def test_corpus_rows_hold_each_round_key_and_followup(corpus):
    _, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    assert len(keys) == 10 * len(dataset)
    row = 0
    for record in dataset.records:
        for t, rnd in enumerate(record.rounds, start=1):
            assert (keys.image_ids[row], keys.round_nos[row]) == (record.image_id, t)
            assert np.array_equal(keys.matrix[row], qd.qa_pair_key(
                dataset.questions[rnd.question], dataset.answers[rnd.answer], glove))
            want = record.rounds[t].question if t < 10 else -1
            assert keys.followups[row] == want
            row += 1


def test_corpus_keys_copy_the_first_row_of_each_word_pair():
    # rows 0-2 and 7 differ only in case or punctuation; row 8 asks row 3's
    # question with another answer; rows 4, 6 and 5, 9 are two different
    # all-unknown pairs, whose keys are both zero
    questions = ["Is it sunny?", "is it sunny", "IS IT, SUNNY!", "is the cat red?",
                 "zzz qqq?", "www?"]
    answers = ["Yes.", "yes", "xxx", "vvv", "it is red"]
    pairs = [(0, 0), (1, 1), (2, 0), (3, 4), (4, 2), (5, 3), (4, 2), (0, 1), (3, 0), (5, 3)]
    payload = {"format": "visdial-desk.v1", "task": "visdial", "questions": questions,
               "answers": answers,
               "dialogs": [{"image_id": 9, "caption": "a sunny day", "rounds": [
                   {"question": q, "answer": a, "answer_options": [a], "gt_index": 0}
                   for q, a in pairs]}]}
    dataset, glove = load_payload(payload), small_glove()
    keys = qd.CorpusKeys(dataset, glove)
    assert keys.copy_of.tolist() == [0, 0, 0, 3, 4, 5, 4, 0, 8, 5]
    for row, (q, a) in enumerate(pairs):
        assert keys.matrix[row].tobytes() == qd.qa_pair_key(questions[q], answers[a],
                                                            glove).tobytes(), row
    assert not keys.matrix[4].any() and not keys.matrix[5].any()
    assert keys.matrix[0].any() and keys.matrix[3].any()


def test_corpus_keys_hold_each_key_once():
    payload = qbuilder_corpus(n_images=400, seed=6)
    dataset = load_payload(payload)
    glove = GloveTable({w: np.asarray(v) for w, v in toy_glove(payload, dim=50).items()})
    tracemalloc.start()
    try:
        keys = qd.CorpusKeys(dataset, glove)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert keys.matrix.shape == (4000, 250)
    assert peak < 1.25 * keys.matrix.nbytes, (peak, keys.matrix.nbytes)


def test_plausible_identical_key_ranks_first(corpus):
    _, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    probe = next(r for r in range(len(keys)) if keys.round_nos[r] < 10)
    hits, = qd.find_plausible(keys.matrix[[probe]], query_image_ids=[-1], corpus=keys, k=5)
    assert (keys.image_ids[hits[0]] == keys.image_ids[probe]
            and keys.round_nos[hits[0]] == keys.round_nos[probe])


def test_plausible_excludes_own_image_and_last_round(corpus):
    _, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    probe_image = keys.image_ids[0]
    hits, = qd.find_plausible(keys.matrix[:1], [probe_image], keys, k=len(keys))
    assert all(keys.image_ids[h] != probe_image for h in hits)
    assert all(keys.round_nos[h] < 10 for h in hits)
    assert all(keys.followups[h] >= 0 for h in hits)


def test_plausible_everything_excluded():
    payload = qbuilder_corpus(n_images=1, seed=2)
    dataset = load_payload(payload)
    glove = GloveTable({w: np.asarray(v) for w, v in toy_glove(payload).items()})
    keys = qd.CorpusKeys(dataset, glove)
    assert qd.find_plausible(keys.matrix[:1], keys.image_ids[:1], keys) == [[]]


def test_plausible_matches_exhaustive_scan(corpus):
    _, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    assert len(keys) >= 200
    for probe, got in enumerate(qd.find_plausible(keys.matrix[:12], keys.image_ids[:12],
                                                  keys, k=50)):
        query = keys.matrix[probe]
        scan = []
        for r in range(len(keys)):
            if keys.image_ids[r] == keys.image_ids[probe] or keys.round_nos[r] == 10:
                continue
            scan.append((float(np.linalg.norm(keys.matrix[r] - query)),
                         keys.image_ids[r], keys.round_nos[r], r))
        scan.sort(key=lambda item: item[:3])
        want = [item[3] for item in scan[:50]]
        assert [(keys.image_ids[h], keys.round_nos[h]) for h in got] == \
            [(keys.image_ids[w], keys.round_nos[w]) for w in want]


def test_popular_counting(corpus):
    _, dataset, glove = corpus
    popular = qd.compute_popular(dataset, m=30)
    counts = {}
    for record in dataset.records:
        for rnd in record.rounds:
            s = dataset.questions[rnd.question]
            counts[s] = counts.get(s, 0) + 1
    want = sorted(counts, key=lambda s: (-counts[s], s))[:30]
    assert [dataset.questions[i] for i in popular] == want
    # the seeded skew puts the handcrafted head questions on top
    top_strings = [dataset.questions[i] for i in popular[:5]]
    assert "is it sunny ?" in top_strings


def test_popular_fewer_than_m_distinct():
    payload = qbuilder_corpus(n_images=2, n_questions=110, seed=1)
    dataset = load_payload(payload)
    popular = qd.compute_popular(dataset, m=30)
    distinct_used = {dataset.questions[r.question]
                     for rec in dataset.records for r in rec.rounds}
    assert len(popular) == min(30, len(distinct_used))


# ---------------------------------------------------------------------------
# candidate assembly vs the straight-line oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 11])
def test_candidate_sets_match_oracle_everywhere(corpus, seed):
    payload, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    popular = qd.compute_popular(dataset)
    glove_dict = toy_glove(payload, dim=5)
    for record in dataset.records:
        for t in range(1, 10):
            row = row_of(keys, record.image_id, t)
            got = qd.build_candidate_set(dataset, keys, row, plausible_of(keys, row),
                                         popular, seed)
            want, want_gt = oracle_candidate_set(
                payload, record.image_id, t, glove_dict, seed)
            got_pairs = list(zip([dataset.questions[i] for i in got["question_options"]],
                                 got["question_provenance"]))
            assert got_pairs == want, f"image {record.image_id} round {t}"
            assert got["question_gt_index"] == want_gt


@pytest.mark.parametrize("n", [1, 2, 600, 20000, 2**31 + 7, 2**40])
def test_chunked_draws_continue_the_scalar_stream(n):
    # a random fill draws its empty slots in one call: numpy must give that call
    # the values, and leave the state, of as many scalar calls, or the shuffle
    # after the fill would move
    for seed in ([0, 4000, 1], [11, 4017, 9], [2**40, 7, 5]):
        for k in (1, 2, 57):
            scalar, chunked = qd.round_rng(*seed), qd.round_rng(*seed)
            want = [int(scalar.integers(0, n)) for _ in range(k)]
            assert chunked.integers(0, n, size=k).tolist() == want, (seed, k)
            assert np.array_equal(chunked.permutation(100), scalar.permutation(100)), (seed, k)


@pytest.mark.parametrize("start", [[], [0, 3]])
@pytest.mark.parametrize("high, size", [(1, 1), (4, 4), (12, 9), (400, 100)])
def test_chunked_draws_take_what_one_draw_at_a_time_takes(high, size, start):
    # a take that rejects repeats: the values it takes, the values drawn and the
    # generator's state after the fill are those of one scalar draw at a time
    start = [v for v in start if v < high][:size]
    for seed in range(6):
        scalar, want, drawn = np.random.default_rng(seed), list(start), 0
        while len(want) < size:
            value = int(scalar.integers(0, high))
            drawn += 1
            if value not in want:
                want.append(value)
        rng, items = CountingRng(np.random.default_rng(seed)), list(start)
        for draws in qd.chunked_draws(rng, high, items, size):
            for value in draws:
                if value not in items:
                    items.append(value)
        assert items == want, (seed, items)
        assert rng.values == drawn and rng.calls <= drawn, (seed, rng.calls, drawn)
        assert rng.rng.integers(0, 2**40) == scalar.integers(0, 2**40), seed


def test_builder_draws_each_fill_in_chunks(corpus, monkeypatch):
    _, dataset, glove = corpus
    want = dataset_json_bytes(qd.build_qdataset_payload(dataset, glove, seed=9))
    rngs = counting_rngs(monkeypatch, qd, "round_rng")
    assert dataset_json_bytes(qd.build_qdataset_payload(dataset, glove, seed=9)) == want
    assert len(rngs) == 9 * len(dataset)
    calls, values = sum(r.calls for r in rngs), sum(r.values for r in rngs)
    assert 0 < calls < values, (calls, values)


def test_colliding_fills_match_oracle(monkeypatch):
    # three strings hold 303 of the pool's 420 entries, so most draws collide
    payload = colliding_payload(qbuilder_corpus(n_images=12, seed=3))
    dataset = load_payload(payload)
    glove_dict = toy_glove(payload, dim=5)
    glove = GloveTable({w: np.asarray(v) for w, v in glove_dict.items()})
    rngs = counting_rngs(monkeypatch, qd, "round_rng")
    built = qd.build_qdataset_payload(dataset, glove, seed=5)
    for record, dialog in zip(dataset.records, built["dialogs"], strict=True):
        for t, rnd in enumerate(dialog["rounds"][:9], start=1):
            want, want_gt = oracle_candidate_set(payload, record.image_id, t, glove_dict, 5)
            got = [(dataset.questions[i], label) for i, label in
                   zip(rnd["question_options"], rnd["question_provenance"])]
            assert (got, rnd["question_gt_index"]) == (want, want_gt), (record.image_id, t)
    assert max(r.calls for r in rngs) >= 3


def test_candidate_set_invariants(corpus):
    payload, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    popular = qd.compute_popular(dataset)
    record = dataset.records[4]
    row = row_of(keys, record.image_id, 3)
    cand = qd.build_candidate_set(dataset, keys, row, plausible_of(keys, row), popular, seed=5)
    strings = [dataset.questions[i] for i in cand["question_options"]]
    assert len(strings) == 100
    assert len(set(strings)) == 100
    assert cand["question_provenance"].count("correct") == 1
    gt_string = dataset.questions[record.rounds[3].question]
    assert strings[cand["question_gt_index"]] == gt_string
    assert cand["question_provenance"][cand["question_gt_index"]] == "correct"
    assert set(cand["question_provenance"]) <= {"correct", "plausible", "popular", "random"}


def test_candidate_set_round_10_rejected(corpus):
    _, dataset, glove = corpus
    keys = qd.CorpusKeys(dataset, glove)
    popular = qd.compute_popular(dataset)
    image_id = dataset.records[0].image_id
    with pytest.raises(ValueError, match=f"image {image_id} round 10 has no follow-up"):
        qd.build_candidate_set(dataset, keys, row_of(keys, image_id, 10), [], popular, 0)


def test_candidate_set_needs_enough_questions(monkeypatch):
    payload = qbuilder_corpus(n_images=3, n_questions=40, seed=3)
    dataset = load_payload(payload)
    glove = GloveTable({w: np.asarray(v) for w, v in toy_glove(payload).items()})
    built = []
    init = qd.CorpusKeys.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qd.CorpusKeys, "__init__", spy)
    with pytest.raises(ValueError, match="fewer than 100 distinct questions"):
        qd.build_qdataset_payload(dataset, glove, seed=0)
    assert not built  # the pool is checked before any QA key is computed
    keys = qd.CorpusKeys(dataset, glove)
    popular = qd.compute_popular(dataset)
    with pytest.raises(ValueError, match="distinct questions"):
        qd.build_candidate_set(dataset, keys, 0, [], popular, 0)


# ---------------------------------------------------------------------------
# whole-dataset builds
# ---------------------------------------------------------------------------


def test_qdataset_build_shape_and_determinism(corpus):
    payload, dataset, glove = corpus
    built = qd.build_qdataset_payload(dataset, glove, seed=9)
    n_rows = sum(1 for d in built["dialogs"] for r in d["rounds"] if "question_options" in r)
    assert n_rows == 9 * len(dataset)
    again = qd.build_qdataset_payload(dataset, glove, seed=9)
    assert dataset_json_bytes(built) == dataset_json_bytes(again)


def test_qdataset_file_layout(corpus):
    # build_candidate_set's dict goes into each round as it is, so its keys are
    # the file's keys
    _, dataset, glove = corpus
    built = qd.build_qdataset_payload(dataset, glove, seed=9)
    assert set(built) == {"format", "task", "seed", "questions", "answers", "dialogs"}
    answer_keys = {"question", "answer", "answer_options", "gt_index"}
    followup_keys = {"question_options", "question_gt_index", "question_provenance"}
    assert len(built["dialogs"]) == len(dataset)
    for dialog in built["dialogs"]:
        assert set(dialog) == {"image_id", "caption", "rounds"}
        assert len(dialog["rounds"]) == 10
        for rnd in dialog["rounds"][:9]:
            assert set(rnd) == answer_keys | followup_keys
        assert set(dialog["rounds"][9]) == answer_keys


def test_qdataset_seed_changes_random_fill_only(corpus):
    payload, dataset, glove = corpus
    a = qd.build_qdataset_payload(dataset, glove, seed=1)
    b = qd.build_qdataset_payload(dataset, glove, seed=2)
    assert dataset_json_bytes(a) != dataset_json_bytes(b)
    for da, db in zip(a["dialogs"], b["dialogs"]):
        for ra, rb in zip(da["rounds"], db["rounds"]):
            if "question_options" not in ra:
                continue
            adet = {(i, p) for i, p in zip(ra["question_options"], ra["question_provenance"])
                    if p != "random"}
            bdet = {(i, p) for i, p in zip(rb["question_options"], rb["question_provenance"])
                    if p != "random"}
            assert adet == bdet  # only the random fill and the shuffle move


def test_qdataset_output_loads_as_followup_dataset(corpus):
    payload, dataset, glove = corpus
    built = qd.build_qdataset_payload(dataset, glove, seed=4)
    loaded = load_payload(built)
    assert loaded.task == "visdial-q"
    assert built["seed"] == 4
    rnd = loaded.records[0].rounds[0]
    assert len(rnd.question_options) == 100
    assert rnd.question_provenance.count("correct") == 1


@pytest.mark.parametrize("height", [1, 7])
def test_qdataset_bytes_same_at_every_block_height(corpus, monkeypatch, height):
    # 270 sets against 300 keys: one block by default, else 270 or 39 blocks
    _, dataset, glove = corpus
    assert qd.search_height(10 * len(dataset)) >= 9 * len(dataset)
    want = dataset_json_bytes(qd.build_qdataset_payload(dataset, glove, seed=9))
    monkeypatch.setattr(qd, "SEARCH_BYTES", 8 * 10 * len(dataset) * height)
    assert dataset_json_bytes(qd.build_qdataset_payload(dataset, glove, seed=9)) == want


def test_short_list_reads_nothing_for_k_zero():
    skip = np.zeros((5, 3), dtype=bool)
    # no matrix to read and no exact distance to take
    got = qd.nearest_rows(None, None, None, np.ones((3, 4)), 0, skip, None, ())
    assert [list(short) for short in got] == [[], [], []]


def test_qdataset_without_plausible_candidates(corpus):
    # --plausible 0: every set is the oracle's with no neighbours, so it has
    # the bytes of a build that searched and kept none
    payload, dataset, glove = corpus
    glove_dict = toy_glove(payload, dim=5)
    built = qd.build_qdataset_payload(dataset, glove, seed=3, n_plausible=0)
    sets = 0
    for record, dialog in zip(dataset.records, built["dialogs"], strict=True):
        for t, rnd in enumerate(dialog["rounds"][:9], start=1):
            assert "plausible" not in rnd["question_provenance"]
            want, want_gt = oracle_candidate_set(payload, record.image_id, t, glove_dict, 3,
                                                 n_plausible=0)
            got = [(dataset.questions[i], label) for i, label in
                   zip(rnd["question_options"], rnd["question_provenance"])]
            assert (got, rnd["question_gt_index"]) == (want, want_gt)
            sets += 1
    assert sets == 9 * len(dataset)
