import copy
import json
from collections import Counter

import numpy as np
import pytest

from dialogrank.checkpoint import load_checkpoint, save_checkpoint
from dialogrank.encoders import ModelDims
from dialogrank.model import DialogScorer
from dialogrank import unroll as unroll_module
from dialogrank.unroll import (DialogState, PoolSpec, build_pool, nearest_images,
                               step, unroll, verify_transcript)
from oracles import oracle_nearest_images
from synth import (colliding_payload, counting_rngs, feature_store, load_payload,
                   qbuilder_corpus)


def toy_models(vocab, rounds_q=4, rounds_a=4, image_dim=6):
    def dims(task, rounds):
        return ModelDims.for_task(task, rounds=rounds, embed_dim=8, query_hidden=16,
                                  option_hidden=16, caption_hidden=8,
                                  history_q_hidden=8, history_a_hidden=8,
                                  history_pair_dim=8, image_dim=image_dim)

    q_model = DialogScorer(dims("visdial-q", rounds_q), vocab, task="visdial-q",
                           variant="qih", mlp_depth=1, shared_embeddings=True,
                           init_seed=11)
    a_model = DialogScorer(dims("visdial", rounds_a), vocab, task="visdial",
                           variant="qih", mlp_depth=1, shared_embeddings=True,
                           init_seed=12)
    return q_model, a_model


@pytest.fixture(scope="module")
def setup():
    payload = qbuilder_corpus(n_images=12, seed=6)
    dataset = load_payload(payload)
    rng = np.random.default_rng(44)
    features = feature_store(
        {r["image_id"]: rng.normal(size=6) for r in payload["dialogs"]})
    q_model, a_model = toy_models(dataset.vocab)
    return dataset, features, q_model, a_model


# ---------------------------------------------------------------------------
# nearest neighbors
# ---------------------------------------------------------------------------


def test_nearest_duplicate_feature_first():
    vec = np.array([1.0, 2.0, 2.0])
    store = feature_store({1: vec, 2: 2.0 * vec, 3: np.array([5.0, -1.0, 0.1])})
    assert nearest_images(store, 1, 1) == [2]  # same direction, distance 0


def test_nearest_exhausts_store():
    rng = np.random.default_rng(1)
    store = feature_store({i: rng.normal(size=4) for i in range(6)})
    got = nearest_images(store, 0, 5)
    assert sorted(got) == [1, 2, 3, 4, 5]
    assert nearest_images(store, 0, 99) == got


def test_nearest_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    store = feature_store({i: rng.normal(size=5) for i in range(50)})
    for query in (0, 17, 49):
        got = nearest_images(store, query, 10)
        qv = store.get(query)
        scan = sorted(
            (float(np.linalg.norm(store.get(i) - qv)), i)
            for i in range(50) if i != query)
        assert got == [i for _, i in scan[:10]]


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------


def oracle_pool(kind, state, dataset, features, spec):
    code = {"question": 0, "answer": 1}[kind]
    source = dataset.questions if kind == "question" else dataset.answers
    excluded = {q for q, _ in state.history} if kind == "question" else set()
    by_image = {r.image_id: r for r in dataset.records}
    items, seen = [], set(excluded)
    for img in oracle_nearest_images(features, state.image_id, spec.n_neighbor_images):
        rec = by_image.get(img)
        if rec is None:
            continue
        for rnd in rec.rounds:
            s = source[rnd.question if kind == "question" else rnd.answer]
            if s not in seen:
                seen.add(s)
                items.append(s)
    items = items[: spec.pool_size]
    if len(items) < spec.pool_size:
        available = sorted(set(source) - seen)
        if len(available) <= spec.pool_size - len(items):
            items.extend(available)
        else:
            rng = np.random.default_rng(
                [spec.seed, state.image_id, state.round_counter, code])
            while len(items) < spec.pool_size:
                s = source[int(rng.integers(0, len(source)))]
                if s not in seen:
                    seen.add(s)
                    items.append(s)
    return items


def test_pool_excludes_asked_questions(setup):
    dataset, features, _, _ = setup
    record = dataset.records[0]
    asked = dataset.questions[record.rounds[0].question]
    state = DialogState(record.image_id, record.caption, [(asked, "yes")])
    spec = PoolSpec(n_neighbor_images=5, pool_size=40, top_m=5, seed=1)
    pool = build_pool("question", state, dataset, features, spec)
    assert asked not in pool
    assert len(pool) == len(set(pool)) == 40


def test_pool_dedups_shared_strings(setup):
    dataset, features, _, _ = setup
    state = DialogState(dataset.records[0].image_id, "c", [])
    spec = PoolSpec(n_neighbor_images=11, pool_size=30, top_m=5, seed=1)
    pool = build_pool("answer", state, dataset, features, spec)
    assert len(pool) == len(set(pool))


def test_pool_matches_independent_oracle(setup):
    dataset, features, _, _ = setup
    record = dataset.records[3]
    state = DialogState(record.image_id, record.caption,
                        [(dataset.questions[record.rounds[0].question], "yes")])
    for kind in ("question", "answer"):
        for pool_size in (25, 60):
            spec = PoolSpec(n_neighbor_images=4, pool_size=pool_size, top_m=5, seed=9)
            assert build_pool(kind, state, dataset, features, spec) == \
                oracle_pool(kind, state, dataset, features, spec)


def test_nearest_returns_a_fresh_list(setup):
    _, features, _, _ = setup
    image_id = int(features.id_array[2])
    first = nearest_images(features, image_id, 4)
    want = list(first)
    first[0] = -1
    first.append(-2)
    assert nearest_images(features, image_id, 4) == want


def test_pool_matches_oracle_after_searches_for_other_images(setup):
    dataset, features, _, _ = setup
    record = dataset.records[7]
    for image_id in features.id_array.tolist():
        if image_id != record.image_id:
            for n in (1, 4, 11):
                nearest_images(features, image_id, n)
    state = DialogState(record.image_id, record.caption,
                        [(dataset.questions[record.rounds[0].question], "yes")])
    for kind in ("question", "answer"):
        for n_images, pool_size in ((1, 8), (4, 25), (4, 60), (11, 5000)):
            spec = PoolSpec(n_neighbor_images=n_images, pool_size=pool_size, top_m=5, seed=4)
            assert build_pool(kind, state, dataset, features, spec) == \
                oracle_pool(kind, state, dataset, features, spec)


def test_pool_skips_neighbour_images_without_a_dialog(setup):
    # the feature store may hold images the dataset has no dialog for
    dataset, features, _, _ = setup
    record = dataset.records[0]
    vectors = {int(i): features.get(int(i)) for i in features.id_array}
    stranger = max(vectors) + 1
    vectors[stranger] = 2.0 * vectors[record.image_id]  # the query's nearest image
    store = feature_store(vectors)
    state = DialogState(record.image_id, "c", [])
    spec = PoolSpec(n_neighbor_images=3, pool_size=25, top_m=5, seed=4)
    assert stranger in nearest_images(store, record.image_id, 3)
    for kind in ("question", "answer"):
        assert (build_pool(kind, state, dataset, store, spec)
                == oracle_pool(kind, state, dataset, store, spec))


def test_colliding_fills_match_oracle_pool(setup, monkeypatch):
    # the setup's images, but three strings hold 303 of the 420 question and of
    # the 360 answer entries, so most padding draws collide
    _, features, _, _ = setup
    dataset = load_payload(colliding_payload(qbuilder_corpus(n_images=12, seed=6)))
    record = dataset.records[5]
    state = DialogState(record.image_id, record.caption,
                        [(dataset.questions[record.rounds[0].question], "yes")])
    for kind, pool_size in (("question", 100), ("answer", 50)):
        spec = PoolSpec(n_neighbor_images=2, pool_size=pool_size, top_m=5, seed=7)
        want = oracle_pool(kind, state, dataset, features, spec)
        assert len(want) == pool_size
        with monkeypatch.context() as mp:
            rngs = counting_rngs(mp, np.random, "default_rng")  # the padding generator
            got = build_pool(kind, state, dataset, features, spec)
        assert got == want, kind
        assert len(rngs) == 1 and rngs[0].calls >= 3, (kind, rngs[0].calls)


def test_pool_uses_everything_when_corpus_small(setup):
    dataset, features, _, _ = setup
    state = DialogState(dataset.records[0].image_id, "c", [])
    spec = PoolSpec(n_neighbor_images=11, pool_size=5000, top_m=5, seed=1)
    pool = build_pool("answer", state, dataset, features, spec)
    assert sorted(pool) == sorted(set(dataset.answers))


# ---------------------------------------------------------------------------
# stepping and unrolling
# ---------------------------------------------------------------------------


def test_step_top1_is_argmax(setup):
    dataset, features, q_model, a_model = setup
    record = dataset.records[2]
    state = DialogState(record.image_id, record.caption, [])
    spec = PoolSpec(n_neighbor_images=3, pool_size=20, top_m=1, seed=5)
    _, rnd = step(state, q_model, a_model, dataset, features, spec)
    scores = np.array(rnd.question_scores)
    assert rnd.question == rnd.question_pool[int(np.argmax(scores))]
    a_scores = np.array(rnd.answer_scores)
    assert rnd.answer == rnd.answer_pool[int(np.argmax(a_scores))]


def test_step_requires_matching_tasks(setup):
    dataset, features, q_model, a_model = setup
    state = DialogState(dataset.records[0].image_id, "c", [])
    spec = PoolSpec(n_neighbor_images=3, pool_size=10, top_m=2, seed=0)
    with pytest.raises(ValueError):
        step(state, a_model, a_model, dataset, features, spec)
    with pytest.raises(ValueError):
        step(state, q_model, q_model, dataset, features, spec)


def test_step_refuses_an_empty_pool(setup):
    dataset, features, q_model, a_model = setup
    image_id = dataset.records[0].image_id
    spec = PoolSpec(n_neighbor_images=3, pool_size=10, top_m=2, seed=0)
    # every question of the corpus is one string, and it has been asked
    asked = {"questions": ["is it red ?"], "answers": ["yes"], "dialogs": [
        {"image_id": image_id, "caption": "c",
         "rounds": [{"question": 0, "answer": 0, "answer_options": [0], "gt_index": 0}] * 10}]}
    state = DialogState(image_id, "c", [("is it red ?", "yes")])
    with pytest.raises(RuntimeError, match="no candidate questions available"):
        step(state, q_model, a_model, load_payload(asked, vocab=dataset.vocab), features, spec)
    unanswered = {"questions": ["is it red ?"], "answers": [], "dialogs": []}
    state = DialogState(image_id, "c", [])
    with pytest.raises(RuntimeError, match="no candidate answers available"):
        step(state, q_model, a_model, load_payload(unanswered, vocab=dataset.vocab), features,
             spec)


def test_unknown_pool_kind_and_negative_rounds_rejected(setup):
    dataset, features, q_model, a_model = setup
    state = DialogState(dataset.records[0].image_id, "c", [])
    spec = PoolSpec(n_neighbor_images=3, pool_size=10, top_m=2, seed=0)
    with pytest.raises(ValueError, match="unknown pool kind 'caption'"):
        build_pool("caption", state, dataset, features, spec)
    with pytest.raises(ValueError, match="rounds must be >= 0"):
        unroll(state, -1, q_model, a_model, dataset, features, spec)


def test_unroll_zero_rounds_is_identity(setup):
    dataset, features, q_model, a_model = setup
    record = dataset.records[1]
    history = [(dataset.questions[record.rounds[0].question],
                dataset.answers[record.rounds[0].answer])]
    state = DialogState(record.image_id, record.caption, history)
    spec = PoolSpec(n_neighbor_images=3, pool_size=15, top_m=3, seed=2)
    transcript = unroll(state, 0, q_model, a_model, dataset, features, spec)
    assert transcript.rounds == []
    assert transcript.initial_history == history
    assert verify_transcript(transcript) == []


@pytest.mark.parametrize("start_rounds", [1, 5])
def test_unroll_history_modes_run_clean(setup, start_rounds):
    dataset, features, q_model, a_model = setup
    record = dataset.records[4]
    history = [(dataset.questions[r.question], dataset.answers[r.answer])
               for r in record.rounds[:start_rounds]]
    state = DialogState(record.image_id, record.caption, history)
    spec = PoolSpec(n_neighbor_images=4, pool_size=25, top_m=5, seed=3)
    transcript = unroll(state, 6, q_model, a_model, dataset, features, spec)
    assert len(transcript.rounds) == 6
    assert verify_transcript(transcript) == []
    questions = [r.question for r in transcript.rounds]
    assert len(set(questions)) == 6
    assert not set(questions) & {q for q, _ in history}


def test_unroll_deterministic_bytes(setup):
    dataset, features, q_model, a_model = setup
    record = dataset.records[0]
    state = DialogState(record.image_id, record.caption, [])
    spec = PoolSpec(n_neighbor_images=4, pool_size=25, top_m=5, seed=8)
    t1 = unroll(state, 5, q_model, a_model, dataset, features, spec)
    t2 = unroll(state, 5, q_model, a_model, dataset, features, spec)
    assert t1.to_bytes() == t2.to_bytes()


def test_transcript_file_layout(setup):
    # the file's key names and nesting are its format
    dataset, features, q_model, a_model = setup
    record = dataset.records[2]
    history = [(dataset.questions[r.question], dataset.answers[r.answer])
               for r in record.rounds[:2]]
    state = DialogState(record.image_id, record.caption, history)
    spec = PoolSpec(n_neighbor_images=3, pool_size=12, top_m=3, seed=4)
    transcript = unroll(state, 2, q_model, a_model, dataset, features, spec)
    payload = json.loads(transcript.to_bytes())
    assert set(payload) == {"image_id", "caption", "initial_history", "spec", "q_model",
                            "a_model", "rounds"}
    assert (payload["image_id"], payload["caption"]) == (record.image_id, record.caption)
    assert payload["initial_history"] == [[q, a] for q, a in history]
    assert payload["spec"] == {"n_neighbor_images": 3, "pool_size": 12, "top_m": 3, "seed": 4}
    for key, model in (("q_model", q_model), ("a_model", a_model)):
        assert payload[key] == json.loads(json.dumps(model.config()))
    fields = ("question", "answer", "question_pool", "question_scores", "top_indices", "draw",
              "answer_pool", "answer_scores", "answer_index")
    assert len(payload["rounds"]) == 2
    for got, rnd in zip(payload["rounds"], transcript.rounds):
        assert got == {name: getattr(rnd, name) for name in fields}


def test_unroll_ten_rounds_with_small_history_windows(setup):
    # both models fit only 3 history slots; the window slides
    dataset, features, q_model, a_model = setup
    record = dataset.records[5]
    state = DialogState(record.image_id, record.caption, [])
    spec = PoolSpec(n_neighbor_images=4, pool_size=25, top_m=5, seed=13)
    transcript = unroll(state, 10, q_model, a_model, dataset, features, spec)
    assert len(transcript.rounds) == 10
    assert verify_transcript(transcript) == []


def test_unroll_from_warm_memo_matches_fresh_loads(setup, tmp_path):
    # models whose memos were warmed by other dialogs write the same transcript
    # bytes as fresh default loads and as memo-free adam_state=True loads
    dataset, features, q_model, a_model = setup
    paths = [tmp_path / "q.ckpt", tmp_path / "a.ckpt"]
    for model, path in zip((q_model, a_model), paths):
        save_checkpoint(model, path)

    def loads(**kwargs):
        return [load_checkpoint(path, **kwargs)[0] for path in paths]

    spec = PoolSpec(n_neighbor_images=4, pool_size=25, top_m=5, seed=9)
    warm = loads()
    for record in dataset.records[1:6]:
        unroll(DialogState(record.image_id, record.caption, []), 4, *warm, dataset,
               features, spec)
    assert warm[0].paths["option"].memo.rows and warm[1].paths["option"].memo.rows
    record = dataset.records[0]
    state = DialogState(record.image_id, record.caption, [])
    want = unroll(state, 6, *loads(adam_state=True), dataset, features, spec).to_bytes()
    for models in (warm, loads()):
        assert unroll(state, 6, *models, dataset, features, spec).to_bytes() == want


def test_verify_transcript_catches_tampering(setup):
    dataset, features, q_model, a_model = setup
    record = dataset.records[0]
    state = DialogState(record.image_id, record.caption, [])
    spec = PoolSpec(n_neighbor_images=4, pool_size=25, top_m=5, seed=8)
    transcript = unroll(state, 3, q_model, a_model, dataset, features, spec)
    clean = copy.deepcopy(transcript)
    transcript.rounds[1].answer_index = (transcript.rounds[1].answer_index + 1) % 25
    assert any("maximum" in p or "mismatch" in p for p in verify_transcript(transcript))

    def problems_after(tamper):
        tampered = copy.deepcopy(clean)
        tamper(tampered, tampered.rounds[1])
        return verify_transcript(tampered)

    assert verify_transcript(clean) == []
    assert problems_after(lambda t, rnd: t.initial_history.append((rnd.question, "no"))) == [
        "round 2: question repeats an earlier one"]
    others = [i for i in range(len(clean.rounds[1].top_indices)) if i != clean.rounds[1].draw]

    def swap_two_undrawn(t, rnd):
        i, j = others[:2]
        rnd.top_indices[i], rnd.top_indices[j] = rnd.top_indices[j], rnd.top_indices[i]

    assert problems_after(swap_two_undrawn) == [
        "round 2: recorded top candidates disagree with the scores"]
    assert problems_after(lambda t, rnd: setattr(rnd, "draw", others[0])) == [
        "round 2: chosen question is not the recorded draw"]


def test_pool_strings_encoded_once_per_model(setup, monkeypatch):
    # each pool, history and caption string is tokenized once per model and
    # length cap and reused in later rounds; the transcript is the same bytes
    # as with every string encoded afresh
    dataset, features, _, _ = setup
    q_model, a_model = toy_models(dataset.vocab, rounds_q=3, rounds_a=5)
    record = dataset.records[3]
    state = DialogState(record.image_id, record.caption, [])
    spec = PoolSpec(n_neighbor_images=4, pool_size=25, top_m=5, seed=21)
    calls = Counter()
    tokenize = unroll_module.tokenize

    def counted(s):
        calls[s] += 1
        return tokenize(s)

    monkeypatch.setattr(unroll_module, "tokenize", counted)
    memoised = unroll(state, 6, q_model, a_model, dataset, features, spec)
    assert calls == Counter(s for model in (q_model, a_model) for s, _ in model._token_ids)
    assert calls[record.caption] == 2  # once per model, not once per round
    for model, kind in ((q_model, "question_pool"), (a_model, "answer_pool")):
        pooled = {s for rnd in memoised.rounds for s in getattr(rnd, kind)}
        assert pooled <= {s for s, _ in model._token_ids}

    token_ids = unroll_module._token_ids

    def afresh(model, s, cap):
        model._token_ids.clear()
        return token_ids(model, s, cap)

    monkeypatch.setattr(unroll_module, "_token_ids", afresh)
    fresh = unroll(state, 6, q_model, a_model, dataset, features, spec)
    assert fresh.to_bytes() == memoised.to_bytes()
