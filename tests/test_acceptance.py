"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Full-scale reference numbers are not reproducible on a desk, so every
criterion here is a property or oracle check at reduced size with pinned
tolerances and runtime budgets.
"""

import time

import numpy as np
import pytest

from dialogrank import nn
from dialogrank.checkpoint import load_checkpoint, save_checkpoint
from dialogrank.encoders import ModelDims
from dialogrank.metrics import compute_metrics, evaluate_examples, rank_of_gt
from dialogrank.model import (DialogScorer, examples_from_dataset,
                              full_model_gradcheck, reduced_check_dims)
from dialogrank.qdataset import (CorpusKeys, build_candidate_set,
                                 build_qdataset_payload, compute_popular, find_plausible)
from dialogrank.scorer import FusionMlp
from dialogrank.text import GloveTable, dataset_from_payload, dataset_json_bytes
from dialogrank.training import TrainConfig, train
from dialogrank.unroll import DialogState, PoolSpec, unroll, verify_transcript
from oracles import oracle_candidate_set, oracle_rank
from synth import (color_family, feature_store, load_payload, memorize_family,
                   object_family, payload_vocab, qbuilder_corpus, toy_glove)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. gradient integrity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    dims = reduced_check_dims(rounds=4)  # E=8, Lq=Lo=16, small blocks 8, Li=12, T=4
    assert (dims.embed_dim, dims.query_hidden, dims.option_hidden) == (8, 16, 16)
    assert (dims.caption_hidden, dims.history_q_hidden, dims.history_a_hidden,
            dims.history_pair_dim, dims.image_dim) == (8, 8, 8, 8, 12)
    worst = 0.0
    for seed in range(5):
        rep = full_model_gradcheck(seed=seed, vocab_size=50, k_options=5,
                                   shared_embeddings=True, tolerance=1e-4)
        worst = max(worst, rep.max_rel_error)
        assert rep.passed, rep.summary()
    elapsed = time.perf_counter() - t0
    report(1, "full-model gradients match central differences over 5 seeds",
           worst < 1e-4 and elapsed < 300,
           f"max_rel_error={worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. overfit sanity
# ---------------------------------------------------------------------------


def overfit_setup():
    payload, feats = memorize_family(n_dialogs=20, k_options=8, seed=0)
    dataset = load_payload(payload)
    features = feature_store(feats)
    dims = ModelDims.for_task(
        "visdial", rounds=4, embed_dim=16, query_hidden=32, option_hidden=32,
        caption_hidden=16, history_q_hidden=16, history_a_hidden=16,
        history_pair_dim=16, image_dim=16)
    return dataset, features, dims


def test_criterion_2_overfit_sanity(tmp_path):
    t0 = time.perf_counter()
    dataset, features, dims = overfit_setup()

    def cfg(max_steps):
        return TrainConfig(task="visdial", variant="qih", mlp_depth=2,
                           shared_embeddings=True, learning_rate=1e-3, batch_size=20,
                           max_epochs=1000, patience=1000, seed=7,
                           max_steps=max_steps, dims=dims)

    first_logs = train(dataset, dataset, features, cfg(max_steps=1), tmp_path / "first.ckpt")
    first_step_loss = first_logs[0].mean_train_loss
    assert abs(first_step_loss - np.log(8)) < 0.5

    train(dataset, dataset, features, cfg(max_steps=200), tmp_path / "m.ckpt")
    model, _ = load_checkpoint(tmp_path / "m.ckpt", adam_state=True)
    examples = examples_from_dataset(dataset, features, "visdial", "qih", dims)
    train_report = evaluate_examples(model, examples)
    elapsed = time.perf_counter() - t0
    report(2, "20-dialog overfit reaches train R@1=100% within 200 Adam steps",
           train_report.r_at_1 == 100.0 and elapsed < 120,
           f"R@1={train_report.r_at_1:.2f}, first-step loss={first_step_loss:.3f} "
           f"(ln 8={np.log(8):.3f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3. loss formula fixture
# ---------------------------------------------------------------------------


def test_criterion_3_loss_formula():
    loss, grads = nn.softmax_cross_entropy(np.zeros(100), 31)
    uniform_ok = abs(loss - np.log(100)) < 1e-9
    grad_sum_ok = abs(grads.sum()) < 1e-12

    rng = np.random.default_rng(13)
    shift_ok = True
    for _ in range(20):
        s = rng.normal(size=100)
        gt = int(rng.integers(0, 100))
        base, g = nn.softmax_cross_entropy(s, gt)
        shifted, _ = nn.softmax_cross_entropy(s + 57.25, gt)
        shift_ok &= abs(base - shifted) < 1e-10
        grad_sum_ok &= abs(g.sum()) < 1e-12
    report(3, "uniform-score loss equals ln 100; grads sum to zero; shift invariant",
           uniform_ok and grad_sum_ok and shift_ok,
           f"loss={loss:.9f} vs ln100={np.log(100):.9f}")


# ---------------------------------------------------------------------------
# 4. metric oracle
# ---------------------------------------------------------------------------


def test_criterion_4_metric_oracle():
    rng = np.random.default_rng(21)
    checked = 0
    for k in (2, 5, 100):
        for _ in range(3334):
            scores = rng.normal(size=k)
            if rng.random() < 0.05:
                scores = np.round(scores * 2.0)  # provoke ties
            gt = int(rng.integers(0, k))
            assert rank_of_gt(scores, gt) == oracle_rank(list(scores), gt)
            checked += 1
        tied = np.full(k, 3.5)
        assert rank_of_gt(tied, int(rng.integers(0, k))) == k
        checked += 1

    trials = 10_000
    ranks = [rank_of_gt(rng.normal(size=100), int(rng.integers(0, 100)))
             for _ in range(trials)]
    mc = compute_metrics(ranks)
    h100 = sum(1.0 / r for r in range(1, 101))
    mean_ok = abs(mc.mean_rank - 50.5) < 1.0
    mrr_ok = abs(mc.mrr - h100 / 100.0) < 0.005
    report(4, "rank/metrics match the sort oracle; random scorer hits uniform stats",
           checked >= 10_000 and mean_ok and mrr_ok,
           f"{checked} vectors, mean_rank={mc.mean_rank:.2f}, mrr={mc.mrr:.4f} "
           f"vs {h100 / 100.0:.4f}")


# ---------------------------------------------------------------------------
# 5. follow-up-question builder oracle
# ---------------------------------------------------------------------------


def test_criterion_5_builder_oracle():
    payload = qbuilder_corpus(n_images=30, seed=0)
    dataset = load_payload(payload)
    glove_dict = toy_glove(payload, dim=5)
    glove = GloveTable({w: np.asarray(v) for w, v in glove_dict.items()})
    keys = CorpusKeys(dataset, glove)
    popular = compute_popular(dataset)
    seed = 17

    rounds_checked = 0
    rows = np.flatnonzero(keys.followups >= 0)
    plausible = find_plausible(keys.matrix[rows], keys.image_ids[rows], keys)
    for row, neighbours in zip(rows, plausible, strict=True):
        record = dataset.by_image[int(keys.image_ids[row])]
        t = int(keys.round_nos[row])
        got = build_candidate_set(dataset, keys, row, neighbours, popular, seed)
        want, want_gt = oracle_candidate_set(payload, record.image_id, t,
                                             glove_dict, seed)
        strings = [dataset.questions[i] for i in got["question_options"]]
        assert list(zip(strings, got["question_provenance"])) == want
        assert got["question_gt_index"] == want_gt
        assert len(strings) == 100 and len(set(strings)) == 100
        assert strings[got["question_gt_index"]] == dataset.questions[record.rounds[t].question]
        rounds_checked += 1

    # plausible exclusions, checked against the neighbor rows themselves
    probe = dataset.records[2]
    from dialogrank.qdataset import content_words, qa_pair_key
    q_round = probe.rounds[0]
    key = qa_pair_key(content_words(dataset.questions[q_round.question]),
                      content_words(dataset.answers[q_round.answer]), glove)
    hits, = find_plausible(key[None], [probe.image_id], keys)
    exclusions_ok = all(keys.image_ids[h] != probe.image_id and keys.round_nos[h] < 10
                        for h in hits)

    built_a = dataset_json_bytes(build_qdataset_payload(dataset, glove, seed))
    built_b = dataset_json_bytes(build_qdataset_payload(dataset, glove, seed))
    report(5, "candidate sets match the independent mining oracle on every round",
           rounds_checked == 270 and exclusions_ok and built_a == built_b,
           f"{rounds_checked} rounds, rebuild byte-identical={built_a == built_b}")


# ---------------------------------------------------------------------------
# 6. architecture shape fixtures
# ---------------------------------------------------------------------------


def test_criterion_6_shape_fixtures():
    visdial = ModelDims.for_task("visdial")
    followup = ModelDims.for_task("visdial-q")
    fused_ok = (visdial.fused_dim("qih") == 6400
                and followup.fused_dim("qih") == 6272
                and visdial.fused_dim("q") == 1024)
    mlp = FusionMlp(visdial.fused_dim("qih"), depth=2)
    hidden_ok = mlp.hidden_sizes == [3200, 1600]
    history_ok = (visdial.history_len == 9 * 128
                  and followup.history_len == 8 * 128)
    report(6, "fused widths 6400/6272/1024, hidden 3200/1600, history (T-1)*128",
           fused_ok and hidden_ok and history_ok)


# ---------------------------------------------------------------------------
# 7. context-ordering property
# ---------------------------------------------------------------------------


def _train_family(train_payload, val_payload, features_map, variant, out, seed=1):
    vocab = payload_vocab(train_payload)
    train_set = load_payload(train_payload, vocab)
    val_set = load_payload(val_payload, vocab)
    features = feature_store(features_map)
    dims = ModelDims.for_task(
        "visdial", rounds=4, embed_dim=8, query_hidden=16, option_hidden=16,
        caption_hidden=8, history_q_hidden=8, history_a_hidden=8,
        history_pair_dim=8, image_dim=features.dim)
    cfg = TrainConfig(task="visdial", variant=variant, mlp_depth=1,
                      shared_embeddings=True, learning_rate=3e-3, batch_size=16,
                      max_epochs=25, patience=25, seed=seed, dims=dims)
    logs = train(train_set, val_set, features, cfg, out)
    return max(entry.val.mrr for entry in logs)


def _disjoint_val(family, n_val, offset, seed):
    payload, feats = family(n_dialogs=n_val, seed=seed)
    payload = dict(payload)
    payload["dialogs"] = [dict(d, image_id=d["image_id"] + offset)
                          for d in payload["dialogs"]]
    feats = {k + offset: v for k, v in feats.items()}
    return payload, feats


def test_criterion_7_history_cue_ordering(tmp_path):
    t0 = time.perf_counter()
    train_payload, train_feats = color_family(n_dialogs=48, seed=0)
    val_payload, val_feats = _disjoint_val(color_family, 16, 500, seed=100)
    features = {**train_feats, **val_feats}
    mrr_qih = _train_family(train_payload, val_payload, features, "qih", tmp_path / "qih.ckpt")
    mrr_qi = _train_family(train_payload, val_payload, features, "qi", tmp_path / "qi.ckpt")
    elapsed = time.perf_counter() - t0
    report(7, "history-determined family: trained QIH beats trained QI by >= 0.1 MRR",
           mrr_qih - mrr_qi >= 0.1 and elapsed < 600,
           f"QIH={mrr_qih:.3f} QI={mrr_qi:.3f}, {elapsed:.0f}s")


def test_criterion_7_image_cue_ordering(tmp_path):
    t0 = time.perf_counter()
    train_payload, train_feats = object_family(n_dialogs=48, seed=0)
    val_payload, val_feats = _disjoint_val(object_family, 16, 500, seed=100)
    features = {**train_feats, **val_feats}
    mrr_qi = _train_family(train_payload, val_payload, features, "qi", tmp_path / "qi.ckpt")
    mrr_q = _train_family(train_payload, val_payload, features, "q", tmp_path / "q.ckpt")
    elapsed = time.perf_counter() - t0
    report(7, "image-determined family: trained QI beats trained Q by >= 0.1 MRR",
           mrr_qi - mrr_q >= 0.1 and elapsed < 600,
           f"QI={mrr_qi:.3f} Q={mrr_q:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. unroller audit
# ---------------------------------------------------------------------------


def test_criterion_8_unroller_audit():
    payload = qbuilder_corpus(n_images=20, seed=6)
    dataset = load_payload(payload)
    rng = np.random.default_rng(3)
    features = feature_store(
        {d["image_id"]: rng.normal(size=6) for d in payload["dialogs"]})

    def dims(task):
        return ModelDims.for_task(task, rounds=4, embed_dim=8, query_hidden=16,
                                  option_hidden=16, caption_hidden=8,
                                  history_q_hidden=8, history_a_hidden=8,
                                  history_pair_dim=8, image_dim=6)

    q_model = DialogScorer(dims("visdial-q"), dataset.vocab, task="visdial-q",
                           variant="qih", mlp_depth=1, shared_embeddings=True,
                           init_seed=21)
    a_model = DialogScorer(dims("visdial"), dataset.vocab, task="visdial",
                           variant="qih", mlp_depth=1, shared_embeddings=True,
                           init_seed=22)
    spec = PoolSpec(n_neighbor_images=5, pool_size=30, top_m=10, seed=77)

    transcripts = 0
    all_clean = True
    replay_ok = True
    for record in dataset.records:
        history = [(dataset.questions[record.rounds[0].question],
                    dataset.answers[record.rounds[0].answer])]
        state = DialogState(record.image_id, record.caption, history)
        t1 = unroll(state, 10, q_model, a_model, dataset, features, spec)
        t2 = unroll(state, 10, q_model, a_model, dataset, features, spec)
        problems = verify_transcript(t1)
        all_clean &= not problems
        replay_ok &= t1.to_bytes() == t2.to_bytes()
        questions = [r.question for r in t1.rounds]
        all_clean &= len(set(questions)) == 10
        transcripts += 1
    report(8, "20 transcripts x 10 rounds: unique questions, top-10 draws, "
              "argmax answers, bitwise replay",
           transcripts == 20 and all_clean and replay_ok,
           f"{transcripts} transcripts")


# ---------------------------------------------------------------------------
# 9. persistence
# ---------------------------------------------------------------------------


def test_criterion_9_persistence(tmp_path):
    dataset, features, dims = overfit_setup()
    cfg = TrainConfig(task="visdial", variant="qih", mlp_depth=1,
                      shared_embeddings=True, learning_rate=1e-3, batch_size=16,
                      max_epochs=5, patience=10, seed=5, max_steps=8, dims=dims)
    train(dataset, dataset, features, cfg, tmp_path / "trained.ckpt")
    model, _ = load_checkpoint(tmp_path / "trained.ckpt", adam_state=True)

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1, extra_config={"run": "acceptance"})
    loaded, extra = load_checkpoint(p1, adam_state=True)
    save_checkpoint(loaded, p2, extra_config=extra)
    bytes_ok = p1.read_bytes() == p2.read_bytes()

    examples = examples_from_dataset(dataset, features, "visdial", "qih", dims)
    metrics_ok = evaluate_examples(model, examples) == evaluate_examples(loaded, examples)

    qpayload = qbuilder_corpus(n_images=12, seed=1)
    qdataset = load_payload(qpayload)
    glove = GloveTable({w: np.asarray(v) for w, v in toy_glove(qpayload).items()})
    built = build_qdataset_payload(qdataset, glove, seed=3)
    blob = dataset_json_bytes(built)
    qfile = tmp_path / "q.json"
    qfile.write_bytes(blob)
    import json

    reread = json.loads(qfile.read_text())
    roundtrip_ok = dataset_json_bytes(reread) == blob
    loadable = dataset_from_payload(reread, payload_vocab(reread))
    report(9, "checkpoint and follow-up dataset files round-trip byte-exactly",
           bytes_ok and metrics_ok and roundtrip_ok and loadable.task == "visdial-q",
           f"ckpt bytes equal={bytes_ok}, metrics equal={metrics_ok}")
