import numpy as np
import pytest

from dialogrank.metrics import compute_metrics, evaluate_examples, rank_of_gt
from dialogrank.model import DialogScorer, reduced_check_dims, synthetic_vocab
from oracles import oracle_rank


def test_rank_strict_max():
    assert rank_of_gt([0.1, 0.9, 0.3], 1) == 1


def test_rank_all_tied_is_k():
    assert rank_of_gt([2.0] * 7, 3) == 7


def test_rank_out_of_range():
    with pytest.raises(IndexError):
        rank_of_gt([1.0, 2.0], 2)


@pytest.mark.parametrize("k", [2, 5, 100])
def test_rank_matches_sort_oracle(k):
    rng = np.random.default_rng(k)
    for _ in range(500):
        scores = rng.normal(size=k)
        if rng.random() < 0.1:
            scores = np.round(scores)  # provoke ties
        gt = int(rng.integers(0, k))
        assert rank_of_gt(scores, gt) == oracle_rank(list(scores), gt)


def test_rank_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=50)
    gt = 11
    base = rank_of_gt(scores, gt)
    assert rank_of_gt(3.0 * scores + 7.0, gt) == base
    assert rank_of_gt(np.tanh(scores), gt) == base


def test_metrics_perfect():
    report = compute_metrics([1, 1, 1])
    assert report.mrr == 1.0
    assert report.r_at_1 == report.r_at_5 == report.r_at_10 == 100.0
    assert report.mean_rank == 1.0
    assert report.n == 3


def test_metrics_worked_example():
    report = compute_metrics([1, 2, 10])
    assert abs(report.mrr - (1.0 + 0.5 + 0.1) / 3.0) < 1e-12
    assert abs(report.r_at_1 - 100.0 / 3.0) < 1e-9
    assert abs(report.r_at_5 - 200.0 / 3.0) < 1e-9
    assert report.r_at_10 == 100.0
    assert abs(report.mean_rank - 13.0 / 3.0) < 1e-12


def test_evaluate_examples_rejects_no_rounds():
    model = DialogScorer(reduced_check_dims(), synthetic_vocab(), init_seed=0)
    with pytest.raises(ValueError, match="no rounds to evaluate"):
        evaluate_examples(model, [])


def test_metrics_bounds_relations():
    rng = np.random.default_rng(9)
    ranks = rng.integers(1, 101, size=400)
    report = compute_metrics(ranks)
    assert 0 <= report.r_at_1 <= report.r_at_5 <= report.r_at_10 <= 100
    assert 1 <= report.mean_rank <= 100
    assert report.mrr >= report.r_at_1 / 100.0


def test_random_scorer_monte_carlo():
    rng = np.random.default_rng(123)
    k, trials = 100, 10_000
    ranks = [rank_of_gt(rng.normal(size=k), int(rng.integers(0, k)))
             for _ in range(trials)]
    report = compute_metrics(ranks)
    h100 = sum(1.0 / r for r in range(1, 101))
    assert abs(report.mean_rank - 50.5) < 1.0
    assert abs(report.mrr - h100 / 100.0) < 0.005


def test_untrained_model_scores_near_uniform():
    from dialogrank.metrics import evaluate_examples
    from dialogrank.model import DialogScorer, random_example, reduced_check_dims, synthetic_vocab

    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, task="visdial", variant="qih", mlp_depth=1,
                         shared_embeddings=True, init_seed=99)
    rng = np.random.default_rng(31)
    examples = [random_example(vocab, dims, rng, k_options=8) for _ in range(200)]
    report = evaluate_examples(model, examples)
    assert 3.5 <= report.mean_rank <= 5.5  # near the uniform expectation (8+1)/2


def test_rank_log_reproduces_report(tmp_path):
    from dialogrank.metrics import evaluate_model
    from dialogrank.model import DialogScorer
    from synth import feature_store, load_payload, memorize_family
    from dialogrank.encoders import ModelDims

    payload, feats = memorize_family(n_dialogs=4, k_options=6, seed=8)
    ds = load_payload(payload)
    dims = ModelDims.for_task("visdial", rounds=4, embed_dim=8, query_hidden=16,
                              option_hidden=16, caption_hidden=8, history_q_hidden=8,
                              history_a_hidden=8, history_pair_dim=8, image_dim=16)
    model = DialogScorer(dims, ds.vocab, task="visdial", variant="qih", mlp_depth=1,
                         shared_embeddings=True, init_seed=2)
    log_path = tmp_path / "ranks.log"
    report = evaluate_model(model, ds, feature_store(feats), "visdial",
                            rank_log_path=log_path)
    ranks = [int(line.split()[2]) for line in log_path.read_text().splitlines()]
    assert compute_metrics(ranks) == report
