import dataclasses

import numpy as np
import pytest

from dialogrank import nn
from dialogrank.encoders import ModelDims
from dialogrank.model import DialogScorer, random_example, reduced_check_dims, synthetic_vocab
from dialogrank.scorer import FusionMlp


def test_mlp_hidden_sizes_at_defaults():
    dims = ModelDims.for_task("visdial")
    mlp = FusionMlp(dims.fused_dim("qih"), depth=2)
    assert mlp.input_dim == 6400
    assert mlp.hidden_sizes == [3200, 1600]
    one = FusionMlp(dims.fused_dim("qih"), depth=1)
    assert one.hidden_sizes == [3200]
    with pytest.raises(ValueError):
        FusionMlp(64, depth=3)


def test_assemble_order_and_masking(monkeypatch):
    # fused columns, and so the input columns of mlp.h0.weight in checkpoints:
    # query | image | caption | history | option, masked blocks omitted
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    ex = random_example(vocab, dims, np.random.default_rng(8), k_options=3, n_history=1)
    for variant in ("q", "qi", "qih"):
        model = DialogScorer(dims, vocab, variant=variant, init_seed=2)
        seen = []
        monkeypatch.setattr(model.mlp, "score_rows", lambda rows, *args: (
            seen.append(rows.copy()), (np.zeros(len(rows)), None))[1])
        model.score_example(ex)

        blocks = [model.bank.encode_query(ex.question_ids)[0]]
        if variant != "q":
            blocks.append(ex.image_vec)
        if variant == "qih":
            blocks.append(model.bank.encode_caption(ex.caption_ids)[0])
            blocks.append(model.bank.encode_histories([ex.history], train=False)[0][0])
        width = sum(b.size for b in blocks) + dims.option_hidden
        assert width == dims.fused_dim(variant) == model.mlp.hidden[0].weight.shape[1]
        for k, ids in enumerate(ex.option_ids):
            expected = np.concatenate(blocks + [model.bank.encode_option(ids)[0]])
            assert np.array_equal(seen[0][k], expected)


def test_loss_uniform_and_perfect():
    loss, _ = nn.softmax_cross_entropy(np.zeros(100), 42)
    assert abs(loss - np.log(100)) < 1e-12
    sharp = np.zeros(10)
    sharp[3] = 60.0
    loss, _ = nn.softmax_cross_entropy(sharp, 3)
    assert loss < 1e-12


def eval_model_and_example(seed=0, k=7):
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, task="visdial", variant="qih", mlp_depth=2,
                         shared_embeddings=True, init_seed=seed)
    rng = np.random.default_rng([seed, 9])
    ex = random_example(vocab, dims, rng, k_options=k)
    return model, ex


def with_options(ex, option_ids):
    return dataclasses.replace(ex, option_ids=list(option_ids), gt_index=0)


@pytest.mark.parametrize("size", [1, 2, 3, 5])
def test_eval_scores_independent_of_cobatched_options(size):
    model, ex = eval_model_and_example()
    full = model.score_example(ex).scores
    for start in range(len(ex.option_ids) - size + 1):
        subset = model.score_example(with_options(ex, ex.option_ids[start : start + size]))
        assert np.array_equal(subset.scores, full[start : start + size])  # bitwise


def test_eval_handles_any_option_count():
    model, ex = eval_model_and_example(k=37)
    scored = model.score_example(ex)
    assert scored.scores.shape == (37,)


def test_duplicate_options_equal_scores():
    model, ex = eval_model_and_example()
    dup = [ex.option_ids[0], ex.option_ids[0], ex.option_ids[1]]
    scored = model.score_example(with_options(ex, dup))
    assert scored.scores[0] == scored.scores[1]


def test_width_mismatch_rejected():
    model, ex = eval_model_and_example()
    ex.image_vec = ex.image_vec[:6]
    with pytest.raises(ValueError, match=r"\(6,\).*image_dim 12"):
        model.score_example(ex)
    with pytest.raises(ValueError, match=r"\(6,\).*image_dim 12"):
        model.batch_loss([ex])


def test_overfitting_one_example_drives_gt_probability_up():
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, task="visdial", variant="qih", mlp_depth=2,
                         shared_embeddings=True, init_seed=1)
    rng = np.random.default_rng(77)
    batch = [random_example(vocab, dims, rng, k_options=6)]
    cfg = nn.AdamConfig(learning_rate=1e-3)
    params = list(model.parameters().values())

    def gt_probability():
        scores, _ = model.batch_forward(batch, update_running=False)
        e = np.exp(scores[0] - scores[0].max())
        return (e / e.sum())[batch[0].gt_index]

    losses = []
    improved = 0
    prev_p = gt_probability()
    for _ in range(50):
        losses.append(model.batch_loss(batch))
        nn.adam_step(params, cfg)
        p = gt_probability()
        if p > prev_p:
            improved += 1
        prev_p = p
    assert losses[-1] < losses[0]
    assert improved >= 45


def test_batch_forward_train_mode_norms_over_option_rows():
    model, ex = eval_model_and_example(k=6)
    scores, bundle = model.batch_forward([ex], train=True, update_running=False)
    mlp_cache = bundle[-1]
    assert mlp_cache is not None
    assert scores[0].shape == (6,)
    # backward through the cached rows accumulates gradients
    model.zero_grads()
    drows = model.mlp.backward_rows(mlp_cache, np.ones(6))
    assert drows.shape == (6, model.mlp.input_dim)
    assert any(p.grad.any() for p in model.mlp.parameters().values())
