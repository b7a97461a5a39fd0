import dataclasses
import sys
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from path_encode import encode_caption, encode_option, encode_query
from dialogrank import nn
from dialogrank.checkpoint import load_checkpoint, save_checkpoint
from dialogrank.encoders import EncodingMemo, ModelDims
from dialogrank.model import DialogScorer, random_example, reduced_check_dims, synthetic_vocab
from dialogrank.scorer import FusionMlp
from oracles import (oracle_candidate_scores, oracle_fused_mlp, oracle_project,
                     oracle_score_example)


def test_mlp_hidden_sizes_at_defaults():
    dims = ModelDims.for_task("visdial")
    mlp = FusionMlp(dims.fused_dim("qih"), depth=2)
    assert mlp.input_dim == 6400
    assert mlp.hidden_sizes == [3200, 1600]
    one = FusionMlp(dims.fused_dim("qih"), depth=1)
    assert one.hidden_sizes == [3200]


def close(got, want, rtol=1e-12):
    """Agreement relative to the largest magnitude of the reference."""
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def test_assemble_order_and_masking():
    # the input columns of mlp.h0.weight, and so of checkpoints, are
    # query | image | caption | history | option, masked blocks omitted
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    ex = random_example(vocab, dims, np.random.default_rng(8), k_options=3, n_history=1)
    for variant in ("q", "qi", "qih"):
        model = DialogScorer(dims, vocab, variant=variant, init_seed=2)
        blocks = [encode_query(model, ex.question_ids)[0]]
        if variant != "q":
            blocks.append(ex.image_vec)
        if variant == "qih":
            blocks.append(encode_caption(model, ex.caption_ids)[0])
            blocks.append(model.encode_histories([ex.history], train=False)[0][0])
        ctx = np.concatenate(blocks)[None]
        opts = np.stack([encode_option(model, ids)[0] for ids in ex.option_ids])
        width = ctx.shape[1] + opts.shape[1]
        assert width == dims.fused_dim(variant) == model.mlp.layers[0].weight.shape[1]
        want = oracle_fused_mlp(model.mlp, ctx, opts, [0, 3], np.arange(3), train=False)[0]
        assert close(model.score_example(ex).scores, want)


def seeded_norms(norms, rng):
    """Non-trivial running statistics and affine parameters for every norm."""
    for bn in norms:
        bn.running_mean[:] = rng.normal(size=bn.dim)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=bn.dim)
        bn.gamma.value[:] = rng.uniform(0.5, 1.5, size=bn.dim)
        bn.beta.value[:] = rng.normal(size=bn.dim)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("variant", ["q", "qi", "qih"])
def test_late_fusion_matches_fused_row_oracle(variant, depth):
    dims = reduced_check_dims()
    model = DialogScorer(dims, synthetic_vocab(40), variant=variant, mlp_depth=depth,
                         init_seed=3)
    mlp = model.mlp
    rng = np.random.default_rng([5, depth])
    seeded_norms(mlp.layers[1::2], rng)
    offsets = np.array([0, 4, 7, 12])  # B=3; options repeat within and across examples
    option_of_row = np.array([0, 1, 0, 2, 2, 3, 1, 4, 0, 4, 5, 3])
    ctx = rng.normal(size=(3, mlp.input_dim - dims.option_hidden))
    opts = rng.normal(size=(6, dims.option_hidden))
    dscores = rng.normal(size=12)

    want = oracle_fused_mlp(mlp, ctx, opts, offsets, option_of_row, train=False)[0]
    got, cache = mlp.forward(ctx, opts, offsets, option_of_row, train=False)
    assert cache is None
    assert close(got, want)

    want, running, grads, dctx, dopts = oracle_fused_mlp(
        mlp, ctx, opts, offsets, option_of_row, train=True, dscores=dscores)
    for p in model.parameters().values():
        p.zero_grad()
    got, cache = mlp.forward(ctx, opts, offsets, option_of_row, train=True)
    assert close(got, want)
    for bn, (mean, var) in zip(mlp.layers[1::2], running, strict=True):
        assert close(bn.running_mean, mean) and close(bn.running_var, var)
    got_dctx, got_dopts = mlp.backward(cache, dscores)
    assert close(got_dctx, dctx) and close(got_dopts, dopts)
    params = {p.name: p for layer in mlp.layers for p in layer.parameters()}
    assert set(params) == set(grads)
    # a linear bias in front of a train-mode norm has a true gradient of 0 and
    # a computed one of pure roundoff: judge each against its layer's largest
    layer_scale = {}
    for name, grad in grads.items():
        layer = name.rsplit(".", 1)[0]
        layer_scale[layer] = max(layer_scale.get(layer, 0.0), np.abs(grad).max())
    for name, grad in grads.items():
        err = np.abs(params[name].grad - grad).max()
        assert err <= 1e-12 * layer_scale[name.rsplit(".", 1)[0]], name


def blocked_h0_case():
    """An MLP whose h0 context gradient spans three row blocks of
    nn.BLOCK // 300 rows, the last one ragged, and a seeded train-mode batch."""
    split, rows = 300, nn.BLOCK // 300
    mlp = FusionMlp(split + 200, depth=2, rng=np.random.default_rng(6))
    assert 2 * rows < mlp.hidden_sizes[0] < 3 * rows
    rng = np.random.default_rng(7)
    offsets = np.array([0, 3, 5, 9])
    option_of_row = np.array([0, 1, 2, 2, 3, 0, 4, 1, 3])
    ctx, opts = rng.normal(size=(3, split)), rng.normal(size=(5, 200))
    return mlp, (ctx, opts, offsets, option_of_row), rng.normal(size=9)


def stage_case(input_dim, option_dim, rng):
    """An MLP of depth 2 whose option columns, biases, norms and later layers hold
    seeded values. Its context columns stay zero, untouched: the candidate stages
    never read them, so a paper-width MLP maps only what they read."""
    mlp = FusionMlp(input_dim, depth=2)
    h0, _, h1, _, out = mlp.layers
    h0.weight.value[:, input_dim - option_dim :] = rng.normal(
        scale=input_dim**-0.5, size=(h0.out_dim, option_dim))
    for lin in (h1, out):
        lin.weight.value[:] = rng.normal(scale=lin.in_dim**-0.5, size=lin.weight.shape)
    for lin in (h0, h1, out):
        lin.bias.value[:] = rng.normal(size=lin.out_dim)
    seeded_norms(mlp.layers[1::2], rng)
    return mlp


@pytest.mark.parametrize("input_dim, option_dim", [
    (reduced_check_dims().fused_dim("qih"), reduced_check_dims().option_hidden),
    (ModelDims().fused_dim("qih"), ModelDims().option_hidden)], ids=["desk", "paper"])
def test_blocked_candidate_stages_bitwise_as_whole_array_oracle(input_dim, option_dim):
    # the candidate rows' elementwise stages run on blocks of BLOCK // width rows;
    # one row short of a block, one block, one row past it and two blocks and a
    # row of each hidden layer give every score the bits of the whole-array stages
    rng = np.random.default_rng(input_dim)
    mlp = stage_case(input_dim, option_dim, rng)
    counts = sorted({n for width in mlp.hidden_sizes for r in [max(1, nn.BLOCK // width)]
                     for n in (r - 1, r, r + 1, 2 * r + 1)})
    for n in counts:
        offsets = np.array([0, n // 3, n // 2, n])  # three examples, one maybe empty
        opts = rng.normal(size=(max(1, n // 2), option_dim))
        option_of_row = rng.integers(len(opts), size=n)
        ctx_z = rng.normal(size=(3, mlp.hidden_sizes[0]))
        want = oracle_candidate_scores(mlp, ctx_z, opts, offsets, option_of_row)
        got = mlp.candidate_scores(ctx_z, opts, offsets, option_of_row)
        assert np.array_equal(got, want), n  # bitwise


@pytest.mark.parametrize("variant", ["q", "qi", "qih"])
def test_split_context_term_matches_single_product_oracle(variant):
    # the eval context term sums one product per input block (query, image with
    # the caption, each history slot); it agrees with one product over the whole
    # context, and eval scores are those stages over that term
    dims = reduced_check_dims()
    model = DialogScorer(dims, synthetic_vocab(40), variant=variant, init_seed=7)
    mlp = model.mlp
    rng = np.random.default_rng(len(variant))
    seeded_norms(mlp.layers[1::2], rng)
    split = mlp.input_dim - dims.option_hidden
    edges = [0, *(b for _, b in mlp.spans)]  # contiguous blocks that cover the context
    assert mlp.spans == list(zip(edges, edges[1:])) and edges[-1] == split
    ctx = rng.normal(size=(4, split))
    got = mlp.context_terms(ctx)
    assert close(got, oracle_project(ctx, mlp.layers[0].weight.value[:, :split]))
    offsets, option_of_row = np.array([0, 2, 5, 5, 9]), rng.integers(3, size=9)
    opts = rng.normal(size=(3, dims.option_hidden))
    scores, _ = mlp.forward(ctx, opts, offsets, option_of_row, train=False)
    assert np.array_equal(scores, oracle_candidate_scores(mlp, got, opts, offsets,
                                                          option_of_row))


def test_blocked_h0_context_gradient_matches_fused_row_oracle():
    mlp, args, dscores = blocked_h0_case()
    grads = oracle_fused_mlp(mlp, *args, train=True, dscores=dscores)[2]
    _, cache = mlp.forward(*args, train=True)
    mlp.backward(cache, dscores)
    assert close(mlp.layers[0].weight.grad, grads["mlp.h0.weight"])


def test_blocked_h0_context_gradient_builds_no_full_temporary():
    mlp, args, dscores = blocked_h0_case()
    _, cache = mlp.forward(*args, train=True)
    tracemalloc.start()
    try:
        mlp.backward(cache, dscores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    h0 = mlp.layers[0].weight
    assert peak < h0.shape[0] * args[0].shape[1] * 8


@pytest.mark.parametrize("train", [True, False])
def test_batch_forward_builds_no_fused_rows(monkeypatch, train):
    # the largest live block, sampled at every ReLU (so while the MLP runs)
    # and after the forward, stays below one [N, fused_dim] float64 array
    dims = dataclasses.replace(reduced_check_dims(), image_dim=1000)
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, init_seed=0)
    rng = np.random.default_rng(4)
    batch = [random_example(vocab, dims, rng, k_options=100) for _ in range(2)]
    largest = []
    relu = nn.relu

    def sampled_relu(x):
        largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return relu(x)

    monkeypatch.setattr(nn, "relu", sampled_relu)
    tracemalloc.start()
    try:
        scores, bundle = model.batch_forward(batch, train=train)
        largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
    finally:
        tracemalloc.stop()
    assert len(largest) > 2
    assert max(largest) < 200 * dims.fused_dim("qih") * 8


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


def test_eval_scores_independent_of_block_edge():
    # K = ROWS + 37 options fill one block of option rows and part of the next;
    # a contiguous subset across the edge lands at other block positions, and
    # each of its scores must still be bitwise the full set's
    model, ex = eval_model_and_example(seed=1, k=nn.ROWS + 37)
    full = model.score_example(ex).scores
    R = nn.ROWS
    for start, stop in [(R - 1, R + 1), (R - 20, R + 17), (R - 37, R + 37), (1, R + 37),
                        (0, R + 1), (R - 1, R + 37)]:
        subset = model.score_example(with_options(ex, ex.option_ids[start:stop]))
        assert np.array_equal(subset.scores, full[start:stop]), (start, stop)  # bitwise


@pytest.mark.parametrize("k_b", [3, nn.ROWS + 37])
def test_batch_forward_matches_score_example_per_example(k_b):
    # per-example rows (query, caption, mlp.h0 context) and shared blocks
    # (options, history, later MLP layers) alike leave each example's
    # eval scores bitwise those it gets scored alone
    model, a = eval_model_and_example(seed=2, k=7)
    b = random_example(model.vocab, model.dims, np.random.default_rng(11), k_options=k_b,
                       n_history=model.dims.history_slots)
    for batch in ([a, b], [b, a]):
        scores, _ = model.batch_forward(batch, train=False)
        for ex, got in zip(batch, scores, strict=True):
            assert np.array_equal(got, model.score_example(ex).scores)  # bitwise


@pytest.mark.parametrize("k", [1, 2, 17, 100])
@pytest.mark.parametrize("variant", ["q", "qi", "qih"])
def test_score_example_matches_one_row_oracle(variant, k):
    # fixed row blocks against one sequence per LSTM call and one row per
    # product; not bitwise, since a one-row product is another BLAS path
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, task="visdial-q", variant=variant, init_seed=4)
    rng = np.random.default_rng([k, len(variant)])
    seeded_norms(model.mlp.layers[1::2] + [model.pair_bn] * (variant == "qih"), rng)
    for n_history in (0, 1, dims.history_slots):
        ex = random_example(vocab, dims, rng, k_options=k, task="visdial-q",
                            n_history=n_history)
        assert close(model.score_example(ex).scores, oracle_score_example(model, ex))


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


@pytest.mark.parametrize("task, variant, change, message", [
    ("visdial", "qih", dict(option_ids=[]), "example has no options"),
    ("visdial", "qi", dict(image_vec=None), "variant qi example is missing image features"),
    ("visdial", "qih", dict(image_vec=None), "variant qih example is missing image features"),
    ("visdial", "qih", dict(caption_ids=None), "variant qih example is missing the caption"),
    ("visdial-q", "qih", dict(query_answer_ids=None), "queries need the answer part"),
    ("visdial", "qih", dict(question_ids=[]), r"lstm\.query\.weight: cannot encode an empty"),
    ("visdial", "qih", dict(option_ids=[[1], []]),
     r"lstm\.option\.weight: cannot encode an empty"),
], ids=["no-options", "qi-no-image", "qih-no-image", "qih-no-caption", "followup-no-answer",
        "empty-question", "empty-option"])
def test_malformed_example_rejected(task, variant, change, message):
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, task=task, variant=variant, init_seed=0)
    ex = random_example(vocab, dims, np.random.default_rng(9), k_options=3, task=task)
    ex = dataclasses.replace(ex, **change, gt_index=0)
    for forward in (model.score_example, lambda ex: model.batch_loss([ex])):
        with pytest.raises(ValueError, match=message):
            forward(ex)


def test_batch_forward_refuses_an_empty_batch_and_backward_of_eval():
    model, ex = eval_model_and_example()
    with pytest.raises(ValueError, match="empty batch"):
        model.batch_forward([])
    scores, bundle = model.batch_forward([ex], train=False)
    with pytest.raises(RuntimeError, match="requires a train-mode batch_forward"):
        model.batch_backward(bundle, scores)


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
        scores, _ = model.batch_forward(batch)
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
    scores, bundle = model.batch_forward([ex], train=True)
    mlp_cache = bundle[-1]
    assert mlp_cache is not None
    assert scores[0].shape == (6,)
    # backward through the cache accumulates gradients and returns one
    # context row per example and one option row per distinct option
    for p in model.parameters().values():
        p.zero_grad()
    dctx, dopts = model.mlp.backward(mlp_cache, np.ones(6))
    assert dctx.shape == (1, model.mlp.input_dim - model.dims.option_hidden)
    assert dopts.shape == (len(set(map(tuple, ex.option_ids))), model.dims.option_hidden)
    assert any(p.grad.any() for layer in model.mlp.layers for p in layer.parameters())


# ---------------------------------------------------------------------------
# the frozen model's encoding memo
# ---------------------------------------------------------------------------


def frozen_and_memo_free(tmp_path, task="visdial"):
    """A default (frozen, memoising) load and an ``adam_state=True`` (memo-free)
    load of one checkpoint whose norms all hold non-trivial statistics."""
    dims = reduced_check_dims()
    model = DialogScorer(dims, synthetic_vocab(40), task=task, init_seed=6)
    seeded_norms(model.mlp.layers[1::2] + [model.pair_bn], np.random.default_rng(12))
    path = tmp_path / "memo.ckpt"
    save_checkpoint(model, path)
    frozen, _ = load_checkpoint(path)
    reference, _ = load_checkpoint(path, adam_state=True)
    assert frozen.paths["option"].memo is not None and reference.paths["option"].memo is None
    return frozen, reference


def sharing_rounds(model, n_rounds, seed):
    """Rounds that draw their options, history pairs, captions and questions from
    common pools, each with a few texts of its own, at every history depth."""
    vocab, dims = model.vocab, model.dims
    rng = np.random.default_rng(seed)
    pool = random_example(vocab, dims, rng, k_options=30, n_history=dims.history_slots)
    rounds = []
    for r in range(n_rounds):
        own = random_example(vocab, dims, rng, k_options=6, n_history=dims.history_slots)
        options = [pool.option_ids[i] for i in rng.choice(30, size=20, replace=False)]
        options += own.option_ids + options[:2]  # repeats within the round too
        depth = r % (dims.history_slots + 1)
        history = [pool.history[i] if rng.random() < 0.6 else own.history[i]
                   for i in range(depth)]
        rounds.append(dataclasses.replace(
            own, option_ids=options, history=history, round_no=depth + 1,
            gt_index=int(rng.integers(len(options))),
            caption_ids=pool.caption_ids if r % 2 else own.caption_ids,
            question_ids=pool.question_ids if r % 3 == 0 else own.question_ids))
    return rounds


def qih_spans(dims):
    """The context blocks of a qih model: query, image with caption, each slot."""
    q = dims.query_hidden
    ic = q + dims.image_dim + dims.caption_hidden
    p = dims.history_pair_dim
    return [(0, q), (q, ic)] + [(ic + i * p, ic + (i + 1) * p) for i in range(dims.history_slots)]


def context_term_keys(model, ex):
    """The memo keys of one round's ``mlp.h0`` context terms, from memo-free eval
    encodes: each block's column span and the bytes of that block's input."""
    q_vec = model.paths["query"].encode([ex.question_ids], train=False)[0][0]
    c_vec = model.paths["caption"].encode([ex.caption_ids], train=False)[0][0]
    hist = model.encode_histories([ex.history], train=False)[0][0]
    ctx = np.concatenate([q_vec, ex.image_vec, c_vec, hist])
    return {(span, ctx[span[0] : span[1]].tobytes()) for span in qih_spans(model.dims)}


@pytest.mark.parametrize("cap_rows", [None, 3], ids=["cap", "evicting"])
def test_warm_memo_scores_bitwise_as_memo_free_load(tmp_path, monkeypatch, cap_rows):
    # a memo warmed by other rounds, scored in shuffled orders, gives every
    # shared and new text and context block the bits a memo-free load computes
    # afresh, also when the cap keeps only a few entries and evicts the rest
    frozen, reference = frozen_and_memo_free(tmp_path)
    if cap_rows is not None:  # room for the largest entry and a table: at these dims a
        # context term (38 wide) of the image and caption block (12 + 8 floats of key)
        dims = frozen.dims
        largest = term_charge(frozen.mlp.hidden_sizes[0], dims.image_dim + dims.caption_hidden)
        assert largest > entry_charge(16, 7)  # the largest encoding entry
        monkeypatch.setattr(nn, "MEMO_BYTES", cap_rows * largest + sys.getsizeof(
            OrderedDict.fromkeys(range(2 * cap_rows))))
    rounds = sharing_rounds(frozen, 12, seed=3)
    want = [reference.score_example(ex).scores for ex in rounds]
    memo = frozen.paths["option"].memo
    rng = np.random.default_rng(4)
    for _ in range(3):
        for i in rng.permutation(len(rounds)):
            assert np.array_equal(frozen.score_example(rounds[i]).scores, want[i])  # bitwise
        order = rng.permutation(len(rounds))
        scores, _ = frozen.batch_forward([rounds[i] for i in order], train=False)
        for i, got in zip(order, scores, strict=True):
            assert np.array_equal(got, want[i])
        assert memo.nbytes == sum(EncodingMemo.charge(*entry) for entry in memo.rows.items())
        assert memo.nbytes + sys.getsizeof(memo.rows) <= nn.MEMO_BYTES
    if cap_rows is None:  # every distinct text of every path and context block, each once
        texts = {("option", tuple(ids)) for ex in rounds for ids in ex.option_ids}
        texts |= {("query", tuple(ex.question_ids)) for ex in rounds}
        texts |= {("caption", tuple(ex.caption_ids)) for ex in rounds}
        texts |= {(side, tuple(ids)) for ex in rounds for pair in ex.history + [
            frozen.empty_pair()] for side, ids in zip(("history_q", "history_a"), pair)}
        texts |= {("mlp.h0", key) for ex in rounds for key in context_term_keys(reference, ex)}
        names = {id(path): name for name, path in frozen.paths.items()}
        assert sorted((names[id(owner)], key) if id(owner) in names else ("mlp.h0", (owner, key))
                      for owner, key in memo.rows) == sorted(texts)
    else:  # the smallest entries are 8-wide caption or history rows of one token
        assert 0 < len(memo.rows) <= nn.MEMO_BYTES // entry_charge(8, 1)


@pytest.mark.parametrize("seen", [0, 5, nn.SEQ_ROWS])
def test_seq_block_edge_scores_bitwise_as_memo_free_load(tmp_path, seen):
    # SEQ_ROWS + 5 distinct options run the option LSTM's steps on two blocks;
    # a frozen model that has already seen the first ``seen`` of them encodes the
    # rest at other block positions, and each score must still be the bits of a
    # memo-free load. So must a batch whose history pairs pass one block too
    frozen, reference = frozen_and_memo_free(tmp_path)
    vocab, dims = frozen.vocab, frozen.dims
    rng = np.random.default_rng(21)
    options = {}
    while len(options) < nn.SEQ_ROWS + 5:
        ids = rng.integers(3, len(vocab), size=int(rng.integers(1, 5))).tolist()
        options.setdefault(tuple(ids), ids + [vocab.stop_id])
    ex = with_options(random_example(vocab, dims, rng, k_options=1), options.values())
    if seen:
        frozen.score_example(with_options(ex, ex.option_ids[:seen]))
    assert np.array_equal(frozen.score_example(ex).scores,
                          reference.score_example(ex).scores)  # bitwise
    batch = [random_example(vocab, dims, rng, k_options=3, n_history=dims.history_slots)
             for _ in range(nn.SEQ_ROWS // dims.history_slots + 1)]
    scores, _ = frozen.batch_forward(batch, train=False)
    for ex, got in zip(batch, scores, strict=True):
        assert np.array_equal(got, reference.score_example(ex).scores)


def test_frozen_model_runs_context_term_products_of_new_blocks_only(tmp_path, monkeypatch):
    # a frozen model scoring a dialog's rounds in order runs the context product of
    # its image and caption once, of each history slot once per (slot, pair), and
    # of the query once per question; every score stays that of a memo-free load
    frozen, reference = frozen_and_memo_free(tmp_path)
    dims = frozen.dims
    W = frozen.mlp.layers[0].weight.value
    assert frozen.mlp.spans == qih_spans(dims)
    span_of = {(W[:, a:b].ctypes.data, W[:, a:b].shape): (a, b) for a, b in frozen.mlp.spans}
    ran = []
    project = nn.project

    def recording(x, weight, rows=None):
        span = span_of.get((weight.ctypes.data, weight.shape))
        if span is not None:
            ran.append(span)
        return project(x, weight, rows)

    monkeypatch.setattr(nn, "project", recording)
    rng = np.random.default_rng(31)
    dialog = random_example(frozen.vocab, dims, rng, k_options=9, n_history=dims.history_slots)
    questions = [random_example(frozen.vocab, dims, rng).question_ids for _ in range(dims.rounds)]
    questions[2] = questions[0]  # round 3 asks round 1's question again
    query, image, *slots = frozen.mlp.spans
    for t in range(dims.rounds):
        ex = dataclasses.replace(dialog, round_no=t + 1, history=dialog.history[:t],
                                 question_ids=questions[t])
        ran.clear()
        assert np.array_equal(frozen.score_example(ex).scores,
                              reference.score_example(ex).scores)  # bitwise
        if t == 0:  # every block is new, empty slots included: one term per slot
            want = [query, image, *slots]
        else:  # the newest pair's slot, and the query when the question is new
            want = [query] * (questions[t] not in questions[:t]) + [slots[t - 1]]
        assert ran == want, t


def test_memo_rows_are_read_only_copies(tmp_path):
    frozen, _ = frozen_and_memo_free(tmp_path)
    ex = sharing_rounds(frozen, 1, seed=5)[0]
    frozen.score_example(ex)
    memo = frozen.paths["query"].memo
    assert {id(path.memo) for path in frozen.paths.values()} == {id(memo)}
    for row in memo.rows.values():
        assert row.base is None and not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0


def test_memo_drops_oldest_first(monkeypatch):
    entry = EncodingMemo.charge(("path", (0,)), np.zeros(1000))  # far more than the table
    monkeypatch.setattr(nn, "MEMO_BYTES", 3 * entry + 1024)  # three rows and the table
    memo = EncodingMemo()
    for i in range(5):
        memo.add(("path", (i,)), np.full(1000, float(i)))
        assert list(memo.rows) == [("path", (j,)) for j in range(max(0, i - 2), i + 1)]
    assert memo.nbytes == 3 * entry
    memo.add(("path", (5,)), np.zeros(2000))  # two rows' worth: the two oldest go
    assert list(memo.rows) == [("path", (4,)), ("path", (5,))]


def entry_charge(width, tokens):
    """A memo entry's charge: a ``width``-wide row under a key of ``tokens`` tokens."""
    return EncodingMemo.charge((None, (0,) * tokens), np.zeros(width))


def term_charge(width, key_floats):
    """A context term's charge: a ``width``-wide term under a key of the block and
    ``key_floats`` float64 values of input."""
    return EncodingMemo.charge(((0, key_floats), bytes(8 * key_floats)), np.zeros(width))


def test_memo_memory_stays_within_its_cap(monkeypatch):
    # desk-dims entries past a 256 KiB cap: 16- and 8-wide rows under keys of 2
    # to 7 tokens. What the memo holds, with every row's header, every key and
    # the table, stays within 1.5 times the cap (counting the rows alone let
    # it hold several times the cap at these widths)
    cap = 256 << 10
    monkeypatch.setattr(nn, "MEMO_BYTES", cap)
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(4000, 16))
    texts = [[i, *rng.integers(3, 40, size=int(rng.integers(1, 7))).tolist()]
             for i in range(4000)]
    paths = (object(), object())  # stand-ins for an option and a caption path
    memo = EncodingMemo()
    tracemalloc.start()
    try:
        for i, (ids, row) in enumerate(zip(texts, rows)):
            memo.add((paths[i % 2], tuple(ids)), row[: 16 - 8 * (i % 2)])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(memo.rows) < 4000  # the cap was passed
    assert memo.nbytes + sys.getsizeof(memo.rows) <= cap
    assert held < 1.5 * cap, held
