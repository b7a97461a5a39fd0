import functools

import numpy as np
import pytest

from dialogrank import nn
from dialogrank.encoders import ModelDims
from dialogrank.model import DialogScorer, random_example, reduced_check_dims, synthetic_vocab
from oracles import (oracle_adam_step, oracle_adam_step_in_place, oracle_lstm_backward,
                     oracle_lstm_encode)


def fd_closure_param(forward, params, upstream):
    """Closure for grad_check: loss = sum(upstream * forward())."""

    def closure(want_grads: bool) -> float:
        out, backward = forward()
        loss = float((out * upstream).sum())
        if want_grads:
            backward(upstream)
        return loss

    return closure


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------


def test_linear_identity():
    lin = nn.Linear(2, 2)
    lin.weight.value[:] = np.eye(2)
    y, _ = lin.forward(np.array([[3.0, -1.0]]))
    assert np.array_equal(y, [[3.0, -1.0]])


def test_linear_zero_weight_gives_bias():
    lin = nn.Linear(3, 2)
    lin.bias.value[:] = [5.0, 5.0]
    y, _ = lin.forward(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, -9.0]]))
    assert np.array_equal(y, [[5.0, 5.0], [5.0, 5.0]])


def test_linear_matches_naive_matmul():
    rng = np.random.default_rng(7)
    lin = nn.Linear(4, 3, rng=rng)
    lin.bias.value[:] = rng.normal(size=3)
    x = rng.normal(size=(5, 4))
    y, _ = lin.forward(x)
    naive = np.zeros((5, 3))
    for b in range(5):
        for o in range(3):
            for i in range(4):
                naive[b, o] += lin.weight.value[o, i] * x[b, i]
            naive[b, o] += lin.bias.value[o]
    assert np.max(np.abs(y - naive)) < 1e-12


def test_linear_backward_identity_and_zero():
    lin = nn.Linear(2, 2)
    lin.weight.value[:] = np.eye(2)
    _, cache = lin.forward(np.array([[0.5, 0.25]]))
    dx = lin.backward(cache, np.array([[1.0, 0.0]]))
    assert np.array_equal(dx, [[1.0, 0.0]])

    lin.weight.zero_grad()
    lin.bias.zero_grad()
    dx = lin.backward(cache, np.zeros((1, 2)))
    assert not dx.any()
    assert not lin.weight.grad.any()
    assert not lin.bias.grad.any()


def test_linear_backward_before_forward_raises():
    lin = nn.Linear(2, 2)
    with pytest.raises(RuntimeError):
        lin.backward(None, np.zeros((1, 2)))


def test_linear_shape_mismatch():
    lin = nn.Linear(3, 2)
    with pytest.raises(ValueError):
        lin.forward(np.zeros((1, 4)))


def test_layer_shape_guards_name_the_layer():
    lin = nn.Linear(3, 2, name="fc")
    _, cache = lin.forward(np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"fc.weight: upstream grad shape \(4, 3\) mismatch"):
        lin.backward(cache, np.ones((4, 3)))
    with pytest.raises(ValueError, match=r"lstm.weight: expected \[T, 3\], got \(2, 4\)"):
        nn.LstmEncoder(3, 2, name="lstm").encode(np.ones((2, 4)), [1, 1])
    for train in (True, False):
        with pytest.raises(ValueError, match=r"bn.gamma: expected \[B, 3\], got \(2, 4\)"):
            nn.BatchNorm1d(3, name="bn").forward(np.ones((2, 4)), train=train)


def test_he_normal_init_needs_a_positive_fan_in():
    # check_model_config refuses every model with an empty layer, so only a
    # direct call reaches this
    with pytest.raises(ValueError, match="fan_in must be >= 1, got 0"):
        nn.he_normal_init(nn.Parameter(np.zeros(3)), 0, np.random.default_rng(0))


def test_lstm_with_an_inf_weight_raises_floating_point_error():
    enc = nn.LstmEncoder(2, 3, name="lstm.q")
    # one inf weight saturates its gate; inf - inf makes the input gate NaN
    enc.weight.value[0, :2] = [np.inf, -np.inf]
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite values in lstm.q.weight"):
        enc.encode(np.ones((2, 2)), [1, 1])


@pytest.mark.parametrize("seed", range(20))
def test_linear_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b, din, dout = int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
    lin = nn.Linear(din, dout, rng=rng)
    lin.bias.value[:] = rng.normal(size=dout)
    x = nn.Parameter(rng.normal(size=(b, din)), name="x")
    upstream = rng.normal(size=(b, dout))

    def forward():
        y, cache = lin.forward(x.value)
        return y, lambda up: x.grad.__iadd__(lin.backward(cache, up))

    report = nn.grad_check(
        fd_closure_param(forward, None, upstream),
        [lin.weight, lin.bias, x],
    )
    assert report.max_rel_error < 1e-6, report.summary()


# ---------------------------------------------------------------------------
# Embedding
# ---------------------------------------------------------------------------


def test_embedding_one_hot_column():
    emb = nn.Embedding(3, 3)
    emb.weight.value[:] = np.eye(3)
    out, _ = emb.lookup([2])
    assert np.array_equal(out[0], [0.0, 0.0, 1.0])


def test_embedding_repeated_ids_accumulate():
    emb = nn.Embedding(2, 4)
    _, cache = emb.lookup([1, 1])
    g = np.array([[1.0, 2.0], [10.0, 20.0]])
    emb.backward(cache, g)
    assert np.array_equal(emb.weight.grad[:, 1], [11.0, 22.0])


def test_embedding_out_of_range():
    emb = nn.Embedding(2, 4)
    with pytest.raises(IndexError):
        emb.lookup([4])
    with pytest.raises(IndexError):
        emb.lookup([-1])


@pytest.mark.parametrize("seed", range(20))
def test_embedding_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    v, e, t = int(rng.integers(2, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
    emb = nn.Embedding(e, v, rng=rng)
    ids = rng.integers(0, v, size=t)
    upstream = rng.normal(size=(t, e))

    def forward():
        out, cache = emb.lookup(ids)
        return out, lambda up: emb.backward(cache, up)

    report = nn.grad_check(fd_closure_param(forward, None, upstream), [emb.weight])
    assert report.max_rel_error < 1e-6, report.summary()


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def encode_one(enc, xs):
    """One sequence xs [T, input_dim] as a packed batch of one: (h [hidden_dim], cache)."""
    h, cache = enc.encode(xs, [1] * len(xs))
    return h[0], cache


def test_lstm_zero_parameters_fixed_point():
    enc = nn.LstmEncoder(3, 4)
    enc.bias.value[:] = 0.0  # drop the forget-bias stabilizer too
    h, _ = encode_one(enc, np.random.default_rng(0).normal(size=(6, 3)))
    assert np.array_equal(h, np.zeros(4))


def test_lstm_length_sensitivity():
    rng = np.random.default_rng(3)
    enc = nn.LstmEncoder(4, 5, rng=rng)
    xs = rng.normal(size=(2, 4))
    h1, _ = encode_one(enc, xs[:1])
    h2, _ = encode_one(enc, xs)
    assert not np.allclose(h1, h2)


def test_lstm_empty_sequence_rejected():
    enc = nn.LstmEncoder(3, 4)
    with pytest.raises(ValueError):
        enc.encode(np.zeros((0, 3)), [])


@pytest.mark.parametrize("seed", range(20))
def test_lstm_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    e = int(rng.integers(2, 5))
    l = int(rng.integers(2, 6))
    t = int(rng.integers(1, 5))
    enc = nn.LstmEncoder(e, l, rng=rng)
    xs = nn.Parameter(rng.normal(size=(t, e)), name="xs")
    upstream = rng.normal(size=l)

    def forward():
        h, cache = encode_one(enc, xs.value)
        return h, lambda up: xs.grad.__iadd__(enc.backward(cache, up))

    report = nn.grad_check(
        fd_closure_param(forward, None, upstream), [enc.weight, enc.bias, xs])
    assert report.max_rel_error < 1e-5, report.summary()


def test_lstm_spec_size_gradcheck():
    # 3 steps, 4 -> 5, every parameter against central differences
    rng = np.random.default_rng(42)
    enc = nn.LstmEncoder(4, 5, rng=rng)
    xs = rng.normal(size=(3, 4))
    upstream = rng.normal(size=5)

    def forward():
        h, cache = encode_one(enc, xs)
        return h, lambda up: enc.backward(cache, up)

    report = nn.grad_check(fd_closure_param(forward, None, upstream), [enc.weight, enc.bias])
    assert report.max_rel_error < 1e-5, report.summary()


def close(got, want, rtol=1e-12):
    """Agreement relative to the largest magnitude of the reference."""
    return np.abs(got - want).max() <= rtol * np.abs(want).max()


def pack(seqs):
    """Longest-first, time-major packing of [T_i, E] sequences: (xs, batch_sizes,
    order) with order[j] the input index of packed sequence j."""
    order = sorted(range(len(seqs)), key=lambda i: -len(seqs[i]))
    lengths = [len(seqs[i]) for i in order]
    batch_sizes = [sum(n > t for n in lengths) for t in range(lengths[0])]
    xs = np.array([seqs[i][t] for t, n in enumerate(batch_sizes) for i in order[:n]])
    return xs, batch_sizes, order


def unpack(rows, batch_sizes, order):
    """Per-sequence [T_i, ·] slices of packed rows, in input order."""
    out = [[] for _ in order]
    start = 0
    for n in batch_sizes:
        for j in range(n):
            out[order[j]].append(rows[start + j])
        start += n
    return [np.array(r) for r in out]


PACKED_LENGTHS = {
    "mixed": [3, 1, 21, 7, 1, 12, 4, 21, 2, 5],
    "single": [9],
    "equal": [6, 6, 6, 6],
    "wide": [1 + i % 6 for i in range(nn.SEQ_ROWS + 5)],  # steps past one eval block
}


@pytest.mark.parametrize("case, train", [
    pytest.param(case, train, id=case if train else f"{case}-eval")
    for train in (True, False) for case in sorted(PACKED_LENGTHS)])
def test_packed_lstm_matches_per_sequence_oracle(case, train):
    rng = np.random.default_rng(len(case))
    enc = nn.LstmEncoder(8, 16, rng=rng)
    seqs = [rng.normal(size=(n, 8)) for n in PACKED_LENGTHS[case]]
    if case == "mixed":
        seqs[4] = seqs[1]  # duplicate sequences
        seqs[7] = seqs[2]
    dh = rng.normal(size=(len(seqs), 16))
    xs, batch_sizes, order = pack(seqs)

    h, cache = enc.encode(xs, batch_sizes, None if train else nn.SEQ_ROWS)
    assert h.shape == (len(seqs), 16)
    if not train:  # fixed row blocks: close to the oracle, bitwise free of the co-batch
        assert cache is None
        for j, i in enumerate(order):
            assert close(h[j], oracle_lstm_encode(enc, seqs[i])[0])
            alone, _ = enc.encode(seqs[i], [1] * len(seqs[i]), nn.SEQ_ROWS)
            assert np.array_equal(h[j], alone[0])
        return
    dxs = unpack(enc.backward(cache, dh[order]), batch_sizes, order)
    dW, db = enc.weight.grad.copy(), enc.bias.grad.copy()
    enc.weight.zero_grad()
    enc.bias.zero_grad()
    for j, i in enumerate(order):
        want_h, ocache = oracle_lstm_encode(enc, seqs[i])
        assert close(h[j], want_h)
        assert close(dxs[i], oracle_lstm_backward(enc, ocache, dh[i]))
    assert close(dW, enc.weight.grad)
    assert close(db, enc.bias.grad)


def test_eval_lstm_keeps_no_backward_cache():
    # eval returns no cache and builds no [S, E + L] rows: at E = 64, L = 4 those
    # rows would outweigh everything else an eval encode holds at once
    import tracemalloc

    rng = np.random.default_rng(12)
    E, L = 64, 4
    enc = nn.LstmEncoder(E, L, rng=rng)
    xs, batch_sizes, _ = pack([rng.normal(size=(n, E)) for n in [4] * nn.SEQ_ROWS])
    xh_bytes = len(xs) * (E + L) * 8
    peaks = {}
    for rows in (nn.SEQ_ROWS, None):
        enc.encode(xs, batch_sizes, rows)  # no one-off BLAS set-up inside the trace
        tracemalloc.start()
        try:
            h, cache = enc.encode(xs, batch_sizes, rows)
            _, peaks[rows] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (cache is None) == (rows is not None)
    assert peaks[nn.SEQ_ROWS] < xh_bytes <= peaks[None], peaks


def test_lstm_first_step_runs_no_hidden_product(monkeypatch):
    # h_{-1} = 0, so step 0 adds no hidden product, in train or in eval
    rng = np.random.default_rng(13)
    enc = nn.LstmEncoder(3, 4, rng=rng)
    xs, batch_sizes, _ = pack([rng.normal(size=(n, 3)) for n in (3, 1, 2)])
    hidden_rows = []
    project = nn.project

    def recording(x, weight, rows=None):
        if weight.shape[1] == enc.hidden_dim:
            hidden_rows.append(len(x))
        return project(x, weight, rows)

    monkeypatch.setattr(nn, "project", recording)
    for rows in (None, nn.SEQ_ROWS):
        hidden_rows.clear()
        enc.encode(xs, batch_sizes, rows)
        assert hidden_rows == batch_sizes[1:]


def test_packed_lstm_rejects_bad_batch_sizes():
    enc = nn.LstmEncoder(3, 4)
    xs = np.zeros((5, 3))
    for sizes in ([2, 2], [2, 3], [3, 2, 0], [1, 2, 2]):
        with pytest.raises(ValueError, match="batch_sizes"):
            enc.encode(xs, sizes)


# ---------------------------------------------------------------------------
# Eval products on fixed row blocks
# ---------------------------------------------------------------------------


LSTM_PATHS = ("query", "option", "caption", "history_q", "history_a")


def eval_products(dims):
    """product -> (view name, parameter, weight shape, column slice) of every eval
    product of a qih model with MLP depth 2. The mlp.h0 context and option terms and
    the LSTM input and hidden terms multiply strided column views of one weight, as
    the model does; LSTM products of one shape share the view ``lstm{hidden}.*``."""
    fused = dims.fused_dim("qih")
    split, E = fused - dims.option_hidden, dims.embed_dim
    h0, h1 = (fused // 2, fused), (fused // 4, fused // 2)
    pair = (dims.history_pair_dim, dims.history_q_hidden + dims.history_a_hidden)
    products = {
        "mlp.h0.context": ("mlp.h0.context", "mlp.h0", h0, slice(0, split)),
        "mlp.h0.option": ("mlp.h0.option", "mlp.h0", h0, slice(split, None)),
        "mlp.h1": ("mlp.h1", "mlp.h1", h1, slice(None)),
        "mlp.out": ("mlp.out", "mlp.out", (1, fused // 4), slice(None)),
        "history.combine": ("history.combine", "history.combine", pair, slice(None)),
    }
    for path in LSTM_PATHS:
        L = getattr(dims, f"{path}_hidden")
        for part, cols in (("input", slice(0, E)), ("hidden", slice(E, None))):
            products[f"lstm.{path}.{part}"] = (f"lstm{L}.{part}", f"lstm.{path}",
                                               (4 * L, E + L), cols)
    return products


@functools.cache
def eval_product_heights():
    """product -> the block heights ``nn.project`` ran it at, recorded over eval
    batch_forwards of one and of two qih examples (different option counts and
    history depths), so a height that follows the row count shows as two heights.
    Heights depend on what the rows are, not on the dims, so reduced dims stand for all."""
    dims = reduced_check_dims()
    vocab = synthetic_vocab(40)
    model = DialogScorer(dims, vocab, mlp_depth=2, init_seed=0)
    params = model.parameters()
    product_of = {}
    for name, (_, param, _, cols) in eval_products(dims).items():
        w = params[f"{param}.weight"].value[:, cols]
        product_of[w.ctypes.data, w.shape] = name
    heights = {}
    project = nn.project

    def recording(x, weight, rows=None):
        heights.setdefault(product_of[weight.ctypes.data, weight.shape], set()).add(rows)
        return project(x, weight, rows)

    rng = np.random.default_rng(3)
    batch = [random_example(vocab, dims, rng, k_options=k, n_history=n)
             for k, n in ((7, 1), (2 * nn.ROWS, 3))]
    nn.project = recording
    try:
        model.batch_forward(batch[:1], train=False)
        model.batch_forward(batch, train=False)
    finally:
        nn.project = project
    return heights


def eval_product_views(dims):
    """view name -> (weight shape, column slice, block heights) of the eval products:
    each view is checked at the height of every product that has its shape."""
    recorded = eval_product_heights()
    views = {}
    for name, (view, _, shape, cols) in eval_products(dims).items():
        views.setdefault(view, (shape, cols, set()))[2].update(recorded[name])
    return views


def test_eval_heights_follow_what_rows_are():
    # rows that are one per example run one row per product; the LSTM rows of
    # sequences that come many per example (options, history pairs) share blocks
    # of nn.SEQ_ROWS rows; candidate rows and history.combine blocks of nn.ROWS
    per_example = {"mlp.h0.context", "lstm.query.input", "lstm.query.hidden",
                   "lstm.caption.input", "lstm.caption.hidden"}
    recorded = eval_product_heights()
    assert set(recorded) == set(eval_products(reduced_check_dims()))
    for name, heights in recorded.items():
        want = (1 if name in per_example else
                nn.SEQ_ROWS if name.startswith("lstm.") else nn.ROWS)
        assert heights == {want}, name


BLOCK_DIMS = {"reduced": reduced_check_dims(), "paper": ModelDims()}
BLOCK_CASES = [(d, view) for d in BLOCK_DIMS
               for view in dict.fromkeys(v for v, *_ in eval_products(BLOCK_DIMS[d]).values())]


@pytest.mark.parametrize("dims_name, view", BLOCK_CASES,
                         ids=[f"{d}-{view}" for d, view in BLOCK_CASES])
def test_block_property(dims_name, view):
    # nn.project's eval rule rests on this BLAS property: row i of a product
    # with R rows is bitwise the same whatever its position, its block-mates
    # and any zero padding, at each height R the model runs this product at.
    # A BLAS that breaks it must fail here, by name.
    shape, cols, heights = eval_product_views(BLOCK_DIMS[dims_name])[view]
    assert None not in heights, "an eval product ran as one plain product"
    rng = np.random.default_rng(0)
    W = rng.normal(size=shape)[:, cols]
    for R in sorted(heights):
        x = rng.normal(size=(R, W.shape[1]))
        want = x @ W.T
        for _ in range(20):  # positions
            perm = rng.permutation(R)
            assert np.array_equal(x[perm] @ W.T, want[perm]), f"position, R={R}"
        for _ in range(20):  # block-mates: half the rows kept, at random positions
            kept = rng.choice(R, R // 2, replace=False)
            pos = rng.choice(R, R // 2, replace=False)
            block = rng.normal(size=x.shape)
            block[pos] = x[kept]
            assert np.array_equal((block @ W.T)[pos], want[kept]), f"block-mates, R={R}"
        for n in range(1, R + 1):  # zero padding, as nn.project pads
            assert np.array_equal(nn.project(x[:n], W, R), want[:n]), f"padding, R={R}"


# ---------------------------------------------------------------------------
# BatchNorm
# ---------------------------------------------------------------------------


def test_batchnorm_two_point_symmetry():
    bn = nn.BatchNorm1d(1)
    y, _ = bn.forward(np.array([[0.0], [2.0]]), train=True)
    expected = 1.0 / np.sqrt(1.0 + nn.BN_EPSILON)
    assert np.allclose(y, [[-expected], [expected]])


def test_batchnorm_eval_identity():
    bn = nn.BatchNorm1d(3)
    x = np.random.default_rng(1).normal(size=(4, 3))
    y, _ = bn.forward(x, train=False)
    assert np.allclose(y, x, atol=1e-4)


def test_batchnorm_eval_keeps_no_cache():
    bn = nn.BatchNorm1d(3)
    _, cache = bn.forward(np.ones((2, 3)), train=False)
    assert cache is None


def test_batchnorm_train_needs_two_rows():
    bn = nn.BatchNorm1d(2)
    with pytest.raises(ValueError):
        bn.forward(np.zeros((1, 2)), train=True)


def test_batchnorm_running_stats_update():
    bn = nn.BatchNorm1d(1)
    x = np.array([[0.0], [2.0]])
    bn.forward(x, train=True)
    assert np.allclose(bn.running_mean, [0.1 * 1.0])
    assert np.allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])


@pytest.mark.parametrize("seed", range(20))
def test_batchnorm_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    b = int(rng.integers(2, 9))
    d = int(rng.integers(1, 7))
    bn = nn.BatchNorm1d(d)
    bn.gamma.value[:] = rng.normal(1.0, 0.3, size=d)
    bn.beta.value[:] = rng.normal(size=d)
    x = nn.Parameter(rng.normal(size=(b, d)), name="x")
    upstream = rng.normal(size=(b, d))

    def forward():
        y, cache = bn.forward(x.value, train=True)
        return y, lambda up: x.grad.__iadd__(bn.backward(cache, up))

    report = nn.grad_check(
        fd_closure_param(forward, None, upstream), [bn.gamma, bn.beta, x])
    assert report.max_rel_error < 1e-4, report.summary()


def test_batchnorm_spec_shape_case():
    rng = np.random.default_rng(8)
    bn = nn.BatchNorm1d(6)
    x = nn.Parameter(rng.normal(size=(8, 6)), name="x")
    upstream = rng.normal(size=(8, 6))

    def forward():
        y, cache = bn.forward(x.value, train=True)
        return y, lambda up: x.grad.__iadd__(bn.backward(cache, up))

    report = nn.grad_check(
        fd_closure_param(forward, None, upstream), [bn.gamma, bn.beta, x])
    assert report.max_rel_error < 1e-5, report.summary()


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------


def test_relu_definition():
    y, _ = nn.relu(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(y, [0.0, 0.0, 2.0])


def test_relu_dead_region():
    x = np.array([-3.0, -0.5])
    y, cache = nn.relu(x)
    assert not y.any()
    assert not nn.relu_backward(cache, np.ones(2)).any()


@pytest.mark.parametrize("seed", range(20))
def test_relu_gradient_away_from_zero(seed):
    rng = np.random.default_rng(400 + seed)
    x_raw = rng.normal(size=6)
    x_raw[np.abs(x_raw) < 0.05] += 0.1  # keep clear of the kink
    x = nn.Parameter(x_raw, name="x")
    upstream = rng.normal(size=6)

    def forward():
        y, cache = nn.relu(x.value)
        return y, lambda up: x.grad.__iadd__(nn.relu_backward(cache, up))

    report = nn.grad_check(fd_closure_param(forward, None, upstream), [x])
    assert report.max_rel_error < 1e-8, report.summary()


# ---------------------------------------------------------------------------
# Softmax cross-entropy
# ---------------------------------------------------------------------------


def test_loss_uniform_scores():
    loss, grads = nn.softmax_cross_entropy(np.zeros(100), 17)
    assert abs(loss - np.log(100)) < 1e-12
    assert abs(grads.sum()) < 1e-12


def test_loss_two_way_case():
    loss, _ = nn.softmax_cross_entropy(np.array([1.0, 0.0]), 0)
    assert abs(loss - (np.log(np.e + 1.0) - 1.0)) < 1e-12


def test_loss_grad_structure():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=37)
    loss, grads = nn.softmax_cross_entropy(scores, 4)
    assert abs(grads.sum()) < 1e-12
    assert grads[4] < 0.0
    # shift invariance
    loss2, _ = nn.softmax_cross_entropy(scores + 123.456, 4)
    assert abs(loss - loss2) < 1e-10


def test_loss_gt_out_of_range():
    with pytest.raises(IndexError):
        nn.softmax_cross_entropy(np.zeros(3), 3)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    s = nn.Parameter(rng.normal(size=9), name="scores")

    def closure(want_grads: bool) -> float:
        loss, grads = nn.softmax_cross_entropy(s.value, 2)
        if want_grads:
            s.grad += grads
        return loss

    report = nn.grad_check(closure, [s])
    assert report.max_rel_error < 1e-8, report.summary()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_grad_identity():
    p = nn.Parameter(np.array([1.0, -2.0, 3.0]))
    before = p.value.copy()
    nn.adam_step([p], nn.AdamConfig())
    assert np.array_equal(p.value, before)


def test_adam_first_step_magnitude():
    cfg = nn.AdamConfig(learning_rate=1e-3)
    p = nn.Parameter(np.array([0.0]))
    p.grad[:] = 1.0
    nn.adam_step([p], cfg)
    expected = cfg.learning_rate / (1.0 + nn.ADAM_EPSILON)
    assert abs(p.value[0] + expected) < 1e-15
    assert p.step_count == 1
    assert not p.grad.any()


def test_adam_descends_quadratic():
    cfg = nn.AdamConfig(learning_rate=1e-3)
    p = nn.Parameter(np.array([1.0]))
    prev = abs(p.value[0])
    for _ in range(100):
        p.grad[:] = 2.0 * p.value
        nn.adam_step([p], cfg)
        cur = abs(p.value[0])
        assert cur < prev
        prev = cur


def test_adam_in_place_matches_oracle():
    cfg = nn.AdamConfig(learning_rate=3e-3)
    rng = np.random.default_rng(8)
    shapes = [(7, 5), (11,), (3, 4, 2)]
    ours = [nn.Parameter(rng.normal(size=s)) for s in shapes]
    theirs = [nn.Parameter(p.value.copy()) for p in ours]
    for _ in range(3):
        for a, b in zip(ours, theirs):
            a.grad[...] = b.grad[...] = rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 3)
        nn.adam_step(ours, cfg)
        oracle_adam_step(theirs, cfg)
        for a, b in zip(ours, theirs):
            for got, want in ((a.value, b.value), (a.m, b.m), (a.v, b.v)):
                assert close(got, want)
            assert a.step_count == b.step_count
            assert not a.grad.any()


def test_adam_allocates_no_full_size_temporary():
    import tracemalloc

    p = nn.Parameter(np.random.default_rng(0).normal(size=100_000))
    p.grad[:] = 1.0
    tracemalloc.start()
    nn.adam_step([p], nn.AdamConfig())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < p.value.nbytes // 10


def test_blocked_adam_bitwise_matches_in_place_oracle():
    # ragged last block, a 2-D parameter, one element and exactly one block
    cfg = nn.AdamConfig(learning_rate=3e-3)
    rng = np.random.default_rng(9)
    shapes = [(3 * nn.BLOCK + 17,), (nn.BLOCK // 5 + 3, 7), (1,), (nn.BLOCK,)]
    ours = [nn.Parameter(rng.normal(size=s)) for s in shapes]
    theirs = [nn.Parameter(p.value.copy()) for p in ours]
    for _ in range(3):
        for a, b in zip(ours, theirs):
            a.grad[...] = b.grad[...] = rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 3)
        nn.adam_step(ours, cfg)
        oracle_adam_step_in_place(theirs, cfg)
        for a, b in zip(ours, theirs):
            for got, want in ((a.value, b.value), (a.m, b.m), (a.v, b.v)):
                assert np.array_equal(got, want)
            assert a.step_count == b.step_count
            assert not a.grad.any()


def test_blocked_adam_peak_stays_below_two_blocks():
    import tracemalloc

    p = nn.Parameter(np.random.default_rng(1).normal(size=4 * nn.BLOCK))
    p.grad[:] = 1.0
    tracemalloc.start()
    nn.adam_step([p], nn.AdamConfig())
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2 * nn.BLOCK * 8


def test_adam_refuses_a_parameter_without_moments():
    # a parameter made for inference holds no moments; no parameter is updated
    cfg = nn.AdamConfig()
    kept = nn.Parameter(np.array([1.0, 2.0]), name="kept")
    with nn.keep_adam_state(False):
        bare = nn.Parameter(np.array([3.0]), name="mlp.out.bias")
    assert bare.m is None and bare.v is None
    kept.grad[:] = bare.grad[:] = 1.0
    with pytest.raises(ValueError, match=r"mlp.out.bias holds no Adam state.*adam_state=True"):
        nn.adam_step([kept, bare], cfg)
    assert np.array_equal(kept.value, [1.0, 2.0]) and kept.step_count == 0
    assert not kept.m.any()


def test_adam_config_validation():
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            nn.AdamConfig(learning_rate=bad)


# ---------------------------------------------------------------------------
# He init
# ---------------------------------------------------------------------------


def test_he_init_deterministic():
    a = nn.Parameter(np.zeros((17, 13)))
    b = nn.Parameter(np.zeros((17, 13)))
    nn.he_normal_init(a, 13, np.random.default_rng(99))
    nn.he_normal_init(b, 13, np.random.default_rng(99))
    assert np.array_equal(a.value, b.value)


def test_he_init_variance():
    p = nn.Parameter(np.zeros(100_000))
    nn.he_normal_init(p, 2, np.random.default_rng(1))  # target variance 2/2 = 1
    assert abs(p.value.var() - 1.0) < 0.05


def test_he_init_fan_in_scaling():
    a = nn.Parameter(np.zeros(100_000))
    b = nn.Parameter(np.zeros(100_000))
    nn.he_normal_init(a, 4, np.random.default_rng(2))
    nn.he_normal_init(b, 16, np.random.default_rng(3))
    ratio = b.value.std() / a.value.std()
    assert abs(ratio - 0.5) < 0.05 * 0.5


# ---------------------------------------------------------------------------
# grad_check harness itself
# ---------------------------------------------------------------------------


def test_grad_check_quadratic():
    p = nn.Parameter(np.array([1.0, -2.0, 0.5]), name="p")

    def closure(want_grads: bool) -> float:
        if want_grads:
            p.grad += 2.0 * p.value
        return float((p.value**2).sum())

    report = nn.grad_check(closure, [p])
    assert report.max_rel_error < 1e-8
    assert report.passed


def test_grad_check_flags_wrong_backward():
    p = nn.Parameter(np.array([1.0, -2.0, 0.5]), name="p")

    def closure(want_grads: bool) -> float:
        if want_grads:
            p.grad += 3.0 * p.value  # wrong: true gradient is 2w
        return float((p.value**2).sum())

    report = nn.grad_check(closure, [p])
    assert not report.passed
    assert report.max_rel_error > 1e-4


# ---------------------------------------------------------------------------
# finiteness invariant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_forward_backward_outputs_stay_finite(seed):
    rng = np.random.default_rng(500 + seed)
    lin = nn.Linear(6, 4, rng=rng)
    bn = nn.BatchNorm1d(4)
    enc = nn.LstmEncoder(3, 5, rng=rng)
    emb = nn.Embedding(3, 9, rng=rng)

    ids = rng.integers(0, 9, size=7)
    seq, ecache = emb.lookup(ids)
    h, lcache = encode_one(enc, seq)
    assert np.all(np.isfinite(h))
    x = rng.normal(size=(5, 6)) * 100.0
    y, lincache = lin.forward(x)
    z, bncache = bn.forward(y, train=True)
    r, rcache = nn.relu(z)
    loss, grads = nn.softmax_cross_entropy(r[:, 0], 2)
    assert np.isfinite(loss)
    dz = nn.relu_backward(rcache, rng.normal(size=r.shape))
    dy = bn.backward(bncache, dz)
    dx = lin.backward(lincache, dy)
    dseq = enc.backward(lcache, rng.normal(size=5))
    emb.backward(ecache, dseq)
    for arr in (dz, dy, dx, dseq, grads, lin.weight.grad, bn.gamma.grad,
                enc.weight.grad, emb.weight.grad):
        assert np.all(np.isfinite(arr))


def test_batchnorm_train_standardizes_batch():
    rng = np.random.default_rng(77)
    bn = nn.BatchNorm1d(5)
    x = rng.normal(3.0, 2.5, size=(64, 5))
    y, _ = bn.forward(x, train=True)
    assert np.max(np.abs(y.mean(axis=0))) < 1e-12
    assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-3  # within epsilon smoothing
