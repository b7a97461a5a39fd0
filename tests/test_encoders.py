import numpy as np
import pytest

from path_encode import encode_caption, encode_option, encode_query
from dialogrank import nn
from dialogrank.encoders import ModelDims
from dialogrank.model import (DialogScorer, full_model_gradcheck, random_example,
                              reduced_check_dims, synthetic_vocab)


@pytest.fixture(scope="module")
def small_setup():
    dims = reduced_check_dims(rounds=4)
    vocab = synthetic_vocab(30)
    model = DialogScorer(dims, vocab, task="visdial", variant="qih",
                         shared_embeddings=True, init_seed=11)
    return dims, vocab, model


def ids(vocab, *words):
    return [vocab.encode_word(w) for w in words] + [vocab.stop_id]


def record_lstm_calls(monkeypatch):
    """(LSTM weight name, packed rows, batch_sizes) of every later ``LstmEncoder.encode``."""
    calls = []
    encode = nn.LstmEncoder.encode

    def recording(lstm, xs, batch_sizes, rows=None):
        calls.append((lstm.weight.name, xs, list(batch_sizes)))
        return encode(lstm, xs, batch_sizes, rows)

    monkeypatch.setattr(nn.LstmEncoder, "encode", recording)
    return calls


def history_vec(model, rounds):
    """Eval-mode history block of one example."""
    blocks, _ = model.encode_histories([rounds], train=False)
    return blocks[0]


# ---------------------------------------------------------------------------
# dims arithmetic (paper-scale shape fixtures)
# ---------------------------------------------------------------------------


def test_fused_dim_defaults():
    visdial = ModelDims.for_task("visdial")
    assert visdial.fused_dim("qih") == 512 + 4096 + 128 + 9 * 128 + 512 == 6400
    assert visdial.fused_dim("qi") == 512 + 4096 + 512
    assert visdial.fused_dim("q") == 1024
    followup = ModelDims.for_task("visdial-q")
    assert followup.rounds == 9
    assert followup.fused_dim("qih") == 512 + 4096 + 128 + 8 * 128 + 512 == 6272
    assert visdial.history_len == 9 * 128
    assert followup.history_len == 8 * 128


def test_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(rounds=0)
    with pytest.raises(ValueError):
        ModelDims.for_task("nope")


def test_one_round_models_need_no_history_block():
    dims = reduced_check_dims(rounds=1)
    vocab = synthetic_vocab(30)
    with pytest.raises(ValueError, match=r"qih.*rounds=1"):
        DialogScorer(dims, vocab, variant="qih")
    rng = np.random.default_rng(2)
    for variant in ("q", "qi"):
        model = DialogScorer(dims, vocab, variant=variant)
        batch = [random_example(vocab, dims, rng, k_options=3) for _ in range(2)]
        before = model.parameters()["mlp.h0.weight"].value.copy()
        assert np.isfinite(model.batch_loss(batch))
        nn.adam_step(list(model.parameters().values()), nn.AdamConfig())
        assert not np.array_equal(model.parameters()["mlp.h0.weight"].value, before)


# ---------------------------------------------------------------------------
# query / option / caption encoders
# ---------------------------------------------------------------------------


def test_encode_query_visdial_rejects_answer_part(small_setup):
    _, vocab, model = small_setup
    with pytest.raises(ValueError):
        encode_query(model, ids(vocab, "w1"), ids(vocab, "w2"))


def test_encode_query_stop_only_is_allowed(small_setup):
    _, vocab, model = small_setup
    vec, _ = encode_query(model, [vocab.stop_id])
    assert vec.shape == (16,)
    assert np.all(np.isfinite(vec))


def test_encode_query_followup_consumes_both_parts(monkeypatch):
    dims = reduced_check_dims()
    vocab = synthetic_vocab(30)
    model = DialogScorer(dims, vocab, task="visdial-q", variant="qih",
                         shared_embeddings=True, init_seed=3)
    q = ids(vocab, "w1")
    a = ids(vocab, "w2")
    assert len(q) + len(a) == 4
    packed = record_lstm_calls(monkeypatch)
    encode_query(model, q, a)
    assert [len(xs) for _, xs, _ in packed] == [4]  # the LSTM saw exactly four tokens
    with pytest.raises(ValueError):
        encode_query(model, q, None)


def test_encode_query_order_sensitivity(small_setup):
    _, vocab, model = small_setup
    a, _ = encode_query(model, ids(vocab, "w1", "w2", "w3"))
    b, _ = encode_query(model, ids(vocab, "w3", "w2", "w1"))
    assert not np.allclose(a, b)


def test_encode_option_shapes_and_determinism(small_setup):
    dims, vocab, model = small_setup
    seqs = [ids(vocab, f"w{i % 5}") for i in range(100)]
    vecs = np.stack([encode_option(model, s)[0] for s in seqs])
    assert vecs.shape == (100, dims.option_hidden)
    same_a, _ = encode_option(model, ids(vocab, "w2", "w3"))
    same_b, _ = encode_option(model, ids(vocab, "w2", "w3"))
    assert np.array_equal(same_a, same_b)


def test_caption_truncation_matches_config():
    dims = ModelDims.for_task("visdial", embed_dim=4, query_hidden=4, option_hidden=4,
                              caption_hidden=4, history_q_hidden=4, history_a_hidden=4,
                              history_pair_dim=4, image_dim=4)
    vocab = synthetic_vocab(60)
    model = DialogScorer(dims, vocab, task="visdial", variant="qih",
                         shared_embeddings=True, init_seed=5)
    from dialogrank.text import encode_truncate

    words = [f"w{i % 40}" for i in range(45)]
    seq = encode_truncate(words, vocab, dims.max_caption_words)
    assert len(seq) == 41  # first 40 words + stop
    vec, _ = encode_caption(model, seq)
    assert vec.shape == (4,)


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------


def test_history_all_padded_slots_identical(small_setup):
    dims, vocab, model = small_setup
    vec = history_vec(model, [])
    assert vec.shape == (dims.history_slots * dims.history_pair_dim,)
    slots = vec.reshape(dims.history_slots, dims.history_pair_dim)
    for k in range(1, dims.history_slots):
        assert np.array_equal(slots[0], slots[k])


def test_history_default_scale_length():
    dims = ModelDims.for_task("visdial")
    assert dims.history_slots * dims.history_pair_dim == 9 * 128 == 1152


def test_history_partial_padding(small_setup):
    dims, vocab, model = small_setup
    rounds = [(ids(vocab, "w1"), ids(vocab, "w2"))]
    vec = history_vec(model, rounds)
    slots = vec.reshape(dims.history_slots, dims.history_pair_dim)
    assert not np.array_equal(slots[0], slots[1])
    assert np.array_equal(slots[1], slots[2])


def test_history_locality(small_setup):
    dims, vocab, model = small_setup
    base = [
        (ids(vocab, "w1"), ids(vocab, "w2")),
        (ids(vocab, "w3"), ids(vocab, "w4")),
        (ids(vocab, "w5"), ids(vocab, "w6")),
    ]
    changed = list(base)
    changed[1] = (ids(vocab, "w3"), ids(vocab, "w7"))
    va = history_vec(model, base)
    vb = history_vec(model, changed)
    sa = va.reshape(dims.history_slots, -1)
    sb = vb.reshape(dims.history_slots, -1)
    assert np.array_equal(sa[0], sb[0])
    assert not np.allclose(sa[1], sb[1])
    assert np.array_equal(sa[2], sb[2])


def test_history_length_stability(small_setup):
    dims, vocab, model = small_setup
    pair = (ids(vocab, "w1"), ids(vocab, "w2"))
    sizes = set()
    for n in range(dims.history_slots + 1):
        vec = history_vec(model, [pair] * n)
        sizes.add(vec.shape)
    assert sizes == {(dims.history_len,)}


def test_history_too_long_rejected(small_setup):
    dims, vocab, model = small_setup
    pair = (ids(vocab, "w1"), ids(vocab, "w2"))
    with pytest.raises(ValueError):
        history_vec(model, [pair] * (dims.history_slots + 1))


# ---------------------------------------------------------------------------
# shared embeddings
# ---------------------------------------------------------------------------


def test_shared_table_is_one_object(small_setup):
    _, _, model = small_setup
    tables = [path.embed for path in model.paths.values()]
    assert len(tables) == 5
    assert all(table is tables[0] for table in tables)
    assert sum(1 for n in model.parameters() if n.startswith("embed.")) == 1


def test_separate_tables_when_not_shared():
    dims = reduced_check_dims()
    vocab = synthetic_vocab(30)
    model = DialogScorer(dims, vocab, task="visdial", variant="qih",
                         shared_embeddings=False, init_seed=1)
    names = [n for n in model.parameters() if n.startswith("embed.")]
    assert len(names) == 5


def test_shared_table_feeds_all_paths(small_setup):
    dims, vocab, model = small_setup
    wid = vocab.encode_word("w1")
    seq = [wid, vocab.stop_id]
    before_q, _ = encode_query(model, seq)
    before_o, _ = encode_option(model, seq)
    before_h = history_vec(model, [(seq, seq)])
    model.paths["query"].embed.weight.value[:, wid] += 0.5
    after_q, _ = encode_query(model, seq)
    after_o, _ = encode_option(model, seq)
    after_h = history_vec(model, [(seq, seq)])
    model.paths["query"].embed.weight.value[:, wid] -= 0.5
    assert not np.allclose(before_q, after_q)
    assert not np.allclose(before_o, after_o)
    assert not np.allclose(before_h, after_h)


def test_full_model_gradcheck_separate_embeddings():
    report = full_model_gradcheck(seed=3, shared_embeddings=False, vocab_size=16,
                                  k_options=3)
    assert report.passed, report.summary()


def test_full_model_gradcheck_followup_task():
    report = full_model_gradcheck(seed=4, task="visdial-q", vocab_size=16, k_options=3)
    assert report.passed, report.summary()


def test_option_embeddings_at_default_scale():
    dims = ModelDims.for_task("visdial")
    vocab = synthetic_vocab(30)
    model = DialogScorer(dims, vocab, task="visdial", variant="q",
                         shared_embeddings=True, init_seed=0)
    seqs = [[vocab.encode_word(f"w{i}"), vocab.stop_id] for i in range(3)]
    vecs = [encode_option(model, s)[0] for s in seqs]
    assert all(v.shape == (512,) for v in vecs)
    query, _ = encode_query(model, seqs[0])
    assert query.shape == (512,)


def test_text_path_packed_call_matches_one_call_per_sequence(small_setup):
    dims, vocab, model = small_setup
    rng = np.random.default_rng(5)
    seqs = [list(rng.integers(3, len(vocab), size=n)) for n in (2, 5, 1, 5, 3, 9)]
    seqs.append(seqs[1])
    path = model.paths["option"]
    vecs, cache = path.encode(seqs)
    dvecs = rng.normal(size=vecs.shape)
    path.backward(cache, dvecs)
    params = path.lstm.parameters() + path.embed.parameters()
    packed_grads = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    for seq, vec, dvec in zip(seqs, vecs, dvecs):
        want, one_cache = encode_option(model, seq)
        assert np.abs(vec - want).max() <= 1e-12 * np.abs(want).max()
        path.backward(one_cache, dvec[None])
    for got, p in zip(packed_grads, params):
        assert np.abs(got - p.grad).max() <= 1e-12 * np.abs(p.grad).max()
        p.zero_grad()


def repeated_text_batch():
    """B=3 with history depths 0, 1 and 2, and a text repeated on every path: an
    option within and across examples, a history pair and the padded slots'
    empty pair, the caption and the question."""
    dims = reduced_check_dims(rounds=3)
    vocab = synthetic_vocab(16)
    model = DialogScorer(dims, vocab, init_seed=6)
    rng = np.random.default_rng(6)
    batch = [random_example(vocab, dims, rng, k_options=3, n_history=n) for n in (0, 1, 2)]
    batch[0].option_ids[2] = batch[0].option_ids[0]  # within an example
    batch[2].option_ids[1] = batch[0].option_ids[0]  # across examples
    batch[2].history[0] = batch[1].history[0]
    batch[1].caption_ids = batch[0].caption_ids
    batch[2].question_ids = batch[0].question_ids
    return model, batch


def test_gradcheck_across_examples_with_repeated_options():
    # the packed cross-example paths and the de-duplication of each path's
    # repeated texts, padded history slots included, all in one sweep
    model, batch = repeated_text_batch()

    def closure(want_grads: bool) -> float:
        if want_grads:
            model.zero_grads()
        return model.batch_loss(batch, want_grads=want_grads)

    report = nn.grad_check(closure, model.parameters().values(), tolerance=1e-4)
    assert report.passed, report.summary()


def test_train_step_packs_each_distinct_text_once(monkeypatch):
    model, batch = repeated_text_batch()
    packed = record_lstm_calls(monkeypatch)
    model.batch_loss(batch)
    slots = model.dims.history_slots
    pairs = [pair for ex in batch
             for pair in ex.history + [model.empty_pair()] * (slots - len(ex.history))]
    texts = {"query": [ex.question_ids for ex in batch],
             "option": [option for ex in batch for option in ex.option_ids],
             "caption": [ex.caption_ids for ex in batch],
             "history_q": [q for q, _ in pairs],
             "history_a": [a for _, a in pairs]}
    for name, seqs in texts.items():
        distinct = {tuple(seq) for seq in seqs}
        assert len(distinct) < len(seqs), name  # the batch repeats a text on this path
        # one train-mode call, its first step running every distinct sequence
        runs = [sizes[0] for lstm, _, sizes in packed if lstm == f"lstm.{name}.weight"]
        assert runs == [len(distinct)], name
