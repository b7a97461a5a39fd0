import copy
import json
import os
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dialogrank import nn, training
from dialogrank.checkpoint import (CHECKPOINT_MAGIC, arrays, load_checkpoint, save_checkpoint)
from dialogrank.encoders import ModelDims
from dialogrank.metrics import evaluate_examples
from dialogrank.model import (DialogScorer, examples_from_dataset, reduced_check_dims,
                              synthetic_vocab)
from dialogrank.qdataset import build_qdataset_payload
from dialogrank.text import GloveTable, LoadError
from dialogrank.training import TrainConfig, train
from synth import feature_store, load_payload, memorize_family, payload_vocab, toy_glove


def toy_dims(**overrides):
    base = dict(rounds=4, embed_dim=8, query_hidden=16, option_hidden=16,
                caption_hidden=8, history_q_hidden=8, history_a_hidden=8,
                history_pair_dim=8, image_dim=16)
    base.update(overrides)
    return ModelDims.for_task("visdial", **base)


@pytest.fixture(scope="module")
def toy_data():
    payload, feats = memorize_family(n_dialogs=6, k_options=5, seed=0)
    return load_payload(payload), feature_store(feats)


def quick_cfg(**overrides):
    base = dict(task="visdial", variant="qih", mlp_depth=1, shared_embeddings=True,
                learning_rate=1e-3, batch_size=8, max_epochs=2, patience=10,
                seed=3, dims=toy_dims())
    base.update(overrides)
    return TrainConfig(**base)


def best_model(out) -> DialogScorer:
    """The result of a ``train`` run: the writable best state its checkpoint holds."""
    return load_checkpoint(out, adam_state=True)[0]


def test_same_seed_gives_identical_checkpoints(tmp_path, toy_data):
    ds, features = toy_data
    paths = []
    for run in range(2):
        out = tmp_path / f"train{run}.ckpt"
        train(ds, ds, features, quick_cfg(max_steps=6, max_epochs=50), out)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(best_model(out), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_first_step_loss_near_uniform(tmp_path, toy_data):
    ds, features = toy_data
    logs = train(ds, ds, features, quick_cfg(max_steps=1, max_epochs=1), tmp_path / "m.ckpt")
    assert abs(logs[0].mean_train_loss - np.log(5)) < 0.5


def test_epoch_loss_decreases_on_overfit_task(tmp_path, toy_data):
    ds, features = toy_data
    logs = train(ds, ds, features, quick_cfg(max_epochs=2), tmp_path / "m.ckpt")
    assert logs[1].mean_train_loss < logs[0].mean_train_loss


def test_empty_training_set_rejected(tmp_path, toy_data):
    ds, features = toy_data
    empty = load_payload({"format": "x", "task": "visdial", "questions": ["a ?"],
                          "answers": ["b"], "dialogs": []},
                         vocab=ds.vocab)
    with pytest.raises(ValueError):
        train(empty, ds, features, quick_cfg(), tmp_path / "m.ckpt")
    with pytest.raises(ValueError, match="validation set produced no examples"):
        train(ds, empty, features, quick_cfg(), tmp_path / "m.ckpt")


def test_returned_model_is_best_validation_state(tmp_path, toy_data):
    ds, features = toy_data
    cfg = quick_cfg(max_epochs=6, patience=10)
    logs = train(ds, ds, features, cfg, tmp_path / "m.ckpt")
    examples = examples_from_dataset(ds, features, cfg.task, cfg.variant, cfg.dims)
    report = evaluate_examples(best_model(tmp_path / "m.ckpt"), examples)
    assert abs(report.mrr - max(e.val.mrr for e in logs)) < 1e-12


def test_returned_model_saves_back_to_out(tmp_path, toy_data):
    # at this rate the best of four epochs is the third: the run's result, the file
    # at out, loads to that epoch's state, not the last epoch's, and saves back
    ds, features = toy_data
    out, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
    cfg = quick_cfg(learning_rate=1.0, max_epochs=4)
    logs = train(ds, ds, features, cfg, out, extra_config={"note": "x"})
    mrrs = [e.val.mrr for e in logs]
    assert mrrs.index(max(mrrs)) < len(mrrs) - 1
    model, extra = load_checkpoint(out, adam_state=True)
    assert extra == {"note": "x"}
    save_checkpoint(model, again, extra_config=extra)
    assert again.read_bytes() == out.read_bytes()
    examples = examples_from_dataset(ds, features, cfg.task, cfg.variant, cfg.dims)
    assert abs(evaluate_examples(model, examples).mrr - max(mrrs)) < 1e-12
    assert model.vocab == ds.vocab


def validation_failing_at(epoch):
    """An ``evaluate_examples`` that raises on its ``epoch``-th call, and the MRR
    of each call before it."""
    mrrs = []

    def evaluate(model, examples):
        if len(mrrs) + 1 == epoch:
            raise RuntimeError(f"validation failed at epoch {epoch}")
        report = evaluate_examples(model, examples)
        mrrs.append(report.mrr)
        return report

    return evaluate, mrrs


def test_run_failing_after_improving_epochs_leaves_its_best_checkpoint(tmp_path, toy_data,
                                                                      monkeypatch):
    # epochs 1 and 2 improve, then epoch 3's validation raises: out holds epoch 2,
    # byte for byte the checkpoint of the same run capped at two epochs
    ds, features = toy_data
    capped = tmp_path / "capped.ckpt"
    train(ds, ds, features, quick_cfg(max_epochs=2), capped)
    evaluate, mrrs = validation_failing_at(3)
    monkeypatch.setattr(training, "evaluate_examples", evaluate)
    run_dir = tmp_path / "failed"
    run_dir.mkdir()
    out = run_dir / "m.ckpt"
    with pytest.raises(RuntimeError, match="validation failed at epoch 3"):
        train(ds, ds, features, quick_cfg(max_epochs=3), out)
    assert mrrs[0] < mrrs[1]
    load_checkpoint(out, adam_state=True)
    assert out.read_bytes() == capped.read_bytes()
    assert [p.name for p in run_dir.iterdir()] == ["m.ckpt"]


def test_save_failing_part_way_keeps_the_previous_best(tmp_path, toy_data, monkeypatch):
    # the second improving epoch's save writes a few bytes, then fails: out keeps
    # the first epoch's bytes and the temporary file is gone
    ds, features = toy_data
    out = tmp_path / "m.ckpt"
    before = {}

    def save_then_fail(model, path, extra_config=None):
        if not out.exists():  # the first improving epoch saves as usual
            return save_checkpoint(model, path, extra_config=extra_config)
        before["out"] = out.read_bytes()
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
        raise OSError("no space left on device")

    monkeypatch.setattr(training, "save_checkpoint", save_then_fail)
    with pytest.raises(OSError, match="no space left on device"):
        train(ds, ds, features, quick_cfg(max_epochs=2), out)
    assert out.read_bytes() == before["out"]
    load_checkpoint(out, adam_state=True)
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def test_improving_epoch_holds_no_second_copy_of_the_model(tmp_path, toy_data):
    # the best state lives in out: a second, improving epoch raises the peak by far
    # less than the copy of every checkpoint array that an in-memory best state is
    ds, features = toy_data
    _, one = traced_peak(
        lambda: train(ds, ds, features, quick_cfg(max_epochs=1), tmp_path / "1.ckpt"))
    logs, two = traced_peak(
        lambda: train(ds, ds, features, quick_cfg(max_epochs=2), tmp_path / "2.ckpt"))
    assert logs[0].val.mrr < logs[1].val.mrr
    copy = sum(arr.nbytes for *_, arr in arrays(best_model(tmp_path / "1.ckpt")))
    assert two - one < copy / 2, (one, two, copy)


@pytest.mark.parametrize("batch_size, step", [(11, 2), (1, 1)])
def test_one_example_batch_at_two_rounds_is_refused_before_any_step(
        tmp_path, toy_data, monkeypatch, batch_size, step):
    # at rounds=2 each example has one history row, and the toy set gives 12
    # examples: batch_size 11 leaves a one-example last batch, batch_size 1 has
    # nothing else
    ds, features = toy_data
    n = len(examples_from_dataset(ds, features, "visdial", "qih", toy_dims(rounds=2)))
    assert n == 12
    steps = []
    monkeypatch.setattr(training.nn, "adam_step", lambda *args: steps.append(args))
    out = tmp_path / "m.ckpt"
    for max_steps in (None, step, step + 5):
        cfg = quick_cfg(dims=toy_dims(rounds=2), batch_size=batch_size, max_steps=max_steps)
        with pytest.raises(ValueError, match=(
                f"variant qih at rounds=2 batch-norms one history row per example.*"
                f"batch_size={batch_size} over 12 training examples gives a one-example "
                f"batch at step {step}")):
            train(ds, ds, features, cfg, out)
    assert steps == [] and not out.exists()


def test_two_round_run_that_stops_before_a_one_example_batch_trains(tmp_path, toy_data):
    # batch_size 11 reaches its one-example batch at step 2; a cap of one step
    # never does, and rounds=2 runs whose batches all hold two examples or more train
    ds, features = toy_data
    for batch_size, max_steps in ((11, 1), (2, None), (12, None)):
        logs = train(ds, ds, features, quick_cfg(dims=toy_dims(rounds=2), batch_size=batch_size,
                                                  max_steps=max_steps, max_epochs=1),
                     tmp_path / "m.ckpt")
        assert logs[0].steps == (1 if max_steps else -(-12 // batch_size))


@pytest.fixture(scope="module")
def one_option_sets():
    """(task, dataset) pairs whose training examples include a one-option round: a
    follow-up set built with one candidate per round, and the toy answer set with
    round 1 of its first dialog cut to its ground-truth answer."""
    payload, _ = memorize_family(n_dialogs=6, k_options=5, seed=0)
    glove = {w: np.asarray(v) for w, v in toy_glove(payload).items()}
    qpayload = build_qdataset_payload(load_payload(payload), GloveTable(glove),
                                      seed=0, pool_size=1)
    cut = copy.deepcopy(payload)
    first = cut["dialogs"][0]["rounds"][0]
    first.update(answer_options=[first["answer"]], gt_index=0)
    return [("visdial-q", load_payload(qpayload)), ("visdial", load_payload(cut))]


@pytest.mark.parametrize("which", [0, 1], ids=["followup-pool-1", "one-answer-option"])
@pytest.mark.parametrize("batch_size, step", [(23, 2), (1, 1)])
def test_one_option_example_with_a_one_example_batch_is_refused_before_any_step(
        tmp_path, toy_data, one_option_sets, monkeypatch, which, batch_size, step):
    # rounds=4 gives 24 examples, at least one of them with one option; the
    # shuffle may leave that one alone in a batch, where every mlp.h*.bn would
    # get one row
    task, ds = one_option_sets[which]
    _, features = toy_data
    dims = toy_dims()
    examples = examples_from_dataset(ds, features, task, "qih", dims)
    assert len(examples) == 24 and min(len(ex.option_ids) for ex in examples) == 1

    def no_step(*args):
        raise AssertionError("Adam step taken")

    monkeypatch.setattr(training.nn, "adam_step", no_step)
    out = tmp_path / "m.ckpt"
    for max_steps in (None, step, step + 5):
        cfg = quick_cfg(task=task, dims=dims, batch_size=batch_size, max_steps=max_steps)
        with pytest.raises(ValueError, match=re.escape(
                f"a training example with 1 option gives each mlp.h*.bn one row, and train "
                f"mode needs a batch of >= 2 rows: batch_size={batch_size} over 24 training "
                f"examples gives a one-example batch at step {step}")):
            train(ds, ds, features, cfg, out)
    assert not out.exists()


@pytest.mark.parametrize("which", [0, 1], ids=["followup-pool-1", "one-answer-option"])
def test_one_option_run_that_stops_before_a_one_example_batch_trains(
        tmp_path, toy_data, one_option_sets, which):
    # batch_size 23 reaches its one-example batch at step 2; a cap of one step
    # never does, and every batch of that step holds 23 examples
    task, ds = one_option_sets[which]
    _, features = toy_data
    cfg = quick_cfg(task=task, batch_size=23, max_steps=1)
    out = tmp_path / "m.ckpt"
    logs = train(ds, ds, features, cfg, out)
    assert logs[0].steps == 1 and out.exists()


def test_early_stopping_on_stale_validation(tmp_path, toy_data):
    ds, features = toy_data
    logs = train(ds, ds, features, quick_cfg(max_epochs=60, patience=2, learning_rate=1e-6),
                 tmp_path / "m.ckpt")
    # learning this slowly, validation MRR goes stale long before 60 epochs
    assert len(logs) < 60


def test_grad_clip_scales_to_global_norm(toy_data):
    from dialogrank.nn import Parameter
    from dialogrank.training import _clip_grads

    a = Parameter(np.zeros(3))
    b = Parameter(np.zeros(2))
    a.grad[:] = [3.0, 0.0, 0.0]
    b.grad[:] = [0.0, 4.0]  # global norm 5
    _clip_grads([a, b], 1.0)
    assert abs(np.sqrt((a.grad**2).sum() + (b.grad**2).sum()) - 1.0) < 1e-12
    assert np.allclose(a.grad, [0.6, 0.0, 0.0])
    # under the threshold, gradients pass through untouched
    a.grad[:] = [0.1, 0.0, 0.0]
    b.grad[:] = 0.0
    _clip_grads([a, b], 1.0)
    assert np.array_equal(a.grad, [0.1, 0.0, 0.0])


def test_grad_clip_training_runs_and_is_deterministic(tmp_path, toy_data):
    ds, features = toy_data
    for name in ("1.ckpt", "2.ckpt"):
        train(ds, ds, features, quick_cfg(max_steps=3, grad_clip=0.5), tmp_path / name)
    m1, m2 = best_model(tmp_path / "1.ckpt"), best_model(tmp_path / "2.ckpt")
    for name, p in m1.parameters().items():
        assert np.array_equal(p.value, m2.parameters()[name].value)


def test_config_rejects_unbuildable_models():
    with pytest.raises(ValueError, match="mlp depth must be 1 or 2, got 3"):
        TrainConfig(mlp_depth=3)
    with pytest.raises(ValueError, match="variant qih needs rounds >= 2"):
        TrainConfig(dims=reduced_check_dims(1))
    # depth 2's second hidden layer has fused_dim // 4 units: none at width 2
    with pytest.raises(ValueError, match="mlp depth 2 needs a fused width >= 4, got 2"):
        TrainConfig(variant="q", dims=ModelDims(query_hidden=1, option_hidden=1))


def test_parameter_counts_increase_with_context():
    vocab_payload, _ = memorize_family(n_dialogs=2, seed=1)
    vocab = payload_vocab(vocab_payload)

    def n_params(variant):
        model = DialogScorer(toy_dims(), vocab, variant=variant, mlp_depth=2,
                             shared_embeddings=True, init_seed=0)
        return sum(p.size for p in model.parameters().values())

    assert n_params("q") < n_params("qi") < n_params("qih")


def test_embedding_table_counts_in_checkpoint(tmp_path, toy_data):
    ds, features = toy_data
    for shared, expected in ((True, 1), (False, 5)):
        model = DialogScorer(toy_dims(), ds.vocab, variant="qih", mlp_depth=1,
                             shared_embeddings=shared, init_seed=0)
        path = tmp_path / f"emb{shared}.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        names = [n for n in loaded.parameters() if n.startswith("embed.")]
        assert len(names) == expected


# The manifest order of every model: its embedding tables, the rest of its text
# and history layers, then the MLP's, then the buffers. Variant qi adds the image,
# which holds no parameters, so it stores what q stores.
REGISTRY_TABLES = {  # (variant, shared embeddings) -> tables
    ("q", True): ["embed.shared.weight"],
    ("q", False): ["embed.query.weight", "embed.option.weight"],
    ("qih", True): ["embed.shared.weight"],
    ("qih", False): ["embed.query.weight", "embed.option.weight", "embed.caption.weight",
                     "embed.history_q.weight", "embed.history_a.weight"],
}
REGISTRY_PATHS = {  # variant -> parameters between the tables and the MLP
    "q": ["lstm.query.weight", "lstm.query.bias", "lstm.option.weight", "lstm.option.bias"],
    "qih": ["lstm.query.weight", "lstm.query.bias", "lstm.option.weight", "lstm.option.bias",
            "lstm.caption.weight", "lstm.caption.bias", "lstm.history_q.weight",
            "lstm.history_q.bias", "lstm.history_a.weight", "lstm.history_a.bias",
            "history.combine.weight", "history.combine.bias", "history.bn.gamma",
            "history.bn.beta"],
}
REGISTRY_MLP = {  # depth -> MLP parameters
    1: ["mlp.h0.weight", "mlp.h0.bias", "mlp.h0.bn.gamma", "mlp.h0.bn.beta",
        "mlp.out.weight", "mlp.out.bias"],
    2: ["mlp.h0.weight", "mlp.h0.bias", "mlp.h0.bn.gamma", "mlp.h0.bn.beta",
        "mlp.h1.weight", "mlp.h1.bias", "mlp.h1.bn.gamma", "mlp.h1.bn.beta",
        "mlp.out.weight", "mlp.out.bias"],
}
REGISTRY_BUFFERS = {  # (variant, depth) -> buffers
    ("q", 1): ["mlp.h0.bn.running_mean", "mlp.h0.bn.running_var"],
    ("q", 2): ["mlp.h0.bn.running_mean", "mlp.h0.bn.running_var", "mlp.h1.bn.running_mean",
               "mlp.h1.bn.running_var"],
    ("qih", 1): ["history.bn.running_mean", "history.bn.running_var",
                 "mlp.h0.bn.running_mean", "mlp.h0.bn.running_var"],
    ("qih", 2): ["history.bn.running_mean", "history.bn.running_var",
                 "mlp.h0.bn.running_mean", "mlp.h0.bn.running_var", "mlp.h1.bn.running_mean",
                 "mlp.h1.bn.running_var"],
}


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "separate"])
@pytest.mark.parametrize("depth", [1, 2], ids=["depth1", "depth2"])
@pytest.mark.parametrize("variant", ["q", "qi", "qih"])
def test_checkpoint_registry_order_is_pinned(tmp_path, variant, depth, shared):
    # every round-trip test is self-consistent; only a literal catches a
    # reordered registry, which would change the bytes of every checkpoint
    model = DialogScorer(toy_dims(), synthetic_vocab(20), variant=variant, mlp_depth=depth,
                         shared_embeddings=shared, init_seed=0)
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    n = len(CHECKPOINT_MAGIC)
    (mlen,) = struct.unpack("<Q", raw[n : n + 8])
    manifest = json.loads(raw[n + 8 : n + 8 + mlen])
    stores = "q" if variant == "qi" else variant
    params = REGISTRY_TABLES[stores, shared] + REGISTRY_PATHS[stores] + REGISTRY_MLP[depth]
    want = [(name, role) for name in params for role in ("value", "adam_m", "adam_v")]
    want += [(name, "buffer") for name in REGISTRY_BUFFERS[stores, depth]]
    assert [(e["name"], e["role"]) for e in manifest["entries"]] == want


# ---------------------------------------------------------------------------
# checkpoint round trips
# ---------------------------------------------------------------------------


def trained_model(tmp_path, toy_data, **cfg_overrides):
    ds, features = toy_data
    train(ds, ds, features, quick_cfg(max_steps=4, max_epochs=10, **cfg_overrides),
          tmp_path / "trained.ckpt")
    return best_model(tmp_path / "trained.ckpt"), ds, features


def test_checkpoint_roundtrip_bytes(tmp_path, toy_data):
    model, _, _ = trained_model(tmp_path, toy_data)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, p1, extra_config={"note": "x"})
    loaded, extra = load_checkpoint(p1, adam_state=True)
    save_checkpoint(loaded, p2, extra_config=extra)
    assert p1.read_bytes() == p2.read_bytes()


def test_default_load_keeps_no_adam_state_and_refuses_to_save(tmp_path, toy_data):
    model, ds, features = trained_model(tmp_path, toy_data)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    for name, p in model.parameters().items():
        q = loaded.parameters()[name]
        assert q.m is None and q.v is None
        assert np.array_equal(p.value, q.value)
        assert q.step_count == p.step_count > 0
    again = tmp_path / "again.ckpt"
    with pytest.raises(ValueError, match=r"embed.shared.weight holds no Adam state"
                                         r".*adam_state=True"):
        save_checkpoint(loaded, again)
    assert not again.exists()


def every_value_and_buffer(model):
    return ([(name, p.value) for name, p in model.parameters().items()]
            + list(model.buffers().items()))


def test_default_load_is_frozen(tmp_path, toy_data):
    # a default load is read-only, value and buffer alike, and its text paths and
    # its MLP share one memo; a fresh model and an adam_state=True load stay
    # writable, memo-free
    ds, _ = toy_data
    model = DialogScorer(toy_dims(), ds.vocab, variant="qih", mlp_depth=2, init_seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    frozen, _ = load_checkpoint(path)
    for name, arr in every_value_and_buffer(frozen):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr += 0.0
    assert len({id(path.memo) for path in frozen.paths.values()}) == 1
    assert frozen.paths["query"].memo is not None
    assert frozen.mlp.memo is frozen.paths["query"].memo
    for writable in (model, load_checkpoint(path, adam_state=True)[0]):
        for name, arr in every_value_and_buffer(writable):
            arr.flat[0] = arr.flat[0]
        assert all(path.memo is None for path in writable.paths.values())
        assert writable.mlp.memo is None


def test_train_mode_leaves_every_memo_untouched(tmp_path, toy_data):
    # train mode neither reads nor fills a memo: a frozen model's text paths all
    # run train-mode encodes, then its first batch norm refuses the read-only
    # running statistics; writable models have no memo to touch
    ds, features = toy_data
    model = DialogScorer(toy_dims(), ds.vocab, variant="qih", mlp_depth=1, init_seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    frozen, _ = load_checkpoint(path)
    examples = examples_from_dataset(ds, features, "visdial", "qih", frozen.dims)
    evaluate_examples(frozen, examples[:3])
    memo = frozen.paths["option"].memo
    before = [(key, id(row)) for key, row in memo.rows.items()]
    nbytes = memo.nbytes
    assert before
    with pytest.raises(ValueError, match="read-only"):
        frozen.batch_loss(examples[2:6])
    assert [(key, id(row)) for key, row in memo.rows.items()] == before
    assert memo.nbytes == nbytes
    for writable in (model, load_checkpoint(path, adam_state=True)[0]):
        writable.batch_loss(examples[2:6])
        assert all(path.memo is None for path in writable.paths.values())


def test_validation_pass_runs_frozen_and_changes_no_byte(tmp_path, toy_data, monkeypatch):
    # each epoch's validation pass sees a frozen model with a fresh memo; Adam and
    # the save of each improving epoch see it writable again, and the run writes the
    # same checkpoint and logs as one whose validation pass encodes without a memo
    ds, features = toy_data
    seen = []

    def spy(model, examples):
        memo = model.paths["option"].memo
        seen.append((memo is not None and not memo.rows,
                     not model.mlp.layers[0].weight.value.flags.writeable))
        return evaluate_examples(model, examples)

    monkeypatch.setattr(training, "evaluate_examples", spy)
    cfg = quick_cfg(max_epochs=3)
    logs = train(ds, ds, features, cfg, tmp_path / "memo-train.ckpt")
    model = best_model(tmp_path / "memo-train.ckpt")
    assert seen == [(True, True)] * 3
    assert all(path.memo is None for path in model.paths.values())
    assert model.mlp.memo is None
    assert all(arr.flags.writeable for _, arr in every_value_and_buffer(model))
    save_checkpoint(model, tmp_path / "memo.ckpt")

    monkeypatch.setattr(DialogScorer, "freeze", lambda self: None)
    monkeypatch.setattr(DialogScorer, "thaw", lambda self: None)
    memo_free_logs = train(ds, ds, features, cfg, tmp_path / "plain-train.ckpt")
    save_checkpoint(best_model(tmp_path / "plain-train.ckpt"), tmp_path / "plain.ckpt")
    assert [e.format_line() for e in logs] == [e.format_line() for e in memo_free_logs]
    assert (tmp_path / "memo.ckpt").read_bytes() == (tmp_path / "plain.ckpt").read_bytes()


def test_checkpoint_preserves_evaluation(tmp_path, toy_data):
    model, ds, features = trained_model(tmp_path, toy_data)
    examples = examples_from_dataset(ds, features, "visdial", "qih", model.dims)
    before = evaluate_examples(model, examples)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    after = evaluate_examples(loaded, examples)
    assert before == after


def test_checkpoint_preserves_adam_state_and_buffers(tmp_path, toy_data):
    model, _, _ = trained_model(tmp_path, toy_data)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path, adam_state=True)
    for name, p in model.parameters().items():
        q = loaded.parameters()[name]
        assert np.array_equal(p.value, q.value)
        assert np.array_equal(p.m, q.m)
        assert np.array_equal(p.v, q.v)
        assert p.step_count == q.step_count
    for name, buf in model.buffers().items():
        assert np.array_equal(buf, loaded.buffers()[name])
    assert loaded.vocab == model.vocab


def test_checkpoint_magic_rejected(tmp_path, toy_data):
    model, _, _ = trained_model(tmp_path, toy_data)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(LoadError, match="magic"):
        load_checkpoint(path)


def rewrite_checkpoint(path, edit_manifest, edit_payload=None) -> None:
    """Apply ``edit_manifest(manifest)`` (and ``edit_payload(manifest, payload)``)
    to a saved checkpoint in place. An ``edit_manifest`` that returns bytes
    replaces the manifest with them."""
    raw = path.read_bytes()
    n = len(CHECKPOINT_MAGIC)
    (mlen,) = struct.unpack("<Q", raw[n : n + 8])
    manifest = json.loads(raw[n + 8 : n + 8 + mlen])
    payload = bytearray(raw[n + 8 + mlen :])
    mbytes = edit_manifest(manifest)
    if edit_payload is not None:
        edit_payload(manifest, payload)
    if not isinstance(mbytes, bytes):
        mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(mbytes)) + mbytes
                     + bytes(payload))


def test_checkpoint_shape_mismatch_names_parameter(tmp_path, toy_data):
    model, _, _ = trained_model(tmp_path, toy_data)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    broken = []

    def edit(manifest):
        manifest["entries"][0]["shape"][0] += 1
        broken.append(manifest["entries"][0]["name"])

    rewrite_checkpoint(path, edit)
    with pytest.raises(LoadError, match=broken[0]):
        load_checkpoint(path)


def test_checkpoint_missing_entry_rejected(tmp_path, toy_data):
    model, _, _ = trained_model(tmp_path, toy_data)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint(path, lambda manifest: manifest["entries"].pop(0))
    with pytest.raises(LoadError, match=r"entry 0 should be embed.shared.weight \(value\)"):
        load_checkpoint(path)


def test_checkpoint_entries_in_another_order_rejected(tmp_path):
    # every entry is valid, but the loader accepts only the writer's order
    model = DialogScorer(toy_dims(), synthetic_vocab(30), init_seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint(path, lambda manifest: manifest["entries"].reverse())
    for adam_state in (False, True):
        with pytest.raises(LoadError, match=r"entry 0 should be embed.shared.weight \(value\) "
                                            r"of shape \[8, 30\] at payload byte 0, got"):
            load_checkpoint(path, adam_state=adam_state)


def write_nan(manifest, payload):
    entry = next(e for e in manifest["entries"]
                 if e["name"] == "lstm.query.weight" and e["role"] == "value")
    payload[entry["offset"] : entry["offset"] + 8] = struct.pack("<d", float("nan"))


def write_nan_in_adam_v(manifest, payload):
    # the third of the entry's values: inside the moment that the default load drops
    entry = entry_of(manifest, "lstm.query.weight", "adam_v")
    at = entry["offset"] + 16
    payload[at : at + 8] = struct.pack("<d", float("nan"))


def entry_of(manifest, name, role):
    return next(e for e in manifest["entries"] if e["name"] == name and e["role"] == role)


def overlap_value(manifest, payload):
    # Adam m of lstm.query.weight points at the bytes of its value
    entry_of(manifest, "lstm.query.weight", "adam_m")["offset"] = entry_of(
        manifest, "lstm.query.weight", "value")["offset"]


def gap_before_adam_m(manifest, payload):
    # 8 unused bytes in front of lstm.query.weight's Adam m; later entries shift
    start = entry_of(manifest, "lstm.query.weight", "adam_m")["offset"]
    payload[start:start] = bytes(8)
    for e in manifest["entries"]:
        if e["offset"] >= start:
            e["offset"] += 8


def trailing_bytes(manifest, payload):
    payload += bytes(64)


def cut_last_8_bytes(manifest, payload):
    del payload[-8:]


def cut_inside_last_moment(manifest, payload):
    # the payload ends 4 bytes into the last Adam moment entry, mlp.out.bias (adam_v)
    last = max((e for e in manifest["entries"] if e["role"] in ("adam_m", "adam_v")),
               key=lambda e: e["offset"])
    del payload[last["offset"] + 4 :]


DEEP_JSON = b"[" * 100_000 + b"]" * 100_000  # json.loads raises RecursionError on it


def first_param(manifest):
    return manifest["entries"][0]["name"]


def float_shape(manifest):
    entry = manifest["entries"][0]
    entry["shape"] = [float(n) for n in entry["shape"]]


@pytest.mark.parametrize("edit, edit_payload, named", [
    (lambda m: m.pop("model"), None, "model"),
    (lambda m: m.pop("step_counts"), None, "step_counts"),
    (lambda m: m.pop("entries"), None, "entries"),
    (lambda m: m.pop("vocab"), None, "vocab"),
    (lambda m: m["model"]["dims"].update(bogus=1), None, "bogus"),
    (lambda m: m.update(entries="x"), None, "entries"),
    (lambda m: m["model"].update(variant="qx"), None, "variant"),
    (lambda m: None, write_nan, "lstm.query.weight"),
    (lambda m: m["model"]["dims"].update(rounds=1), None, "qih.*rounds=1"),
    (lambda m: m["model"]["dims"].update(embed_dim=True), None, "dims.embed_dim.*True"),
    (lambda m: None, overlap_value, r"should be lstm.query.weight \(adam_m\)"),
    (lambda m: None, gap_before_adam_m, r"lstm.query.weight \(adam_m\)"),
    (lambda m: None, trailing_bytes, "64 bytes past"),
    (lambda m: m["entries"].append(dict(m["entries"][0])), None,
     r'entry \d+ is extra, got \{"name": "embed.shared.weight", .*"role": "value"'),
    (lambda m: m["model"].update(shared_embeddings=[0]), None, "'shared_embeddings'.*bool"),
    (lambda m: m["model"].update(shared_embeddings=1), None, "'shared_embeddings'.*bool"),
    (lambda m: m["model"].update(init_seed=True), None, "'init_seed'.*int"),
    (lambda m: m["model"].update(init_seed="x"), None, "'init_seed'.*int"),
    (lambda m: m["model"].update(init_seed=-1), None, "'init_seed' is negative"),
    (lambda m: m["model"].update(task=1), None, "'task'.*str"),
    (lambda m: m["model"].update(variant=None), None, "'variant'.*str"),
    (lambda m: m["model"].update(mlp_depth=True), None, "'mlp_depth'.*int"),
    (lambda m: m["model"].update(mlp_depth=2.0), None, "'mlp_depth'.*int"),
    (lambda m: m["step_counts"].update({first_param(m): -5}), None,
     "step count of parameter embed.shared.weight.*-5"),
    (lambda m: m["step_counts"].update({first_param(m): 2.7}), None,
     "step count of parameter embed.shared.weight.*2.7"),
    (float_shape, None, r"entry 0 should be embed.shared.weight \(value\) .*\[8.0, 30.0\]"),
    (lambda m: m["entries"][0].update(offset=0.5), None,
     r"entry 0 should be embed.shared.weight \(value\) .*\"offset\": 0.5"),
    (lambda m: None, cut_last_8_bytes, r"mlp.h1.bn.running_var \(buffer\): payload truncated"),
    (lambda m: None, write_nan_in_adam_v, r"lstm.query.weight \(adam_v\): non-finite"),
    (lambda m: None, cut_inside_last_moment, r"mlp.out.bias \(adam_v\): payload truncated"),
    (lambda m: DEEP_JSON, None, "manifest is JSON nested too deeply to read"),
    (lambda m: m["model"].update(task="vqa"), None, "unknown task 'vqa'"),
    (lambda m: m.update(format_version=2), None, "unsupported checkpoint version 2"),
    (lambda m: m.update(extra=[1]), None, "manifest key 'extra' is not a dict"),
    (lambda m: m["vocab"].append(7), None, "vocab holds a word that is not a str"),
    (lambda m: b'{"format_version": 1', None, "manifest is not valid JSON"),
    (lambda m: (m["model"].update(variant="q"),
                m["model"]["dims"].update(query_hidden=1, option_hidden=1)), None,
     "mlp depth 2 needs a fused width >= 4, got 2"),
    # the MLP's layers refuse the size before any per-slot work starts
    (lambda m: m["model"]["dims"].update(rounds=2**64), None, "model config is invalid"),
    (lambda m: m["model"]["dims"].update(rounds=10**30), None, "model config is invalid"),
    (lambda m: m["model"]["dims"].update(rounds=10**9), None, "model config is invalid"),
], ids=["no-model", "no-step-counts", "no-entries", "no-vocab", "unknown-dims-key",
        "entries-not-a-list", "bad-variant", "nan-value", "qih-one-round", "dims-bool", "overlap", "gap",
        "trailing-bytes", "duplicate-entry", "shared-embeddings-list", "shared-embeddings-int",
        "init-seed-bool", "init-seed-str", "init-seed-negative", "task-not-str",
        "variant-null", "mlp-depth-bool", "mlp-depth-float", "step-count-negative",
        "step-count-float", "shape-float", "offset-float", "truncated-payload",
        "nan-adam-v", "truncated-adam-v", "deep-nesting", "unknown-task", "version-2",
        "extra-not-a-dict", "vocab-int", "invalid-json", "empty-mlp-layer",
        "rounds-2**64", "rounds-10**30", "rounds-10**9"])
def test_malformed_checkpoint_raises_load_error(tmp_path, edit, edit_payload, named):
    model = DialogScorer(toy_dims(), synthetic_vocab(30), init_seed=0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    rewrite_checkpoint(path, edit, edit_payload)
    for adam_state in (False, True):  # moments dropped after their check, or kept
        with pytest.raises(LoadError, match=named):
            load_checkpoint(path, adam_state=adam_state)


@pytest.mark.parametrize("data, message", [
    (CHECKPOINT_MAGIC + struct.pack("<Q", 100)[:5], "checkpoint manifest length truncated"),
    (CHECKPOINT_MAGIC + struct.pack("<Q", 100) + b"{}", "checkpoint manifest truncated"),
], ids=["inside-length", "inside-manifest"])
def test_checkpoint_cut_inside_its_manifest_raises_load_error(tmp_path, data, message):
    path = tmp_path / "m.ckpt"
    path.write_bytes(data)
    for adam_state in (False, True):
        with pytest.raises(LoadError, match=message):
            load_checkpoint(path, adam_state=adam_state)


@pytest.mark.parametrize("index", [0, nn.BLOCK + 1, 4 * nn.BLOCK - 1])
def test_default_load_checks_every_scratch_chunk(tmp_path, index):
    # mlp.h0.weight has 4 * nn.BLOCK values, so its moments pass the scratch
    # buffer in four chunks; an inf in the first, second or last chunk is named
    path = tmp_path / "m.ckpt"
    model = memory_model()
    assert model.parameters()["mlp.h0.weight"].size == 4 * nn.BLOCK
    save_checkpoint(model, path)

    def inf_at(manifest, payload):
        at = entry_of(manifest, "mlp.h0.weight", "adam_m")["offset"] + 8 * index
        payload[at : at + 8] = struct.pack("<d", float("inf"))

    rewrite_checkpoint(path, lambda m: None, inf_at)
    with pytest.raises(LoadError, match=r"mlp.h0.weight \(adam_m\): non-finite"):
        load_checkpoint(path)


def through_a_pipe(tmp_path, data: bytes, load):
    """``load(fifo)`` while another thread writes ``data`` into the named pipe."""
    fifo = tmp_path / "m.fifo"
    if not fifo.exists():
        os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return load(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cut", [0, 8])
def test_checkpoint_loads_through_a_pipe(tmp_path, cut):
    # a pipe cannot seek or report its size, and may return short reads; it
    # loads, or fails with LoadError, with the moments kept or dropped
    path = tmp_path / "m.ckpt"
    model = DialogScorer(toy_dims(), synthetic_vocab(30), init_seed=0)
    save_checkpoint(model, path, extra_config={"note": "pipe"})
    data = path.read_bytes()[: -cut or None]
    if cut:
        for adam_state in (False, True):
            with pytest.raises(LoadError, match=r"mlp.h1.bn.running_var \(buffer\): "
                                                "payload truncated"):
                through_a_pipe(tmp_path, data,
                               lambda fifo: load_checkpoint(fifo, adam_state=adam_state))
        return
    loaded, extra = through_a_pipe(tmp_path, data,
                                   lambda fifo: load_checkpoint(fifo, adam_state=True))
    again = tmp_path / "again.ckpt"
    save_checkpoint(loaded, again, extra_config=extra)
    assert again.read_bytes() == data
    loaded, extra = through_a_pipe(tmp_path, data, load_checkpoint)
    assert extra == {"note": "pipe"}
    for name, p in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name].value, p.value)
        assert loaded.parameters()[name].m is None


def test_load_draws_no_init(tmp_path, monkeypatch):
    model = DialogScorer(toy_dims(), synthetic_vocab(30), init_seed=4)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an init that the payload overwrites")

    monkeypatch.setattr(nn, "he_normal_init", refuse)
    loaded, _ = load_checkpoint(path)
    assert loaded.config() == model.config()
    for name, p in model.parameters().items():
        assert np.array_equal(p.value, loaded.parameters()[name].value)


def memory_model() -> DialogScorer:
    # about 1.9 MB of parameters; the largest array, mlp.h0.weight [256, 512], is 1 MB
    dims = toy_dims(image_dim=352, embed_dim=32, query_hidden=64, option_hidden=64)
    return DialogScorer(dims, synthetic_vocab(1200), init_seed=0)


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_checkpoint_peak_memory_is_the_model(tmp_path):
    # the payload streams into the model's own arrays: no whole-payload bytes,
    # no per-array copies, no init drawn and thrown away
    path = tmp_path / "m.ckpt"
    save_checkpoint(memory_model(), path)
    (loaded, _), peak = traced_peak(lambda: load_checkpoint(path, adam_state=True))
    held = sum(a.nbytes for p in loaded.parameters().values() for a in (p.value, p.grad, p.m, p.v))
    held += sum(b.nbytes for b in loaded.buffers().values())
    assert peak <= held + (1 << 20), (peak, held)


def test_default_load_peak_memory_holds_no_adam_state(tmp_path):
    # the moments pass one scratch buffer of nn.BLOCK values and are never
    # allocated: the peak is the values, the gradients and the buffers
    path = tmp_path / "m.ckpt"
    model = memory_model()
    save_checkpoint(model, path)
    (loaded, _), peak = traced_peak(lambda: load_checkpoint(path))
    held = sum(a.nbytes for p in loaded.parameters().values() for a in (p.value, p.grad))
    held += sum(b.nbytes for b in loaded.buffers().values())
    assert peak <= held + (1 << 20), (peak, held)
    for name, p in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name].value, p.value)


def test_save_checkpoint_peak_memory_below_largest_array(tmp_path):
    # each array is written from its own buffer: no list of byte copies
    model = memory_model()
    largest = max(p.value.nbytes for p in model.parameters().values())
    assert largest == 1 << 20
    _, peak = traced_peak(lambda: save_checkpoint(model, tmp_path / "m.ckpt"))
    assert peak < largest, (peak, largest)


# ---------------------------------------------------------------------------
# checkpoint fuzz: every corrupt file loads or raises LoadError
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small.ckpt"
    save_checkpoint(DialogScorer(toy_dims(), synthetic_vocab(30), init_seed=0), path,
                    extra_config={"note": "x"})
    return path.read_bytes()


def load_or_load_error(path) -> None:
    for adam_state in (False, True):
        try:
            load_checkpoint(path, adam_state=adam_state)
        except LoadError:
            pass


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["truncate", "header", "manifest", "payload"]),
                                st.integers(0, 2**32), st.integers(1, 255)),
                      min_size=1, max_size=3))
def test_corrupt_checkpoint_bytes_load_or_raise_load_error(tmp_path_factory, small_checkpoint,
                                                           edits):
    # truncation at any byte, and byte flips in the header (magic and manifest
    # length), the manifest and the payload
    data = bytearray(small_checkpoint)
    n = len(CHECKPOINT_MAGIC)
    (mlen,) = struct.unpack("<Q", small_checkpoint[n : n + 8])
    regions = {"header": (0, n + 8), "manifest": (n + 8, n + 8 + mlen),
               "payload": (n + 8 + mlen, len(small_checkpoint))}
    for kind, pos, mask in edits:
        if kind == "truncate":
            del data[pos % (len(data) + 1) :]
            continue
        lo, hi = regions[kind]
        if lo + pos % (hi - lo) < len(data):
            data[lo + pos % (hi - lo)] ^= mask
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(data))
    load_or_load_error(path)


def manifest_paths(manifest) -> list[tuple]:
    paths = [(k,) for k in manifest]
    paths += [("model", k) for k in manifest["model"]]
    paths += [("model", "dims", k) for k in manifest["model"]["dims"]]
    paths += [("vocab", i) for i in (0, 3, -1)]
    for i in (0, 1, -1):
        paths.append(("entries", i))
        paths += [("entries", i, k) for k in ("name", "role", "shape", "offset")]
        paths.append(("entries", i, "shape", 0))
    paths += [("step_counts", k) for k in sorted(manifest["step_counts"])[:3]]
    return paths


JUNK = [None, "x", "", [], [1, 2], {}, 1.5, float("nan"), True, 0, -1, -(2**63), 2**64, 10**40]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_values_load_or_raise_load_error(tmp_path_factory, small_checkpoint,
                                                            data):
    # one manifest value replaced by null, a string, a list, a float, or a
    # negative or huge int, or removed
    path = tmp_path_factory.getbasetemp() / "fuzz-values.ckpt"
    path.write_bytes(small_checkpoint)

    def edit(manifest):
        *parents, last = data.draw(st.sampled_from(manifest_paths(manifest)))
        target = manifest
        for key in parents:
            target = target[key]
        if data.draw(st.booleans(), label="remove") and isinstance(target, dict):
            del target[last]
        else:
            target[last] = data.draw(st.sampled_from(JUNK), label="value")

    rewrite_checkpoint(path, edit)
    load_or_load_error(path)
