import contextlib
import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import dialogrank
from dialogrank import cli, text
from dialogrank.checkpoint import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from dialogrank.cli import main
from dialogrank.encoders import ModelDims
from dialogrank.metrics import compute_metrics
from dialogrank.model import DialogScorer
from dialogrank.text import write_dataset, write_features, write_glove
from synth import memorize_family, payload_vocab, qbuilder_corpus, toy_glove


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    payload, feats = memorize_family(n_dialogs=6, k_options=5, seed=2)
    write_dataset(root / "train.json", payload)
    write_features(root / "feat.bin", feats)
    qpayload = qbuilder_corpus(n_images=12, seed=3)
    write_dataset(root / "corpus.json", qpayload)
    write_glove(root / "glove.txt",
                {w: np.asarray(v) for w, v in toy_glove(qpayload, dim=5).items()})
    rng = np.random.default_rng(8)
    write_features(root / "corpus_feat.bin",
                   {d["image_id"]: rng.normal(size=6) for d in qpayload["dialogs"]})
    (root / "tiny.cfg").write_text(
        "# reduced geometry\n"
        "rounds=4\nembed_dim=8\nquery_hidden=16\noption_hidden=16\n"
        "caption_hidden=8\nhistory_q_hidden=8\nhistory_a_hidden=8\n"
        "history_pair_dim=8\nimage_dim=16\n"
        "mlp_depth=1\nbatch_size=8\nmax_epochs=2\nmax_steps=4\npatience=10\n")
    return root


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_for_fixture(*argv):
    """(exit code, stdout) of ``main(argv)``, for a module-scoped fixture, which
    cannot use capsys."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


# Each file that a test reads but does not write comes from a fixture, so every
# test runs alone, under -k, or in any order.


@pytest.fixture(scope="module")
def qdataset(workdir):
    """``q1.json`` from build-qdataset over the corpus: (exit code, stdout, path)."""
    path = workdir / "q1.json"
    code, stdout = run_cli_for_fixture(
        "build-qdataset", "--dataset", str(workdir / "corpus.json"),
        "--glove", str(workdir / "glove.txt"), "--seed", "5", "--out", str(path))
    return code, stdout, path


@pytest.fixture(scope="module")
def trained(workdir):
    """``model.ckpt`` from train on the visdial set: (exit code, stdout, path)."""
    path = workdir / "model.ckpt"
    code, stdout = run_cli_for_fixture(
        "train",
        "--train", str(workdir / "train.json"),
        "--val", str(workdir / "train.json"),
        "--features", str(workdir / "feat.bin"),
        "--config", str(workdir / "tiny.cfg"),
        "--task", "visdial", "--variant", "qih",
        "--shared-embeddings", "on", "--seed", "4",
        "--out", str(path))
    return code, stdout, path


def test_build_vocab(workdir, capsys):
    out = workdir / "vocab.txt"
    code, stdout, _ = run_cli(capsys, "build-vocab", "--dataset",
                              str(workdir / "train.json"), "--out", str(out))
    assert code == 0
    assert "vocab size=" in stdout
    assert out.exists()


def test_build_qdataset_digest_is_stable(workdir, qdataset, capsys):
    code, stdout, q1 = qdataset
    assert code == 0
    digests = [stdout.split("sha256=")[1].strip()]
    code, stdout, _ = run_cli(
        capsys, "build-qdataset",
        "--dataset", str(workdir / "corpus.json"),
        "--glove", str(workdir / "glove.txt"),
        "--seed", "5", "--out", str(workdir / "q2.json"))
    assert code == 0
    digests.append(stdout.split("sha256=")[1].strip())
    assert digests[0] == digests[1]
    assert q1.read_bytes() == (workdir / "q2.json").read_bytes()


def test_train_and_evaluate(workdir, trained, capsys):
    code, stdout, ckpt = trained
    assert code == 0
    assert "config task=visdial" in stdout
    assert "epoch 1 loss" in stdout
    assert ckpt.exists()
    assert (workdir / "model.ckpt.log").exists()
    config_echo = (workdir / "model.ckpt.config").read_text()
    assert "variant=qih" in config_echo and "rounds=4" in config_echo

    rank_log = workdir / "ranks.txt"
    code, stdout, _ = run_cli(
        capsys, "evaluate",
        "--checkpoint", str(ckpt),
        "--dataset", str(workdir / "train.json"),
        "--features", str(workdir / "feat.bin"),
        "--task", "visdial",
        "--rank-log", str(rank_log))
    assert code == 0
    assert "R@1 = " in stdout and "MRR = " in stdout

    # the emitted per-round rank log reproduces the printed metrics
    lines = rank_log.read_text().strip().splitlines()
    ranks = [int(line.split()[2]) for line in lines]
    report = compute_metrics(ranks)
    printed_mrr = float(stdout.split("MRR = ")[1].split()[0])
    assert abs(report.mrr - printed_mrr) < 5e-5
    printed_r1 = float(stdout.split("R@1 = ")[1].split()[0])
    assert abs(report.r_at_1 - printed_r1) < 5e-3


def test_evaluate_rejects_task_mismatch(workdir, trained, capsys):
    assert trained[0] == 0  # the checkpoint exists and loads; only the task differs
    code, _, stderr = run_cli(
        capsys, "evaluate",
        "--checkpoint", str(trained[2]),
        "--dataset", str(workdir / "train.json"),
        "--features", str(workdir / "feat.bin"),
        "--task", "visdial-q")
    assert code == 1
    assert stderr.count("\n") == 1
    assert "error type=ValueError" in stderr
    assert "trained for task 'visdial', asked for 'visdial-q'" in stderr


def test_unroll_end_to_end(workdir, qdataset, capsys):
    # train a tiny follow-up-question model on the built q-dataset
    assert qdataset[0] == 0
    q_ckpt = workdir / "qmodel.ckpt"
    code, _, _ = run_cli(
        capsys, "train",
        "--train", str(qdataset[2]),
        "--val", str(qdataset[2]),
        "--features", str(workdir / "corpus_feat.bin"),
        "--config", str(workdir / "tiny.cfg"),
        "--task", "visdial-q", "--variant", "qih", "--seed", "6",
        "--set", "image_dim=6",
        "--out", str(q_ckpt))
    assert code == 0
    a_ckpt = workdir / "amodel.ckpt"
    code, _, _ = run_cli(
        capsys, "train",
        "--train", str(workdir / "corpus.json"),
        "--val", str(workdir / "corpus.json"),
        "--features", str(workdir / "corpus_feat.bin"),
        "--config", str(workdir / "tiny.cfg"),
        "--task", "visdial", "--variant", "qih", "--seed", "7",
        "--set", "image_dim=6",
        "--out", str(a_ckpt))
    assert code == 0

    digests = []
    for name in ("t1.json", "t2.json"):
        code, stdout, _ = run_cli(
            capsys, "unroll",
            "--q-checkpoint", str(q_ckpt), "--a-checkpoint", str(a_ckpt),
            "--dataset", str(workdir / "corpus.json"),
            "--features", str(workdir / "corpus_feat.bin"),
            "--rounds", "4", "--start-rounds", "1", "--seed", "9",
            "--pool-size", "20", "--top-m", "5", "--neighbors", "4",
            "--out", str(workdir / name))
        assert code == 0
        assert "round 4: Q: " in stdout
        digests.append(stdout.split("sha256=")[1].split()[0])
    assert digests[0] == digests[1]
    payload = json.loads((workdir / "t1.json").read_text())
    assert len(payload["rounds"]) == 4
    assert payload["spec"]["seed"] == 9


def test_each_input_file_is_read_once(workdir, capsys, monkeypatch):
    reads = []

    def counting_open(path, mode="r", **kwargs):
        if "r" in mode:
            reads.append(os.path.basename(path))
        return open(path, mode, **kwargs)

    # the command reads its configuration; the text readers read datasets,
    # word vectors and features
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    monkeypatch.setattr(text, "open", counting_open, raising=False)
    corpus, qdata = str(workdir / "corpus.json"), str(workdir / "q3.json")
    train = ["train", "--features", str(workdir / "corpus_feat.bin"),
             "--config", str(workdir / "tiny.cfg"), "--set", "image_dim=6"]
    commands = [  # train and val name the same file, so it is read twice
        (["build-qdataset", "--dataset", corpus, "--glove", str(workdir / "glove.txt"),
          "--out", qdata], ["corpus.json", "glove.txt"]),
        (train + ["--task", "visdial-q", "--train", qdata, "--val", qdata,
                  "--out", str(workdir / "q3.ckpt")],
         ["corpus_feat.bin", "q3.json", "q3.json", "tiny.cfg"]),
        (train + ["--train", corpus, "--val", corpus, "--out", str(workdir / "a3.ckpt")],
         ["corpus.json", "corpus.json", "corpus_feat.bin", "tiny.cfg"]),
        (["unroll", "--q-checkpoint", str(workdir / "q3.ckpt"),
          "--a-checkpoint", str(workdir / "a3.ckpt"), "--dataset", corpus,
          "--features", str(workdir / "corpus_feat.bin"), "--rounds", "1",
          "--pool-size", "20", "--top-m", "5", "--out", str(workdir / "t3.json")],
         ["corpus.json", "corpus_feat.bin"]),
    ]
    for argv, files in commands:
        reads.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv[0]
        assert sorted(reads) == files, argv[0]


def test_gradcheck_command(workdir, capsys):
    code, stdout, _ = run_cli(capsys, "gradcheck", "--seeds", "1", "--seed", "2",
                              "--vocab-size", "16", "--k-options", "3")
    assert code == 0
    assert "max_rel_error=" in stdout
    assert "OK" in stdout


def test_gradcheck_vocab_without_a_plain_word_is_an_error(capsys):
    # three words are the reserved ones only
    code, _, stderr = run_cli(capsys, "gradcheck", "--seeds", "1", "--vocab-size", "3")
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and "vocabulary too small" in stderr, stderr


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "0", "--seeds must be >= 1, got 0"),
    ("--seeds", "-2", "--seeds must be >= 1, got -2"),
    ("--k-options", "0", "--k-options must be >= 2, got 0"),
    ("--k-options", "1", "--k-options must be >= 2, got 1"),
    ("--tolerance", "inf", "--tolerance must be finite and > 0, got inf"),
    ("--tolerance", "nan", "--tolerance must be finite and > 0, got nan"),
    ("--tolerance", "0", "--tolerance must be finite and > 0, got 0.0"),
    ("--tolerance", "-0.5", "--tolerance must be finite and > 0, got -0.5"),
], ids=["seeds-zero", "seeds-negative", "k-options-zero", "k-options-one", "tolerance-inf",
        "tolerance-nan", "tolerance-zero", "tolerance-negative"])
def test_gradcheck_out_of_range_setting_is_refused_before_any_check(capsys, monkeypatch,
                                                                     flag, value, message):
    # at these values a check would test nothing (no seed, no option) or pass
    # anything (an infinite tolerance), or fail whatever the gradient
    checks = []
    monkeypatch.setattr(cli, "full_model_gradcheck", lambda **kw: checks.append(kw))
    code, stdout, stderr = run_cli(capsys, "gradcheck", "--seeds", "1", "--vocab-size", "16",
                                   flag, value)
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and message in stderr, stderr
    assert checks == [] and "gradcheck max_rel_error" not in stdout


@pytest.fixture(scope="module")
def untrained_checkpoints(workdir):
    """Freshly initialised follow-up-question and answer checkpoints over the
    corpus vocabulary, for unroll runs that need no trained model."""
    vocab = payload_vocab(json.loads((workdir / "corpus.json").read_text()))
    paths = []
    for task, seed in (("visdial-q", 1), ("visdial", 2)):
        dims = ModelDims.for_task(task, rounds=4, embed_dim=8, query_hidden=16,
                                  option_hidden=16, caption_hidden=8, history_q_hidden=8,
                                  history_a_hidden=8, history_pair_dim=8, image_dim=6)
        path = workdir / f"untrained-{task}.ckpt"
        save_checkpoint(DialogScorer(dims, vocab, task=task, mlp_depth=1, init_seed=seed), path)
        paths.append(str(path))
    return paths


def unroll_one_round(workdir, checkpoints, out, *flags):
    q_ckpt, a_ckpt = checkpoints
    return ["unroll", "--q-checkpoint", q_ckpt, "--a-checkpoint", a_ckpt,
            "--dataset", str(workdir / "corpus.json"),
            "--features", str(workdir / "corpus_feat.bin"), "--rounds", "1",
            "--pool-size", "20", "--top-m", "5", "--out", str(out), *flags]


def test_unroll_image_id_picks_the_dialog(workdir, untrained_checkpoints, capsys):
    corpus = json.loads((workdir / "corpus.json").read_text())
    image_ids = [dialog["image_id"] for dialog in corpus["dialogs"]]
    out = workdir / "t-image.json"
    code, stdout, stderr = run_cli(capsys, *unroll_one_round(
        workdir, untrained_checkpoints, out, "--image-id", str(image_ids[3])))
    assert code == 0, stderr
    assert f"transcript image_id={image_ids[3]} rounds=1" in stdout
    assert json.loads(out.read_text())["image_id"] == image_ids[3] != image_ids[0]

    missing, out = max(image_ids) + 1, workdir / "t-no-image.json"
    code, _, stderr = run_cli(capsys, *unroll_one_round(
        workdir, untrained_checkpoints, out, "--image-id", str(missing)))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=LoadError"), stderr
    assert f"image {missing}: not in the dataset" in stderr, stderr
    assert not out.exists()


def test_evaluate_followup_task_without_question_options_names_the_task(
        workdir, untrained_checkpoints, capsys):
    code, _, stderr = run_cli(
        capsys, "evaluate", "--checkpoint", untrained_checkpoints[0],
        "--dataset", str(workdir / "corpus.json"),
        "--features", str(workdir / "corpus_feat.bin"), "--task", "visdial-q")
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError"), stderr
    assert "task visdial-q needs a dataset with question options" in stderr, stderr


def test_unroll_refuses_a_transcript_that_fails_its_audit(workdir, untrained_checkpoints,
                                                         capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_transcript",
                        lambda transcript: ["round 1: one fault", "round 1: another"])
    out = workdir / "t-audit.json"
    code, _, stderr = run_cli(capsys, *unroll_one_round(workdir, untrained_checkpoints, out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=RuntimeError"), stderr
    assert "round 1: one fault; round 1: another" in stderr, stderr
    assert not out.exists()


def test_each_command_echoes_its_arguments(workdir, trained, capsys):
    # every command but train echoes its parser's destinations in declaration
    # order, defaults included, before it reads anything; unroll then fails on
    # the answer model given as its question model, after the echo
    ckpt, corpus, out = str(trained[2]), str(workdir / "corpus.json"), str(workdir / "echo.out")
    data, feat = str(workdir / "train.json"), str(workdir / "feat.bin")
    cases = [
        (["build-vocab", "--dataset", data, "--out", out],
         {"dataset": data, "out": out, "min_count": 1}),
        (["build-qdataset", "--dataset", corpus, "--glove", str(workdir / "glove.txt"),
          "--out", out, "--popular", "3"],
         {"dataset": corpus, "glove": str(workdir / "glove.txt"), "seed": 0, "out": out,
          "plausible": 50, "popular": 3, "candidates": 100}),
        (["evaluate", "--checkpoint", ckpt, "--dataset", data, "--features", feat,
          "--task", "visdial"],
         {"checkpoint": ckpt, "dataset": data, "features": feat, "task": "visdial",
          "rank_log": None}),
        (["unroll", "--q-checkpoint", ckpt, "--a-checkpoint", ckpt, "--dataset", data,
          "--features", feat, "--out", out, "--rounds", "2", "--top-m", "3"],
         {"q_checkpoint": ckpt, "a_checkpoint": ckpt, "dataset": data, "features": feat,
          "out": out, "image_id": None, "rounds": 2, "start_rounds": 0, "seed": 0,
          "neighbors": 10, "pool_size": 100, "top_m": 3}),
        (["gradcheck", "--seeds", "0", "--vocab-size", "16", "--k-options", "3"],  # refused
         {"seed": 0, "seeds": 0, "k_options": 3, "vocab_size": 16, "tolerance": 0.0001}),
    ]
    for argv, echoed in cases:
        _, stdout, _ = run_cli(capsys, *argv)
        config = [line for line in stdout.splitlines() if line.startswith("config ")]
        assert config == [f"config {k}={v}" for k, v in echoed.items()], argv[0]


def test_missing_file_is_single_line_error(workdir, capsys):
    code, _, stderr = run_cli(capsys, "evaluate", "--checkpoint", "/nonexistent.ckpt",
                              "--dataset", str(workdir / "train.json"),
                              "--task", "visdial")
    assert code == 1
    assert stderr.count("\n") == 1


def test_deeply_nested_checkpoint_manifest_is_a_load_error(workdir, capsys):
    # json.loads raises RecursionError, not ValueError, past the recursion limit
    ckpt = workdir / "deep.ckpt"
    deep = b"[" * 100_000 + b"]" * 100_000
    ckpt.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(deep)) + deep)
    code, _, stderr = run_cli(capsys, "evaluate", "--checkpoint", str(ckpt),
                              "--dataset", str(workdir / "train.json"),
                              "--features", str(workdir / "feat.bin"), "--task", "visdial")
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=LoadError"), stderr
    assert "checkpoint manifest is JSON nested too deeply to read" in stderr, stderr


@pytest.fixture(scope="module")
def malformed_datasets(workdir):
    """One dataset file per way to break one: {name: path}."""
    payload, _ = memorize_family(n_dialogs=2, k_options=5, seed=2)

    def edited(edit):
        copy = json.loads(json.dumps(payload))
        edit(copy)
        return copy

    files = {
        "question-index": edited(lambda p: p["dialogs"][0]["rounds"][0].update(question=10**6)),
        "answer-missing": edited(lambda p: p["dialogs"][0]["rounds"][1].pop("answer")),
        "rounds-string": edited(lambda p: p["dialogs"][1].update(rounds="oops")),
        "caption-int": edited(lambda p: p["dialogs"][1].update(caption=5)),
        "image-id-bool": edited(lambda p: p["dialogs"][0].update(image_id=True)),
        "root-list": [payload],
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = workdir / f"malformed-{name}.json"
        write_dataset(paths[name], doc)
    blob = (workdir / "train.json").read_bytes()
    for name, raw in (("truncated", blob[: len(blob) // 2]),
                      ("not-utf8", blob.replace(b"what", b"wh\xe4t", 1)),
                      ("deep-nesting", b"[" * 100_000 + b"]" * 100_000)):
        paths[name] = workdir / f"malformed-{name}.json"
        paths[name].write_bytes(raw)
    return paths


@pytest.mark.parametrize("command", ["build-vocab", "build-qdataset", "train", "evaluate",
                                     "unroll"])
def test_malformed_dataset_is_a_load_error(workdir, malformed_datasets, request, capsys,
                                           command):
    features = str(workdir / "feat.bin")
    # evaluate and unroll load a checkpoint before the dataset
    ckpt = str(request.getfixturevalue("trained")[2]) if command in ("evaluate", "unroll") else ""
    for name, path in malformed_datasets.items():
        data, out = str(path), str(workdir / f"out-{command}-{name}")
        argv = {
            "build-vocab": ["--dataset", data, "--out", out],
            "build-qdataset": ["--dataset", data, "--glove", str(workdir / "glove.txt"),
                               "--out", out],
            "train": ["--train", data, "--val", str(workdir / "train.json"),
                      "--features", features, "--config", str(workdir / "tiny.cfg"),
                      "--out", out],
            "evaluate": ["--checkpoint", ckpt, "--dataset", data, "--features", features,
                         "--task", "visdial"],
            "unroll": ["--q-checkpoint", ckpt, "--a-checkpoint", ckpt, "--dataset", data,
                       "--features", features, "--out", out],
        }[command]
        code, _, stderr = run_cli(capsys, command, *argv)
        assert code == 1, name
        assert stderr.count("\n") == 1, name
        assert stderr.startswith("error type=LoadError"), (name, stderr)
        assert not os.path.exists(out), name


@pytest.mark.parametrize("flag, value, message", [
    ("--plausible", "-1", "n_plausible must be >= 0, got -1"),
    ("--popular", "-1", "n_popular must be >= 0, got -1"),
    ("--candidates", "0", "pool_size must be >= 1, got 0"),
    ("--candidates", "-3", "pool_size must be >= 1, got -3"),
], ids=["plausible-negative", "popular-negative", "candidates-zero", "candidates-negative"])
def test_build_qdataset_out_of_range_count_is_an_error(workdir, capsys, flag, value, message):
    out = workdir / f"q-bad{flag}{value}.json"
    code, _, stderr = run_cli(capsys, "build-qdataset", "--dataset", str(workdir / "corpus.json"),
                              "--glove", str(workdir / "glove.txt"), flag, value,
                              "--out", str(out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and message in stderr, stderr
    assert not out.exists()


def test_unroll_negative_start_rounds_is_an_error(workdir, trained, capsys):
    ckpt, out = str(trained[2]), workdir / "t-negative.json"
    code, _, stderr = run_cli(
        capsys, "unroll", "--q-checkpoint", ckpt, "--a-checkpoint", ckpt,
        "--dataset", str(workdir / "corpus.json"),
        "--features", str(workdir / "corpus_feat.bin"),
        "--start-rounds", "-1", "--out", str(out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert "--start-rounds must be >= 0, got -1" in stderr, stderr
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("grad_clip=-1", "grad_clip must be > 0, got -1.0"),
    ("grad_clip=0", "grad_clip must be > 0, got 0.0"),
    ("grad_clip=nan", "grad_clip must be > 0, got nan"),
    ("max_steps=0", "max_steps must be >= 1, got 0"),
], ids=["grad-clip-negative", "grad-clip-zero", "grad-clip-nan", "max-steps-zero"])
def test_train_nonpositive_grad_clip_or_max_steps_is_an_error(workdir, capsys, setting,
                                                             message):
    # a negative clip flips every gradient, zero clears them, and max_steps=0
    # would still take one step
    out = workdir / f"bad-{setting.replace('=', '')}.ckpt"
    code, _, stderr = run_cli(
        capsys, "train", "--train", str(workdir / "train.json"),
        "--val", str(workdir / "train.json"), "--features", str(workdir / "feat.bin"),
        "--config", str(workdir / "tiny.cfg"), "--set", setting, "--out", str(out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and message in stderr, stderr
    assert not out.exists()


def assert_train_wrote_nothing(out) -> None:
    for suffix in ("", ".config", ".log"):
        assert not os.path.exists(f"{out}{suffix}"), suffix


@pytest.mark.parametrize("setting, message", [
    ("shared_embeddings=none", "configuration key 'shared_embeddings'"),
    ("seed=none", "configuration key 'seed'"),
    ("patience=none", "configuration key 'patience'"),
    ("mlp_depth=3", "mlp depth must be 1 or 2, got 3"),
    ("rounds=1", "variant qih needs rounds >= 2"),
    (None, "variant qih needs image features"),
    ("bogus=1", "unknown configuration key 'bogus'"),
    ("rounds", "--set expects key=value, got 'rounds'"),
    ("batch_size=0", "batch_size and max_epochs must be positive"),
    ("max_epochs=0", "batch_size and max_epochs must be positive"),
    ("patience=0", "patience must be >= 1"),
    ("image_dim=12", "feature store dimension 16 != configured image_dim 12"),
    ("task=visdial-q", "task visdial-q needs a dataset with question options"),
], ids=["shared-embeddings-none", "seed-none", "patience-none", "mlp-depth-3", "rounds-1",
        "no-features", "unknown-key", "set-without-equals", "batch-size-0", "max-epochs-0",
        "patience-0", "feature-dim-mismatch", "followup-without-question-options"])
def test_train_bad_setting_writes_nothing(workdir, capsys, setting, message):
    out = workdir / f"bad-setting-{setting or 'no-features'}.ckpt"
    argv = ["train", "--train", str(workdir / "train.json"), "--val", str(workdir / "train.json"),
            "--config", str(workdir / "tiny.cfg"), "--out", str(out)]
    argv += ["--set", setting, "--features", str(workdir / "feat.bin")] if setting else []
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and message in stderr, stderr
    assert_train_wrote_nothing(out)


def test_train_config_line_without_equals_names_the_line(workdir, capsys):
    config, out = workdir / "no-equals.cfg", workdir / "no-equals.ckpt"
    config.write_text("rounds=4\nembed_dim 8\n")
    code, _, stderr = run_cli(
        capsys, "train", "--train", str(workdir / "train.json"),
        "--val", str(workdir / "train.json"), "--features", str(workdir / "feat.bin"),
        "--config", str(config), "--out", str(out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError"), stderr
    assert f"{config}:2: expected key=value, got 'embed_dim 8'" in stderr, stderr
    assert_train_wrote_nothing(out)


def test_train_shared_embeddings_off_gives_each_path_its_table(workdir, capsys):
    out = workdir / "separate.ckpt"
    code, stdout, stderr = run_cli(
        capsys, "train", "--train", str(workdir / "train.json"),
        "--val", str(workdir / "train.json"), "--features", str(workdir / "feat.bin"),
        "--config", str(workdir / "tiny.cfg"), "--shared-embeddings", "off",
        "--set", "max_steps=1", "--out", str(out))
    assert code == 0, stderr
    assert "config shared_embeddings=off" in stdout
    model, _ = load_checkpoint(out)
    assert model.shared_embeddings is False
    assert {"embed.query.weight", "embed.option.weight"} <= set(model.parameters())
    assert "embed.shared.weight" not in model.parameters()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_nonfinite_learning_rate_writes_nothing(workdir, value):
    # a child process, so that a numpy warning would reach the stderr read here
    out = workdir / f"bad-learning-rate-{value}.ckpt"
    proc = run_cli_process(
        "train", "--train", str(workdir / "train.json"), "--val", str(workdir / "train.json"),
        "--features", str(workdir / "feat.bin"), "--config", str(workdir / "tiny.cfg"),
        "--set", f"learning_rate={value}", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error type=ValueError")
    assert f"learning_rate must be finite and > 0, got {value}" in proc.stderr, proc.stderr
    assert_train_wrote_nothing(out)


@pytest.mark.parametrize("flag, content, error, message", [
    ("--vocab", b"<stop>\n<empty>\n<unk>\nred\xff\n", "LoadError", "can't decode byte 0xff"),
    ("--vocab", b"<stop>\n<empty>\nred\n", "LoadError", "missing reserved token '<unk>'"),
    ("--vocab", b"<stop>\n<empty>\n<unk>\nred\nred\n", "LoadError", "words must be unique"),
    ("--config", b"rounds=4\n# \xff\n", "ValueError", "not UTF-8"),
], ids=["vocab-not-utf8", "vocab-no-unk", "vocab-duplicate-word", "config-not-utf8"])
def test_train_bad_vocab_or_config_file_writes_nothing(workdir, capsys, flag, content, error,
                                                       message):
    path = workdir / f"bad{flag}-{len(content)}.txt"
    path.write_bytes(content)
    out = workdir / f"bad{flag}-{len(content)}.ckpt"
    argv = ["train", "--train", str(workdir / "train.json"), "--val", str(workdir / "train.json"),
            "--features", str(workdir / "feat.bin"), "--out", str(out), flag, str(path)]
    if flag == "--vocab":
        argv += ["--config", str(workdir / "tiny.cfg")]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith(f"error type={error}") and message in stderr, stderr
    where = f"vocabulary file {path}: " if flag == "--vocab" else f"{path}: "
    assert where in stderr, stderr
    assert_train_wrote_nothing(out)


def refuse_to_read(*args, **kwargs):
    raise AssertionError("an input was read before --out was checked")


@pytest.mark.parametrize("bad", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", ["train", "build-qdataset", "unroll", "build-vocab",
                                     "evaluate"])
def test_bad_out_is_refused_before_any_input_is_read(workdir, tmp_path, capsys, monkeypatch,
                                                     command, bad):
    # an output path in a directory that does not exist, or that is a directory,
    # once failed only when the command wrote it, after all its work; no reader
    # runs, so the checkpoints named here need not exist
    if bad == "a-directory":
        out = tmp_path / "out.d"
        out.mkdir()
    else:
        out = tmp_path / "no-such-dir" / "out"
    flag = "--rank-log" if command == "evaluate" else "--out"
    ckpt = str(workdir / "never-read.ckpt")
    argv = {
        "train": ["train", "--train", str(workdir / "train.json"),
                  "--val", str(workdir / "train.json"), "--features", str(workdir / "feat.bin"),
                  "--config", str(workdir / "tiny.cfg")],
        "build-qdataset": ["build-qdataset", "--dataset", str(workdir / "corpus.json"),
                           "--glove", str(workdir / "glove.txt")],
        "unroll": ["unroll", "--q-checkpoint", ckpt, "--a-checkpoint", ckpt,
                   "--dataset", str(workdir / "corpus.json"),
                   "--features", str(workdir / "corpus_feat.bin")],
        "build-vocab": ["build-vocab", "--dataset", str(workdir / "train.json")],
        "evaluate": ["evaluate", "--checkpoint", ckpt, "--dataset", str(workdir / "train.json"),
                     "--features", str(workdir / "feat.bin"), "--task", "visdial"],
    }[command]
    for reader in ("read_dataset", "parse_config_file", "load_checkpoint", "load_glove",
                   "load_features"):
        monkeypatch.setattr(cli, reader, refuse_to_read)
    code, stdout, stderr = run_cli(capsys, *argv, flag, str(out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and f"{flag} {out}: " in stderr, stderr
    assert stdout == ""
    if bad == "a-directory":  # no file in it, and no <out>.config, .log or .tmp beside it
        assert not any(out.iterdir())
        assert [p.name for p in tmp_path.iterdir()] == ["out.d"]
    else:
        assert not any(tmp_path.iterdir())
        assert_train_wrote_nothing(out)


@pytest.mark.parametrize("flag, value, message", [
    ("--neighbors", "0", "need n_neighbor_images >= 1, got 0"),
    ("--top-m", "0", "need pool_size >= top_m >= 1"),
    ("--rounds", "-1", "--rounds must be >= 0, got -1"),
], ids=["neighbors-zero", "top-m-zero", "rounds-negative"])
def test_unroll_bad_pool_setting_fails_before_loading(workdir, capsys, flag, value, message):
    # the checkpoints do not exist: the setting is refused before any file is read
    missing, out = str(workdir / "no-such.ckpt"), workdir / f"t-bad{flag}.json"
    code, _, stderr = run_cli(
        capsys, "unroll", "--q-checkpoint", missing, "--a-checkpoint", missing,
        "--dataset", str(workdir / "corpus.json"),
        "--features", str(workdir / "corpus_feat.bin"), flag, value, "--out", str(out))
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=ValueError") and message in stderr, stderr
    assert not out.exists()


def test_build_vocab_reserved_words_in_text(workdir, capsys):
    # the tokenizer keeps <stop>, <empty> and <unk> whole, so text can hold them
    payload, _ = memorize_family(n_dialogs=2, k_options=5, seed=2)
    payload["questions"][0] = "is it <stop> ?"
    payload["questions"][1] = "<empty> or <unk> ?"
    payload["answers"][0] = "<unk> <unk>"
    data, out = workdir / "reserved-words.json", workdir / "reserved-vocab.txt"
    write_dataset(data, payload)
    code, stdout, stderr = run_cli(capsys, "build-vocab", "--dataset", str(data),
                                   "--out", str(out))
    assert code == 0, stderr
    words = out.read_text(encoding="utf-8").split("\n")[:-1]
    assert words[:3] == list(text.RESERVED_WORDS)
    for word in text.RESERVED_WORDS:
        assert words.count(word) == 1, word
    assert "is" in words and "or" in words


@pytest.mark.parametrize("command", ["build-vocab", "build-qdataset", "train", "unroll"])
def test_dataset_without_dialogs_is_a_load_error(workdir, request, capsys, command):
    # the loader accepts a dataset with no dialogs; a vocabulary cannot be built from one
    data = workdir / "no-dialogs.json"
    write_dataset(data, {"format": "visdial-desk.v1", "task": "visdial",
                         "questions": [], "answers": [], "dialogs": []})
    out = str(workdir / f"out-{command}-no-dialogs")
    ckpt = str(request.getfixturevalue("trained")[2]) if command == "unroll" else ""
    argv = {
        "build-vocab": ["--dataset", str(data), "--out", out],
        "build-qdataset": ["--dataset", str(data), "--glove", str(workdir / "glove.txt"),
                           "--out", out],
        "train": ["--train", str(data), "--val", str(workdir / "train.json"),
                  "--features", str(workdir / "feat.bin"), "--config", str(workdir / "tiny.cfg"),
                  "--out", out],
        "unroll": ["--q-checkpoint", ckpt, "--a-checkpoint", ckpt, "--dataset", str(data),
                   "--features", str(workdir / "feat.bin"), "--out", out],
    }[command]
    code, _, stderr = run_cli(capsys, command, *argv)
    assert code == 1
    assert stderr.count("\n") == 1
    assert stderr.startswith("error type=LoadError"), stderr
    assert f"dataset file {data}: no dialogs" in stderr, stderr
    assert not os.path.exists(out)


def run_cli_process(*args):
    """``python -m dialogrank.cli`` in a child process that imports the same
    package as this test run, whatever PYTHONPATH the run was started with."""
    src = os.path.dirname(os.path.dirname(dialogrank.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dialogrank.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_help_lists_defaults():
    for sub in ("build-vocab", "build-qdataset", "train", "evaluate", "unroll",
                "gradcheck"):
        proc = run_cli_process(sub, "--help")
        assert proc.returncode == 0
        assert "default" in proc.stdout


def test_unknown_flag_fails_with_usage():
    proc = run_cli_process("evaluate", "--nonsense")
    assert proc.returncode != 0
    assert "usage" in proc.stderr
