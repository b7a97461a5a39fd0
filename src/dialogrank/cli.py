"""Command-line entry point wiring all subsystems together.

Configuration is plain-text ``key=value`` lines; command-line flags override
file values (last wins) and every run echoes its fully resolved configuration;
``train`` also writes it next to its checkpoint. All subcommands are
deterministic in (inputs, flags, seed) and exit nonzero with a single-line
error on failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import asdict, fields

from .checkpoint import load_checkpoint
from .encoders import ModelDims, TASKS, VARIANTS
from .metrics import evaluate_model
from .model import full_model_gradcheck
from .qdataset import (N_PLAUSIBLE, N_POPULAR, POOL_SIZE, build_qdataset_payload)
from .scorer import MLP_DEPTHS
from .text import (LoadError, Vocabulary, build_vocab, corpus_from_payload,
                   dataset_from_payload, dataset_json_bytes, load_features,
                   load_glove, read_dataset)
from .training import TrainConfig, train
from .unroll import DialogState, PoolSpec, unroll, verify_transcript


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _or_none(parse):
    return lambda raw: None if raw.lower() == "none" else parse(raw)


_DIM_KEYS = {f.name for f in fields(ModelDims)}
_TRAIN_KEYS = {  # each key's parser; only the two optional caps take "none"
    "task": str, "variant": str, "mlp_depth": int, "shared_embeddings": _parse_bool,
    "learning_rate": float, "batch_size": int, "max_epochs": int, "patience": int,
    "seed": int, "grad_clip": _or_none(float), "max_steps": _or_none(int), "min_count": int,
}


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {body!r}")
                key, value = body.split("=", 1)
                values[key.strip()] = value.strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    return values


def resolve_train_config(raw: dict[str, str]) -> tuple[TrainConfig, int]:
    """Typed TrainConfig (with dims) and the vocabulary's min_count from a flat
    key=value mapping; any value that does not parse or fit raises ValueError."""
    dims_kwargs = {}
    plain: dict = {}
    for key, value in raw.items():
        if key not in _DIM_KEYS and key not in _TRAIN_KEYS:
            raise ValueError(f"unknown configuration key {key!r}")
        try:
            if key in _DIM_KEYS:
                dims_kwargs[key] = int(value)
            else:
                plain[key] = _TRAIN_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"configuration key {key!r}: {exc}") from None
    min_count = plain.pop("min_count", 1)
    task = plain.setdefault("task", "visdial")
    dims = ModelDims.for_task(task, **dims_kwargs)
    return TrainConfig(dims=dims, **plain), min_count


def _flat_config(cfg: TrainConfig, min_count: int) -> dict[str, str]:
    out = {}
    for key in sorted(_TRAIN_KEYS):
        if key == "min_count":
            out[key] = str(min_count)
            continue
        value = getattr(cfg, key)
        if isinstance(value, bool):
            value = "on" if value else "off"
        out[key] = str(value)
    for key, value in sorted(asdict(cfg.dims).items()):
        out[key] = str(value)
    return out


def _echo_config(values: dict) -> list[str]:
    """Print one ``config key=value`` line per item; returns the ``key=value`` lines."""
    lines = [f"{k}={v}" for k, v in values.items()]
    for line in lines:
        print("config " + line)
    return lines


def _echo_args(args) -> None:
    """Echo a command's parsed arguments, in the order its parser declares them."""
    _echo_config({k: v for k, v in vars(args).items() if k not in ("command", "func")})


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _check_outputs(args) -> None:
    """Refuse an output flag (``--out``, ``--rank-log``) that no file can be
    written to, before the command reads any input."""
    for flag, path in (("--out", getattr(args, "out", None)),
                       ("--rank-log", getattr(args, "rank_log", None))):
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path}: its directory does not exist")


def _dataset_for(payload, vocab: Vocabulary, dims: ModelDims):
    """The dataset of ``payload``, its text cut to the word limits of ``dims``."""
    return dataset_from_payload(payload, vocab, max_question_words=dims.max_question_words,
                                max_answer_words=dims.max_answer_words,
                                max_caption_words=dims.max_caption_words)


def _vocab_of(path, payload, min_count: int = 1) -> Vocabulary:
    """The vocabulary of the dataset file ``path`` holding ``payload``; a file
    with no dialogs has none."""
    if isinstance(payload, dict) and payload.get("dialogs") == []:
        raise LoadError(f"dataset file {path}: no dialogs to build a vocabulary from")
    return build_vocab(corpus_from_payload(payload), min_count=min_count)


def _merged_raw_config(args) -> dict[str, str]:
    """``train``'s configuration: the file, then the flags, then ``--set`` items."""
    raw = parse_config_file(args.config) if args.config else {}
    for key in _TRAIN_KEYS:  # grad_clip and max_steps have no flag
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = str(value)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build_vocab(args) -> int:
    _echo_args(args)
    vocab = _vocab_of(args.dataset, read_dataset(args.dataset), min_count=args.min_count)
    vocab.save(args.out)
    print(f"vocab size={len(vocab)} out={args.out}")
    return 0


def cmd_build_qdataset(args) -> int:
    _echo_args(args)
    payload = read_dataset(args.dataset)
    dataset = dataset_from_payload(payload, _vocab_of(args.dataset, payload))
    glove = load_glove(args.glove)
    payload = build_qdataset_payload(
        dataset, glove, args.seed,
        n_plausible=args.plausible, n_popular=args.popular, pool_size=args.candidates)
    blob = dataset_json_bytes(payload)
    with open(args.out, "wb") as f:
        f.write(blob)
    digest = hashlib.sha256(blob).hexdigest()
    print(f"qdataset out={args.out} sha256={digest}")
    return 0


def cmd_train(args) -> int:
    cfg, min_count = resolve_train_config(_merged_raw_config(args))
    flat = _flat_config(cfg, min_count)
    config_lines = _echo_config(flat)
    train_payload = read_dataset(args.train)
    if args.vocab:
        vocab = Vocabulary.load(args.vocab)
    else:
        vocab = _vocab_of(args.train, train_payload, min_count=min_count)
    train_set = _dataset_for(train_payload, vocab, cfg.dims)
    val_set = _dataset_for(read_dataset(args.val), vocab, cfg.dims)
    features = load_features(args.features) if args.features else None
    log_lines = []

    def log_fn(line: str) -> None:
        log_lines.append(line)
        print(line)

    logs = train(train_set, val_set, features, cfg, args.out,
                 extra_config={"train": flat}, log_fn=log_fn)
    _write_lines(args.out + ".config", config_lines)
    _write_lines(args.out + ".log", log_lines)
    best = max(logs, key=lambda entry: entry.val.mrr)
    print(f"checkpoint out={args.out} best_epoch={best.epoch} best_val_mrr={best.val.mrr:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    _echo_args(args)
    model, _ = load_checkpoint(args.checkpoint)
    dataset = _dataset_for(read_dataset(args.dataset), model.vocab, model.dims)
    features = load_features(args.features) if args.features else None
    report = evaluate_model(model, dataset, features, args.task, rank_log_path=args.rank_log)
    print(f"n = {report.n}")
    print(f"MRR = {report.mrr:.4f}")
    print(f"R@1 = {report.r_at_1:.2f}")
    print(f"R@5 = {report.r_at_5:.2f}")
    print(f"R@10 = {report.r_at_10:.2f}")
    print(f"mean_rank = {report.mean_rank:.2f}")
    print(f"tie_policy = {report.tie_policy}")
    return 0


def cmd_unroll(args) -> int:
    _echo_args(args)
    if args.start_rounds < 0:
        raise ValueError(f"--start-rounds must be >= 0, got {args.start_rounds}")
    if args.rounds < 0:
        raise ValueError(f"--rounds must be >= 0, got {args.rounds}")
    spec = PoolSpec(n_neighbor_images=args.neighbors, pool_size=args.pool_size,
                    top_m=args.top_m, seed=args.seed)
    q_model, _ = load_checkpoint(args.q_checkpoint)
    a_model, _ = load_checkpoint(args.a_checkpoint)
    payload = read_dataset(args.dataset)
    dataset = dataset_from_payload(payload, _vocab_of(args.dataset, payload))
    features = load_features(args.features)
    if args.image_id is not None:
        if args.image_id not in dataset.by_image:
            raise LoadError(f"image {args.image_id}: not in the dataset")
        record = dataset.by_image[args.image_id]
    else:
        record = dataset.records[0]
    history = [
        (dataset.questions[rnd.question], dataset.answers[rnd.answer])
        for rnd in record.rounds[: args.start_rounds]
    ]
    state = DialogState(image_id=record.image_id, caption=record.caption, history=history)
    transcript = unroll(state, args.rounds, q_model, a_model, dataset, features, spec)
    problems = verify_transcript(transcript)
    if problems:
        raise RuntimeError("; ".join(problems))
    blob = transcript.to_bytes()
    with open(args.out, "wb") as f:
        f.write(blob)
    print(f"transcript image_id={record.image_id} rounds={len(transcript.rounds)} "
          f"out={args.out} sha256={hashlib.sha256(blob).hexdigest()}")
    for i, rnd in enumerate(transcript.rounds, start=1):
        print(f"round {i}: Q: {rnd.question} | A: {rnd.answer}")
    return 0


def cmd_gradcheck(args) -> int:
    _echo_args(args)
    # the train-mode batch norm over the option rows needs two of them
    for flag, value, least in (("--seeds", args.seeds, 1), ("--k-options", args.k_options, 2)):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")
    if not 0 < args.tolerance < float("inf"):
        raise ValueError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    worst = 0.0
    ok = True
    for seed in range(args.seed, args.seed + args.seeds):
        report = full_model_gradcheck(seed=seed, k_options=args.k_options,
                                      vocab_size=args.vocab_size,
                                      tolerance=args.tolerance)
        print(f"seed {seed}: {report.summary()}")
        worst = max(worst, report.max_rel_error)
        ok = ok and report.passed
    print(f"gradcheck max_rel_error={worst:.3e} seeds={args.seeds} "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogrank",
        description="Discriminative visual-dialog ranking: train, evaluate, "
                    "build follow-up-question datasets, and unroll dialogs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a vocabulary file from a dataset")
    p.add_argument("--dataset", required=True, help="dialog dataset JSON")
    p.add_argument("--out", required=True, help="output vocabulary file (one word per line)")
    p.add_argument("--min-count", type=int, default=1, dest="min_count",
                   help="minimum word frequency (default 1)")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("build-qdataset",
                       help="attach follow-up-question candidates to a dataset")
    p.add_argument("--dataset", required=True, help="source dialog dataset JSON")
    p.add_argument("--glove", required=True, help="word-vector file")
    p.add_argument("--seed", type=int, default=0, help="construction seed (default 0)")
    p.add_argument("--out", required=True, help="output dataset JSON")
    p.add_argument("--plausible", type=int, default=N_PLAUSIBLE,
                   help=f"nearest QA pairs to mine (default {N_PLAUSIBLE})")
    p.add_argument("--popular", type=int, default=N_POPULAR,
                   help=f"most frequent questions to add (default {N_POPULAR})")
    p.add_argument("--candidates", type=int, default=POOL_SIZE,
                   help=f"candidate set size (default {POOL_SIZE})")
    p.set_defaults(func=cmd_build_qdataset)

    p = sub.add_parser("train", help="train a ranking model")
    p.add_argument("--train", required=True, help="training dataset JSON")
    p.add_argument("--val", required=True, help="validation dataset JSON")
    p.add_argument("--features",
                   help="image feature file (default none; required unless variant q)")
    p.add_argument("--vocab", help="vocabulary file (default: built from the training set)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--config", help="key=value configuration file (default none)")
    p.add_argument("--task", choices=TASKS, help="ranking direction (default visdial)")
    p.add_argument("--variant", choices=VARIANTS, help="context blocks (default qih)")
    p.add_argument("--mlp-depth", type=int, choices=MLP_DEPTHS, dest="mlp_depth",
                   help="hidden layers in the scorer (default 2)")
    p.add_argument("--shared-embeddings", choices=("on", "off"), dest="shared_embeddings",
                   help="one word table for all encoders (default on)")
    p.add_argument("--learning-rate", type=float, dest="learning_rate",
                   help="Adam learning rate (default 1e-3)")
    p.add_argument("--batch-size", type=int, dest="batch_size",
                   help="examples per step (default 32)")
    p.add_argument("--max-epochs", type=int, dest="max_epochs",
                   help="epoch cap (default 5)")
    p.add_argument("--patience", type=int,
                   help="stale validation epochs before stopping (default 1)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--min-count", type=int, dest="min_count",
                   help="vocabulary frequency threshold (default 1)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any configuration key (repeatable, highest precedence)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True, help="trained model file")
    p.add_argument("--dataset", required=True, help="dataset JSON to score")
    p.add_argument("--features",
                   help="image feature file (default none; required unless variant q)")
    p.add_argument("--task", choices=TASKS, required=True,
                   help="ranking direction the checkpoint must match")
    p.add_argument("--rank-log", dest="rank_log",
                   help="write per-round ranks here (default: no log)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("unroll", help="generate a dialog with two checkpoints")
    p.add_argument("--q-checkpoint", required=True, dest="q_checkpoint",
                   help="follow-up-question model")
    p.add_argument("--a-checkpoint", required=True, dest="a_checkpoint",
                   help="answer model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="transcript JSON path")
    p.add_argument("--image-id", type=int, dest="image_id",
                   help="dialog image (default: first record)")
    p.add_argument("--rounds", type=int, default=10, help="exchanges to generate (default 10)")
    p.add_argument("--start-rounds", type=int, default=0, dest="start_rounds",
                   help="seed the history with this many dataset rounds (default 0)")
    p.add_argument("--seed", type=int, default=PoolSpec.seed,
                   help="sampling seed (default %(default)s)")
    p.add_argument("--neighbors", type=int, default=PoolSpec.n_neighbor_images,
                   help="images mined for each pool (default %(default)s)")
    p.add_argument("--pool-size", type=int, default=PoolSpec.pool_size, dest="pool_size",
                   help="candidates per pool (default %(default)s)")
    p.add_argument("--top-m", type=int, default=PoolSpec.top_m, dest="top_m",
                   help="question candidates sampled from (default %(default)s)")
    p.set_defaults(func=cmd_unroll)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the full model at reduced size")
    p.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds (default 5)")
    p.add_argument("--k-options", type=int, default=5, dest="k_options",
                   help="candidate options in the probe example (default 5)")
    p.add_argument("--vocab-size", type=int, default=50, dest="vocab_size",
                   help="synthetic vocabulary size (default 50)")
    p.add_argument("--tolerance", type=float, default=1e-4,
                   help="max relative error allowed (default 1e-4)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except Exception as exc:  # single-line, machine-parseable failure
        message = str(exc).replace("\n", " ")
        print(f"error type={type(exc).__name__} message={message!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
