"""The benchmark's workloads: ``train-paper``, ``eval-paper`` and ``corpus``.

run.py starts this file as a child process, once to generate a workload's
inputs and once per measured run (untraced, and traced when asked):

    python3 perfbench/workloads.py gen --workload W --seed N --dir D [--toy]
    python3 perfbench/workloads.py run --workload W --seed N --dir D \
        --seconds S --trace 0|1 [--toy] [--tamper] [--record]

A run sets the program up ``SETUP_REPEATS`` times, warms up, runs ops in a
closed loop with one caller until ``--seconds`` have passed (and at least
``MIN_OPS``), then checks every output and writes ``result-<trace>.json``.
The package is called only through its public functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from dialogrank import checkpoint, metrics, model, nn, qdataset, text, unroll
from dialogrank.encoders import ModelDims

import gen
import tracing

SETUP_REPEATS = 3
MIN_OPS = {"train-paper": 2, "eval-paper": 4, "corpus": 2}  # corpus: whole dialogs
PRIMARY = {"train-paper": "step", "eval-paper": "round", "corpus": "unroll"}
# job_s is the median time of a fixed-size job: a group of this many ops
JOB = {"train-paper": ("step", 1), "eval-paper": ("round", 4), "corpus": ("qdataset", 1)}
QDATASET_JOBS = 3
# Loss reference tolerance: far above the last-bit differences BLAS kernels of
# other CPUs give (~1e-15), far below any change to the arithmetic.
LOSS_RTOL = 1e-8
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class SpeedProbe:
    """Times fixed benchmark-owned kernels that do the kinds of work the ops do.

    On a shared host a core's speed drifts by tens of percent over tens of
    seconds as neighbours come and go, and interpreter-bound, cache-bound and
    memory-bound code drift differently. The probe of an op's kind runs just
    before and after the op and, from a timer signal, every ``PERIOD_S`` during
    it (that time is taken out of the op's). The op's time is then scaled by
    the probe's reference time over the mean probe time, which removes most of
    the drift (README.md). The probes never call the package, so no change to
    it can move them."""

    # kernels per op kind, and the probe time (s) every scaled number is expressed at
    KINDS = {"setup": ("python", "memory"), "step": ("python", "memory"),
             "round": ("python", "memory"), "unroll": ("python",),
             "qdataset": ("python", "cache")}
    REF_S = {"python": 3e-3, "memory": 7.5e-3, "cache": 12e-3}
    PERIOD_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.normal(size=12)
        self.weight = rng.normal(size=(2000, 3200))  # 51 MB, streamed like an MLP layer
        self.x = rng.normal(size=3200)
        self.outer = np.zeros((2048, 640))  # an LSTM weight-gradient update
        self.keys = rng.normal(size=(480, 1500))  # like find_plausible's key matrix
        self.last: dict[str, float] = {}  # latest boundary probe per kind
        self.kind = ""
        self.samples: list[float] = []
        self.paused = 0.0

    def python(self) -> None:
        total = 0
        for i in range(60_000):
            total += i
        for _ in range(600):
            np.linalg.norm(self.vec)

    def memory(self) -> None:
        self.weight @ self.x
        self.outer += np.outer(self.x[:2048], self.x[:640])

    def cache(self) -> None:
        for _ in range(3):
            np.linalg.norm(self.keys[np.arange(480)] - self.keys[3], axis=1)

    def measure(self, kind: str) -> float:
        start = perf_counter()
        for kernel in self.KINDS[kind]:
            getattr(self, kernel)()
        return perf_counter() - start

    def reference(self, kind: str) -> float:
        return sum(self.REF_S[k] for k in self.KINDS[kind])

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(self.measure(self.kind))
        self.paused += perf_counter() - start

    @contextmanager
    def around(self, kind: str):
        """Probe around and during the block; yields a dict that gets the
        block's probe-free seconds ("s") and its speed scale ("scale")."""
        before = self.last.get(kind) or self.measure(kind)
        self.kind, self.samples, self.paused = kind, [], 0.0
        out: dict[str, float] = {}
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        start = perf_counter()
        try:
            yield out
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.last[kind] = self.measure(kind)
        probes = [before, *self.samples, self.last[kind]]
        out["s"] = end - start - self.paused
        out["scale"] = self.reference(kind) * len(probes) / sum(probes)


class Run:
    """Phases, ops and output checks of one workload run."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.probe = SpeedProbe()
        self.phase_rss: dict[str, float] = {}
        # kind, start, end, probe-free seconds, speed scale
        self.ops: list[tuple[str, float, float, float, float]] = []
        self.checks: dict[str, list[str]] = {}  # checked output -> problems

    @contextmanager
    def phase(self, name: str):
        if self.tracer:
            self.tracer.phase = name
        self.probe.last.clear()
        yield
        self.phase_rss[name] = peak_rss_mb()

    @contextmanager
    def op(self, kind: str):
        with self.probe.around(kind) as timing:
            if self.tracer:
                self.tracer.op = len(self.ops)
            start = perf_counter()
            yield
            end = perf_counter()
            if self.tracer:
                self.tracer.op = -1
        self.ops.append((kind, start, end, timing["s"], timing["scale"]))

    def check(self, output: str, ok: bool, problem: str) -> None:
        """Record one check of ``output``; any failed check fails that output."""
        problems = self.checks.setdefault(output, [])
        if not ok:
            problems.append(problem)

    def enter_checks(self) -> None:
        """Output checks run after the measured phases and are not measured."""
        if self.tracer:
            self.tracer.phase = "check"

    def setup(self, fn):
        """Run the program's set-up SETUP_REPEATS times; returns the last result."""
        result = None
        with self.phase("setup"):
            for _ in range(SETUP_REPEATS):
                result = None
                gc.collect()
                with self.op("setup"):
                    result = fn()
        return result

    def latencies(self, kind: str, scaled: bool = True) -> list[float]:
        """Durations of the ``kind`` ops, scaled to the probe's reference speed."""
        return [s * (scale if scaled else 1.0) for k, _, _, s, scale in self.ops if k == kind]


def timed_loop(seconds: float, min_ops: int, plan: list):
    """Cycles through ``plan`` until ``seconds`` have passed and ``min_ops`` ran."""
    start = perf_counter()
    i = 0
    while i < min_ops or perf_counter() - start < seconds:
        yield plan[i % len(plan)]
        i += 1


def reference(workload: str, scale: str, seed: int):
    return load_json(REFERENCE).get(workload, {}).get(scale, {}).get(str(seed))


def record_reference(workload: str, scale: str, seed: int, value) -> None:
    ref = load_json(REFERENCE) if os.path.exists(REFERENCE) else {}
    ref.setdefault(workload, {}).setdefault(scale, {})[str(seed)] = value
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# train-paper
# ---------------------------------------------------------------------------


def train_paper(run: Run, d: str, plan: dict, args) -> dict:
    dims = ModelDims(**plan["dims"])

    def setup():
        payload = load_json(os.path.join(d, "train.json"))
        vocab = text.build_vocab(text.corpus_from_payload(payload))
        dataset = text.dataset_from_payload(payload, vocab)
        features = text.load_features(os.path.join(d, "features.bin"))
        examples = model.examples_from_dataset(dataset, features, "visdial", "qih", dims)
        scorer = model.DialogScorer(dims, vocab, task="visdial", variant="qih", mlp_depth=2,
                                    shared_embeddings=True, init_seed=plan["init_seed"])
        return examples, scorer

    examples, scorer = run.setup(setup)
    params = list(scorer.parameters().values())
    adam = nn.AdamConfig()

    def step(batch) -> float:  # exactly what training.train does per step
        loss = scorer.batch_loss(batch)
        nn.adam_step(params, adam)
        return loss

    losses = []
    with run.phase("warmup"):
        # two rounds with two options each: touches every gradient and Adam
        # buffer once at a fraction of a full step's cost
        warm = [dataclasses.replace(
            examples[i], gt_index=0,
            option_ids=[examples[i].option_ids[examples[i].gt_index],
                        examples[i].option_ids[examples[i].gt_index - 1]])
            for i in plan["warmup_batch"][:2]]
        losses.append(step(warm))
    with run.phase("timed"):
        for batch_rounds in timed_loop(args.seconds, MIN_OPS["train-paper"], plan["batches"]):
            batch = [examples[j] for j in batch_rounds]
            with run.op("step"):
                losses.append(step(batch))
    with run.phase("finish"):
        # `dialogrank train` ends by writing its checkpoint
        ckpt = os.path.join(d, "trained.ckpt")
        checkpoint.save_checkpoint(scorer, ckpt)
        os.remove(ckpt)
    run.enter_checks()

    if args.tamper:
        losses[1] *= 1.0 + 1e-6  # 100x the tolerance
    names = ["warmup"] + [f"step {i}" for i in range(len(losses) - 1)]
    for name, loss in zip(names, losses):
        run.check(name, math.isfinite(loss), f"{name}: loss {loss!r} is not finite")
    ref = reference("train-paper", args.scale, args.seed)
    if args.record:
        record_reference("train-paper", args.scale, args.seed,
                         losses[: 1 + MIN_OPS["train-paper"]])
    elif ref is not None:
        for name, loss, want in zip(names, losses, ref):
            run.check(name, abs(loss - want) <= LOSS_RTOL * abs(want),
                      f"{name}: loss {loss!r} differs from reference {want!r}")
    return {
        "units_per_op": len(plan["batches"][0]),
        "loss_reference": "recorded" if ref is not None else "none for this seed",
        "losses": losses,
    }


# ---------------------------------------------------------------------------
# eval-paper
# ---------------------------------------------------------------------------


class ScoreRecorder:
    """Hands ``evaluate_examples`` the real model and keeps each round's scores."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.scores: list[np.ndarray] = []

    def score_example(self, ex):
        scored = self.scorer.score_example(ex)
        self.scores.append(scored.scores)
        return scored


def pessimistic_rank(scores: np.ndarray, gt_index: int) -> int:
    """Sort-based rank: 1 + the number of options scoring at least the ground truth's,
    other than the ground truth itself."""
    descending = -np.sort(-scores, kind="stable")
    return int(np.searchsorted(-descending, -scores[gt_index], side="right"))


def eval_paper(run: Run, d: str, plan: dict, args) -> dict:
    def setup():
        scorer, _ = checkpoint.load_checkpoint(os.path.join(d, "model.ckpt"))
        dims = scorer.dims
        dataset = text.dataset_from_payload(
            load_json(os.path.join(d, "val.json")), scorer.vocab,
            max_question_words=dims.max_question_words,
            max_answer_words=dims.max_answer_words,
            max_caption_words=dims.max_caption_words)
        features = text.load_features(os.path.join(d, "features.bin"))
        examples = model.examples_from_dataset(dataset, features, "visdial", scorer.variant,
                                               dims)
        return scorer, examples

    scorer, examples = run.setup(setup)
    recorder = ScoreRecorder(scorer)

    def score(ex):
        log = io.StringIO()
        report = metrics.evaluate_examples(recorder, [ex], rank_log=log)
        return report, log.getvalue()

    with run.phase("warmup"):
        score(examples[plan["warmup_round"]])
    recorder.scores.clear()
    outputs = []
    with run.phase("timed"):
        for r in timed_loop(args.seconds, MIN_OPS["eval-paper"], plan["rounds"]):
            with run.op("round"):
                outputs.append((examples[r], *score(examples[r])))
    run.enter_checks()

    for i, ((ex, report, log), scores) in enumerate(zip(outputs, recorder.scores)):
        name = f"round {i}"
        run.check(name, bool(np.all(np.isfinite(scores))), f"{name}: non-finite score")
        want = pessimistic_rank(scores, ex.gt_index)
        logged = int(log.split()[2])
        run.check(name, logged == want and report.mean_rank == want and report.n == 1,
                  f"{name}: rank {logged} (report {report.mean_rank}) != re-rank {want}")

    # co-batch contract: two disjoint subsets of >= 2 options score bitwise as the
    # full set, here the first timed round
    ex = outputs[0][0]
    full = recorder.scores[0].copy()
    if args.tamper:
        full[0] = np.nextafter(full[0], np.inf)
    order = np.random.default_rng(args.seed).permutation(len(ex.option_ids))
    cut = len(order) // 3
    for part in (order[:cut], order[cut:]):
        sub = dataclasses.replace(ex, option_ids=[ex.option_ids[j] for j in part], gt_index=0)
        got = scorer.score_example(sub).scores
        run.check("cobatch", np.array_equal(got, full[part]),
                  "co-batch: subset scores differ from full-set scores")

    return {
        "units_per_op": 1,
        "history_depths": [ex.round_no - 1 for ex, _, _ in outputs],
    }


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def qdataset_digest(qsrc, glove, seed: int, tamper: bool = False) -> tuple[str, int]:
    """The whole build-qdataset job: candidate sets plus canonical serialization."""
    payload = qdataset.build_qdataset_payload(qsrc, glove, seed)
    blob = bytearray(text.dataset_json_bytes(payload))
    if tamper:
        blob[len(blob) // 2] ^= 0x01
    sets = sum(1 for dg in payload["dialogs"] for r in dg["rounds"] if "question_options" in r)
    return hashlib.sha256(blob).hexdigest(), sets


def corpus(run: Run, d: str, plan: dict, args) -> dict:
    def setup():
        qpayload = load_json(os.path.join(d, "qsrc.json"))
        qsrc = text.dataset_from_payload(
            qpayload, text.build_vocab(text.corpus_from_payload(qpayload)))
        glove = text.load_glove(os.path.join(d, "glove.txt"))
        cpayload = load_json(os.path.join(d, "corpus.json"))
        dataset = text.dataset_from_payload(
            cpayload, text.build_vocab(text.corpus_from_payload(cpayload)))
        features = text.load_features(os.path.join(d, "features.bin"))
        q_model, _ = checkpoint.load_checkpoint(os.path.join(d, "q_model.ckpt"))
        a_model, _ = checkpoint.load_checkpoint(os.path.join(d, "a_model.ckpt"))
        return qsrc, glove, dataset, features, q_model, a_model

    qsrc, glove, dataset, features, q_model, a_model = run.setup(setup)
    spec = unroll.PoolSpec(seed=plan["spec_seed"])
    by_image = {r.image_id: r for r in dataset.records}
    rounds_per_dialog = plan["rounds_per_dialog"]

    def start(image_id):
        record = by_image[image_id]
        return unroll.DialogState(image_id=image_id, caption=record.caption)

    with run.phase("warmup"):
        unroll.step(start(plan["start_images"][-1]), q_model, a_model, dataset, features, spec)
    transcripts = []
    digests = []
    with run.phase("timed"):
        for _ in range(QDATASET_JOBS):
            with run.op("qdataset"):
                digest, n_sets = qdataset_digest(qsrc, glove, plan["spec_seed"], args.tamper)
            digests.append(digest)
        for image_id in timed_loop(args.seconds, MIN_OPS["corpus"], plan["start_images"]):
            state = start(image_id)
            transcript = unroll.Transcript(
                image_id=state.image_id, caption=state.caption, initial_history=[],
                spec=spec, q_model_config=q_model.config(), a_model_config=a_model.config())
            for _ in range(rounds_per_dialog):
                with run.op("unroll"):
                    state, rnd = unroll.step(state, q_model, a_model, dataset, features, spec)
                transcript.rounds.append(rnd)
            transcripts.append(transcript)
    run.enter_checks()

    ref = reference("corpus", args.scale, args.seed)
    if args.record:
        record_reference("corpus", args.scale, args.seed, digest)
    else:
        if ref is None:  # seed not shipped: an independent rebuild must agree
            ref, _ = qdataset_digest(qsrc, glove, plan["spec_seed"])
        for i, digest in enumerate(digests):
            run.check(f"qdataset {i}", digest == ref, f"q-dataset sha256 {digest} != {ref}")
    for n, transcript in enumerate(transcripts):
        problems = unroll.verify_transcript(transcript)
        for i in range(1, len(transcript.rounds) + 1):
            mine = [p for p in problems if p.startswith(f"round {i}:")]
            run.check(f"dialog {n} round {i}", not mine, "; ".join(mine))
    replay = unroll.unroll(start(transcripts[0].image_id), rounds_per_dialog, q_model,
                           a_model, dataset, features, spec)
    run.check("replay", replay.to_bytes() == transcripts[0].to_bytes(),
              "replayed transcript bytes differ")

    return {
        "units_per_op": 1,
        "n_sets": n_sets,  # per job
        "qdataset_sha256": digest,
        "dialogs": len(transcripts),
    }


WORKLOADS = {"train-paper": train_paper, "eval-paper": eval_paper, "corpus": corpus}


def run_workload(args) -> dict:
    plan = load_json(os.path.join(args.dir, "plan.json"))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run = Run(tracer)
    try:
        out = WORKLOADS[args.workload](run, args.dir, plan, args)
    finally:
        if tracer:
            tracer.uninstall()
    primary = PRIMARY[args.workload]
    job_kind, job_ops = JOB[args.workload]
    result = {"workload": args.workload, "trace": args.trace, "op_kind": primary,
              "peak_rss_mb": peak_rss_mb(), "phase_rss_mb": run.phase_rss,
              "checks": run.checks, "op_log": run.ops, **out}
    for suffix, scaled in (("", True), ("_raw", False)):
        op_s = run.latencies(primary, scaled)
        result["setup_s" + suffix] = run.latencies("setup", scaled)
        result["op_s" + suffix] = op_s
        result["ops_per_s" + suffix] = out["units_per_op"] * len(op_s) / sum(op_s)
        job = run.latencies(job_kind, scaled)
        result["job_s" + suffix] = statistics.median(
            sum(job[i : i + job_ops]) for i in range(0, len(job) - job_ops + 1, job_ops))
    if tracer:
        info = {"primary": primary, "op_kinds": [op[0] for op in run.ops],
                "n_sets": out.get("n_sets", 0) * QDATASET_JOBS, "setup_repeats": SETUP_REPEATS,
                "phase_rss_mb": run.phase_rss}
        result["layers"] = tracing.layer_metrics(tracer.spans, info)
        result["self_time"] = tracing.self_time_table(tracer.spans)
        result["coverage"] = tracing.coverage(tracer.spans, run.ops)
        result["spans"] = len(tracer.spans)
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("gen", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="input and result directory")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy geometry for the self-test")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one output before it is checked")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's losses or q-dataset digest as the reference")
    args = parser.parse_args(argv)
    args.scale = "toy" if args.toy else "paper"
    if args.command == "gen":
        gen.generate(args.workload, args.seed, args.dir, toy=args.toy)
        return 0
    result = run_workload(args)
    with open(os.path.join(args.dir, f"result-{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
