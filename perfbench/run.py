"""dialogrank benchmark: one command for the train-paper, eval-paper and corpus workloads.

    python3 perfbench/run.py                              # all three workloads, untraced
    python3 perfbench/run.py --workload eval-paper --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload corpus --trace 1  # per-layer numbers

Run it from the repository root (or any checkout of it). Each workload runs
in its own processes: one generates the seeded inputs, one runs the program
on them untraced, and with ``--trace 1`` a third runs it again with timing
wrappers installed (the untraced run is reused from ``.perfbench_out/`` when
one exists for the same seed, settings and sources). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
of BENCHMARK.json untraced, its per-layer metrics traced). The full report,
with the environment block, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-paper", "eval-paper", "corpus")
BLAS_THREADS = 1  # pinned for every run, so runs on any machine compare
DEADLINE_S = 170  # one invocation must finish within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NAMED = {  # the same numbers under their workload-specific names
    "train-paper": [("train_examples_per_s", "ops_per_s", "examples/s"),
                    ("train_step_s", "op_s", "s")],
    "eval-paper": [("eval_rounds_per_s", "ops_per_s", "rounds/s"),
                   ("eval_round_s", "op_s", "s")],
    "corpus": [("qdataset_sets_per_s", "sets_per_s", "sets/s"),
               ("unroll_rounds_per_s", "ops_per_s", "rounds/s"),
               ("unroll_round_s", "op_s", "s")],
}
# ROADMAP aim-1 baseline (2 CPUs, OpenBLAS, full dims, B=8 for the train share).
BASELINE = {
    "eval-paper": [("mlp.h0 forward share of an eval round", 0.90,
                    lambda L, op: L["nn.linear_forward.mlp.h0.s"] / op)],
    "train-paper": [("LSTM backward share of train forward+backward", 0.84,
                     lambda L, op: L["nn.lstm_backward.s"]
                     / (L["model.batch_forward.s"] + L["model.batch_backward.s"])),
                    ("Adam seconds per step", 1.26, lambda L, op: L["nn.adam_step.s"])],
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)]


def highest_supported(n: int):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def environment(workload: str, seed: int, props: dict) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": workload,
        "seed": seed,
        "properties": props,
    }


def src_digest(*trees: str) -> str:
    """sha256 over the Python sources under ``trees`` (default: the package),
    which identifies the code outside git."""
    digest = hashlib.sha256()
    for base, _, files in sorted(w for tree in (trees or (SRC,)) for w in os.walk(tree)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout; see src_sha256)"


class Child:
    """Runs workloads.py in a child process with pinned threads and a deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]),
                        PYTHONHASHSEED="0")
        self.env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})

    def __call__(self, *args: str) -> None:
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{' '.join(args[:3])}: out of time") from None
        finally:  # also on SIGTERM (raised as SystemExit) or Ctrl-C
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"{' '.join(args[:3])}: exited with {code}")


def e2e(result: dict, suffix: str = "") -> dict:
    """End-to-end metrics of BENCHMARK.json; "op" is a train step, an eval round
    or an unroll round, and "job" the workload's fixed-size piece of work.
    ``suffix`` "_raw" gives them without speed scaling."""
    return {
        "setup_s": statistics.median(result["setup_s" + suffix]),
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_per_s": result["ops_per_s" + suffix],
        "op_s_p50": statistics.median(result["op_s" + suffix]),
        "job_s": result["job_s" + suffix],
    }


def named_metrics(workload: str, result: dict) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) rows under the workload-specific metric names."""
    rows = []
    for name, source, unit in NAMED[workload]:
        if source == "op_s":
            n = len(result["op_s"])
            rows.append((f"{name}_p50", statistics.median(result["op_s"]), unit, f"n={n}"))
            p = highest_supported(n)
            if p is None:
                rows.append((f"{name}_p75+", float("nan"), unit,
                             f"not supported: n={n}, no percentile has 10 samples beyond it"))
            else:
                rows.append((f"{name}_p{p}", percentile(result["op_s"], p), unit, f"n={n}"))
        elif source == "sets_per_s":
            rows.append((name, result["n_sets"] / result["job_s"], unit, ""))
        else:
            rows.append((name, result[source], unit, ""))
    failed = sum(1 for problems in result["checks"].values() if problems)
    rows += [("setup_s", statistics.median(result["setup_s"]), "s",
              f"median of {len(result['setup_s'])} set-ups"),
             ("peak_rss_mb", result["peak_rss_mb"], "MB", ""),
             ("ops_attempted", len(result["checks"]), "count", "checked outputs"),
             ("ops_failed", failed, "count", "")]
    return rows


def run_one(workload: str, seed: int, seconds: float, traced: bool, flags: list[str],
            child: Child, bench: dict) -> dict:
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-s{seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}")
    key = {"seconds": seconds, "flags": flags, "sha256": src_digest(SRC, HERE)}
    # A traced invocation reuses this seed's untraced result when one was made
    # from the same sources and settings; otherwise it runs that too.
    earlier = None
    if traced and os.path.exists(stem + "-trace0.json"):
        with open(stem + "-trace0.json", encoding="utf-8") as f:
            earlier = json.load(f)
        if earlier.get("key") != key:
            earlier = None
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", work, *flags]
        child("gen", *common)
        with open(os.path.join(work, "props.json"), encoding="utf-8") as f:
            props = json.load(f)
        results = []
        for t in (((0, 1) if earlier is None else (1,)) if traced else (0,)):
            child("run", *common, "--seconds", str(seconds), "--trace", str(t))
            with open(os.path.join(work, f"result-{t}.json"), encoding="utf-8") as f:
                results.append(json.load(f))
        if traced:
            shutil.move(os.path.join(work, "spans.jsonl"), stem + ".spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fresh = results  # the runs made by this invocation
    if earlier is not None:
        results = [earlier["untraced"], *fresh]

    untraced = results[0]
    report = {"key": key, "untraced": untraced, "env": environment(workload, seed, props),
              "seconds": seconds,
              "end_to_end": e2e(untraced), "end_to_end_raw": e2e(untraced, "_raw"),
              "named": named_metrics(workload, untraced),
              "failures": {k: v for r in fresh for k, v in r["checks"].items() if v},
              "attempted": sum(len(r["checks"]) for r in fresh)}
    report["failed"] = sum(1 for r in fresh for v in r["checks"].values() if v)
    if traced:
        tr = results[1]
        traced_e2e = e2e(tr)
        report["traced"] = {k: tr[k] for k in ("layers", "self_time", "coverage", "spans")}
        report["overhead"] = {k: {"untraced": v, "traced": traced_e2e[k],
                                  "traced_minus_untraced": traced_e2e[k] - v}
                              for k, v in report["end_to_end"].items()}
        op = statistics.mean(tr["op_s_raw"])  # layer times are not speed-scaled
        layer_values = {name: value for name, (value, _) in tr["layers"].items()}
        report["baseline"] = [{"what": what, "roadmap_baseline": base,
                               "measured": fn(layer_values, op)}
                              for what, base, fn in BASELINE.get(workload, [])]
    with open(stem + f"-trace{int(traced)}.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print_report(workload, seed, report)
    metrics = ({m["name"]: {"value": report["traced"]["layers"][m["name"]][0],
                            "unit": m["unit"]} for m in bench["per_layer"]}
               if traced else
               {m["name"]: {"value": report["end_to_end"][m["name"]], "unit": m["unit"]}
                for m in bench["end_to_end"]})
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_report(workload: str, seed: int, report: dict) -> None:
    env = report["env"]
    print(f"== {workload} seed {seed}: {env['properties'].get('scale')} scale, "
          f"{env['blas_threads']} BLAS thread ({env['blas']['name']} "
          f"{env['blas']['version']}), nproc {env['nproc']}, {env['cpu_model']}")
    for name, value, unit, note in report["named"]:
        print(f"  {name:28s} {value:14.6g} {unit:10s} {note}")
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in report["end_to_end_raw"].items()))
    for output, problems in report["failures"].items():
        print(f"  FAILED {output}: {'; '.join(problems)}")
    if "traced" not in report:
        return
    tr = report["traced"]
    print(f"  traced: {tr['spans']} spans; top-level spans cover "
          f"min {tr['coverage']['min']:.1%} / median {tr['coverage']['median']:.1%} "
          f"of each op's wall time over {tr['coverage']['ops']} ops")
    for name, row in report["overhead"].items():
        print(f"  overhead {name:12s} untraced {row['untraced']:.6g} traced "
              f"{row['traced']:.6g} (traced - untraced {row['traced_minus_untraced']:+.4g})")
    for b in report["baseline"]:
        print(f"  baseline {b['what']}: ROADMAP {b['roadmap_baseline']:.3g}, "
              f"measured {b['measured']:.3g}")
    print("  per-layer (timed phase; per op, per set, per set-up or per call as the unit says;"
          " bytes and params are computed from array shapes):")
    for name, (value, unit) in tr["layers"].items():
        if value:
            print(f"    {name:44s} {value:14.6g} {unit}")
    print("  self time, timed phase (s, whole run):")
    for row in tr["self_time"][:12]:
        print(f"    {row['name']:44s} self {row['self_s']:10.4f} total {row['total_s']:10.4f}"
              f" calls {row['calls']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="closed-loop measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy geometry: the harness self-test, finishes in seconds")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one output before it is checked (must fail)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "dialogrank", "__init__.py")):
        print(f"perfbench: no dialogrank package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    flags = [f for f, on in (("--toy", args.toy), ("--tamper", args.tamper)) if on]
    child = Child(deadline)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        lines = {w: run_one(w, args.seed, args.seconds, bool(args.trace), flags, child, bench)
                 for w in names}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {"correct": all(r["correct"] for r in lines.values()),
                 "attempted": sum(r["attempted"] for r in lines.values()),
                 "failed": sum(r["failed"] for r in lines.values()),
                 "metrics": {f"{w}/{k}": v for w, r in lines.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
