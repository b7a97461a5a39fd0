"""Collect perfbench reports of a parent and a change into one BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 31 \
        --parent PARENT/.perfbench_out --change .perfbench_out \
        --seeds corpus=3101-3110 --seeds train-paper=3101-3105 --seeds eval-paper=3101-3105 \
        --tier1-s 199.0 --mutants-s 80.0 --out BENCH_31.json

Reads the untraced report files ``<workload>-seed<N>-trace0.json`` that
``perfbench/run.py`` wrote for the named seeds; each must exist on both sides.
For each side and workload it records the seeds, the median, min and max of
each end-to-end metric (scaled, as ``end_to_end``, and unscaled, as
``end_to_end_raw``) and the failed and attempted ops; for each side, the
environment block of its first report. It reads the reports only and writes
nothing but ``--out``. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ENV_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "src_sha256")


def seed_range(text: str) -> tuple[str, list[int]]:
    workload, _, span = text.partition("=")
    first, _, last = span.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def summary(reports: list[dict], key: str) -> dict:
    out = {}
    for name in reports[0][key]:
        values = [r[key][name] for r in reports]
        out[name] = {"median": statistics.median(values), "min": min(values),
                     "max": max(values)}
    return out


def side(directory: str, seeds: dict[str, list[int]]) -> dict:
    workloads = {}
    env = None
    for workload, numbers in seeds.items():
        reports = []
        for seed in numbers:
            with open(os.path.join(directory, f"{workload}-seed{seed}-trace0.json"),
                      encoding="utf-8") as f:
                reports.append(json.load(f))
        env = env or {k: reports[0]["env"][k] for k in ENV_KEYS}
        workloads[workload] = {
            "seeds": numbers,
            "end_to_end": summary(reports, "end_to_end"),
            "end_to_end_raw": summary(reports, "end_to_end_raw"),
            "failed_ops": [r["failed"] for r in reports],
            "attempted_ops": [r["attempted"] for r in reports],
        }
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="the parent's .perfbench_out")
    parser.add_argument("--change", required=True, help="the change's .perfbench_out")
    parser.add_argument("--seeds", action="append", type=seed_range, required=True,
                        help="WORKLOAD=FIRST-LAST, once per workload")
    parser.add_argument("--tier1-s", type=float, required=True,
                        help="Tier-1 wall time of the change, seconds")
    parser.add_argument("--mutants-s", type=float, required=True,
                        help="tools/mutants.py wall time of the change, seconds")
    parser.add_argument("--note", default="", help="how the runs were made")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = dict(args.seeds)
    record = {
        "pr": args.pr,
        "note": args.note,
        "parent": side(args.parent, seeds),
        "change": side(args.change, seeds),
        "tier1_wall_s": args.tier1_s,
        "mutants_wall_s": args.mutants_s,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
