"""Outside-in layer tracing for the benchmark.

``Tracer.install()`` wraps the public functions and methods of the dialogrank
modules with timing wrappers at run time; nothing under ``src/`` changes and
the untraced run installs nothing. Each call records a span: name, start,
end, parent span, op id, phase and a few counts computed from argument
shapes. Spans stay in memory and are written when the run ends.

``layer_metrics`` turns the spans into the per-layer metrics listed in
``LAYER_METRICS`` (the ``per_layer`` list of BENCHMARK.json). Byte and flop
counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
from time import perf_counter

MODULES = ("nn", "encoders", "scorer", "model", "metrics", "qdataset", "unroll", "text",
           "checkpoint")
ALL_MODULES = MODULES + ("training", "cli")

# Per-token or per-element helpers: a wrapper would cost as much as the call.
SKIP = frozenset({
    "nn.as_f64", "nn.ensure_finite", "nn.Parameter.zero_grad",
    "text.tokenize", "text.detokenize", "text.encode_truncate",
    "text.Vocabulary.encode_word", "text.Vocabulary.word_of",
    "text.GloveTable.get", "text.ImageFeatureStore.get",
    "qdataset.content_words", "qdataset.round_rng",
})
# Constructors that do real work (the rest are plain records).
TRACED_INITS = frozenset({
    "model.DialogScorer", "qdataset.CorpusKeys", "text.DialogDataset", "text.GloveTable",
    "text.ImageFeatureStore",
})

LINEAR_TAGS = ("mlp.h0", "mlp.h1", "mlp.out", "history.combine")
PHASES = ("setup", "warmup", "timed")


def _tag(layer) -> str:
    return layer.weight.name.rsplit(".", 1)[0]


# span name -> function(args, kwargs, result) giving (tag, counts)
PROBES = {
    "nn.LstmEncoder.encode": lambda a, k, r: (None, {"steps": len(a[1])}),
    "nn.LstmEncoder.backward": lambda a, k, r: (None, {"steps": len(a[1][0])}),
    "nn.Linear.forward": lambda a, k, r: (_tag(a[0]), {
        "rows": len(a[1]), "single_row_calls": int(len(a[1]) == 1),
        "weight_bytes": a[0].weight.value.nbytes}),
    "nn.Linear.backward": lambda a, k, r: (_tag(a[0]), {}),
    "nn.adam_step": lambda a, k, r: (None, {"params": sum(p.size for p in a[0])}),
    "encoders.EncoderBank.encode_option": lambda a, k, r: (hash(tuple(a[1])), {}),
    "scorer.FusionMlp.score_rows": lambda a, k, r: (None, {
        "rows": len(a[1]), "fused_rows_bytes": a[1].nbytes}),
    "qdataset.find_plausible": lambda a, k, r: (None, {
        "keys_scanned": len(a[2] if len(a) > 2 else k["corpus"])}),
    "unroll.nearest_images": lambda a, k, r: (None, {"images_scanned": len(a[0])}),
    "checkpoint.save_checkpoint": lambda a, k, r: (None, {"bytes": os.path.getsize(a[1])}),
    "checkpoint.load_checkpoint": lambda a, k, r: (None, {"bytes": os.path.getsize(a[0])}),
}
# Adam reads value, grad, m and v and writes value, m, v and the zeroed grad.
ADAM_BYTES_PER_PARAM = 8 * 8


class Tracer:
    """Span recorder; ``phase`` and ``op`` are set by the workload code."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, phase, tag, counts]
        self.stack: list[int] = []
        self.phase = "setup"
        self.op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = [name, start, end, parent, self.op, self.phase, None, None]
            if probe is not None:
                spans[sid][6], spans[sid][7] = probe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function of the dialogrank modules."""
        mods = {m: importlib.import_module(f"dialogrank.{m}") for m in ALL_MODULES}
        replaced = {}
        for short in MODULES:
            mod = mods[short]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                key = f"{short}.{name}"
                if inspect.isfunction(obj) and key not in SKIP:
                    replaced[id(obj)] = (obj, self._wrap(key, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        akey = f"{key}.{attr}"
                        wanted = (not attr.startswith("_") and akey not in SKIP) or (
                            attr == "__init__" and key in TRACED_INITS)
                        if inspect.isfunction(fn) and wanted:
                            self._patch(obj, attr, self._wrap(akey, fn))
        # functions are also bound by name in the modules that import them
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._patch(mod, name, replaced[id(obj)][1])

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, op, phase."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op, phase, _, _ in self.spans:
                f.write(json.dumps([name, round(start, 7), round(end, 7), parent, op, phase])
                        + "\n")


def self_times(spans) -> list[float]:
    """Span duration minus the part covered by its child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _layer_defs():
    """(metric, unit, span name, tag or None, field) for every per-layer metric.

    ``field`` is "s" (inclusive seconds), "calls", or a probe count."""
    defs = []

    def add(metric, span, fields, tag=None, units=None):
        for f in fields:
            unit = (units or {}).get(f) or {"s": "s/op", "calls": "calls/op"}.get(f, f"{f}/op")
            defs.append((f"{metric}.{f}", unit, span, tag, f))

    add("nn.lstm_backward", "nn.LstmEncoder.backward", ("s", "calls", "steps"))
    add("nn.lstm_encode", "nn.LstmEncoder.encode", ("s", "calls", "steps"))
    for w in LINEAR_TAGS:
        add(f"nn.linear_forward.{w}", "nn.Linear.forward",
            ("s", "calls", "rows", "single_row_calls", "weight_bytes"), tag=w,
            units={"single_row_calls": "calls/op", "weight_bytes": "B/op"})
    for w in LINEAR_TAGS:
        add(f"nn.linear_backward.{w}", "nn.Linear.backward", ("s",), tag=w)
    add("nn.batchnorm.forward", "nn.BatchNorm1d.forward", ("s",))
    add("nn.batchnorm.backward", "nn.BatchNorm1d.backward", ("s",))
    add("nn.embedding_backward", "nn.Embedding.backward", ("s",))
    add("nn.adam_step", "nn.adam_step", ("s", "params", "bytes"), units={"bytes": "B/op"})
    for short, method in (("query", "encode_query"), ("option", "encode_option"),
                          ("caption", "encode_caption"), ("history_pair", "encode_pair_pre"),
                          ("combine_pairs", "combine_pairs")):
        add(f"encoders.{short}", f"encoders.EncoderBank.{method}", ("s", "calls"))
    add("scorer.score_rows", "scorer.FusionMlp.score_rows", ("s", "rows"))
    add("scorer.backward_rows", "scorer.FusionMlp.backward_rows", ("s",))
    for method in ("batch_forward", "batch_backward", "score_example"):
        add(f"model.{method}", f"model.DialogScorer.{method}", ("s",))
    add("metrics.rank", "metrics.rank_of_gt", ("s",))
    per_set = {"s": "s/set", "keys_scanned": "keys/set"}
    add("qdataset.corpus_keys", "qdataset.CorpusKeys.__init__", ("s",), units=per_set)
    for fn in ("compute_popular", "qa_pair_key", "build_candidate_set"):
        add(f"qdataset.{fn}", f"qdataset.{fn}", ("s",), units=per_set)
    add("qdataset.find_plausible", "qdataset.find_plausible", ("s", "keys_scanned"),
        units=per_set)
    add("unroll.nearest_images", "unroll.nearest_images", ("s", "images_scanned"),
        units={"images_scanned": "images/op"})
    for fn in ("build_pool", "step"):
        add(f"unroll.{fn}", f"unroll.{fn}", ("s",))
    per_setup = {"s": "s/setup", "bytes": "B/setup"}
    for fn in ("build_vocab", "dataset_from_payload", "load_glove", "load_features"):
        add(f"text.{fn}", f"text.{fn}", ("s",), units=per_setup)
    add("checkpoint.load", "checkpoint.load_checkpoint", ("s", "bytes"), units=per_setup)
    add("checkpoint.save", "checkpoint.save_checkpoint", ("s", "bytes"),
        units={"s": "s/call", "bytes": "B/call"})
    return defs


LAYER_DEFS = _layer_defs()
# Metrics derived from several spans rather than one span name.
DERIVED = [
    ("encoders.option.distinct_ratio", "ratio"),
    ("scorer.fused_rows_bytes", "B/op"),
    ("unroll.score.s", "s/op"),
] + [(f"{p}.peak_rss_mb", "MB") for p in PHASES]
LAYER_METRICS = [(m, u) for m, u, *_ in LAYER_DEFS] + DERIVED


def layer_metrics(spans, info: dict) -> dict:
    """Per-layer metrics from the spans of one traced run.

    ``info`` carries ``primary`` (the op kind that ``/op`` units count),
    ``op_kinds`` (kind of each op id), ``n_sets`` (candidate sets built),
    ``setup_repeats`` and ``phase_rss_mb``. Timed-phase layers are totals
    divided by the number of timed primary ops (or by candidate sets for the
    ``qdataset.*`` layers); set-up layers are divided by the set-up count.
    """
    kinds = info["op_kinds"]
    n_primary = sum(1 for k in kinds if k == info["primary"]) or 1
    n_sets = info.get("n_sets") or 1
    agg: dict[tuple, dict] = {}
    for name, start, end, parent, op, phase, tag, counts in spans:
        if phase == "setup":
            scope = "setup"
        elif phase == "timed" and op >= 0:
            scope = "set" if kinds[op] == "qdataset" else (
                "op" if kinds[op] == info["primary"] else None)
        else:
            scope = "call" if name == "checkpoint.save_checkpoint" else None
        if scope is None:
            continue
        a = agg.setdefault((name, tag if isinstance(tag, str) else None, scope), {})
        a["s"] = a.get("s", 0.0) + (end - start)
        a["calls"] = a.get("calls", 0) + 1
        for f, v in (counts or {}).items():
            a[f] = a.get(f, 0) + v

    out = {}
    for metric, unit, span, tag, field in LAYER_DEFS:
        scope = {"s/set": "set", "keys/set": "set", "s/setup": "setup", "B/setup": "setup",
                 "s/call": "call", "B/call": "call"}.get(unit, "op")
        a = agg.get((span, tag, scope), {})
        if field == "bytes" and span == "nn.adam_step":
            value = a.get("params", 0) * ADAM_BYTES_PER_PARAM
        else:
            value = a.get(field, 0)
        divisor = {"op": n_primary, "set": n_sets, "setup": info["setup_repeats"],
                   "call": a.get("calls", 0) or 1}[scope]
        out[metric] = (value / divisor, unit)

    distinct, calls = {}, {}
    fused = 0
    score_in_unroll = 0.0
    for name, start, end, parent, op, phase, tag, counts in spans:
        if phase != "timed" or op < 0 or kinds[op] != info["primary"]:
            continue
        if name == "encoders.EncoderBank.encode_option":
            distinct.setdefault(op, set()).add(tag)
            calls[op] = calls.get(op, 0) + 1
        elif name == "scorer.FusionMlp.score_rows":
            fused += counts["fused_rows_bytes"]
        elif (name == "model.DialogScorer.score_example" and parent >= 0
              and spans[parent][0] == "unroll.step"):
            score_in_unroll += end - start
    n_calls = sum(calls.values())
    out["encoders.option.distinct_ratio"] = (
        sum(len(v) for v in distinct.values()) / n_calls if n_calls else 0.0, "ratio")
    out["scorer.fused_rows_bytes"] = (fused / n_primary, "B/op")
    out["unroll.score.s"] = (score_in_unroll / n_primary, "s/op")
    for p in PHASES:
        out[f"{p}.peak_rss_mb"] = (info["phase_rss_mb"].get(p, 0.0), "MB")
    return out


def self_time_table(spans, limit: int = 25) -> list[dict]:
    """Timed-phase self time, calls and inclusive time per span name, largest first."""
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        if s[5] != "timed":
            continue
        r = rows.setdefault(s[0], {"name": s[0], "self_s": 0.0, "total_s": 0.0, "calls": 0})
        r["self_s"] += self_s
        r["total_s"] += s[2] - s[1]
        r["calls"] += 1
    return sorted(rows.values(), key=lambda r: -r["self_s"])[:limit]


def coverage(spans, ops) -> dict:
    """Share of each timed op's wall time covered by top-level spans.

    ``ops`` holds (kind, start, end, ...) per op id; set-up ops are skipped."""
    covered = [0.0] * len(ops)
    for name, start, end, parent, op, phase, _, _ in spans:
        if parent == -1 and op >= 0:
            covered[op] += end - start
    shares = [c / (op[2] - op[1]) for c, op in zip(covered, ops)
              if op[0] != "setup" and op[2] > op[1]]
    if not shares:
        return {"min": 0.0, "median": 0.0, "ops": 0}
    return {"min": min(shares), "median": statistics.median(shares), "ops": len(shares)}
