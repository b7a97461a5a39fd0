"""Seeded synthetic inputs shaped like VisDial (Das et al., arXiv:1611.08669).

The real corpus and its VGG-16 features are not in the repository, so every
workload runs on generated data that keeps the properties the engine's cost
depends on:

* text lengths: questions about 5 words (plus "?"), answers about 3,
  captions about 11, drawn from a Zipf-skewed word list;
* string pools: dialogs reuse the question and answer pools with a Zipf skew,
  so some questions ("popular" ones) recur across the corpus;
* answer options: each round's 100 options are the ground truth, 50
  "plausible" answers (same topic as the question), the 30 corpus-wide most
  popular answers and random fill, as in Das et al.; rounds of one batch
  therefore share options;
* image features: unit-norm vectors (4096-d at paper dims, 12-d at desk dims);
* word vectors: 300-d, with a tenth of the words missing from the table.

Everything is a pure function of the seed. Files are written with the
package's own writers so that ingestion runs on the real file formats.
``generate(workload, seed, out_dir)`` writes the files plus ``plan.json``
(which rounds, batches or dialogs the workload runs, in order) and
``props.json`` (the recorded workload properties).
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import Counter

import numpy as np

from dialogrank.checkpoint import save_checkpoint
from dialogrank.encoders import ModelDims
from dialogrank.model import DialogScorer, reduced_check_dims
from dialogrank.text import (DATASET_FORMAT, build_vocab, corpus_from_payload, tokenize,
                             write_dataset, write_features, write_glove)

# Geometry of each workload at paper scale and at the self-test's toy scale;
# README.md says why each size was chosen.
SCALES = {
    "paper": {
        "dims": ModelDims(),
        "corpus": dict(n_dialogs=600, n_questions=3000, n_answers=4000, n_words=40000),
        "eval_dialogs": 40,
        "qdataset": dict(n_dialogs=48, n_questions=600, n_answers=800, n_words=12000),
        # The unroller never reads answer options; ten per round keep the
        # 5k-dialog file's set-up cost at a third of what 100 would cost.
        "unroll": dict(n_dialogs=5000, n_questions=20000, n_answers=20000, n_words=30000,
                       n_options=10),
    },
    "toy": {
        "dims": reduced_check_dims(10),
        "corpus": dict(n_dialogs=30, n_questions=200, n_answers=240, n_words=400),
        "eval_dialogs": 10,
        "qdataset": dict(n_dialogs=12, n_questions=200, n_answers=240, n_words=400),
        "unroll": dict(n_dialogs=40, n_questions=200, n_answers=240, n_words=400,
                       n_options=10),
    },
}
DESK_IMAGE_DIM = 12  # the unroll models are dimensioned like reduced_check_dims
TRAIN_BATCH = 4
MAX_OPS = 64  # planned ops; the timed loop cycles through them
UNROLL_ROUNDS = 10
GLOVE_DIM = 300
GLOVE_MISSING = 0.1
N_OPTIONS, N_PLAUSIBLE, N_POPULAR = 100, 50, 30
TOPIC_ANSWERS = 80  # answers per topic; plausible options come from one topic
ROUNDS = 10
WORD_ZIPF = 0.9


def _zipf(n: int, a: float = 1.0) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** a
    return p / p.sum()


class _Texts:
    """Word-level text sampler over a Zipf-skewed synthetic word list."""

    def __init__(self, rng: np.random.Generator, n_words: int):
        self.rng = rng
        self.words = np.array([f"w{i}" for i in range(n_words)])
        self.cdf = np.cumsum(_zipf(n_words, WORD_ZIPF))

    def texts(self, count: int, mean_words: int, suffix: str = "") -> list[str]:
        lengths = 1 + self.rng.poisson(mean_words - 1, size=count)
        ids = np.minimum(np.searchsorted(self.cdf, self.rng.random(lengths.sum())),
                         len(self.words) - 1)
        bounds = np.cumsum(lengths)[:-1]
        return [" ".join(w) + suffix for w in np.split(self.words[ids], bounds)]

    def pool(self, size: int, mean_words: int, suffix: str = "") -> list[str]:
        """``size`` distinct strings."""
        out: dict[str, None] = {}
        while len(out) < size:
            out.update(dict.fromkeys(self.texts(size, mean_words, suffix)))
        return list(out)[:size]


def _first_unique(rows: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` distinct entries of every row, in row order."""
    order = np.argsort(rows, axis=1, kind="stable")
    srt = np.take_along_axis(rows, order, axis=1)
    dup_sorted = np.zeros(rows.shape, dtype=bool)
    dup_sorted[:, 1:] = srt[:, 1:] == srt[:, :-1]
    dup = np.empty_like(dup_sorted)
    np.put_along_axis(dup, order, dup_sorted, axis=1)
    if (np.count_nonzero(~dup, axis=1) < k).any():
        raise RuntimeError("option row has too few distinct candidates")
    keep = ~dup & (np.cumsum(~dup, axis=1) <= k)
    return rows[keep].reshape(len(rows), k)


def corpus_payload(rng: np.random.Generator, n_dialogs: int, n_questions: int,
                   n_answers: int, n_words: int, n_options: int = N_OPTIONS,
                   image_base: int = 100_000) -> dict:
    """A VisDial-shaped dialog dataset document (task ``visdial``)."""
    texts = _Texts(rng, n_words)
    questions = texts.pool(n_questions, 5, " ?")
    answers = texts.pool(n_answers, 3)
    # A pool entry's topic is its index mod n_topics; a question's answers,
    # and the plausible options offered with them, share its topic.
    n_topics = n_answers // TOPIC_ANSWERS
    group_p = _zipf(TOPIC_ANSWERS)
    n_rounds = n_dialogs * ROUNDS
    q = rng.choice(n_questions, n_rounds, p=_zipf(n_questions))
    topic = q % n_topics
    a = topic + n_topics * rng.choice(TOPIC_ANSWERS, n_rounds, p=group_p)
    # weighted draws without replacement via Gumbel top-k
    keys = np.log(group_p) + rng.gumbel(size=(n_rounds, TOPIC_ANSWERS))
    plausible = topic[:, None] + n_topics * np.argsort(-keys, axis=1)[:, :N_PLAUSIBLE]
    counts = Counter(a.tolist())
    popular = sorted(counts, key=lambda x: (-counts[x], x))[:N_POPULAR]
    # priority order: ground truth, plausible, popular, random fill
    candidates = np.concatenate([
        a[:, None], plausible, np.broadcast_to(popular, (n_rounds, N_POPULAR)),
        rng.integers(0, n_answers, size=(n_rounds, 2 * N_OPTIONS))], axis=1)
    options = rng.permuted(_first_unique(candidates, n_options), axis=1)
    gt_index = np.argmax(options == a[:, None], axis=1)

    captions = texts.texts(n_dialogs, 11)
    dialogs = []
    for d in range(n_dialogs):
        rounds = [{"question": int(q[r]), "answer": int(a[r]),
                   "answer_options": options[r].tolist(), "gt_index": int(gt_index[r])}
                  for r in range(d * ROUNDS, (d + 1) * ROUNDS)]
        dialogs.append({"image_id": image_base + d, "caption": captions[d],
                        "rounds": rounds})
    return {"format": DATASET_FORMAT, "task": "visdial", "questions": questions,
            "answers": answers, "dialogs": dialogs}


def unit_features(rng: np.random.Generator, image_ids, dim: int) -> dict[int, np.ndarray]:
    vecs = rng.normal(size=(len(image_ids), dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return {int(i): v for i, v in zip(image_ids, vecs)}


def _token_lengths(strings, cap: int) -> dict:
    """Encoded lengths (truncated to ``cap`` words, plus the stop token)."""
    n = np.array([min(len(tokenize(s)), cap) + 1 for s in strings])
    return {"mean": round(float(n.mean()), 3), "min": int(n.min()), "max": int(n.max())}


def _text_props(payload: dict, dims: ModelDims) -> dict:
    qs, ans = payload["questions"], payload["answers"]
    used_q = [qs[r["question"]] for d in payload["dialogs"] for r in d["rounds"]]
    used_a = [ans[r["answer"]] for d in payload["dialogs"] for r in d["rounds"]]
    options = [ans[o] for d in payload["dialogs"][:20] for r in d["rounds"]
               for o in r["answer_options"]]
    return {
        "dialogs": len(payload["dialogs"]),
        "question_pool": len(qs),
        "answer_pool": len(ans),
        "vocab_size": len(build_vocab(corpus_from_payload(payload))),
        "tokens": {
            "question": _token_lengths(used_q, dims.max_question_words),
            "answer": _token_lengths(used_a, dims.max_answer_words),
            "option": _token_lengths(options, dims.max_answer_words),
            "caption": _token_lengths([d["caption"] for d in payload["dialogs"]],
                                      dims.max_caption_words),
        },
    }


def _rounds_of(payload: dict, flat_indices) -> list[dict]:
    return [payload["dialogs"][i // ROUNDS]["rounds"][i % ROUNDS] for i in flat_indices]


def _sharing(payload: dict, groups) -> float:
    """Distinct option strings / options, averaged over groups of rounds."""
    ratios = []
    for group in groups:
        opts = [o for r in _rounds_of(payload, group) for o in r["answer_options"]]
        ratios.append(len(set(opts)) / len(opts))
    return round(float(np.mean(ratios)), 4)


def _gen_train(rng, seed: int, out: str, scale: dict) -> tuple[dict, dict]:
    payload = corpus_payload(rng, **scale["corpus"])
    dims = scale["dims"]
    ids = [d["image_id"] for d in payload["dialogs"]]
    write_dataset(os.path.join(out, "train.json"), payload)
    write_features(os.path.join(out, "features.bin"), unit_features(rng, ids, dims.image_dim))
    order = rng.permutation(len(ids) * ROUNDS)[: (MAX_OPS + 1) * TRAIN_BATCH]
    batches = [order[i : i + TRAIN_BATCH].tolist() for i in range(0, len(order), TRAIN_BATCH)]
    plan = {"dims": dataclasses.asdict(dims), "init_seed": seed, "warmup_batch": batches[0],
            "batches": batches[1:]}
    props = _text_props(payload, dims)
    props["history_depth_histogram"] = _depth_hist(b for batch in batches[1:] for b in batch)
    props["batch_option_distinct_ratio"] = _sharing(payload, batches[1:])
    return plan, props


def _depth_hist(flat_indices) -> list[int]:
    return np.bincount([i % ROUNDS for i in flat_indices], minlength=ROUNDS).tolist()


def _gen_eval(rng, seed: int, out: str, scale: dict) -> tuple[dict, dict]:
    payload = corpus_payload(rng, **scale["corpus"])
    dims = scale["dims"]
    vocab = build_vocab(corpus_from_payload(payload))
    save_checkpoint(DialogScorer(dims, vocab, task="visdial", variant="qih", mlp_depth=2,
                                 shared_embeddings=True, init_seed=seed),
                    os.path.join(out, "model.ckpt"))
    eval_payload = dict(payload, dialogs=payload["dialogs"][: scale["eval_dialogs"]])
    ids = [d["image_id"] for d in eval_payload["dialogs"]]
    write_dataset(os.path.join(out, "val.json"), eval_payload)
    write_features(os.path.join(out, "features.bin"), unit_features(rng, ids, dims.image_dim))
    order = rng.permutation(len(ids) * ROUNDS)[: MAX_OPS + 1].tolist()
    plan = {"warmup_round": order[0], "rounds": order[1:]}
    props = _text_props(eval_payload, dims)
    props["vocab_size"] = len(vocab)
    props["history_depth_histogram"] = _depth_hist(order[1:])
    return plan, props


def _gen_corpus(rng, seed: int, out: str, scale: dict) -> tuple[dict, dict]:
    qsrc = corpus_payload(rng, **scale["qdataset"])
    write_dataset(os.path.join(out, "qsrc.json"), qsrc)
    words = sorted({w for s in qsrc["questions"] + qsrc["answers"] for w in tokenize(s)})
    keep = rng.random(len(words)) >= GLOVE_MISSING
    vecs = rng.normal(scale=GLOVE_DIM ** -0.5, size=(len(words), GLOVE_DIM))
    write_glove(os.path.join(out, "glove.txt"),
                {w: v for w, v, k in zip(words, vecs, keep) if k})

    corpus = corpus_payload(rng, image_base=500_000, **scale["unroll"])
    ids = [d["image_id"] for d in corpus["dialogs"]]
    write_dataset(os.path.join(out, "corpus.json"), corpus)
    write_features(os.path.join(out, "features.bin"), unit_features(rng, ids, DESK_IMAGE_DIM))
    vocab = build_vocab(corpus_from_payload(corpus))
    for task, name, rounds in (("visdial-q", "q_model.ckpt", ROUNDS - 1),
                               ("visdial", "a_model.ckpt", ROUNDS)):
        dims = dataclasses.replace(reduced_check_dims(rounds), image_dim=DESK_IMAGE_DIM)
        save_checkpoint(DialogScorer(dims, vocab, task=task, variant="qih", mlp_depth=2,
                                     shared_embeddings=True, init_seed=seed),
                        os.path.join(out, name))
    starts = rng.choice(ids, min(MAX_OPS, len(ids)), replace=False).tolist()
    plan = {"spec_seed": seed, "rounds_per_dialog": UNROLL_ROUNDS, "start_images": starts}
    props = {"qdataset_corpus": _text_props(qsrc, scale["dims"]),
             "glove_words": int(keep.sum()), "glove_missing": int((~keep).sum()),
             "qdataset_sets": len(qsrc["dialogs"]) * (ROUNDS - 1),
             "unroll_corpus": _text_props(corpus, reduced_check_dims(ROUNDS)),
             "unroll_features_dim": DESK_IMAGE_DIM}
    return plan, props


GENERATORS = {"train-paper": _gen_train, "eval-paper": _gen_eval, "corpus": _gen_corpus}


def generate(workload: str, seed: int, out_dir: str, toy: bool = False) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``; returns props."""
    rng = np.random.default_rng([seed, 0xB3AC])
    scale = "toy" if toy else "paper"
    plan, props = GENERATORS[workload](rng, seed, out_dir, SCALES[scale])
    props = {"workload": workload, "seed": seed, "scale": scale, **props}
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as f:
        json.dump(plan, f)
    with open(os.path.join(out_dir, "props.json"), "w", encoding="utf-8") as f:
        json.dump(props, f, indent=1)
    return props
