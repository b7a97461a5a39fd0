"""Synthetic corpora for the test suite.

Everything here is deterministic in its seed arguments. The three dialog
families target different cues:

  memorize_family   unique question text per round; anything can overfit it
  color_family      the right answer is named only in the dialog history
                    (images are one shared constant vector)
  object_family     the right answer is readable only from the image feature
                    (question text is the same everywhere)
"""

import numpy as np

from dialogrank.text import (ImageFeatureStore, build_vocab, corpus_from_payload,
                             dataset_from_payload)

FILLER = [
    "a", "the", "there", "some", "many", "one", "two", "near", "on", "under",
    "big", "small", "old", "new", "bright", "dark", "round", "flat", "tall",
    "tiny",
]
COLORS = ["red", "blue", "green", "yellow", "purple", "orange", "black", "white"]
OBJECTS = ["cat", "dog", "bus", "tree", "clock", "plate", "bike", "kite"]


def payload_vocab(payload, min_count=1):
    return build_vocab(corpus_from_payload(payload), min_count=min_count)


def load_payload(payload, vocab=None, **kwargs):
    vocab = vocab or payload_vocab(payload)
    return dataset_from_payload(payload, vocab, **kwargs)


def feature_store(vectors):
    """The store over an {image_id: vector} map, built as ``load_features`` builds
    it: one int64 id array and one float64 row matrix."""
    ids = np.fromiter(vectors, dtype=np.int64, count=len(vectors))
    return ImageFeatureStore(ids, np.stack([np.asarray(v, dtype=np.float64)
                                            for v in vectors.values()]))


def _option_block(rng, pool_size, gt, k):
    others = [int(i) for i in rng.permutation(pool_size) if i != gt][: k - 1]
    options = others + [gt]
    order = rng.permutation(k)
    options = [options[i] for i in order]
    return options, options.index(gt)


def memorize_family(n_dialogs=20, k_options=8, seed=0, n_answers=40):
    """Every round has unique question text; answers drawn from a shared pool."""
    rng = np.random.default_rng([seed, 1])
    questions = [
        f"what about {FILLER[d % len(FILLER)]} {OBJECTS[r % len(OBJECTS)]} "
        f"{d} {r} ?"
        for d in range(n_dialogs)
        for r in range(10)
    ]
    answers = [f"{FILLER[i % len(FILLER)]} {COLORS[i % len(COLORS)]} {i}"
               for i in range(n_answers)]
    dialogs = []
    for d in range(n_dialogs):
        rounds = []
        for r in range(10):
            gt = int(rng.integers(0, n_answers))
            options, gt_index = _option_block(rng, n_answers, gt, k_options)
            rounds.append({
                "question": d * 10 + r,
                "answer": gt,
                "answer_options": options,
                "gt_index": gt_index,
            })
        dialogs.append({
            "image_id": 1000 + d,
            "caption": f"scene {d} with {OBJECTS[d % len(OBJECTS)]}",
            "rounds": rounds,
        })
    payload = {"format": "visdial-desk.v1", "task": "visdial",
               "questions": questions, "answers": answers, "dialogs": dialogs}
    feat_rng = np.random.default_rng([seed, 2])
    features = {1000 + d: feat_rng.normal(size=16) for d in range(n_dialogs)}
    return payload, features


def color_family(n_dialogs=48, seed=0, image_dim=8):
    """The answer is a color that only the history names.

    Round 1 fixes the dialog's color; every later round asks for it again, so
    any model that can read history has the label, while the constant image
    and identical question text carry nothing."""
    rng = np.random.default_rng([seed, 3])
    questions = ["what color is it ?"]
    answers = list(COLORS)
    k = len(COLORS)
    dialogs = []
    for d in range(n_dialogs):
        color = int(rng.integers(0, k))
        rounds = []
        for r in range(10):
            options, gt_index = _option_block(rng, k, color, k)
            rounds.append({
                "question": 0,
                "answer": color,
                "answer_options": options,
                "gt_index": gt_index,
            })
        dialogs.append({
            "image_id": 2000 + d,
            "caption": "a plain scene",
            "rounds": rounds,
        })
    payload = {"format": "visdial-desk.v1", "task": "visdial",
               "questions": questions, "answers": answers, "dialogs": dialogs}
    features = {2000 + d: np.ones(image_dim) for d in range(n_dialogs)}
    return payload, features


def object_family(n_dialogs=48, seed=0):
    """The answer names an object encoded only in the image feature basis."""
    rng = np.random.default_rng([seed, 4])
    questions = ["what is shown ?"]
    answers = list(OBJECTS)
    k = len(OBJECTS)
    dialogs = []
    features = {}
    for d in range(n_dialogs):
        obj = int(rng.integers(0, k))
        rounds = []
        for r in range(10):
            options, gt_index = _option_block(rng, k, obj, k)
            rounds.append({
                "question": 0,
                "answer": obj,
                "answer_options": options,
                "gt_index": gt_index,
            })
        dialogs.append({
            "image_id": 3000 + d,
            "caption": "a plain scene",
            "rounds": rounds,
        })
        basis = np.zeros(k)
        basis[obj] = 1.0
        features[3000 + d] = basis
    payload = {"format": "visdial-desk.v1", "task": "visdial",
               "questions": questions, "answers": answers, "dialogs": dialogs}
    return payload, features


def qbuilder_corpus(n_images=30, n_questions=120, seed=0):
    """Corpus for candidate-builder tests: a skewed question distribution over
    well over 100 distinct questions, 10 rounds per image."""
    rng = np.random.default_rng([seed, 5])
    questions = ["is it sunny ?", "is it daytime ?", "how many people are there ?"]
    for i in range(n_questions - len(questions)):
        q = (f"is the {OBJECTS[i % len(OBJECTS)]} {COLORS[i % len(COLORS)]} "
             f"{FILLER[i % len(FILLER)]} {i} ?")
        questions.append(q)
    answers = [f"{FILLER[i % len(FILLER)]} {i}" for i in range(60)]
    # skew references toward the head of the pool
    weights = 1.0 / (1.0 + np.arange(len(questions)))
    weights /= weights.sum()
    dialogs = []
    for d in range(n_images):
        rounds = []
        for r in range(10):
            qi = int(rng.choice(len(questions), p=weights))
            ai = int(rng.integers(0, len(answers)))
            options, gt_index = _option_block(rng, len(answers), ai, 8)
            rounds.append({
                "question": qi,
                "answer": ai,
                "answer_options": options,
                "gt_index": gt_index,
            })
        dialogs.append({
            "image_id": 4000 + d,
            "caption": f"scene number {d}",
            "rounds": rounds,
        })
    return {"format": "visdial-desk.v1", "task": "visdial",
            "questions": questions, "answers": answers, "dialogs": dialogs}


def toy_glove(payload, dim=5, seed=0, drop_every=7):
    """Random word vectors covering the corpus tokens, with every drop_every-th
    word left out to exercise the unknown-word path."""
    rng = np.random.default_rng([seed, 6])
    words = sorted({t for tokens in corpus_from_payload(payload) for t in tokens})
    vectors = {}
    for i, w in enumerate(words):
        if drop_every and i % drop_every == drop_every - 1:
            continue
        vectors[w] = rng.normal(size=dim)
    return vectors


class CountingRng:
    """A generator that counts its ``integers`` calls and the values they draw,
    and passes every call on to the wrapped ``np.random.Generator``."""

    def __init__(self, rng):
        self.rng, self.calls, self.values = rng, 0, 0

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.calls += 1
        self.values += np.size(out)
        return out

    def permutation(self, n):
        return self.rng.permutation(n)


def counting_rngs(monkeypatch, owner, name):
    """Replace the generator factory ``owner.name`` by one whose generators
    count their draws; returns the list they are collected in."""
    made = []
    factory = getattr(owner, name)

    def counting(*args):
        made.append(CountingRng(factory(*args)))
        return made[-1]

    monkeypatch.setattr(owner, name, counting)
    return made


def colliding_payload(payload, copies=100):
    """``payload`` with ``copies`` more entries of each of its first three
    pool questions and answers: most random draws then hit a string the set
    already holds, so each fill needs several chunks of draws."""
    payload = dict(payload)
    payload["questions"] = payload["questions"] + payload["questions"][:3] * copies
    payload["answers"] = payload["answers"] + payload["answers"][:3] * copies
    return payload
