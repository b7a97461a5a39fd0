import functools
import json
import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dialogrank import qdataset, text
from dialogrank.encoders import ModelDims
from dialogrank.model import examples_from_dataset
from synth import feature_store, load_payload, memorize_family, toy_glove


def test_tokenize_punctuation():
    assert text.tokenize("Is it sunny?") == ["is", "it", "sunny", "?"]
    assert text.tokenize("What's that") == ["what", "'", "s", "that"]
    assert text.tokenize("") == []
    assert text.tokenize("Wait, really?! yes.") == [
        "wait", ",", "really", "?", "!", "yes", "."]
    assert text.detokenize(text.tokenize("Is it sunny?")) == "is it sunny ?"


@given(st.lists(st.sampled_from(["cat", "dog", "?", "'", "sunny", "a1"]), max_size=12))
def test_tokenize_detokenize_idempotent(tokens):
    line = text.detokenize(tokens)
    assert text.tokenize(line) == tokens


def make_vocab(words=("cat", "dog", "sunny")):
    return text.Vocabulary(list(text.RESERVED_WORDS) + list(words))


def test_encode_truncate_truncates_and_stops():
    vocab = make_vocab([f"w{i}" for i in range(30)])
    words = [f"w{i}" for i in range(25)]
    ids = text.encode_truncate(words, vocab, 20)
    assert len(ids) == 21
    assert ids[-1] == vocab.stop_id
    assert vocab.stop_id not in ids[:-1]


def test_encode_truncate_empty_and_short():
    vocab = make_vocab()
    assert text.encode_truncate([], vocab, 20) == [vocab.stop_id]
    ids = text.encode_truncate(["cat", "dog", "sunny"], vocab, 20)
    assert len(ids) == 4
    assert vocab.unk_id not in ids


def test_encode_truncate_maps_oov_to_unk():
    vocab = make_vocab()
    ids = text.encode_truncate(["cat", "zebra"], vocab, 20)
    assert ids[1] == vocab.unk_id


def test_encode_truncate_rejects_bad_max_len():
    with pytest.raises(ValueError):
        text.encode_truncate(["cat"], make_vocab(), 0)


def test_build_vocab_ordering_and_threshold():
    corpus = [["a"], ["a"], ["b"]]
    vocab = text.build_vocab(corpus, min_count=1)
    assert len(vocab) == 5
    assert vocab.encode_word("a") < vocab.encode_word("b")

    vocab2 = text.build_vocab(corpus, min_count=2)
    assert "a" in vocab2 and "b" not in vocab2

    again = text.build_vocab(corpus, min_count=1)
    assert again == vocab


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError):
        text.build_vocab([])


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = text.build_vocab([["sunny", "cat", "cat"]])
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    assert text.Vocabulary.load(path) == vocab


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------


def minimal_payload():
    return {
        "format": text.DATASET_FORMAT,
        "task": "visdial",
        "questions": ["is it sunny ?", "is it big ?"],
        "answers": ["yes", "no", "maybe"],
        "dialogs": [{
            "image_id": 7,
            "caption": "a cat",
            "rounds": [
                {"question": t % 2, "answer": t % 3,
                 "answer_options": [t % 3, (t + 1) % 3], "gt_index": 0}
                for t in range(10)
            ],
        }],
    }


def test_load_dataset_roundtrip(tmp_path):
    payload = minimal_payload()
    path = tmp_path / "data.json"
    text.write_dataset(path, payload)
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    ds = text.dataset_from_payload(text.read_dataset(path), vocab)
    assert len(ds) == 1
    assert ds.records[0].image_id == 7
    assert len(ds.records[0].rounds) == 10
    # write -> read -> write is byte-identical
    blob1 = text.dataset_json_bytes(payload)
    blob2 = text.dataset_json_bytes(json.loads(blob1))
    assert blob1 == blob2


@pytest.mark.parametrize("name, mangle, message", [
    ("truncated", lambda blob: blob[: len(blob) // 2], "not UTF-8 JSON"),
    ("not-utf8", lambda blob: blob.replace(b"sunny", b"sunn\xff", 1), "not UTF-8 JSON"),
    # json.load raises RecursionError, not ValueError, past the recursion limit
    ("deep-nesting", lambda blob: b"[" * 100_000 + b"]" * 100_000,
     "JSON nested too deeply to read"),
], ids=["truncated", "not-utf8", "deep-nesting"])
def test_read_dataset_undecodable_file_is_a_load_error_naming_it(tmp_path, name, mangle,
                                                                 message):
    path = tmp_path / f"{name}.json"
    text.write_dataset(path, minimal_payload())
    path.write_bytes(mangle(path.read_bytes()))
    with pytest.raises(text.LoadError, match=re.escape(f"dataset file {path}: {message}")):
        text.read_dataset(path)


def test_load_dataset_rejects_nine_rounds():
    payload = minimal_payload()
    del payload["dialogs"][0]["rounds"][3]
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    with pytest.raises(text.LoadError, match=r"dialog 0 .*expected 10 rounds, got 9"):
        text.dataset_from_payload(payload, vocab)


def test_load_dataset_rejects_duplicate_image():
    payload = minimal_payload()
    payload["dialogs"].append(json.loads(json.dumps(payload["dialogs"][0])))
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    with pytest.raises(text.LoadError, match="duplicate image_id"):
        text.dataset_from_payload(payload, vocab)


def test_load_dataset_rejects_gt_text_mismatch():
    payload = minimal_payload()
    payload["dialogs"][0]["rounds"][0]["gt_index"] = 1  # points at a different answer
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    with pytest.raises(text.LoadError, match="gt option text"):
        text.dataset_from_payload(payload, vocab)


def test_load_dataset_rejects_duplicate_options():
    payload = minimal_payload()
    payload["dialogs"][0]["rounds"][0]["answer_options"] = [0, 0]
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    with pytest.raises(text.LoadError, match="not unique"):
        text.dataset_from_payload(payload, vocab)


def _set(path, value):
    """Payload mutator: set the item at ``path`` (a key/index sequence) to ``value``."""
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(("dialogs", 0, "rounds", 3), 5), r"dialog 0 \(image_id 7\): rounds must be a list of"),
    (_set(("dialogs", 0, "rounds"), 7), r"dialog 0 \(image_id 7\): rounds must be a list of"),
    (_set(("questions",), 3), "dataset needs a 'questions' list"),
    (_set(("dialogs",), 3), "dataset needs a 'dialogs' list"),
    (_set(("dialogs", 0, "rounds", 2, "answer_options"), 4),
     r"dialog 0 \(image_id 7\) round 3: answer_options must be a list"),
    (_set(("dialogs", 0, "caption"), 4), r"dialog 0 \(image_id 7\): caption must be a string"),
    (_set(("dialogs", 0, "rounds", 0, "answer_options", 1), True),
     r"dialog 0 \(image_id 7\) round 1: answer option index out of range"),
    (_set(("dialogs", 0, "rounds", 0, "gt_index"), False),
     r"dialog 0 \(image_id 7\) round 1: gt_index out of range"),
], ids=["round-not-object", "rounds-int", "questions-int", "dialogs-int",
        "answer-options-int", "caption-int", "answer-option-bool", "gt-index-bool"])
def test_load_dataset_wrong_json_types_raise_load_error(mutate, message):
    payload = minimal_payload()
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    mutate(payload)
    with pytest.raises(text.LoadError, match=message):
        text.dataset_from_payload(payload, vocab)


def _delete(path):
    """Payload mutator: delete the item at ``path``."""
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set(("dialogs", 0, "rounds", 0, "question"), 10**6),
     r"dialog 0 \(image_id 7\) round 1: question index out of range"),
    (_delete(("dialogs", 0, "rounds", 1, "answer")),
     r"dialog 0 \(image_id 7\) round 2: answer index out of range"),
    (_set(("dialogs", 0, "rounds"), "oops"), r"dialog 0 \(image_id 7\): rounds must be a list of"),
    (_set(("dialogs", 0, "caption"), 5), r"dialog 0 \(image_id 7\): caption must be a string"),
    (_set(("dialogs",), "oops"), "dataset needs a 'dialogs' list"),
    (_set(("questions", 1), 3), "questions pool must hold strings"),
    (_set(("dialogs", 0, "image_id"), True), "dialog 0: image_id must be an integer"),
    (_set(("dialogs", 0, "rounds", 1, "question"), True),
     r"dialog 0 \(image_id 7\) round 2: question index out of range"),
], ids=["question-index-huge", "answer-missing", "rounds-string", "caption-int",
        "dialogs-string", "question-pool-int", "image-id-bool", "question-bool"])
def test_vocab_corpus_checks_the_payload_as_the_loader_does(mutate, message):
    payload = minimal_payload()
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    mutate(payload)
    with pytest.raises(text.LoadError, match=message):
        text.build_vocab(text.corpus_from_payload(payload))
    with pytest.raises(text.LoadError, match=message):
        text.dataset_from_payload(payload, vocab)


def test_vocab_corpus_rejects_a_root_that_is_not_an_object():
    with pytest.raises(text.LoadError, match="dataset root must be an object"):
        text.build_vocab(text.corpus_from_payload([minimal_payload()]))


def test_question_fields_without_question_options_are_ignored():
    payload = minimal_payload()
    payload["dialogs"][0]["rounds"][0].update(question_gt_index="x", question_provenance=5)
    ds = text.dataset_from_payload(payload, text.build_vocab(text.corpus_from_payload(payload)))
    rnd = ds.records[0].rounds[0]
    assert rnd.question_options is rnd.question_gt_index is rnd.question_provenance is None


def test_vocab_corpus_tokenizes_each_pool_string_once(monkeypatch):
    payload, _ = memorize_family(n_dialogs=3)
    questions, answers = payload["questions"], payload["answers"]
    want = []  # one token list per caption, question and answer occurrence
    for dialog in payload["dialogs"]:
        want.append(text.tokenize(dialog["caption"]))
        for r in dialog["rounds"]:
            want += [text.tokenize(questions[r["question"]]), text.tokenize(answers[r["answer"]])]
    calls = []
    tokenize = text.tokenize
    monkeypatch.setattr(text, "tokenize", lambda s: calls.append(s) or tokenize(s))
    assert list(text.corpus_from_payload(payload)) == want
    captions = [dialog["caption"] for dialog in payload["dialogs"]]
    assert sorted(calls) == sorted(questions + answers + captions)


def fuzz_payload():
    """``minimal_payload`` with a second dialog and follow-up candidates on
    round 1, so every field either loader reads is present."""
    payload = minimal_payload()
    payload["task"] = "visdial-q"
    payload["dialogs"][0]["rounds"][0].update(
        question_options=[1, 0], question_gt_index=0,
        question_provenance=["correct", "random"])
    payload["dialogs"].append(dict(json.loads(json.dumps(payload["dialogs"][0])),
                                   image_id=8))
    return payload


def json_items(node, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_items(child, path + (key,))


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.sampled_from(["question", "answer", "x"]), st.integers(0, 2),
                    max_size=2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_payloads_load_or_raise_load_error(data):
    # a wrong JSON type anywhere, a deleted key, an out-of-range or negative
    # index, or a bool for an int: both loaders either load or raise LoadError
    payload = fuzz_payload()
    assert text.dataset_from_payload(payload, text.build_vocab(
        text.corpus_from_payload(payload))).task == "visdial-q"
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["type", "delete", "index", "bool"]), label="kind")
        items = list(json_items(payload))
        if kind == "delete":
            items = [(p, v) for p, v in items if p and isinstance(p[-1], str)]
        elif kind != "type":
            items = [(p, v) for p, v in items if type(v) is int]
        if not items:
            continue
        path, old = data.draw(st.sampled_from(items), label="path")
        if kind == "type":
            new = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        elif kind == "index":
            new = data.draw(st.one_of(st.integers(-10**6, -1), st.integers(2, 10**6)))
        elif kind == "bool":
            new = data.draw(st.booleans())
        if not path:
            payload = new
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    try:
        vocab = text.build_vocab(text.corpus_from_payload(payload))
        text.dataset_from_payload(payload, vocab)
    except text.LoadError:
        pass


def test_load_dataset_order_independent():
    payload, _ = memorize_family(n_dialogs=4)
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    ds1 = text.dataset_from_payload(payload, vocab)
    payload["dialogs"] = payload["dialogs"][::-1]
    ds2 = text.dataset_from_payload(payload, vocab)
    by_id1 = {r.image_id: r for r in ds1.records}
    by_id2 = {r.image_id: r for r in ds2.records}
    assert set(by_id1) == set(by_id2)
    for image_id, rec in by_id1.items():
        other = by_id2[image_id]
        assert rec.caption_ids == other.caption_ids
        assert ([ds1.question_ids[r.question] for r in rec.rounds]
                == [ds2.question_ids[r.question] for r in other.rounds])


def test_every_encoded_sequence_ends_in_stop():
    payload, _ = memorize_family(n_dialogs=3)
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    ds = text.dataset_from_payload(payload, vocab)
    for seq in ds.question_ids + ds.answer_ids:
        assert seq[-1] == vocab.stop_id
        assert vocab.stop_id not in seq[:-1]


def test_dataset_load_tokenizes_each_pool_string_and_caption_once(monkeypatch):
    payload, _ = memorize_family(n_dialogs=3)
    vocab = text.build_vocab(text.corpus_from_payload(payload))
    calls = []
    tokenize = text.tokenize
    monkeypatch.setattr(text, "tokenize", lambda s: calls.append(s) or tokenize(s))
    ds = text.dataset_from_payload(payload, vocab, max_question_words=3)
    assert len(calls) == (len(payload["questions"]) + len(payload["answers"])
                          + len(payload["dialogs"]))
    # the pool encodings are those the rounds' examples score, at the loader's length
    examples = examples_from_dataset(ds, None, "visdial", "q", ModelDims.for_task("visdial"))
    assert len(examples) == 10 * len(ds.records)
    for ex in examples:
        record = ds.by_image[ex.image_id]
        rnd = record.rounds[ex.round_no - 1]
        assert ex.question_ids is ds.question_ids[rnd.question]
        assert ex.option_ids[ex.gt_index] == ds.answer_ids[rnd.answer]
        for (q_ids, a_ids), past in zip(ex.history, record.rounds[: ex.round_no - 1],
                                        strict=True):
            assert q_ids is ds.question_ids[past.question]
            assert a_ids is ds.answer_ids[past.answer]
    assert max(len(ids) for ids in ds.question_ids) <= 4


# ---------------------------------------------------------------------------
# word vectors and image features
# ---------------------------------------------------------------------------


def test_glove_roundtrip(tmp_path):
    vectors = {"cat": np.array([1.0, 2.0]), "dog": np.array([-0.5, 0.25])}
    path = tmp_path / "glove.txt"
    text.write_glove(path, vectors)
    table = text.load_glove(path)
    assert table.dim == 2
    assert np.array_equal(table.get("cat"), [1.0, 2.0])
    assert table.get("zebra") is None


def test_glove_rejects_ragged_dims(tmp_path):
    path = tmp_path / "glove.txt"
    path.write_text("cat 1.0 2.0\ndog 3.0\n")
    with pytest.raises(text.LoadError):
        text.load_glove(path)


@pytest.mark.parametrize("content, message", [
    ("", "word-vector table is empty"),
    ("\n  \n\n", "word-vector table is empty"),
    ("cat 1.0 2.0\n\ncat 3.0 4.0\n", "line 3: duplicate word 'cat'"),
    ("cat 1.0 two\n", "line 1: could not convert string to float: 'two'"),
    ("cat\n", "line 1: no components"),
], ids=["empty", "blank-lines", "duplicate-word", "not-a-number", "no-components"])
def test_glove_file_without_one_vector_per_word_raises_load_error(tmp_path, content, message):
    path = tmp_path / "glove.txt"
    path.write_text(content)
    with pytest.raises(text.LoadError, match=message):
        text.load_glove(path)


def test_write_features_refuses_mixed_dimensions(tmp_path):
    path = tmp_path / "feat.bin"
    with pytest.raises(ValueError, match="feature vectors disagree on dimension"):
        text.write_features(path, {1: np.ones(3), 2: np.ones(4)})
    assert not path.exists()


def test_features_roundtrip_and_normalization(tmp_path):
    path = tmp_path / "feat.bin"
    text.write_features(path, {5: np.array([2.0, 0.0, 0.0]), 9: np.array([1.0, 1.0, 1.0])})
    store = text.load_features(path)
    assert store.dim == 3
    assert np.allclose(store.get(5), [1.0, 0.0, 0.0])
    assert abs(np.linalg.norm(store.get(9)) - 1.0) < 1e-6


def test_features_reject_zero_norm(tmp_path):
    path = tmp_path / "feat.bin"
    text.write_features(path, {5: np.zeros(3)})
    with pytest.raises(text.LoadError, match="image 5"):
        text.load_features(path)


def test_features_reject_bad_magic(tmp_path):
    path = tmp_path / "feat.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(text.LoadError, match="magic"):
        text.load_features(path)


def test_features_cut_inside_header_raises_load_error(tmp_path):
    path = tmp_path / "feat.bin"
    path.write_bytes(text.FEATURE_MAGIC + struct.pack("<I", 1))
    with pytest.raises(text.LoadError, match="feature file header truncated"):
        text.load_features(path)


def test_features_with_no_vectors_raise_load_error(tmp_path):
    path = tmp_path / "feat.bin"
    path.write_bytes(text.FEATURE_MAGIC + (0).to_bytes(4, "little") + (3).to_bytes(4, "little"))
    with pytest.raises(text.LoadError, match="feature file holds no vectors"):
        text.load_features(path)


def test_features_header_larger_than_file_raises_before_reading(tmp_path):
    path = tmp_path / "feat.bin"
    text.write_features(path, {5: np.ones(3), 9: np.ones(3)})
    data = bytearray(path.read_bytes())
    data[8:12] = (2**32 - 1).to_bytes(4, "little")  # dim: rows of 16 GB each
    path.write_bytes(bytes(data))
    with pytest.raises(text.LoadError, match="feature row 0: truncated"):
        text.load_features(path)


def test_features_are_one_read_only_matrix():
    store = feature_store({9: np.array([1.0, 1.0]), 5: np.array([2.0, 0.0])})
    assert store.id_array.tolist() == [5, 9]
    assert np.array_equal(store.matrix, [store.get(5), store.get(9)])
    assert np.shares_memory(store.get(9), store.matrix)
    with pytest.raises(ValueError):
        store.get(5)[0] = 1.0
    with pytest.raises(ValueError):
        store.matrix[1, 1] = 0.0
    with pytest.raises(text.LoadError, match="image 7: no feature vector"):
        store.get(7)


def edit_features(path, pos, raw: bytes):
    data = bytearray(path.read_bytes())
    data[pos : pos + len(raw)] = raw
    path.write_bytes(bytes(data))


def test_feature_file_row_errors_name_the_row(tmp_path):
    path = tmp_path / "feat.bin"
    vectors = {5: np.ones(3), 9: np.ones(3), 11: np.ones(3)}
    row_bytes = 8 + 4 * 3
    text.write_features(path, vectors)
    edit_features(path, 12 + 2 * row_bytes, (9).to_bytes(8, "little", signed=True))
    with pytest.raises(text.LoadError, match="feature row 2: duplicate image_id 9"):
        text.load_features(path)
    text.write_features(path, vectors)
    edit_features(path, 12 + row_bytes + 8 + 4, np.array([np.inf], "<f4").tobytes())
    with pytest.raises(text.LoadError, match="image 9: feature vector has zero or non-finite"):
        text.load_features(path)
    text.write_features(path, vectors)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(text.LoadError, match="trailing bytes"):
        text.load_features(path)
    text.write_features(path, vectors)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(text.LoadError, match="feature row 2: truncated"):
        text.load_features(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cut", [0, 1])
def test_features_read_through_a_pipe(tmp_path, cut):
    # a pipe cannot seek or report its size; it loads, or fails with LoadError
    path = tmp_path / "feat.bin"
    text.write_features(path, {5: np.array([2.0, 0.5, 0.0]), 9: np.array([1.0, 1.0, 1.0])})
    data = path.read_bytes()[: -cut or None]
    fifo = tmp_path / "feat.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        if cut:
            with pytest.raises(text.LoadError, match="feature row 1: truncated"):
                text.load_features(fifo)
        else:
            store = text.load_features(fifo)
            assert np.array_equal(store.matrix, text.load_features(path).matrix)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def test_glove_non_utf8_raises_load_error_naming_the_line(tmp_path):
    path = tmp_path / "glove.txt"
    path.write_bytes("café 1.0 2.0\n".encode() + b"dog\xff 3.0 4.0\n")
    with pytest.raises(text.LoadError, match="line 2: not UTF-8"):
        text.load_glove(path)


@pytest.mark.parametrize("line", ["cat nan 1.0", "cat 1e999 2.0", "cat 1.0 -inf"])
def test_glove_non_finite_raises_load_error_naming_the_line(tmp_path, line):
    path = tmp_path / "glove.txt"
    path.write_text("dog 3.0 4.0\n" + line + "\n")
    with pytest.raises(text.LoadError, match="line 2: non-finite"):
        text.load_glove(path)


def corrupt(data: bytes, edits) -> bytes:
    for kind, pos, payload in edits:
        if kind == "truncate":
            data = data[: pos % (len(data) + 1)]
        elif kind == "flip" and data:
            i = pos % len(data)
            data = data[:i] + bytes([data[i] ^ (payload[0] or 0x80)]) + data[i + 1 :]
        else:
            data += payload
    return data


@functools.cache
def small_qdataset():
    """A built follow-up-question dataset, so options and provenance get
    fuzzed too: two dialogs with six-candidate sets, and its vocabulary."""
    payload, _ = memorize_family(n_dialogs=2, k_options=4)
    dataset = load_payload(payload)
    glove = text.GloveTable({w: np.asarray(v) for w, v in toy_glove(payload).items()})
    built = qdataset.build_qdataset_payload(dataset, glove, seed=0, n_plausible=2,
                                            n_popular=2, pool_size=6)
    return text.dataset_json_bytes(built), dataset.vocab


def write_valid(fmt, path):
    if fmt == "dataset":
        blob, vocab = small_qdataset()
        path.write_bytes(blob)
        return lambda p: text.dataset_from_payload(text.read_dataset(p), vocab)
    if fmt == "features":
        text.write_features(path, {5: np.array([2.0, 0.5, 0.0]), 9: np.array([1.0, 1.0, 1.0])})
        return text.load_features
    text.write_glove(path, {"cat": np.array([1.0, 2.0]), "café": np.array([-0.5, 0.25])})
    return text.load_glove


@pytest.mark.parametrize("fmt", ["features", "glove", "dataset"])
@settings(max_examples=200, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["truncate", "flip", "append"]),
                                st.integers(0, 2**16), st.binary(min_size=1, max_size=12)),
                      min_size=1, max_size=4))
def test_corrupt_files_load_or_raise_load_error(tmp_path_factory, fmt, edits):
    # truncated, byte-flipped and extended files either load or raise LoadError
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    load = write_valid(fmt, path)
    path.write_bytes(corrupt(path.read_bytes(), edits))
    try:
        loaded = load(path)
    except text.LoadError:
        return
    if fmt == "glove":  # every table that loads holds finite vectors only
        assert all(np.isfinite(loaded.get(w)).all() for w in loaded._vectors)
