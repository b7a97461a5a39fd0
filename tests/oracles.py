"""Independent straight-line reference implementations used as test oracles.

Nothing here shares code with the package beyond the Adam and batch-norm
constants of ``nn``; each oracle recomputes its answer from first principles
so it can catch implementation bugs on the main path.
"""

import re
from collections import Counter

import numpy as np

from dialogrank import nn


def oracle_tokenize(s):
    """Lowercase, put a space on each side of ? , . ! ' with a regex, split on
    whitespace."""
    return re.sub(r"([?,.!'])", r" \1 ", s.lower()).split()


def oracle_rank(scores, gt):
    """Sort-based rank with pessimistic ties: the gt sorts after every tied
    competitor."""
    order = sorted(range(len(scores)),
                   key=lambda j: (-scores[j], 0 if j != gt else 1))
    return order.index(gt) + 1


def oracle_candidate_set(payload, image_id, round_t, glove_dict, seed,
                         n_plausible=50, n_popular=30, pool_size=100):
    """Four-source follow-up-question mining, re-derived rule by rule."""
    punct = {"?", ",", ".", "!", "'"}
    questions = payload["questions"]
    answers = payload["answers"]
    d = len(next(iter(glove_dict.values())))

    def words_of(s):
        return [t for t in oracle_tokenize(s) if t not in punct]

    def qkey(s):
        ws = words_of(s)
        parts = []
        for i in range(3):
            if i < len(ws) and ws[i] in glove_dict:
                parts.append(np.asarray(glove_dict[ws[i]], float))
            else:
                parts.append(np.zeros(d))
        rest = ws[3:]
        tail = np.zeros(d)
        for w in rest:
            if w in glove_dict:
                tail = tail + np.asarray(glove_dict[w], float)
        if rest:
            tail = tail / len(rest)
        parts.append(tail)
        return np.concatenate(parts)

    def akey(s):
        ws = words_of(s)
        total, n = np.zeros(d), 0
        for w in ws:
            if w in glove_dict:
                total = total + np.asarray(glove_dict[w], float)
                n += 1
        return total / n if n else total

    pairs = []  # (image_id, round_no, key, follow-up string or None)
    for dialog in payload["dialogs"]:
        for t, rnd in enumerate(dialog["rounds"], start=1):
            key = np.concatenate([qkey(questions[rnd["question"]]),
                                  akey(answers[rnd["answer"]])])
            follow = (questions[dialog["rounds"][t]["question"]]
                      if t < 10 else None)
            pairs.append((dialog["image_id"], t, key, follow))

    dialog = next(dd for dd in payload["dialogs"] if dd["image_id"] == image_id)
    query = dialog["rounds"][round_t - 1]
    qvec = np.concatenate([qkey(questions[query["question"]]),
                           akey(answers[query["answer"]])])

    ranked = sorted(
        ((float(np.linalg.norm(k - qvec)), img, rno, follow)
         for img, rno, k, follow in pairs
         if img != image_id and rno < 10),
        key=lambda item: item[:3])
    plausible = [item[3] for item in ranked[:n_plausible]]

    freq = {}
    for dd in payload["dialogs"]:
        for rnd in dd["rounds"]:
            s = questions[rnd["question"]]
            freq[s] = freq.get(s, 0) + 1
    popular = sorted(freq, key=lambda s: (-freq[s], s))[:n_popular]

    picked = []
    seen = set()

    def push(s, label):
        if s not in seen:
            seen.add(s)
            picked.append((s, label))

    push(questions[dialog["rounds"][round_t]["question"]], "correct")
    for s in plausible:
        push(s, "plausible")
    for s in popular:
        push(s, "popular")
    rng = np.random.default_rng([seed, image_id, round_t])
    del picked[pool_size:]
    while len(picked) < pool_size:
        push(questions[int(rng.integers(0, len(questions)))], "random")
    perm = rng.permutation(pool_size)
    shuffled = [picked[i] for i in perm]
    gt = next(i for i, (_, label) in enumerate(shuffled) if label == "correct")
    return shuffled, gt


def oracle_nearest_images(features, image_id, n):
    """Per-vector scan of every other image: np.linalg.norm(v - q) each,
    ties broken by id."""
    query = features.get(image_id)
    others = features.id_array[features.id_array != image_id]
    if others.size == 0:
        return []
    dists = np.array([np.linalg.norm(features.get(int(i)) - query) for i in others])
    order = np.lexsort((others, dists))
    return [int(others[i]) for i in order[:n]]


def oracle_find_plausible(query_key, query_image_id, corpus, k=50):
    """Copy every usable key row (other image, not round 10), take the row
    norms of the copy minus the query, rank by (dist, image_id, round).
    Returns corpus rows."""
    idx = np.flatnonzero((corpus.image_ids != query_image_id) & (corpus.round_nos < 10))
    if idx.size == 0:
        return []
    matrix = np.stack([corpus.matrix[i] for i in idx])
    dists = np.linalg.norm(matrix - query_key, axis=1)
    order = np.lexsort((corpus.round_nos[idx], corpus.image_ids[idx], dists))
    return [int(idx[i]) for i in order[:k]]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def oracle_lstm_encode(enc, xs):
    """One sequence xs [T, input_dim] through ``enc`` a step at a time, one
    matrix-vector product per step. Returns (h, cache)."""
    xs = np.asarray(xs, dtype=np.float64)
    steps = xs.shape[0]
    L = enc.hidden_dim
    W, b = enc.weight.value, enc.bias.value
    h = np.zeros(L)
    c = np.zeros(L)
    xh = np.empty((steps, enc.input_dim + L))
    gi = np.empty((steps, L))
    gf = np.empty((steps, L))
    go = np.empty((steps, L))
    gg = np.empty((steps, L))
    c_prev = np.empty((steps, L))
    tc = np.empty((steps, L))
    for t in range(steps):
        xh[t, : enc.input_dim] = xs[t]
        xh[t, enc.input_dim :] = h
        z = W @ xh[t] + b
        gi[t] = _sigmoid(z[:L])
        gf[t] = _sigmoid(z[L : 2 * L])
        go[t] = _sigmoid(z[2 * L : 3 * L])
        gg[t] = np.tanh(z[3 * L :])
        c_prev[t] = c
        c = gf[t] * c + gi[t] * gg[t]
        tc[t] = np.tanh(c)
        h = go[t] * tc[t]
    assert np.all(np.isfinite(h))
    return h, (xh, gi, gf, go, gg, c_prev, tc)


def oracle_lstm_backward(enc, cache, dh_last):
    """Backward through time of oracle_lstm_encode, one rank-1 weight-gradient
    update per step; accumulates into enc's grads and returns dxs [T, input_dim]."""
    xh, gi, gf, go, gg, c_prev, tc = cache
    steps = xh.shape[0]
    E, L = enc.input_dim, enc.hidden_dim
    W = enc.weight.value
    dW = enc.weight.grad
    db = enc.bias.grad
    dxs = np.empty((steps, E))
    dh = np.array(dh_last, dtype=np.float64, copy=True)
    dc = np.zeros(L)
    dz = np.empty(4 * L)
    for t in range(steps - 1, -1, -1):
        do = dh * tc[t]
        dc += dh * go[t] * (1.0 - tc[t] * tc[t])
        di = dc * gg[t]
        df = dc * c_prev[t]
        dg = dc * gi[t]
        dz[:L] = di * gi[t] * (1.0 - gi[t])
        dz[L : 2 * L] = df * gf[t] * (1.0 - gf[t])
        dz[2 * L : 3 * L] = do * go[t] * (1.0 - go[t])
        dz[3 * L :] = dg * (1.0 - gg[t] * gg[t])
        dW += np.outer(dz, xh[t])
        db += dz
        dxh = W.T @ dz
        dxs[t] = dxh[:E]
        dh = dxh[E:]
        dc *= gf[t]
    return dxs


def oracle_adam_step(params, cfg):
    """Bias-corrected Adam with the textbook temporaries; zeroes grads afterwards."""
    for p in params:
        t = p.step_count + 1
        g = p.grad
        p.m *= nn.ADAM_BETA1
        p.m += (1.0 - nn.ADAM_BETA1) * g
        p.v *= nn.ADAM_BETA2
        p.v += (1.0 - nn.ADAM_BETA2) * g * g
        m_hat = p.m / (1.0 - nn.ADAM_BETA1**t)
        v_hat = p.v / (1.0 - nn.ADAM_BETA2**t)
        p.value -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPSILON)
        p.step_count = t
        p.grad.fill(0.0)


def oracle_adam_step_in_place(params, cfg):
    """The unblocked in-place Adam: each ufunc over whole arrays, grad as
    scratch, then one pass zeroing the grad."""
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    for p in params:
        t = p.step_count + 1
        g = p.grad
        p.m *= b1
        p.m += np.multiply(g, 1.0 - b1, out=g)  # g now holds (1 - b1) * grad
        p.v *= b2
        p.v += np.multiply(np.square(g, out=g), (1.0 - b2) / (1.0 - b1) ** 2, out=g)
        np.sqrt(np.divide(p.v, 1.0 - b2**t, out=g), out=g)
        g += nn.ADAM_EPSILON
        g *= (1.0 - b1**t) / cfg.learning_rate
        p.value -= np.divide(p.m, g, out=g)  # lr * m_hat / (sqrt(v_hat) + eps)
        p.step_count = t
        p.grad.fill(0.0)


def _oracle_mlp_rows(mlp, rows, train):
    """Hidden layers (linear -> batch norm -> ReLU) and the output layer over
    fused rows. Returns (scores, per-layer caches, last hidden, running stats)."""
    x = rows
    caches, running = [], []
    for lin, bn in zip(mlp.layers[:-1:2], mlp.layers[1::2]):
        z = x @ lin.weight.value.T + lin.bias.value
        if train:
            mean, var = z.mean(axis=0), z.var(axis=0)
            m = nn.BN_MOMENTUM
            running.append(((1.0 - m) * bn.running_mean + m * mean,
                            (1.0 - m) * bn.running_var + m * var))
        else:
            mean, var = bn.running_mean, bn.running_var
        inv = 1.0 / np.sqrt(var + nn.BN_EPSILON)
        xhat = (z - mean) * inv
        h = bn.gamma.value * xhat + bn.beta.value
        caches.append((x, xhat, inv, h))
        x = np.maximum(h, 0.0)
    out = mlp.layers[-1]
    scores = (x @ out.weight.value.T + out.bias.value)[:, 0]
    return scores, caches, x, running


def oracle_fused_mlp(mlp, ctx, opts, offsets, option_of_row, train, dscores=None):
    """The fused-row scorer: each candidate row is ctx[e] | opts[option_of_row[r]]
    (r in offsets[e] : offsets[e + 1]), built in full and multiplied by the
    whole first-layer weight. Eval pushes each row through on its own. Reads
    ``mlp``'s values and changes nothing. Returns (scores, running, grads,
    dctx, dopts): running holds the updated (mean, var) of each norm in train
    mode; grads (name -> array), dctx and dopts need ``dscores``."""
    example_of_row = np.repeat(np.arange(len(ctx)), np.diff(offsets))
    rows = np.concatenate([ctx[example_of_row], opts[option_of_row]], axis=1)
    if not train:
        scores = np.array([_oracle_mlp_rows(mlp, rows[i : i + 1], False)[0][0]
                           for i in range(len(rows))])
        return scores, [], None, None, None
    scores, caches, last, running = _oracle_mlp_rows(mlp, rows, True)
    if dscores is None:
        return scores, running, None, None, None
    dy = np.asarray(dscores, dtype=np.float64)[:, None]
    out = mlp.layers[-1]
    grads = {out.weight.name: dy.T @ last, out.bias.name: dy.sum(axis=0)}
    dx = dy @ out.weight.value
    for (x, xhat, inv, h), lin, bn in reversed(list(zip(caches, mlp.layers[:-1:2],
                                                        mlp.layers[1::2]))):
        dh = dx * (h > 0.0)
        grads[bn.gamma.name] = (dh * xhat).sum(axis=0)
        grads[bn.beta.name] = dh.sum(axis=0)
        dxhat = dh * bn.gamma.value
        n = len(xhat)
        dz = inv / n * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        grads[lin.weight.name] = dz.T @ x
        grads[lin.bias.name] = dz.sum(axis=0)
        dx = dz @ lin.weight.value
    split = ctx.shape[1]
    dctx = np.zeros_like(ctx)
    np.add.at(dctx, example_of_row, dx[:, :split])
    dopts = np.zeros_like(opts)
    np.add.at(dopts, option_of_row, dx[:, split:])
    return scores, running, grads, dctx, dopts


def oracle_candidate_scores(mlp, ctx_z, opts, offsets, option_of_row):
    """The eval forward of a FusionMlp after its context term, every stage over
    whole arrays: the option term plus each row's example's context term
    ``ctx_z`` [B, out] plus the bias, then batch norm with the running statistics
    and ReLU over all [N, width] rows, then the next layer. The products run on
    ``nn.ROWS``-row blocks, as in eval. Reads ``mlp`` and changes nothing."""
    h0 = mlp.layers[0]
    W = h0.weight.value
    z = nn.project(opts, W[:, W.shape[1] - opts.shape[1] :], nn.ROWS)[option_of_row]
    z += np.repeat(ctx_z, np.diff(offsets), axis=0)
    z += h0.bias.value
    for bn, lin in zip(mlp.layers[1::2], mlp.layers[2::2]):
        xhat = (z - bn.running_mean) * (1.0 / np.sqrt(bn.running_var + nn.BN_EPSILON))
        x = np.maximum(bn.gamma.value * xhat + bn.beta.value, 0.0)
        z = nn.project(x, lin.weight.value, nn.ROWS) + lin.bias.value
    return z[:, 0]


def oracle_project(x, weight):
    """x @ weight.T with every row its own one-row product: the eval rule
    before fixed row blocks."""
    out = np.empty((len(x), weight.shape[0]))
    for i in range(len(x)):
        out[i : i + 1] = x[i : i + 1] @ weight.T
    return out


def oracle_score_example(model, ex):
    """Eval scores of one round, one sequence per LSTM call (oracle_lstm_encode)
    and one row per product: query | image | caption | history slots (empty
    pairs padding the missing rounds) form the context, and each fused row runs
    through the MLP on its own (oracle_fused_mlp). Reads ``model`` and changes nothing."""
    def encode(name, ids):
        path = model.paths[name]
        return oracle_lstm_encode(path.lstm, path.embed.weight.value[:, list(ids)].T)[0]

    blocks = [encode("query", list(ex.question_ids) + list(ex.query_answer_ids or []))]
    if model.variant != "q":
        blocks.append(ex.image_vec)
    if model.variant == "qih":
        blocks.append(encode("caption", ex.caption_ids))
        pad = [model.vocab.empty_id, model.vocab.stop_id]
        pairs = ex.history + [(pad, pad)] * (model.dims.history_slots - len(ex.history))
        rows = np.array([np.concatenate([encode("history_q", q), encode("history_a", a)])
                         for q, a in pairs])
        lin, bn = model.pair_combine, model.pair_bn
        z = oracle_project(rows, lin.weight.value) + lin.bias.value
        xhat = (z - bn.running_mean) / np.sqrt(bn.running_var + nn.BN_EPSILON)
        blocks.append(np.maximum(bn.gamma.value * xhat + bn.beta.value, 0.0).ravel())
    ctx = np.concatenate(blocks)[None]
    opts = np.array([encode("option", ids) for ids in ex.option_ids])
    k = len(opts)
    return oracle_fused_mlp(model.mlp, ctx, opts, [0, k], np.arange(k), train=False)[0]


# ---------------------------------------------------------------------------
# dataset ingestion: every check in its documented order, with its message
# ---------------------------------------------------------------------------

RESERVED_WORDS = ("<stop>", "<empty>", "<unk>")
PROVENANCE_LABELS = ("correct", "plausible", "popular", "random")


class OracleLoadError(Exception):
    """A failed check of the oracle loaders; ``LoadError`` must carry its message."""


def _oracle_require(cond, message):
    if not cond:
        raise OracleLoadError(message)


def _oracle_indices(values, size):
    return all(type(v) is int and 0 <= v < size for v in values)


def _oracle_pools(payload):
    _oracle_require(isinstance(payload, dict), "dataset root must be an object")
    for key in ("questions", "answers", "dialogs"):
        _oracle_require(isinstance(payload.get(key), list), f"dataset needs a {key!r} list")
    questions = payload["questions"]
    answers = payload["answers"]
    _oracle_require(all(isinstance(q, str) for q in questions),
                    "questions pool must hold strings")
    _oracle_require(all(isinstance(a, str) for a in answers), "answers pool must hold strings")
    return questions, answers


def _oracle_dialogs(payload, questions, answers):
    """(where, image_id, caption, [(where, round, question, answer)]) per dialog,
    each yielded once its dialog-level and index checks pass."""
    for d, dialog in enumerate(payload["dialogs"]):
        where = f"dialog {d}"
        _oracle_require(isinstance(dialog, dict), f"{where}: must be an object")
        image_id = dialog.get("image_id")
        _oracle_require(type(image_id) is int, f"{where}: image_id must be an integer")
        where = f"dialog {d} (image_id {image_id})"
        caption = dialog.get("caption", "")
        _oracle_require(isinstance(caption, str), f"{where}: caption must be a string")
        rounds_raw = dialog.get("rounds", [])
        _oracle_require(isinstance(rounds_raw, list)
                        and all(isinstance(r, dict) for r in rounds_raw),
                        f"{where}: rounds must be a list of objects")
        rounds = []
        for t, r in enumerate(rounds_raw, start=1):
            rwhere = f"{where} round {t}"
            qi, ai = r.get("question"), r.get("answer")
            _oracle_require(type(qi) is int and 0 <= qi < len(questions),
                            f"{rwhere}: question index out of range")
            _oracle_require(type(ai) is int and 0 <= ai < len(answers),
                            f"{rwhere}: answer index out of range")
            rounds.append((rwhere, r, qi, ai))
        yield where, image_id, caption, rounds


def oracle_corpus_from_payload(payload):
    """Token lists of every caption, question and answer occurrence."""
    questions, answers = _oracle_pools(payload)
    for _, _, caption, rounds in _oracle_dialogs(payload, questions, answers):
        yield oracle_tokenize(caption)
        for _, _, qi, ai in rounds:
            yield oracle_tokenize(questions[qi])
            yield oracle_tokenize(answers[ai])


def oracle_build_vocab(corpus, min_count=1):
    """Vocabulary words: reserved first, then by descending count, ties by word."""
    counts = Counter()
    seen_any = False
    for tokens in corpus:
        seen_any = True
        for token in tokens:
            counts[token] += 1
    if not seen_any:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    kept = sorted((w for w, c in counts.items() if c >= min_count and w not in RESERVED_WORDS),
                  key=lambda w: (-counts[w], w))
    return list(RESERVED_WORDS) + kept


def oracle_dataset_from_payload(payload, words, max_question_words=20, max_answer_words=20,
                                max_caption_words=40):
    """The loaded dataset as plain values: task, pools, pool encodings, and per
    dialog its image id, caption, caption encoding and rounds (each a dict of
    ``DialogRound``'s fields), under the vocabulary ``words``."""
    ids = {w: i for i, w in enumerate(words)}

    def encode(text, cap):
        return [ids.get(w, ids["<unk>"]) for w in oracle_tokenize(text)[:cap]] + [ids["<stop>"]]

    questions, answers = _oracle_pools(payload)
    task = payload.get("task", "visdial")
    _oracle_require(task in ("visdial", "visdial-q"), f"unknown task {task!r}")
    records = []
    seen_images = set()
    for where, image_id, caption, checked in _oracle_dialogs(payload, questions, answers):
        _oracle_require(image_id not in seen_images, f"{where}: duplicate image_id")
        seen_images.add(image_id)
        _oracle_require(len(checked) == 10, f"{where}: expected 10 rounds, got {len(checked)}")
        rounds = []
        for t, (rwhere, r, qi, ai) in enumerate(checked, start=1):
            opts = r.get("answer_options", [])
            _oracle_require(isinstance(opts, list), f"{rwhere}: answer_options must be a list")
            _oracle_require(_oracle_indices(opts, len(answers)),
                            f"{rwhere}: answer option index out of range")
            _oracle_require(len(set(opts)) == len(opts), f"{rwhere}: answer options not unique")
            gt = r.get("gt_index")
            _oracle_require(type(gt) is int and 0 <= gt < len(opts),
                            f"{rwhere}: gt_index out of range")
            _oracle_require(answers[opts[gt]] == answers[ai],
                            f"{rwhere}: gt option text differs from the round answer")
            q_opts = r.get("question_options")
            q_gt = r.get("question_gt_index")
            q_prov = r.get("question_provenance")
            if q_opts is not None:
                _oracle_require(isinstance(q_opts, list),
                                f"{rwhere}: question_options must be a list")
                _oracle_require(_oracle_indices(q_opts, len(questions)),
                                f"{rwhere}: question option index out of range")
                _oracle_require(len(set(q_opts)) == len(q_opts),
                                f"{rwhere}: question options not unique")
                _oracle_require(type(q_gt) is int and 0 <= q_gt < len(q_opts),
                                f"{rwhere}: question_gt_index out of range")
                _oracle_require(t < 10, f"{rwhere}: follow-up options on the last round")
                _oracle_require(questions[q_opts[q_gt]] == questions[checked[t][2]],
                                f"{rwhere}: gt follow-up differs from the next round's question")
                if q_prov is not None:
                    _oracle_require(isinstance(q_prov, list) and len(q_prov) == len(q_opts),
                                    f"{rwhere}: provenance length mismatch")
                    _oracle_require(all(p in PROVENANCE_LABELS for p in q_prov),
                                    f"{rwhere}: unknown provenance label")
                    _oracle_require(q_prov.count("correct") == 1,
                                    f"{rwhere}: exactly one candidate must be labelled correct")
            else:
                q_gt = q_prov = None
            rounds.append({
                "question": qi, "answer": ai, "answer_options": list(opts), "gt_index": gt,
                "question_options": list(q_opts) if q_opts is not None else None,
                "question_gt_index": q_gt,
                "question_provenance": list(q_prov) if q_prov is not None else None})
        records.append((image_id, caption, encode(caption, max_caption_words), rounds))
    return {"task": task, "questions": list(questions), "answers": list(answers),
            "question_ids": [encode(q, max_question_words) for q in questions],
            "answer_ids": [encode(a, max_answer_words) for a in answers],
            "records": records}
