"""Exactness of the two corpus searches against their brute-force oracles.

Both searches share one search, ``qdataset.nearest_rows``: product-form
squared distances of a block of queries from one matrix product, each query
keeping the rows within a derived margin of its own cut, and the exact
distance only for the rows of a near-tie chain (consecutive prefilter values
within that margin). ``nearest_images`` runs it for one query with the
per-vector norm; ``find_plausible`` runs ``search_height`` queries per block
with a row-wise norm. Each case here compares the result with a
straight-line scan by list equality: ties at the cut (duplicated vectors and
keys), every interesting n or k, large corpora, keys whose common offset
makes the product cancel, and near-ties that a prefilter orders differently
from the exact formula across the cut. ``find_plausible`` is checked with
all queries in one block and in blocks of 1 and of 7, and for the rows it
takes exact norms of.
"""

import tracemalloc

import numpy as np
import pytest

from dialogrank import qdataset as qd
from dialogrank.qdataset import CorpusKeys
from dialogrank.text import ImageFeatureStore
from dialogrank.unroll import nearest_images
from oracles import oracle_find_plausible, oracle_nearest_images
from synth import feature_store


def counts(usable, cut):
    return (1, 10, usable - 1, usable, usable + 5) + cut


def check_nearest(store, queries, cut=()):
    usable = len(store) - 1
    for image_id in queries:
        for n in counts(usable, cut):
            want = oracle_nearest_images(store, image_id, n)
            assert nearest_images(store, image_id, n) == want, (image_id, n)
            assert nearest_images(store, image_id, n) == want, (image_id, n)  # memoised


def corpus_of(keys, rounds=10):
    """One row per key; rows fill dialogs of ``rounds`` rounds in order. Built
    from the arrays, not from a dataset: a dataset's QA keys are 5 d wide, and
    some of these keys are not."""
    row = np.arange(len(keys))
    corpus = CorpusKeys.__new__(CorpusKeys)
    corpus.matrix = keys
    corpus.image_ids = row // rounds
    corpus.round_nos = row % rounds + 1
    corpus.followups = np.where(corpus.round_nos < rounds, row, -1)
    corpus.sq_norms = np.einsum("ij,ij->i", keys, keys)
    return corpus


def check_plausible(corpus, queries, cut=()):
    keys = np.stack([query_key for query_key, _ in queries])
    images = [query_image for _, query_image in queries]
    ks = set(cut)
    for query_image in images:
        usable = int(np.count_nonzero((corpus.image_ids != query_image)
                                      & (corpus.round_nos < 10)))
        ks.update(counts(usable, ()))
    assert qd.search_height(len(corpus)) >= len(queries)  # one block by default
    for k in sorted(ks):
        want = [oracle_find_plausible(key, image, corpus, k) for key, image in queries]
        assert qd.find_plausible(keys, images, corpus, k) == want, k
        for height in (1, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qd, "SEARCH_BYTES", 8 * len(corpus) * height)
                assert qd.search_height(len(corpus)) == height
                assert qd.find_plausible(keys, images, corpus, k) == want, (k, height)


# ---------------------------------------------------------------------------
# nearest_images
# ---------------------------------------------------------------------------


def test_nearest_duplicated_vectors_break_ties_by_id():
    rng = np.random.default_rng(3)
    bases = rng.normal(size=(5, 6))
    picks = rng.integers(0, 5, size=40)
    ids = rng.permutation(1000)[:40].tolist()
    store = feature_store({i: bases[p] * (1 + j) for j, (i, p) in
                           enumerate(zip(ids, picks))})
    check_nearest(store, ids[:6])


def test_nearest_seeded_5k_store():
    rng = np.random.default_rng(5)
    store = feature_store({int(i): rng.normal(size=12)
                           for i in rng.permutation(50_000)[:5000]})
    check_nearest(store, store.id_array[::1250].tolist())


def near_tie_store(d, seeds):
    """The first seeded store where rows 1 and 2 = row 1 permuted are equally
    far from the constant query 0 in exact arithmetic, and sit behind four
    much nearer rows, yet the vectorised scan and the per-vector norm
    disagree on which of the two is nearer. Also returns the per-vector
    winner (ties go to the lower id)."""
    for seed in seeds:
        rng = np.random.default_rng([seed, d])
        a = rng.normal(size=d)
        perm = rng.permutation(d)
        vectors = {0: np.ones(d), 1: a, 2: a[perm]}
        for j in range(4):  # much nearer than the pair
            vectors[10 + j] = np.ones(d) + 0.01 * rng.normal(size=d)
        for j in range(6):  # much farther
            vectors[20 + j] = -np.ones(d) + 0.1 * rng.normal(size=d)
        store = feature_store(vectors)
        m = store.matrix
        if not np.array_equal(m[2], m[1][perm]):
            continue  # normalization rounded the two rows apart
        scanned = np.linalg.norm(m - m[0], axis=1)
        exact = [np.linalg.norm(m[i] - m[0]) for i in (1, 2)]
        exact_first = 1 if exact[0] <= exact[1] else 2
        if scanned[1] != scanned[2] and (1 if scanned[1] < scanned[2] else 2) != exact_first:
            return store, exact_first
    raise AssertionError("no near-tie found")


def test_nearest_near_tie_across_the_cut():
    store, exact_first = near_tie_store(12, range(2000))
    # the pair straddles the cut at n = 5: the scan alone would keep the other row
    assert oracle_nearest_images(store, 0, 5)[-1] == exact_first
    check_nearest(store, [0, 1, 2], cut=(5,))


def test_nearest_uncached_peak_stays_below_one_store_copy():
    rng = np.random.default_rng(9)
    n, d = 4000, 64
    store = ImageFeatureStore(np.arange(n), rng.normal(size=(n, d)))
    tracemalloc.start()
    try:
        got = nearest_images(store, 17, 10)  # first search: norms and memo built here
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == oracle_nearest_images(store, 17, 10)
    assert peak < n * d * 8, peak


# ---------------------------------------------------------------------------
# find_plausible
# ---------------------------------------------------------------------------


def test_plausible_block_peak_stays_within_search_bytes(monkeypatch):
    # 200 queries against 4000 keys do not fit one 1.6 MB block: they run as
    # four blocks of 50, and only one block's distances and mask are live
    rng = np.random.default_rng(10)
    corpus = corpus_of(rng.normal(size=(4000, 64)))
    monkeypatch.setattr(qd, "SEARCH_BYTES", 8 * 4000 * 50)
    queries = rng.normal(size=(200, 64))
    images = rng.integers(0, 400, size=200)
    corpus.matrix[0] @ queries[0]  # no one-off BLAS set-up inside the trace
    tracemalloc.start()
    try:
        got = qd.find_plausible(queries, images, corpus, 10)
        lists, peak = tracemalloc.get_traced_memory()  # the lists are the result
    finally:
        tracemalloc.stop()
    assert got[::40] == [oracle_find_plausible(queries[i], images[i], corpus, 10)
                         for i in range(0, 200, 40)]
    mask = 4000 * 50
    columns = 4000 * 8 * 4  # a few one-query temporaries
    assert peak - lists < qd.SEARCH_BYTES + mask + columns, (peak, lists)


def test_plausible_by_row_copies_wide_keys_within_search_bytes(monkeypatch):
    # 180 rows with a follow-up and 4000-wide keys (D > N): the [200, Q] distances
    # would allow one block of all 180 query keys, 5.8 MB; capped at
    # SEARCH_BYTES // (8 D) = 20 rows, each copied block holds 640 KB
    rng = np.random.default_rng(12)
    corpus = corpus_of(rng.normal(size=(200, 4000)))
    monkeypatch.setattr(qd, "SEARCH_BYTES", 8 * 4000 * 20)
    corpus.matrix[:2] @ corpus.matrix[0]  # no one-off BLAS set-up inside the trace
    tracemalloc.start()
    try:
        got = list(qd._plausible_by_row(corpus, 3))
        lists, peak = tracemalloc.get_traced_memory()  # the lists are the result
    finally:
        tracemalloc.stop()
    rows = np.flatnonzero(corpus.followups >= 0)
    assert got[::30] == [oracle_find_plausible(corpus.matrix[i], corpus.image_ids[i], corpus, 3)
                         for i in rows[::30]]
    rerank = 2 * 8 * 4000 * 8  # a short list's copied keys and their differences
    assert peak - lists < qd.SEARCH_BYTES + rerank, (peak, lists)


def test_plausible_duplicated_keys_break_ties_by_image_and_round():
    rng = np.random.default_rng(4)
    bases = rng.normal(size=(4, 15))
    keys = bases[rng.integers(0, 4, size=300)]
    corpus = corpus_of(keys)
    check_plausible(corpus, [(bases[0], 0), (bases[2], 17), (keys[45], 4),
                             (bases[1] + 0.5, -1)]
                    + [(keys[i], i // 10) for i in range(5, 300, 37)])


def test_plausible_seeded_random_keys():
    rng = np.random.default_rng(8)
    keys = rng.normal(size=(3000, 20))
    corpus = corpus_of(keys)
    check_plausible(corpus, [(keys[i], i // 10) for i in (0, 1234, 2999, *range(7, 3000, 300))]
                    + [(rng.normal(size=20), -1)])


@pytest.mark.parametrize("spread", [1.0, 1e-2, 1e-4])
def test_plausible_keys_with_large_common_offset(spread):
    # |k|**2 and 2 k . q are about 1e6 and cancel; the differences are tiny
    rng = np.random.default_rng(11)
    offset = rng.normal(size=15)
    offset *= 1e3 / np.linalg.norm(offset)
    keys = offset + spread * rng.normal(size=(1000, 15))
    corpus = corpus_of(keys)
    check_plausible(corpus, [(keys[i], i // 10) for i in (3, 555, *range(41, 1000, 120))]
                    + [(offset + spread * rng.normal(size=15), -1)], cut=(50,))


def near_tie_corpus(d, seeds):
    """The first seeded corpus where the keys of images 1 and 2 at round 1,
    a and a permuted, are equally far from the constant query in exact
    arithmetic, and sit behind five much nearer keys of image 0, yet the
    product-form squared distance over the whole key matrix and the re-rank
    norm disagree on which of the two is nearer. Also returns the query and
    the image of the re-rank winner (ties go to the lower image)."""
    q = np.full(d, 0.75)
    for seed in seeds:
        rng = np.random.default_rng([seed, d])
        a = rng.normal(size=d)
        keys = np.concatenate([
            q + 0.01 * rng.normal(size=(5, d)),  # image 0: five much nearer than the pair
            q - 3.0 + rng.normal(size=(5, d)),  # and five far
            a[None], q - 3.0 + rng.normal(size=(9, d)),  # image 1: a, then far
            a[None, rng.permutation(d)], q + 3.0 + rng.normal(size=(9, d)),  # image 2
        ])
        product = np.einsum("ij,ij->i", keys, keys) - 2.0 * (keys @ q) + q @ q
        exact = np.linalg.norm(keys - q, axis=1)
        exact_first = 1 if exact[10] <= exact[20] else 2
        if product[10] != product[20] and (1 if product[10] < product[20] else 2) != exact_first:
            return corpus_of(keys), q, exact_first
    raise AssertionError("no near-tie found")


def test_plausible_near_tie_across_the_cut():
    corpus, q, exact_first = near_tie_corpus(15, range(2000))
    # the pair straddles the cut at k = 6: the product alone would keep the other key
    assert corpus.image_ids[oracle_find_plausible(q, -1, corpus, 6)[-1]] == exact_first
    # the near-tie queries share their blocks with other queries
    check_plausible(corpus, [(corpus.matrix[i], i // 10) for i in range(1, 30, 4)]
                    + [(q, -1), (q, 0)], cut=(6,))


def row_norms(monkeypatch):
    """Wrap ``np.linalg.norm``; the returned list collects the row count of each
    row-wise call."""
    counts = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        if kwargs.get("axis") == 1:
            counts.append(len(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return counts


def chained_rows(corpus, query, image, k):
    """The size of the query's short list and how many of its rows share an
    exactly equal distance with another of its rows, when its distinct
    distances are far apart: then the short list is the rows up to the k-th
    distance and its ties, and the near-tie chains are exactly the groups of
    equal distances."""
    rows = np.array(oracle_find_plausible(query, image, corpus, len(corpus)))
    dists = np.linalg.norm(corpus.matrix[rows] - query, axis=1)
    short = dists[dists <= dists[min(k, len(dists)) - 1]]  # every row where k does not cut
    distinct = np.unique(dists[:len(short) + 1])
    assert np.diff(distinct ** 2).min() > 1e-6  # far beyond any near-tie margin
    _, counts = np.unique(short, return_counts=True)
    return len(short), int(counts[counts > 1].sum())


def test_plausible_takes_no_exact_norm_on_distinct_keys(monkeypatch):
    # the corpus of test_plausible_seeded_random_keys: no two keys near-tie
    rng = np.random.default_rng(8)
    keys = rng.normal(size=(3000, 20))
    corpus = corpus_of(keys)
    queries = [(keys[i], i // 10) for i in (0, 1234, 2999, *range(7, 3000, 300))]
    queries.append((rng.normal(size=20), -1))
    block, images = np.stack([q for q, _ in queries]), [image for _, image in queries]
    for k in (1, 10, 50):
        assert all(chained_rows(corpus, q, image, k)[1] == 0 for q, image in queries)
        want = [oracle_find_plausible(q, image, corpus, k) for q, image in queries]
        with monkeypatch.context() as mp:
            counts = row_norms(mp)
            got = qd.find_plausible(block, images, corpus, k)
        assert got == want, k
        assert counts == [], k


def duplicated_keys():
    """700 random keys, where rows 600-659 copy rows 0-59 (other images) and
    rows 660-669 copy row 0, and 14 queries: only the copies in a short list
    share a chain."""
    rng = np.random.default_rng(13)
    keys = rng.normal(size=(700, 20))
    keys[600:660] = keys[:60]
    keys[660:670] = keys[0]
    queries = [(keys[i] + 0.3 * rng.normal(size=20), -1) for i in range(0, 60, 6)]
    queries += [(keys[i], i // 10) for i in (0, 3, 615, 640)]
    return corpus_of(keys), queries


def check_chained_norms(monkeypatch, ks):
    corpus, queries = duplicated_keys()
    block, images = np.stack([q for q, _ in queries]), [image for _, image in queries]
    for k in ks:
        short, chained = zip(*(chained_rows(corpus, q, image, k) for q, image in queries))
        assert 0 < sum(chained) < sum(short), (k, short, chained)
        want = [oracle_find_plausible(q, image, corpus, k) for q, image in queries]
        with monkeypatch.context() as mp:
            counts = row_norms(mp)
            got = qd.find_plausible(block, images, corpus, k)
        assert got == want, k
        assert counts == [c for c in chained if c], (k, chained)


def test_plausible_takes_exact_norms_of_chained_duplicates_only(monkeypatch):
    check_chained_norms(monkeypatch, (1, 5, 12))


def test_plausible_without_a_cut_takes_exact_norms_of_chained_duplicates_only(monkeypatch):
    # k is at least every query's 621 or 630 usable rows, so the short list is
    # all of them, and still only the copies take an exact norm
    check_chained_norms(monkeypatch, (630, 10**6))


def test_nearest_without_a_cut_takes_exact_norms_of_duplicates_only(monkeypatch):
    # 300 random vectors, where rows 260-289 copy rows 0-29 and rows 290-299 copy
    # row 0; n is at least the 299 other images, so the short list is all of
    # them, and only rows at an equal distance share a near-tie chain
    rng = np.random.default_rng(17)
    vectors = rng.normal(size=(300, 12))
    vectors[260:290] = vectors[:30]
    vectors[290:] = vectors[0]
    ids = rng.permutation(10_000)[:300]
    norm = np.linalg.norm
    for image_id in ids[[0, 5, 100, 295]].tolist():
        for n in (299, 10**6):
            store = ImageFeatureStore(ids, vectors)  # an empty memo
            want = oracle_nearest_images(store, image_id, n)
            distinct, counts = np.unique([norm(store.get(i) - store.get(image_id))
                                          for i in want], return_counts=True)
            assert np.diff(distinct ** 2).min() > 1e-6  # far beyond any near-tie margin
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(1) or norm(*a, **kw))
                assert nearest_images(store, image_id, n) == want, (image_id, n)
            assert len(calls) == counts[counts > 1].sum() > 0, (image_id, n)
