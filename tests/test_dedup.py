"""Dedup operator semantics on small in-memory tables."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data

from docling_graph_ray.stages.dedup import (
    embedding_near_dedup,
    hamming64,
    minhash_lsh_dedup,
    minhash_signature,
    ngram_jaccard_dedup,
    _perm_params,
    simhash64,
    simhash_dedup,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the sun shines on the "
    "green meadow and birds sing softly in the tall trees near the river bank "
    "where children play games all afternoon long until the evening comes"
)
NEAR = BASE.replace("softly", "loudly")  # one-word change → near-dup
FAR = (
    "completely different content about database systems and distributed "
    "query processing engines with columnar storage formats and vectorized "
    "execution over arrow record batches in modern analytical workloads"
)


def _docs_table():
    return pa.table(
        {"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
         "text": [BASE, NEAR, FAR, BASE]}
    )


def test_minhash_signature_similarity():
    a, b = _perm_params(128, 42)
    s1 = minhash_signature(BASE, a, b)
    s2 = minhash_signature(NEAR, a, b)
    s3 = minhash_signature(FAR, a, b)
    sim12 = (s1 == s2).mean()
    sim13 = (s1 == s3).mean()
    assert sim12 > 0.6 and sim13 < 0.2


def test_minhash_lsh_dedup(ray_session):
    ds = ray.data.from_arrow(_docs_table())
    out = {r["doc_id"]: r for r in minhash_lsh_dedup(ds).take_all()}
    assert not out[1]["is_dup"]
    assert out[4]["is_dup"] and out[4]["rep_id"] == 1  # exact dup
    assert out[2]["is_dup"] and out[2]["rep_id"] == 1  # near dup
    assert not out[3]["is_dup"]


def _cc_reference(texts: dict[int, str], *, num_perm=128, bands=16,
                  shingle_words=3, seed=42) -> dict[int, int]:
    """Independent union-find over the actual band-key collisions —
    verifies minhash_cc_dedup's component COMPOSITION (edges → CC →
    min-rep) without re-trusting its dataflow."""
    import zlib

    a, b = _perm_params(num_perm, seed)
    rows = num_perm // bands
    worded = {i: t for i, t in texts.items() if (t or "").split()}
    parent = {i: i for i in worded}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    buckets: dict[tuple[int, int], list[int]] = {}
    for i, t in worded.items():
        sig = minhash_signature(t, a, b, shingle_words)
        for bi in range(bands):
            key = zlib.crc32(sig[bi * rows:(bi + 1) * rows].tobytes())
            buckets.setdefault((bi, key), []).append(i)
    for members in buckets.values():
        for m in members[1:]:
            ra, rb = find(members[0]), find(m)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    reps = {}
    for i in worded:
        reps[i] = min(j for j in worded if find(j) == find(i))
    wordless = [i for i in texts if i not in worded]
    for i in wordless:
        reps[i] = min(wordless)
    return reps


def test_minhash_cc_dedup_matches_union_find(ray_session):
    from docling_graph_ray.stages.dedup import minhash_cc_dedup

    # chain-shaped corpus: 2 near 1, 5 near 2 (two hops from 1), exact
    # dup 4, unrelated 3, plus wordless rows that must route around
    texts = {
        1: BASE,
        2: NEAR,
        3: FAR,
        4: BASE,
        5: NEAR.replace("quick", "slow"),
        6: "",
        7: "   ",
    }
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": [texts[i] for i in sorted(texts)],
    }))
    out = {r["doc_id"]: r for r in minhash_cc_dedup(ds).take_all()}
    ref = _cc_reference(texts)
    assert len(out) == len(texts)
    for i, want in ref.items():
        assert out[i]["rep_id"] == want, (i, out[i], want)
        assert out[i]["is_dup"] == (want != i)


def test_minhash_cc_never_worse_than_one_hop(ray_session):
    """The component label is the min over the REACHABLE set, so it can
    only improve on (be ≤) the one-hop bucket-min rep."""
    from docling_graph_ray.stages.dedup import minhash_cc_dedup

    ds = ray.data.from_arrow(_docs_table())
    cc = {r["doc_id"]: r["rep_id"] for r in minhash_cc_dedup(ds).take_all()}
    oh = {r["doc_id"]: r["rep_id"] for r in minhash_lsh_dedup(ds).take_all()}
    assert set(cc) == set(oh)
    for i in cc:
        assert cc[i] <= oh[i]


def test_minhash_cc_property_matches_union_find(ray_session):
    """Randomized corpora (drawn from overlapping sentence templates so
    real band collisions occur) vs the union-find reference."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docling_graph_ray.stages.dedup import minhash_cc_dedup

    variants = [
        BASE, NEAR, NEAR.replace("quick", "slow"),
        BASE.replace("dog", "cat"), FAR, "", "   ",
    ]

    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.sampled_from(range(len(variants))),
                    min_size=1, max_size=10))
    def run(picks):
        texts = {i + 1: variants[p] for i, p in enumerate(picks)}
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(sorted(texts), pa.int64()),
            "text": [texts[i] for i in sorted(texts)],
        }))
        out = {r["doc_id"]: r["rep_id"]
               for r in minhash_cc_dedup(ds).take_all()}
        assert out == _cc_reference(texts)

    run()


def test_minhash_cc_distributed_path_agrees(ray_session):
    """driver_cc_max_edges=0 forces the bucketed label-propagation
    path; it must produce byte-identical reps to the driver union-find
    fast path."""
    from docling_graph_ray.stages.dedup import minhash_cc_dedup

    texts = {1: BASE, 2: NEAR, 3: FAR, 4: BASE,
             5: NEAR.replace("quick", "slow"), 6: ""}
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": [texts[i] for i in sorted(texts)],
    }))
    fast = sorted((r["doc_id"], r["rep_id"], r["is_dup"])
                  for r in minhash_cc_dedup(ds).take_all())
    dist = sorted((r["doc_id"], r["rep_id"], r["is_dup"])
                  for r in minhash_cc_dedup(
                      ds, driver_cc_max_edges=0).take_all())
    assert fast == dist
    assert fast == sorted((i, r, r != i)
                          for i, r in _cc_reference(texts).items())


def test_minhash_cc_all_wordless_corpus(ray_session):
    from docling_graph_ray.stages.dedup import minhash_cc_dedup

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([5, 9, 2], pa.int64()),
        "text": ["", "   ", "\t\n"],
    }))
    out = {r["doc_id"]: r for r in minhash_cc_dedup(ds).take_all()}
    assert all(out[i]["rep_id"] == 2 for i in (5, 9, 2))
    assert not out[2]["is_dup"]
    assert out[5]["is_dup"] and out[9]["is_dup"]


def test_minhash_cc_all_unique_corpus(ray_session):
    """No collisions at all → every doc is its own rep (edge list is
    empty; the one-hop floor carries the assignment)."""
    from docling_graph_ray.stages.dedup import minhash_cc_dedup

    texts = [BASE, FAR,
             "alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi"]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([10, 20, 30], pa.int64()),
        "text": texts,
    }))
    out = {r["doc_id"]: r for r in minhash_cc_dedup(ds).take_all()}
    assert all(out[i]["rep_id"] == i and not out[i]["is_dup"] for i in out)


def test_simhash_hamming():
    h1, h2, h3 = simhash64(BASE), simhash64(NEAR), simhash64(FAR)
    assert hamming64(h1, h2) <= 6
    assert hamming64(h1, h3) > 10


def test_simhash_dedup(ray_session):
    ds = ray.data.from_arrow(_docs_table())
    out = {r["doc_id"]: r for r in simhash_dedup(ds, hamming_threshold=6).take_all()}
    assert out[4]["rep_id"] == 1
    assert out[2]["rep_id"] == 1
    assert out[3]["rep_id"] == 3


def test_ngram_jaccard_dedup(ray_session):
    ds = ray.data.from_arrow(_docs_table())
    out = {r["doc_id"]: r for r in ngram_jaccard_dedup(ds, threshold=0.5).take_all()}
    assert out[4]["rep_id"] == 1
    assert out[2]["rep_id"] == 1
    assert not out[3]["is_dup"]


def test_embedding_near_dedup(ray_session):
    rng = np.random.Generator(np.random.PCG64(0))
    base = rng.standard_normal(64).astype(np.float32)
    near = base + rng.standard_normal(64).astype(np.float32) * 0.01
    far = rng.standard_normal(64).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array([1, 2, 3], pa.int64()),
            "embedding": pa.array(
                [base.tolist(), near.tolist(), far.tolist()], pa.list_(pa.float32())
            ),
        }
    )
    out = {
        r["vec_id"]: r
        for r in embedding_near_dedup(
            ray.data.from_arrow(t), dim=64, cosine_threshold=0.95
        ).take_all()
    }
    assert out[2]["rep_id"] == 1 and out[2]["is_dup"]
    assert not out[3]["is_dup"]


def test_band_rows_carry_ids_only(ray_session):
    """The LSH shuffle must move (id, band_idx, band_key) rows ONLY —
    never shingle sets or text (the round-1 scale hole: shingles rode
    every band row, ~bands× corpus payload)."""
    import inspect

    import docling_graph_ray.stages.dedup as dd

    # structural check: the candidate-emitting tables in source have no
    # payload column beyond the banding triple
    src = inspect.getsource(dd.ngram_jaccard_dedup)
    emit_src = src.split("def emit_shingles")[0]
    assert '"shingles"' not in emit_src.split("def emit(")[1]

    # behavioral check: run with texts large enough that any payload
    # would be visible in the candidate schema
    ds = ray.data.from_arrow(_docs_table())
    out = {r["doc_id"]: r for r in ngram_jaccard_dedup(ds, threshold=0.5).take_all()}
    assert set(out[1].keys()) == {"doc_id", "rep_id", "is_dup"}


def test_empty_text_skew_routes_around_bands(ray_session):
    """10k wordless docs must NOT form a giant per-band bucket: they are
    routed through a streaming min-aggregate instead (round-1 skew hole).
    All are mutual dups of the min id; worded docs dedup as usual."""
    n = 10_000
    ids = list(range(1, n + 1))
    texts = [""] * (n // 2) + ["   \t  "] * (n // 2 - 2) + [BASE, BASE]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    for fn in (minhash_lsh_dedup, simhash_dedup, ngram_jaccard_dedup):
        out = {r["doc_id"]: r for r in fn(ray.data.from_arrow(t)).take_all()}
        assert len(out) == n
        # every wordless doc reps to the global min wordless id (1)
        assert not out[1]["is_dup"] and out[1]["rep_id"] == 1
        assert out[2]["is_dup"] and out[2]["rep_id"] == 1
        assert out[n - 2]["rep_id"] == 1          # whitespace-only doc
        # the two worded docs dedup among themselves, not against empties
        assert out[n - 1]["rep_id"] == n - 1
        assert out[n]["rep_id"] == n - 1 and out[n]["is_dup"]


def test_dedup_deterministic_across_runs(ray_session):
    ds1 = ray.data.from_arrow(_docs_table())
    ds2 = ray.data.from_arrow(_docs_table())
    a = sorted(map(tuple, (r.values() for r in minhash_lsh_dedup(ds1).take_all())))
    b = sorted(map(tuple, (r.values() for r in minhash_lsh_dedup(ds2).take_all())))
    assert a == b


def test_segment_exact_dedup(ray_session):
    """20-word-window segment dedup: first corpus occurrence keeps."""
    import hashlib

    from docling_graph_ray.stages.dedup import segment_exact_dedup

    w = ["w%d" % i for i in range(20)]
    seg_a = " ".join(w)               # shared 20-word segment
    tail_b = "unique tail b"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [seg_a + " " + "only one extra word here for doc one x y z a b c d e f g h i",
                 seg_a + " " + tail_b,
                 "totally different words entirely"],
    })
    rows = segment_exact_dedup(ray.data.from_arrow(t)).take_all()
    by = {(r["doc_id"], r["seg_idx"]): r for r in rows}
    # doc 1 and doc 2 share segment 0 (exact same first 20 words)
    h1, h2 = by[(1, 0)], by[(2, 0)]
    assert h1["seg_hash"] == h2["seg_hash"]
    assert h1["keep"] and not h2["keep"]           # min (doc_id, idx) wins
    # unique segments all keep
    assert by[(2, 1)]["keep"] and by[(3, 0)]["keep"]
    # hash matches hashlib.md5 of the joined window
    assert h1["seg_hash"] == hashlib.md5(seg_a.encode()).hexdigest()


def test_segment_dedup_empty_text(ray_session):
    from docling_graph_ray.stages.dedup import segment_exact_dedup

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["", ""]})
    rows = segment_exact_dedup(ray.data.from_arrow(t)).take_all()
    # '' splits to [''] → one (empty) segment per doc; doc 1 keeps
    assert len(rows) == 2
    by = {r["doc_id"]: r for r in rows}
    assert by[1]["keep"] and not by[2]["keep"]


# ---------------------------------------------------------------------------
# decontamination (stages/decontaminate.py)


def test_decontaminate_scores(ray_session):
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.decontaminate import (
        benchmark_ngram_set, decontaminate,
    )

    bench_text = "alpha beta gamma delta " * 4          # 16 tokens
    clean_text = "one two three four five six seven eight nine"
    # contains an 8-gram of bench_text verbatim
    leaky_text = "intro alpha beta gamma delta alpha beta gamma delta outro"
    short_text = "too short"                            # < 8 tokens: no row

    bench = ray.data.from_arrow(pa.table({
        "doc_id": [0], "text": [bench_text]}))
    corpus = ray.data.from_arrow(pa.table({
        "doc_id": [10, 11, 12],
        "text": [clean_text, leaky_text, short_text]}))

    grams = benchmark_ngram_set(bench, n=8)
    # 16 tokens -> 9 windows, but the repeating phrase collapses: windows
    # are distinct rotations of the 4-token cycle -> 4 distinct grams
    assert len(grams) == 4

    rows = {r["doc_id"]: r for r in
            decontaminate(corpus, grams, n=8).take_all()}
    assert set(rows) == {10, 11}                        # short doc drops
    assert rows[10]["n_contaminated"] == 0
    assert rows[10]["n_grams"] == 2
    assert rows[11]["n_contaminated"] >= 1
    assert 0 < rows[11]["n_contaminated"] <= rows[11]["n_grams"]


def test_decontaminate_clean_mode(ray_session):
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.decontaminate import decontaminate

    corpus = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["a b c d e f g h leak", "p q r s t u v w x", "tiny"]}))
    grams = {"a b c d e f g h", "b c d e f g h leak"}
    kept = decontaminate(corpus, grams, n=8, emit="clean").take_all()
    # doc 1 is contaminated and drops; doc 3 is too short to leak -> kept
    assert sorted(r["doc_id"] for r in kept) == [2, 3]


def test_decontaminate_unicode_and_nulls(ray_session):
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.decontaminate import (
        benchmark_ngram_set, decontaminate,
    )

    bench = ray.data.from_arrow(pa.table({
        "doc_id": [0],
        "text": ["médecin déjà vu alpha beta gamma delta epsilon zeta"]}))
    corpus = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2],
        "text": ["x médecin déjà vu alpha beta gamma delta epsilon tail",
                 None]}))
    grams = benchmark_ngram_set(bench, n=8)
    rows = {r["doc_id"]: r for r in
            decontaminate(corpus, grams, n=8).take_all()}
    assert rows[1]["n_contaminated"] >= 1      # unicode grams match
    assert 2 not in rows                       # null text -> no grams


def test_intradoc_window_dedup_removes_repeats():
    import pyarrow as pa

    from docling_graph_ray.stages.dedup import intradoc_window_dedup_batch

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "a b c d a b",          # window 'a b' repeats -> dropped
            "x y x z",              # 'x y' != 'x z': nothing drops
            "   ",                  # empty after trim: no output row
            "p q p q p q p",        # 'p q' x3 + tail 'p': keep first + tail
        ]),
    })
    out = intradoc_window_dedup_batch(window=2)(t)
    assert out.column("doc_id").to_pylist() == [1, 2, 4]
    assert out.column("clean_text").to_pylist() == [
        "a b c d", "x y x z", "p q p",
    ]
    assert out.column("n_dropped_windows").to_pylist() == [1, 0, 2]


def test_intradoc_window_dedup_empty_batch():
    import pyarrow as pa

    from docling_graph_ray.stages.dedup import intradoc_window_dedup_batch

    t = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    })
    out = intradoc_window_dedup_batch(window=2)(t)
    assert out.num_rows == 0
    assert out.schema.names == ["doc_id", "clean_text", "n_dropped_windows"]


def _bpe_reference(texts, merges):
    """Sequential reference BPE (Sennrich-style) over word frequencies."""
    from collections import Counter

    freq = Counter()
    for t in texts:
        for w in (t or "").split():
            freq[w] += 1
    words = {w: list(w) + ["</w>"] for w in freq}
    out = []
    for rank in range(merges):
        pairs = Counter()
        for w, seq in words.items():
            for i in range(len(seq) - 1):
                pairs[(seq[i], seq[i + 1])] += freq[w]
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), c = best
        if c < 2:
            break
        out.append((rank, l, r, c))
        from docling_graph_ray.stages.text_analysis import _merge_pair_in_seq
        words = {w: _merge_pair_in_seq(s, l, r) for w, s in words.items()}
    return out


def test_bpe_train_matches_sequential_reference(ray_session):
    import pyarrow as pa

    import ray.data
    from docling_graph_ray.stages.text_analysis import bpe_train

    texts = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "a cat and a mat and a hat",
        "hats and mats and cats",
        "the the the hat hat",
    ] * 3  # repetition scales counts but must not change merge ORDER
    ds = ray.data.from_arrow(
        pa.table({"text": pa.array(texts)})
    ).repartition(4)
    got = bpe_train(ds, merges=12)
    want = _bpe_reference(texts, 12)
    assert got == want
    # merges are real: multi-char tokens appear
    assert any(len(l + r) > 2 for _, l, r, _ in got)


def test_merge_pair_nonoverlapping_left_to_right():
    from docling_graph_ray.stages.text_analysis import _merge_pair_in_seq

    # 'aaa' with merge (a,a): greedy left-to-right -> ['aa', 'a']
    assert _merge_pair_in_seq(["a", "a", "a"], "a", "a") == ["aa", "a"]
    assert _merge_pair_in_seq(["a", "a", "a", "a"], "a", "a") == ["aa", "aa"]
    assert _merge_pair_in_seq(["x"], "a", "a") == ["x"]
    assert _merge_pair_in_seq([], "a", "a") == []


def test_bpe_tokenizer_matches_reference(ray_session):
    import pyarrow as pa

    import ray.data
    from docling_graph_ray.stages.text_analysis import (
        BPETokenizer,
        _merge_pair_in_seq,
        bpe_train,
    )

    texts = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "a cat and a mat and a hat",
        "hats and mats and cats",
        "",
    ]
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })).repartition(3)
    learned = bpe_train(ds, merges=10)

    got = (
        ds.map_batches(
            BPETokenizer,
            fn_constructor_kwargs={"merges": learned},
            batch_format="pyarrow",
            concurrency=1,
        )
        .to_pandas().sort_values("doc_id")["n_bpe_tokens"].tolist()
    )

    def ref_count(t):
        n = 0
        for w in t.split():
            seq = list(w) + ["</w>"]
            for _, l, r, _ in learned:
                seq = _merge_pair_in_seq(seq, l, r)
            n += len(seq)
        return n

    assert got == [ref_count(t) for t in texts]
    assert got[-1] == 0  # empty doc -> zero tokens


def test_minhash_all_wordless_corpus(ray_session):
    """All docs wordless: the banded path is empty (Ray's hash join
    crashes on schema-less empty partitions if reached) and every doc
    must still get a representative via the wordless fallback."""
    import pyarrow as pa

    import ray.data
    from docling_graph_ray.stages.dedup import minhash_lsh_dedup

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["", "   ", None]),
    })
    out = minhash_lsh_dedup(ray.data.from_arrow(t)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 2, 3]
    assert (out["rep_id"] == 1).all()
    assert sorted(out["is_dup"]) == [False, True, True]


def test_segment_dedup_empty_corpus(ray_session):
    import pyarrow as pa

    import ray.data
    from docling_graph_ray.stages.dedup import segment_exact_dedup

    t = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    })
    out = segment_exact_dedup(ray.data.from_arrow(t))
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "seg_idx", "seg_hash", "keep"}


def test_segment_dedup_rejects_string_ids(ray_session):
    import pyarrow as pa
    import pytest

    import ray.data
    from docling_graph_ray.stages.dedup import segment_exact_dedup

    t = pa.table({"doc_id": pa.array(["a"]), "text": pa.array(["x y z"])})
    with pytest.raises(Exception, match="integer id"):
        segment_exact_dedup(ray.data.from_arrow(t)).materialize()


def test_hot_bucket_skew_bounded(ray_session):
    """Round-2 verdict task #5 acceptance: a corpus where ONE signature
    repeats en masse (the boilerplate-page skew) completes with bounded
    per-bucket verify work.  SimHash verifies O(1)/member vectorized (no
    cap needed); embedding verify is O(dim)/member, so members beyond
    ``max_bucket_verify`` dedup via the exact-equality overflow path —
    identical repeats still collapse to one representative."""
    n = 100_000
    texts = ["the same boilerplate page body words"] * n
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts),
    })
    out = simhash_dedup(ray.data.from_arrow(t).repartition(8))
    reps = out.map_batches(
        lambda b: b.filter(pa.compute.invert(b.column("is_dup"))),
        batch_format="pyarrow",
    ).count()
    assert reps == 1  # everything collapses onto doc 0

    m = 20_000
    vec = np.ones(16, dtype=np.float32) / 4.0
    emb = pa.table({
        "vec_id": pa.array(np.arange(m), pa.int64()),
        "embedding": pa.array([vec.tolist()] * m, pa.list_(pa.float32())),
    })
    out2 = embedding_near_dedup(
        ray.data.from_arrow(emb).repartition(8), dim=16,
        cosine_threshold=0.95, max_bucket_verify=1000,
    )
    survivors = out2.map_batches(
        lambda b: b.filter(pa.compute.invert(b.column("is_dup"))),
        batch_format="pyarrow",
    ).count()
    assert survivors == 1  # overflow members hit the exact-equality path


def test_semantic_dedup_matches_bruteforce(ray_session):
    """SemDeDup closed form vs an O(n^2) per-cluster reference: rep(i) =
    min id j < i in i's cluster with cos >= threshold."""
    from docling_graph_ray.stages.dedup import semantic_dedup
    from docling_graph_ray.stages.similarity import _normalize, kmeans_fit

    rng = np.random.Generator(np.random.PCG64(7))
    base = rng.standard_normal((40, 16))
    # plant near-dups: rows 40..59 are scaled copies of rows 0..19
    fac = np.where(np.arange(16) % 2 == 0, 0.97, 1.03)
    embs = np.concatenate([base, base[:20] * fac])
    ids = np.arange(len(embs), dtype=np.int64)
    t = pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array(embs.tolist(), pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    cent = kmeans_fit(ds, k=4, iters=3, seed=1)
    out = {r["vec_id"]: r for r in semantic_dedup(
        ds, dim=16, k=4, cosine_threshold=0.98, dtype=np.float64,
        centroids=cent, block=7,  # force multi-block upper-triangle path
    ).take_all()}

    unit = _normalize(embs)
    cl = (unit @ _normalize(np.asarray(cent, dtype=np.float64)).T
          ).argmax(axis=1)
    for i in range(len(ids)):
        same = [j for j in range(i)
                if cl[j] == cl[i] and unit[i] @ unit[j] >= 0.98]
        want = min(same) if same else i
        assert out[i]["rep_id"] == want, (i, out[i], want)
        assert out[i]["is_dup"] == bool(same)
        assert out[i]["cluster"] == cl[i]


def test_semantic_dedup_hot_cluster_capped(ray_session):
    """A cluster hotter than max_cluster_verify stays bounded: only the
    first-K members by id verify pairwise; overflow members pass through
    as their own survivors with the audit count."""
    from docling_graph_ray.stages.dedup import semantic_dedup

    m = 5_000
    vec = np.ones(16, dtype=np.float64) / 4.0
    t = pa.table({
        "vec_id": pa.array(np.arange(m), pa.int64()),
        "embedding": pa.array([vec.tolist()] * m, pa.list_(pa.float64())),
    })
    out = semantic_dedup(
        ray.data.from_arrow(t).repartition(8), dim=16, k=2, iters=2,
        cosine_threshold=0.95, max_cluster_verify=1000,
    )
    rows = out.take_all()
    survivors = [r for r in rows if not r["is_dup"]]
    # first-K members collapse onto id 0; overflow members survive
    assert len(survivors) == 1 + (m - 1000)
    assert {r["n_overflow"] for r in rows} == {m - 1000}


def test_source_overlap(ray_session):
    """Planted cross-source duplicates produce exactly the expected
    matrix; unique texts and same-source dups emit nothing."""
    from docling_graph_ray.stages.dedup import source_overlap

    rows = [
        ("s1", "shared one"), ("s2", "shared one"), ("s3", "shared one"),
        ("s1", "shared two"), ("s2", "shared two"),
        ("s1", "only in s1"), ("s2", "only in s2"),
        ("s3", "same src dup"), ("s3", "same src dup"),
        ("s1", "shared one"),  # within-source repeat of a shared text
    ]
    ds = ray.data.from_arrow(pa.table({
        "source": [r[0] for r in rows],
        "text": [r[1] for r in rows],
    })).repartition(3)
    out = {(r["src_a"], r["src_b"]): r["n_texts"]
           for r in source_overlap(ds).take_all()}
    assert out == {
        ("s1", "s2"): 2,   # shared one + shared two
        ("s1", "s3"): 1,   # shared one
        ("s2", "s3"): 1,   # shared one
    }


# ---------------------------------------------------------------------------
# prefix-cluster keep-best dedup


def test_prefix_dedup_matches_bruteforce(ray_session, tmp_path):
    """doc_prefix_dedup == brute-force keep-longest-then-min-id over
    the same planted corpus, on a contrived table exercising ties,
    doc_id 0, empty text, and sub-6-word docs."""
    import pyarrow.parquet as pq

    from docling_graph_ray.pipelines.textops import doc_prefix_dedup

    texts = [
        "a b c d e f g h i j",          # 10 words, %7==0 plants half
        "a b c d e f g h",              # same 6-word prefix, 8 words
        "a b c d e f g h i j",          # exact twin of doc 0 (tie on len)
        "short one",                    # 2-word prefix cluster
        "",                             # empty text -> [''] single token
        "x y",                          # distinct prefix
        "short one extra words here",   # longer member of 'short one'? no —
                                        # different 5-word prefix, own cluster
    ]
    ids = [0, 1, 2, 3, 7, 14, 21]
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string()),
                  "lang": pa.array(["en"] * len(ids)),
                  "source": pa.array(["s"] * len(ids)),
                  "n_chars": pa.array([len(t) for t in texts], pa.int64())}),
        tmp_path / "documents.parquet")

    got = {
        (r["keeper_id"], r["n_members"], r["kept_tokens"])
        for r in doc_prefix_dedup(str(tmp_path)).take_all()
    }

    # brute force, mirroring the planted corpus
    corpus = []
    for i, t in zip(ids, texts):
        w = t.split(" ")
        corpus.append((i, w))
        if i % 7 == 0:
            k = (len(w) + 1) // 2
            corpus.append((i + 2_000_000_000, w[:k]))
        if i % 21 == 0:
            k = (3 * len(w) + 3) // 4
            corpus.append((i + 4_000_000_000, w[:k]))
    clusters: dict[str, list[tuple[int, int]]] = {}
    for i, w in corpus:
        clusters.setdefault(" ".join(w[:6]), []).append((i, len(w)))
    want = set()
    for members in clusters.values():
        kept = max(n for _, n in members)
        keeper = min(i for i, n in members if n == kept)
        want.add((keeper, len(members), kept))
    assert got == want
    # the planted half-recrawl of doc 0 must lose to the full doc, and
    # the tie between docs 0 and 2 must resolve to the lower id
    assert any(k == 0 and n >= 4 for k, n, _ in got)


def test_prefix_dedup_packing_bound(ray_session, tmp_path):
    """Packing-bound guard: a doc_id above 2^42 raises rather than
    silently corrupting the packed argmax."""
    import pyarrow.parquet as pq
    import pytest as _pytest

    from docling_graph_ray.pipelines.textops import doc_prefix_dedup

    pq.write_table(
        pa.table({"doc_id": pa.array([1 << 42], pa.int64()),
                  "text": pa.array(["a b c"], pa.string())}),
        tmp_path / "documents.parquet")
    with _pytest.raises(Exception):
        doc_prefix_dedup(str(tmp_path)).take_all()
