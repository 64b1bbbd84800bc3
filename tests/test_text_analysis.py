"""Text-analysis kernels vs naive Python oracles."""

import numpy as np
import pyarrow as pa

from docling_graph_ray.stages.text_analysis import (
    bpe_token_count_batch,
    fingerprint_batch,
    langid_batch,
    quality_batch,
    token_count_batch,
)

TEXTS = [
    "the quick brown fox and the lazy dog are friends for this test",
    "le chat est dans la maison avec les enfants pour une heure",
    "der hund ist nicht mit der katze und das ist gut für alle",
    "el perro es grande y los gatos son pequeños para una casa del pueblo",
    "",
    "   ",
    "123 456 !!!",
]


def _batch():
    return pa.table(
        {"doc_id": pa.array(range(len(TEXTS)), pa.int64()), "text": TEXTS}
    )


def test_token_count_matches_python_split():
    out = token_count_batch(_batch())
    for t, n in zip(TEXTS, out.column("n_tokens").to_pylist()):
        assert n == len(t.split())
    for t, c in zip(TEXTS, out.column("n_chars").to_pylist()):
        assert c == len(t)


def test_langid_on_known_languages():
    out = langid_batch(_batch())
    langs = out.column("pred_lang").to_pylist()
    assert langs[0] == "en"
    assert langs[1] == "fr"
    assert langs[2] == "de"
    assert langs[3] == "es"
    assert langs[4] == "und" and langs[6] == "und"


def test_quality_ratios():
    out = quality_batch(_batch())
    r = out.to_pylist()
    assert r[4]["n_chars"] == 0 and r[4]["alpha_ratio"] == 0.0
    digits = r[6]
    assert digits["digit_ratio"] > 0.5 and digits["alpha_ratio"] == 0.0
    en = r[0]
    assert 0.7 < en["alpha_ratio"] < 0.9  # words + spaces


def test_fingerprint_deterministic_and_distinct():
    a = fingerprint_batch(_batch()).column("fingerprint").to_pylist()
    b = fingerprint_batch(_batch()).column("fingerprint").to_pylist()
    assert a == b
    assert len(set(a[:4])) == 4  # distinct docs → distinct fingerprints


def test_bpe_tokens_at_least_words():
    out = bpe_token_count_batch(_batch())
    toks = out.column("n_bpe_tokens").to_pylist()
    for t, n in zip(TEXTS, toks):
        assert n >= len(t.split())


def test_gopher_quality_metrics():
    import pyarrow as pa

    from docling_graph_ray.stages.text_analysis import gopher_quality_batch

    # 30 words, 'the' present, varied words → passes every rule
    good = "the " + " ".join("word%02d" % i for i in range(29))
    # heavy repetition of one word → dup + top-word rules fail
    bad = "spam " * 40 + "the end"
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": [good, bad.strip()]})
    out = gopher_quality_batch(t).to_pylist()
    g, b = out[0], out[1]
    assert g["n_words"] == 30 and g["n_distinct_words"] == 30
    assert g["dup_word_frac"] == 0.0
    assert g["stopword_hits"] >= 1
    assert g["gopher_pass"]
    assert b["dup_word_frac"] > 0.5 or b["top_word_char_frac"] > 0.25
    assert not b["gopher_pass"]


def test_gopher_quality_empty_and_null():
    import pyarrow as pa

    from docling_graph_ray.stages.text_analysis import gopher_quality_batch

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["", None], pa.string())})
    out = gopher_quality_batch(t).to_pylist()
    for r in out:
        assert r["n_words"] == 1      # '' splits to one empty word
        assert r["mean_word_len"] == 0.0
        assert not r["gopher_pass"]


def test_bigram_lm_scores_corpus_like_text_lower(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.text_analysis import (
        BigramScorer,
        bigram_count_partial,
        build_bigram_model,
    )

    corpus = ["the quick brown fox jumps over the lazy dog"] * 20
    batch = pa.table({"doc_id": pa.array(range(20), pa.int64()),
                      "text": pa.array(corpus)})
    model = build_bigram_model(bigram_count_partial(batch))
    assert model.shape == (256, 256) and model.dtype == np.float64

    probe = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "the quick brown fox",   # in-distribution
            "zzzzqqqqxxxx@@@@####",  # alien bytes
            "",                       # unscorable -> uniform cost 8.0
        ]),
    })
    out = BigramScorer(ray.put(model))(probe)
    bpb = out.column("bits_per_byte").to_pylist()
    assert bpb[0] < bpb[1], bpb
    assert bpb[2] == 8.0
    # deterministic: same input -> same scores
    again = BigramScorer(model)(probe)
    assert again.column("bits_per_byte").to_pylist() == bpb


def test_bigram_partial_bounded_by_alphabet(ray_session):
    import pyarrow as pa

    from docling_graph_ray.stages.text_analysis import bigram_count_partial

    batch = pa.table({"text": pa.array(["abcabcabc" * 500, "xyz" * 1000])})
    part = bigram_count_partial(batch)
    # combiner output is bounded by distinct pairs, not text length
    assert part.num_rows <= 256 * 256
    assert part.num_rows < 20
    assert part.column("n").to_pylist()[0] > 1


def test_tfidf_topk(ray_session):
    import math

    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.text_analysis import tfidf_topk

    docs = ray.data.from_arrow(pa.table({
        "doc_id": [1, 2, 3],
        "text": ["apple banana apple", "banana cherry", "  "],
    }))
    rows = tfidf_topk(docs, k=2).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert 3 not in by_doc                       # tokenless doc emits nothing
    # N=2; apple: tf=2 df=1 -> 2*ln(2); banana: df=2 -> ln(1)=0
    d1 = by_doc[1]
    assert [r["token"] for r in d1] == ["apple", "banana"]
    assert d1[0]["tf"] == 2 and d1[0]["df"] == 1
    assert abs(d1[0]["score"] - 2 * math.log(2)) < 1e-12
    assert d1[1]["score"] == 0.0
    d2 = {r["token"]: r for r in by_doc[2]}
    assert d2["cherry"]["df"] == 1 and d2["banana"]["df"] == 2


def test_value_quantiles(ray_session):
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.text_analysis import value_quantiles

    ds = ray.data.from_arrow(pa.table({
        "v": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]}))
    t = value_quantiles(ds, "v", [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
    got = dict(zip(t.column("q").to_pylist(), t.column("value").to_pylist()))
    # quantile_disc rule: sorted[max(ceil(q*n)-1, 0)]
    assert got == {0.0: 10, 0.25: 30, 0.5: 50, 0.75: 80, 0.9: 90, 1.0: 100}


def test_perplexity_partition_terciles(ray_session, tmp_path):
    """CCNet split invariants on a synthetic corpus: per-language head
    counts equal the integer-exact tercile rule (smallest cell with
    cum >= ceil(n/3) — ties inflate head, never starve it), bucket
    ordering follows the score cells, and every doc is tagged."""
    import pyarrow.parquet as pq

    from docling_graph_ray.pipelines.textops import doc_perplexity_partition

    rng = np.random.Generator(np.random.PCG64(3))
    rows = []
    vocab = ["aa", "bb", "cc", "dd", "ee", "zq", "xj", "qk"]
    for i in range(90):
        lang = ["en", "de"][i % 2]
        # vary byte-bigram statistics so scores spread
        words = rng.choice(vocab, size=5 + (i % 7)).tolist()
        rows.append({"doc_id": i, "text": " ".join(words), "lang": lang})
    t = pa.Table.from_pylist(rows)
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    out = doc_perplexity_partition(str(tmp_path)).to_pandas()
    assert len(out) == 90
    assert set(out.bucket) <= {"head", "middle", "tail"}
    for lang, grp in out.groupby("lang"):
        n = len(grp)
        k1, k2 = (n + 2) // 3, (2 * n + 2) // 3
        cells = np.sort(grp.cell.to_numpy())
        t1, t2 = cells[k1 - 1], cells[k2 - 1]
        head = grp[grp.bucket == "head"]
        mid = grp[grp.bucket == "middle"]
        tail = grp[grp.bucket == "tail"]
        # threshold rule: every cell <= t1 is head, etc.
        assert (head.cell <= t1).all()
        assert ((mid.cell > t1) & (mid.cell <= t2)).all()
        assert (tail.cell > t2).all()
        assert len(head) >= k1 or t1 == t2  # ties only inflate head
        if len(head) and len(tail):
            assert head.cell.max() <= tail.cell.min()


def test_byte_entropy_batch(ray_session):
    """Entropy vs a math.log2 brute force; -0.0 normalization; empty
    and single-char docs."""
    import math
    from collections import Counter

    import pyarrow as pa

    from docling_graph_ray.stages.text_analysis import byte_entropy_batch

    texts = ["abab", "aaaa", "", None, "the quick brown fox", "   ",
             "abcdefgh"]
    out = byte_entropy_batch(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": texts,
    }))
    got = {r["doc_id"]: r for r in out.to_pylist()}
    for i, t in enumerate(texts):
        raw = (t or "").encode()
        if not raw:
            want = 0.0
        else:
            c = Counter(raw)
            want = round(-sum((v / len(raw)) * math.log2(v / len(raw))
                              for v in c.values()), 6) + 0.0
        assert got[i]["n_bytes"] == len(raw)
        assert abs(got[i]["entropy"] - want) < 1e-9, (i, got[i], want)
    assert got[0]["entropy"] == 1.0          # two equiprobable bytes
    assert got[1]["entropy"] == 0.0          # single byte: exactly +0.0
    assert str(got[1]["entropy"]) == "0.0"   # not "-0.0"
    assert got[6]["entropy"] == 3.0          # eight equiprobable bytes


# ---------------------------------------------------------------------------
# winnowing fingerprints


def _winnow_brute(text, k=3, w=4):
    import zlib

    words = (text or "").split()
    m = len(words) - k + 1
    if m < w:
        return set()
    h = [zlib.crc32(" ".join(words[i: i + k]).encode()) for i in range(m)]
    sel = set()
    for s in range(m - w + 1):
        win = h[s: s + w]
        mn = min(win)
        # rightmost minimum
        j = max(i for i in range(w) if win[i] == mn)
        sel.add((s + j, h[s + j]))
    return sel


def test_winnow_matches_bruteforce(ray_session):
    import pyarrow as pa

    from docling_graph_ray.stages.text_analysis import winnow_fingerprint_batch

    docs = [
        (1, "a b c d e f g h i j"),
        (2, "a b c a b c a b c a b c"),      # heavy ties → rightmost rule
        (3, "x y z"),                        # exactly one gram: no window
        (4, ""),                             # empty
        (5, "one two three four five six"),
        (6, "a b c d e f g h i j"),          # dup of 1: identical rows
    ]
    batch = pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": [d[1] for d in docs],
    })
    out = winnow_fingerprint_batch(batch)
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["doc_id"], set()).add((r["pos"], r["gram_hash"]))
    for i, t in docs:
        assert got.get(i, set()) == _winnow_brute(t), i
    # winnowing guarantee: identical docs share identical fingerprints
    assert got[1] == got[6]


def test_winnow_shared_substring_shares_a_hash():
    """Any shared run of >= k + w - 1 words must yield at least one
    shared selected hash — the winnowing coverage guarantee."""
    shared = "the quick brown fox jumps over six words"
    a = "prefix words here " + shared + " suffix tail"
    b = "totally different opening " + shared + " other ending words"
    ha = {h for _, h in _winnow_brute(a)}
    hb = {h for _, h in _winnow_brute(b)}
    assert ha & hb


# grouped value quantiles
