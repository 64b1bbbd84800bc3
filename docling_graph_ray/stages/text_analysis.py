"""Text-analysis operators over a documents table — vectorized Arrow kernels.

Training-data-pipeline operators (task brief): language ID (stopword
n-gram heuristic), quality scoring, token counting (whitespace + a
BPE-ish regex), and document fingerprinting (rolling hash).  Everything
except the rolling hash is computed with ``pyarrow.compute`` kernels —
no Python loop over rows in the hot path.

Each function is a ``map_batches(batch_format="pyarrow")`` UDF:
``pa.Table`` in → ``pa.Table`` out with named output columns that match
the DuckDB oracle SQL in ``__ray_entry__.oracle_sql`` exactly.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.functions.hashing import rolling_fingerprint
from docling_graph_ray.stages.bucketing import bucketed_aggregate, bucketed_map

# ---------------------------------------------------------------------------
# token counting


def token_count_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Whitespace token count, fully vectorized: count of ``\\S+`` runs."""
    text = batch.column(text_col)
    n_tokens = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
    n_chars = pc.utf8_length(text).cast(pa.int64())
    return pa.table({id_col: batch.column(id_col), "n_tokens": n_tokens, "n_chars": n_chars})


# GPT-2-style BPE pre-tokenization pattern (public knowledge), simplified to
# RE2-compatible syntax (no lookahead): contractions | letter runs | digit
# runs | other-symbol runs.  Deterministic proxy for BPE token counts.
_BPE_ISH = r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-zÀ-ÿ]+| ?[0-9]+| ?[^\sA-Za-zÀ-ÿ0-9]+"


def bpe_token_count_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    text = batch.column(text_col)
    n = pc.count_substring_regex(text, _BPE_ISH).cast(pa.int64())
    return pa.table({id_col: batch.column(id_col), "n_bpe_tokens": n})


# ---------------------------------------------------------------------------
# quality scoring


def quality_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Length / character-class ratio quality features, all Arrow kernels.

    Ratios are rounded to 6 decimals so the Ray and SQL sides hash equal."""
    text = batch.column(text_col)
    n_chars = pc.utf8_length(text).cast(pa.int64())
    denom = pc.max_element_wise(n_chars, pa.scalar(1, pa.int64())).cast(pa.float64())

    def ratio(pattern: str):
        cnt = pc.count_substring_regex(text, pattern).cast(pa.float64())
        # half_towards_infinity matches SQL ROUND for non-negative values (counts/len are dyadic
        # rationals, so .5 boundaries genuinely occur)
        return pc.round(
            pc.divide(cnt, denom), ndigits=6, round_mode="half_towards_infinity"
        )

    n_tokens = pc.count_substring_regex(text, r"\S+").cast(pa.int64())
    tok_denom = pc.max_element_wise(n_tokens, pa.scalar(1, pa.int64())).cast(pa.float64())
    alpha_cnt = pc.count_substring_regex(text, r"[A-Za-zÀ-ÿ]").cast(pa.float64())
    mean_word_len = pc.round(
        pc.divide(alpha_cnt, tok_denom), ndigits=6, round_mode="half_towards_infinity"
    )

    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "alpha_ratio": ratio(r"[A-Za-zÀ-ÿ]"),
            "digit_ratio": ratio(r"[0-9]"),
            "punct_ratio": ratio(r"[.,;:!?]"),
            "space_ratio": ratio(r" "),
            "mean_word_len": mean_word_len,
        }
    )


# Gopher-style repetition / quality rules (Rae et al. 2021 "Scaling
# Language Models" appendix A1.1, public).  Word-level repetition stats
# (duplicate-word fraction, top-word character fraction), mean word
# length, stopword presence, and the combined pass flag.  Words = split
# on a single space, matching the oracle's ``string_split(text, ' ')``.

_GOPHER_STOPWORD_RE = r"\b(?:the|a|and|of|to|in)\b"

# pass-rule thresholds (documented, applied to the ROUNDED metrics so the
# Ray and SQL sides agree on boundary values)
GOPHER_MIN_WORDS = 30
GOPHER_WORD_LEN_RANGE = (3.0, 10.0)
GOPHER_MAX_DUP_WORD_FRAC = 0.5
GOPHER_MAX_TOP_WORD_CHAR_FRAC = 0.25
GOPHER_MIN_STOPWORD_HITS = 1


def explode_tokens(text, *, whitespace_regex: bool = True):
    """Shared word-explode scaffold: split each row of ``text`` into
    words and return ``(flat_words, doc_ix, counts)`` — the flat Arrow
    word array, each word's source-row index, and words per row.

    ``whitespace_regex=True`` splits on ``\\s+`` (DuckDB
    ``regexp_split_to_array(text, '\\s+')``); ``False`` splits on a
    single space (DuckDB ``string_split(text, ' ')``).  Callers own
    trim/fill-null policy — pass exactly the column the oracle splits.
    """
    import numpy as np

    words = (
        pc.split_pattern_regex(text, r"\s+")
        if whitespace_regex
        else pc.split_pattern(text, " ")
    )
    counts = pc.list_value_length(words).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(words)
    doc_ix = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return flat, doc_ix, counts


def gopher_quality_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Per-document Gopher repetition/quality metrics, vectorized: Arrow
    ``split_pattern``/``list_flatten`` explodes words zero-copy, pandas
    C-path groupbys compute the per-(doc, word) counts — no Python loop
    over rows or words."""
    import numpy as np
    import pandas as pd

    n_docs = len(batch)
    text = pc.fill_null(batch.column(text_col), "")
    flat, doc_ix, counts = explode_tokens(text, whitespace_regex=False)
    wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)

    df = pd.DataFrame({"i": doc_ix, "w": flat.to_pandas(), "wl": wl})
    per_word = df.groupby(["i", "w"], sort=False).agg(
        cnt=("wl", "size"), wl=("wl", "first")
    )
    per_word["chars"] = per_word["cnt"] * per_word["wl"]
    by_doc = per_word.groupby(level=0)
    full = pd.RangeIndex(n_docs)
    n_distinct = by_doc.size().reindex(full, fill_value=0).to_numpy()
    total_chars = by_doc["chars"].sum().reindex(full, fill_value=0).to_numpy()
    top_chars = by_doc["chars"].max().reindex(full, fill_value=0).to_numpy()

    n_words = np.maximum(counts, 1)
    safe_chars = np.maximum(total_chars, 1)

    def round6(a: "np.ndarray") -> pa.Array:
        # half_towards_infinity matches SQL ROUND for non-negative values
        return pc.round(pa.array(a, pa.float64()), ndigits=6,
                        round_mode="half_towards_infinity")

    dup_word_frac = round6(1.0 - (n_distinct * 1.0 / n_words))
    top_word_char_frac = round6(top_chars * 1.0 / safe_chars)
    mean_word_len = round6(total_chars * 1.0 / n_words)
    stopword_hits = pc.count_substring_regex(text, _GOPHER_STOPWORD_RE).cast(pa.int64())

    dw = dup_word_frac.to_numpy(zero_copy_only=False)
    tw = top_word_char_frac.to_numpy(zero_copy_only=False)
    mw = mean_word_len.to_numpy(zero_copy_only=False)
    sh = stopword_hits.to_numpy(zero_copy_only=False)
    lo, hi = GOPHER_WORD_LEN_RANGE
    gopher_pass = (
        (counts >= GOPHER_MIN_WORDS)
        & (mw >= lo) & (mw <= hi)
        & (dw <= GOPHER_MAX_DUP_WORD_FRAC)
        & (tw <= GOPHER_MAX_TOP_WORD_CHAR_FRAC)
        & (sh >= GOPHER_MIN_STOPWORD_HITS)
    )

    return pa.table({
        id_col: batch.column(id_col),
        "n_words": pa.array(counts, pa.int64()),
        "n_distinct_words": pa.array(n_distinct, pa.int64()),
        "mean_word_len": mean_word_len,
        "dup_word_frac": dup_word_frac,
        "top_word_char_frac": top_word_char_frac,
        "stopword_hits": stopword_hits,
        "gopher_pass": pa.array(gopher_pass),
    })


# ---------------------------------------------------------------------------
# language ID (stopword-profile heuristic)

LANG_STOPWORDS = {
    "en": "the and of is was with that this are for have which not".split(),
    "fr": "le les des une est sont dans avec pour qui leur aux".split(),
    "de": "der die das und ist nicht mit für auf ein welche hatte".split(),
    "es": "el los las es son para con por una del más como".split(),
}
_LANG_ORDER = ["en", "fr", "de", "es"]  # deterministic tie-break order


def _lang_pattern(words: list[str]) -> str:
    return r"(?i)\b(?:" + "|".join(re.escape(w) for w in words) + r")\b"


def langid_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-language stopword hit counts (4 vectorized regex passes) →
    argmax with deterministic tie-break; 'und' (undetermined) when no
    stopword of any profile matches."""
    text = batch.column(text_col)
    counts = [
        pc.count_substring_regex(text, _lang_pattern(LANG_STOPWORDS[lang]))
        .cast(pa.int64())
        .to_numpy(zero_copy_only=False)
        for lang in _LANG_ORDER
    ]
    import numpy as np

    mat = np.stack(counts)  # (4, n)
    best = mat.argmax(axis=0)  # first max wins → deterministic tie-break
    total = mat.sum(axis=0)
    langs = np.array(_LANG_ORDER, dtype=object)[best]
    langs[total == 0] = "und"
    return pa.table(
        {
            id_col: batch.column(id_col),
            "pred_lang": pa.array(langs, pa.string()),
            "stopword_hits": pa.array(mat.max(axis=0), pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# document fingerprinting


def fingerprint_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """64-bit rolling polynomial hash per document (hex string column)."""
    texts = batch.column(text_col).to_pylist()
    fps = [format(rolling_fingerprint(t or ""), "016x") for t in texts]
    return pa.table({id_col: batch.column(id_col), "fingerprint": pa.array(fps, pa.string())})


# ---------------------------------------------------------------------------
# byte-bigram LM quality scoring (CCNet-style perplexity filter shape)


def bigram_count_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch sparse byte-bigram counts ``(pair, n)`` — the combiner of
    the distributed LM-training pass.  ``pair = prev_byte * 256 + byte``
    over the UTF-8 encoding of each document (documents do not chain).
    The shuffle payload is bounded by the alphabet (65,536 cells), never
    by corpus size."""
    import numpy as np

    arrs = []
    for t in batch.column(text_col).to_pylist():
        b = np.frombuffer((t or "").encode("utf-8", "surrogatepass"), dtype=np.uint8)
        if b.size >= 2:
            arrs.append(b[:-1].astype(np.int64) * 256 + b[1:])
    if not arrs:
        return pa.table({"pair": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    pairs = np.concatenate(arrs)
    uniq, counts = np.unique(pairs, return_counts=True)
    return pa.table({"pair": pa.array(uniq, pa.int64()),
                     "n": pa.array(counts.astype(np.int64), pa.int64())})


def build_bigram_model(pair_counts) -> "object":
    """(pair, n) rows → dense (256, 256) float64 log2-prob matrix with
    add-one smoothing.  The input is ≤65,536 rows by construction (the
    model space, not the corpus), so collecting it on the driver is
    scale-safe; the returned matrix (512 KB) is meant to be ``ray.put``
    once and read by every scoring task.  float64 rather than float32
    on purpose: the log-probs are then exactly ``log2((n+1)/(rowtot+
    256))`` — the expression the ``doc_lm_score`` DuckDB oracle
    recomputes — instead of a quantized copy of it."""
    import numpy as np

    tbl = pair_counts if isinstance(pair_counts, pa.Table) else pair_counts.to_arrow()
    counts = np.zeros((256, 256), dtype=np.float64)
    pairs = tbl.column("pair").to_numpy(zero_copy_only=False)
    ns = tbl.column("n").to_numpy(zero_copy_only=False)
    counts[pairs // 256, pairs % 256] = ns
    row_tot = counts.sum(axis=1, keepdims=True)
    return np.log2((counts + 1.0) / (row_tot + 256.0))


class BigramScorer:
    """Actor-pool UDF: score each document's bits-per-byte under the
    broadcast byte-bigram LM (lower = more like the corpus; the CCNet
    head/middle/tail split thresholds on exactly this statistic).  The
    model ref is resolved ONCE per actor in ``__init__``."""

    def __init__(self, model_ref, extra_cols: tuple = ()):
        import ray

        self._logp = ray.get(model_ref) if not hasattr(model_ref, "shape") else model_ref
        self._extra = tuple(extra_cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        out = []
        for t in batch.column("text").to_pylist():
            b = np.frombuffer(
                (t or "").encode("utf-8", "surrogatepass"), dtype=np.uint8
            )
            if b.size < 2:
                out.append(8.0)  # uniform-model cost for unscorable docs
                continue
            out.append(float(-self._logp[b[:-1], b[1:]].mean()))
        cols = {"doc_id": batch.column("doc_id")}
        for c in self._extra:
            cols[c] = batch.column(c)
        cols["bits_per_byte"] = pa.array(np.round(out, 6), pa.float64())
        return pa.table(cols)


# ---------------------------------------------------------------------------
# TF-IDF keyword extraction (two-pass corpus operator)


TF_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("token", pa.string()), ("tf", pa.int64()),
])


def term_freq_batch(batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Explode whitespace tokens → per-(doc, token) counts, vectorized:
    a document's text lives in ONE row, so the per-batch Arrow
    ``group_by`` already yields COMPLETE term frequencies — no
    cross-batch combine is needed for tf (df does need the corpus
    groupby).  Tokenization matches the repo-wide oracle convention
    (``regexp_split_to_array(TRIM(text), '\\s+')``)."""
    import numpy as np

    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(batch.column(text_col)), r"\s+"
    )
    flat = pc.list_flatten(toks)
    ids = np.repeat(
        np.asarray(batch.column(id_col).to_numpy(zero_copy_only=False),
                   dtype=np.int64),
        np.asarray(pc.list_value_length(toks).fill_null(0)
                   .to_numpy(zero_copy_only=False), dtype=np.int64),
    )
    flat = flat.combine_chunks()
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "token": flat,
    }).filter(pc.not_equal(flat, ""))
    g = t.group_by(["doc_id", "token"]).aggregate([([], "count_all")])
    return g.rename_columns(["doc_id", "token", "tf"]).cast(TF_SCHEMA)


def tfidf_topk(docs, *, k: int = 5, text_col: str = "text",
               id_col: str = "doc_id", n_buckets: int = 64):
    """Top-k keywords per document by tf·idf (idf = ln(N/df)).

    Scale shape: tf rows come from one vectorized explode pass; df is a
    combiner-first groupby over per-batch vocabulary partials (the
    shuffle moves (token, n) rows bounded by per-batch vocabulary, the
    same bound as ``doc_top_tokens``); the tf⋈df attach auto-selects
    broadcast vs partition-bucketed shuffle by the materialized df
    row count — above the ~400k-token crossover the vocabulary is
    never driver-collected; the final per-doc top-k is a grouped
    sort-head.  The only driver-side scalar is N (one number).  Ties
    break (score desc, token asc) — a total order, so the cutoff is
    stable."""
    tf = docs.map_batches(
        lambda b: term_freq_batch(b, text_col=text_col, id_col=id_col),
        batch_format="pyarrow",
    )

    # N (documents with non-empty trimmed text) rides the df pass instead
    # of a second source scan: the tf explode for the df branch appends
    # ONE sentinel row per source batch with token="" carrying the
    # batch's doc count in ``tf`` — a real tf row can never have an
    # empty token (term_freq_batch filters them), so the sentinel is
    # unambiguous.  Counted on SOURCE rows (one doc = one row) so block
    # splits downstream can't double-count.
    def tf_with_n(b: pa.Table) -> pa.Table:
        rows = term_freq_batch(b, text_col=text_col, id_col=id_col)
        t = pc.utf8_trim_whitespace(pc.fill_null(b.column(text_col), ""))
        nn = pc.sum(pc.not_equal(t, "").cast(pa.int64())).as_py() or 0
        sentinel = pa.table({
            "doc_id": pa.array([0], pa.int64()),
            "token": pa.array([""], pa.string()),
            "tf": pa.array([int(nn)], pa.int64()),
        }).cast(TF_SCHEMA)
        return pa.concat_tables([rows, sentinel])

    _DF_SCHEMA = pa.schema([("token", pa.string()), ("df", pa.int64())])

    # df partials: each real (doc, token) row is unique, so a per-batch
    # count of rows per token is a valid partial document frequency; the
    # sentinel rows contribute their tf SUM to the token="" slot, which
    # the same bucketed sum then folds into the global N.
    def df_partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "token" not in b.schema.names:
            return _DF_SCHEMA.empty_table()
        is_sent = pc.equal(b.column("token"), "")
        g = b.filter(pc.invert(is_sent)).group_by("token").aggregate(
            [([], "count_all")]).rename_columns(["token", "df"])
        nn = pc.sum(b.filter(is_sent).column("tf")).as_py() or 0
        sentinel = pa.table({"token": pa.array([""], pa.string()),
                             "df": pa.array([int(nn)], pa.int64())})
        return pa.concat_tables([g.cast(_DF_SCHEMA), sentinel])

    # barrier: df is (token, int64) only — pinning it is bounded by the
    # corpus vocabulary (spillable), and makes count() metadata-only:
    # the probe for the broadcast-vs-shuffle attach selection below.
    df_all = bucketed_aggregate(
        docs.map_batches(tf_with_n, batch_format="pyarrow").map_batches(
            df_partial, batch_format="pyarrow"),
        ["token"], [("df", "sum")], rename=["token", "df"], combine=True,
    ).materialize()

    sent_rows = df_all.map_batches(
        lambda t: t.filter(pc.equal(t.column("token"), "")),
        batch_format="pyarrow",
    ).take_all()
    n_docs = sum(r["df"] for r in sent_rows)
    df = df_all.map_batches(
        lambda t: t.filter(pc.not_equal(t.column("token"), "")),
        batch_format="pyarrow",
    )
    df_probe_rows = df_all.count() - len(sent_rows)

    # attach df to tf: below the measured ~400k-token crossover the df
    # side broadcasts (the LARGE tf side then never shuffles — one
    # streaming pass); above it the partition-bucketed shuffle runs —
    # the vocabulary is never driver-collected in that regime.
    from docling_graph_ray.stages.joins import lookup_join_auto

    joined = lookup_join_auto(tf, df, on="token", key_col="token",
                              value_cols=["df"],
                              probe_rows=df_probe_rows)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("token", pa.string()),
        ("tf", pa.int64()), ("df", pa.int64()), ("score", pa.float64()),
    ])

    def score_batch(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "df" not in b.schema.names:
            return out_schema.empty_table()
        # tf * ln(N/df), all Arrow kernels — same libm log as the
        # previous math.log row loop, so values are bit-identical
        score = pc.multiply(
            b.column("tf").cast(pa.float64()),
            pc.ln(pc.divide(float(n_docs),
                            b.column("df").cast(pa.float64()))),
        )
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "token": b.column("token").cast(pa.string()),
            "tf": b.column("tf").cast(pa.int64()),
            "df": b.column("df").cast(pa.int64()),
            "score": score,
        })

    scored = joined.map_batches(score_batch, batch_format="pyarrow")

    # grouped top-k WITHOUT one-Python-call-per-doc: bucket docs by
    # id-hash into ``n_buckets`` partition groups, so map_groups runs
    # n_buckets times and each call ranks a whole partition vectorized
    # (one Arrow sort + run-boundary numpy rank).  Rows of one doc
    # always share a bucket, so the per-doc cutoff is exact.  Size
    # n_buckets so corpus_rows/n_buckets fits a worker — the per-task
    # working set is one bucket, not one doc.

    def topk_partition(g: pa.Table) -> pa.Table:
        import numpy as np

        idx = pc.sort_indices(g, sort_keys=[
            ("doc_id", "ascending"), ("score", "descending"),
            ("token", "ascending"),
        ])
        g = g.take(idx).combine_chunks()
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.flatnonzero(ids[1:] != ids[:-1]) + 1]
        rank = np.arange(len(ids)) - np.repeat(
            starts, np.diff(np.r_[starts, len(ids)]))
        return g.filter(pa.array(rank < k)).select(
            list(out_schema.names)).cast(out_schema)

    return bucketed_map(scored, ["doc_id"], topk_partition,
                        num_partitions=n_buckets, schema=out_schema)


# ---------------------------------------------------------------------------
# exact quantiles over a bounded-cardinality numeric column


def value_quantiles(ds, col: str, qs: list[float]):
    """Exact discrete quantiles of ``col`` via a value histogram:
    per-batch value-counts partials → one small ``groupby(value)``
    shuffle (payload bounded by per-batch DISTINCT values, not rows) →
    driver-side cumulative walk over the merged histogram.

    Intended for bounded-cardinality numeric columns (lengths, counts,
    scores at fixed precision) where the histogram is tiny next to the
    corpus — the classic way to get EXACT corpus percentiles without a
    global sort.  The quantile rule matches DuckDB ``quantile_disc``:
    the element at index ``max(ceil(q*n)-1, 0)`` of the sorted values.

    Returns a small pyarrow table ``(q, value)``."""
    import math

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or col not in b.schema.names:
            return pa.schema([("v", pa.int64()),
                              ("n", pa.int64())]).empty_table()
        vc = pc.value_counts(b.column(col).cast(pa.int64()).combine_chunks())
        return pa.table({
            "v": vc.field("values"),
            "n": vc.field("counts").cast(pa.int64()),
        })

    hist = sorted(
        (r["v"], r["n"]) for r in
        bucketed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["v"], [("n", "sum")], rename=["v", "n"], combine=True,
        ).take_all()
        if r["v"] is not None
    )
    total = sum(n for _, n in hist)
    out_q, out_v = [], []
    for q in qs:
        idx = max(math.ceil(q * total) - 1, 0) if total else 0
        acc = 0
        val = hist[-1][0] if hist else None
        for v, n in hist:
            acc += n
            if acc > idx:
                val = v
                break
        out_q.append(float(q))
        out_v.append(val)
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


# ---------------------------------------------------------------------------
# distributed BPE vocabulary induction


def word_freq_dataset(ds, *, text_col: str = "text"):
    """Corpus word-frequency table as a Dataset ``(word, n)``.

    Combiner-before-shuffle (same shape as the top-tokens query): each
    batch reduces to local ``value_counts`` rows, so the groupby moves
    per-batch vocabulary partials, never one row per token occurrence.
    The result is VOCABULARY-sized — the working set every subsequent
    BPE round streams over, independent of corpus size.
    """

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.fill_null(b.column(text_col), "")),
            r"\s+",
        )
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat.combine_chunks())
        return pa.table({
            "word": vc.field("values"),
            "n": vc.field("counts").cast(pa.int64()),
        })

    return bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["word"], [("n", "sum")], rename=["word", "n"], combine=True,
    )


def _merge_pair_in_seq(seq: list, left: str, right: str) -> list:
    """Standard BPE merge: non-overlapping, left-to-right."""
    out, i, n = [], 0, len(seq)
    while i < n:
        if i + 1 < n and seq[i] == left and seq[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def bpe_train(ds, *, text_col: str = "text", merges: int = 20):
    """Distributed byte-pair-encoding vocabulary induction.

    The classic tokenizer-training loop (Sennrich et al. 2016) in the
    kmeans_fit shape: the corpus collapses ONCE to the word-frequency
    table (vocabulary-sized); each merge round is one streaming pass
    over it — every batch emits frequency-weighted adjacent-pair count
    partials (local dict combiner, so the reduce moves per-batch
    distinct pairs), the driver folds the tiny aggregate and picks the
    best pair (count DESC, then (left, right) ASC — a total order, so
    training is deterministic), and the merge is applied in a broadcast
    ``map_batches`` pass.  The working set is re-materialized each round
    (unions/iterations otherwise re-execute the whole lineage — see the
    connected-components note in SURVEY).

    Words are character sequences with a ``</w>`` end-of-word marker.
    Returns a list of ``(rank, left, right, count)`` tuples.
    """
    words = word_freq_dataset(ds, text_col=text_col).map_batches(
        lambda b: b.append_column(
            "syms",
            pa.array(
                [list(w) + ["</w>"] for w in b.column("word").to_pylist()],
                pa.list_(pa.string()),
            ),
        ),
        batch_format="pyarrow",
    ).select_columns(["syms", "n"]).materialize()
    from docling_graph_ray.stages.lineage import cut_stats_ancestry

    cut_stats_ancestry(words)

    def pair_partial(b: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        ns = b.column("n").to_numpy(zero_copy_only=False)
        for seq, n in zip(b.column("syms").to_pylist(), ns):
            for i in range(len(seq) - 1):
                k = (seq[i], seq[i + 1])
                counts[k] = counts.get(k, 0) + int(n)
        items = sorted(counts.items())
        return pa.table({
            "left": pa.array([k[0] for k, _ in items], pa.string()),
            "right": pa.array([k[1] for k, _ in items], pa.string()),
            "c": pa.array([c for _, c in items], pa.int64()),
        })

    out: list[tuple[int, str, str, int]] = []
    for rank in range(merges):
        # materialized so bucketed_aggregate's schema() reads block
        # metadata: on a lazy dataset it runs a limit(1) job whose task
        # cancellation has aborted the driver inside Ray 2.49
        # (reference_count.cc:581 check failure)
        agg = bucketed_aggregate(
            words.map_batches(pair_partial, batch_format="pyarrow").materialize(),
            ["left", "right"], [("c", "sum")],
            rename=["left", "right", "c"], combine=True,
        ).to_pandas()  # distinct adjacent pairs: vocabulary-sized
        if agg.empty:
            break
        # single O(V) scan for the deterministic argmax
        best = min(
            agg.itertuples(index=False),
            key=lambda r: (-int(r[2]), str(r[0]), str(r[1])),
        )
        left, right, cnt = str(best[0]), str(best[1]), int(best[2])
        if cnt < 2:
            break
        out.append((rank, left, right, cnt))

        def apply_merge(b: pa.Table, left=left, right=right) -> pa.Table:
            merged = [
                _merge_pair_in_seq(s, left, right)
                for s in b.column("syms").to_pylist()
            ]
            return pa.table({
                "syms": pa.array(merged, pa.list_(pa.string())),
                "n": b.column("n"),
            })

        # sever stats ancestry per merge round — the summary walk is
        # otherwise O(rank) per execution, O(merges^2) total
        # (see stages/lineage.py)
        words = cut_stats_ancestry(words.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize())

    return out


class BPETokenizer:
    """Actor-pool tokenizer applying a learned BPE merge list.

    The canonical stateful-stage shape (reference: the warm tokenizer
    state of `docling_graph/core/extractors/backends`, SURVEY §2.3):
    the merge list arrives once through ``fn_constructor_kwargs`` and a
    word → tokens cache accumulates PER ACTOR across every batch it
    sees — web text is Zipfian, so after the first few batches almost
    every word is a cache hit and the per-batch cost is one pandas
    factorize + a groupby-sum.  Encoding applies merges in rank order
    (equivalent to lowest-rank-adjacent-pair iteration).

    Emits ``(id_col, n_bpe_tokens)``; ``carry_cols`` appends extra input
    columns unchanged (rows are 1:1 with input) and ``emit_word_count``
    appends the whitespace word count — both additive, default off, so
    existing callers and their oracles are untouched.
    """

    def __init__(self, merges: list, text_col: str = "text",
                 id_col: str = "doc_id", carry_cols: tuple = (),
                 emit_word_count: bool = False):
        self.merges = [(l, r) for _, l, r, *_ in merges] if (
            merges and len(merges[0]) >= 4
        ) else list(merges)
        self.text_col = text_col
        self.id_col = id_col
        self.carry_cols = tuple(carry_cols)
        self.emit_word_count = bool(emit_word_count)
        self.cache: dict[str, int] = {}  # word -> token count

    def _encode_len(self, w: str) -> int:
        n = self.cache.get(w)
        if n is None:
            seq = list(w) + ["</w>"]
            for l, r in self.merges:
                if len(seq) < 2:
                    break
                seq = _merge_pair_in_seq(seq, l, r)
            n = len(seq)
            self.cache[w] = n
        return n

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd

        flat, doc_ix, counts = explode_tokens(
            pc.utf8_trim_whitespace(
                pc.fill_null(batch.column(self.text_col), "")
            )
        )
        codes, uniques = pd.factorize(flat.to_pandas())
        # python work is O(unseen unique words), amortized to ~0 by the
        # per-actor cache; everything else is C-path
        per_unique = np.fromiter(
            (self._encode_len(w) if w else 0 for w in uniques),
            np.int64, len(uniques),
        )
        tok_per_word = per_unique[codes] if len(codes) else np.zeros(0, np.int64)
        sums = np.zeros(len(counts), np.int64)
        np.add.at(sums, doc_ix, tok_per_word)
        cols = {
            self.id_col: batch.column(self.id_col),
            "n_bpe_tokens": pa.array(sums),
        }
        if self.emit_word_count:
            cols["n_words"] = pa.array(counts)
        for c in self.carry_cols:
            cols[c] = batch.column(c)
        return pa.table(cols)


def byte_entropy_batch(batch: pa.Table, text_col: str = "text",
                       id_col: str = "doc_id") -> pa.Table:
    """Per-document Shannon byte entropy — the gibberish / low-diversity
    quality signal (near-0 entropy = repeated-character junk, ~4.3 bits
    = typical prose, ~6+ bits = random/binary-ish payloads).

    Vectorized: one utf-8 encode + ``np.bincount`` over the 256-byte
    domain per document — no per-character Python.  Equal to character
    entropy on the ASCII corpus (the SQL twin splits per character);
    documented as BYTE entropy for non-ASCII inputs.  Entropy rounds to
    6 digits (≤ 256 float64 terms; summation-order drift ~1e-15)."""
    import numpy as np

    ids = batch.column(id_col)
    texts = batch.column(text_col).to_pylist()
    n_bytes = np.zeros(len(texts), np.int64)
    ent = np.zeros(len(texts), np.float64)
    for i, t in enumerate(texts):
        raw = (t or "").encode("utf-8", "surrogatepass")
        if not raw:
            continue
        counts = np.bincount(np.frombuffer(raw, np.uint8), minlength=1)
        counts = counts[counts > 0].astype(np.float64)
        p = counts / len(raw)
        n_bytes[i] = len(raw)
        # + 0.0 normalizes IEEE -0.0 (single-distinct-byte docs) so the
        # string-compared oracle hash can't see a "-0.0"
        ent[i] = np.round(-np.sum(p * np.log2(p)), 6) + 0.0
    return pa.table({
        id_col: ids,
        "n_bytes": pa.array(n_bytes),
        "entropy": pa.array(ent),
    })


def winnow_fingerprint_batch(batch: pa.Table, *, text_col: str = "text",
                             id_col: str = "doc_id", k: int = 3,
                             w: int = 4) -> pa.Table:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS local-fingerprinting algorithm): hash every
    word ``k``-gram, slide a ``w``-hash window, and in each window
    select the minimum hash (rightmost position on ties).  The selected
    (position, hash) set is a provably position-robust fingerprint —
    any shared substring of at least ``k + w - 1`` words yields at
    least one shared selected hash — which is what plagiarism/mirror
    detection needs and a single whole-document hash
    (``fingerprint_batch``) cannot give.

    Batch-local and fully vectorized (one sliding-window argmin per
    document); documents shorter than ``k + w - 1`` words emit no rows
    (no full window exists — the SQL twin mirrors this contract).
    Hashes are crc32 of the space-joined gram — the oracle-expressible
    family.  Output rows: ``(id, pos, gram_hash)``, distinct per doc."""
    import zlib

    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    texts = batch.column(text_col).to_pylist()
    out_id, out_pos, out_h = [], [], []
    for d, t in zip(ids, texts):
        words = (t or "").split()
        m = len(words) - k + 1
        if m < w:
            continue
        h = np.fromiter(
            (zlib.crc32(" ".join(words[i: i + k]).encode())
             for i in range(m)),
            np.int64, count=m)
        win = sliding_window_view(h, w)          # (m - w + 1, w)
        idx = (w - 1) - win[:, ::-1].argmin(axis=1)  # rightmost min
        pos = np.arange(m - w + 1) + idx
        sel = np.unique(pos)
        out_id.append(np.full(len(sel), d, np.int64))
        out_pos.append(sel)
        out_h.append(h[sel])
    if not out_id:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            "pos": pa.array([], pa.int64()),
            "gram_hash": pa.array([], pa.int64()),
        })
    return pa.table({
        id_col: pa.array(np.concatenate(out_id)),
        "pos": pa.array(np.concatenate(out_pos)),
        "gram_hash": pa.array(np.concatenate(out_h)),
    })
