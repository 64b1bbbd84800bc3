"""Exact-substring dedup — remove duplicated ≥W-token passages corpus-wide.

Doc- and segment-level dedup miss the dominant duplication mode of web
text: long shared passages (licenses, boilerplate notices, quoted
articles) embedded in otherwise-distinct documents.  Lee et al. 2022
("Deduplicating Training Data Makes Language Models Better", ExactSubstr)
remove every occurrence of any ≥50-token substring that appears twice in
the corpus, using a suffix array over the concatenated corpus.  A suffix
array is a global sequential build — the opposite of a Ray pipeline — so
this module re-expresses the SAME contract at window granularity:

    a duplicated passage of length L ≥ W tokens contains L − W + 1
    duplicated W-token windows, so "every W-token sliding window whose
    hash occurs ≥2 times corpus-wide, all occurrences removed" removes
    exactly the duplicated passages (plus at most W−1 boundary tokens,
    the usual rolling-window approximation; collisions are 64-bit rare).

Dataflow (two bucketed shuffles, nothing driver-sized):

1. ``map_batches`` explodes each doc into ``(doc_id, pos, whash)`` rows:
   words hash once (vectorized siphash), the W-token window hash is a
   Horner fold — W elementwise uint64 ops over the whole batch, no
   per-window Python.  Only 24-byte rows shuffle, never text.
2. co-group by ``hash(whash) % P`` (stages/bucketing.py): inside each of
   the P calls one Arrow ``value_counts`` finds hashes with count ≥ 2
   and emits their ``(doc_id, pos)`` occurrences — the duplicated-window
   list.
3. co-group docs ∪ dup-windows by ``hash(doc_id) % P``: per doc, the
   union of ``[pos, pos+W)`` spans marks covered tokens (vectorized
   diff-array + cumsum); uncovered tokens rejoin into the clean text.

Scale notes: window rows ≈ one per corpus TOKEN — the same corpus-sized
intermediate the suffix array holds, but partitioned and spillable; W
bounds the Horner fold, not the row count.  Skew: a window repeated 1e8
times lands 1e8 rows in one hash bucket — counted vectorized (O(1)/row),
no pairwise work, so hot windows cost what any hash shuffle pays.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.stages.bucketing import (
    DEFAULT_PARTITIONS, bucketed_map, run_starts)

_B = np.uint64(0x100000001B3)  # FNV-ish odd multiplier (public constant)

_WIN_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("pos", pa.int64()), ("whash", pa.int64())]
)


def _word_hashes(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """All docs' words hashed to uint64 in one vectorized pass.
    Returns (flat word-hash array, doc start offsets of len n_docs+1)."""
    import pandas as pd

    words_per_doc = [(t or "").split(" ") for t in texts]
    starts = np.zeros(len(words_per_doc) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in words_per_doc], out=starts[1:])
    flat = [w for ws in words_per_doc for w in ws]
    if not flat:
        return np.array([], dtype=np.uint64), starts
    wh = pd.util.hash_array(np.array(flat, dtype=object)).astype(np.uint64)
    return wh, starts


def window_rows_udf(*, text_col: str = "text", id_col: str = "doc_id",
                    window: int = 50):
    """map_batches UDF: docs → (doc_id, pos, whash) sliding-window rows.

    The Horner fold runs over the batch's CONCATENATED word-hash array
    (W vector ops total); windows that would cross a document boundary
    are masked out afterwards — no per-doc Python in the hash math."""

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or text_col not in batch.schema.names:
            return _WIN_SCHEMA.empty_table()
        ids = batch.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        wh, starts = _word_hashes(batch.column(text_col).to_pylist())
        n = len(wh)
        if n < window:
            return _WIN_SCHEMA.empty_table()
        acc = np.zeros(n - window + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(window):
                acc = acc * _B + wh[j : n - window + 1 + j]
        # valid global positions: window fits inside one doc
        doc_of = np.searchsorted(starts, np.arange(n - window + 1),
                                 side="right") - 1
        end_ok = np.arange(n - window + 1) + window <= starts[doc_of + 1]
        keep = np.flatnonzero(end_ok)
        if keep.size == 0:
            return _WIN_SCHEMA.empty_table()
        d = doc_of[keep]
        return pa.table({
            "doc_id": pa.array(ids[d], pa.int64()),
            "pos": pa.array(keep - starts[d], pa.int64()),
            "whash": pa.array(acc[keep].view(np.int64)),
        }).cast(_WIN_SCHEMA)

    return fn


def duplicated_windows(windows, *, num_partitions: int = DEFAULT_PARTITIONS):
    """(doc_id, pos, whash) rows → the occurrences whose whash appears
    ≥2 times corpus-wide.  One bucketed co-group; inside each call a
    single Arrow ``value_counts`` + ``is_in`` — O(1) vectorized work per
    row, hot windows included."""
    out_schema = pa.schema([("doc_id", pa.int64()), ("pos", pa.int64())])

    def dups(g: pa.Table) -> pa.Table:
        h = g.column("whash").combine_chunks()
        vc = pc.value_counts(h)
        dup_vals = vc.field("values").filter(
            pc.greater_equal(vc.field("counts"), 2))
        if len(dup_vals) == 0:
            return out_schema.empty_table()
        keep = pc.is_in(h, value_set=dup_vals)
        return g.select(["doc_id", "pos"]).filter(keep).cast(out_schema)

    return bucketed_map(windows, ["whash"], dups,
                        num_partitions=num_partitions, schema=_WIN_SCHEMA)


OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("text", pa.string()),
        ("n_tokens", pa.int64()),
        ("n_removed", pa.int64()),
    ]
)


def substring_exact_dedup(docs, *, text_col: str = "text",
                          id_col: str = "doc_id", window: int = 50,
                          num_partitions: int = DEFAULT_PARTITIONS):
    """Corpus-wide exact-substring dedup (Lee et al. 2022 semantics at
    W-token window granularity): every token covered by a W-token window
    whose hash occurs ≥2 times in the corpus is removed from EVERY
    occurrence; survivors rejoin with single spaces.

    Returns ``(doc_id, text, n_tokens, n_removed)`` — docs shorter than
    ``window`` tokens pass through whole.  Reference scope note: the
    reference engine has no substring dedup; this is part of the
    training-data operator set the north rule adds."""
    doc_side = pa.schema(
        [("doc_id", pa.int64()), ("pos", pa.int64()), ("text", pa.string())]
    )

    windows = docs.map_batches(
        window_rows_udf(text_col=text_col, id_col=id_col, window=window),
        batch_format="pyarrow",
    )
    dup = duplicated_windows(windows, num_partitions=num_partitions)

    # union docs (pos = −1 carries the text) with dup-window rows
    def doc_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or text_col not in b.schema.names:
            return doc_side.empty_table()
        return pa.table({
            "doc_id": b.column(id_col).cast(pa.int64()).combine_chunks(),
            "pos": pa.array(np.full(b.num_rows, -1, np.int64)),
            "text": b.column(text_col).cast(pa.string()).combine_chunks(),
        }).cast(doc_side)

    def win_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "pos" not in b.schema.names:
            return doc_side.empty_table()
        return pa.table({
            "doc_id": b.column("doc_id").combine_chunks(),
            "pos": b.column("pos").combine_chunks(),
            "text": pa.nulls(b.num_rows, pa.string()),
        }).cast(doc_side)

    tagged = docs.map_batches(doc_rows, batch_format="pyarrow").union(
        dup.map_batches(win_rows, batch_format="pyarrow")
    )

    def rebuild(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g, sort_keys=[("doc_id", "ascending"), ("pos", "ascending")])
        g = g.take(idx).combine_chunks()
        starts, lens = run_starts(g, ["doc_id"])
        ids = g.column("doc_id").to_numpy(zero_copy_only=False)
        pos = g.column("pos").to_numpy(zero_copy_only=False)
        texts = g.column("text").to_pylist()
        out_id, out_txt, out_n, out_rm = [], [], [], []
        for s, ln in zip(starts, lens):
            # pos sorts ascending with −1 (the doc row) first
            if pos[s] != -1:
                continue  # dup rows for a doc outside this input: skip
            words = (texts[s] or "").split(" ")
            nw = len(words)
            spans = pos[s + 1 : s + ln]
            if spans.size:
                cover = np.zeros(nw + 1, dtype=np.int64)
                np.add.at(cover, spans, 1)
                ends = np.minimum(spans + window, nw)
                np.add.at(cover, ends, -1)
                covered = np.cumsum(cover[:-1]) > 0
                kept = [w for w, c in zip(words, covered) if not c]
                removed = int(covered.sum())
            else:
                kept, removed = words, 0
            out_id.append(int(ids[s]))
            out_txt.append(" ".join(kept))
            out_n.append(nw)
            out_rm.append(removed)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "text": pa.array(out_txt, pa.string()),
            "n_tokens": pa.array(out_n, pa.int64()),
            "n_removed": pa.array(out_rm, pa.int64()),
        }).cast(OUT_SCHEMA)

    return bucketed_map(tagged, ["doc_id"], rebuild,
                        num_partitions=num_partitions, schema=doc_side)
