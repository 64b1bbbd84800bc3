"""Sequence packing for LM training — fixed-length token sequences.

Training pipelines concatenate documents and slice the stream into
fixed-length sequences (GPT-style "packing"); what the data engine must
produce at scale is the PLACEMENT: which sequence(s) each document's
tokens land in, deterministically, so shard workers can materialize
token tensors independently and a resumed run reproduces the same
layout.  (The reference engine has no packing stage — this is part of
the training-data operator set the north rule adds.)

Determinism without a global sort: documents are assigned to
``num_buckets`` independent packing streams by ``doc_id % num_buckets``
and packed in ``doc_id`` order within their bucket.  Global
concatenation order would need one total-order sort of the corpus; the
bucketed layout is what a multi-host loader wants anyway (one stream
per shard, no cross-shard coupling), and every quantity is a pure
function of (doc_id, token count) — rerun-stable, resumable.

Scale shape: one vectorized ``map_batches`` computes per-doc token
counts (24-byte rows shuffle, never text); one partition-bucketed
co-group (``groupby(bucket)`` — ``num_buckets`` Python calls total)
sorts each bucket by doc_id and computes the running offsets with one
``np.cumsum``.  Skew: buckets are ~|corpus|/num_buckets docs; a giant
document spans multiple sequences but never concentrates work.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PACK_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("bucket", pa.int64()),
    ("n_tokens", pa.int64()),
    ("seq_first", pa.int64()),    # first sequence index within the bucket
    ("seq_last", pa.int64()),     # last sequence index (inclusive)
    ("offset_in_first", pa.int64()),  # token offset inside seq_first
])


def pack_sequences(docs, *, seq_len: int, text_col: str = "text",
                   id_col: str = "doc_id", num_buckets: int = 16,
                   tokens_col: str | None = None):
    """Assign every document's tokens to fixed-length training sequences.

    Returns PACK_SCHEMA rows: within bucket ``doc_id % num_buckets``,
    documents concatenate in ``doc_id`` order and the token stream
    slices into ``seq_len``-token sequences; each doc reports the
    sequence span ``[seq_first, seq_last]`` it occupies and its offset
    inside the first one.  Empty/whitespace-only docs are dropped
    (they contribute no tokens).  Tokenization is whitespace, OR pass
    ``tokens_col`` naming a precomputed per-doc token-count column (a
    BPE actor upstream — the ``doc_tokenize_pack`` composite) and the
    count step is skipped; zero-count rows are dropped the same way."""
    count_schema = pa.schema([
        ("doc_id", pa.int64()), ("bucket", pa.int64()),
        ("n_tokens", pa.int64()),
    ])

    def counts(b: pa.Table) -> pa.Table:
        text = pc.fill_null(b.column(text_col).cast(pa.large_string()), "")
        ntok = pc.list_value_length(
            pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+"))
        ids = b.column(id_col).cast(pa.int64()).combine_chunks()
        buckets = ids.to_numpy(zero_copy_only=False) % num_buckets
        t = pa.table({
            "doc_id": ids,
            "bucket": pa.array(buckets, pa.int64()),
            "n_tokens": ntok.cast(pa.int64()),
        })
        # a trimmed empty string still splits into one "" token — mask
        nonempty = pc.not_equal(
            pc.utf8_trim_whitespace(text), "")
        return t.filter(nonempty).cast(count_schema)

    def precounted(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).cast(pa.int64()).combine_chunks()
        buckets = ids.to_numpy(zero_copy_only=False) % num_buckets
        t = pa.table({
            "doc_id": ids,
            "bucket": pa.array(buckets, pa.int64()),
            "n_tokens": b.column(tokens_col).cast(pa.int64()),
        })
        return t.filter(pc.greater(t.column("n_tokens"), 0))

    def place(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[("doc_id", "ascending")]))
        g = g.combine_chunks()
        n = g.column("n_tokens").to_numpy(zero_copy_only=False)
        off = np.zeros(len(n), dtype=np.int64)
        np.cumsum(n[:-1], out=off[1:])
        return pa.table({
            "doc_id": g.column("doc_id"),
            "bucket": g.column("bucket"),
            "n_tokens": g.column("n_tokens"),
            "seq_first": pa.array(off // seq_len),
            "seq_last": pa.array((off + n - 1) // seq_len),
            "offset_in_first": pa.array(off % seq_len),
        }).cast(PACK_SCHEMA)

    return (
        docs.map_batches(precounted if tokens_col else counts,
                         batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(place, batch_format="pyarrow")
    )
