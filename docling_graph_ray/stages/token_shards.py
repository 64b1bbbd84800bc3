"""Binary token-shard sink — fixed-size training shards from packed
sequences (the Megatron-style ``.bin`` + index layout).

``stages/packing.py`` decides WHERE every document's tokens land
(bucket stream → fixed-length sequences); this stage materializes the
layout: each ``seqs_per_shard``-sequence window of a bucket stream
becomes one little-endian binary file a dataloader can mmap, plus one
manifest row (counts, token sum, sha256) for resumable/verifiable
writes.  (The reference engine ships CSV/JSON/Cypher exporters —
`docling_graph/exporters/` — but nothing tensor-shaped; this is part
of the training-data operator set the north rule adds.)

Scale shape — the shard, not the bucket, is the unit of work:

1. **COUNT** pass: per-doc token counts → ``pack_sequences`` placement
   (narrow rows, bucketed cumsum — no text moves).
2. **ATTACH**: the placement columns ride back onto the token rows via
   ``lookup_join_auto`` (broadcast below the measured crossover, hash
   co-group above — never a driver-side dict).
3. **EXPLODE**: one streaming pass splits each document's tokens at
   shard boundaries — a doc usually touches one shard, a giant doc
   spans many rows instead of concentrating anywhere.
4. **ASSEMBLE**: ``groupby(shard key) → map_groups`` builds each file;
   a group holds at most ``seqs_per_shard × seq_len`` real tokens BY
   CONSTRUCTION — bounded worker memory no matter how hot a bucket is.
   Files land in a ``bucket=K/`` directory layout; a rerun with
   ``skip_existing`` leaves finished shards untouched (manifest rows
   are recomputed either way, so verification stays exact).

Determinism / oracle notes: placement is a pure function of
``(doc_id, n_tokens)`` (packing contract), shard content is therefore
rerun-stable including the trailing padding; the manifest arithmetic
(per-shard token count/sum, doc count, sequence count) is exactly
recomputable in SQL from the token table via the same window cumsum
the ``doc_pack_sequences`` oracle uses.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

from docling_graph_ray.stages.joins import lookup_join_auto
from docling_graph_ray.stages.packing import pack_sequences

__all__ = ["write_token_shards"]

MANIFEST_SCHEMA = pa.schema([
    ("bucket", pa.int64()),
    ("shard_id", pa.int64()),
    ("n_seqs", pa.int64()),
    ("n_docs", pa.int64()),
    ("n_tokens", pa.int64()),      # real tokens (padding excluded)
    ("token_sum", pa.int64()),
    ("path", pa.string()),
    ("sha256", pa.string()),
])

_SLICE_SCHEMA = pa.schema([
    ("skey", pa.int64()),          # bucket * 2^32 + shard_id
    ("doc_id", pa.int64()),
    ("pos0", pa.int64()),          # global token pos of slice start
    ("toks", pa.list_(pa.int64())),
])


def write_token_shards(
    toks_ds,
    out_dir: str,
    *,
    id_col: str = "doc_id",
    tokens_list_col: str = "toks",
    counts_col: str = "n_tokens",
    seq_len: int = 64,
    seqs_per_shard: int = 8,
    num_buckets: int = 16,
    pad_id: int = 0,
    dtype=np.uint32,
    rows_hint: int | None = None,
    skip_existing: bool = False,
):
    """Materialize packed training shards from a token-list dataset.

    ``toks_ds`` carries ``(id_col, tokens_list_col, counts_col)`` rows
    (``counts_col`` = ``len(toks)`` — producing both in one tokenize
    pass is the caller's cheap invariant).  Returns the manifest
    Dataset (MANIFEST_SCHEMA, one row per shard written)."""
    span = seq_len * seqs_per_shard
    os.makedirs(out_dir, exist_ok=True)

    placement = pack_sequences(
        toks_ds.select_columns([id_col, counts_col]),
        seq_len=seq_len, id_col=id_col, tokens_col=counts_col,
        num_buckets=num_buckets,
    ).materialize()  # post-groupby barrier output, narrow by contract
    if placement.count() == 0:  # degenerate: nothing has tokens
        import ray.data as _rd

        return _rd.from_arrow(MANIFEST_SCHEMA.empty_table())
    attached = lookup_join_auto(
        toks_ds, placement, on=id_col,
        value_cols=["seq_first", "offset_in_first"],
        probe_rows=rows_hint,
    )

    def explode(b: pa.Table) -> pa.Table:
        b = b.combine_chunks()
        col = b.column(tokens_list_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        sf = b.column("seq_first").to_numpy(zero_copy_only=False)
        oif = b.column("offset_in_first").to_numpy(zero_copy_only=False)
        bkt = ids % num_buckets
        skey_l, did_l, pos_l, parts = [], [], [], []
        for i in range(len(ids)):
            n = offs[i + 1] - offs[i]
            if n == 0 or sf[i] != sf[i]:  # NaN = unplaced (empty doc)
                continue  # empty docs place nowhere (packing contract)
            off = int(sf[i]) * seq_len + int(oif[i])
            s0, s1 = off // span, (off + n - 1) // span
            for s in range(s0, s1 + 1):
                lo = max(off, s * span)
                hi = min(off + n, (s + 1) * span)
                skey_l.append(int(bkt[i]) * (1 << 32) + s)
                did_l.append(int(ids[i]))
                pos_l.append(lo)
                parts.append(vals[offs[i] + lo - off: offs[i] + hi - off])
        return pa.table({
            "skey": pa.array(skey_l, pa.int64()),
            "doc_id": pa.array(did_l, pa.int64()),
            "pos0": pa.array(pos_l, pa.int64()),
            "toks": pa.array([p.tolist() for p in parts],
                             pa.list_(pa.int64())),
        }).cast(_SLICE_SCHEMA)

    def assemble(g: pa.Table) -> pa.Table:
        g = g.combine_chunks()
        skey = int(g.column("skey")[0].as_py())
        bucket, shard = skey >> 32, skey & 0xFFFFFFFF
        base = shard * span
        col = g.column("toks")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.values.to_numpy(zero_copy_only=False)
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        pos0 = g.column("pos0").to_numpy(zero_copy_only=False) - base
        lens = np.diff(offs)
        n_seqs = int((pos0 + lens - 1).max()) // seq_len + 1
        buf = np.full(n_seqs * seq_len, pad_id, dtype)
        for i in range(len(pos0)):
            buf[pos0[i]: pos0[i] + lens[i]] = vals[offs[i]: offs[i + 1]]
        raw = buf.astype(dtype().dtype.newbyteorder("<"), copy=False).tobytes()
        sha = hashlib.sha256(raw).hexdigest()
        bdir = os.path.join(out_dir, f"bucket={bucket:05d}")
        path = os.path.join(bdir, f"shard-{shard:06d}.bin")
        if not (skip_existing and os.path.exists(path)):
            os.makedirs(bdir, exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(raw)
            os.replace(tmp, path)  # atomic: a killed run never leaves
            # a half-shard at the final path (manifest/resume contract)
        return pa.table({
            "bucket": pa.array([bucket], pa.int64()),
            "shard_id": pa.array([shard], pa.int64()),
            "n_seqs": pa.array([n_seqs], pa.int64()),
            "n_docs": pa.array(
                [len(np.unique(g.column("doc_id").to_numpy(
                    zero_copy_only=False)))], pa.int64()),
            "n_tokens": pa.array([int(lens.sum())], pa.int64()),
            "token_sum": pa.array([int(vals.sum())], pa.int64()),
            "path": pa.array([path]),
            "sha256": pa.array([sha]),
        }).cast(MANIFEST_SCHEMA)

    return (
        attached.map_batches(explode, batch_format="pyarrow")
        .groupby("skey")
        .map_groups(assemble, batch_format="pyarrow")
    )
