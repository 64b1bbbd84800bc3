"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shapes chosen for 100 TB (task brief "Deduplication" + SURVEY.md §2.8):

- **exact**: hash-partition on the key + per-group first — the canonical
  groupby-first pattern (reference analogue: node-id dedup,
  docling_graph/core/converters/node_id_registry.py:58-113);
- **near-dup family**: one shared template —
    1. ``map_batches`` computes per-doc signatures (vectorized numpy) and
       *emits (band_idx, band_key, doc_id[, payload]) candidate rows*,
    2. ``groupby(band)`` buckets candidates; each bucket nominates the
       minimum doc id as representative and (optionally) verifies members
       against it (hamming / jaccard / cosine),
    3. ``groupby(doc_id).min(rep)`` assigns every doc its final
       representative; ``rep == doc_id`` ⇒ keep, else duplicate.
  Both wide steps shuffle only tiny (hash, id) rows — never text — so the
  all-to-all cost is O(rows × bands × ~32 bytes), not O(corpus bytes).
  Bucket-chains deduplicate transitively (A~B, B~C drops both B and C),
  the standard LSH-dedup approximation for web corpora.

Determinism: signature permutations derive from a fixed seed; crc32 base
hashes are process-independent; representatives are min-ids — same input
⇒ same survivors on any cluster shape.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.stages.bucketing import (
    bucketed_aggregate, bucketed_first, bucketed_map, popcount64, run_starts)
from docling_graph_ray.stages.text_analysis import explode_tokens

_MERSENNE_PRIME = np.uint64((1 << 61) - 1)
_MAX_HASH = np.uint64((1 << 32) - 1)


# ---------------------------------------------------------------------------
# exact dedup


def add_text_hash(text_col: str, out_col: str = "text_hash"):
    """map_batches UDF factory: 64-bit content hash column for cheap
    shuffling of long-text keys."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        hashes = [
            hashlib.blake2b((t or "").encode("utf-8", "surrogatepass"), digest_size=8).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return batch.append_column(out_col, pa.array(hashes, pa.string()))

    return fn


def segment_rows_udf(*, text_col: str = "text", id_col: str = "doc_id",
                     window: int = 20):
    """map_batches UDF factory: explode documents into non-overlapping
    ``window``-word segments, emitting only ``(id, seg_idx, seg_hash)``
    rows — the segment-level (C4-style "paragraph") dedup unit.  The
    synthetic corpus carries no newlines, so the segmentation unit is a
    fixed word window rather than a blank-line paragraph; the dedup
    shape is identical.  Words split on a single space (matching DuckDB
    ``string_split(text, ' ')`` so the oracle mirrors exactly); segments
    hash with md5 (the digest both sides share).  Text itself never
    leaves the batch — only ~48-byte rows shuffle."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_ids: list = []
        out_idx: list[int] = []
        out_hash: list[str] = []
        for d, t in zip(ids, texts):
            words = (t or "").split(" ")
            n_seg = (len(words) + window - 1) // window
            for i in range(n_seg):
                seg = " ".join(words[i * window:(i + 1) * window])
                out_ids.append(d)
                out_idx.append(i)
                out_hash.append(hashlib.md5(seg.encode("utf-8", "surrogatepass")).hexdigest())
        return pa.table({
            id_col: pa.array(out_ids, batch.column(id_col).type),
            "seg_idx": pa.array(out_idx, pa.int64()),
            "seg_hash": pa.array(out_hash, pa.string()),
        })

    return fn


def segment_exact_dedup(docs, *, text_col: str = "text",
                        id_col: str = "doc_id", window: int = 20):
    """Corpus-wide segment-level exact dedup (the C4 pipeline's
    paragraph dedup, Raffel et al. 2020 §2.2, adapted to word windows):
    every document explodes into ``window``-word segments; the first
    occurrence of each distinct segment corpus-wide (min ``(id,
    seg_idx)``) keeps, all later occurrences are marked dropped.

    Returns ``(id, seg_idx, seg_hash, keep)`` rows.  ONE hash-partition
    shuffle of tiny signature rows keyed ``hash(seg_hash) % P``
    (stages/bucketing.py — exactly P vectorized map_groups calls);
    inside each bucket an Arrow C++ ``group_by(min)`` finds every
    segment's first occurrence and ``index_in`` + ``equal`` flags the
    keepers.  (Round 2 ran a Min aggregate + a native ``Dataset.join``
    here — two shuffles plus the hash-join actor-pool spin-up; same
    result, double the exchange.)"""
    segs = docs.map_batches(
        segment_rows_udf(text_col=text_col, id_col=id_col, window=window),
        batch_format="pyarrow",
    )

    # Vectorized first-occurrence marking.  A per-group map_groups
    # (sort + flag-first) costs one Python call per DISTINCT segment —
    # measured 224.6 s remote wall at 100k docs (~1.07M segments) vs
    # 7 s for the sort itself.  Instead: pack the (doc_id, seg_idx)
    # occurrence order into one int64, take the C-path min per
    # seg_hash, and hash-join the tiny (seg_hash, min) table back —
    # keep = "my packed order equals my segment's min".
    _SEG_BITS = 20  # seg_idx < 2^20 (20M words/doc at window=20)

    def pack(b: pa.Table) -> pa.Table:
        if not pa.types.is_integer(b.schema.field(id_col).type):
            raise TypeError(
                "segment_exact_dedup requires an integer id column "
                f"(got {b.schema.field(id_col).type} for {id_col!r}); "
                "hash string ids to int64 first"
            )
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        seg = b.column("seg_idx").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.max() >= (1 << (63 - _SEG_BITS)) or ids.min() < 0
                         or seg.max() >= (1 << _SEG_BITS)):
            raise ValueError("segment pack overflow: doc_id/seg_idx out of range")
        return b.append_column(
            "_packed", pa.array((ids << _SEG_BITS) | seg, pa.int64())
        )

    # a fully-empty corpus yields a schema-less dataset (schema() is
    # None), so the contract's typed empty result needs the guard; the
    # packed rows are tiny (id+idx+hash ≈ 50 B) and consumed once
    packed = segs.map_batches(pack, batch_format="pyarrow").materialize()
    if packed.count() == 0:
        import ray.data

        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "seg_idx": pa.array([], pa.int64()),
            "seg_hash": pa.array([], pa.string()),
            "keep": pa.array([], pa.bool_()),
        }))

    out_schema = pa.schema([
        (id_col, pa.int64()), ("seg_idx", pa.int64()),
        ("seg_hash", pa.string()), ("keep", pa.bool_()),
    ])

    def flag_partition(g: pa.Table) -> pa.Table:
        sub = g.select(["seg_hash", "_packed"]).combine_chunks()
        mins = sub.group_by("seg_hash").aggregate([("_packed", "min")])
        pos = pc.index_in(sub.column("seg_hash"),
                          value_set=mins.column("seg_hash").combine_chunks())
        minp = mins.column("_packed_min").combine_chunks().take(pos)
        return pa.table({
            id_col: g.column(id_col).cast(pa.int64()),
            "seg_idx": g.column("seg_idx").cast(pa.int64()),
            "seg_hash": g.column("seg_hash"),
            "keep": pc.equal(g.column("_packed"), minp),
        }).cast(out_schema)

    return bucketed_map(packed, ["seg_hash"], flag_partition)


# ---------------------------------------------------------------------------
# signature machinery (vectorized per doc)


def _word_shingles(text: str, n: int) -> list[bytes]:
    words = text.split()
    if len(words) < n:
        return [" ".join(words).encode("utf-8", "surrogatepass")] if words else []
    return [
        " ".join(words[i : i + n]).encode("utf-8", "surrogatepass")
        for i in range(len(words) - n + 1)
    ]


def _base_hashes(shingles: list[bytes]) -> np.ndarray:
    """Stable 32-bit crc32 base hashes (C-speed, process-independent)."""
    return np.fromiter(
        (zlib.crc32(s) for s in shingles), dtype=np.uint64, count=len(shingles)
    )


def _perm_params(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE_PRIME, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(
    text: str, a: np.ndarray, b: np.ndarray, shingle_words: int = 3
) -> np.ndarray:
    """(num_perm,) uint32 minhash signature; empty text → all MAX."""
    sh = _word_shingles(text, shingle_words)
    if not sh:
        return np.full(a.shape[0], _MAX_HASH, dtype=np.uint64)
    h = _base_hashes(sh)  # (n,)
    with np.errstate(over="ignore"):
        # (k, n) = (a[:,None] * h[None,:] + b[:,None]) % prime, capped to 32 bit
        phv = (a[:, None] * h[None, :] + b[:, None]) % _MERSENNE_PRIME
        return np.bitwise_and(phv, _MAX_HASH).min(axis=1)


_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: spread 32-bit crc values over 64 bits."""
    with np.errstate(over="ignore"):
        h = h.astype(np.uint64)
        h ^= h >> np.uint64(30)
        h *= _SPLITMIX_C1
        h ^= h >> np.uint64(27)
        h *= _SPLITMIX_C2
        h ^= h >> np.uint64(31)
    return h


def simhash64(text: str) -> int:
    """64-bit SimHash over word unigrams (vectorized bit-vote)."""
    words = text.split()
    if not words:
        return 0
    h = _mix64(_base_hashes([w.encode("utf-8", "surrogatepass") for w in words]))
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int64
    )
    votes = (2 * bits - 1).sum(axis=0)
    sig = np.uint64(0)
    for j in range(64):
        if votes[j] >= 0:
            sig |= np.uint64(1) << np.uint64(j)
    return int(sig)


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


# ---------------------------------------------------------------------------
# the shared near-dup template


def _has_words(t: str | None) -> bool:
    return bool((t or "").split())


def _empty_doc_reps(ds, *, id_col: str, text_col: str):
    """Representative assignment for WORDLESS docs, routed around the
    banded shuffle entirely.

    Every empty/whitespace-only doc shares one signature (minhash all-MAX,
    simhash 0, empty shingle set), so at web scale they would all land in
    ONE bucket per band — an unbounded ``map_groups`` group on a
    pathological key (the round-1 skew hole, VERDICT.md What's-wrong #5).
    They are trivially mutual duplicates, so their representative is just
    the global min id among them — a streaming ``Dataset.min`` aggregate;
    no group ever materializes.  Returns ``(id, rep_id)`` rows or None
    when the corpus has no wordless docs."""

    def empties(b: pa.Table) -> pa.Table:
        texts = b.column(text_col).to_pylist()
        mask = pa.array([not _has_words(t) for t in texts], pa.bool_())
        return b.filter(mask).select([id_col])

    e = ds.map_batches(empties, batch_format="pyarrow").materialize()
    if e.count() == 0:
        return None
    rep = e.min(id_col)

    def assign(b: pa.Table) -> pa.Table:
        ids = b.column(id_col)
        return pa.table({
            id_col: ids,
            "rep_id": pa.array([rep] * len(ids), ids.type),
        })

    return e.map_batches(assign, batch_format="pyarrow")


def _finalize_reps(reps, empty_reps, id_col: str):
    """Union banded + wordless rep assignments; add ``is_dup``.

    Either side may be None (all-wordless corpus → no banded reps;
    no wordless docs → no empty reps; fully empty corpus → both)."""
    if reps is None:
        reps = empty_reps
    elif empty_reps is not None:
        reps = reps.union(empty_reps)
    if reps is None:  # fully empty corpus
        import ray.data

        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "rep_id": pa.array([], pa.int64()),
            "is_dup": pa.array([], pa.bool_()),
        }))
    return reps.map_batches(
        lambda t: t.append_column(
            "is_dup", pc.not_equal(t.column(id_col), t.column("rep_id"))
        ),
        batch_format="pyarrow",
    )


def _bucket_rep_pairs(candidates, id_col: str, *, num_partitions: int = 64):
    """(band_idx, band_key, id) candidate rows → per-band ``(id,
    rep_id)`` pairs, rep = the bucket's min id.

    ONE partition-bucket shuffle: candidates bucket by ``hash(band) % P``;
    inside each of the P vectorized calls, a C-path ``group_by(min)``
    finds every bucket's representative and ``index_in`` + ``take``
    attaches it back to the members — no per-bucket Python, and no
    native ``Dataset.join`` (whose hash-join aggregator pool costs ~2 s
    spin-up per join at small scale — the round-2 sf0.1 regression —
    and crashes on schema-less empty partitions).  Returns None for an
    all-wordless corpus (no candidate rows)."""
    # the guard below needs a count, and candidate rows are tiny
    # (16 bytes/row): materialize once
    candidates = candidates.materialize()
    if candidates.count() == 0:
        # all-wordless corpus: every doc routed around the bands —
        # signal "no banded assignments" and let _finalize_reps fall
        # back to the wordless-doc representatives alone
        return None

    band_cols = ["band_idx", "band_key"]

    def attach_rep(g: pa.Table) -> pa.Table:
        sub = g.select(band_cols + [id_col]).combine_chunks()
        mins = sub.group_by(band_cols).aggregate([(id_col, "min")])

        # composite key → EXACT flat key so index_in works on one int64
        # column: band keys here are 32-bit digests (crc32 band chunks)
        # and band_idx is tiny, so (idx << 32) | key is collision-free
        def packed(t: pa.Table) -> pa.Array:
            bi = t.column("band_idx").to_numpy(zero_copy_only=False).astype(np.uint64)
            bk = t.column("band_key").to_numpy(zero_copy_only=False).astype(np.uint64)
            if len(bk) and (bk.max() >> np.uint64(32) or bi.max() >> np.uint64(31)):
                raise ValueError("band key exceeds 32 bits: widen the pack")
            return pa.array(((bi << np.uint64(32)) | bk).view(np.int64))

        pos = pc.index_in(packed(sub), value_set=packed(mins))
        rep = mins.column(id_col + "_min").combine_chunks().take(pos)
        return pa.table({id_col: sub.column(id_col), "rep_id": rep})

    return bucketed_map(candidates, band_cols, attach_rep,
                        num_partitions=num_partitions)


def _resolve_reps(candidates, id_col: str, *, num_partitions: int = 64):
    """(band_idx, band_key, id) candidate rows → (id, rep_id)
    assignment: the per-band bucket-min pairs of ``_bucket_rep_pairs``
    folded to ONE representative per id (min across bands)."""
    pairs = _bucket_rep_pairs(candidates, id_col,
                              num_partitions=num_partitions)
    if pairs is None:
        return None
    return bucketed_aggregate(
        pairs, [id_col], [("rep_id", "min")],
        rename=[id_col, "rep_id"], combine=True,
    )


def _minhash_band_rows(
    ds,
    *,
    id_col: str,
    text_col: str,
    num_perm: int,
    bands: int,
    shingle_words: int,
    seed: int,
):
    """Worded docs → ``(id, band_idx, band_key)`` LSH candidate rows
    (one per band); the shared front half of the one-hop and the
    connected-component MinHash dedup variants."""
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands
    a, b = _perm_params(num_perm, seed)

    def emit_bands(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id, out_band, out_key = [], [], []
        for i, t in zip(ids, texts):
            if not _has_words(t):
                continue  # wordless docs route around the banded shuffle
            sig = minhash_signature(t or "", a, b, shingle_words)
            for bi in range(bands):
                chunk = sig[bi * rows_per_band : (bi + 1) * rows_per_band]
                out_id.append(i)
                out_band.append(bi)
                out_key.append(zlib.crc32(chunk.tobytes()))
        return pa.table(
            {
                id_col: pa.array(out_id),
                "band_idx": pa.array(out_band, pa.int32()),
                "band_key": pa.array(out_key, pa.int64()),
            }
        )

    return ds.map_batches(emit_bands, batch_format="pyarrow")


def minhash_lsh_dedup(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    bands: int = 16,
    shingle_words: int = 3,
    seed: int = 42,
):
    """shingle → minhash → band → bucket-groupby dedup.

    Returns a Dataset ``(id, rep_id, is_dup)`` covering every input row."""
    candidates = _minhash_band_rows(
        ds, id_col=id_col, text_col=text_col, num_perm=num_perm,
        bands=bands, shingle_words=shingle_words, seed=seed,
    )
    reps = _resolve_reps(candidates, id_col)
    return _finalize_reps(
        reps, _empty_doc_reps(ds, id_col=id_col, text_col=text_col), id_col
    )


def minhash_cc_dedup(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_perm: int = 128,
    bands: int = 16,
    shingle_words: int = 3,
    seed: int = 42,
    driver_cc_max_edges: int = 2_000_000,
):
    """Transitive MinHash-LSH dedup: band-bucket collisions become
    edges, connected components merge clusters ACROSS bands, and the
    representative is the component minimum (the SlimPajama/BigCode
    fuzzy-dedup clustering variant).

    Differs from :func:`minhash_lsh_dedup` exactly when dup chains span
    bands — A~B in one band, B~C in another: one-hop leaves C pointing
    at B while A keeps itself; the component fold sends all three to A.

    Scale shape: the band emission and bucket-min pair pass are shared
    with the one-hop variant (one partition-bucket shuffle); the edge
    list carries only the colliding pairs (two int64s per row — bounded
    by bands × dup docs, never by corpus text), and the component fold
    is the bucketed label-propagation of
    :func:`~docling_graph_ray.stages.graphalgo.connected_components`,
    whose round count is the dup-chain diameter (tiny in practice)."""
    candidates = _minhash_band_rows(
        ds, id_col=id_col, text_col=text_col, num_perm=num_perm,
        bands=bands, shingle_words=shingle_words, seed=seed,
    )
    empty_reps = _empty_doc_reps(ds, id_col=id_col, text_col=text_col)
    pairs = _bucket_rep_pairs(candidates, id_col)
    if pairs is None:  # all-wordless corpus
        return _finalize_reps(None, empty_reps, id_col)
    # two consumers below (one-hop fold + edge filter): materialize the
    # narrow (2 × int64) pair table so the bucket shuffle runs ONCE
    pairs = pairs.materialize()

    # one-hop fold: every worded doc with its min bucket-rep across
    # bands — the self-assignment for isolated docs, and the floor the
    # component labels only ever improve on
    banded = bucketed_aggregate(
        pairs, [id_col], [("rep_id", "min")],
        rename=[id_col, "rep_id"], combine=True,
    )

    def dup_edges(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(b.column(id_col), b.column("rep_id")))

    # narrow (two int64 cols) and bounded by actual collisions — cheap
    # to materialize for the empty guard
    edges = pairs.map_batches(dup_edges, batch_format="pyarrow").materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return _finalize_reps(banded, empty_reps, id_col)

    if n_edges <= driver_cc_max_edges:
        # small edge set (the common case — collisions only): a driver
        # union-find beats the distributed rounds, whose THREE joins per
        # round each pay the ~2-4 s hash-join actor spin-up (the round-2
        # measured fixed cost) — 22 s -> ~4 s on the sf0.1 bench corpus.
        # The edge list is two int64s/row, so the collect is bounded by
        # 16 B x driver_cc_max_edges; beyond that the bucketed
        # label-propagation path below takes over.
        parent: dict = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for r in edges.take_all():
            a, b = find(r[id_col]), find(r["rep_id"])
            if a != b:
                parent[max(a, b)] = min(a, b)
        lab_keys = list(parent)
        keys_arr = pa.array(lab_keys, pa.int64())
        vals_np = np.asarray([find(k) for k in lab_keys], np.int64)

        def apply_labels(t: pa.Table) -> pa.Table:
            # vectorized: docs with a component label take min(label,
            # banded); the rest keep their banded (self) rep
            ids = t.column(id_col).cast(pa.int64())
            pos = pc.fill_null(
                pc.index_in(ids, value_set=keys_arr), -1
            ).to_numpy(zero_copy_only=False)
            ids_np = ids.to_numpy(zero_copy_only=False)
            banded_np = t.column("rep_id").cast(pa.int64()) \
                .to_numpy(zero_copy_only=False)
            lab = np.where(pos >= 0, vals_np[np.maximum(pos, 0)], ids_np)
            return pa.table({
                id_col: ids,
                "rep_id": pa.array(np.minimum(lab, banded_np)),
            })

        reps = banded.map_batches(apply_labels, batch_format="pyarrow")
        return _finalize_reps(reps, empty_reps, id_col)

    from docling_graph_ray.stages.graphalgo import connected_components

    comp = connected_components(edges, src_col=id_col, dst_col="rep_id")

    def rename_comp(b: pa.Table) -> pa.Table:
        return pa.table({
            id_col: b.column("node"),
            "rep_id": b.column("component"),
        })

    reps = bucketed_aggregate(
        comp.map_batches(rename_comp, batch_format="pyarrow").union(banded),
        [id_col], [("rep_id", "min")],
        rename=[id_col, "rep_id"], combine=True,
    )
    return _finalize_reps(reps, empty_reps, id_col)


def simhash_dedup(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    hamming_threshold: int = 3,
    bands: int = 4,
    num_partitions: int = 64,
):
    """SimHash near-dup: 64-bit signature, 16-bit band buckets, exact
    hamming verification against the bucket representative.

    Verification is partition-bucketed (``hash(band) % P`` co-group,
    stages/bucketing.py): one vectorized call per partition, with the
    per-bucket representative found via sorted run boundaries and the
    hamming check one numpy xor+popcount over the whole partition — a
    hot bucket (e.g. one boilerplate page repeated 1e8 times) costs O(1)
    per member and never materializes as its own Python group, so no
    verify cap is needed here (contrast ``embedding_near_dedup`` where
    per-member verify is O(dim) and a cap applies)."""
    width = 64 // bands

    def emit(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        rows = {"id": [], "band_idx": [], "band_key": [], "sig": []}
        for i, t in zip(ids, texts):
            if not _has_words(t):
                continue  # wordless docs route around the banded shuffle
            sig = simhash64(t or "")
            for bi in range(bands):
                rows["id"].append(i)
                rows["band_idx"].append(bi)
                rows["band_key"].append((sig >> (bi * width)) & ((1 << width) - 1))
                rows["sig"].append(sig)
        return pa.table(
            {
                id_col: pa.array(rows["id"]),
                "band_idx": pa.array(rows["band_idx"], pa.int32()),
                "band_key": pa.array(rows["band_key"], pa.int64()),
                "sig": pa.array([s - (1 << 64) if s >= (1 << 63) else s for s in rows["sig"]], pa.int64()),
            }
        )

    def verify_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("band_idx", "ascending"), ("band_key", "ascending"),
            (id_col, "ascending")])
        g = g.take(idx).combine_chunks()
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        sigs = g.column("sig").to_numpy(zero_copy_only=False).view(np.uint64)
        starts, lens = run_starts(g, ["band_idx", "band_key"])
        rep_row = np.repeat(ids[starts], lens)
        rep_sig = np.repeat(sigs[starts], lens)
        ok = popcount64(sigs ^ rep_sig) <= hamming_threshold
        return pa.table({id_col: g.column(id_col),
                         "rep_id": pa.array(np.where(ok, rep_row, ids))})

    candidates = ds.map_batches(emit, batch_format="pyarrow")
    pairs = bucketed_map(candidates, ["band_idx", "band_key"],
                         verify_partition, num_partitions=num_partitions)
    reps = bucketed_aggregate(
        pairs, [id_col], [("rep_id", "min")],
        rename=[id_col, "rep_id"], combine=True,
    )
    return _finalize_reps(
        reps, _empty_doc_reps(ds, id_col=id_col, text_col=text_col), id_col
    )


def ngram_jaccard_dedup(
    ds,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    shingle_words: int = 3,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 42,
):
    """LSH candidate generation + EXACT n-gram-Jaccard verification.

    Band rows carry ``(id, band_idx, band_key)`` ONLY — the round-1
    version shipped the full hashed-shingle set on every band row, a
    shuffle payload ≈ bands × corpus token count (VERDICT.md What's-wrong
    #4).  Shingle sets now live in a one-row-per-doc side dataset
    (materialized once; the object store spills if it is huge) and are
    attached to the DISTINCT candidate (member, rep) pairs via two
    co-group lookup joins, so the shingle payload moves at most twice
    regardless of the band count.

    Wide steps: band emit → bucket groupby (tiny rows) → pair distinct
    (tiny) → two lookup joins (shingles move once each) → final per-id
    min-reduce (tiny).  Semantics are unchanged: members verify against
    the bucket representative; bucket-chains dedup transitively."""
    from docling_graph_ray.stages.joins import lookup_join

    assert num_perm % bands == 0
    rows_per_band = num_perm // bands
    a, b = _perm_params(num_perm, seed)

    def emit(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        rows = {"id": [], "band_idx": [], "band_key": []}
        for i, t in zip(ids, texts):
            if not _has_words(t):
                continue  # wordless docs route around the banded shuffle
            sig = minhash_signature(t or "", a, b, shingle_words)
            for bi in range(bands):
                chunk = sig[bi * rows_per_band : (bi + 1) * rows_per_band]
                rows["id"].append(i)
                rows["band_idx"].append(bi)
                rows["band_key"].append(zlib.crc32(chunk.tobytes()))
        return pa.table(
            {
                id_col: pa.array(rows["id"]),
                "band_idx": pa.array(rows["band_idx"], pa.int32()),
                "band_key": pa.array(rows["band_key"], pa.int64()),
            }
        )

    def emit_shingles(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        out_id, out_sh = [], []
        for i, t in zip(ids, texts):
            if not _has_words(t):
                continue
            sh = _word_shingles(t or "", shingle_words)
            out_id.append(i)
            out_sh.append(sorted(set(int(x) for x in _mix64(_base_hashes(sh)))))
        return pa.table({
            id_col: pa.array(out_id),
            "shingles": pa.array(out_sh, pa.list_(pa.uint64())),
        })

    shingles_ds = ds.map_batches(
        emit_shingles, batch_format="pyarrow"
    ).materialize()
    rep_shingles_ds = shingles_ds.map_batches(
        lambda t: t.rename_columns([id_col, "rep_shingles"]),
        batch_format="pyarrow",
    )

    # bucket → candidate (member, bucket-min) pairs, self-pairs excluded.
    # Partition-bucketed (one vectorized call per hash bucket, never one
    # per band bucket): rep per run via sorted run boundaries, pairs
    # pre-deduped inside the partition with a C-path group_by.
    def pairs_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("band_idx", "ascending"), ("band_key", "ascending"),
            (id_col, "ascending")])
        g = g.take(idx).combine_chunks()
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        starts, lens = run_starts(g, ["band_idx", "band_key"])
        rep_idx_row = np.repeat(starts, lens)
        members = np.flatnonzero(np.arange(len(ids)) - rep_idx_row > 0)
        t = pa.table({
            id_col: pa.array(ids[members]),
            "rep_id": pa.array(ids[rep_idx_row[members]]),
        })
        return t.group_by([id_col, "rep_id"]).aggregate([])

    candidates = ds.map_batches(emit, batch_format="pyarrow")
    raw_pairs = bucketed_map(candidates, ["band_idx", "band_key"],
                             pairs_partition)

    # distinct pairs (the same pair arises from several bands) — a
    # partition-bucketed distinct, one vectorized call per hash bucket
    pair_schema = pa.schema([(id_col, pa.int64()), ("rep_id", pa.int64())])
    pairs = bucketed_first(raw_pairs, [id_col, "rep_id"],
                           out_schema=pair_schema)

    # attach both shingle sets, verify exactly
    pairs = lookup_join(pairs, shingles_ds, on=id_col, value_cols=["shingles"])
    pairs = lookup_join(pairs, rep_shingles_ds, on="rep_id", key_col=id_col,
                        value_cols=["rep_shingles"])

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "shingles" not in t.schema.names:
            return pa.table({id_col: pa.array([]), "rep_id": pa.array([])})
        ids = t.column(id_col).to_pylist()
        reps = t.column("rep_id").to_pylist()
        sh = t.column("shingles").to_pylist()
        rsh = t.column("rep_shingles").to_pylist()
        out_rep = []
        for i, r, s, rs in zip(ids, reps, sh, rsh):
            s, rs = set(s or []), set(rs or [])
            union = len(s | rs)
            j = (len(s & rs) / union) if union else 1.0
            out_rep.append(r if j >= threshold else i)
        return pa.table({id_col: pa.array(ids), "rep_id": pa.array(out_rep)})

    verified = pairs.map_batches(verify, batch_format="pyarrow")

    # every worded doc is at least its own representative
    def self_rows(b: pa.Table) -> pa.Table:
        ids = b.column(id_col)
        mask = pa.array([_has_words(t) for t in b.column(text_col).to_pylist()],
                        pa.bool_())
        kept = ids.filter(mask)
        return pa.table({id_col: kept, "rep_id": kept})

    base = ds.map_batches(self_rows, batch_format="pyarrow")
    reps = bucketed_aggregate(
        base.union(verified), [id_col], [("rep_id", "min")],
        rename=[id_col, "rep_id"], combine=True,
    )
    return _finalize_reps(
        reps, _empty_doc_reps(ds, id_col=id_col, text_col=text_col), id_col
    )


def embedding_near_dedup(
    ds,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    dim: int,
    cosine_threshold: float = 0.95,
    n_planes: int = 16,
    bands: int = 4,
    seed: int = 42,
    num_partitions: int = 64,
    max_bucket_verify: int = 65536,
    dtype=np.float32,
    planes: np.ndarray | None = None,
):
    """Random-hyperplane LSH over an embedding column + exact cosine
    verification against the bucket representative.

    Verification is partition-bucketed (``hash(band) % P`` co-group,
    stages/bucketing.py): one vectorized call per partition, the
    per-bucket representative found via sorted run boundaries and the
    cosine check one numpy row-wise dot over the whole partition.

    Hot-bucket cap: per-member verify is O(dim), so a bucket hotter
    than ``max_bucket_verify`` members (a near-identical page repeated
    1e8 times lands its band rows in ONE bucket) bounds full verify to
    the first ``max_bucket_verify`` members by id order; overflow
    members dedup only on the EXACT-equality fast path (unit vector
    bit-identical to the representative's — which is what full verify
    concludes for true identical repeats) and otherwise conservatively
    stay their own representative.  Deterministic; audit by comparing
    ``is_dup`` counts at two cap values.

    ``dtype``/``planes``: float32 is the scale default; an
    oracle-facing caller passes float64 and its own plane matrix so the
    DuckDB twin can recompute bucket bits and cosines exactly (the
    emitted-model pattern)."""
    if planes is None:
        rng = np.random.Generator(np.random.PCG64(seed))
        planes = rng.standard_normal((dim, n_planes)).astype(dtype)
    width = n_planes // bands
    emb_pa_type = pa.from_numpy_dtype(np.dtype(dtype))

    def emit(batch: pa.Table):
        ids = batch.column(id_col).to_pylist()
        embs = np.array(batch.column(emb_col).to_pylist(), dtype=dtype)
        norms = np.linalg.norm(embs, axis=1, keepdims=True)
        unit = embs / np.maximum(norms, 1e-12)
        bits = (unit @ planes) >= 0  # (n, planes)
        keys = np.zeros(len(ids), dtype=np.int64)
        rows = {"id": [], "band_idx": [], "band_key": [], "emb": []}
        for bi in range(bands):
            seg = bits[:, bi * width : (bi + 1) * width]
            keys = (seg * (1 << np.arange(width))).sum(axis=1)
            for k, i in enumerate(ids):
                rows["id"].append(i)
                rows["band_idx"].append(bi)
                rows["band_key"].append(int(keys[k]))
                rows["emb"].append(unit[k].tolist())
        return pa.table(
            {
                id_col: pa.array(rows["id"]),
                "band_idx": pa.array(rows["band_idx"], pa.int32()),
                "band_key": pa.array(rows["band_key"], pa.int64()),
                "emb": pa.array(rows["emb"], pa.list_(emb_pa_type)),
            }
        )

    def verify_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("band_idx", "ascending"), ("band_key", "ascending"),
            (id_col, "ascending")])
        g = g.take(idx).combine_chunks()
        n = g.num_rows
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        embs = (g.column("emb").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(n, -1))
        starts, lens = run_starts(g, ["band_idx", "band_key"])
        rep_idx_row = np.repeat(starts, lens)
        rep_row = ids[rep_idx_row]
        pos_in_run = np.arange(n) - rep_idx_row
        ok = np.zeros(n, dtype=bool)
        w = np.flatnonzero(pos_in_run < max_bucket_verify)
        ok[w] = (np.einsum("ij,ij->i", embs[w], embs[rep_idx_row[w]])
                 >= cosine_threshold)
        o = np.flatnonzero(pos_in_run >= max_bucket_verify)
        if o.size:  # overflow: exact-equality fast path only (docstring)
            ok[o] = np.all(embs[o] == embs[rep_idx_row[o]], axis=1)
        return pa.table({id_col: g.column(id_col),
                         "rep_id": pa.array(np.where(ok, rep_row, ids))})

    candidates = ds.map_batches(emit, batch_format="pyarrow")
    pairs = bucketed_map(candidates, ["band_idx", "band_key"],
                         verify_partition, num_partitions=num_partitions)
    reps = bucketed_aggregate(
        pairs, [id_col], [("rep_id", "min")],
        rename=[id_col, "rep_id"], combine=True,
    )
    return reps.map_batches(
        lambda t: t.append_column(
            "is_dup", pc.not_equal(t.column(id_col), t.column("rep_id"))
        ),
        batch_format="pyarrow",
    )


def semantic_dedup(
    ds,
    *,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    dim: int,
    k: int = 8,
    iters: int = 5,
    cosine_threshold: float = 0.98,
    seed: int = 42,
    dtype=np.float64,
    centroids: np.ndarray | None = None,
    max_cluster_verify: int = 65536,
    block: int = 1024,
):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): k-means cluster
    the embedding space, then prune semantic duplicates WITHIN clusters
    — a pair is duplicate when its cosine exceeds the threshold, and the
    kept representative is the lowest-id member.

    Ray shape: the iterative fit is :func:`kmeans_fit` (per-iteration
    reduce payload is ``k × dim`` partials, never the corpus);
    assignment + unit-normalization is one broadcast-matmul
    ``map_batches`` pass; the within-cluster pairwise verify is
    ``groupby(cluster).map_groups`` with members sorted by id and
    BLOCKED upper-triangle matmuls (``block × scanned`` floats peak,
    never ``n²``).  The partitioning assumption — one cluster's members
    fit one worker — is the method's own (pairwise-within-cluster is
    what makes SemDeDup tractable vs all-pairs); a cluster hotter than
    ``max_cluster_verify`` verifies only its first-K members by id and
    passes the overflow through as their own survivors, counted in
    ``n_overflow`` (the same cap+audit treatment as
    ``embedding_near_dedup``'s hot buckets).

    Closed-form rep rule (SQL-expressible, see the
    ``emb_semantic_dedup`` oracle): ``rep_id(i) = min id j < i in the
    same cluster with cos(i, j) ≥ threshold``, regardless of ``j``'s
    own dup status — transitive chains collapse to the lowest id, which
    is the one member the paper's per-group keep retains.

    Emits ``(id_col, cluster, rep_id, is_dup)``.
    """
    from docling_graph_ray.stages.similarity import (
        _normalize,
        kmeans_fit,
    )

    if centroids is None:
        centroids = kmeans_fit(ds, k=k, emb_col=emb_col, iters=iters,
                               seed=seed)
    cnorm = _normalize(np.asarray(centroids, dtype=np.float64)).astype(dtype)
    import ray as _ray

    cref = _ray.put(cnorm)
    emb_pa_type = pa.from_numpy_dtype(np.dtype(dtype))

    def assign(batch: pa.Table) -> pa.Table:
        c = _ray.get(cref)
        m = np.array(batch.column(emb_col).to_pylist(), dtype=dtype)
        unit = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                              1e-12)
        cl = (unit @ c.T).argmax(axis=1).astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(cl),
            "emb": pa.array([r.tolist() for r in unit],
                            pa.list_(emb_pa_type)),
        })

    def prune_group(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                "rep_id": pa.array([], pa.int64()),
                "is_dup": pa.array([], pa.bool_()),
                "n_overflow": pa.array([], pa.int64()),
            })
        g = g.take(pc.sort_indices(g, sort_keys=[(id_col, "ascending")]))
        g = g.combine_chunks()
        n = g.num_rows
        ids = g.column(id_col).to_numpy(zero_copy_only=False)
        unit = (g.column("emb").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).reshape(n, -1))
        cap = min(n, max_cluster_verify)
        rep = ids.copy()
        for s in range(0, cap, block):
            e = min(s + block, cap)
            if s == 0 and e == 1:
                continue
            sims = unit[s:e] @ unit[:e].T  # (e-s, e)
            valid = np.arange(e)[None, :] < np.arange(s, e)[:, None]
            m = (sims >= cosine_threshold) & valid
            has = m.any(axis=1)
            first = m.argmax(axis=1)  # argmax of bool = first True
            rep[s:e][has] = ids[first[has]]
        n_over = n - cap
        return pa.table({
            id_col: g.column(id_col),
            "cluster": g.column("cluster"),
            "rep_id": pa.array(rep, pa.int64()),
            "is_dup": pa.array(rep != ids),
            "n_overflow": pa.array(np.full(n, n_over, dtype=np.int64)),
        })

    out = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(prune_group, batch_format="pyarrow")
    )
    return out


def intradoc_window_dedup_batch(*, text_col: str = "text",
                                id_col: str = "doc_id", window: int = 2):
    """map_batches UDF factory: WITHIN-document repetition removal —
    the RefinedWeb/C4 "drop duplicated lines inside a page" rung.  The
    dedup unit is a non-overlapping ``window``-word span (the synthetic
    corpus has no newlines; on real pages pass the line split instead):
    later spans whose exact content appeared earlier in the SAME
    document are removed, and the cleaned text is reassembled in
    original order.

    Batch-local by construction (a document's spans never leave its
    row), so the stage is embarrassingly parallel — no shuffle at any
    scale.  The heavy steps (explode, window grouping, first-seen scan)
    run on Arrow/pandas C paths; only the span-string joins are
    Python-level, bounded by tokens/window.

    Emits ``(id_col, clean_text, n_dropped_windows)``; documents that
    are empty after trim emit no row (mirrors the SQL oracle).
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        text = pc.utf8_trim_whitespace(
            pc.fill_null(batch.column(text_col), "")
        )
        nonempty = pc.not_equal(text, "")
        batch = batch.filter(nonempty)
        text = text.filter(nonempty)
        if batch.num_rows == 0:
            return pa.table({
                id_col: pa.array([], batch.schema.field(id_col).type),
                "clean_text": pa.array([], pa.string()),
                "n_dropped_windows": pa.array([], pa.int64()),
            })
        flat, doc_ix, counts = explode_tokens(text)
        starts = np.r_[0, np.cumsum(counts)[:-1]]
        pos = np.arange(len(flat)) - starts[doc_ix]
        widx = pos // window

        # Window strings assemble on the Arrow C path: single-threaded
        # hash "list" aggregation appends values in row order within
        # each group, so binary_join yields each window's tokens in
        # original order — no token-level pandas frame or Python join.
        tok = pa.table({
            "d": pa.array(doc_ix), "wx": pa.array(widx),
            "w": pa.chunked_array([flat])
            if isinstance(flat, pa.Array) else flat,
        }).combine_chunks()
        segs = (
            tok.group_by(["d", "wx"], use_threads=False)
            .aggregate([("w", "list")])
            .sort_by([("d", "ascending"), ("wx", "ascending")])
            .combine_chunks()
        )
        seg_str = pc.binary_join(segs.column("w_list").combine_chunks(), " ")
        dnp = segs.column("d").to_numpy()
        # first occurrence wins: dictionary codes make the dup scan a
        # two-int-column C-path pass (one row per window, not per token)
        code = pc.dictionary_encode(seg_str).indices.to_numpy(
            zero_copy_only=False)
        dup = pd.DataFrame({"d": dnp, "c": code}).duplicated().to_numpy()

        kept = (
            pa.table({"d": dnp, "s": seg_str})
            .filter(pa.array(~dup))
            .group_by(["d"], use_threads=False)
            .aggregate([("s", "list")])
            .sort_by("d")
        )
        # every doc keeps its first window, so kept covers all docs
        clean = pc.binary_join(kept.column("s_list").combine_chunks(), " ")
        dropped = np.bincount(
            dnp[dup], minlength=len(counts)).astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "clean_text": clean,
            "n_dropped_windows": pa.array(dropped),
        })

    return fn


def source_overlap(ds, *, text_col: str = "text",
                   source_col: str = "source",
                   num_partitions: int = 64):
    """Cross-source exact-duplicate overlap matrix: for every source
    pair ``(src_a < src_b)``, the number of DISTINCT texts present in
    both — the "who is re-hosting whom" curation diagnostic that decides
    which source to drop when a corpus is over budget.

    Scale shape: rows reduce to ``(text_hash, source)`` immediately
    (the text never shuffles; 64-bit blake2b, the repo-wide hash-only
    shuffle contract — collision-free at any realistic corpus), one
    hash-bucket shuffle co-locates each text's rows, and inside each of
    the P partition calls everything is C-path: a grouped distinct, a
    count filter for multi-source hashes (the minority — unique texts
    emit nothing), and a pandas self-merge for the pairs.  Pair rows per
    text are bounded by sources²/2 — the source domain is bounded by
    contract, so the final grouped count is tiny."""
    import pandas as pd

    hashed = ds.map_batches(add_text_hash(text_col), batch_format="pyarrow")

    def project(b: pa.Table) -> pa.Table:
        return b.select(["text_hash", source_col])

    def pairs_partition(g: pa.Table) -> pa.Table:
        empty = pa.table({
            "src_a": pa.array([], pa.string()),
            "src_b": pa.array([], pa.string()),
            "n_texts": pa.array([], pa.int64()),
        })
        # distinct (hash, source), keep only hashes seen in >= 2 sources
        d = g.select(["text_hash", source_col]).combine_chunks() \
            .group_by(["text_hash", source_col]).aggregate([])
        multi = d.group_by("text_hash").aggregate([(source_col, "count")])
        keep = multi.filter(
            pc.greater_equal(multi.column(source_col + "_count"), 2)
        ).column("text_hash")
        d = d.filter(pc.is_in(d.column("text_hash"), value_set=keep))
        if d.num_rows == 0:
            return empty
        df = d.to_pandas()
        m = df.merge(df, on="text_hash")
        m = m[m[source_col + "_x"] < m[source_col + "_y"]]
        out = (
            m.groupby([source_col + "_x", source_col + "_y"])
            .size().reset_index(name="n_texts")
        )
        return pa.table({
            "src_a": pa.array(out[source_col + "_x"], pa.string()),
            "src_b": pa.array(out[source_col + "_y"], pa.string()),
            "n_texts": pa.array(out["n_texts"], pa.int64()),
        })

    part_counts = bucketed_map(
        hashed.map_batches(project, batch_format="pyarrow"), ["text_hash"],
        pairs_partition, num_partitions=num_partitions)
    return bucketed_aggregate(
        part_counts, ["src_a", "src_b"], [("n_texts", "sum")],
        rename=["src_a", "src_b", "n_texts"], combine=True,
    )
