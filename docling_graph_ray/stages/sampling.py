"""Deterministic corpus sampling / split-assignment operators.

A 100 TB training-data pipeline needs reproducible sampling that never
shuffles the corpus: every operator here derives its decision from a
pure integer mix of the row's own id, so a row's fate is computable
anywhere, any time, with no random state and no coordination.  The mix
(two rounds of ``x ^= x>>16; x *= 0x45d9f3b`` — the well-known 32-bit
finalizer) is chosen to be expressible in BOTH numpy and ANSI-ish SQL
(DuckDB ``xor``/``>>``/``%``), so every operator carries a value-hash
oracle.

Scale notes:
- ``split_assign_batch`` is embarrassingly parallel — no shuffle at all.
- ``stratified_sample`` reduces each block to <= k rows per stratum
  BEFORE the final ranking, so that step sees O(k x blocks x strata)
  rows, never the corpus.
- ``temperature_mix`` broadcasts the per-source threshold table (a true
  dim: one row per crawl source) via ``ray.put`` and filters inside
  ``map_batches``; only the tiny per-block counts reach the driver.

Reference: the docling-graph engine exposes only uniform sampling
(SURVEY.md §2.7); split/stratified/temperature assignment are
beyond-reference training-pipeline operators (cf. the XLM/mC4
temperature-mixing recipe).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_K = np.uint64(0x45D9F3B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S16 = np.uint64(16)

#: SQL fragment computing the same mix as :func:`mix32` from column {c}
#: (DuckDB dialect; xor/>>/% on BIGINT, every intermediate < 2^58).
MIX32_SQL = (
    "xor((xor((xor({c} >> 16, {c}) * 73244475 % 4294967296) >> 16,"
    "         (xor({c} >> 16, {c}) * 73244475 % 4294967296))"
    "     * 73244475 % 4294967296) >> 16,"
    "    (xor((xor({c} >> 16, {c}) * 73244475 % 4294967296) >> 16,"
    "         (xor({c} >> 16, {c}) * 73244475 % 4294967296))"
    "     * 73244475 % 4294967296))"
)


def mix32(ids: np.ndarray) -> np.ndarray:
    """Deterministic 32-bit integer finalizer, vectorized.

    Two multiply-xorshift rounds; uniform enough for split/sample
    thresholds, exactly reproducible in SQL (``MIX32_SQL``).
    """
    x = ids.astype(np.uint64) & _MASK32
    x = (np.bitwise_xor(x >> _S16, x) * _K) & _MASK32
    x = (np.bitwise_xor(x >> _S16, x) * _K) & _MASK32
    x = np.bitwise_xor(x >> _S16, x)
    return x.astype(np.int64)


# ---------------------------------------------------------------------------
# train / val / test split


def split_assign_batch(
    id_col: str = "doc_id",
    train_pct: int = 80,
    val_pct: int = 10,
    salt: int = 0,
):
    """Batch fn: assign each row a split from ``mix32(id ^ salt) % 100``.

    ``[0, train)`` -> train, ``[train, train+val)`` -> val, rest test.
    Pure per-row arithmetic — no shuffle, resumable, and any later run
    (or any other system) can recompute membership from the id alone.

    Pass a non-zero ``salt`` whenever the rows were PRE-FILTERED by
    another ``mix32(id)`` test (e.g. downstream of
    :func:`temperature_mix`): survivors of ``mix32(id) < thr`` have a
    truncated hash range, so an unsalted bucket would be conditioned on
    the keep test (bias O(100/thr) for heavily downsampled strata); the
    xor re-mixes into an independent domain.
    """
    if not (0 < train_pct and 0 <= val_pct and train_pct + val_pct <= 100):
        raise ValueError("invalid split percentages")

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        bucket = mix32(np.bitwise_xor(ids, salt)) % 100
        split = np.where(
            bucket < train_pct,
            "train",
            np.where(bucket < train_pct + val_pct, "val", "test"),
        )
        return batch.append_column(
            "bucket", pa.array(bucket, pa.int64())
        ).append_column("split", pa.array(split, pa.string()))

    return fn


# ---------------------------------------------------------------------------
# stratified sample (top-k per stratum by hash order)


def _topk_per_stratum(batch: pa.Table, *, strat_col: str, id_col: str,
                      k: int) -> pa.Table:
    """The first k rows of each stratum in ``(mix32(id), id)`` order,
    sorted by (stratum, mix32(id), id), with their 1-based rank ``rk``."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    h = pa.array(mix32(ids), pa.int64())
    # sort once, take k per group
    order = pc.sort_indices(
        batch.append_column("_h", h),
        sort_keys=[(strat_col, "ascending"), ("_h", "ascending"), (id_col, "ascending")],
    )
    t = batch.take(order)
    strata = t.column(strat_col).to_numpy(zero_copy_only=False)
    # rank within run of equal strata (sorted, so runs are contiguous)
    starts = np.r_[0, np.flatnonzero(strata[1:] != strata[:-1]) + 1]
    rank = np.arange(len(strata)) - np.repeat(starts, np.diff(np.r_[starts, len(strata)]))
    keep = rank < k
    return t.filter(pa.array(keep)).append_column(
        "rk", pa.array(rank[keep] + 1, pa.int64()))


def stratified_sample(
    ds: "ray.data.Dataset",
    *,
    strat_col: str = "lang",
    id_col: str = "doc_id",
    k: int = 40,
) -> "ray.data.Dataset":
    """Deterministic k-per-stratum sample, ordered by ``mix32(id)``.

    Output: one row per kept doc with its 1-based ``rk`` within the
    stratum.  Each input block is reduced to <= k rows per stratum
    first (combiner pattern), so the final ranking sees
    O(k x blocks x strata) rows regardless of corpus size.  Those rows
    are gathered into ONE block and ranked by a single task: a
    ``groupby(strat_col)`` sort shuffle over a handful of strata leaves
    most reduce partitions empty, and Ray emits those as schema-less
    blocks ("RefBundle with a different schema").
    """

    def topk(b: pa.Table) -> pa.Table:
        return _topk_per_stratum(b, strat_col=strat_col, id_col=id_col, k=k)

    def rank(b: pa.Table) -> pa.Table:
        return topk(b.drop_columns(["rk"]))

    partial = ds.map_batches(topk, batch_format="pyarrow")
    return partial.repartition(1).map_batches(
        rank, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# temperature mixing (per-source acceptance thresholds)


def temperature_thresholds(counts: dict[str, int], alpha: float = 0.5) -> dict[str, int]:
    """Per-source integer acceptance thresholds for temperature ``alpha``.

    Acceptance probability ``p_s = (n_min / n_s) ** (1 - alpha)`` keeps
    every row of the rarest source and downsamples common sources toward
    a flatter mix (alpha=1 keeps everything; alpha=0 equalizes source
    volumes).  Thresholds are ``floor(p_s * 2**32)`` so the keep test is
    pure integer compare against ``mix32(id)`` — float-drift-free and
    reproducible in SQL (sqrt/pow and division are correctly-rounded
    IEEE doubles in both numpy and DuckDB).
    """
    if not counts:
        return {}
    n_min = min(counts.values())
    out = {}
    for s, n in counts.items():
        p = (np.float64(n_min) / np.float64(n)) ** np.float64(1.0 - alpha)
        out[s] = int(np.floor(p * np.float64(4294967296.0)))
    return out


def temperature_mix(
    ds: "ray.data.Dataset",
    *,
    source_col: str = "source",
    id_col: str = "doc_id",
    alpha: float = 0.5,
) -> "ray.data.Dataset":
    """Deterministic temperature-resampled corpus (kept rows only).

    Two passes over the source column: a combiner-first count aggregate
    (per-batch ``value_counts`` partials, summed on the driver — they
    are O(blocks x sources) rows, and a ``groupby`` shuffle over a
    handful of sources would emit schema-less empty partitions) yields
    the per-source row counts — a true dimension table, one row per
    crawl source — which is broadcast once via ``ray.put``; the keep
    filter then runs embarrassingly parallel inside ``map_batches``.
    Output: (id, source, n_source, thr) for every kept row.
    """

    def count_partial(batch: pa.Table) -> pa.Table:
        vc = batch.column(source_col).value_counts()
        return pa.table(
            {
                source_col: vc.field("values"),
                "n": vc.field("counts").cast(pa.int64()),
            }
        )

    partials = (
        ds.select_columns([source_col])
        .map_batches(count_partial, batch_format="pyarrow")
        .to_pandas()
    )
    if partials.empty:
        # empty input: the frame may have no columns at all; return a
        # schema-stable empty result instead of KeyError
        return ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            source_col: pa.array([], pa.string()),
            "n_source": pa.array([], pa.int64()),
            "thr": pa.array([], pa.int64()),
        }))
    counts = partials.groupby(source_col, dropna=False)["n"].sum().to_dict()
    thr_ref = ray.put(temperature_thresholds(counts, alpha))
    counts_ref = ray.put({k: int(v) for k, v in counts.items()})

    def keep(batch: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        n_by_source = ray.get(counts_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        # vectorized lookup: python work is O(distinct sources), not O(rows)
        enc = batch.column(source_col).combine_chunks().dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        idx = enc.indices.to_numpy(zero_copy_only=False)
        thr_arr = np.array([thr[s] for s in uniq], np.int64)[idx]
        n_arr = np.array([n_by_source[s] for s in uniq], np.int64)[idx]
        mask = mix32(ids) < thr_arr
        out = pa.table(
            {
                id_col: batch.column(id_col),
                source_col: batch.column(source_col),
                "n_source": pa.array(n_arr, pa.int64()),
                "thr": pa.array(thr_arr, pa.int64()),
            }
        )
        return out.filter(pa.array(mask))

    return ds.select_columns([id_col, source_col]).map_batches(
        keep, batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# priority sampling (weighted without replacement, deterministic)


def priority_sample(
    ds: "ray.data.Dataset",
    *,
    id_col: str = "doc_id",
    weight_col: str = "n_chars",
    k: int = 100,
) -> pa.Table:
    """Priority sampling (Duffield, Lund & Thorup 2007): a weighted
    without-replacement sample of size ``k`` with unbiased subset-sum
    estimates.  Each row gets priority ``q = w / u`` with
    ``u = (mix32(id)+1) / 2^32`` ∈ (0, 1]; the k highest-priority rows
    are the sample and ``w_hat = max(w, tau)`` (``tau`` = the (k+1)-th
    priority) estimates each row's contribution to the population
    weight sum.

    Every float is exactly reproducible in SQL: ``mix32`` is integer
    arithmetic, ``u`` is an exactly-representable 32-bit numerator over
    a power of two, and ``q`` is ONE correctly-rounded IEEE division —
    so the DuckDB oracle hashes bit-identically.

    Distribution: per-block deterministic partial top-(k+1) (lexsort by
    (-q, id) — consistent with the global tie-break), then one small
    sort+limit over the ~blocks×(k+1) candidate rows.  Nothing
    corpus-sized is sorted or driver-materialized; rows with w ≤ 0 are
    excluded (their priority is undefined)."""
    kk = k + 1  # carry the threshold row through the merge
    out_schema = pa.schema([
        (id_col, pa.int64()), ("weight", pa.int64()),
        ("priority", pa.float64()),
    ])

    def partial_topk(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        w = b.column(weight_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = w > 0
        ids, w = ids[keep], w[keep]
        if not len(ids):
            return out_schema.empty_table()
        u = (mix32(ids).astype(np.float64) + 1.0) / 4294967296.0
        q = w.astype(np.float64) / u
        if len(q) > kk:
            order = np.lexsort((ids, -q))[:kk]
            ids, w, q = ids[order], w[order], q[order]
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "weight": pa.array(w, pa.int64()),
                         "priority": pa.array(q, pa.float64())})

    cands = ds.select_columns([id_col, weight_col]).map_batches(
        partial_topk, batch_format="pyarrow")
    top = pa.Table.from_pandas(
        cands.sort(["priority", id_col], descending=[True, False])
        .limit(kk).to_pandas(),
        schema=out_schema, preserve_index=False)
    tau = top.column("priority")[k].as_py() if top.num_rows > k else 0.0
    top = top.slice(0, k)
    w_hat = np.maximum(
        top.column("weight").to_numpy(zero_copy_only=False)
        .astype(np.float64), tau)
    return top.append_column("w_hat", pa.array(w_hat, pa.float64()))
