"""Partition-bucketed grouped operators — the package's one co-location
primitive and the shared cure for per-group-Python ``map_groups``.

``groupby(key).map_groups(fn)`` costs one Python interpreter call per
DISTINCT key; at corpus-scale group counts that call overhead dominates
(measured 324 s at 1.6M groups vs ~20 s for the vectorized rewrite,
SURVEY.md §7.4 — crossover ≈400k groups).  ``bucketed_map`` instead
buckets rows by ``hash(key columns) % P`` and groups by the BUCKET: the
shuffle payload is identical (plus one int64 column), ``map_groups`` runs
at most P times, and each call resolves its whole bucket with Arrow C++ /
numpy kernels over the (key-)sorted rows.  ``bucketed_first`` and
``bucketed_aggregate`` are built on it, and every other wide step of the
package (joins, co-groups, per-key folds) calls it directly, so the hash,
the tag column and the shuffle are decided here and nowhere else — a
switch to Ray's native hash shuffle, once it plans within memory (ROADMAP
direction 3), is a change to ``bucketed_map`` alone.

Rows of one key always share a bucket, so per-key results are exact.
Skew: a partition holds ~1/P of the rows; a pathologically hot key
concentrates its rows in one partition, exactly as any hash shuffle
would — size ``num_partitions`` so rows/P fits a worker heap (default
64; at 100 TB pass cpus×4 or more).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_PARTITIONS = 64


def hash_partition_cols(b: pa.Table, cols: list[str],
                        num_partitions: int) -> pa.Array:
    """Deterministic combined-hash partition ids (int64) over one or more
    key columns.  Integer columns hash on the vectorized int64 path;
    everything else hashes as object strings (pandas' siphash with its
    fixed default key — stable across processes and rounds)."""
    import pandas as pd

    n = b.num_rows
    if n == 0:
        return pa.array([], pa.int64())
    acc = np.zeros(n, dtype=np.uint64)
    for c in cols:
        col = b.column(c).combine_chunks()
        if pa.types.is_integer(col.type):
            h = pd.util.hash_array(
                col.cast(pa.int64()).to_numpy(zero_copy_only=False))
        else:
            h = pd.util.hash_array(
                col.cast(pa.string()).to_pandas().to_numpy(dtype=object))
        with np.errstate(over="ignore"):
            acc = acc * np.uint64(1000003) + h.astype(np.uint64)
    return pa.array((acc % num_partitions).astype(np.int64))


def bucketed_map(ds, key_cols: list[str], fn, *,
                 num_partitions: int = DEFAULT_PARTITIONS,
                 schema: pa.Schema | None = None):
    """Co-locate rows by ``hash(key_cols) % num_partitions`` and run
    ``fn(bucket) -> pa.Table`` once per non-empty bucket — the package's
    one partitioning decision.

    Rows are tagged with a ``_part`` column (``hash_partition_cols``),
    sort-shuffled by it and handed to ``fn`` with the tag already
    dropped; every row of a key is in the same call.  ``fn`` never sees
    an empty table: Ray 2.49's ``map_groups`` skips empty blocks (pinned
    by ``tests/test_bucketing.py``).  ``schema`` coerces empty
    pass-through blocks that lack the key columns into empty tables of
    that schema before tagging, so every shuffled block carries the same
    columns."""

    def tag(b: pa.Table) -> pa.Table:
        if (b.num_rows == 0 and schema is not None
                and key_cols[0] not in b.schema.names):
            b = schema.empty_table()
        return b.append_column("_part", hash_partition_cols(
            b, key_cols, num_partitions))

    @functools.wraps(fn)
    def untag(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns(["_part"]))

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("_part").map_groups(untag, batch_format="pyarrow"))


def run_starts(g: pa.Table, cols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lens) of equal-key runs in a table ALREADY SORTED by
    ``cols``.  Adjacent-row comparison on the Arrow C++ path; two nulls
    compare equal, null vs non-null compare different."""
    n = g.num_rows
    if n == 0:
        z = np.array([], dtype=np.int64)
        return z, z
    change = np.zeros(n - 1, dtype=bool)
    for c in cols:
        col = g.column(c).combine_chunks()
        a, b = col.slice(0, n - 1), col.slice(1)
        neq = pc.not_equal(a, b)
        both_null = pc.and_(pc.is_null(a), pc.is_null(b))
        diff = pc.if_else(both_null, pa.scalar(False),
                          pc.fill_null(neq, True))
        change |= diff.to_numpy(zero_copy_only=False)
    starts = np.r_[0, np.flatnonzero(change) + 1].astype(np.int64)
    lens = np.diff(np.r_[starts, n]).astype(np.int64)
    return starts, lens


def bucketed_first(ds, key_cols: list[str],
                   order_keys: list[tuple[str, str]] | None = None, *,
                   num_partitions: int = DEFAULT_PARTITIONS,
                   out_schema: pa.Schema | None = None):
    """First row per distinct ``key_cols`` under ``order_keys`` — the
    grouped-first / distinct / latest-wins family without per-key Python.

    With ``order_keys=None`` this is DISTINCT over ``key_cols`` (any
    extra columns take the values of an arbitrary-but-deterministic
    first row: keys sort ascending, ties by input order within the
    partition sort)."""
    from docling_graph_ray.stages.joins import as_arrow_schema

    if out_schema is None:
        out_schema = as_arrow_schema(ds.schema())
    sort_keys = [(c, "ascending") for c in key_cols] + list(order_keys or [])

    def first_per_key(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=sort_keys)
        g = g.take(idx).combine_chunks()
        starts, _ = run_starts(g, key_cols)
        return g.take(pa.array(starts, pa.int64())).cast(out_schema)

    return bucketed_map(ds, key_cols, first_per_key,
                        num_partitions=num_partitions, schema=out_schema)


_COMBINABLE = {"min", "max", "sum"}


def bucketed_aggregate(ds, key_cols: list[str],
                       aggs: list[tuple[str, str]], *,
                       num_partitions: int = DEFAULT_PARTITIONS,
                       rename: list[str] | None = None,
                       combine: bool = False,
                       in_schema: pa.Schema | None = None):
    """Grouped aggregate keyed by hash BUCKET instead of the key domain.

    Ray's native ``groupby(key).min/sum`` sort-shuffles by the full key
    domain — measured **180 s** for a 3e7-row min over 1e7 distinct
    int64 keys, where this helper runs the identical fold in **2.2 s**
    (tools cc profile, 32 cpus): ``bucketed_map``'s bucket tag has only
    P distinct values so the shuffle sort is trivial, and each of the P
    calls folds its whole bucket with ONE Arrow C++ hash-aggregate.
    Keys never split across buckets, so results are exact and need no
    second fold.

    ``aggs`` are arrow-style ``(col, fn)`` pairs (``("label", "min")``,
    ``([], "count_all")``).  Output columns are ``key_cols`` + the arrow
    names (``label_min``, ``count_all``); ``rename`` overrides them
    positionally at the end.

    ``combine=True`` additionally pre-folds EVERY input batch with the
    same aggregate before the shuffle — the map-side combiner; valid
    when every fn is min/max/sum (``count_all`` is remapped to a partial
    count + final sum automatically).

    ``in_schema`` is ``ds``'s schema when the caller knows it: without
    it, ``ds.schema()`` runs the unexecuted part of the plan as a job
    and cancels the tasks it did not need."""
    from docling_graph_ray.stages.joins import as_arrow_schema

    if in_schema is None:
        in_schema = as_arrow_schema(ds.schema())
    for col, fn in aggs:
        if combine and fn not in _COMBINABLE and fn != "count_all":
            raise ValueError(f"combine=True cannot pre-fold {fn!r}")

    def agg_names(pairs) -> list[str]:
        return [(f"{c}_{f}" if c else f) for c, f in pairs]

    out_names = key_cols + agg_names(aggs)
    arrow_aggs = [(c if c else [], f) for c, f in aggs]

    # output schema: run the aggregate once over an empty table (lookup
    # by generated NAME, not position — arrow's key/agg column order has
    # varied across versions)
    probe = in_schema.empty_table().group_by(key_cols).aggregate(arrow_aggs)
    out_schema = pa.schema(
        [pa.field(n, probe.schema.field(n).type) for n in out_names])

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns(out_names)
        if rename:
            t = t.rename_columns(rename)
        return t

    if combine:
        # partial fold per batch; count_all becomes a summable count col
        pnames = agg_names(aggs)
        final_aggs = [(p, f if f in _COMBINABLE else "sum")
                      for p, (c, f) in zip(pnames, aggs)]
        final_names = key_cols + [f"{p}_{f}" for p, f in final_aggs]

        def prep(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or key_cols[0] not in b.schema.names:
                return out_schema.empty_table()
            return (b.combine_chunks().group_by(key_cols)
                    .aggregate(arrow_aggs).select(out_names))

        def fold(g: pa.Table) -> pa.Table:
            t = (g.combine_chunks().group_by(key_cols)
                 .aggregate(final_aggs).select(final_names)
                 .rename_columns(out_names))
            return finish(t.cast(out_schema))
    else:
        val_cols = key_cols + sorted(
            {c for c, _ in aggs if c} - set(key_cols))

        def prep(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or key_cols[0] not in b.schema.names:
                return pa.table({c: pa.array([], in_schema.field(c).type)
                                 for c in val_cols})
            return b.select(val_cols)

        def fold(g: pa.Table) -> pa.Table:
            t = g.combine_chunks().group_by(key_cols).aggregate(arrow_aggs)
            return finish(t.select(out_names).cast(out_schema))

    return bucketed_map(ds.map_batches(prep, batch_format="pyarrow"),
                        key_cols, fold, num_partitions=num_partitions)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR — numpy<2 has no bitwise_count)."""
    x = x.astype(np.uint64, copy=True)
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    with np.errstate(over="ignore"):
        x -= (x >> np.uint64(1)) & m1
        x = (x & m2) + ((x >> np.uint64(2)) & m2)
        x = (x + (x >> np.uint64(4))) & m4
        x *= h01
    return (x >> np.uint64(56)).astype(np.int64)
