"""Partition-bucketed hash-shuffle semi/anti/lookup joins.

Ray's ``Dataset.join`` is the right tool for a SINGLE join over clean
sources (see ``pipelines.relational.orderpriority_lineitem_counts``), but
its hash-join aggregator builds a zero-column left partition whenever its
input contains the empty pass-through blocks that ``map_groups`` and
``join`` themselves emit — so a join downstream of another wide op crashes
with ``pa.Table.join: No match … for FieldRef`` (the round-1
``graph_content_dedup`` pathology).  These helpers express the same joins
as a union + co-group, with the co-group keyed by ``hash(key) % P``
PARTITION BUCKETS rather than by the key itself: the round-2 version ran
one Python ``map_groups`` call per DISTINCT KEY (the per-group-Python
disease measured at 324 s / 1.6M groups, SURVEY.md §7.4 — crossover
≈400k groups), which multiplied under the iterative graph algorithms.
Now ``map_groups`` runs exactly P times and each call resolves its whole
bucket with Arrow C++ hash kernels (``is_in`` for semi/anti,
``group_by(min)`` + ``index_in`` + ``take`` for the lookup attach) — the
``dedup_nodes`` shape (stages/graph.py).  Shuffle payload is unchanged
(left rows + key rows move once, plus ``bucketed_map``'s int64 bucket
tag).

Scale notes (SURVEY.md §7.4): the key side rides the shuffle as
``(_key,)`` rows only — never a driver-side set, so the "small" side may
be O(corpus) (the round-1 scale-killer was collecting every ``o_custkey``
into a driver set, VERDICT.md What's-wrong #2).  Skew: a partition holds
~1/P of both sides; one pathologically hot key concentrates its rows in
one partition, exactly as any hash join would — size ``num_partitions``
so rows/P fits a worker heap (default 64; at 100 TB pass cpus×4).
Integer keys hash and compare as int64 end-to-end (no string casts on
the per-round graph-algorithm paths); other key types unify as strings.

Reference semantics: the one semi-join in the reference's system is the
orphan-edge drop (docling_graph/core/converters/graph_cleaner.py:319-364).

Broadcast fast path (round 3): ``semi_join_auto`` / ``lookup_join_auto``
encode the measured shuffle-vs-broadcast crossover
(``BROADCAST_CROSSOVER_ROWS`` ≈ 400k, SURVEY §7.4): when the caller can
prove the key side is small — an explicit ``probe_rows`` count, cheap
for parquet reads and already-materialized datasets (metadata-only) —
the join runs as ONE task-pool ``map_batches`` against a ``ray.put``
key table instead of a two-sided shuffle.  Driver memory is bounded
twice: by the row threshold AND by ``MAX_BROADCAST_BYTES`` on the
collected table (rows bound count, not width — wide ``value_cols``
above the byte cap fall back to the shuffle).  Above the threshold,
or when no cheap count exists, the shuffle path runs unchanged — the
100 TB design point.  Both paths use the SAME Arrow kernels (``is_in``
/ ``group_by(min)`` + ``index_in``; nested value types a deterministic
serialization-sorted first-per-key), so results are bit-identical
(oracle-checked).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.stages.bucketing import bucketed_map
from docling_graph_ray.stages.lineage import arrow_refs

# Measured shuffle-join crossover on this class of box (SURVEY §7.4):
# below ~400k keys the two-sided shuffle's fixed stage costs exceed a
# broadcast scan; above it, per-key work dominates and the shuffle wins.
# NOTE: the crossover guards ROW COUNT only.  ``broadcast_lookup_join``
# also collects ``value_cols``, so 400k rows of wide values (long
# strings, lists) can exceed the "few MB" the row bound suggests —
# ``MAX_BROADCAST_BYTES`` is the byte backstop: a collected table above
# it falls back to the shuffle path instead of pinning the object store.
BROADCAST_CROSSOVER_ROWS = 400_000
MAX_BROADCAST_BYTES = 256 << 20


def _first_per_key_nested(sub: pa.Table, vcol: str):
    """Deterministic first-per-key fold for NESTED value types (Arrow hash
    aggregation does not cover them): rows sort by ``(_key, repr(value))``
    so duplicate keys carrying different nested values resolve to the
    same winner on every path — broadcast (concat order) and shuffle
    (co-group union order) would otherwise depend on block arrival.
    Python serialization is O(lookup rows) but runs only on the folded
    side and only for nested value columns (no current hot path).
    Returns ``(keys, values)`` arrays, one row per distinct key."""
    vser = pa.array([repr(v) for v in sub.column(vcol).to_pylist()],
                    pa.string())
    sub = sub.append_column("_vser", vser)
    idx = pc.sort_indices(sub, sort_keys=[("_key", "ascending"),
                                          ("_vser", "ascending")])
    sub = sub.take(idx).combine_chunks()
    kcol = sub.column("_key")
    if pa.types.is_integer(kcol.type):
        kn = kcol.to_numpy(zero_copy_only=False)
    else:
        kn = kcol.to_pandas().to_numpy(dtype=object)
    starts = np.r_[0, np.flatnonzero(kn[1:] != kn[:-1]) + 1]
    first = pa.array(starts, pa.int64())
    return (kcol.combine_chunks().take(first),
            sub.column(vcol).combine_chunks().take(first))


def as_arrow_schema(schema) -> pa.Schema:
    """ray.data.Schema → pyarrow.Schema (already-arrow passes through)."""
    base = getattr(schema, "base_schema", schema)
    if not isinstance(base, pa.Schema):
        base = pa.schema([(n, t) for n, t in zip(schema.names, schema.types)])
    return base


def _key_type(out_schema: pa.Schema, on: str) -> pa.DataType:
    t = out_schema.field(on).type
    return pa.int64() if pa.types.is_integer(t) else pa.string()


def _left_rows(b: pa.Table, on: str, names: list[str], flag: str,
               key_type: pa.DataType) -> pa.Table:
    """Project a left-side batch onto the co-group schema (its join key,
    payload columns and a false side flag)."""
    cols = {"_key": b.column(on).cast(key_type).combine_chunks()}
    for nm in names:
        cols[nm] = b.column(nm)
    cols[flag] = pa.array(np.zeros(b.num_rows, dtype=bool))
    return pa.table(cols)


def _key_rows(b: pa.Table, key_col: str, names: list[str],
              out_schema: pa.Schema, flag: str,
              key_type: pa.DataType) -> pa.Table:
    n = b.num_rows
    cols = {"_key": b.column(key_col).cast(key_type).combine_chunks()}
    for nm in names:
        cols[nm] = pa.nulls(n, out_schema.field(nm).type)
    cols[flag] = pa.array(np.ones(n, dtype=bool))
    return pa.table(cols)


def semi_join(left, keys, *, on: str, key_col: str | None = None,
              anti: bool = False, out_schema: pa.Schema | None = None,
              num_partitions: int = 64):
    """left ⋉ keys (or ▷ when ``anti=True``) on ``left[on] == keys[key_col]``.

    ``keys`` may contain duplicates; output rows are the left rows (never
    multiplied).  Both sides hash-shuffle by ``hash(key) % P``; inside
    each of the P co-group calls membership resolves with one
    ``pc.is_in`` — nothing touches the driver, no per-key Python."""
    key_col = key_col or on
    out_schema = out_schema or as_arrow_schema(left.schema())
    names = list(out_schema.names)
    kt = _key_type(out_schema, on)

    tagged = left.map_batches(
        lambda b: _left_rows(b, on, names, "_is_key", kt),
        batch_format="pyarrow",
    ).union(keys.map_batches(
        lambda b: _key_rows(b, key_col, names, out_schema, "_is_key", kt),
        batch_format="pyarrow",
    ))

    def regroup(g: pa.Table) -> pa.Table:
        is_key = g.column("_is_key")
        e = g.filter(pc.invert(is_key))
        if e.num_rows == 0:
            return out_schema.empty_table()
        kk = g.filter(is_key).column("_key").combine_chunks()
        if len(kk) == 0:
            mask = pa.array(np.full(e.num_rows, bool(anti)))
        else:
            mask = pc.is_in(e.column("_key").combine_chunks(), value_set=kk)
            if anti:
                mask = pc.invert(mask)
        e = e.filter(mask)
        if e.num_rows == 0:
            return out_schema.empty_table()
        return pa.table({nm: e.column(nm) for nm in names}).cast(out_schema)

    return bucketed_map(tagged, ["_key"], regroup,
                        num_partitions=num_partitions)


def lookup_join(left, lookup, *, on: str, key_col: str | None = None,
                value_cols: list[str],
                out_schema: pa.Schema | None = None,
                num_partitions: int = 64):
    """Left-outer lookup: attach ``value_cols`` from ``lookup`` to every
    left row matching on ``left[on] == lookup[key_col]``; unmatched rows
    keep nulls.  If a key has several lookup rows the per-column MINIMUM
    value wins (deterministic, order-free); non-orderable (nested) value
    types take the smallest-by-serialization row per key instead
    (``_first_per_key_nested`` — also order-free, so broadcast and
    shuffle agree on duplicate keys carrying different nested values).

    The scale-safe replacement for a broadcast dict whose size scales
    with the input (keep ``ray.put`` broadcasts only for true dims).
    Co-group keyed by ``hash(key) % P``; inside each of the P calls the
    attach is Arrow C++ end-to-end: ``group_by(min)`` folds the lookup
    side, ``index_in`` locates each left key, ``take`` (null indices →
    null values) materializes the columns."""
    key_col = key_col or on
    left_schema = out_schema or as_arrow_schema(left.schema())
    names = list(left_schema.names)
    lookup_schema = as_arrow_schema(lookup.schema())
    val_fields = [(c, lookup_schema.field(c).type) for c in value_cols]
    full_schema = pa.schema(list(left_schema) + [pa.field(c, t) for c, t in val_fields])
    kt = _key_type(left_schema, on)

    def left_side(b: pa.Table) -> pa.Table:
        t = _left_rows(b, on, names, "_is_lk", kt)
        for c, typ in val_fields:
            t = t.append_column("_v_" + c, pa.nulls(t.num_rows, typ))
        return t

    def lookup_side(b: pa.Table) -> pa.Table:
        t = _key_rows(b, key_col, names, left_schema, "_is_lk", kt)
        for c, typ in val_fields:
            t = t.append_column("_v_" + c,
                                b.column(c).cast(typ).combine_chunks())
        return t

    tagged = left.map_batches(left_side, batch_format="pyarrow").union(
        lookup.map_batches(lookup_side, batch_format="pyarrow")
    )

    def regroup(g: pa.Table) -> pa.Table:
        is_lk = g.column("_is_lk")
        e = g.filter(pc.invert(is_lk))
        if e.num_rows == 0:
            return full_schema.empty_table()
        lk = g.filter(is_lk)
        ekeys = e.column("_key").combine_chunks()
        cols = {nm: e.column(nm) for nm in names}
        for c, typ in val_fields:
            vcol = "_v_" + c
            if lk.num_rows == 0:
                cols[c] = pa.nulls(e.num_rows, typ)
                continue
            sub = lk.select(["_key", vcol]).combine_chunks()
            if pa.types.is_nested(typ):
                agg_keys, agg_vals = _first_per_key_nested(sub, vcol)
            else:
                agg = sub.group_by("_key").aggregate([(vcol, "min")])
                agg_keys = agg.column("_key").combine_chunks()
                agg_vals = agg.column(vcol + "_min").combine_chunks()
            pos = pc.index_in(ekeys, value_set=agg_keys)
            cols[c] = agg_vals.take(pos)
        return pa.table(cols).cast(full_schema)

    return bucketed_map(tagged, ["_key"], regroup,
                        num_partitions=num_partitions)


def _collect_small(ds, cols: list[str]) -> pa.Table:
    """Driver-collect ``cols`` of a dataset the CALLER has proven small
    (≤ BROADCAST_CROSSOVER_ROWS via ``probe_rows``).  Arrow refs move
    zero-copy through the object store; schema-less empty pass-through
    blocks are skipped."""
    import ray

    tbls = [t for t in ray.get(arrow_refs(ds.select_columns(cols)))
            if t.num_rows and set(cols) <= set(t.schema.names)]
    if not tbls:
        return None
    return pa.concat_tables([t.select(cols) for t in tbls]).combine_chunks()


def broadcast_semi_join(left, keys, *, on: str, key_col: str | None = None,
                        anti: bool = False,
                        out_schema: pa.Schema | None = None,
                        max_bytes: int = MAX_BROADCAST_BYTES):
    """``semi_join`` semantics with the key side collected once and
    shipped via ``ray.put`` — ONE task-pool stage, zero shuffles.  Same
    ``pc.is_in`` kernel as the shuffle path, so results are identical.
    Only reach this through ``semi_join_auto`` (the caller must bound
    the key side); keys wider than ``max_bytes`` in total (giant string
    keys can blow the row bound) fall back to the shuffle path."""
    import ray

    key_col = key_col or on
    out_schema = out_schema or as_arrow_schema(left.schema())
    names = list(out_schema.names)
    kt = _key_type(out_schema, on)

    small = _collect_small(keys, [key_col])
    if small is not None and small.nbytes > max_bytes:
        return semi_join(left, keys, on=on, key_col=key_col, anti=anti,
                         out_schema=out_schema)
    kk = (small.column(key_col).cast(kt).combine_chunks()
          if small is not None else pa.array([], kt))
    kk_ref = ray.put(kk)

    def keep(b: pa.Table) -> pa.Table:
        value_set = ray.get(kk_ref)
        if len(value_set) == 0:
            mask = pa.array(np.full(b.num_rows, bool(anti)))
        else:
            mask = pc.is_in(b.column(on).cast(kt).combine_chunks(),
                            value_set=value_set)
            if anti:
                mask = pc.invert(mask)
        e = b.filter(mask)
        if e.num_rows == 0:
            return out_schema.empty_table()
        return pa.table({nm: e.column(nm) for nm in names}).cast(out_schema)

    return left.map_batches(keep, batch_format="pyarrow")


def broadcast_lookup_join(left, lookup, *, on: str,
                          key_col: str | None = None,
                          value_cols: list[str],
                          out_schema: pa.Schema | None = None,
                          max_bytes: int = MAX_BROADCAST_BYTES):
    """``lookup_join`` semantics with the lookup side collected and
    min-folded once on the driver, shipped via ``ray.put`` — ONE
    task-pool stage, zero shuffles.  The fold per key is global here and
    per-partition in the shuffle path, but each key lives in exactly one
    partition there, so the results coincide (nested value types fold by
    the same deterministic serialization rule on both paths).  The
    crossover row bound does not bound VALUE width — if the collected
    ``[key_col] + value_cols`` table exceeds ``max_bytes``, this falls
    back to the shuffle path instead of pinning it."""
    import ray

    if not value_cols:
        # the canonical key order is derived from the first value
        # column's fold — a degenerate no-value lookup has nothing to
        # attach and would KeyError below; refuse it explicitly
        raise ValueError(
            "broadcast_lookup_join: value_cols must be non-empty "
            "(use semi_join for existence-only probes)")
    key_col = key_col or on
    left_schema = out_schema or as_arrow_schema(left.schema())
    names = list(left_schema.names)
    lookup_schema = as_arrow_schema(lookup.schema())
    val_fields = [(c, lookup_schema.field(c).type) for c in value_cols]
    full_schema = pa.schema(
        list(left_schema) + [pa.field(c, t) for c, t in val_fields])
    kt = _key_type(left_schema, on)

    small = _collect_small(lookup, [key_col] + value_cols)
    if small is not None and small.nbytes > max_bytes:
        # Row count cleared the crossover but the payload did not: fall
        # back to the shuffle path rather than pin a giant table.
        return lookup_join(left, lookup, on=on, key_col=key_col,
                           value_cols=value_cols, out_schema=out_schema)
    folded: dict[str, pa.Array] = {}
    if small is None:
        agg_keys = pa.array([], kt)
        for c, typ in val_fields:
            folded[c] = pa.nulls(0, typ)
    else:
        sub = pa.table({"_key": small.column(key_col).cast(kt)}
                       | {c: small.column(c) for c, _ in val_fields})
        # Fold per column, mirroring the shuffle path exactly: hash
        # group_by(min) for orderable types, deterministic
        # serialization-sorted first-per-key for nested types.
        nested_cols = [(c, t) for c, t in val_fields if pa.types.is_nested(t)]
        plain_cols = [(c, t) for c, t in val_fields
                      if not pa.types.is_nested(t)]
        per_col: dict[str, tuple] = {}
        if plain_cols:
            agg = sub.group_by("_key").aggregate(
                [(c, "min") for c, _ in plain_cols])
            pk = agg.column("_key").combine_chunks()
            for c, _ in plain_cols:
                per_col[c] = (pk, agg.column(c + "_min").combine_chunks())
        for c, _ in nested_cols:
            per_col[c] = _first_per_key_nested(sub.select(["_key", c]), c)
        # All folds cover the same key set; align every column to one
        # canonical key order so a single index_in serves the attach.
        agg_keys = per_col[value_cols[0]][0]
        for c, _ in val_fields:
            ck, cv = per_col[c]
            pos = pc.index_in(agg_keys, value_set=ck)
            folded[c] = cv.take(pos)
    model_ref = ray.put((agg_keys, folded))

    def attach(b: pa.Table) -> pa.Table:
        agg_keys, folded = ray.get(model_ref)
        cols = {nm: b.column(nm) for nm in names}
        if len(agg_keys) == 0:
            for c, typ in val_fields:
                cols[c] = pa.nulls(b.num_rows, typ)
        else:
            pos = pc.index_in(b.column(on).cast(kt).combine_chunks(),
                              value_set=agg_keys)
            for c, _ in val_fields:
                cols[c] = folded[c].take(pos)
        return pa.table(cols).cast(full_schema)

    return left.map_batches(attach, batch_format="pyarrow")


def semi_join_auto(left, keys, *, on: str, key_col: str | None = None,
                   anti: bool = False, out_schema: pa.Schema | None = None,
                   num_partitions: int = 64,
                   probe_rows: int | None = None,
                   threshold: int = BROADCAST_CROSSOVER_ROWS):
    """``semi_join`` that picks broadcast vs shuffle by the MEASURED
    crossover (SURVEY §7.4).  ``probe_rows`` is the caller's cheap count
    of the key side (parquet metadata / materialized dataset); pass None
    when no cheap count exists — the shuffle path then runs
    unconditionally (never count() an unexecuted plan just to probe)."""
    if probe_rows is not None and probe_rows <= threshold:
        return broadcast_semi_join(left, keys, on=on, key_col=key_col,
                                   anti=anti, out_schema=out_schema)
    return semi_join(left, keys, on=on, key_col=key_col, anti=anti,
                     out_schema=out_schema, num_partitions=num_partitions)


def lookup_join_auto(left, lookup, *, on: str, key_col: str | None = None,
                     value_cols: list[str],
                     out_schema: pa.Schema | None = None,
                     num_partitions: int = 64,
                     probe_rows: int | None = None,
                     threshold: int = BROADCAST_CROSSOVER_ROWS):
    """``lookup_join`` with the same broadcast-vs-shuffle selection as
    ``semi_join_auto``."""
    if probe_rows is not None and probe_rows <= threshold:
        return broadcast_lookup_join(left, lookup, on=on, key_col=key_col,
                                     value_cols=value_cols,
                                     out_schema=out_schema)
    return lookup_join(left, lookup, on=on, key_col=key_col,
                       value_cols=value_cols, out_schema=out_schema,
                       num_partitions=num_partitions)
