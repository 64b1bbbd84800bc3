"""As-of (backward) join — a custom wide operator Ray Data lacks.

``asof_join(left, right)`` attaches, to every left row, the right row
with the greatest time ≤ the left row's time within the same key — the
classic event→latest-state join (events to the order that preceded
them, ticks to quotes, telemetry to config pushes).

Architecture (the scale-safe union-shuffle shape):

1. both sides are projected to a COMMON schema and unioned — left
   payload columns ride with nulls on right rows and vice versa;
2. ONE hash shuffle co-locates rows by ``hash(key) % P`` PARTITION
   BUCKET (``bucketing.bucketed_map``) — map_groups runs exactly P
   times, never once per key (SURVEY §7.4); there is no per-row lookup
   table, no driver-side index, and the right side is never broadcast
   (it scales with the input);
3. inside each partition the match is ONE vectorized pass over all keys
   at once: sort (key, time, tiebreak), then a cumulative max over
   right-row positions clamped at key-run starts.

Partitioning assumption (documented per the north rule): one key's rows
always share a bucket (~1/P of the rows per bucket).  For a
pathological hot key, pre-split by time range and stitch the boundary
(the last right row of range N seeds range N+1).

Determinism: ties among right rows with equal time are broken by the
ascending ``right_tiebreak`` column (the LAST in sort order wins, i.e.
the max tiebreak value) — so reruns and the SQL oracle agree exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SIDE_RIGHT = 0
_SIDE_LEFT = 1


def asof_join(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_time: str,
    right_time: str,
    left_cols: list[str],
    right_cols: list[str],
    right_tiebreak: str | None = None,
    inner: bool = True,
):
    """Backward as-of join of two Datasets.

    ``left_cols`` / ``right_cols`` are the payload columns each side
    contributes to the output (key and time columns included only if
    listed).  Returns left rows with the matched right payload; with
    ``inner=True`` unmatched left rows are dropped, else their right
    payload is null.
    """
    if right_tiebreak is not None and right_tiebreak not in right_cols:
        right_cols = [*right_cols, right_tiebreak]

    left_schema = dict(zip(left_cols, [None] * len(left_cols)))
    right_schema = dict(zip(right_cols, [None] * len(right_cols)))
    if overlap := set(left_schema) & set(right_schema):
        raise ValueError(f"left/right output columns collide: {sorted(overlap)}")

    def prep_left(b: pa.Table) -> pa.Table:
        cols = {
            "_key": b.column(left_key),
            "_time": b.column(left_time).cast(pa.int64()),
            "_side": pa.array([_SIDE_LEFT] * b.num_rows, pa.int8()),
        }
        for c in left_cols:
            cols[c] = b.column(c)
        for c in right_cols:
            cols[c] = pa.nulls(b.num_rows, _right_types[c])
        return pa.table(cols)

    def prep_right(b: pa.Table) -> pa.Table:
        cols = {
            "_key": b.column(right_key),
            "_time": b.column(right_time).cast(pa.int64()),
            "_side": pa.array([_SIDE_RIGHT] * b.num_rows, pa.int8()),
        }
        for c in left_cols:
            cols[c] = pa.nulls(b.num_rows, _left_types[c])
        for c in right_cols:
            cols[c] = b.column(c)
        return pa.table(cols)

    # resolve payload types once, driver-side, from the (cheap) schemas
    ls, rs = left.schema(), right.schema()
    _left_types = {c: ls.base_schema.field(c).type for c in left_cols}
    _right_types = {c: rs.base_schema.field(c).type for c in right_cols}

    unioned = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow")
    )

    # Partition-bucketed (stages/bucketing.py): map_groups runs once per
    # hash(key) % P bucket, never once per key (SURVEY §7.4).  Inside a
    # partition the match is ONE vectorized pass over ALL keys at once:
    # rows sort (key, time, tiebreak) — a left row's match is then simply
    # the LAST right row at-or-before it within its key run (left rows
    # carry a null tiebreak, which sorts after equal-time right rows, so
    # "at-or-before" is exactly time<= with max-tiebreak ties) — found by
    # a cumulative max over right-row positions, validated against the
    # run start so matches never leak across keys.
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    out_schema = pa.schema(
        [pa.field(c, _left_types[c]) for c in left_cols]
        + [pa.field(c, _right_types[c]) for c in right_cols]
    )

    def match_partition(g: pa.Table) -> pa.Table:
        sort_keys = [("_key", "ascending"), ("_time", "ascending")]
        if right_tiebreak is not None:
            sort_keys.append((right_tiebreak, "ascending"))
        g = g.take(pc.sort_indices(g, sort_keys=sort_keys)).combine_chunks()
        n = g.num_rows
        side = g.column("_side").to_numpy(zero_copy_only=False)
        is_left = side == _SIDE_LEFT
        starts, lens = run_starts(g, ["_key"])
        run_start_row = np.repeat(starts, lens)
        # last right row at-or-before each row, clamped to the key run
        rp = np.where(~is_left, np.arange(n, dtype=np.int64), np.int64(-1))
        last_right = np.maximum.accumulate(rp)
        matched_all = last_right >= run_start_row
        lefts = g.filter(pa.array(is_left))
        matched = matched_all[is_left]
        take_idx = pa.array(
            np.where(matched, last_right[is_left], 0), pa.int64())
        cols: dict[str, pa.Array] = {}
        for c in left_cols:
            cols[c] = lefts.column(c)
        null_mask = pa.array(~matched)
        for c in right_cols:
            taken = g.column(c).combine_chunks().take(take_idx)
            cols[c] = pc.if_else(null_mask, pa.nulls(1, taken.type)[0], taken)
        out = pa.table(cols)
        if inner:
            out = out.filter(pa.array(matched))
        return out.cast(out_schema)

    return bucketed_map(unioned, ["_key"], match_partition)
