"""Range (interval) join — non-equi join via bucket replication.

``range_join(left, right)`` pairs a left row carrying an interval
``[t0, t0 + horizon]`` with every right row of the same key whose time
falls inside it — "events within N days after the order", "readings
during the deploy window".

Architecture (bounded-replication bucket join):

1. time is bucketed at ``horizon`` granularity, so an interval of length
   ``horizon`` overlaps AT MOST TWO buckets — each left row is emitted
   once per overlapped bucket (≤2 rows), right rows exactly once;
2. ONE hash shuffle on ``hash(key, bucket) % P`` co-locates every
   candidate pair (``bucketing.bucketed_map`` — exactly P Python
   calls, never one per (key, bucket) group, SURVEY §7.4); neither side
   is broadcast or collected, both stream through the shuffle;
3. inside each partition the exact predicate ``t0 <= t <= t0 + horizon``
   verifies candidates with two ``np.searchsorted`` calls per run over
   the time-sorted rows (O(L log R) per run, bounded by the bucket's
   fan-in, not the table size).

This is the general recipe for non-equi joins at 100 TB: quantize the
predicate to a finite overlap key, replicate the BOUNDED side (≤2×),
verify exactly after the shuffle.  Degenerate hot buckets follow the
usual salt-and-split treatment.

Determinism: output is one row per matching (left, right) pair; pair
identity is carried by the payload columns, so downstream sorts/groups
see a set, not an order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SIDE_RIGHT = 0
_SIDE_LEFT = 1


def range_join(
    left,
    right,
    *,
    left_key: str,
    right_key: str,
    left_time: str,
    right_time: str,
    horizon: int,
    left_cols: list[str],
    right_cols: list[str],
):
    """Inner interval join: left interval ``[lt, lt + horizon]`` (both
    ends inclusive, times compared as int64 — cast timestamps upstream or
    rely on the implicit us cast) × right instant ``rt``."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if overlap := set(left_cols) & set(right_cols):
        raise ValueError(f"left/right output columns collide: {sorted(overlap)}")

    ls, rs = left.schema(), right.schema()
    _left_types = {c: ls.base_schema.field(c).type for c in left_cols}
    _right_types = {c: rs.base_schema.field(c).type for c in right_cols}

    def prep_left(b: pa.Table) -> pa.Table:
        t = b.column(left_time).cast(pa.int64()).to_numpy(zero_copy_only=False)
        b0 = t // horizon
        b1 = (t + horizon) // horizon
        out = []
        for bucket in (b0, np.where(b1 != b0, b1, -1)):
            mask = bucket >= 0 if bucket is not b0 else np.ones(len(t), bool)
            idx = np.flatnonzero(mask)
            if not len(idx):
                continue
            sel = b.take(pa.array(idx, pa.int64()))
            cols = {
                "_key": sel.column(left_key),
                "_bucket": pa.array(bucket[idx], pa.int64()),
                "_time": sel.column(left_time).cast(pa.int64()),
                "_side": pa.array([_SIDE_LEFT] * len(idx), pa.int8()),
            }
            for c in left_cols:
                cols[c] = sel.column(c)
            for c in right_cols:
                cols[c] = pa.nulls(len(idx), _right_types[c])
            out.append(pa.table(cols))
        if out:
            return pa.concat_tables(out)
        # keep the union schema stable even for all-empty input batches
        empty = {
            "_key": pa.nulls(0, b.column(left_key).type),
            "_bucket": pa.nulls(0, pa.int64()),
            "_time": pa.nulls(0, pa.int64()),
            "_side": pa.nulls(0, pa.int8()),
        }
        for c in left_cols:
            empty[c] = pa.nulls(0, _left_types[c])
        for c in right_cols:
            empty[c] = pa.nulls(0, _right_types[c])
        return pa.table(empty)

    def prep_right(b: pa.Table) -> pa.Table:
        t = b.column(right_time).cast(pa.int64())
        cols = {
            "_key": b.column(right_key),
            "_bucket": pa.array(
                t.to_numpy(zero_copy_only=False) // horizon, pa.int64()
            ),
            "_time": t,
            "_side": pa.array([_SIDE_RIGHT] * b.num_rows, pa.int8()),
        }
        for c in left_cols:
            cols[c] = pa.nulls(b.num_rows, _left_types[c])
        for c in right_cols:
            cols[c] = b.column(c)
        return pa.table(cols)

    unioned = left.map_batches(prep_left, batch_format="pyarrow").union(
        right.map_batches(prep_right, batch_format="pyarrow")
    )

    # Partition-bucketed (stages/bucketing.py): map_groups runs once per
    # hash(key, bucket) % P partition, never once per (key, bucket) group
    # (SURVEY §7.4).  Inside a partition, rows sort (key, bucket, side,
    # time) — rights (side=0) precede lefts within each run and both are
    # time-sorted — then a cheap Python walk over the run boundaries does
    # TWO np.searchsorted calls per run (O(L log R), replacing the old
    # O(L x R) broadcast) and one final concat + take materializes every
    # pair.  Per-run cost is a few microseconds of loop overhead, not a
    # map_groups task.
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def _empty_out() -> pa.Table:
        return pa.table(
            {c: pa.nulls(0, _left_types[c]) for c in left_cols}
            | {c: pa.nulls(0, _right_types[c]) for c in right_cols}
        )

    def match_partition(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[
            ("_key", "ascending"), ("_bucket", "ascending"),
            ("_side", "ascending"), ("_time", "ascending"),
        ])).combine_chunks()
        side = g.column("_side").to_numpy(zero_copy_only=False)
        times = g.column("_time").to_numpy(zero_copy_only=False)
        is_left = side == _SIDE_LEFT
        starts, lens = run_starts(g, ["_key", "_bucket"])
        li_parts, ri_parts = [], []
        for s, ln in zip(starts.tolist(), lens.tolist()):
            e = s + ln
            # rights sort first within the run
            n_r = int(np.count_nonzero(~is_left[s:e]))
            if n_r == 0 or n_r == ln:
                continue
            rt = times[s:s + n_r]
            lt = times[s + n_r:e]
            lo = np.searchsorted(rt, lt, side="left")
            hi = np.searchsorted(rt, lt + horizon, side="right")
            counts = hi - lo
            pos = np.flatnonzero(counts > 0)
            if not len(pos):
                continue
            li_parts.append(np.repeat(pos + (s + n_r), counts[pos]))
            # ranges lo[j]..hi[j] per emitting left row, flattened
            cc = counts[pos]
            offs = np.repeat(np.cumsum(cc) - cc, cc)
            ri_parts.append(
                np.arange(cc.sum(), dtype=np.int64) - offs
                + np.repeat(lo[pos], cc) + s)
        if not li_parts:
            return _empty_out()
        li_a = pa.array(np.concatenate(li_parts), pa.int64())
        ri_a = pa.array(np.concatenate(ri_parts), pa.int64())
        cols: dict[str, pa.Array] = {}
        for c in left_cols:
            cols[c] = g.column(c).combine_chunks().take(li_a)
        for c in right_cols:
            cols[c] = g.column(c).combine_chunks().take(ri_a)
        return pa.table(cols)

    return bucketed_map(unioned, ["_key", "_bucket"], match_partition)
