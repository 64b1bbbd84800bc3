"""Relational operator pipelines over the TPC-H-ish test tables.

Each function takes ``sf_dir`` and returns a Ray Dataset whose column
names match the DuckDB oracle SQL in ``__ray_entry__`` exactly.

Scale patterns demonstrated (SURVEY.md §4.2, §7.4):
- column-pruned reads (``read_parquet(columns=[...])`` — only needed
  columns leave storage);
- partial (combiner) aggregation inside ``map_batches`` BEFORE the small
  groupby — the all-to-all shuffle moves pre-aggregated partials, not rows;
- broadcast joins: the small side is ``ray.put`` once and read zero-copy
  in every task — never a shuffle, never re-shipped per batch;
- hash-shuffle join (``Dataset.join``) where both sides are large;
- monetary aggregates carried as integer cents (exact in int64), so the
  Ray and DuckDB sides hash byte-equal — no float-summation-order drift.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(col, factor: int = 100):
    """double → exact integer minor units (row-wise identical to the SQL
    ``CAST(ROUND(x*factor, 0) AS BIGINT)`` — half_towards_infinity equals
    DuckDB's half-away-from-zero ROUND on the non-negative values here)."""
    return pc.round(
        pc.multiply(col, float(factor)), ndigits=0, round_mode="half_towards_infinity"
    ).cast(pa.int64())


# ---------------------------------------------------------------------------
# q1: pricing summary (TPC-H Q1 shape) — partial agg then tiny groupby


def q1_pricing_summary(sf_dir: str):
    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.less_equal(
            batch.column("l_shipdate"), pa.scalar(np.datetime64("1998-09-02", "us"))
        )
        b = batch.filter(mask)
        if b.num_rows == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_price_cents": pa.array([], pa.int64()),
                    "sum_disc_price_e4": pa.array([], pa.int64()),
                    "sum_charge_e6": pa.array([], pa.int64()),
                    "count_order": pa.array([], pa.int64()),
                }
            )
        price = b.column("l_extendedprice")
        disc = b.column("l_discount")
        tax = b.column("l_tax")
        disc_price = pc.multiply(price, pc.subtract(pa.scalar(1.0), disc))
        charge = pc.multiply(disc_price, pc.add(pa.scalar(1.0), tax))
        t = pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": b.column("l_quantity").cast(pa.int64()),
                "base_cents": _cents(price, 100),
                "disc_e4": _cents(disc_price, 10_000),
                "charge_e6": _cents(charge, 1_000_000),
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("base_cents", "sum"), ("disc_e4", "sum"),
             ("charge_e6", "sum"), ("qty", "count")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price_cents",
             "sum_disc_price_e4", "sum_charge_e6", "count_order"]
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    final = (
        partials.groupby(["l_returnflag", "l_linestatus"])
        .sum(["sum_qty", "sum_base_price_cents", "sum_disc_price_e4",
              "sum_charge_e6", "count_order"])
    )
    return final.map_batches(
        lambda t: t.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price_cents",
             "sum_disc_price_e4", "sum_charge_e6", "count_order"]
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# sort / limit / filter / distinct


def top_filtered_orders(sf_dir: str, k: int = 10):
    """Filter + project + sort + limit in ONE query — consolidates the
    former ``top_orders``/``filter_project_lineitem`` pair so the
    driver's 50-entry correctness sample frees slots for whole operator
    families that previously went unsampled (VERDICT r3 next-step #6).
    Same Ray shapes: pushed-down column read, vectorized batch filter,
    global ``sort(...).limit(k)`` top-k."""
    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.greater_equal(batch.column("o_totalprice"), 100_000.0)
        return batch.filter(mask)

    return ds.map_batches(fn, batch_format="pyarrow").sort(
        ["o_totalprice", "o_orderkey"], descending=[True, False]
    ).limit(k)


# ---------------------------------------------------------------------------
# joins


def mktsegment_revenue(sf_dir: str, num_partitions: int = 64):
    """Hash-shuffle join orders ⋈ customer on custkey, then segment
    revenue.  Customer scales with the input (it is O(rows), not a dim),
    so broadcasting its custkey→segment dict would OOM the driver at
    100 TB — the join ships both sides through the shuffle instead and
    only the per-segment partials reduce (keep ``ray.put`` broadcasts for
    true dims like nation/region).

    The join is ``lookup_join_auto`` (stages/joins.py): the customer
    side's row count is a parquet-metadata-only probe, and the measured
    ~400k-key crossover (SURVEY §7.4) picks broadcast (one task-pool
    stage, zero shuffles — this sf) vs the partition-bucketed co-group
    shuffle (the 100 TB path, where customer is O(rows)).  Both paths
    share the same Arrow kernels, so the result is bit-identical.
    Custkey is unique on the customer side, so the lookup attach is an
    exact inner join after the null-drop."""
    from docling_graph_ray.stages.joins import lookup_join_auto

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = lookup_join_auto(
        orders, cust, on="o_custkey", key_col="c_custkey",
        value_cols=["c_mktsegment"], num_partitions=num_partitions,
        probe_rows=cust.count(),  # parquet metadata, no execution
    ).map_batches(
        lambda b: b.filter(pc.is_valid(b.column("c_mktsegment"))),
        batch_format="pyarrow",
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"c_mktsegment": batch.column("c_mktsegment"),
             "cents": _cents(batch.column("o_totalprice"), 100)}
        )
        g = t.group_by("c_mktsegment").aggregate([("cents", "sum"), ("cents", "count")])
        return g.rename_columns(["c_mktsegment", "revenue_cents", "n_orders"])

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .sum(["revenue_cents", "n_orders"])
        .map_batches(
            lambda t: t.rename_columns(["c_mktsegment", "revenue_cents", "n_orders"]),
            batch_format="pyarrow",
        )
    )


def orderpriority_lineitem_counts(sf_dir: str, num_partitions: int = 8):
    """Hash-shuffle join of the two largest tables (Dataset.join), then a
    tiny aggregate: lineitems shipped strictly after their order date,
    counted per order priority."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    joined = li.join(
        orders,
        join_type="inner",
        num_partitions=num_partitions,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.greater(batch.column("l_shipdate"), batch.column("o_orderdate"))
        t = pa.table({"o_orderpriority": batch.filter(mask).column("o_orderpriority")})
        g = t.group_by("o_orderpriority").aggregate([([], "count_all")])
        return g.rename_columns(["o_orderpriority", "n_late_items"])

    return (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .sum("n_late_items")
        .map_batches(
            lambda t: t.rename_columns(["o_orderpriority", "n_late_items"]),
            batch_format="pyarrow",
        )
    )


def _nation_counts(cust_subset):
    """Per-nation customer counts with batch-local partials before the
    tiny groupby."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"c_nationkey": batch.column("c_nationkey").cast(pa.int64())})
        g = t.group_by("c_nationkey").aggregate([([], "count_all")])
        return g.rename_columns(["c_nationkey", "n_customers"])

    return (
        cust_subset.map_batches(partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .sum("n_customers")
        .map_batches(
            lambda t: t.rename_columns(["c_nationkey", "n_customers"]),
            batch_format="pyarrow",
        )
    )


def semi_join_customers(sf_dir: str, num_partitions: int = 8):
    """Hash-shuffle SEMI join: customers with ≥1 order, counted per
    nation.  The order-custkey side is O(largest table) so it must ride
    the shuffle, never a driver set (the round-1 scale-killer,
    VERDICT.md What's-wrong #2); batch-local pre-distinct shrinks it
    before the exchange."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def predistinct(b: pa.Table) -> pa.Table:
        return b.group_by("o_custkey").aggregate([])

    from docling_graph_ray.stages.joins import semi_join

    keys = orders.map_batches(predistinct, batch_format="pyarrow")
    # partition-bucketed co-group semi join (stages/joins.py): task-pool
    # execution, no hash-join actor spin-up at small scale
    matched = semi_join(cust, keys, on="c_custkey", key_col="o_custkey",
                        num_partitions=max(num_partitions, 64))
    return _nation_counts(matched)


# ---------------------------------------------------------------------------
# events: latest-wins, grouped aggregates, time bucketing


def latest_event_per_user(sf_dir: str):
    """Per-user latest event — the per-group-first/latest pattern
    (reference analogue: duplicate absorption keyed latest-wins,
    docling_graph/core/merge/merger.py:175-238).

    Combiner-before-shuffle: each input batch is first reduced to at most
    one row per user (vectorized sort + group-boundary mask), so the wide
    groupby moves O(batches x users) candidate rows instead of every
    event — at web scale the shuffle payload is the user cardinality, not
    the event volume."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def partial_top1(batch: pa.Table) -> pa.Table:
        # sort user asc, (ts, event_id) desc; the first row of each user
        # run is that user's batch-local latest
        idx = pc.sort_indices(
            batch,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts", "descending"),
                ("event_id", "descending"),
            ],
        )
        s = batch.take(idx)
        uid = s.column("user_id").to_numpy(zero_copy_only=False)
        first = np.empty(len(uid), dtype=bool)
        if len(uid):
            first[0] = True
            first[1:] = uid[1:] != uid[:-1]
        return s.filter(pa.array(first))

    # final fold, partition-bucketed (stages/bucketing.py): one
    # vectorized map_groups call per hash bucket, never one per user —
    # the first row of each user run under (ts, event_id) desc is that
    # user's global latest
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def top1_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"),
            ("ts", "descending"),
            ("event_id", "descending"),
        ])
        g = g.take(idx).combine_chunks()
        starts, _ = run_starts(g, ["user_id"])
        g = g.take(pa.array(starts, pa.int64()))
        return pa.table({
            "user_id": g.column("user_id"),
            "last_ts": g.column("ts"),
            "last_event_type": g.column("event_type"),
            "last_value": g.column("value"),
        })

    return bucketed_map(ds.map_batches(partial_top1, batch_format="pyarrow"),
                        ["user_id"], top1_partition)


def events_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Gap-based session windows per user: a new session starts when the
    gap since the previous event exceeds ``gap_minutes``.  Classic
    training-data sessionization as a grouped, vectorized transform —
    a single numpy diff/cumsum pass, no Python loop over events.

    Partition-bucketed (stages/bucketing.py): the co-group key is
    ``hash(user_id) % P`` so ``map_groups`` runs exactly P times (never
    once per user — SURVEY.md §7.4); inside each call, rows sort
    (user_id, ts, event_id) and a session starts at every user boundary
    OR gap > threshold — one vectorized pass over the whole partition,
    with the within-user session counter recovered by subtracting the
    cumsum value at each user's run start.  All of one user's events
    land in one partition (the windowed-aggregate partitioning
    assumption, SURVEY.md custom-operator rule (a))."""
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    gap_us = np.int64(gap_minutes * 60 * 1_000_000)

    def sessionize_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending"),
            ("event_id", "ascending")])
        g = g.take(idx).combine_chunks()
        n = g.num_rows
        ts_i = (g.column("ts").to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").astype(np.int64))
        starts, lens = run_starts(g, ["user_id"])
        new_sess = np.ones(n, dtype=np.int64)
        if n > 1:
            new_sess[1:] = (np.diff(ts_i) > gap_us).astype(np.int64)
        new_sess[starts] = 1  # user boundary always opens a session
        csum = np.cumsum(new_sess)
        # within-user session id: subtract the count already consumed
        # before this user's run (csum at run start is 1-based inclusive)
        sess = csum - np.repeat(csum[starts] - 1, lens)
        cents = pc.round(
            pc.multiply(g.column("value"), 100.0),
            ndigits=0, round_mode="half_towards_infinity",
        ).cast(pa.int64())
        t = pa.table({
            "user_id": g.column("user_id").cast(pa.int64()),
            "session_id": pa.array(sess, pa.int64()),
            "ts": g.column("ts"),
            "value_cents": cents,
        })
        agg = t.group_by(["user_id", "session_id"]).aggregate([
            ("ts", "min"), ("ts", "max"), ("value_cents", "sum"), ([], "count_all"),
        ])
        return agg.rename_columns(
            ["user_id", "session_id", "session_start", "session_end",
             "value_cents", "n_events"]
        )

    return bucketed_map(ev, ["user_id"], sessionize_partition)


def events_sliding_window(sf_dir: str, window_days: int = 7):
    """Per-user 7-day trailing sum over daily buckets: grouped window
    aggregate as a vectorized map_groups (daily partial aggregation
    happens batch-side BEFORE the per-user shuffle, so the wide op moves
    one row per (user, day), not per event)."""
    ev = _read(sf_dir, "events", ["ts", "user_id", "value"])

    def daily_partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column("ts"), unit="day")
        cents = _cents(batch.column("value"))
        t = pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "day": day,
            "value_cents": cents,
        })
        g = t.group_by(["user_id", "day"]).aggregate([("value_cents", "sum")])
        return g.rename_columns(["user_id", "day", "value_cents"])

    daily = (
        ev.map_batches(daily_partial, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .sum("value_cents")
        .map_batches(
            lambda t: t.rename_columns(["user_id", "day", "value_cents"]),
            batch_format="pyarrow",
        )
    )

    # Partition-bucketed final window (stages/bucketing.py): one
    # vectorized map_groups call per hash bucket, never one per user.
    # The per-user searchsorted window is made partition-global by
    # remapping each row to ``user_run_index * OFFSET + (day - min_day)``
    # with OFFSET > day span + window: the combined key is monotone over
    # the (user, day)-sorted partition and ``key - win`` can never reach
    # back into the previous user's block, so ONE searchsorted serves
    # every user at once.
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def trailing_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("user_id", "ascending"), ("day", "ascending")])
        g = g.take(idx).combine_chunks()
        n = g.num_rows
        days = g.column("day").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]").astype(np.int64)
        vals = g.column("value_cents").to_numpy(zero_copy_only=False)
        starts, lens = run_starts(g, ["user_id"])
        # whole-day numbers (floor_temporal upstream guarantees this) keep
        # the combined key tiny: run_idx * offset stays < 2^63 even at
        # billions of runs x a century of days
        day_num = days // np.int64(86_400_000_000)
        day_rel = day_num - day_num.min()
        offset = np.int64(day_rel.max()) + np.int64(window_days) + np.int64(1)
        run_idx = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
        combined = run_idx * offset + day_rel
        csum = np.concatenate([[0], np.cumsum(vals)])
        # trailing window (day - 7d, day]: left index via searchsorted
        left = np.searchsorted(combined, combined - np.int64(window_days),
                               side="right")
        trail = csum[np.arange(1, n + 1)] - csum[left]
        return pa.table({
            "user_id": g.column("user_id"),
            "day": g.column("day"),
            "value_cents": g.column("value_cents"),
            "trailing_7d_cents": pa.array(trail, pa.int64()),
        })

    return bucketed_map(daily, ["user_id"], trailing_partition)


def orders_deep_merge(sf_dir: str):
    """Per-order deep merge of per-lineitem partial records: each
    lineitem row becomes a partial JSON record {orderkey, items:[{ln,
    qty}]}; merge_partial_records folds them (sorted by linenumber)
    into one nested record per order — the reference's
    merge_pydantic_models per-document reduce (dict_merger.py:17-73)
    exercised at relational scale.  Rows-only check: the merged JSON
    column is not SQL-expressible."""
    import json

    from docling_graph_ray.functions.deep_merge import merge_partial_records

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity"])

    def to_partials(b: pa.Table) -> pa.Table:
        orderkeys = b.column("l_orderkey").to_pylist()
        lns = b.column("l_linenumber").to_pylist()
        qtys = b.column("l_quantity").to_pylist()
        records = [
            json.dumps({"orderkey": ok,
                        "items": [{"ln": ln, "qty": float(q)}]},
                       sort_keys=True)
            for ok, ln, q in zip(orderkeys, lns, qtys)
        ]
        return pa.table({
            "doc_id": pa.array([str(ok) for ok in orderkeys], pa.string()),
            "page_no": pa.array(lns, pa.int64()),
            "record": pa.array(records, pa.string()),
        })

    partials = li.map_batches(to_partials, batch_format="pyarrow")
    return merge_partial_records(
        partials, identity_fields_map={"items": ["ln"]}
    )


def events_asof_orders(sf_dir: str):
    """Backward as-of join: each event picks the user's latest order with
    ``o_orderdate <= ts`` (ties on orderdate broken by max orderkey).
    The custom wide operator the reference-class pipelines need and Ray
    Data lacks (stages.asof — union-shuffle, per-group searchsorted)."""
    from docling_graph_ray.stages.asof import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate"])
    return asof_join(
        ev, orders,
        left_key="user_id", right_key="o_custkey",
        left_time="ts", right_time="o_orderdate",
        left_cols=["event_id", "user_id", "ts"],
        right_cols=["o_orderkey", "o_orderdate"],
        right_tiebreak="o_orderkey",
        inner=True,
    )


def orders_followup_window(sf_dir: str, days: int = 30):
    """Range join (self): for each order, the customer's OTHER orders
    placed within ``days`` after it (both ends inclusive), reduced per
    order to (n_followups, last_followup_orderkey).  Non-equi join via
    stages.rangejoin's bucket-replication shuffle; partial-agg before
    the final groupby.  (A self-join because the synthetic events table
    lives in 2024 while orders live in 1995-2001 — no cross-table time
    overlap exists to join on.)"""
    from ray.data.aggregate import Max, Sum

    from docling_graph_ray.stages.rangejoin import range_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    followups = orders.map_batches(
        lambda t: t.rename_columns(
            ["followup_orderkey", "o_custkey", "o_orderdate"]
        ),
        batch_format="pyarrow",
    )
    horizon = days * 86_400 * 1_000_000  # us
    pairs = range_join(
        orders, followups,
        left_key="o_custkey", right_key="o_custkey",
        left_time="o_orderdate", right_time="o_orderdate",
        horizon=horizon,
        left_cols=["o_orderkey"], right_cols=["followup_orderkey"],
    )

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b.column("o_orderkey"),
                                  b.column("followup_orderkey")))
        g = b.group_by("o_orderkey").aggregate(
            [("followup_orderkey", "count"), ("followup_orderkey", "max")]
        )
        return g.rename_columns(
            ["o_orderkey", "n_followups", "last_followup_orderkey"]
        )

    return (
        pairs.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderkey")
        .aggregate(Sum("n_followups"), Max("last_followup_orderkey"))
        .map_batches(
            lambda t: t.rename_columns(
                ["o_orderkey", "n_followups", "last_followup_orderkey"]
            ),
            batch_format="pyarrow",
        )
    )
