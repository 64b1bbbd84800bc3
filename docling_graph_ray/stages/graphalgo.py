"""Iterative distributed graph algorithms over edge datasets.

``connected_components``: min-label propagation with pointer jumping —
the classic MapReduce/Pregel connected-components shape (hash-to-min
family, Rastogi et al. 2013, public).  Each round is a bounded set of
dataset-native shuffles; NOTHING graph-sized ever lands on the driver:

- propagate: each edge offers its source's current label to its target
  and vice versa (two hash joins on the label table);
- contract:  ``groupby(node).min(label)`` folds the offers;
- jump:      ``label ← label(label)`` (one self-join) halves chain
  depth, turning O(diameter) rounds into O(log diameter);
- converge:  labels only DECREASE under min-propagation, so the global
  ``sum(label)`` is strictly monotone until fixpoint — one tiny
  aggregate per round is the whole convergence check (no change-join).

Per-round ``materialize()`` is deliberate and required: an iterative
dataset algorithm must cut lineage at every round barrier or the lazy
plan re-executes all previous rounds per consumer; the materialized
table is O(nodes) rows of two int64 columns, the smallest state the
algorithm can carry.  Each round ALSO repartitions the label table to a
fixed block count before the barrier — the round's unions multiply
block counts, and without the repartition the per-round sort cost grows
geometrically with the accumulated (tiny) blocks (measured: rounds went
4 s → 30 s → 485 s on a 64-node chain before the fix).  The barrier
FURTHER severs the ``DatasetStats`` ancestry (``stages/lineage.py``):
``materialize()`` keeps the stats parent chain, Ray summarizes stats
recursively after EVERY execution, and with multi-branch consumption
per round that walk is O(2^rounds) of driver-side Python (measured:
13.5 s -> 600 s per round by round 12 on a 1e7-edge chain, executor
time flat at ~1.5 s, before the fix).

Node ids are int64 (graph pipelines here key nodes by integer ids;
string-keyed graphs map ids to dense ints first — at web scale you
want that anyway so labels shuffle as fixed-width ints, not text).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.stages.lineage import round_barrier

_LBL_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])


def _label_sum(labels) -> int:
    """Convergence scalar via the native ``Sum`` aggregate — the partial
    sums combine inside Ray Data's aggregate tree; only the one final
    scalar reaches the driver (no per-block partial table shipped)."""
    return int(labels.sum("label") or 0)


def _min_fold(pairs):
    """(node, label) rows → per-node min label.

    Partition-bucketed with a map-side combiner — Ray's native
    ``groupby(node).min`` sort-shuffles by the full node domain, which
    measured 180 s for 3e7 rows / 1e7 nodes where the bucketed fold runs
    in 2.2 s (see bucketing.bucketed_aggregate); at one fold per round
    that difference IS the algorithm's wall time."""
    from docling_graph_ray.stages.bucketing import bucketed_aggregate

    return bucketed_aggregate(
        pairs, ["node"], [("label", "min")],
        rename=["node", "label"], combine=True,
    )


def connected_components(edges, *, src_col: str = "src",
                         dst_col: str = "dst", max_rounds: int = 25,
                         label_blocks: int = 8, on_round=None):
    """Edge dataset → ``(node, component)`` rows, component = the
    minimum node id reachable from the node (undirected semantics).

    Isolated nodes don't exist in an edge list; callers needing them
    union ``(n, n)`` rows for their node table afterwards.

    ``on_round(round_idx, seconds, label_sum)`` — optional per-round
    instrumentation hook (volume smokes record the rounds×wall curve)."""
    import time

    import ray  # noqa: F401  (documented dependency of materialize)

    def endpoints(b: pa.Table) -> pa.Table:
        s = b.column(src_col).cast(pa.int64())
        d = b.column(dst_col).cast(pa.int64())
        return pa.table({
            "node": pa.concat_arrays([s.combine_chunks(),
                                      d.combine_chunks()]),
            "label": pa.concat_arrays([s.combine_chunks(),
                                       d.combine_chunks()]),
        }).cast(_LBL_SCHEMA)

    labels = round_barrier(_min_fold(
        edges.map_batches(endpoints, batch_format="pyarrow")
    ), label_blocks)
    prev_sum = _label_sum(labels)

    from docling_graph_ray.stages.joins import lookup_join

    def edge_pairs(b: pa.Table) -> pa.Table:
        return pa.table({
            "a": b.column(src_col).cast(pa.int64()),
            "b": b.column(dst_col).cast(pa.int64()),
        })

    epairs = edges.map_batches(edge_pairs, batch_format="pyarrow")

    for round_idx in range(max_rounds):
        round_t0 = time.monotonic()
        # propagate: attach each endpoint's label, offer it to the peer
        with_a = lookup_join(epairs, labels, on="a", key_col="node",
                             value_cols=["label"])

        def offers(b: pa.Table) -> pa.Table:
            return pa.table({
                "node": b.column("b").cast(pa.int64()),
                "label": b.column("label").cast(pa.int64()),
            }).cast(_LBL_SCHEMA)

        with_b = lookup_join(epairs, labels, on="b", key_col="node",
                             value_cols=["label"])

        def offers_rev(b: pa.Table) -> pa.Table:
            return pa.table({
                "node": b.column("a").cast(pa.int64()),
                "label": b.column("label").cast(pa.int64()),
            }).cast(_LBL_SCHEMA)

        # barrier: the pointer jump consumes prop TWICE (left + lookup
        # side of the self-join); without the materialize its 3-shuffle
        # plan executes twice per round.  round_barrier also severs the
        # stats ancestry — multi-branch consumption per round otherwise
        # makes Ray's end-of-run stats summary walk O(2^rounds) on the
        # driver (see stages/lineage.py; measured 13.5 s -> 600 s/round)
        prop = round_barrier(_min_fold(
            labels.union(
                with_a.map_batches(offers, batch_format="pyarrow"),
                with_b.map_batches(offers_rev, batch_format="pyarrow"),
            )
        ), label_blocks)

        # pointer jump: label <- label(label)
        jumped = lookup_join(
            prop.map_batches(
                lambda t: t.rename_columns(["node", "ptr"]),
                batch_format="pyarrow"),
            prop, on="ptr", key_col="node", value_cols=["label"],
        )

        def resolve(b: pa.Table) -> pa.Table:
            lbl = pc.min_element_wise(
                pc.coalesce(b.column("label").cast(pa.int64()),
                            b.column("ptr").cast(pa.int64())),
                b.column("ptr").cast(pa.int64()),
            )
            return pa.table({
                "node": b.column("node").cast(pa.int64()),
                "label": lbl,
            }).cast(_LBL_SCHEMA)

        labels = round_barrier(jumped.map_batches(
            resolve, batch_format="pyarrow"
        ), label_blocks)

        cur = _label_sum(labels)
        if on_round is not None:
            on_round(round_idx, time.monotonic() - round_t0, cur)
        if cur == prev_sum:
            break
        prev_sum = cur

    return labels.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow",
    )


def pagerank(edges, *, src_col: str = "src", dst_col: str = "dst",
             damping: float = 0.85, iters: int = 10,
             label_blocks: int = 8, ndigits: int = 10, on_round=None):
    """Distributed PageRank, fixed ``iters`` power iterations.

    Per iteration: attach each edge's source rank/out-degree (one hash
    join), send ``rank/out_degree`` along the edge, fold contributions
    with a per-batch partial sum before the ``groupby(node)`` shuffle,
    and apply the damping update.  Dangling mass (nodes with no
    out-edges) is redistributed uniformly — computed as ``1 − Σ
    outgoing mass`` with one tiny aggregate, so nothing graph-sized
    lands on the driver.  The same repartition+materialize round
    barrier as :func:`connected_components` (see module docstring).

    Ranks are rounded to ``ndigits`` decimals at the END only, so
    results are reproducible across block layouts up to float-sum
    ordering (documented tolerance; tests compare against a dense
    numpy power iteration at 1e-9)."""
    import ray  # noqa: F401

    rank_schema = pa.schema([("node", pa.int64()), ("rank", pa.float64())])

    def endpoints(b: pa.Table) -> pa.Table:
        s = b.column(src_col).cast(pa.int64())
        d = b.column(dst_col).cast(pa.int64())
        return pa.table({
            "node": pa.concat_arrays([s.combine_chunks(),
                                      d.combine_chunks()]),
            "label": pa.concat_arrays([s.combine_chunks(),
                                       d.combine_chunks()]),
        }).cast(_LBL_SCHEMA)

    nodes = round_barrier(_min_fold(
        edges.map_batches(endpoints, batch_format="pyarrow")
    ).map_batches(
        lambda t: pa.table({"node": t.column("node")}),
        batch_format="pyarrow",
    ), label_blocks)
    n_total = nodes.count()
    if n_total == 0:
        return ray.data.from_arrow(rank_schema.empty_table())

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def pairs(b: pa.Table) -> pa.Table:
        return pa.table({"a": b.column(src_col).cast(pa.int64()),
                         "b": b.column(dst_col).cast(pa.int64())})

    epairs = edges.map_batches(pairs, batch_format="pyarrow")

    # out-degree per source (static across iterations)
    def deg_partial(b: pa.Table) -> pa.Table:
        g = b.group_by("a").aggregate([([], "count_all")])
        return g.rename_columns(["node", "deg"])

    from docling_graph_ray.stages.bucketing import bucketed_aggregate

    degrees = round_barrier(
        bucketed_aggregate(
            epairs.map_batches(deg_partial, batch_format="pyarrow"),
            ["node"], [("deg", "sum")],
            rename=["node", "deg"], combine=True,
        ),
        label_blocks,
    )

    from docling_graph_ray.stages.joins import lookup_join

    init = 1.0 / n_total
    ranks = round_barrier(nodes.map_batches(
        lambda b: pa.table({
            "node": b.column("node"),
            "rank": pa.array([init] * b.num_rows, pa.float64()),
        }).cast(rank_schema),
        batch_format="pyarrow",
    ), label_blocks)

    import time

    base = (1.0 - damping) / n_total
    for round_idx in range(iters):
        round_t0 = time.monotonic()
        # left schemas given, and the contributions materialized: a lazy
        # Dataset.schema() runs a job and cancels its unfinished tasks, and
        # that cancellation can abort the driver inside Ray (task_manager /
        # reference_count CHECK failures)
        with_rank = lookup_join(
            lookup_join(epairs, ranks, on="a", key_col="node",
                        value_cols=["rank"], out_schema=pair_schema),
            degrees, on="a", key_col="node", value_cols=["deg"],
            out_schema=pa.schema(list(pair_schema)
                                 + [("rank", pa.float64())]),
        )

        contrib_schema = pa.schema([("node", pa.int64()),
                                    ("m", pa.float64())])

        def contribs(b: pa.Table) -> pa.Table:
            m = pc.divide(b.column("rank").cast(pa.float64()),
                          b.column("deg").cast(pa.float64()))
            t = pa.table({"node": b.column("b").cast(pa.int64()), "m": m})
            g = t.group_by("node").aggregate([("m", "sum")])
            return g.rename_columns(["node", "m"]).cast(contrib_schema)

        # barrier: inflow is consumed twice (dangling-mass aggregate +
        # the rank update join)
        # round_barrier severs stats ancestry too — see lineage.py
        inflow = round_barrier(
            bucketed_aggregate(
                with_rank.map_batches(contribs,
                                      batch_format="pyarrow").materialize(),
                ["node"], [("m", "sum")],
                rename=["node", "m"], combine=True,
            ),
            label_blocks,
        )

        # dangling mass = 1 - sum of mass sent along edges; native Sum
        # aggregate — only the final scalar reaches the driver
        sent = float(inflow.sum("m") or 0.0)
        dangling = max(0.0, 1.0 - sent) / n_total

        joined = lookup_join(nodes, inflow, on="node", key_col="node",
                             value_cols=["m"])

        def update(b: pa.Table) -> pa.Table:
            m = pc.fill_null(b.column("m").cast(pa.float64()), 0.0)
            r = pc.add(pc.multiply(pc.add(m, pa.scalar(dangling)),
                                   pa.scalar(damping)),
                       pa.scalar(base))
            return pa.table({"node": b.column("node").cast(pa.int64()),
                             "rank": r}).cast(rank_schema)

        ranks = round_barrier(joined.map_batches(
            update, batch_format="pyarrow"
        ), label_blocks)
        if on_round is not None:
            on_round(round_idx, time.monotonic() - round_t0, sent)

    def final_round(b: pa.Table) -> pa.Table:
        return pa.table({
            "node": b.column("node"),
            "rank": pc.round(b.column("rank"), ndigits=ndigits),
        }).cast(rank_schema)

    return ranks.map_batches(final_round, batch_format="pyarrow")
