"""Knowledge-graph operators as Ray Data transforms over nodes/edges tables.

The reference materializes one ``networkx.DiGraph`` per run and cleans it
in-process (docling_graph/core/converters/graph_converter.py:202-358,
graph_cleaner.py); here the graph is TWO datasets —
``nodes(node_id, class, <attrs…>)`` and ``edges(src, dst, label)`` — and
every cleanup is a groupby / filter / broadcast semi-join (SURVEY.md §1.4).

Semantics ported (not code):
- exact node dedup by deterministic identity with first-non-empty-wins
  enrichment — graph_converter.py:540-545,656-689 + the NodeIDRegistry
  fingerprint (node_id_registry.py:58-113), re-expressed as
  ``groupby(node_id).map_groups(enrich)`` with an explicit within-group
  sort (groupby alone does not guarantee order; SURVEY.md §7.5 item 3);
- edge cleanup: duplicate (src, dst, label) triples dropped, self-loops
  dropped, orphaned edges dropped via semi-join against the node set —
  graph_cleaner.py:81-109,319-364;
- phantom-node removal: nodes with no meaningful non-metadata value —
  graph_cleaner.py:189-271;
- content-hash dedup with edge redirect — graph_cleaner.py:273-317,366-391;
- cardinality bounds: per-class top-K keep with deterministic rank and a
  demotion audit — graph_converter.py:360-429;
- graph stats: per-class node counts, per-label edge counts, avg degree —
  stats_calculator.py:10-76.

Partitioning assumptions (documented per SURVEY.md "custom operators"):
- dedup/cardinality groupbys shuffle by ``node_id`` / ``class`` — the one
  wide op per cleanup;
- the orphan semi-join broadcasts the deduped node-id set (``ray.put``
  once, read zero-copy per task).  At 100 TB the node-id set of ONE
  document-collection partition fits comfortably (ids are 16-byte hashes;
  1e9 nodes ≈ 16 GB would not — shard the cleanup by url-hash partition
  first, which the flagship pipeline already does).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from docling_graph_ray.functions.hashing import blake2b_hex
from docling_graph_ray.stages.bucketing import (
    bucketed_aggregate, bucketed_first, bucketed_map, run_starts)
from docling_graph_ray.stages.joins import as_arrow_schema


def dedup_nodes(nodes, *, key_col: str, order_col: str, attr_cols: list[str]):
    """Exact node dedup + enrichment: one row per ``key_col``; the first
    row (by ``order_col``) wins, later duplicates only fill empty attrs.
    Adds ``n_mentions`` (duplicate count).

    Reference: graph_converter.py:540-545 (id-level dedup) + :656-689
    (duplicate-instance enrichment)."""

    # Partition-bucket shape: ONE map_groups call per id-hash bucket
    # (P=64), never one per node — per-group Python at corpus-scale
    # group counts is the dominant cost (measured 324 s/1.6M groups in
    # the curation composite before its rewrite).  Inside a bucket the
    # whole fold is run-boundary numpy over the (key, order)-sorted
    # rows: ``np.minimum.reduceat`` finds every group's first valid
    # attr index in one C call.
    def enrich_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            g, sort_keys=[(key_col, "ascending"), (order_col, "ascending")]
        )
        g = g.take(idx).combine_chunks()
        keys = g.column(key_col).to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.flatnonzero(keys[1:] != keys[:-1]) + 1]
        lens = np.diff(np.r_[starts, len(keys)])
        first = pa.array(starts, pa.int64())
        arrays = [
            g.column(key_col).take(first),
            g.column(order_col).take(first),
        ]
        names = [key_col, order_col]
        big = len(keys)
        pos = np.arange(big)
        for c in attr_cols:
            col = g.column(c)
            valid = pc.is_valid(col)
            if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                valid = pc.and_(valid, pc.not_equal(pc.fill_null(col, ""), ""))
            vmask = valid.to_numpy(zero_copy_only=False)
            cand = np.where(vmask, pos, big)
            fv = np.minimum.reduceat(cand, starts) if big else cand[:0]
            has = fv < big
            taken = col.take(pa.array(np.where(has, fv, 0), pa.int64()))
            arrays.append(
                pc.if_else(pa.array(has), taken, pa.nulls(len(has), col.type))
            )
            names.append(c)
        arrays.append(pa.array(lens, pa.int64()))
        names.append("n_mentions")
        return pa.Table.from_arrays(arrays, names=names)

    return bucketed_map(nodes, [key_col], enrich_partition)


def clean_edges(edges, node_ids_ref, *, src_col: str = "src", dst_col: str = "dst",
                label_col: str = "label"):
    """Edge cleanup in one vectorized pass per batch + one distinct:

    1. drop self-loops (src == dst),
    2. drop orphaned edges: both endpoints must exist in the broadcast
       node-id set (the one semi-join in the reference's system,
       graph_cleaner.py:319-364),
    3. dedup exact (src, dst, label) triples (graph_cleaner.py:81-109).

    ``node_ids_ref`` is a ``ray.put`` handle to a sorted numpy array of
    node ids — broadcast once, read zero-copy in every task."""

    def pass1(batch: pa.Table) -> pa.Table:
        ids = ray.get(node_ids_ref)
        src = batch.column(src_col).to_numpy(zero_copy_only=False)
        dst = batch.column(dst_col).to_numpy(zero_copy_only=False)
        keep = (src != dst) & np.isin(src, ids) & np.isin(dst, ids)
        t = batch.filter(pa.array(keep))
        # batch-local pre-distinct shrinks the shuffle input
        return t.group_by([src_col, dst_col, label_col]).aggregate([])

    deduped = edges.map_batches(pass1, batch_format="pyarrow")

    # global distinct, partition-bucketed (stages/bucketing.py): one
    # vectorized map_groups call per hash bucket, never one per triple
    return bucketed_first(deduped, [src_col, dst_col, label_col])


def phantom_filter(nodes, attr_cols: list[str]):
    """Drop nodes where every non-metadata attribute is null/empty
    (graph_cleaner.py:189-271).  Vectorized: a node survives if ANY attr
    column is non-null and non-empty-string."""

    def fn(batch: pa.Table) -> pa.Table:
        keep = None
        for c in attr_cols:
            col = batch.column(c)
            ok = pc.is_valid(col)
            if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                ok = pc.and_(ok, pc.not_equal(pc.fill_null(col, ""), ""))
            keep = ok if keep is None else pc.or_(keep, ok)
        return batch.filter(pc.fill_null(keep, False))

    return nodes.map_batches(fn, batch_format="pyarrow")


def content_hash(values: list[object]) -> str:
    """Deterministic content fingerprint over non-empty attr values
    (order-insensitive across fields is NOT wanted — field order is part
    of identity, matching the reference's content-based fallback,
    node_id_registry.py:96-113)."""
    parts = [("" if v is None else str(v)) for v in values]
    return blake2b_hex("\x1f".join(parts), digest_size=8)


def _redirect_join(edges, redirects, col: str, num_partitions: int,
                   out_schema: pa.Schema):
    """Rewrite endpoint ``col`` to its canonical id — a left-outer hash
    join expressed as a PARTITION-BUCKETED co-group: edge rows and
    (dup → canon) redirect rows are unioned on one schema keyed by
    ``hash(endpoint) % num_partitions``, so ``map_groups`` runs exactly
    ``num_partitions`` times (never once per distinct endpoint — the
    per-group-Python disease, SURVEY.md §7.4) and each call resolves its
    whole bucket with Arrow C++ kernels (``group_by(min)`` folds the
    redirect side, ``index_in`` + ``take`` + ``coalesce`` attach it).
    Shuffle payload = edges + redirects + one int64 column, same as
    ``Dataset.join`` — but the co-group tolerates the zero-column empty
    blocks chained ``Dataset.join`` calls emit for empty partitions
    (Ray 2.49's join aggregator builds a schema-less left table and
    pa.Table.join raises 'No match … for FieldRef'; the round-1
    graph_content_dedup failure was the same block pathology).

    Skew: a bucket holds ~1/P of the edges; a pathologically hot node
    concentrates its edges in one bucket, the same skew a hash join
    would see — but the per-member cost stays O(1) vectorized."""
    names = list(out_schema.names)

    def edge_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {"_key": b.column(col).cast(pa.string()).combine_chunks()}
        for nm in names:
            cols[nm] = b.column(nm)
        cols["_canon"] = pa.nulls(n, pa.string())
        cols["_is_red"] = pa.array(np.zeros(n, dtype=bool))
        return pa.table(cols)

    def red_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {"_key": b.column("_dup").cast(pa.string()).combine_chunks()}
        for nm in names:
            cols[nm] = pa.nulls(n, out_schema.field(nm).type)
        cols["_canon"] = b.column("_canon").cast(pa.string())
        cols["_is_red"] = pa.array(np.ones(n, dtype=bool))
        return pa.table(cols)

    tagged = edges.map_batches(edge_side, batch_format="pyarrow").union(
        redirects.map_batches(red_side, batch_format="pyarrow")
    )

    def regroup(g: pa.Table) -> pa.Table:
        is_red = g.column("_is_red")
        e = g.filter(pc.invert(is_red))
        if e.num_rows == 0:
            return out_schema.empty_table()
        t = pa.table({nm: e.column(nm) for nm in names})
        red = g.filter(is_red)
        if red.num_rows > 0:
            fold = (red.select(["_key", "_canon"]).combine_chunks()
                    .group_by("_key").aggregate([("_canon", "min")]))
            pos = pc.index_in(e.column("_key").combine_chunks(),
                              value_set=fold.column("_key").combine_chunks())
            canon = fold.column("_canon_min").combine_chunks().take(pos)
            t = t.set_column(
                t.schema.get_field_index(col), col,
                pc.coalesce(canon, t.column(col).cast(pa.string())),
            )
        return t.cast(out_schema)

    return bucketed_map(tagged, ["_key"], regroup,
                        num_partitions=num_partitions)


def content_hash_dedup(nodes, edges, *, key_col: str, attr_cols: list[str],
                       src_col: str = "src", dst_col: str = "dst",
                       num_partitions: int = 8,
                       edge_schema: pa.Schema | None = None):
    """Merge nodes with identical content hash; redirect edges to the
    surviving node (graph_cleaner.py:273-317,366-391).

    Returns ``(nodes_out, edges_out, redirects_ds)``.  Fully
    dataset-native: the redirect map (dup id → canonical id) is emitted as
    a ``(_dup, _canon)`` dataset and hash-joined onto the edge endpoints —
    nothing is collected on the driver, so the duplicate count may be
    O(corpus) (a dedup-heavy web crawl) without OOMing anything.  The
    redirect dataset is materialized once (it is bounded by the number of
    DUPLICATE nodes; the object store spills if it is ever huge) so the
    two endpoint joins don't re-execute the node pipeline.

    ``edge_schema`` is the edges' schema when the caller knows it (the
    redirect join unions edge rows with redirect rows on it); without
    it, ``Dataset.schema()`` runs the lazy edge plan as a job and
    cancels the tasks it did not need, the path on which Ray 2.49 has
    aborted the calling process (``task_manager.cc:930``)."""

    def add_hash(batch: pa.Table) -> pa.Table:
        cols = [batch.column(c).to_pylist() for c in attr_cols]
        hashes = [content_hash(list(vals)) for vals in zip(*cols)] if cols else []
        return batch.append_column("_content_hash", pa.array(hashes, pa.string()))

    hashed = nodes.map_batches(add_hash, batch_format="pyarrow")

    # canonical-per-content-hash, partition-bucketed: one vectorized
    # map_groups call per hash bucket (never one per distinct content
    # hash — SURVEY.md §7.4); inside, sorted run boundaries mark the
    # canonical (min key) row of every hash run
    def tag_canon_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("_content_hash", "ascending"), (key_col, "ascending")])
        g = g.take(idx).combine_chunks()
        starts, lens = run_starts(g, ["_content_hash"])
        n = g.num_rows
        keep = np.zeros(n, dtype=bool)
        keep[starts] = True
        canon = (g.column(key_col).cast(pa.string()).combine_chunks()
                 .take(pa.array(np.repeat(starts, lens), pa.int64())))
        return g.append_column("_keep", pa.array(keep)).append_column(
            "_canon", canon)

    merged = bucketed_map(hashed, ["_content_hash"], tag_canon_partition,
                          num_partitions=max(num_partitions, 64))

    def survivors(batch: pa.Table) -> pa.Table:
        return batch.filter(batch.column("_keep")).drop_columns(
            ["_content_hash", "_keep", "_canon"])

    def to_redirects(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.invert(batch.column("_keep")))
        return pa.table({
            "_dup": t.column(key_col).cast(pa.string()),
            "_canon": t.column("_canon"),
        })

    nodes_out = merged.map_batches(survivors, batch_format="pyarrow")
    redirects = merged.map_batches(
        to_redirects, batch_format="pyarrow"
    ).materialize()

    if edge_schema is None:
        edge_schema = as_arrow_schema(edges.schema())
    edges_out = _redirect_join(edges, redirects, src_col, num_partitions,
                               edge_schema)
    edges_out = _redirect_join(edges_out, redirects, dst_col, num_partitions,
                               edge_schema)
    return nodes_out, edges_out, redirects


def cardinality_bound(nodes, *, class_col: str, max_per_class: int,
                      rank_keys: list[tuple[str, str]], validate: bool = True):
    """Per-class top-K keep (grouped top-k): rank by ``rank_keys``
    (column, 'ascending'|'descending'), keep the first ``max_per_class``
    with their exact 1-based rank, mark the rest demoted with rank null
    (audit preserved, not silently dropped — graph_converter.py:360-429).

    Scale shape: no whole-class group ever lands on one worker.  A
    per-block partial top-K (the global top-K per class is contained in
    the union of per-block top-Ks) feeds a tiny final merge whose groups
    are ≤ K × blocks rows; the demoted remainder is flagged by a
    streaming pass comparing each row against the broadcast per-class
    rank-K boundary tuple — a hot class of 1e9 nodes costs two streaming
    scans and a K×classes merge, never a single-group sort.  Requires
    ``rank_keys`` to be a TOTAL order within a class (include a unique
    tiebreaker, as the reference's converter does) and non-null rank-key
    values; ties crossing the rank-K boundary would otherwise make
    survivor membership ambiguous.  With ``validate=True`` (default)
    that contract is ENFORCED, not just documented: null rank-key
    values raise in the partial pass, and a projected eq-count scan
    verifies each class's rank-K boundary tuple occurs exactly once in
    the input (a duplicate boundary tuple means rank_keys is not a
    total order and a tied row would silently land in neither output
    half) — raising with a fix-it message instead of dropping rows.
    The input plan executes twice (partial pass + remainder pass; a
    third projected class+rank-key scan under validate) — materialize
    upstream first when it is expensive to recompute."""
    import ray

    k = int(max_per_class)
    key_cols = [c for c, _ in rank_keys]

    def _class_ranks(g: pa.Table) -> np.ndarray:
        """1-based rank within class over a table already sorted by
        (class, *rank_keys) — run-boundary arithmetic, no Python loop."""
        cls = g.column(class_col).to_numpy(zero_copy_only=False)
        n = len(cls)
        starts = np.r_[0, np.flatnonzero(cls[1:] != cls[:-1]) + 1]
        return (np.arange(n) - np.repeat(
            starts, np.diff(np.r_[starts, n]))) + 1

    sort_keys = [(class_col, "ascending"), *rank_keys]

    do_validate = bool(validate)

    def partial_topk(batch: pa.Table) -> pa.Table:
        if do_validate:
            for c in key_cols:
                if batch.column(c).null_count:
                    raise ValueError(
                        f"cardinality_bound: rank-key column {c!r} has "
                        "null values — nulls have no total-order rank; "
                        "fill or filter them upstream")
        g = batch.take(pc.sort_indices(batch, sort_keys=sort_keys))
        g = g.combine_chunks()
        return g.filter(pa.array(_class_ranks(g) <= k))

    def final_topk(group: pa.Table) -> pa.Table:
        g = group.take(pc.sort_indices(group, sort_keys=rank_keys))
        g = g.slice(0, k)
        rank = pa.array(np.arange(1, g.num_rows + 1, dtype=np.int64))
        demoted = pa.array(np.zeros(g.num_rows, dtype=bool))
        return g.append_column("rank", rank).append_column("demoted", demoted)

    survivors = (
        nodes.map_batches(partial_topk, batch_format="pyarrow")
        .groupby(class_col)
        .map_groups(final_topk, batch_format="pyarrow")
        .materialize()  # tiny: ≤ K rows per class
    )

    # Per-class boundary tuple = the LAST survivor's rank-key values
    # (rank == min(K, class size)); every row sorting at-or-before it is
    # a survivor (total order ⇒ exact membership), everything after is
    # demoted.  classes × (1 + len(rank_keys)) scalars — broadcast once.
    thr_rows = sorted(
        survivors.select_columns([class_col, "rank", *key_cols]).take_all(),
        key=lambda r: (str(r[class_col]), r["rank"]),
    )
    boundary = {}
    for r in thr_rows:  # rank ascending ⇒ last write per class wins
        boundary[r[class_col]] = [r[c] for c in key_cols]
    classes = sorted(boundary, key=str)
    thr_ref = ray.put((
        pa.array(classes),
        [pa.array([boundary[c][i] for c in classes])
         for i in range(len(key_cols))],
    ))

    if do_validate:
        # Total-order check: each class's boundary tuple must occur
        # EXACTLY once in the input (it is an input row).  >1 means a
        # tie crosses the rank-K boundary and membership is ambiguous —
        # the row tying the boundary would land in neither half.
        def eq_partial(batch: pa.Table) -> pa.Table:
            classes_arr, thr_cols = ray.get(thr_ref)
            ci = pc.index_in(batch.column(class_col), value_set=classes_arr)
            eq = np.ones(batch.num_rows, dtype=bool)
            for (col, _), thr in zip(rank_keys, thr_cols):
                e = pc.fill_null(pc.equal(batch.column(col), thr.take(ci)),
                                 False)
                eq &= e.to_numpy(zero_copy_only=False)
            g = (batch.filter(pa.array(eq))
                 .group_by(class_col).aggregate([([], "count_all")]))
            return pa.table({class_col: g.column(class_col),
                             "n_eq": g.column("count_all").cast(pa.int64())})

        dup = (nodes.select_columns([class_col, *key_cols])
               .map_batches(eq_partial, batch_format="pyarrow")
               .groupby(class_col).sum("n_eq")
               .filter(lambda r: r["sum(n_eq)"] > 1)
               .take(5))
        if dup:
            bad = ", ".join(repr(r[class_col]) for r in dup)
            raise ValueError(
                "cardinality_bound: rank_keys is not a total order within "
                f"class(es) {bad} — the rank-{k} boundary tuple is "
                "duplicated, so survivor membership is ambiguous.  Include "
                "a unique tiebreaker column (the reference converter ranks "
                "by (richness, node_id)) or pass validate=False to accept "
                "drop-on-tie.")

    def demoted_rest(batch: pa.Table) -> pa.Table:
        classes_arr, thr_cols = ray.get(thr_ref)
        ci = pc.index_in(batch.column(class_col), value_set=classes_arr)
        n = batch.num_rows
        lt = np.zeros(n, dtype=bool)
        eq = np.ones(n, dtype=bool)
        for (col, order), thr in zip(rank_keys, thr_cols):
            bv = batch.column(col)
            tv = thr.take(ci)
            c_lt = (pc.less(bv, tv) if order == "ascending"
                    else pc.greater(bv, tv))
            lt |= eq & c_lt.to_numpy(zero_copy_only=False)
            eq &= pc.equal(bv, tv).to_numpy(zero_copy_only=False)
        rest = batch.filter(pa.array(~(lt | eq)))
        return (rest.append_column(
                    "rank", pa.nulls(rest.num_rows, pa.int64()))
                    .append_column("demoted", pa.array(
                        np.ones(rest.num_rows, dtype=bool))))

    return survivors.union(
        nodes.map_batches(demoted_rest, batch_format="pyarrow"))


def graph_stats(nodes, edges, *, class_col: str = "class",
                label_col: str = "label", src_col: str = "src"):
    """Graph-level stats as (metric, value) rows: per-class node counts
    and per-label edge counts (int64 throughout, hash-stable).  Average
    degree is derivable driver-side from the returned counts.

    Reference: stats_calculator.py:10-76 — node/edge counts, per-type
    distributions."""

    def node_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(class_col).aggregate([([], "count_all")])
        metric = pc.binary_join_element_wise(
            pa.array(["nodes"] * g.num_rows), g.column(class_col).cast(pa.string()), ":"
        )
        return pa.table({"metric": metric, "value": g.column("count_all").cast(pa.int64())})

    def edge_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(label_col).aggregate([([], "count_all")])
        metric = pc.binary_join_element_wise(
            pa.array(["edges"] * g.num_rows), g.column(label_col).cast(pa.string()), ":"
        )
        return pa.table({"metric": metric, "value": g.column("count_all").cast(pa.int64())})

    parts = nodes.map_batches(node_partial, batch_format="pyarrow").union(
        edges.map_batches(edge_partial, batch_format="pyarrow")
    )
    summed = parts.groupby("metric").sum("value")

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["metric", "value"])

    return summed.map_batches(rename, batch_format="pyarrow")


def clean_edges_dataset(edges, node_ids, *, src_col: str = "src",
                        dst_col: str = "dst", label_col: str = "label",
                        id_col: str = "node_id"):
    """Dataset-native edge cleanup — same semantics as :func:`clean_edges`
    but the node-id set is a DATASET riding the shuffle, not a broadcast
    array.  Use this when the node set scales with the input (e.g. every
    order id of the fact table); keep the broadcast variant for
    per-partition cleanup where the set is genuinely small.

    Two chained semi-joins (src, then dst) via the empty-block-tolerant
    co-group — chained ``Dataset.join`` calls crash on the empty blocks
    the first join emits (see stages/joins.py)."""
    from docling_graph_ray.stages.joins import semi_join

    triple_schema = pa.schema([
        (src_col, pa.string()), (dst_col, pa.string()), (label_col, pa.string()),
    ])

    def pass1(batch: pa.Table) -> pa.Table:
        keep = pc.invert(pc.equal(batch.column(src_col), batch.column(dst_col)))
        t = batch.filter(keep).select([src_col, dst_col, label_col])
        # batch-local pre-distinct shrinks the shuffle input
        return t.group_by([src_col, dst_col, label_col]).aggregate([]).cast(
            triple_schema
        )

    pre = edges.map_batches(pass1, batch_format="pyarrow")
    kept = semi_join(pre, node_ids, on=src_col, key_col=id_col,
                     out_schema=triple_schema)
    kept = semi_join(kept, node_ids, on=dst_col, key_col=id_col,
                     out_schema=triple_schema)

    # global distinct, partition-bucketed (stages/bucketing.py)
    return bucketed_first(kept, [src_col, dst_col, label_col])


def enforce_closed_catalogs(nodes, edges, *,
                            node_id_col: str = "node_id",
                            class_col: str = "class",
                            src_col: str = "src", dst_col: str = "dst",
                            label_col: str = "label",
                            marker_col: str = "closed_catalog"):
    """Closed-catalog enforcement: drop reference edges to targets that
    exist ONLY through closed-catalog reference fields.

    A target node is a drop candidate iff it has in-edges and EVERY
    in-edge carries the catalog marker; a target also reached through
    any unmarked edge is independently anchored and keeps everything.
    Per-class guard: when every node of a class is a candidate, the
    canonical catalog was never extracted — dropping would wipe the
    class, so the class is skipped (with an audit record).  Candidates
    lose all their in-edges; candidates left with degree 0 are removed.

    Reference: ``GraphConverter._enforce_closed_catalogs``
    (docling_graph/core/converters/graph_converter.py:431-496); the
    reference's label-scoped ``_closed_catalog`` marker exists only to
    survive networkx attribute-merging of re-added (src, dst) pairs —
    here edge rows are per-triple, so the marker is a plain bool column.

    Ray shape: per-batch (dst, n_in, n_marked) combiners → one small
    groupby; class totals and per-class candidate counts are collected
    driver-side (bounded by the number of CLASSES, not nodes); the
    candidate id set scales with the graph, so edge dropping and node
    removal are dataset-native semi/anti joins — nothing graph-sized
    touches the driver.

    Returns ``(nodes_out, edges_out, audit)`` where ``audit`` is a small
    driver-side dict: ``{"drops_by_label": {...}, "skipped_classes":
    [...], "n_candidates": int}``."""
    from docling_graph_ray.stages.joins import lookup_join, semi_join

    in_schema = pa.schema([
        ("_dst", pa.string()), ("n_in", pa.int64()), ("n_marked", pa.int64()),
    ])

    def in_stats(b: pa.Table) -> pa.Table:
        t = pa.table({
            "_dst": b.column(dst_col).cast(pa.string()),
            "n_in": pa.array([1] * b.num_rows, pa.int64()),
            "n_marked": b.column(marker_col).cast(pa.int64()),
        })
        g = t.group_by("_dst").aggregate([("n_in", "sum"), ("n_marked", "sum")])
        return g.rename_columns(["_dst", "n_in", "n_marked"]).cast(in_schema)

    stats = bucketed_aggregate(
        edges.map_batches(in_stats, batch_format="pyarrow"),
        ["_dst"], [("n_in", "sum"), ("n_marked", "sum")],
        rename=["_dst", "sum(n_in)", "sum(n_marked)"], combine=True,
    )

    cand_schema = pa.schema([("_dst", pa.string())])

    def to_cands(t: pa.Table) -> pa.Table:
        keep = pc.equal(t.column("sum(n_in)"), t.column("sum(n_marked)"))
        return pa.table({"_dst": t.filter(keep).column("_dst")}).cast(cand_schema)

    cands = stats.map_batches(to_cands, batch_format="pyarrow")
    cand_cls = lookup_join(
        cands, nodes, on="_dst", key_col=node_id_col, value_cols=[class_col],
        out_schema=cand_schema,
    )

    # per-class counts: tiny (bounded by #classes), safe driver-side
    totals = {r[class_col]: r["count()"]
              for r in nodes.groupby(class_col).count().take_all()}
    cand_counts: dict = {}
    for r in cand_cls.groupby(class_col).count().take_all():
        cand_counts[r[class_col]] = r["count()"]
    skipped = sorted(
        str(c) for c, n in cand_counts.items()
        if c is not None and n >= totals.get(c, 0)
    )

    if skipped:
        skip_set = set(skipped)

        def drop_guarded(b: pa.Table) -> pa.Table:
            keep = pc.invert(pc.is_in(
                b.column(class_col).cast(pa.string()),
                value_set=pa.array(sorted(skip_set), pa.string()),
            ))
            return pa.table(
                {"_dst": b.filter(pc.fill_null(keep, True)).column("_dst")}
            ).cast(cand_schema)

        final_cands = cand_cls.map_batches(drop_guarded,
                                           batch_format="pyarrow")
    else:
        final_cands = cand_cls.select_columns(["_dst"])
    # one barrier: five consumers below (drop, audit, count, dead-node
    # scan) would each re-execute the stats+lookup pipeline otherwise
    final_cands = final_cands.materialize()

    edges_out = semi_join(edges, final_cands, on=dst_col, key_col="_dst",
                          anti=True)
    dropped = semi_join(edges, final_cands, on=dst_col, key_col="_dst")
    drops_by_label = {
        r[label_col]: r["count()"]
        for r in dropped.groupby(label_col).count().take_all()
    }
    n_candidates = int(final_cands.count())

    # candidates with no surviving edge at all (in-edges are gone by
    # construction; an out-edge in edges_out keeps the node)
    survivors_src = edges_out.select_columns([src_col])
    dead = semi_join(final_cands, survivors_src, on="_dst", key_col=src_col,
                     anti=True)
    nodes_out = semi_join(nodes, dead, on=node_id_col, key_col="_dst",
                          anti=True)

    audit = {
        "drops_by_label": drops_by_label,
        "skipped_classes": skipped,
        "n_candidates": n_candidates,
    }
    return nodes_out, edges_out, audit
