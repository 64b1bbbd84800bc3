"""Knowledge-graph pipelines over the TPC-H-ish test tables.

Each query builds deterministic node/edge MENTION datasets from the
parquet tables (duplicates arise naturally: one customer mention per
order, one part mention per lineitem) and runs the graph operators from
``stages.graph``.  Column names match the DuckDB oracles in
``__ray_entry__`` exactly.

The mention → dedup → enrich → clean → bound flow is the reference's
GraphConversion stage re-expressed over datasets
(docling_graph/pipeline/stages.py:783-869: nodes pass → edges pass →
cleaner → cardinality bounds → stats)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from docling_graph_ray.stages.graph import (
    cardinality_bound,
    clean_edges_dataset,
    content_hash_dedup,
    dedup_nodes,
    graph_stats,
    phantom_filter,
)


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------------------
# node dedup + enrichment (exact identity; first-non-empty-wins)


def graph_nodes_dedup(sf_dir: str):
    """Customer mentions (one per order) → exact dedup by custkey with
    first-wins enrichment: ``priority`` observed only on F-status orders,
    ``big_price_cents`` observed only on >150k orders — later mentions fill what the
    first left empty, never overwrite (graph_converter.py:656-689)."""
    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_totalprice", "o_orderpriority",
         "o_orderstatus"],
    )

    def mentions(batch: pa.Table) -> pa.Table:
        final = pc.equal(batch.column("o_orderstatus"), "F")
        big = pc.greater(batch.column("o_totalprice"), 150_000.0)
        cents = pc.round(
            pc.multiply(batch.column("o_totalprice"), 100.0),
            ndigits=0, round_mode="half_towards_infinity",
        ).cast(pa.int64())
        return pa.table({
            "custkey": batch.column("o_custkey").cast(pa.int64()),
            "mention_order": batch.column("o_orderkey").cast(pa.int64()),
            "priority": pc.if_else(final, batch.column("o_orderpriority"), None),
            "big_price_cents": pc.if_else(big, cents, None),
        })

    nodes = orders.map_batches(mentions, batch_format="pyarrow")
    deduped = dedup_nodes(
        nodes, key_col="custkey", order_col="mention_order",
        attr_cols=["priority", "big_price_cents"],
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "custkey": t.column("custkey").cast(pa.int64()),
            "first_orderkey": t.column("mention_order").cast(pa.int64()),
            "priority": t.column("priority").cast(pa.string()),
            "big_price_cents": t.column("big_price_cents").cast(pa.int64()),
            "n_mentions": t.column("n_mentions").cast(pa.int64()),
        })

    return deduped.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# edge cleanup (triple dedup + orphan semi-join)


def graph_edges_clean(sf_dir: str):
    """Order→Part 'contains' edges from lineitem, cleaned: duplicate
    triples dropped, edges to parts outside the node set (p_size < 15)
    dropped (graph_cleaner.py:319-364).  The node-id set scales with the
    orders table, so it rides the shuffle as a dataset (two anti-tolerant
    semi-joins) instead of a driver-collected broadcast — the round-1
    scale-killer (VERDICT.md What's-wrong #2)."""
    def order_ids(b: pa.Table) -> pa.Table:
        return pa.table({"node_id": pc.binary_join_element_wise(
            pa.array(["O"] * b.num_rows),
            b.column("o_orderkey").cast(pa.string()), "",
        )})

    def part_ids(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("p_size"), 15))
        return pa.table({"node_id": pc.binary_join_element_wise(
            pa.array(["P"] * t.num_rows),
            t.column("p_partkey").cast(pa.string()), "",
        )})

    node_ids = _read(sf_dir, "orders", ["o_orderkey"]).map_batches(
        order_ids, batch_format="pyarrow"
    ).union(
        _read(sf_dir, "part", ["p_partkey", "p_size"]).map_batches(
            part_ids, batch_format="pyarrow"
        )
    )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def to_edges(batch: pa.Table) -> pa.Table:
        src = pc.binary_join_element_wise(
            pa.array(["O"] * batch.num_rows),
            batch.column("l_orderkey").cast(pa.string()), "",
        )
        dst = pc.binary_join_element_wise(
            pa.array(["P"] * batch.num_rows),
            batch.column("l_partkey").cast(pa.string()), "",
        )
        return pa.table({
            "src": src, "dst": dst,
            "label": pa.array(["contains"] * batch.num_rows),
        })

    edges = li.map_batches(to_edges, batch_format="pyarrow")
    return clean_edges_dataset(edges, node_ids)


# ---------------------------------------------------------------------------
# phantom-node removal


def graph_phantom_filter(sf_dir: str):
    """Customer mentions where attrs are conditionally observed; nodes
    with NO meaningful attr are phantoms and dropped
    (graph_cleaner.py:189-271)."""
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_name", "c_acctbal", "c_mktsegment"])

    def mentions(batch: pa.Table) -> pa.Table:
        bld = pc.equal(batch.column("c_mktsegment"), "BUILDING")
        pos = pc.greater(batch.column("c_acctbal"), 0.0)
        cents = pc.round(
            pc.multiply(batch.column("c_acctbal"), 100.0),
            ndigits=0, round_mode="half_towards_infinity",
        ).cast(pa.int64())
        return pa.table({
            "custkey": batch.column("c_custkey").cast(pa.int64()),
            "name": pc.if_else(bld, batch.column("c_name"), None),
            "balance_cents": pc.if_else(pos, cents, None),
        })

    nodes = cust.map_batches(mentions, batch_format="pyarrow")
    return phantom_filter(nodes, ["name", "balance_cents"])


# ---------------------------------------------------------------------------
# cardinality bounds (grouped top-k with audit)


def graph_cardinality_bound(sf_dir: str, max_per_class: int = 3):
    """Per-brand top-K parts by (retailprice desc, partkey asc); the rest
    marked demoted, not dropped (graph_converter.py:360-429)."""
    part = _read(sf_dir, "part", ["p_brand", "p_partkey", "p_retailprice"])
    bounded = cardinality_bound(
        part, class_col="p_brand", max_per_class=max_per_class,
        rank_keys=[("p_retailprice", "descending"), ("p_partkey", "ascending")],
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_brand": t.column("p_brand"),
            "p_partkey": t.column("p_partkey").cast(pa.int64()),
            "p_retailprice_cents": pc.round(
                pc.multiply(t.column("p_retailprice"), 100.0),
                ndigits=0, round_mode="half_towards_infinity",
            ).cast(pa.int64()),
            "rank": t.column("rank").cast(pa.int64()),
            "demoted": t.column("demoted"),
        })

    return bounded.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# graph stats


def graph_stats_query(sf_dir: str):
    """(metric, value) rows: per-class node counts + per-label edge counts
    over a Customer/Supplier → Nation graph (stats_calculator.py:10-76)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def cust_nodes(b: pa.Table) -> pa.Table:
        return pa.table({
            "class": pa.array(["Customer"] * b.num_rows),
            "node_id": b.column("c_custkey").cast(pa.string()),
        })

    def supp_nodes(b: pa.Table) -> pa.Table:
        return pa.table({
            "class": pa.array(["Supplier"] * b.num_rows),
            "node_id": b.column("s_suppkey").cast(pa.string()),
        })

    def cust_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b.column("c_custkey").cast(pa.string()),
            "dst": b.column("c_nationkey").cast(pa.string()),
            "label": pa.array(["cust_nation"] * b.num_rows),
        })

    def supp_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b.column("s_suppkey").cast(pa.string()),
            "dst": b.column("s_nationkey").cast(pa.string()),
            "label": pa.array(["supp_nation"] * b.num_rows),
        })

    nodes = cust.map_batches(cust_nodes, batch_format="pyarrow").union(
        supp.map_batches(supp_nodes, batch_format="pyarrow")
    )
    edges = cust.map_batches(cust_edges, batch_format="pyarrow").union(
        supp.map_batches(supp_edges, batch_format="pyarrow")
    )
    return graph_stats(nodes, edges)


# ---------------------------------------------------------------------------
# deterministic run-merge (rows-only: fold semantics are not SQL-shaped)


def graph_merge_runs(sf_dir: str):
    """Two extraction 'runs' of supplier facts from lineitem (split by
    linenumber parity) merged with the left-associative keep-first fold +
    conflict records (node_folder.py:113-252 semantics; merge(A,A)=A).

    Returns one row per suppkey with the folded attrs and the number of
    recorded conflicts."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_orderkey", "l_linenumber", "l_returnflag",
                "l_linestatus"])

    def mentions(batch: pa.Table) -> pa.Table:
        run = pc.if_else(
            pc.equal(pc.bit_wise_and(batch.column("l_linenumber"), 1), 1),
            "A", "B",
        )
        return pa.table({
            "suppkey": batch.column("l_suppkey").cast(pa.int64()),
            "run": run,
            "order_in_run": batch.column("l_orderkey").cast(pa.int64()),
            "ln": batch.column("l_linenumber").cast(pa.int64()),
            "returnflag": batch.column("l_returnflag"),
            "linestatus": batch.column("l_linestatus"),
        })

    ds = li.map_batches(mentions, batch_format="pyarrow")

    # Partition-bucketed fold (stages/bucketing.py): one vectorized
    # map_groups call per suppkey-hash bucket, never one per supplier.
    # The keep-first fold with conflict records vectorizes because the
    # held value never changes once set: folded = first non-empty value
    # in the deterministic (run, order_in_run, ln) order, and a conflict
    # is every LATER non-empty occurrence that differs from it — exactly
    # fold_records' semantics (functions/merging.py:41), property-tested
    # against it in tests.
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    in_schema = pa.schema([
        ("suppkey", pa.int64()), ("run", pa.string()),
        ("order_in_run", pa.int64()), ("ln", pa.int64()),
        ("returnflag", pa.string()), ("linestatus", pa.string()),
    ])
    out_schema = pa.schema([
        ("suppkey", pa.int64()), ("returnflag", pa.string()),
        ("linestatus", pa.string()), ("n_conflicts", pa.int64()),
        ("n_mentions", pa.int64()),
    ])

    def fold_partition(g: pa.Table) -> pa.Table:
        # deterministic within-key order: run A before run B, then by
        # (order_in_run, ln) — left-associative precedence
        # (merger.py:1-10).  ln breaks (run, order) ties.
        idx = pc.sort_indices(g, sort_keys=[
            ("suppkey", "ascending"), ("run", "ascending"),
            ("order_in_run", "ascending"), ("ln", "ascending"),
        ])
        g = g.take(idx).combine_chunks()
        n = g.num_rows
        starts, lens = run_starts(g, ["suppkey"])
        seg = np.repeat(np.arange(len(starts), dtype=np.int64), lens)
        pos = np.arange(n, dtype=np.int64)
        folded_cols: dict[str, pa.Array] = {}
        n_conflicts = np.zeros(len(starts), dtype=np.int64)
        for field in ("returnflag", "linestatus"):
            col = g.column(field).combine_chunks()
            enc = pc.dictionary_encode(col)
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            codes = pc.fill_null(enc.indices, -1).to_numpy(
                zero_copy_only=False).astype(np.int64)
            empty_codes = {
                i for i, v in enumerate(enc.dictionary.to_pylist())
                if v is None or v == ""
            }
            empty = codes == -1
            for ec in empty_codes:
                empty |= codes == ec
            # first non-empty row index per segment (n = none)
            posv = np.where(empty, n, pos)
            first_idx = np.minimum.reduceat(posv, starts) if n else posv
            f_rows = first_idx[seg]
            held = codes[np.minimum(f_rows, n - 1)]
            conflict = (~empty) & (pos > f_rows) & (f_rows < n) \
                & (codes != held)
            n_conflicts += np.add.reduceat(
                conflict.astype(np.int64), starts)
            valid = first_idx < n
            vals = col.take(pa.array(np.minimum(first_idx, n - 1),
                                     pa.int64()))
            folded_cols[field] = pc.if_else(
                pa.array(valid), vals, pa.scalar(None, col.type))
        return pa.table({
            "suppkey": g.column("suppkey").take(
                pa.array(starts, pa.int64())),
            "returnflag": folded_cols["returnflag"],
            "linestatus": folded_cols["linestatus"],
            "n_conflicts": pa.array(n_conflicts, pa.int64()),
            "n_mentions": pa.array(lens, pa.int64()),
        }).cast(out_schema)

    return bucketed_map(ds, ["suppkey"], fold_partition, schema=in_schema)


# ---------------------------------------------------------------------------
# content-hash dedup with edge redirect (rows-only)


_CUST_NODE_SCHEMA = pa.schema([("node_id", pa.string()),
                               ("nationkey", pa.int64()),
                               ("segment", pa.string())])
_CUST_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                               ("label", pa.string())])


def graph_content_dedup(sf_dir: str):
    """Customer nodes collapsed by content hash of (nationkey, segment);
    customer→nation edges redirected to the surviving node
    (graph_cleaner.py:273-317,366-391).  Returns the redirected, cleaned
    edge set (one row per surviving (src, dst, label))."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_mktsegment"])

    def to_nodes(b: pa.Table) -> pa.Table:
        return pa.table({
            "node_id": pc.binary_join_element_wise(
                pa.array(["C"] * b.num_rows),
                b.column("c_custkey").cast(pa.string()), "",
            ),
            "nationkey": b.column("c_nationkey").cast(pa.int64()),
            "segment": b.column("c_mktsegment"),
        }, schema=_CUST_NODE_SCHEMA)

    def to_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.binary_join_element_wise(
                pa.array(["C"] * b.num_rows),
                b.column("c_custkey").cast(pa.string()), "",
            ),
            "dst": pc.binary_join_element_wise(
                pa.array(["N"] * b.num_rows),
                b.column("c_nationkey").cast(pa.string()), "",
            ),
            "label": pa.array(["in_nation"] * b.num_rows),
        }, schema=_CUST_EDGE_SCHEMA)

    nodes = cust.map_batches(to_nodes, batch_format="pyarrow")
    edges = cust.map_batches(to_edges, batch_format="pyarrow")
    # the schemas are known here: no ``Dataset.schema()`` job on the lazy
    # read → map plans (see ``content_hash_dedup``)
    nodes_out, edges_out, _ = content_hash_dedup(
        nodes, edges, key_col="node_id", attr_cols=["nationkey", "segment"],
        node_schema=_CUST_NODE_SCHEMA, edge_schema=_CUST_EDGE_SCHEMA,
    )

    def distinct(b: pa.Table) -> pa.Table:
        return b.group_by(["src", "dst", "label"]).aggregate([])

    # partition-bucketed distinct (stages/bucketing.py) — one vectorized
    # map_groups call per hash bucket, never one per distinct triple
    from docling_graph_ray.stages.bucketing import bucketed_first

    return bucketed_first(
        edges_out.map_batches(distinct, batch_format="pyarrow"),
        ["src", "dst", "label"], out_schema=_CUST_EDGE_SCHEMA,
    )


# ---------------------------------------------------------------------------
# extraction-quality evaluation (strict rung, SQL-checkable)


def graph_eval_strict(sf_dir: str):
    """Distributed graph-vs-truth evaluation over a deterministic pair of
    graphs derived from TPC-H: truth = customers with positive balance
    (+ PLACED edges for >150k orders); extracted = customers that placed
    any order (+ PLACED edges for final-status >100k orders).  Documents
    are custkey mod 8.  Emits the evaluator's integer count rows
    ``(doc_id, section, rung, cls, tp, fp, fn)``.

    Identity keys are pure digit strings, so the relaxed rung's
    digit-signature guard blocks every non-strict pair and
    relaxed == strict by construction — which makes BOTH rungs exactly
    SQL-expressible (full outer join per doc).  The fuzzy rungs are
    covered by hand-computed pytest cases instead
    (tests/test_evaluate.py).

    Reference: docs/examples/scripts/16_extraction_evaluation.py
    (strict node matching :415-417, edge keys via identity :491-514,
    per-class prf :465-489)."""
    from docling_graph_ray.stages.evaluate import evaluate_graphs, tag_graph

    customer = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus"],
    )

    def doc_of(custkey: pa.ChunkedArray | pa.Array) -> pa.Array:
        return pc.bit_wise_and(custkey.cast(pa.int64()), 7).cast(pa.string())

    def token(cls: str, key) -> pa.Array:
        n = len(key)
        return pc.binary_join_element_wise(
            pa.array([cls] * n), key.cast(pa.string()), "\x1f"
        )

    def gt_nodes(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b.column("c_acctbal"), 0.0))
        return pa.table({
            "doc_id": doc_of(t.column("c_custkey")),
            "class": pa.array(["Customer"] * t.num_rows),
            "key": t.column("c_custkey").cast(pa.string()),
        })

    def got_nodes(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": doc_of(b.column("o_custkey")),
            "class": pa.array(["Customer"] * b.num_rows),
            "key": b.column("o_custkey").cast(pa.string()),
        })

    def edges_of(pred):
        def fn(b: pa.Table) -> pa.Table:
            t = b.filter(pred(b))
            return pa.table({
                "doc_id": doc_of(t.column("o_custkey")),
                "label": pa.array(["PLACED"] * t.num_rows),
                "src": token("Customer", t.column("o_custkey")),
                "dst": token("Order", t.column("o_orderkey")),
            })
        return fn

    gt_edge_pred = lambda b: pc.greater(b.column("o_totalprice"), 150_000.0)
    got_edge_pred = lambda b: pc.and_(
        pc.equal(b.column("o_orderstatus"), "F"),
        pc.greater(b.column("o_totalprice"), 100_000.0),
    )

    tagged = tag_graph(
        customer.map_batches(gt_nodes, batch_format="pyarrow"),
        orders.map_batches(edges_of(gt_edge_pred), batch_format="pyarrow"),
        side="gt",
    ).union(
        tag_graph(
            orders.map_batches(got_nodes, batch_format="pyarrow"),
            orders.map_batches(edges_of(got_edge_pred), batch_format="pyarrow"),
            side="got",
        )
    )
    return evaluate_graphs(tagged, structural="off")


def root_identity_repair(sf_dir: str):
    """Root-identity repair ladder over synthetic root records derived
    from part: ``part_ref`` is built to exercise every branch
    (class-name echo / mislabeled numeric-named prose / empty → stem
    fallback / kept), with the document stem ``doc_<partkey>``.  Emits
    the repaired id plus the audit column.  SQL oracle mirrors the
    rules as CASE expressions (reference: root_identity.py:42-100,
    orchestrator.py:147-183)."""
    from docling_graph_ray.functions.root_identity import (
        repair_root_identity_batch,
    )

    part = _read(sf_dir, "part", ["p_partkey", "p_name"])

    def build(b: pa.Table) -> pa.Table:
        keys = b.column("p_partkey").to_pylist()
        names = b.column("p_name").to_pylist()
        refs = []
        for k, name in zip(keys, names):
            m = k % 5
            if m == 0:
                refs.append("Part")           # class-name echo
            elif m == 1:
                refs.append(name)             # prose in a *_ref field
            elif m == 2:
                refs.append("")               # empty -> stem fallback
            else:
                refs.append(f"P-{k}")         # legitimate id, kept
        return pa.table({
            "partkey": pa.array(keys, pa.int64()),
            "part_ref": pa.array(refs, pa.string()),
            "stem": pa.array([f"doc_{k}" for k in keys], pa.string()),
        })

    def repair(b: pa.Table) -> pa.Table:
        out = repair_root_identity_batch(
            b, class_name="Part", id_cols=["part_ref"], stem_col="stem",
        )
        return out.select(["partkey", "part_ref", "root_repairs"])

    return (
        part.map_batches(build, batch_format="pyarrow")
        .map_batches(repair, batch_format="pyarrow")
    )


def graph_closed_catalog(sf_dir: str):
    """Closed-catalog enforcement over an order→part reference graph:
    part nodes classed by brand; lineitem 'CONTAINS' edges marked
    closed-catalog when l_quantity <= 48 (so a part is a drop candidate
    iff EVERY mention is a small-quantity reference).  Emits the
    surviving edge triples (stages.graph.enforce_closed_catalogs —
    graph_converter.py:431-496 semantics, dataset-native joins)."""
    from docling_graph_ray.stages.graph import enforce_closed_catalogs

    parts = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def to_nodes(b: pa.Table) -> pa.Table:
        return pa.table({
            "node_id": b.column("p_partkey").cast(pa.int64()),
            "class": b.column("p_brand").cast(pa.string()),
        })

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_quantity"])

    def to_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b.column("l_orderkey").cast(pa.int64()),
            "dst": b.column("l_partkey").cast(pa.int64()),
            "label": pa.array(["CONTAINS"] * b.num_rows, pa.string()),
            "closed_catalog": pc.less_equal(
                b.column("l_quantity"), 48.0
            ).cast(pa.bool_()),
        })

    nodes = parts.map_batches(to_nodes, batch_format="pyarrow")
    edges = li.map_batches(to_edges, batch_format="pyarrow")
    _, edges_out, _ = enforce_closed_catalogs(nodes, edges)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b.column("src").cast(pa.int64()),
            "dst": b.column("dst").cast(pa.int64()),
            "label": b.column("label").cast(pa.string()),
        })

    return edges_out.map_batches(project, batch_format="pyarrow")


_CONVERT_SPEC = {
    "name": "orders", "docstring": "", "root": "Order", "enums": [],
    "models": [
        {"name": "Order", "kind": "root", "identity": ["order_id"],
         "docstring": "", "fields": [
             {"name": "order_id", "type": "int", "is_list": False,
              "optional": False, "role": "identity",
              "edge_label": None, "reference": False},
             {"name": "priority", "type": "str", "is_list": False,
              "optional": True, "role": "property",
              "edge_label": None, "reference": False},
             {"name": "meta", "type": "Meta", "is_list": False,
              "optional": True, "role": "property",
              "edge_label": None, "reference": False},
             {"name": "customer", "type": "Customer", "is_list": False,
              "optional": True, "role": "edge",
              "edge_label": "PLACED_BY", "reference": True}]},
        {"name": "Meta", "kind": "component", "identity": [],
         "docstring": "", "fields": [
             {"name": "status", "type": "str", "is_list": False,
              "optional": True, "role": "property",
              "edge_label": None, "reference": False},
             {"name": "price_cents", "type": "int", "is_list": False,
              "optional": True, "role": "property",
              "edge_label": None, "reference": False}]},
        {"name": "Customer", "kind": "entity", "identity": ["cust_id"],
         "docstring": "", "fields": [
             {"name": "cust_id", "type": "int", "is_list": False,
              "optional": False, "role": "identity",
              "edge_label": None, "reference": False}]},
    ],
}


def graph_records_convert(sf_dir: str):
    """Marker-driven records→graph conversion round-trip: each order row
    becomes a nested record (Meta component embedded, Customer entity
    linked by a PLACED_BY reference edge), converted with
    ``stages.convert.records_to_graph`` and re-assembled from the GRAPH
    side — order attrs from the folded node rows, the customer key
    recovered by joining the edge's dst back to the Customer node's
    identity.  Output equality with the source table proves the walk,
    the component embedding, the deterministic ids and the edge pass
    (graph_converter.py:498-820 semantics)."""
    import json

    from docling_graph_ray.stages.convert import (
        finalize_nodes, records_to_graph, split_graph,
    )
    from docling_graph_ray.stages.joins import lookup_join

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderpriority", "o_orderstatus",
         "o_totalprice"],
    )

    def to_records(b: pa.Table) -> pa.Table:
        cents = pc.round(
            pc.multiply(b.column("o_totalprice"), 100.0),
            ndigits=0, round_mode="half_towards_infinity",
        ).cast(pa.int64()).to_pylist()
        keys = b.column("o_orderkey").to_pylist()
        prios = b.column("o_orderpriority").to_pylist()
        stats = b.column("o_orderstatus").to_pylist()
        custs = b.column("o_custkey").to_pylist()
        recs = [
            json.dumps({
                "order_id": int(k), "priority": p,
                "meta": {"status": s, "price_cents": int(c)},
                "customer": {"cust_id": int(cu)},
            })
            for k, p, s, c, cu in zip(keys, prios, stats, cents, custs)
        ]
        return pa.table({
            "doc_key": pa.array([str(k) for k in keys], pa.string()),
            "record": pa.array(recs, pa.large_string()),
        })

    records = orders.map_batches(to_records, batch_format="pyarrow")
    mentions, edges = split_graph(records_to_graph(records, _CONVERT_SPEC))
    nodes = finalize_nodes(mentions)

    order_schema = pa.schema([
        ("node_id", pa.string()), ("order_id", pa.int64()),
        ("priority", pa.string()), ("meta_status", pa.string()),
        ("meta_price_cents", pa.int64()),
    ])

    def order_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "class" not in b.schema.names:
            return order_schema.empty_table()
        o = b.filter(pc.equal(b.column("class"), "Order"))
        rows = []
        for nid, a in zip(o.column("node_id").to_pylist(),
                          o.column("attrs").to_pylist()):
            attrs = json.loads(a)
            rows.append({
                "node_id": nid, "order_id": attrs["order_id"],
                "priority": attrs["priority"],
                "meta_status": attrs["meta"]["status"],
                "meta_price_cents": attrs["meta"]["price_cents"],
            })
        return pa.Table.from_pylist(rows, schema=order_schema)

    cust_schema = pa.schema([("node_id", pa.string()), ("cust_id", pa.int64())])

    def cust_rows(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "class" not in b.schema.names:
            return cust_schema.empty_table()
        c = b.filter(pc.equal(b.column("class"), "Customer"))
        rows = [
            {"node_id": nid, "cust_id": json.loads(a)["cust_id"]}
            for nid, a in zip(c.column("node_id").to_pylist(),
                              c.column("attrs").to_pylist())
        ]
        return pa.Table.from_pylist(rows, schema=cust_schema)

    orders_side = nodes.map_batches(order_rows, batch_format="pyarrow")
    custs_side = nodes.map_batches(cust_rows, batch_format="pyarrow")

    edge_cust = lookup_join(
        edges.map_batches(
            lambda b: (pa.table({
                "src": b.column("src"), "dst": b.column("dst"),
            }) if b.num_rows and "src" in b.schema.names
               else pa.schema([("src", pa.string()),
                               ("dst", pa.string())]).empty_table()),
            batch_format="pyarrow"),
        custs_side, on="dst", key_col="node_id", value_cols=["cust_id"],
    )
    joined = lookup_join(
        orders_side, edge_cust, on="node_id", key_col="src",
        value_cols=["cust_id"],
    )

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "order_id": b.column("order_id").cast(pa.int64()),
            "priority": b.column("priority").cast(pa.string()),
            "meta_status": b.column("meta_status").cast(pa.string()),
            "meta_price_cents": b.column("meta_price_cents").cast(pa.int64()),
            "placed_by_cust": b.column("cust_id").cast(pa.int64()),
        })

    return joined.map_batches(project, batch_format="pyarrow")


def graph_connected_components(sf_dir: str):
    """Connected components over per-customer order chains: orders of
    one customer link consecutively (sorted by orderkey; single-order
    customers get a self-edge), so each component must converge to the
    customer's minimum orderkey — an exactly verifiable fixpoint for
    the iterative min-label + pointer-jump operator
    (stages/graphalgo.py:connected_components)."""
    from docling_graph_ray.stages.graphalgo import connected_components

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    # Partition-bucketed chain builder (stages/bucketing.py): one
    # vectorized map_groups call per custkey-hash bucket, never one per
    # customer.  Within a bucket the (custkey, orderkey) sort makes
    # consecutive-pair edges a single shifted-compare; single-order
    # customers get a self-edge.
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    in_schema = pa.schema([("o_orderkey", pa.int64()),
                           ("o_custkey", pa.int64())])

    def chain_partition(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("o_custkey", "ascending"), ("o_orderkey", "ascending")])
        g = g.take(idx).combine_chunks()
        keys = g.column("o_orderkey").to_numpy(zero_copy_only=False)
        cust = g.column("o_custkey").to_numpy(zero_copy_only=False)
        same = cust[:-1] == cust[1:]
        starts, lens = run_starts(g, ["o_custkey"])
        singles = starts[lens == 1]
        src = np.r_[keys[:-1][same], keys[singles]]
        dst = np.r_[keys[1:][same], keys[singles]]
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    edges = bucketed_map(orders, ["o_custkey"], chain_partition,
                         schema=in_schema)
    return connected_components(edges, label_blocks=8)


def graph_pagerank(sf_dir: str, iters: int = 5):
    """PageRank over the supplier→nation→region hierarchy (suppliers
    endorse their nation, nations their region; regions are dangling).
    Oracle: the five float64 power iterations unrolled as DuckDB CTE
    stages (identical per-op arithmetic incl. the 1-sent dangling
    redistribution; 8-digit rounding absorbs sum-order drift); pytest
    additionally compares the operator against a dense numpy reference.
    Node ids: suppkey | 10^6 + nationkey | 2*10^6 + regionkey."""
    from docling_graph_ray.stages.graphalgo import pagerank

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"])

    def sup_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b.column("s_suppkey").cast(pa.int64()),
            "dst": pc.add(b.column("s_nationkey").cast(pa.int64()),
                          pa.scalar(1_000_000, pa.int64())),
        })

    def nat_edges(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.add(b.column("n_nationkey").cast(pa.int64()),
                          pa.scalar(1_000_000, pa.int64())),
            "dst": pc.add(b.column("n_regionkey").cast(pa.int64()),
                          pa.scalar(2_000_000, pa.int64())),
        })

    edges = sup.map_batches(sup_edges, batch_format="pyarrow").union(
        nat.map_batches(nat_edges, batch_format="pyarrow")
    )
    # ndigits=8 (not the default 10): the DuckDB oracle recomputes the
    # same five float64 power iterations but with different summation
    # order; 8 digits absorbs the ~1e-15 sum-order drift on both sides
    return pagerank(edges, iters=iters, ndigits=8)
