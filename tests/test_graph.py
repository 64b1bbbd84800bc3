"""Graph operators: dedup+enrich, edge cleanup, phantom filter,
cardinality bounds, content-hash dedup + redirect, stats, graph.json."""

import json

import numpy as np
import pyarrow as pa
import pytest

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


def _nodes_ds(rows):
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def test_dedup_nodes_first_wins_enrichment(ray_session):
    rows = [
        {"nid": "a", "ord": 2, "x": None, "y": "late-y"},
        {"nid": "a", "ord": 1, "x": "first-x", "y": None},
        {"nid": "a", "ord": 3, "x": "clobber", "y": "clobber"},
        {"nid": "b", "ord": 1, "x": None, "y": None},
    ]
    out = dedup_nodes(
        _nodes_ds(rows), key_col="nid", order_col="ord", attr_cols=["x", "y"]
    ).to_pandas().set_index("nid").sort_index()
    # first row (ord=1) wins x; its empty y filled by ord=2's y; ord=3 never overwrites
    assert out.loc["a", "x"] == "first-x"
    assert out.loc["a", "y"] == "late-y"
    assert out.loc["a", "n_mentions"] == 3
    assert out.loc["b", "n_mentions"] == 1


def test_clean_edges_selfloop_orphan_dup(ray_session):
    edges = _nodes_ds([
        {"src": "a", "dst": "b", "label": "l"},
        {"src": "a", "dst": "b", "label": "l"},   # duplicate triple
        {"src": "a", "dst": "a", "label": "l"},   # self-loop
        {"src": "a", "dst": "z", "label": "l"},   # orphan dst
        {"src": "b", "dst": "a", "label": "m"},
    ])
    ids = _nodes_ds([{"node_id": "a"}, {"node_id": "b"}])
    out = clean_edges_dataset(edges, ids).to_pandas()
    triples = sorted(map(tuple, out[["src", "dst", "label"]].values.tolist()))
    assert triples == [("a", "b", "l"), ("b", "a", "m")]


def test_phantom_filter(ray_session):
    nodes = _nodes_ds([
        {"nid": 1, "a": None, "b": ""},      # phantom
        {"nid": 2, "a": "x", "b": None},
        {"nid": 3, "a": None, "b": "y"},
    ])
    out = phantom_filter(nodes, ["a", "b"]).to_pandas()
    assert sorted(out["nid"].tolist()) == [2, 3]


def test_cardinality_bound_rank_and_audit(ray_session):
    nodes = _nodes_ds([
        {"cls": "C", "nid": i, "score": float(10 - i)} for i in range(5)
    ])
    out = cardinality_bound(
        nodes, class_col="cls", max_per_class=2,
        rank_keys=[("score", "descending"), ("nid", "ascending")],
    ).to_pandas()
    surv = out[~out["demoted"]].sort_values("rank")
    assert surv["nid"].tolist() == [0, 1]
    assert surv["rank"].tolist() == [1, 2]
    dem = out[out["demoted"]]
    assert sorted(dem["nid"].tolist()) == [2, 3, 4]
    assert dem["rank"].isna().all()  # demoted carry no exact global rank
    assert out.shape[0] == 5  # audit preserved, nothing dropped


def test_cardinality_bound_hot_class_across_blocks(ray_session):
    """A hot class spanning many blocks still gets exact global top-K:
    the per-block partial top-K union must contain the global winners,
    the boundary-tuple scan must flag exactly the rest, and small
    classes (size <= K) must survive whole."""
    rng = np.random.default_rng(7)
    n = 20_000
    scores = rng.permutation(n).astype(float)
    t = pa.table({
        "cls": pa.array(["hot"] * n + ["cold"] * 2),
        "nid": pa.array(list(range(n)) + [n, n + 1], pa.int64()),
        "score": pa.array(list(scores) + [5.0, 3.0]),
    })
    ds = ray.data.from_arrow(t).repartition(37)
    out = cardinality_bound(
        ds, class_col="cls", max_per_class=3,
        rank_keys=[("score", "descending"), ("nid", "ascending")],
    ).to_pandas()
    assert len(out) == n + 2
    hot = out[(out["cls"] == "hot") & ~out["demoted"]].sort_values("rank")
    want = sorted(range(n), key=lambda i: -scores[i])[:3]
    assert hot["nid"].tolist() == want
    assert hot["rank"].tolist() == [1, 2, 3]
    assert int(out[(out["cls"] == "hot") & out["demoted"]].shape[0]) == n - 3
    cold = out[out["cls"] == "cold"]
    assert (~cold["demoted"]).all() and sorted(
        cold["rank"].tolist()) == [1, 2]


def test_cardinality_bound_rejects_boundary_tie(ray_session):
    """rank_keys that are NOT a total order (duplicate tuple crossing
    the rank-K boundary) must raise, not silently drop the tied row
    (ADVICE r4: the demoted pass excludes eq rows, so a boundary twin
    would land in neither output half)."""
    nodes = _nodes_ds([
        {"cls": "C", "nid": 1, "score": 9.0},
        {"cls": "C", "nid": 2, "score": 5.0},   # rank-2 boundary ...
        {"cls": "C", "nid": 3, "score": 5.0},   # ... duplicated
        {"cls": "C", "nid": 4, "score": 1.0},
    ])
    with pytest.raises(ValueError, match="not a total order"):
        cardinality_bound(
            nodes, class_col="cls", max_per_class=2,
            rank_keys=[("score", "descending")],
        ).to_pandas()
    # the same data with a unique tiebreaker is fine and exact
    out = cardinality_bound(
        nodes, class_col="cls", max_per_class=2,
        rank_keys=[("score", "descending"), ("nid", "ascending")],
    ).to_pandas()
    assert len(out) == 4
    assert sorted(out[~out["demoted"]]["nid"].tolist()) == [1, 2]


def test_cardinality_bound_rejects_null_rank_key(ray_session):
    nodes = _nodes_ds([
        {"cls": "C", "nid": 1, "score": 9.0},
        {"cls": "C", "nid": 2, "score": None},
    ])
    with pytest.raises(Exception, match="null"):
        cardinality_bound(
            nodes, class_col="cls", max_per_class=1,
            rank_keys=[("score", "descending"), ("nid", "ascending")],
        ).to_pandas()


def test_content_hash_dedup_redirects_edges(ray_session):
    nodes = _nodes_ds([
        {"node_id": "n1", "p": "same", "q": 1},
        {"node_id": "n2", "p": "same", "q": 1},   # content dup of n1
        {"node_id": "n3", "p": "other", "q": 2},
    ])
    edges = _nodes_ds([
        {"src": "n2", "dst": "n3", "label": "l"},
        {"src": "n3", "dst": "n1", "label": "l"},
    ])
    nodes_out, edges_out, _ = content_hash_dedup(
        nodes, edges, key_col="node_id", attr_cols=["p", "q"]
    )
    n = nodes_out.to_pandas()
    assert sorted(n["node_id"]) == ["n1", "n3"]
    e = edges_out.to_pandas()
    assert sorted(map(tuple, e[["src", "dst"]].values.tolist())) == [
        ("n1", "n3"), ("n3", "n1")
    ]


def test_graph_content_dedup_runs_no_schema_job(ray_session, tmp_path,
                                                schema_jobs):
    """``graph_content_dedup`` hands ``content_hash_dedup`` the edge
    schema it builds, and the node hashing and the distinct take their
    types from their rows, so no ``Dataset.schema()`` runs (and cancels)
    a job on the lazy read → map plans; each customer's edge goes to the
    least node id of its (nation, segment) content."""
    import pyarrow.parquet as pq

    from docling_graph_ray.pipelines.graph import graph_content_dedup

    custs = [(1, 3, "AUTO"), (2, 3, "AUTO"), (3, 4, "AUTO"), (10, 3, "AUTO"),
             (11, 4, "BUILDING"), (12, 4, "BUILDING"), (13, 5, "MACHINERY")]
    pq.write_table(pa.table({
        "c_custkey": pa.array([c[0] for c in custs], pa.int64()),
        "c_nationkey": pa.array([c[1] for c in custs], pa.int32()),
        "c_mktsegment": [c[2] for c in custs],
    }), tmp_path / "customer.parquet")
    got = {(r["src"], r["dst"], r["label"])
           for r in graph_content_dedup(str(tmp_path)).take_all()}
    assert schema_jobs == []
    canon = {}
    for key, nation, segment in custs:
        canon.setdefault((nation, segment), []).append(f"C{key}")
    assert got == {(min(canon[n, s]), f"N{n}", "in_nation")
                   for _, n, s in custs}
    assert len(got) == 4


def test_graph_stats(ray_session):
    nodes = _nodes_ds([
        {"class": "A", "node_id": "1"},
        {"class": "A", "node_id": "2"},
        {"class": "B", "node_id": "3"},
    ])
    edges = _nodes_ds([
        {"src": "1", "dst": "3", "label": "x"},
        {"src": "2", "dst": "3", "label": "x"},
    ])
    out = graph_stats(nodes, edges).to_pandas().set_index("metric")["value"]
    assert out["nodes:A"] == 2
    assert out["nodes:B"] == 1
    assert out["edges:x"] == 2


def test_exporters_roundtrip(tmp_path):
    from docling_graph_ray.stages.exporters import (
        FORMAT_MARKER,
        import_graph_json,
    )

    p = tmp_path / "graph.json"
    nodes = [{"node_id": "a", "attrs": {"k": 2}}]
    edges = [{"src": "a", "dst": "b", "label": "l"}]
    p.write_text(json.dumps({"nodes": nodes, "edges": edges,
                             "metadata": {"run": "t"},
                             "graph": {"format": FORMAT_MARKER}}))
    assert import_graph_json(str(p)) == (nodes, edges, {"run": "t"})
    p.write_text(json.dumps({"nodes": nodes, "edges": edges, "graph": {}}))
    with pytest.raises(ValueError, match="not a"):
        import_graph_json(str(p))


def test_fold_merge_idempotent(ray_session):
    from docling_graph_ray.functions.merging import fold_records

    a = {"k": "v", "x": "1"}
    folded, conflicts = fold_records([a, dict(a)])
    assert folded == a and conflicts == []
    folded2, conflicts2 = fold_records([a, {"k": "other", "x": ""}],
                                       conflict_fields=["k"])
    assert folded2 == a
    assert conflicts2 == [
        {"field": "k", "kept": "v", "dropped": "other", "source_index": 1}
    ]


def test_span_geometry_slots(ray_session):
    """PDF spans carry page_no/bbox; HTML spans have them null."""
    import pyarrow as pa_

    from docling_graph_ray.fixtures.pages import pages_dataset
    from docling_graph_ray.pipelines.extract import extract_pages_dataset

    ex = extract_pages_dataset(pages_dataset(120, profile="t1"),
                               num_partitions=4).to_pandas()
    pdf = ex[ex["parse_status"].isin(["ok", "salvaged"]) &
             (ex["spans"].map(
                 lambda s: len(s) > 0 and s[0]["kind"].startswith("pdf")))]
    html = ex[ex["spans"].map(
        lambda s: len(s) > 0 and not s[0]["kind"].startswith("pdf"))]
    assert len(pdf) > 0 and len(html) > 0
    # real geometry: every pdf span carries a page_no and a 4-int bbox
    for s in pdf["spans"]:
        for sp in s:
            assert sp["page_no"] is not None and sp["page_no"] >= 0
            assert sp["bbox"] is not None and len(list(sp["bbox"])) == 4
    assert all(sp["page_no"] is None and sp["bbox"] is None
               for s in html["spans"] for sp in list(s)[:2])


# ---------------------------------------------------------------------------
# closed-catalog enforcement (graph_converter.py:431-496 parity)


def test_enforce_closed_catalogs(ray_session):
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.graph import enforce_closed_catalogs

    nodes = ray.data.from_arrow(pa.table({
        "node_id": ["a", "b", "cat1", "cat2", "cat3", "g1", "g2"],
        "class": ["Doc", "Doc", "Cat", "Cat", "Cat", "Ghost", "Ghost"],
    }))
    # cat1: all in-edges marked -> candidate, drops (and node removed:
    #   no out-edges). cat2: one unmarked in-edge -> anchored, kept.
    # cat3: marked-only BUT has an out-edge -> edges dropped, node kept.
    # Ghost class: every member candidate -> guard skips the class.
    edges = ray.data.from_arrow(pa.table({
        "src": ["a", "b", "a", "b", "a", "cat3", "a", "b"],
        "dst": ["cat1", "cat1", "cat2", "cat2", "cat3", "b", "g1", "g2"],
        "label": ["REF"] * 8,
        "closed_catalog": [True, True, True, False, True, False, True, True],
    }))

    nodes_out, edges_out, audit = enforce_closed_catalogs(nodes, edges)
    kept_edges = sorted((r["src"], r["dst"]) for r in edges_out.take_all())
    assert kept_edges == sorted([
        ("a", "cat2"), ("b", "cat2"), ("cat3", "b"),
        ("a", "g1"), ("b", "g2"),
    ])
    kept_nodes = sorted(r["node_id"] for r in nodes_out.take_all())
    assert kept_nodes == ["a", "b", "cat2", "cat3", "g1", "g2"]
    assert audit["skipped_classes"] == ["Ghost"]
    assert audit["drops_by_label"] == {"REF": 3}
    assert audit["n_candidates"] == 2
