"""Whole-graph merge: the ``docling-graph merge`` CLI flow composed from
the repo's gate / re-key / split / fold primitives.

Mirrors the reference pipeline (docling_graph/core/merge/merger.py:141-972):
load inputs → absorb duplicate inputs by document id → template-compat
gate (schema hashes) → resolve identity source and re-key → split
conflicting collisions (contagious per (doc-pair, class)) → union-fold
nodes and edges with conflict records → stamp metadata → write merged
graph + merge report.  Deterministic and timestamp-free: byte-identical
outputs on re-run, ``merge(A, A) == A`` (merger.py:1-10,68-73).

Scale note: merge inputs are graph.json EXPORTS (the reference merges a
handful of per-document graphs), so this composition is deliberately
driver-side like the reference.  Corpus-scale node folds use the
dataset-native shape instead: ``groupby(node_id).map_groups`` over
mention datasets (``pipelines/graph.py:graph_merge_runs``,
``stages/convert.py:finalize_nodes``).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from docling_graph_ray.functions.merge_gate import (
    check_merge_compatibility,
    rekey_edge_rows,
    rekey_node_rows,
    resolve_id_fields_map,
    split_conflicting_collisions,
)
from docling_graph_ray.functions.merging import fold_records

_DOC_COL = "__doc__"


def merge_graph_dicts(graphs: list[dict], *, strict: bool = True,
                      rekey: bool = True,
                      doc_ids: list[str] | None = None) -> tuple[dict, dict]:
    """Merge canonical graph dicts (``graph.json`` shape) left to
    right.  Returns ``(merged_graph_dict, merge_report)``."""
    if not graphs:
        raise ValueError("no input graphs")
    if doc_ids is None:
        doc_ids = [
            str((g.get("metadata") or {}).get("document_id") or f"input_{i}")
            for i, g in enumerate(graphs)
        ]

    # 1. absorb duplicate inputs by document id (merger.py:175-238)
    seen: dict[str, int] = {}
    kept: list[tuple[str, dict]] = []
    absorbed: list[dict] = []
    for i, (doc, g) in enumerate(zip(doc_ids, graphs)):
        if doc in seen:
            absorbed.append({"document_id": doc, "input_index": i,
                             "kept_index": seen[doc]})
        else:
            seen[doc] = i
            kept.append((doc, g))

    # 2. schema-hash gate
    metadatas = [g.get("metadata") or {} for _, g in kept]
    warnings = check_merge_compatibility(metadatas, strict=strict)

    # 3. identity resolution + re-key (v2-export rung: embedded map)
    rekey_conflicts: list[dict] = []
    prepared: list[tuple[str, list[dict], list[dict]]] = []
    id_map = resolve_id_fields_map(metadatas) if rekey else {}
    for doc, g in kept:
        nodes = [dict(r) for r in g.get("nodes", [])]
        edges = [dict(r) for r in g.get("edges", [])]
        if rekey and id_map:
            nodes, mapping, confs = rekey_node_rows(nodes, id_map)
            edges = rekey_edge_rows(edges, mapping)
            for c in confs:
                rekey_conflicts.append({**c, "document_id": doc})
        prepared.append((doc, nodes, edges))

    # 4. conflicting-collision split over the union (doc-scoped renames)
    union_nodes: list[dict] = []
    for doc, nodes, _ in prepared:
        for r in nodes:
            union_nodes.append({**r, _DOC_COL: doc})
    union_nodes, split_records = split_conflicting_collisions(
        union_nodes, doc_col=_DOC_COL,
        class_col="__class__",
    )
    split_map: dict[tuple[str, str], str] = {
        (rec["document_id"], rec["original_id"]): rec["split_id"]
        for rec in split_records
    }

    # 5. union-fold nodes keep-first in (document, id) order
    by_id: dict[str, list[dict]] = defaultdict(list)
    for r in union_nodes:
        by_id[str(r["node_id"])].append(r)
    folded_nodes: list[dict] = []
    fold_conflicts: list[dict] = []
    for nid in sorted(by_id):
        rows = by_id[nid]           # already in first-seen document order
        recs = [{k: v for k, v in r.items() if k not in ("node_id", _DOC_COL)}
                for r in rows]
        folded, confs = fold_records(recs)
        folded["node_id"] = nid
        folded_nodes.append(folded)
        for c in confs:
            fold_conflicts.append({**c, "node_id": nid})

    # 6. edges: doc-scoped split renames follow the nodes; dedupe triples
    #    keep-first (GraphCleaner composition stays available downstream)
    folded_edges: list[dict] = []
    seen_triples: set[tuple] = set()
    edge_label_conflicts: list[dict] = []
    pair_label: dict[tuple[str, str], str] = {}
    for doc, _, edges in prepared:
        for e in edges:
            e2 = dict(e)
            e2["src"] = split_map.get((doc, str(e2.get("src"))), e2.get("src"))
            e2["dst"] = split_map.get((doc, str(e2.get("dst"))), e2.get("dst"))
            triple = (str(e2.get("src")), str(e2.get("dst")),
                      str(e2.get("label")))
            if triple in seen_triples:
                continue
            seen_triples.add(triple)
            pair = triple[:2]
            prev = pair_label.get(pair)
            if prev is not None and prev != triple[2]:
                edge_label_conflicts.append({
                    "src": triple[0], "dst": triple[1],
                    "labels": sorted([prev, triple[2]]),
                    "document_id": doc,
                })
            else:
                pair_label[pair] = triple[2]
            folded_edges.append(e2)
    folded_edges.sort(key=lambda e: (str(e.get("src")), str(e.get("dst")),
                                     str(e.get("label"))))

    merged_meta = dict(metadatas[0])
    merged_meta["merged_from"] = [doc for doc, _ in kept]
    merged = {
        "nodes": folded_nodes,
        "edges": folded_edges,
        "metadata": merged_meta,
        "graph": dict(graphs[0].get("graph") or {}),
    }
    report = {
        "inputs": len(graphs),
        "absorbed_duplicates": absorbed,
        "warnings": warnings,
        "rekey_conflicts": rekey_conflicts,
        "splits": split_records,
        "fold_conflicts": fold_conflicts,
        "edge_label_conflicts": edge_label_conflicts,
        "n_nodes": len(folded_nodes),
        "n_edges": len(folded_edges),
    }
    return merged, report


def merge_graph_files(paths: list[str], out_path: str, *,
                      strict: bool = True, rekey: bool = True) -> dict:
    """Load graph.json exports, merge, write the merged graph atomically
    plus ``merge_report.json`` next to it.  Returns the report."""
    from docling_graph_ray.stages.exporters import import_graph_json

    graphs: list[dict] = []
    doc_ids: list[str] = []
    for p in paths:
        nodes, edges, meta = import_graph_json(p)
        graphs.append({"nodes": nodes, "edges": edges, "metadata": meta,
                       "graph": {}})
        doc_ids.append(str(meta.get("document_id")
                           or os.path.basename(os.path.dirname(p) or p)
                           or p))
    merged, report = merge_graph_dicts(graphs, strict=strict, rekey=rekey,
                                       doc_ids=doc_ids)
    from docling_graph_ray.stages.exporters import FORMAT_MARKER

    merged["graph"] = {"format": FORMAT_MARKER}
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(merged, f, sort_keys=True, default=str)
    os.replace(tmp, out_path)
    rp = os.path.join(os.path.dirname(out_path) or ".", "merge_report.json")
    tmp = rp + ".tmp"
    with open(tmp, "w") as f:
        json.dump(report, f, sort_keys=True, indent=1, default=str)
    os.replace(tmp, rp)
    return report
