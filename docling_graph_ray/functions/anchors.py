"""Verbatim anchor scanning: bind extracted values back to source text.

The reference upgrades provenance anchors to ``verbatim`` by scanning
final extracted values against the chunk texts they came from, recording
char spans; values that cannot be found stay ``derived``
(docling_graph/core/provenance/anchor_scan.py:55-134; anchor kinds
observed/verbatim/derived/reconciled in provenance/models.py:157-243).

Ray shape: a per-batch string scan over chunk rows with the value list
per document broadcast alongside (values-per-doc is small; the scan is
``str.find`` per (chunk, value) pair within one document — never a
cross-document product)."""

from __future__ import annotations

import pyarrow as pa

ANCHOR_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("value_id", pa.int32()),
        ("chunk_id", pa.int32()),
        ("kind", pa.string()),       # verbatim | verbatim_ci | derived
        ("start", pa.int64()),       # -1 when derived
        ("end", pa.int64()),
    ]
)


def scan_values(chunk_text: str, values: list[str]) -> list[dict]:
    """One chunk × its document's values → anchor fragments.

    Exact match first; casefolded fallback is recorded as
    ``verbatim_ci`` (the reference's case-tolerant rung)."""
    out = []
    lowered = None
    for vid, val in enumerate(values):
        if not val:
            continue
        pos = chunk_text.find(val)
        if pos >= 0:
            out.append({"value_id": vid, "kind": "verbatim",
                        "start": pos, "end": pos + len(val)})
            continue
        if lowered is None:
            lowered = chunk_text.casefold()
        pos = lowered.find(val.casefold())
        if pos >= 0:
            out.append({"value_id": vid, "kind": "verbatim_ci",
                        "start": pos, "end": pos + len(val)})
    return out


def anchor_scan_batch(values_by_url: dict[str, list[str]],
                      url_col: str = "url",
                      chunk_id_col: str = "chunk_id",
                      text_col: str = "chunk_text"):
    """``map_batches`` UDF factory over CHUNK rows: emits one anchor row
    per (value, chunk) hit, and nothing for a value no chunk matched."""

    def fn(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        cids = batch.column(chunk_id_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        rows = []
        for url, cid, text in zip(urls, cids, texts):
            vals = values_by_url.get(url)
            if not vals:
                continue
            for hit in scan_values(text or "", vals):
                rows.append({"url": url, "chunk_id": int(cid), **hit})
        return pa.Table.from_pylist(rows, schema=ANCHOR_SCHEMA)

    return fn


NODE_PROVENANCE_SCHEMA = pa.schema(
    [
        ("node_id", pa.string()),
        ("url", pa.string()),
        ("value", pa.string()),
        ("chunk_id", pa.int32()),
        ("kind", pa.string()),       # verbatim | verbatim_ci | derived
        ("start", pa.int64()),
        ("end", pa.int64()),
    ]
)


def bind_node_provenance(nodes, chunks, *,
                         node_id_col: str = "node_id",
                         url_col: str = "url",
                         value_col: str = "id_value",
                         chunk_id_col: str = "chunk_id",
                         text_col: str = "chunk_text"):
    """Per-node provenance binding: each graph node's identity values are
    scanned against ITS document's chunk texts, emitting one anchor row
    per (node, value, matching chunk) — plus a ``derived`` row when no
    chunk matches, so every node value has at least one anchor (the
    ledger completeness invariant).

    Reference: ``bind_provenance`` looks up NodeProvenance by identity
    key and upgrades anchors to verbatim by scanning final id values
    against chunk texts (docling_graph/core/provenance/binder.py:172-360
    + anchor_scan.py:55-134).  Ray shape: a per-document co-group —
    node-value rows and chunk rows union on one schema and groupby(url);
    the scan is chunk×value string search WITHIN one document, never a
    cross-document product.  Both sides ride the shuffle; nothing is
    collected on the driver.

    ``nodes``: rows ``(node_id, url, id_value)`` (one per identity
    value); ``chunks``: rows ``(url, chunk_id, chunk_text)``."""
    def node_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "_key": b.column(url_col).cast(pa.string()),
            "node_id": b.column(node_id_col).cast(pa.string()),
            "value": b.column(value_col).cast(pa.string()),
            "chunk_id": pa.nulls(n, pa.int32()),
            "text": pa.nulls(n, pa.large_string()),
            "_is_chunk": pa.array([False] * n, pa.bool_()),
        })

    def chunk_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table({
            "_key": b.column(url_col).cast(pa.string()),
            "node_id": pa.nulls(n, pa.string()),
            "value": pa.nulls(n, pa.string()),
            "chunk_id": b.column(chunk_id_col).cast(pa.int32()),
            "text": b.column(text_col).cast(pa.large_string()),
            "_is_chunk": pa.array([True] * n, pa.bool_()),
        })

    tagged = nodes.map_batches(node_side, batch_format="pyarrow").union(
        chunks.map_batches(chunk_side, batch_format="pyarrow")
    )

    # Partition-bucketed (stages/bucketing.py): map_groups runs once per
    # hash(url) % P bucket, never once per url (SURVEY §7.4) — the per-
    # value substring scan is inherent Python, but the per-group task/
    # slice/table overhead is gone; one sorted pass walks the url runs.
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def bind_partition(g: pa.Table) -> pa.Table:
        order = pa.compute.sort_indices(
            g, sort_keys=[("_key", "ascending")])
        g = g.take(order).combine_chunks()
        starts, lens = run_starts(g, ["_key"])
        keys = g.column("_key").to_pylist()
        is_chunk_l = g.column("_is_chunk").to_pylist()
        node_ids = g.column("node_id").to_pylist()
        values = g.column("value").to_pylist()
        chunk_ids = g.column("chunk_id").to_pylist()
        texts = g.column("text").to_pylist()
        rows = []
        for s, ln in zip(starts.tolist(), lens.tolist()):
            url = keys[s]
            idxs = range(s, s + ln)
            chunk_rows = sorted(
                (chunk_ids[i], texts[i]) for i in idxs if is_chunk_l[i])
            for nid, val in sorted(
                    (node_ids[i], values[i]) for i in idxs
                    if not is_chunk_l[i]):
                if not val:
                    continue
                hit = False
                lowered_val = None
                for cid, text in chunk_rows:
                    text = text or ""
                    pos = text.find(val)
                    kind = "verbatim"
                    if pos < 0:
                        if lowered_val is None:
                            lowered_val = val.casefold()
                        pos = text.casefold().find(lowered_val)
                        kind = "verbatim_ci"
                    if pos >= 0:
                        hit = True
                        rows.append({"node_id": nid, "url": url,
                                     "value": val, "chunk_id": int(cid),
                                     "kind": kind, "start": pos,
                                     "end": pos + len(val)})
                if not hit:
                    rows.append({"node_id": nid, "url": url, "value": val,
                                 "chunk_id": -1, "kind": "derived",
                                 "start": -1, "end": -1})
        return pa.Table.from_pylist(rows, schema=NODE_PROVENANCE_SCHEMA)

    return bucketed_map(tagged, ["_key"], bind_partition)
