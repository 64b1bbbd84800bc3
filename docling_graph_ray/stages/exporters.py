"""Graph export formats and the DocLang view of an extracted row.

- ``import_graph_json``: reads a canonical ``graph.json``
  ``{nodes, edges, metadata, graph}`` (reference
  docling_graph/core/exporters/json_exporter.py:14-80), the shape
  ``merge`` writes and ``inspect`` renders; ``graph`` carries the format
  marker.
- ``render_doclang``: the DocLang markup of an extracted row."""

from __future__ import annotations

import json

FORMAT_MARKER = "docling-graph-ray/v1"


def import_graph_json(path: str) -> tuple[list[dict], list[dict], dict]:
    """Read a canonical graph.json back (importers/graph_json.py:96-215
    analogue): returns (nodes, edges, metadata); format marker checked."""
    with open(path) as f:
        d = json.load(f)
    if d.get("graph", {}).get("format") != FORMAT_MARKER:
        raise ValueError(f"not a {FORMAT_MARKER} export: {path}")
    return d["nodes"], d["edges"], d.get("metadata", {})


# ---------------------------------------------------------------------------
# DocLang view of an extracted row (docling_exporter.py:25-120 .dclg
# semantics on the extracted-row document model)

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
