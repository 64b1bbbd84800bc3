"""Interactive graph visualization.

Reference analogue: the Visualization stage's Cytoscape HTML
(docling_graph/core/visualizers/interactive_visualizer.py:23-410).
This container has no network, so instead of a CDN-loaded Cytoscape
bundle the page embeds the graph as JSON plus
a small self-contained force-layout renderer (vanilla JS + SVG): class-
colored nodes, labeled edges, drag, zoom/pan, click-to-inspect
attributes.  Driver-side small-data rendering — graphs above
``max_nodes`` are degree-sampled first (visualization is a QA surface,
not the 100 TB path)."""

from __future__ import annotations

import html as _html
import json
import os


def _collect(ds) -> list[dict]:
    import ray

    return [r for ref in ds.to_arrow_refs() for r in ray.get(ref).to_pylist()]


def _sample_graph(nodes: list[dict], edges: list[dict], max_nodes: int,
                  id_col: str, src_col: str, dst_col: str):
    if len(nodes) <= max_nodes:
        return nodes, edges, False
    # keep the highest-degree nodes (the informative core), then their edges
    deg: dict[str, int] = {}
    for e in edges:
        deg[str(e[src_col])] = deg.get(str(e[src_col]), 0) + 1
        deg[str(e[dst_col])] = deg.get(str(e[dst_col]), 0) + 1
    ranked = sorted(nodes, key=lambda n: (-deg.get(str(n[id_col]), 0),
                                          str(n[id_col])))
    kept = ranked[:max_nodes]
    kept_ids = {str(n[id_col]) for n in kept}
    kept_edges = [e for e in edges
                  if str(e[src_col]) in kept_ids and str(e[dst_col]) in kept_ids]
    return kept, kept_edges, True


_PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
            "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"]

_JS = r"""
const W = 960, H = 640;
const svg = document.getElementById('g');
const info = document.getElementById('info');
const N = DATA.nodes, E = DATA.edges;
const idx = {}; N.forEach((n, i) => idx[n.id] = i);
// deterministic initial layout: golden-angle spiral
N.forEach((n, i) => {
  const a = i * 2.39996, r = 18 * Math.sqrt(i + 1);
  n.x = W / 2 + r * Math.cos(a); n.y = H / 2 + r * Math.sin(a);
  n.vx = 0; n.vy = 0;
});
function tick() {
  for (let k = 0; k < N.length; k++) {
    const n = N[k];
    n.vx += (W / 2 - n.x) * 0.0008; n.vy += (H / 2 - n.y) * 0.0008;
  }
  for (let a = 0; a < N.length; a++) for (let b = a + 1; b < N.length; b++) {
    const dx = N[b].x - N[a].x, dy = N[b].y - N[a].y;
    const d2 = Math.max(64, dx * dx + dy * dy), f = 600 / d2;
    const dl = Math.sqrt(d2);
    N[a].vx -= f * dx / dl; N[a].vy -= f * dy / dl;
    N[b].vx += f * dx / dl; N[b].vy += f * dy / dl;
  }
  E.forEach(e => {
    const s = N[idx[e.src]], t = N[idx[e.dst]];
    if (!s || !t) return;
    const dx = t.x - s.x, dy = t.y - s.y;
    const d = Math.max(1, Math.sqrt(dx * dx + dy * dy));
    const f = (d - 90) * 0.004;
    s.vx += f * dx / d; s.vy += f * dy / d;
    t.vx -= f * dx / d; t.vy -= f * dy / d;
  });
  N.forEach(n => {
    if (n === drag.node) return;
    n.x += (n.vx *= 0.85); n.y += (n.vy *= 0.85);
  });
  render();
}
let view = {x: 0, y: 0, k: 1};
function render() {
  let s = '<g transform="translate(' + view.x + ',' + view.y +
          ') scale(' + view.k + ')">';
  E.forEach(e => {
    const a = N[idx[e.src]], b = N[idx[e.dst]];
    if (!a || !b) return;
    s += '<line x1="' + a.x + '" y1="' + a.y + '" x2="' + b.x +
         '" y2="' + b.y + '" stroke="#bbb" stroke-width="1">' +
         '<title>' + e.label + '</title></line>';
  });
  N.forEach((n, i) => {
    s += '<circle data-i="' + i + '" cx="' + n.x + '" cy="' + n.y +
         '" r="9" fill="' + n.color + '" stroke="#333"/>' +
         '<text x="' + (n.x + 11) + '" y="' + (n.y + 4) +
         '" font-size="10">' + n.short + '</text>';
  });
  svg.innerHTML = s + '</g>';
}
const drag = {node: null};
svg.addEventListener('mousedown', ev => {
  const t = ev.target.closest('circle');
  if (t) drag.node = N[+t.dataset.i];
  else drag.pan = [ev.clientX - view.x, ev.clientY - view.y];
});
svg.addEventListener('mousemove', ev => {
  const r = svg.getBoundingClientRect();
  if (drag.node) {
    drag.node.x = (ev.clientX - r.left - view.x) / view.k;
    drag.node.y = (ev.clientY - r.top - view.y) / view.k;
  } else if (drag.pan) {
    view.x = ev.clientX - drag.pan[0]; view.y = ev.clientY - drag.pan[1];
  }
});
svg.addEventListener('mouseup', () => { drag.node = null; drag.pan = null; });
svg.addEventListener('click', ev => {
  const t = ev.target.closest('circle');
  if (!t) return;
  const n = N[+t.dataset.i];
  info.textContent = JSON.stringify(n.attrs, null, 2);
});
svg.addEventListener('wheel', ev => {
  ev.preventDefault();
  view.k = Math.max(0.2, Math.min(4, view.k * (ev.deltaY < 0 ? 1.1 : 0.9)));
  render();
});
let steps = 0;
const timer = setInterval(() => { tick(); if (++steps > 300) clearInterval(timer); }, 16);
"""


def render_graph_html(nodes, edges, *, id_col: str = "node_id",
                      class_col: str = "class", src_col: str = "src",
                      dst_col: str = "dst", label_col: str = "label",
                      max_nodes: int = 2000, title: str = "graph") -> str:
    """nodes/edges datasets (or row lists) → self-contained HTML string."""
    node_rows = nodes if isinstance(nodes, list) else _collect(nodes)
    edge_rows = edges if isinstance(edges, list) else _collect(edges)
    node_rows, edge_rows, sampled = _sample_graph(
        node_rows, edge_rows, max_nodes, id_col, src_col, dst_col)

    classes = sorted({str(n.get(class_col) or "node") for n in node_rows})
    color = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(classes)}
    njson = []
    for n in sorted(node_rows, key=lambda n: str(n[id_col])):
        nid = str(n[id_col])
        cls = str(n.get(class_col) or "node")
        njson.append({
            "id": nid, "short": nid[:18], "color": color[cls],
            "attrs": {k: ("" if v is None else str(v)) for k, v in n.items()},
        })
    ejson = [{"src": str(e[src_col]), "dst": str(e[dst_col]),
              "label": str(e.get(label_col) or "")}
             for e in sorted(edge_rows, key=lambda e: (str(e[src_col]),
                                                       str(e[dst_col])))]
    legend = " ".join(
        f'<span style="color:{color[c]}">&#9679;</span> {_html.escape(c)}'
        for c in classes
    )
    note = (f"<p><em>showing top {len(njson)} nodes by degree "
            "(sampled)</em></p>" if sampled else "")
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{_html.escape(title)}</title>
<style>
body {{ font-family: sans-serif; margin: 12px; }}
#g {{ border: 1px solid #ccc; background: #fafafa; }}
#info {{ white-space: pre; font-family: monospace; font-size: 12px;
        border: 1px solid #eee; padding: 8px; min-height: 3em; }}
</style></head>
<body>
<h1>{_html.escape(title)}</h1>
<p>{len(njson)} nodes, {len(ejson)} edges &mdash; {legend}</p>{note}
<svg id="g" width="960" height="640"></svg>
<h2>Selected node</h2>
<div id="info">click a node</div>
<script>
const DATA = {json.dumps({"nodes": njson, "edges": ejson}, sort_keys=True)};
{_JS}
</script>
</body></html>
"""


def export_graph_html(nodes, edges, path: str, **kwargs) -> str:
    html_text = render_graph_html(nodes, edges, **kwargs)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(html_text)
    os.replace(tmp, path)
    return path
