"""Interactive graph HTML (visualizers analogue:
interactive_visualizer.py:23-410)."""

import json
import re

import pyarrow as pa

import ray.data

from docling_graph_ray.visualize import (
    export_graph_html,
    render_graph_html,
)


def _rows(n=5):
    nodes = [{"node_id": f"n{i}", "class": "Even" if i % 2 == 0 else "Odd",
              "score": i} for i in range(n)]
    edges = [{"src": f"n{i}", "dst": f"n{i+1}", "label": "next"}
             for i in range(n - 1)]
    return nodes, edges


def test_render_graph_html_selfcontained():
    nodes, edges = _rows()
    html = render_graph_html(nodes, edges, title="t")
    assert html.startswith("<!DOCTYPE html>")
    # no external resources: self-contained page (no CDN in this sandbox)
    assert "http://" not in html.split("<body>")[1].split("<script>")[0]
    assert "src=" not in html.split("<script>")[0].replace('("src"', "")
    m = re.search(r"const DATA = (\{.*?\});\n", html, re.DOTALL)
    data = json.loads(m.group(1))
    assert len(data["nodes"]) == 5 and len(data["edges"]) == 4
    assert data["nodes"][0]["attrs"]["score"] == "0"
    # two classes → two legend colors
    assert html.count("&#9679;") == 2
    # deterministic
    assert html == render_graph_html(nodes, edges, title="t")


def test_graph_html_sampling_keeps_high_degree():
    nodes = [{"node_id": f"n{i}", "class": "C"} for i in range(50)]
    edges = [{"src": "n0", "dst": f"n{i}", "label": "e"} for i in range(1, 50)]
    html = render_graph_html(nodes, edges, max_nodes=10)
    data = json.loads(re.search(r"const DATA = (\{.*?\});\n", html,
                                re.DOTALL).group(1))
    assert len(data["nodes"]) == 10
    assert any(n["id"] == "n0" for n in data["nodes"])  # the hub survives
    assert "sampled" in html


def test_export_graph_html_from_datasets(ray_session, tmp_path):
    nodes, edges = _rows()
    p = export_graph_html(
        ray.data.from_arrow(pa.Table.from_pylist(nodes)),
        ray.data.from_arrow(pa.Table.from_pylist(edges)),
        str(tmp_path / "g.html"),
    )
    text = open(p).read()
    assert "<svg" in text and "n3" in text
