"""CLI parity commands: `init` (config scaffold consumed by
`extract --config`) and `inspect` (graph export → HTML view) —
reference analogues cli/commands/init.py / inspect.py."""

from __future__ import annotations

import json
import os

import pytest

from docling_graph_ray.__main__ import main


def test_init_writes_scaffold_and_refuses_overwrite(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    assert main(["init", "--out", str(cfg)]) == 0
    import yaml

    loaded = yaml.safe_load(cfg.read_text())
    assert loaded["partitions"] == 64 and loaded["resume"] is True
    assert main(["init", "--out", str(cfg)]) == 1  # no silent overwrite
    assert main(["init", "--out", str(cfg), "--force"]) == 0


def test_extract_consumes_config(tmp_path, ray_session):
    from docling_graph_ray.fixtures.pages import pages_parquet_dir

    src = pages_parquet_dir(60, profile="t1")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        f"input: {src}\nout: {tmp_path / 'run'}\npartitions: 4\n"
        "resume: true\nshuffle_codec: zstd\n")
    assert main(["extract", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    parts = [p for p in os.listdir(out) if p.startswith("part_id=")]
    assert len(parts) == 4
    # explicit flag wins over the config value
    assert main(["extract", "--config", str(cfg),
                 "--out", str(tmp_path / "run2"),
                 "--partitions", "2"]) == 0
    parts2 = [p for p in os.listdir(tmp_path / "run2")
              if p.startswith("part_id=")]
    assert len(parts2) == 2


def test_extract_takes_relative_paths(tmp_path, ray_session, monkeypatch):
    """``--input`` and ``--out`` relative to the caller's working
    directory, which the Ray workers do not share: every row is read and
    every partition committed there."""
    import pyarrow.parquet as pq

    from docling_graph_ray.fixtures.pages import make_pages_table
    from docling_graph_ray.pipelines.golden import golden_extract_pages
    from docling_graph_ray.state.manifest import read_lineage

    monkeypatch.chdir(tmp_path)
    (tmp_path / "pages").mkdir()
    pages = make_pages_table(list(range(40)), profile="t1")
    pq.write_table(pages, tmp_path / "pages" / "part-00000.parquet",
                   row_group_size=10)
    assert main(["extract", "--input", "pages", "--out", "run",
                 "--partitions", "2"]) == 0
    assert read_lineage("run") == golden_extract_pages(pages, 2)[1].to_pylist()
    assert len([p for p in os.listdir("run") if p.startswith("part_id=")]) == 2


def test_config_codec_value_is_checked_only_for_null(tmp_path):
    """A config from before the codec became zstd says ``zlib``: it still
    means "compress", since only a null value turns the codec off."""
    import argparse

    from docling_graph_ray.__main__ import _apply_config

    for value, off in (("zlib", False), ("zstd", False), ("null", True)):
        cfg = tmp_path / f"{value}.yaml"
        cfg.write_text(f"input: in\nout: out\nshuffle_codec: {value}\n")
        args = argparse.Namespace(
            config=str(cfg), input=None, out=None, partitions=None,
            num_cpus=None, no_resume=False, no_shuffle_codec=False)
        _apply_config(args)
        assert args.no_shuffle_codec is off, value


def test_extract_without_input_errors(tmp_path):
    with pytest.raises(SystemExit):
        main(["extract", "--out", str(tmp_path / "x")])


def _graph_json(path):
    nodes = [
        {"node_id": "P_1", "__class__": "Person", "name": "Ada"},
        {"node_id": "P_2", "__class__": "Person", "name": "Grace"},
        {"node_id": "O_1", "__class__": "Org", "name": "Lab"},
    ]
    edges = [
        {"src": "P_1", "dst": "O_1", "label": "WORKS_AT"},
        {"src": "P_2", "dst": "O_1", "label": "WORKS_AT"},
    ]
    from docling_graph_ray.stages.exporters import FORMAT_MARKER

    path.write_text(json.dumps({
        "nodes": nodes, "edges": edges, "metadata": {},
        "graph": {"format": FORMAT_MARKER},
    }))
    return nodes, edges


def test_inspect_json_to_html(tmp_path):
    gpath = tmp_path / "graph.json"
    nodes, edges = _graph_json(gpath)
    assert main(["inspect", str(gpath)]) == 0
    html = (tmp_path / "graph.html").read_text()
    assert "P_1" in html and "WORKS_AT" in html
    assert html.startswith("<!DOCTYPE html>")
    # a graph JSON without the .json suffix keeps its whole stem
    bare = tmp_path / "export_graph"
    _graph_json(bare)
    assert main(["inspect", str(bare)]) == 0
    assert "P_1" in (tmp_path / "export_graph.html").read_text()


def test_inspect_csv_dir_to_html(tmp_path):
    (tmp_path / "nodes.csv").write_text(
        '"node_id","__class__","v"\n"A","X",1\n"B","X",2\n')
    (tmp_path / "edges.csv").write_text(
        '"src","dst","label"\n"A","B","L"\n')
    out = tmp_path / "viz.html"
    assert main(["inspect", str(tmp_path), "--out", str(out)]) == 0
    assert "node" in out.read_text().lower()
    # missing files error cleanly
    assert main(["inspect", str(tmp_path / "nope_dir")]) == 1
