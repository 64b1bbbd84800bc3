"""Host link-graph harvest (stages/linkgraph.py)."""

import pyarrow as pa

from docling_graph_ray.stages.linkgraph import (
    decode_pages_batch,
    harvest_batch,
    host_link_graph,
)


def test_harvest_resolves_relative_and_absolute():
    b = pa.table({
        "url": pa.array(["https://a.example/x", "https://b.example/y"]),
        "html_text": pa.array([
            '<a href="/local">l</a> <a href="https://b.example/z">x</a>'
            ' <a href="https://c.example/">c</a>',
            '<a href="https://a.example/q">back</a>',
        ]),
    })
    got = {(r["src_host"], r["dst_host"]): r["n_links"]
           for r in harvest_batch(b).to_pylist()}
    assert got == {
        ("a.example", "a.example"): 1,
        ("a.example", "b.example"): 1,
        ("a.example", "c.example"): 1,
        ("b.example", "a.example"): 1,
    }


def test_linked_profile_produces_cross_host_edges(ray_session, tmp_path):
    from docling_graph_ray.fixtures.pages import pages_dataset

    out = str(tmp_path / "decoded")
    edges = host_link_graph(pages_dataset(120, profile="linked"),
                            out).to_pandas()
    cross = edges[edges["src_host"] != edges["dst_host"]]
    assert len(cross) > 0                      # footer partner links
    assert (edges["n_links"] > 0).all()
    # determinism: a second run over the same fixture folds identically
    out2 = str(tmp_path / "decoded2")
    edges2 = host_link_graph(pages_dataset(120, profile="linked"),
                             out2).to_pandas()
    a = edges.sort_values(["src_host", "dst_host"]).reset_index(drop=True)
    b = edges2.sort_values(["src_host", "dst_host"]).reset_index(drop=True)
    assert a.equals(b)


def test_host_link_graph_runs_no_schema_job(ray_session, tmp_path,
                                            schema_jobs):
    """``host_link_graph`` hands its aggregate the harvest's schema, so no
    ``Dataset.schema()`` runs (and cancels) a job on the lazy
    read → harvest plan; the edges equal one eager harvest of the pages."""
    from docling_graph_ray.fixtures.pages import make_pages_table, pages_dataset

    edges = host_link_graph(pages_dataset(120, profile="linked"),
                            str(tmp_path / "decoded"), num_partitions=8)
    got = {(r["src_host"], r["dst_host"]): r["n_links"]
           for r in edges.take_all()}
    assert schema_jobs == []
    eager = harvest_batch(decode_pages_batch(
        make_pages_table(list(range(120)), profile="linked")))
    want = {}
    for r in eager.to_pylist():
        key = (r["src_host"], r["dst_host"])
        want[key] = want.get(key, 0) + r["n_links"]
    assert got == want


def test_t1_profile_bytes_unchanged_by_linked_refactor():
    # the "linked" profile must not perturb existing profiles (flagship
    # goldens depend on t1/t2 bytes)
    from docling_graph_ray.fixtures.pages import make_row

    r = make_row(5, 42, "t1")
    assert b"partner" not in r["html"]
    r2 = make_row(5, 42, "linked")
    assert b"partner" in r2["html"]
