"""Connected components (stages/graphalgo.py): min-label propagation +
pointer jumping over edge datasets."""

import pyarrow as pa
import ray

from docling_graph_ray.stages.graphalgo import connected_components


def _cc(edges):
    ds = ray.data.from_arrow(pa.table({
        "src": [a for a, _ in edges], "dst": [b for _, b in edges]}))
    rows = connected_components(ds).take_all()
    return {r["node"]: r["component"] for r in rows}


def test_two_components(ray_session):
    got = _cc([(1, 2), (2, 3), (10, 11), (12, 11)])
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 12: 10}


def test_long_chain_converges_in_log_rounds(ray_session):
    # a 64-node path: naive propagation needs ~64 rounds; pointer
    # jumping must finish well inside max_rounds=25
    edges = [(i, i + 1) for i in range(64)]
    got = _cc(edges)
    assert set(got.values()) == {0}
    assert len(got) == 65


def test_bridge_merges_components(ray_session):
    got = _cc([(1, 2), (3, 4), (2, 3)])
    assert set(got.values()) == {1}


def test_self_loop_and_duplicate_edges(ray_session):
    got = _cc([(5, 5), (5, 6), (5, 6), (6, 5)])
    assert got == {5: 5, 6: 5}


def _pagerank_dense(edges, n_nodes, damping=0.85, iters=10):
    """Reference dense power iteration (same dangling redistribution)."""
    import numpy as np

    nodes = sorted({a for a, _ in edges} | {b for _, b in edges})
    ix = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    deg = np.zeros(n)
    for a, _ in edges:
        deg[ix[a]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        m = np.zeros(n)
        for a, b in edges:
            m[ix[b]] += r[ix[a]] / deg[ix[a]]
        dangling = (1.0 - (r[deg > 0]).sum()) / n
        r = (1 - damping) / n + damping * (m + dangling)
    return {nodes[i]: r[i] for i in range(n)}


def test_pagerank_matches_dense_reference(ray_session):
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.graphalgo import pagerank

    # a small digraph with a dangling node (4 has no out-edges)
    edges = [(1, 2), (1, 3), (2, 3), (3, 1), (3, 4), (2, 4)]
    ds = ray.data.from_arrow(pa.table({
        "src": [a for a, _ in edges], "dst": [b for _, b in edges]}))
    got = {r["node"]: r["rank"]
           for r in pagerank(ds, iters=10).take_all()}
    want = _pagerank_dense(edges, 4, iters=10)
    assert set(got) == set(want)
    for n in want:
        assert abs(got[n] - want[n]) < 1e-9, (n, got[n], want[n])
    assert abs(sum(got.values()) - 1.0) < 1e-9
