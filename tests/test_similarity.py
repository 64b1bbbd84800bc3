"""Similarity search: distributed top-k vs numpy oracle."""

import numpy as np
import pyarrow as pa

import ray.data

from docling_graph_ray.stages.similarity import brute_force_topk

N, D, K = 200, 32, 5


def _data():
    rng = np.random.Generator(np.random.PCG64(1))
    embs = rng.standard_normal((N, D)).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(range(N), pa.int64()),
            "embedding": pa.array([e.tolist() for e in embs], pa.list_(pa.float32())),
        }
    )
    return embs, t


def _numpy_topk(embs, q, k):
    en = embs / np.linalg.norm(embs, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    sims = en @ qn
    order = np.lexsort((np.arange(N), -sims))
    return list(order[:k])


def test_brute_force_matches_numpy(ray_session):
    embs, t = _data()
    q = embs[7].astype(np.float64)
    out = brute_force_topk(
        ray.data.from_arrow(t), q[None, :], k=K, query_ids=[0]
    ).take_all()
    got = [r["vec_id"] for r in sorted(out, key=lambda r: -r["cos"])]
    assert got == _numpy_topk(embs, q, K)
    assert got[0] == 7  # self is nearest


def test_kmeans_fit_assign(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from docling_graph_ray.stages.similarity import kmeans_assign, kmeans_fit

    # two tight clusters on the unit sphere
    rng = np.random.Generator(np.random.PCG64(7))
    a = rng.normal([5, 0, 0, 0], 0.05, size=(40, 4))
    b = rng.normal([0, 5, 0, 0], 0.05, size=(40, 4))
    x = np.concatenate([a, b])
    ds = ray.data.from_arrow(pa.table({
        "vec_id": list(range(80)),
        "embedding": [row.tolist() for row in x],
    }))
    cent = kmeans_fit(ds, k=2, iters=5)
    assert cent.shape == (2, 4)
    rows = kmeans_assign(ds, cent).take_all()
    by_id = {r["vec_id"]: r["cluster"] for r in rows}
    first = {by_id[i] for i in range(40)}
    second = {by_id[i] for i in range(40, 80)}
    assert len(first) == 1 and len(second) == 1 and first != second
    assert all(r["sim"] > 0.9 for r in rows)
    # determinism: same input, same codebook
    cent2 = kmeans_fit(ds, k=2, iters=5)
    assert np.allclose(cent, cent2)
