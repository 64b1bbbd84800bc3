"""Similarity search and clustering over an embedding column.

- ``brute_force_topk``: exact top-k — the query matrix is put in
  the object store ONCE (``ray.put``) and every ``map_batches`` task reads
  it zero-copy (broadcast, never re-shipped per batch); each batch does
  one numpy matmul and emits only its per-batch top-k partials, so the
  driver-side final reduce sees ``O(num_blocks × k)`` rows, not the corpus.
- ``lsh_planes``: the deterministic hyperplane matrix that
  ``emb_near_dedup`` emits for its oracle and hands to the embedding
  near-dup bucketing (stages/dedup.py).
- ``kmeans_fit`` / ``kmeans_assign``: the streaming k-means codebook
  behind ``emb_kmeans`` and SemDeDup.

Results are cosine similarities rounded to 6 decimals (stable across
numpy/DuckDB for value-hash comparison).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from docling_graph_ray.stages.lineage import arrow_refs


def _as_matrix(col, dtype=np.float32) -> np.ndarray:
    return np.array(col.to_pylist(), dtype=dtype)


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def brute_force_topk(
    ds,
    queries: np.ndarray,
    *,
    k: int = 10,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    query_ids: list[int] | None = None,
    dtype=np.float32,
):
    """Exact cosine top-k of every query against the dataset.

    Returns a Dataset ``(query_id, vec_id, cos)`` with k rows per query.
    ``dtype=np.float32`` is the scale default; pass ``np.float64`` for
    oracle-matched precision (DuckDB computes DOUBLE[] cosines in f64)."""
    import ray

    qn = _normalize(np.asarray(queries, dtype=dtype))
    qids = query_ids if query_ids is not None else list(range(qn.shape[0]))
    q_ref = ray.put(qn)  # broadcast once

    def partial_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        ids = np.asarray(batch.column(id_col).to_pylist())
        embs = _normalize(_as_matrix(batch.column(emb_col), dtype))
        sims = embs @ q.T  # (n, nq)
        kk = min(k, len(ids))
        out_q, out_v, out_c = [], [], []
        for j in range(q.shape[0]):
            top = np.argpartition(-sims[:, j], kk - 1)[:kk]
            for t in top:
                out_q.append(qids[j])
                out_v.append(int(ids[t]))
                out_c.append(round(float(sims[t, j]), 6))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                id_col: pa.array(out_v, pa.int64()),
                "cos": pa.array(out_c, pa.float64()),
            }
        )

    partials = ds.map_batches(partial_topk, batch_format="pyarrow")

    def final_topk(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.sort_indices(
            group, sort_keys=[("cos", "descending"), (id_col, "ascending")]
        )
        return group.take(idx[:k])

    return partials.groupby("query_id").map_groups(final_topk, batch_format="pyarrow")


def lsh_planes(dim: int, n_planes: int = 8, seed: int = 42,
               dtype=np.float32) -> np.ndarray:
    """Deterministic random-hyperplane matrix ``(dim, n_planes)`` —
    factored out so a caller can emit the exact planes the bucketing
    uses (the emitted-model oracle pattern)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((dim, n_planes)).astype(dtype)


def train_ivf_centroids(
    ds, *, n_centroids: int = 16, emb_col: str = "embedding",
    sample_rows: int = 4096, iters: int = 10, seed: int = 42,
) -> np.ndarray:
    """Deterministic Lloyd's k-means on a bounded sample (driver-side
    numpy — the codebook is tiny and training is one-off).  Sampling is
    deterministic: the FIRST ``sample_rows`` rows in block order, so the
    codebook is stable across runs for the same input."""
    import ray

    sample: list[np.ndarray] = []
    need = sample_rows
    for ref in arrow_refs(ds.select_columns([emb_col])):
        t = ray.get(ref)
        m = _as_matrix(t.column(emb_col))
        sample.append(m[:need])
        need -= len(m)
        if need <= 0:
            break
    x = _normalize(np.concatenate(sample, axis=0))
    rng = np.random.Generator(np.random.PCG64(seed))
    cent = x[rng.choice(len(x), size=min(n_centroids, len(x)), replace=False)]
    for _ in range(iters):
        sims = x @ cent.T
        assign = sims.argmax(axis=1)
        for c in range(cent.shape[0]):
            members = x[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


# ---------------------------------------------------------------------------
# distributed k-means (iterative corpus clustering)


def kmeans_fit(ds, *, k: int = 8, emb_col: str = "embedding",
               iters: int = 10, seed: int = 42) -> np.ndarray:
    """Fully distributed Lloyd's k-means (unit-sphere / cosine variant).

    Each iteration is ONE streaming pass: every batch assigns its
    vectors to the nearest broadcast centroid (numpy matmul) and emits
    k partial rows ``(cluster, sum_vec, count)`` — so the per-iteration
    reduce payload is ``k × dim × num_batches`` floats, independent of
    corpus size; the corpus itself never moves.  The driver folds the
    tiny partials and renormalizes the codebook.  Initialization is the
    same deterministic bounded-sample seeding as
    :func:`train_ivf_centroids` (first rows in block order + PCG64),
    so runs are reproducible.

    Empty clusters keep their previous centroid (the standard Lloyd
    fallback, deterministic)."""
    import ray

    cent = train_ivf_centroids(ds, n_centroids=k, emb_col=emb_col,
                               iters=0, seed=seed)

    for _ in range(iters):
        ref = ray.put(cent)
        kk, dim = cent.shape

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            m = _normalize(_as_matrix(batch.column(emb_col)))
            assign = (m @ c.T).argmax(axis=1)
            sums = np.zeros((kk, dim), dtype=np.float64)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=kk).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(kk, dtype=np.int64)),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                "n": pa.array(counts),
            })

        sums = np.zeros((kk, dim), dtype=np.float64)
        counts = np.zeros(kk, dtype=np.int64)
        for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"):
            cl = b.column("cluster").to_numpy(zero_copy_only=False)
            vs = np.asarray(b.column("vsum").to_pylist(), dtype=np.float64)
            nn = b.column("n").to_numpy(zero_copy_only=False)
            np.add.at(sums, cl, vs)
            np.add.at(counts, cl, nn)
        nz = counts > 0
        cent = cent.copy()
        cent[nz] = sums[nz] / counts[nz, None]
        cent = _normalize(cent)
    return cent


def kmeans_assign(ds, centroids: np.ndarray, *, id_col: str = "vec_id",
                  emb_col: str = "embedding"):
    """Assign every vector to its nearest centroid (broadcast-once
    codebook, one streaming pass): rows ``(id_col, cluster, sim)``."""
    import ray

    ref = ray.put(_normalize(np.asarray(centroids, dtype=np.float64)))

    def fn(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _normalize(_as_matrix(batch.column(emb_col)))
        sims = m @ c.T
        assign = sims.argmax(axis=1)
        best = sims[np.arange(len(m)), assign]
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "cluster": pa.array(assign.astype(np.int64)),
            "sim": pa.array(np.round(best, 6)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")
