"""Cluster-derived actor-pool sizing for interior map_batches stages.

The flagship extraction stage has no pool: it is a task fused into the
Parquet read (`pipelines/extract.py:_lanes`).  Interior stages (bigram
scoring, BPE tokenize, media decode) do use actor pools: they sit
downstream of a read and their input volume varies from a 64-row demo
table to a corpus, so the pool AUTOSCALES — min 1 actor (a tiny input
never pays a 32-actor spin-up, ~5-10 s at 32 CPUs) up to a
cluster-derived max that no longer starves a 32-CPU cluster at a
hardcoded 4 actors.

The max leaves cpus//8 (min 1) CPUs free so unfused upstream task
operators (the parquet read) are never starved by a saturated pool."""

from __future__ import annotations


def auto_pool_max(*, cap: int | None = None) -> int:
    """Cluster-derived upper bound for an autoscaling actor pool."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    n = max(1, min(cpus - 1, cpus - max(1, cpus // 8)))
    if cap is not None:
        n = min(n, cap)
    return n


def auto_pool(*, cap: int | None = None, rows_hint: int | None = None,
              batch_size: int = 256) -> tuple[int, int]:
    """``concurrency=`` tuple for an autoscaling interior-stage pool.

    ``rows_hint`` (a CHEAP count — parquet metadata or a materialized
    dataset, never ``count()`` on an unexecuted plan) additionally caps
    the pool at the number of batches the input can actually fill:
    spinning 24 actors for a 5k-row apply stage only buys spin-up wall
    (measured +2 s on doc_bpe_apply at sf0.1 — BASELINE.md round-4
    A/B), while at corpus scale the hint is huge and the cluster bound
    rules."""
    n = auto_pool_max(cap=cap)
    if rows_hint is not None:
        n = max(1, min(n, -(-int(rows_hint) // max(1, batch_size))))
    return (1, n)
