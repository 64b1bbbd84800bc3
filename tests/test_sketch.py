"""HyperLogLog sketch tests (stages/sketch.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from docling_graph_ray.stages.sketch import (
    distinct_estimate,
    hll_estimate,
    hll_merge,
    hll_registers,
)


def test_hll_accuracy_across_scales():
    for n in (100, 1_000, 50_000):
        est = hll_estimate(hll_registers([f"item-{i}" for i in range(n)]))
        assert abs(est - n) / n < 0.05  # p=12 -> ~1.6% typical error


def test_hll_merge_is_partitioning_invariant():
    vals = [f"v{i}" for i in range(5_000)]
    one_shot = hll_registers(vals)
    for n_chunks in (2, 7, 64):
        merged = hll_merge(
            [hll_registers(vals[i::n_chunks]) for i in range(n_chunks)]
        )
        assert np.array_equal(merged, one_shot)


def test_hll_duplicates_do_not_inflate():
    est = hll_estimate(hll_registers(["x", "y", None, ""] * 1_000))
    assert abs(est - 3) < 0.5  # x, y, and the null/empty bucket


def test_distinct_estimate_dataset(ray_session):
    n, dups = 2_000, 3
    t = pa.table({"text": pa.array([f"doc-{i % (n // dups)}" for i in range(n)])})
    ds = ray.data.from_arrow(t).repartition(16)
    est, n_blocks = distinct_estimate(ds, col="text")
    true = n // dups
    assert abs(est - true) / true < 0.05
    assert n_blocks >= 1
    # empty dataset
    est0, nb0 = distinct_estimate(
        ray.data.from_arrow(t.slice(0, 0)), col="text"
    )
    assert (est0, nb0) == (0.0, 0) or est0 == 0.0


# count-min sketch
