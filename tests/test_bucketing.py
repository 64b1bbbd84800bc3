"""bucketing: the Ray map_groups behaviour it relies on, bucketed_map's
co-location, and bucketed_aggregate vs pandas (exactness)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from docling_graph_ray.stages.bucketing import bucketed_aggregate, bucketed_map


def _rand_table(n=5000, keys=700, seed=7):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.integers(0, keys, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
        "w": pa.array(rng.random(n), pa.float64()),
    })


@pytest.mark.parametrize("combine", [False, True])
def test_min_sum_count_match_pandas(ray_session, combine):
    import ray.data

    t = _rand_table()
    aggs = [("v", "min"), ("w", "sum")]
    if not combine:
        aggs.append(("", "count_all"))
    out = bucketed_aggregate(
        ray.data.from_arrow(t).repartition(6), ["k"], aggs,
        num_partitions=8, combine=combine,
    ).to_pandas().sort_values("k").reset_index(drop=True)

    df = t.to_pandas()
    want = df.groupby("k").agg(v_min=("v", "min"), w_sum=("w", "sum"),
                               n=("v", "size")).reset_index()
    assert (out["k"] == want["k"]).all()
    assert (out["v_min"] == want["v_min"]).all()
    assert np.allclose(out["w_sum"], want["w_sum"])
    if not combine:
        assert (out["count_all"] == want["n"]).all()


def test_combine_count_all(ray_session):
    import ray.data

    t = _rand_table(3000, 50)
    out = bucketed_aggregate(
        ray.data.from_arrow(t).repartition(5), ["k"],
        [("", "count_all"), ("v", "max")], combine=True,
    ).to_pandas().sort_values("k").reset_index(drop=True)
    df = t.to_pandas()
    want = df.groupby("k").agg(n=("v", "size"), v_max=("v", "max")).reset_index()
    assert (out["count_all"] == want["n"]).all()
    assert (out["v_max"] == want["v_max"]).all()


def test_rename_and_string_keys(ray_session):
    import ray.data

    t = pa.table({
        "s": pa.array(["a", "b", "a", None, "b", None]),
        "v": pa.array([5, 2, 3, 9, 1, 4], pa.int64()),
    })
    out = bucketed_aggregate(
        ray.data.from_arrow(t).repartition(3), ["s"], [("v", "min")],
        rename=["key", "lowest"],
    ).to_pandas()
    got = {r["key"]: r["lowest"] for _, r in out.iterrows()}
    assert got == {"a": 3, "b": 1, None: 4}


def test_empty_input(ray_session):
    import ray.data

    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out = bucketed_aggregate(
        ray.data.from_arrow(t), ["k"], [("v", "sum")], combine=True,
    ).to_pandas()
    assert len(out) == 0


@pytest.mark.parametrize("shape", ["empty", "all_filtered", "few_keys"])
def test_map_groups_never_calls_fn_on_an_empty_group(ray_session, shape):
    """Ray 2.49's sort-shuffle ``map_groups`` skips empty blocks
    (``BlockAccessor._get_group_boundaries_sorted`` returns no boundaries
    for them), so a group fn needs no empty-table guard.  ``bucketed_map``
    and every fn passed to it rely on this; a Ray upgrade that changes it
    fails here first."""
    import ray.data

    def rows_seen(g: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    if shape == "empty":
        ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
        want_rows, want_calls = 0, 0
    elif shape == "all_filtered":
        ds = ray.data.range(200, override_num_blocks=4).filter(
            expr="id < 0")
        ds = ds.map_batches(lambda b: b.rename_columns(["k"]),
                            batch_format="pyarrow")
        want_rows, want_calls = 0, 0
    else:
        # 2 distinct keys over 8 input blocks: the sort shuffle plans 8
        # reduce partitions, so at least 6 of them are empty
        t = pa.table({"k": pa.array(np.arange(200) % 2, pa.int64())})
        ds = ray.data.from_arrow(t).repartition(8)
        assert ds.sort("k").materialize().num_blocks() == 8
        want_rows, want_calls = 200, 2
    seen = ds.groupby("k").map_groups(
        rows_seen, batch_format="pyarrow").take_all()
    ns = [r["n"] for r in seen]
    assert 0 not in ns
    assert (len(ns), sum(ns)) == (want_calls, want_rows)


def _keyed_table(n=3000, seed=11):
    rng = np.random.default_rng(seed)
    ki = rng.integers(0, 40, n).astype(object)
    ki[rng.random(n) < 0.1] = None
    ks = rng.choice(np.array(["a", "b", "c", "dd", ""], dtype=object), n)
    ks[rng.random(n) < 0.1] = None
    return pa.table({
        "ki": pa.array(ki.tolist(), pa.int64()),
        "ks": pa.array(ks.tolist(), pa.string()),
        "v": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })


def test_bucketed_map_co_locates_multi_column_keys_with_nulls(ray_session):
    """Every (int, string) key — nulls included — lands in exactly one
    bucket, so a per-bucket fold equals a global pandas groupby, and
    ``fn`` never sees the bucket tag."""
    import ray.data

    t = _keyed_table()

    def fold(g: pa.Table) -> pa.Table:
        assert g.num_rows > 0
        assert g.schema.names == ["ki", "ks", "v"]
        return g.group_by(["ki", "ks"]).aggregate(
            [("v", "sum"), ([], "count_all")])

    out = bucketed_map(ray.data.from_arrow(t).repartition(5), ["ki", "ks"],
                       fold, num_partitions=7).to_pandas()
    assert sorted(out.columns) == ["count_all", "ki", "ks", "v_sum"]

    want = (t.to_pandas().groupby(["ki", "ks"], dropna=False)
            .agg(v_sum=("v", "sum"), count_all=("v", "size")).reset_index())

    def canon(df):
        df = df[["ki", "ks", "v_sum", "count_all"]].astype(object)
        df = df.where(pd.notna(df), None)
        return sorted(map(tuple, df.itertuples(index=False)),
                      key=lambda r: tuple((x is None, str(x)) for x in r))

    got = canon(out)
    assert len(got) == len({r[:2] for r in got})  # one row per key
    assert got == canon(want)


@pytest.mark.parametrize("key", ["ki", "ks"])
def test_bucketed_map_output_never_carries_the_tag(ray_session, key):
    import ray.data

    t = _keyed_table(500)
    out = bucketed_map(ray.data.from_arrow(t).repartition(3), [key],
                       lambda g: g, num_partitions=4)
    got = out.to_pandas()
    assert list(got.columns) == ["ki", "ks", "v"]
    assert sorted(got["v"]) == sorted(t.column("v").to_pylist())


@pytest.mark.parametrize("typed", [False, True])
def test_bucketed_map_tolerates_schema_less_empty_blocks(ray_session, typed):
    """Empty blocks without columns (what a filter-all hands on) mixed
    with normal blocks: the result is the same with and without
    ``schema``, which types such blocks before they are tagged."""
    import ray.data

    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    t = pa.table({"k": pa.array([1, 2, 1], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int64())})

    def drop_second(b: pa.Table) -> pa.Table:
        return pa.table({}) if b.column("k")[0].as_py() == 2 else b

    ds = ray.data.from_arrow([t.slice(0, 1), t.slice(1, 1), t.slice(2, 1)])
    out = bucketed_map(
        ds.map_batches(drop_second, batch_format="pyarrow"), ["k"],
        lambda g: g.group_by("k").aggregate([("v", "sum")]),
        num_partitions=3, schema=schema if typed else None).to_pandas()
    assert dict(zip(out["k"], out["v_sum"])) == {1: 40}
