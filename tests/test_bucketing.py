"""bucketing: the Ray map_groups behaviour it relies on, bucketed_map's
co-location, and bucketed_aggregate vs pandas (exactness)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from docling_graph_ray.stages.bucketing import (
    bucketed_aggregate, bucketed_first, bucketed_map)


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


def _empty_block_shapes(shape):
    """(dataset, want rows, want calls) for each way an empty block
    reaches a ``map_batches`` UDF's input in this package."""
    import ray.data

    if shape == "filtered":
        # 4 blocks of 50: the filter empties the last three
        return (ray.data.range(200, override_num_blocks=4)
                .filter(expr="id < 50"), 50, 1)
    if shape == "zero_column":
        t = pa.table({"k": pa.array([1, 2, 1], pa.int64())})

        def drop_second(b: pa.Table) -> pa.Table:
            return pa.table({}) if b.column("k")[0].as_py() == 2 else b

        ds = ray.data.from_arrow([t.slice(0, 1), t.slice(1, 1),
                                  t.slice(2, 1)])
        return ds.map_batches(drop_second, batch_format="pyarrow"), 2, 2
    if shape == "empty_reduce":
        # 2 keys over 8 input blocks: 6 of the 8 reduce partitions are
        # empty and carry no schema
        t = pa.table({"k": pa.array(np.arange(200) % 2, pa.int64())})
        ds = ray.data.from_arrow(t).repartition(8).groupby("k").map_groups(
            lambda g: g, batch_format="pyarrow")
        return ds, 200, 2
    return ray.data.range(0), 0, 0


@pytest.mark.parametrize("batch_size", [None, "default"])
@pytest.mark.parametrize(
    "shape", ["filtered", "zero_column", "empty_reduce", "range0"])
def test_map_batches_never_calls_udf_on_an_empty_block(ray_session, shape,
                                                       batch_size):
    """Ray 2.49's ``map_batches`` drops 0-row blocks before batching
    (``Batcher.add``), so a UDF needs no empty-block or missing-column
    guard, and the package's UDFs have none.  Every shape below does
    hand empty blocks on (checked on the materialized input); the UDF
    reports each call as a returned row, since worker prints do not
    reach the driver.  A Ray upgrade that breaks this fails here first."""
    import ray

    ds, want_rows, want_calls = _empty_block_shapes(shape)
    blocks = ray.get(ds.materialize().to_arrow_refs())
    if shape != "range0":
        assert any(b.num_rows == 0 for b in blocks)

    def rows_seen(b: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([b.num_rows], pa.int64())})

    kw = {} if batch_size == "default" else {"batch_size": batch_size}
    ns = [r["n"] for r in ds.map_batches(
        rows_seen, batch_format="pyarrow", **kw).take_all()]
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


def test_bucketed_map_tolerates_schema_less_empty_blocks(ray_session):
    """Empty blocks without columns (what a filter-all hands on) mixed
    with normal blocks: they never reach the tag UDF or the fold."""
    import ray.data

    t = pa.table({"k": pa.array([1, 2, 1], pa.int64()),
                  "v": pa.array([10, 20, 30], pa.int64())})

    def drop_second(b: pa.Table) -> pa.Table:
        return pa.table({}) if b.column("k")[0].as_py() == 2 else b

    ds = ray.data.from_arrow([t.slice(0, 1), t.slice(1, 1), t.slice(2, 1)])
    out = bucketed_map(
        ds.map_batches(drop_second, batch_format="pyarrow"), ["k"],
        lambda g: g.group_by("k").aggregate([("v", "sum")]),
        num_partitions=3).to_pandas()
    assert dict(zip(out["k"], out["v_sum"])) == {1: 40}


def _lazy_keyed(n=600):
    """A lazy ``map_batches`` plan with no computed output: asking its
    schema would run a job."""
    import ray.data

    return ray.data.from_arrow(_keyed_table(n)).repartition(3).map_batches(
        lambda b: b, batch_format="pyarrow")


def _computed_rows(ds, schema_jobs) -> pa.Table:
    """Run ``ds``, check that running it asked no schema, then collect
    its non-empty blocks (whose ``to_arrow_refs`` asks the now computed
    schema, which runs nothing)."""
    import ray

    ds = ds.materialize()
    assert schema_jobs == []
    return pa.concat_tables(
        [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows])


@pytest.mark.parametrize("helper", [
    "aggregate", "aggregate_combine", "first", "map"])
def test_bucketing_helpers_run_no_schema_job(ray_session, schema_jobs,
                                             helper):
    """No bucketing helper asks a lazy plan for its schema (which runs
    the plan as a job and cancels the tasks it did not need); output
    types come from the rows themselves."""
    ds = _lazy_keyed()
    if helper.startswith("aggregate"):
        out = bucketed_aggregate(ds, ["ki"], [("v", "sum"), ("v", "min")],
                                 combine=helper.endswith("combine"),
                                 num_partitions=4)
        want_types = {"ki": pa.int64(), "v_sum": pa.int64(),
                      "v_min": pa.int64()}
        want_rows = 41  # 40 keys + null
    elif helper == "first":
        out = bucketed_first(ds, ["ks"], [("v", "ascending")],
                             num_partitions=4)
        want_types = {"ki": pa.int64(), "ks": pa.string(), "v": pa.int64()}
        want_rows = 6  # 5 values + null
    else:
        out = bucketed_map(ds, ["ki"], lambda g: g, num_partitions=4)
        want_types = {"ki": pa.int64(), "ks": pa.string(), "v": pa.int64()}
        want_rows = 600
    got = _computed_rows(out, schema_jobs)
    assert {f.name: f.type for f in got.schema} == want_types
    assert got.num_rows == want_rows


def test_merge_partial_records_runs_no_schema_job(ray_session, schema_jobs):
    """``merge_partial_records`` takes the doc id type from its group,
    not from ``Dataset.schema()``."""
    import ray.data

    from docling_graph_ray.functions.deep_merge import merge_partial_records

    t = pa.table({
        "doc_id": pa.array([1, 1, 2], pa.int32()),
        "page_no": pa.array([2, 1, 1], pa.int64()),
        "record": ['{"b": 2}', '{"a": 1}', '{"c": 3}'],
    })
    ds = ray.data.from_arrow(t).repartition(2).map_batches(
        lambda b: b, batch_format="pyarrow")
    got = _computed_rows(merge_partial_records(ds), schema_jobs)
    assert got.schema.field("doc_id").type == pa.int32()
    assert sorted(zip(got.column("doc_id").to_pylist(),
                      got.column("record").to_pylist())) == [
        (1, '{"a": 1, "b": 2}'), (2, '{"c": 3}')]
