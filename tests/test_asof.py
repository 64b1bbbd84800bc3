"""stages.asof — backward as-of join (union-shuffle, per-group
searchsorted)."""

import pyarrow as pa
import pytest

import ray.data

from docling_graph_ray.stages.asof import asof_join


def _left(rows):
    return ray.data.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "k": pa.array([r[1] for r in rows], pa.int64()),
        "t": pa.array([r[2] for r in rows], pa.int64()),
    }))


def _right(rows):
    return ray.data.from_arrow(pa.table({
        "ok": pa.array([r[0] for r in rows], pa.int64()),
        "rk": pa.array([r[1] for r in rows], pa.int64()),
        "rt": pa.array([r[2] for r in rows], pa.int64()),
    }))


def _run(left, right, **kw):
    ds = asof_join(
        left, right,
        left_key="k", right_key="rk", left_time="t", right_time="rt",
        left_cols=["event_id", "k", "t"], right_cols=["ok", "rt"],
        right_tiebreak="ok", **kw,
    )
    out = ds.to_pandas().sort_values("event_id").reset_index(drop=True)
    return out


def test_asof_backward_inclusive(ray_session):
    left = _left([(1, 7, 10), (2, 7, 5), (3, 7, 4)])
    right = _right([(100, 7, 5), (101, 7, 8)])
    out = _run(left, right)
    # t=10 -> rt=8; t=5 -> rt=5 (inclusive); t=4 -> no match (inner drops)
    assert out["event_id"].tolist() == [1, 2]
    assert out["ok"].tolist() == [101, 100]


def test_asof_tie_takes_max_tiebreak(ray_session):
    left = _left([(1, 7, 9)])
    right = _right([(100, 7, 9), (104, 7, 9), (102, 7, 9)])
    out = _run(left, right)
    assert out["ok"].tolist() == [104]


def test_asof_outer_keeps_unmatched_with_nulls(ray_session):
    left = _left([(1, 7, 3), (2, 8, 50)])
    right = _right([(100, 7, 5)])
    out = _run(left, right, inner=False)
    assert out["event_id"].tolist() == [1, 2]
    assert out["ok"].isna().tolist() == [True, True]  # key 8 has no rights


def test_asof_keys_isolated(ray_session):
    left = _left([(1, 7, 10), (2, 8, 10)])
    right = _right([(100, 7, 9), (200, 8, 1)])
    out = _run(left, right)
    assert out["ok"].tolist() == [100, 200]


def test_asof_column_collision_raises(ray_session):
    left = _left([(1, 7, 10)])
    right = _right([(100, 7, 9)])
    with pytest.raises(ValueError, match="collide"):
        asof_join(left, right, left_key="k", right_key="rk",
                  left_time="t", right_time="rt",
                  left_cols=["event_id", "t"], right_cols=["t"])
