"""Structural CI for the driver contract (__ray_entry__.py): the
grading driver samples the FIRST 50 queries() entries, and the judge
runs the rest via tools/check_oracles.py — this test pins the wiring so
out-of-sample entries cannot silently fall off the oracle surface
(ADVICE r4 #5: keep the sampling boundary checked in CI)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent


def _entry():
    spec = importlib.util.spec_from_file_location(
        "ray_entry_surface_test", _REPO / "__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_oracle_keys_subset_of_queries():
    m = _entry()
    qs, sqls = m.queries(), m.oracle_sql()
    assert set(sqls) <= set(qs), sorted(set(sqls) - set(qs))
    # every entry is callable
    assert all(callable(fn) for fn in qs.values())


def test_driver_sample_is_all_oracle_bearing():
    """The first 50 queries (the driver's CORRECTNESS sample) must every
    one carry a DuckDB oracle — a reorder that pushes an oracle-less
    entry into the window silently weakens the hard signal."""
    m = _entry()
    qs, sqls = m.queries(), m.oracle_sql()
    first50 = list(qs)[:50]
    missing = [k for k in first50 if k not in sqls]
    assert not missing, missing
    # the flagship composite itself is in-sample (VERDICT r4 next-step #1)
    assert "pages_flagship_lineage" in first50


def test_oracle_count_floor():
    """Out-of-sample oracle-bearing entries are judge-run via
    tools/check_oracles.py; pin the floor so removals are deliberate."""
    m = _entry()
    qs, sqls = m.queries(), m.oracle_sql()
    assert len(sqls) >= 75, len(sqls)
    assert len(qs) >= 84, len(qs)


def test_every_query_has_oracle_or_rows_only_reason():
    """Each queries() entry carries a DuckDB twin or a written reason in
    ROWS_ONLY, never both and never neither."""
    m = _entry()
    qs, sqls, rows_only = m.queries(), m.oracle_sql(), m.ROWS_ONLY
    assert set(qs) == set(sqls) | set(rows_only), (
        sorted(set(qs) - set(sqls) - set(rows_only)),
        sorted((set(sqls) | set(rows_only)) - set(qs)))
    assert not set(sqls) & set(rows_only), sorted(set(sqls) & set(rows_only))
    empty = [k for k, why in rows_only.items() if not why.strip()]
    assert not empty, empty
