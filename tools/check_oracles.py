"""Local replica of the driver's correctness gate: run every ``queries()``
entry and its ``oracle_sql()`` twin at a given sf, compare row count,
sorted-column schema and order-insensitive value hash.  Each OK/FAIL/rows
line ends with the Ray side's 16-hex value hash (values compared as
strings) and an 8-hex digest of its sorted ``column:dtype`` pairs, so the
outputs of two revisions can be diffed to show which query results
changed, a dtype drift (int32 -> int64) included.  Usage:

    python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import duckdb
import pandas as pd

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.apply(lambda r: "|".join(r.values), axis=1).tolist())
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def dtype_digest(df: pd.DataFrame) -> str:
    pairs = sorted(f"{c}:{df[c].dtype}" for c in df.columns)
    return hashlib.sha256("\n".join(pairs).encode()).hexdigest()[:8]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    # Ray's driver prints raylet warnings (e.g. "N PYTHON worker processes
    # have been started", a different N per run) to sys.stdout from a
    # background thread, whatever log_to_driver says; send everything but
    # the result lines to stderr, so that two revisions' outputs diff clean
    out, sys.stdout = sys.stdout, sys.stderr

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs, sqls = e.queries(), e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            rdf = to_pandas(fn(sf_dir))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL  {name}: ray error: {type(ex).__name__}: {ex}", file=out)
            failures.append(name)
            continue
        if name not in sqls:
            print(f"rows  {name}: {len(rdf)} rows (no oracle) "
                  f"dtypes={dtype_digest(rdf)}", file=out)
            continue
        odf = con.sql(sqls[name]).df()
        ok_rows = len(rdf) == len(odf)
        ok_schema = sorted(rdf.columns) == sorted(odf.columns)
        rhash = value_hash(rdf)
        ok_hash = ok_schema and rhash == value_hash(odf)
        status = "OK   " if (ok_rows and ok_schema and ok_hash) else "FAIL "
        print(
            f"{status} {name}: rows {len(rdf)}/{len(odf)} "
            f"schema={'Y' if ok_schema else 'N'} hash={'Y' if ok_hash else 'N'} "
            f"value={rhash} dtypes={dtype_digest(rdf)}",
            file=out,
        )
        if status.startswith("FAIL"):
            failures.append(name)
            if ok_schema and not ok_hash:
                print("  ray head:\n", rdf.sort_values(sorted(rdf.columns)[0]).head(3), file=out)
                print("  sql head:\n", odf.sort_values(sorted(odf.columns)[0]).head(3), file=out)
            elif not ok_schema:
                print("  ray cols:", sorted(rdf.columns), file=out)
                print("  sql cols:", sorted(odf.columns), file=out)
    print("failures:", failures or "none", file=out)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
