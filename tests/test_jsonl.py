"""JSONL ingestion lane (sources/jsonl.py): byte-faithful decode, lane
parity with the Parquet path, and the corrupt-line salvage stance."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from docling_graph_ray.fixtures.pages import make_pages_table
from docling_graph_ray.sources.jsonl import (
    decode_jsonl_lines,
    jsonl_fixture_dir,
    read_jsonl_pages,
    rows_to_jsonl_bytes,
)


def _sorted(df):
    return df.sort_values(["url", "warc_ts", "text"]).reset_index(drop=True)


def test_jsonl_round_trip_byte_identical(ray_session):
    n = 200
    src = jsonl_fixture_dir(n, profile="t1", files=4)
    got = _sorted(read_jsonl_pages(src).to_pandas())
    exp = _sorted(make_pages_table(list(range(n)), 42, "t1").to_pandas())
    assert len(got) == n
    for c in ["url", "text", "lang"]:
        assert (got[c] == exp[c]).all(), c
    assert (got["warc_ts"] == exp["warc_ts"]).all()
    gb = [bytes(x) if x is not None else b"" for x in got["html"]]
    eb = [bytes(x) if x is not None else b"" for x in exp["html"]]
    assert gb == eb


def test_jsonl_lane_matches_parquet_lane(ray_session):
    """The flagship over JSONL produces the same per-url text hashes as
    over Parquet — the cross-lane invariant the oracle also checks."""
    from docling_graph_ray.fixtures.pages import pages_parquet_dir
    from docling_graph_ray.pipelines.extract import (
        dedup_extracted,
        extract_pages_dataset,
        read_pages_parquet,
    )

    n = 120
    cols = ["url", "text_sha256", "parse_status"]

    def run(ds):
        out = dedup_extracted(
            extract_pages_dataset(ds, num_partitions=8)
        ).to_pandas()[cols]
        return out.sort_values("url").reset_index(drop=True)

    a = run(read_jsonl_pages(jsonl_fixture_dir(n, profile="t1", files=3)))
    b = run(read_pages_parquet(pages_parquet_dir(n, profile="t1")))
    assert a.equals(b)


def test_jsonl_corrupt_line_salvaged():
    tbl = make_pages_table([0, 1], 42, "t1")
    raw = rows_to_jsonl_bytes(tbl)
    lines = raw.decode().splitlines()
    lines.insert(1, '{"url": broken json')
    out = decode_jsonl_lines(lines)
    assert out.num_rows == 3
    urls = out.column("url").to_pylist()
    assert urls.count("") == 1  # the corrupt line became a salvage row
    assert out.column("html").to_pylist()[urls.index("")] is None


def test_jsonl_reader_skips_done_marker(ray_session):
    src = jsonl_fixture_dir(50, profile="t1", files=2)
    assert (Path(src) / "_DONE").exists()
    assert read_jsonl_pages(src).count() == 50
