"""JSONL crawl-corpus source: the third ingestion lane.

Text corpora very commonly ship as gzipped JSONL (one JSON object per
line) rather than Parquet or WARC — e.g. dataset dumps and scraper
output.  This lane reads such files into the north-rule pages shape
``(url, warc_ts, html, text, lang)`` so the flagship extraction pipeline
runs unchanged on them.

Conventions (documented, deterministic):
- ``html`` rides base64-encoded (JSON cannot carry raw bytes); absent or
  empty → NULL bytes, which the extract stage's salvage ladder treats as
  a fallback-text row — no row is unroutable.
- ``warc_ts`` is an ISO-8601 string, parsed to timestamp[us].
- Unknown extra keys per line are ignored (projection happens in the
  decode batch, so only the five north-rule columns leave the reader).

Scale shape: one read task per file (a gzip member is the read atom —
no random access), with gunzip + NDJSON parse + base64 fused INSIDE the
read task so decoded pages are the first thing to touch the object
store.  Large corpora should shard across many files, the same contract
as the WARC lane.  The decode is Arrow's native NDJSON reader
(single-threaded C) with a per-line salvage fallback for corrupt files.

Writer half (`write_jsonl`) exists for fixtures/round-trips, mirroring
sources/warc.py's deterministic writer.
"""

from __future__ import annotations

import base64
import gzip
import json

import numpy as np
import pyarrow as pa

from docling_graph_ray.fixtures.pages import PAGES_SCHEMA


def rows_to_jsonl_bytes(tbl: pa.Table) -> bytes:
    """Serialize a pages table to JSONL bytes (html → base64, ts → ISO)."""
    out = []
    for r in tbl.to_pylist():
        out.append(json.dumps({
            "url": r["url"],
            "warc_ts": r["warc_ts"].isoformat() if r["warc_ts"] else None,
            "html_b64": base64.b64encode(r["html"]).decode("ascii")
            if r["html"] is not None else "",
            "text": r["text"],
            "lang": r["lang"],
        }, ensure_ascii=False))
    return ("\n".join(out) + "\n").encode("utf-8")


def write_jsonl(tbl: pa.Table, path: str, *, compress: bool = True) -> None:
    raw = rows_to_jsonl_bytes(tbl)
    if compress:
        raw = gzip.compress(raw, compresslevel=1, mtime=0)
    with open(path, "wb") as f:
        f.write(raw)


def decode_jsonl_lines(lines) -> pa.Table:
    """Lines of JSON → north-rule pages table."""
    urls, tss, htmls, texts, langs = [], [], [], [], []
    for line in lines:
        if not line or not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            # salvage stance: a corrupt line becomes a failed-parse row
            # rather than poisoning the batch
            urls.append("")
            tss.append(None)
            htmls.append(None)
            texts.append(line)
            langs.append("")
            continue
        urls.append(str(obj.get("url") or ""))
        ts = obj.get("warc_ts")
        tss.append(np.datetime64(ts, "us") if ts else None)
        b64 = obj.get("html_b64") or ""
        try:
            htmls.append(base64.b64decode(b64) if b64 else None)
        except ValueError:
            htmls.append(None)
        texts.append(str(obj.get("text") or ""))
        langs.append(str(obj.get("lang") or ""))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    }).cast(PAGES_SCHEMA)


_JSONL_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html_b64", pa.string()),
    ("text", pa.string()),
    ("lang", pa.string()),
])


def decode_jsonl_bytes(raw: bytes) -> pa.Table:
    """Decompressed NDJSON bytes → north-rule pages table.

    Fast path: Arrow's native NDJSON reader (C, single-threaded — the
    read task owns exactly 1 CPU; Arrow's default thread pool would
    oversubscribe it) with an explicit schema so extra keys are ignored
    and ``warc_ts`` parses straight to timestamp[us].  Measured 0.44 s
    vs 0.84 s per 50 MB file against the per-line ``json.loads`` path.
    Any malformed line (corrupt JSON, blank line, type mismatch) fails
    the whole-buffer parse, and the buffer falls back to the per-line
    salvage decoder — correctness is line-based either way; only clean
    files take the fast lane.
    """
    import pyarrow.compute as pc
    import pyarrow.json as pj

    try:
        tbl = pj.read_json(
            pa.BufferReader(raw),
            read_options=pj.ReadOptions(use_threads=False),
            parse_options=pj.ParseOptions(
                explicit_schema=_JSONL_SCHEMA,
                unexpected_field_behavior="ignore",
            ),
        )
    except pa.ArrowInvalid:
        return decode_jsonl_lines(
            raw.decode("utf-8", errors="replace").splitlines())
    htmls = []
    for s in tbl.column("html_b64").to_pylist():
        if not s:
            htmls.append(None)
            continue
        try:
            htmls.append(base64.b64decode(s))
        except ValueError:
            htmls.append(None)
    return pa.table({
        "url": pc.coalesce(tbl.column("url"), ""),
        "warc_ts": tbl.column("warc_ts"),
        "html": pa.array(htmls, pa.binary()),
        "text": pc.coalesce(tbl.column("text"), ""),
        "lang": pc.coalesce(tbl.column("lang"), ""),
    }).cast(PAGES_SCHEMA)


def _make_datasource_class():
    # Deferred import, mirroring sources/warc.py: the writer half of
    # this module is used driver-free in tests/tools.
    from ray.data.datasource import FileBasedDatasource

    class _JsonlDatasource(FileBasedDatasource):
        """Fused read+decode: json + base64 decode happens INSIDE the
        read task, so decoded pages are the FIRST thing to touch the
        object store.  The earlier read_text → map_batches shape moved
        every payload through the store twice (raw lines block, then
        decoded block) and measured 0.38x the Parquet lane at 96k rows;
        fusing removes the extra hop (the WARC lane's shape)."""

        _FILE_EXTENSIONS = ["jsonl", "jsonl.gz"]

        def __init__(self, paths, *, batch_rows: int = 1024, **kwargs):
            super().__init__(paths, file_extensions=self._FILE_EXTENSIONS,
                             **kwargs)
            self._batch_rows = batch_rows

        def _read_stream(self, f, path: str):
            raw = f.readall() if hasattr(f, "readall") else f.read()
            if isinstance(raw, pa.Buffer):
                raw = raw.to_pybytes()
            if raw[:2] == b"\x1f\x8b":  # gzip magic, not path sniffing
                raw = gzip.decompress(raw)
            tbl = decode_jsonl_bytes(raw)
            for i in range(0, tbl.num_rows, self._batch_rows):
                yield tbl.slice(i, self._batch_rows)

    return _JsonlDatasource


class JsonlDatasource:
    """Constructor facade so ``JsonlDatasource(paths, ...)`` works
    without importing ray.data at module import time."""

    def __new__(cls, paths, **kwargs):
        return _make_datasource_class()(paths, **kwargs)


def read_jsonl_pages(paths, *, batch_rows: int = 1024, **read_kwargs):
    """``ray.data.Dataset`` of north-rule pages over .jsonl / .jsonl.gz
    files.  One read task per file (gzip members have no random access;
    large corpora should shard across many files — the same contract as
    the WARC lane); json + base64 decode is fused into the read task.

    For a local directory the block count is pinned to the file count:
    Ray's default planner targets ~200 blocks and appends a
    SplitBlocks(4) that shreds each ~50 MB decoded file into 375-row
    blocks — measured to cost the downstream extract pool +15% CPU and
    halve its effective parallelism at 96k rows.  One block per file is
    the natural unit (the gzip member is the read atom) and matches the
    parquet lane's 32 MB coalescing.
    """
    import os

    import ray.data

    if "override_num_blocks" not in read_kwargs:
        try:
            n_files = sum(
                1 for e in os.scandir(paths)
                if e.is_file() and (e.name.endswith(".jsonl")
                                    or e.name.endswith(".jsonl.gz"))
            )
        except (OSError, TypeError):
            n_files = 0
        if n_files:
            read_kwargs["override_num_blocks"] = n_files
    return ray.data.read_datasource(
        JsonlDatasource(paths, batch_rows=batch_rows), **read_kwargs
    )


def jsonl_fixture_dir(n: int, seed: int = 42, profile: str = "t1",
                      files: int = 4) -> str:
    """Materialize n synthetic pages as .jsonl.gz files under /tmp ONCE
    and reuse (cache key covers the generator + this module's source),
    mirroring warc_fixture_dir."""
    import hashlib
    import os
    from pathlib import Path

    from docling_graph_ray.fixtures import pages as pages_mod
    from docling_graph_ray.fixtures.pages import make_pages_table

    src = Path(pages_mod.__file__).read_bytes() + Path(__file__).read_bytes()
    key = hashlib.sha256(
        src + f"{n}:{seed}:{profile}:{files}".encode()
    ).hexdigest()[:16]
    out_dir = f"/tmp/docling_graph_ray_jsonl_{key}"
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n, files + 1).astype(int)
    for i in range(files):
        idx = np.arange(bounds[i], bounds[i + 1])
        tbl = make_pages_table(idx, seed, profile)
        write_jsonl(tbl, os.path.join(out_dir, f"part-{i:04d}.jsonl.gz"))
    with open(done, "w") as f:
        f.write("ok\n")
    return out_dir
