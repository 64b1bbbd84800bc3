"""Host-level web link graph construction from crawled pages.

The crawl-side bridge between the extraction flagship and the graph
family: harvest ``href`` targets from each page, resolve them against
the page's own host (relative links stay on-host; absolute links cross
hosts), and fold the pairs into a weighted ``(src_host, dst_host,
n_links)`` edge list — the input WebGraph-style host graph that
PageRank then consumes.

Scale shape: decode once (the flagship's ``decode_html`` — gzip sniff
+ charset fallback), write the decoded page text as the harvest's
input artifact (partitioned parquet — it doubles as the oracle's
evidence, the emitted-artifact pattern the kmeans oracle uses),
then one regex pass per page batch and a bucketed count aggregate.
Nothing page-sized survives the harvest; edges are two short strings
and a count.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# module-level on purpose: an import inside the batch UDF would execute
# in the worker process, defeating the package's cloudpickle by-value
# registration when the driver runs from a foreign cwd
from docling_graph_ray.stages.html_extract import decode_html

HREF_RE = re.compile(r'href="([^"]+)"')
HOST_RE = re.compile(r"^https?://([^/]+)")

EDGE_SCHEMA = pa.schema([
    ("src_host", pa.string()),
    ("dst_host", pa.string()),
    ("n_links", pa.int64()),
])


def decode_pages_batch(b: pa.Table) -> pa.Table:
    """(url, html binary) → (url, html_text) rows; binary (PDF) rows
    are routed away (they have no hrefs and belong to the PDF lane)."""
    urls, texts = [], []
    for url, raw in zip(b.column("url").to_pylist(),
                        b.column("html").to_pylist()):
        if raw is None or bytes(raw[:5]) == b"%PDF-":
            continue
        text, _status = decode_html(raw)
        urls.append(url)
        texts.append(text)
    return pa.table({"url": pa.array(urls, pa.string()),
                     "html_text": pa.array(texts, pa.string())})


def harvest_batch(b: pa.Table) -> pa.Table:
    """Decoded pages → batch-local (src_host, dst_host, n_links)
    partial counts.  href scan and host resolution mirror the oracle's
    ``regexp_extract_all`` / ``regexp_extract`` exactly."""
    src_all, dst_all = [], []
    for url, text in zip(b.column("url").to_pylist(),
                         b.column("html_text").to_pylist()):
        m = HOST_RE.match(url or "")
        if not m:
            continue
        src_host = m.group(1)
        for href in HREF_RE.findall(text or ""):
            if href.startswith("http"):
                hm = HOST_RE.match(href)
                dst = hm.group(1) if hm else src_host
            else:
                dst = src_host
            src_all.append(src_host)
            dst_all.append(dst)
    if not src_all:
        return EDGE_SCHEMA.empty_table()
    t = pa.table({"src_host": pa.array(src_all, pa.string()),
                  "dst_host": pa.array(dst_all, pa.string())})
    g = t.group_by(["src_host", "dst_host"]).aggregate([([], "count_all")])
    return g.rename_columns(["src_host", "dst_host", "n_links"]) \
        .cast(EDGE_SCHEMA)


def host_link_graph(pages, out_dir: str, *, num_partitions: int = 64):
    """Pages dataset → weighted host edge list, leaving the decoded
    pages at ``out_dir`` as the harvest's parquet evidence."""
    import ray
    import ray.data

    from docling_graph_ray.stages.bucketing import bucketed_aggregate

    decoded = pages.map_batches(decode_pages_batch,
                                batch_format="pyarrow")
    decoded.write_parquet(out_dir)
    return bucketed_aggregate(
        ray.data.read_parquet(out_dir).map_batches(
            harvest_batch, batch_format="pyarrow"),
        ["src_host", "dst_host"], [("n_links", "sum")],
        rename=["src_host", "dst_host", "n_links"], combine=True,
        num_partitions=num_partitions,
    )
