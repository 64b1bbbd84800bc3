"""Eager single-process golden computation (the per-url oracle).

Runs the SAME per-row extraction code as the Ray pipeline, but serially
with plain pyarrow — no Ray, no parallelism, no block structure.  The
golden contract (BASELINE.json): the distributed pipeline's
``extracted_text`` must be **byte-identical per url** to this eager
output, for any parallelism level.  This mirrors the reference's golden-
output test strategy (reference: tests/fixtures/templategen/golden/ —
checked-in expected outputs compared byte-for-byte).
"""

from __future__ import annotations

import pyarrow as pa

from docling_graph_ray.fixtures.pages import make_pages_table
from docling_graph_ray.pipelines.extract import (
    LINEAGE_SCHEMA,
    _dedup_latest_wins,
    _lineage_record,
)
from docling_graph_ray.functions.hashing import url_part_ids
from docling_graph_ray.stages.html_extract import extract_batch
from docling_graph_ray.stages.pdf_parse import PDF_MAGIC, PdfParseActor


def golden_extract(
    n: int, seed: int = 42, profile: str = "t2", num_partitions: int = 16
) -> tuple[pa.Table, pa.Table]:
    """→ (deduped extracted table sorted by url, lineage table by part_id)."""
    return golden_extract_pages(make_pages_table(list(range(n)), seed, profile),
                                num_partitions)


def golden_extract_pages(pages: pa.Table, num_partitions: int = 16
                         ) -> tuple[pa.Table, pa.Table]:
    """``golden_extract`` of a given pages table."""
    htmls = pages.column("html").to_pylist()
    is_pdf = pa.array([(h or b"")[: len(PDF_MAGIC)] == PDF_MAGIC for h in htmls])
    # NOTE: rows above ExtractActor.giant_parse_cap (8 MB) would parse
    # head-only in the Ray path; no fixture profile crosses the cap, so
    # the eager oracle needs no cap branch (asserted by the unit test on
    # the actor's cap mechanism with an overridden small cap).

    html_rows = pages.filter(pa.compute.invert(is_pdf))
    pdf_rows = pages.filter(is_pdf)

    parts = []
    if html_rows.num_rows:
        parts.append(extract_batch(html_rows))
    if pdf_rows.num_rows:
        parts.append(PdfParseActor()(pdf_rows))
    extracted = pa.concat_tables(parts)

    pid = pa.array(
        url_part_ids(extracted.column("url").to_pylist(), num_partitions), pa.int32()
    )
    extracted = extracted.append_column("part_id", pid)

    dedup_parts, lineage = [], []
    for p in range(num_partitions):
        grp = extracted.filter(pa.compute.equal(extracted.column("part_id"), p))
        if grp.num_rows == 0:
            continue
        d = _dedup_latest_wins(grp)
        dedup_parts.append(d)
        lineage.append(_lineage_record(p, d))
    deduped = pa.concat_tables(dedup_parts)
    deduped = deduped.take(pa.compute.sort_indices(deduped.column("url")))
    return deduped, pa.Table.from_pylist(lineage, schema=LINEAGE_SCHEMA)
