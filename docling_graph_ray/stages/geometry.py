"""Geometry normalization: BOTTOMLEFT→TOPLEFT origin flip + 512-grid
DocLang quantization, vectorized.

Reference semantics: ``_chunk_item_geometry`` flips bottom-left-origin
provenance bboxes through the page height into top-left ints
(docling_graph/core/extractors/document_processor.py:59-118) and the
``dclg_location`` quantizer scales the PRE-ROUNDING floats onto a
512-cell grid (core/provenance/models.py:72-94).

Two call shapes:
- :func:`normalize_bbox` — scalar, used by the DoclingDocument-JSON lane
  (stages/doc_formats.py) per provenance entry;
- :func:`normalize_geometry_batch` — the vectorized numpy pass over an
  Arrow batch of (l, t, r, b, origin, page_w, page_h) columns, emitting
  top-left int coords plus the quantized grid cells; this is the
  ``map_batches`` shape used by the ``doc_geometry`` query.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

TOPLEFT = "TOPLEFT"
BOTTOMLEFT = "BOTTOMLEFT"
GRID = 512


def normalize_bbox(l: float, t: float, r: float, b: float, *,
                   origin: str = TOPLEFT,
                   page_height: float | None = None) -> list[int] | None:
    """→ top-left-origin ``[l, t, r, b]`` ints (t < b), or None when a
    bottom-left box arrives without a page height to flip through."""
    if origin == BOTTOMLEFT:
        if not page_height:
            return None
        t, b = page_height - t, page_height - b
    top, bot = (t, b) if t <= b else (b, t)
    left, right = (l, r) if l <= r else (r, l)
    return [int(round(left)), int(round(top)),
            int(round(right)), int(round(bot))]


def normalize_geometry_batch(batch: pa.Table) -> pa.Table:
    """Vectorized normalization over columns ``l t r b origin page_w
    page_h`` (+ passthrough of every other column): appends top-left int
    coords ``tl_l tl_t tl_r tl_b`` and grid cells ``q_l q_t q_r q_b``."""
    l = batch.column("l").to_numpy(zero_copy_only=False).astype(np.float64)
    t = batch.column("t").to_numpy(zero_copy_only=False).astype(np.float64)
    r = batch.column("r").to_numpy(zero_copy_only=False).astype(np.float64)
    b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.float64)
    pw = batch.column("page_w").to_numpy(zero_copy_only=False).astype(np.float64)
    ph = batch.column("page_h").to_numpy(zero_copy_only=False).astype(np.float64)
    origin = batch.column("origin").to_pylist()
    flip = np.array([o == BOTTOMLEFT for o in origin], dtype=bool)

    t2 = np.where(flip, ph - t, t)
    b2 = np.where(flip, ph - b, b)
    top = np.minimum(t2, b2)
    bot = np.maximum(t2, b2)
    left = np.minimum(l, r)
    right = np.maximum(l, r)

    def clipq(v: np.ndarray, page: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.floor(v * GRID / page)
        q = np.where(page > 0, q, 0.0)
        return np.clip(q, 0, GRID - 1).astype(np.int64)

    out = batch
    for name, arr in (
        ("tl_l", np.round(left).astype(np.int64)),
        ("tl_t", np.round(top).astype(np.int64)),
        ("tl_r", np.round(right).astype(np.int64)),
        ("tl_b", np.round(bot).astype(np.int64)),
        ("q_l", clipq(left, pw)), ("q_t", clipq(top, ph)),
        ("q_r", clipq(right, pw)), ("q_b", clipq(bot, ph)),
    ):
        out = out.append_column(name, pa.array(arr, pa.int64()))
    return out
