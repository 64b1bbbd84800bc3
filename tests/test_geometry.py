"""Geometry normalization: origin flip, quantizer, DoclingDocument prov.

Reference: document_processor.py:59-118 (BOTTOMLEFT→TOPLEFT),
models.py:72-94 (512-grid dclg quantization)."""

import json

import pyarrow as pa

from docling_graph_ray.stages.geometry import (
    normalize_bbox,
    normalize_geometry_batch,
)


def test_normalize_bbox_flip():
    # bottom-left box: t measured from bottom (t > b); flips through 792
    assert normalize_bbox(10, 700, 110, 650, origin="BOTTOMLEFT",
                          page_height=792) == [10, 92, 110, 142]
    # top-left passes through, orders corners
    assert normalize_bbox(110, 142, 10, 92) == [10, 92, 110, 142]
    # bottom-left without a page height cannot flip → None, never wrong
    assert normalize_bbox(1, 2, 3, 4, origin="BOTTOMLEFT",
                          page_height=None) is None


def test_quantize_512():
    """Grid cells clip to [0, 511]; an axis whose page size is 0 maps to
    cell 0 (the other axis still quantizes)."""
    batch = pa.table({
        "l": [0.0, 306.0, 1.0], "t": [0.0, 396.0, 1.0],
        "r": [612.0, 306.0, 2.0], "b": [792.0, 396.0, 2.0],
        "origin": ["TOPLEFT"] * 3,
        "page_w": [612.0, 612.0, 0.0], "page_h": [792.0, 792.0, 792.0],
    })
    out = normalize_geometry_batch(batch)
    q = [list(r) for r in zip(*(out.column(c).to_pylist()
                                for c in ("q_l", "q_t", "q_r", "q_b")))]
    assert q == [[0, 0, 511, 511], [256, 256, 256, 256], [0, 0, 0, 1]]


def test_normalize_geometry_batch_vectorized():
    batch = pa.table({
        "l": [10.0, 10.0], "t": [700.0, 92.0],
        "r": [110.0, 110.0], "b": [650.0, 142.0],
        "origin": ["BOTTOMLEFT", "TOPLEFT"],
        "page_w": [612.0, 612.0], "page_h": [792.0, 792.0],
    })
    out = normalize_geometry_batch(batch)
    # both rows describe the SAME box after normalization
    for c in ("tl_l", "tl_t", "tl_r", "tl_b", "q_l", "q_t", "q_r", "q_b"):
        vals = out.column(c).to_pylist()
        assert vals[0] == vals[1], c
    assert out.column("tl_t").to_pylist() == [92, 92]
    assert out.column("q_l").to_pylist()[0] == int(10 * 512 / 612)


def test_doc_json_prov_normalization():
    """The DoclingDocument-JSON lane normalizes prov bboxes instead of
    dropping them (the round-1 gap)."""
    from docling_graph_ray.stages.doc_formats import extract_doc_json

    doc = {
        "schema_name": "DoclingDocument",
        "pages": {"1": {"page_no": 1, "size": {"width": 612, "height": 792}}},
        "texts": [
            {"text": "bottom-left item", "label": "text",
             "prov": [{"page_no": 1,
                       "bbox": {"l": 10, "t": 700, "r": 110, "b": 650,
                                "coord_origin": "BOTTOMLEFT"}}]},
            {"text": "top-left item", "label": "text",
             "prov": [{"page_no": 1,
                       "bbox": {"l": 5, "t": 20, "r": 50, "b": 40,
                                "coord_origin": "TOPLEFT"}}]},
            {"text": "legacy list bbox", "label": "text",
             "prov": [{"page_no": 1, "bbox": [1, 2, 3, 4]}]},
            {"text": "no geometry", "label": "text"},
        ],
    }
    r = extract_doc_json(json.dumps(doc).encode())
    assert r["parse_status"] == "ok"
    bboxes = [s["bbox"] for s in r["spans"]]
    assert bboxes[0] == [10, 92, 110, 142]   # flipped through 792
    assert bboxes[1] == [5, 20, 50, 40]      # passthrough
    assert bboxes[2] == [1, 2, 3, 4]         # already-normalized list
    assert bboxes[3] is None
