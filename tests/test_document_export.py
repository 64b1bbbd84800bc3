"""DocLang view of an extracted row, read back by ``extract_doclang``
(docling_exporter.py:25-120 .dclg semantics on the extracted-row model)."""

from docling_graph_ray.stages.doc_formats import extract_doclang
from docling_graph_ray.stages.exporters import render_doclang

TEXT = "Intro heading\n\nBody & <tags> here\n\nSecond page text"
SPANS = [
    {"span_id": 0, "start": 0, "end": 13, "kind": "block", "path": "h1",
     "block_class": "heading", "page_no": 1, "bbox": [10, 10, 200, 40]},
    {"span_id": 1, "start": 15, "end": 33, "kind": "block", "path": "p",
     "block_class": "text", "page_no": 1, "bbox": None},
    {"span_id": 2, "start": 35, "end": 51, "kind": "block", "path": "p",
     "block_class": "text", "page_no": 2, "bbox": [5, 5, 100, 90]},
]


def test_doclang_escapes_and_geometry(tmp_path):
    dclg = render_doclang(TEXT, SPANS)
    assert '<heading bbox="10,10,200,40" page="1">' in dclg
    assert "&amp; &lt;tags&gt;" in dclg
    assert "\x00" not in render_doclang("bad\x00ctrl", [
        {"span_id": 0, "start": 0, "end": 8, "block_class": "text"}])


def test_doclang_write_read_roundtrip():
    dclg = render_doclang(TEXT, SPANS).encode()
    back = extract_doclang(dclg)
    assert back["parse_status"] != "failed"
    # text round-trips (block structure preserved, entities restored)
    assert back["extracted_text"] == TEXT
    assert [s["block_class"] for s in back["spans"]] == [
        "heading", "text", "text"]


def test_export_document_invalid_class_tag(tmp_path):
    # a class that is not a valid element name gets sanitized, not emitted raw
    dclg = render_doclang("x", [{"span_id": 0, "start": 0, "end": 1,
                                 "block_class": "1 weird/class"}])
    assert "<b_1_weird_class>" in dclg
