"""Real PDF parse lane: writer↔parser round-trips, geometry, salvage.

The fixture corpus of genuine small PDFs is generated by the in-repo
writer (fixtures/pdf_writer.py) and must round-trip byte-identical text
through the dependency-free parser (stages/pdf_codec.py) — VERDICT.md
round-2 item 3; reference semantics: document_processor.py:127-327."""

import pyarrow as pa
import pytest

from docling_graph_ray.fixtures.pdf_writer import LETTER, build_pdf, simple_text_pdf
from docling_graph_ray.stages.pdf_codec import parse_pdf
from docling_graph_ray.stages.pdf_parse import PdfParseActor, assemble_pdf_text

PARAS = [
    "Alpha beta gamma delta",
    "Second line with (parens) and \\ backslash",
    "Third line 12345 numbers",
    "Fourth and final line",
]


@pytest.mark.parametrize("style", ["tm", "td", "tstar", "tj_array", "hex"])
def test_roundtrip_byte_identical(style):
    pdf = simple_text_pdf(PARAS, op_style=style)
    r = parse_pdf(pdf)
    assert r["status"] == "ok"
    texts = [ln["text"] for p in r["pages"] for ln in p["lines"]]
    assert texts == PARAS


def test_multipage_and_mediabox():
    paras = [f"line {i} of corpus" for i in range(10)]
    pdf = simple_text_pdf(paras, op_style="tm", lines_per_page=4)
    r = parse_pdf(pdf)
    assert len(r["pages"]) == 3
    assert [len(p["lines"]) for p in r["pages"]] == [4, 4, 2]
    assert r["pages"][0]["width"] == LETTER[0]
    assert r["pages"][0]["height"] == LETTER[1]
    texts = [ln["text"] for p in r["pages"] for ln in p["lines"]]
    assert texts == paras


def test_bbox_topleft_origin():
    # baseline at y=700 from bottom, size 12 → top = 792 - 700 - 12 = 80
    pdf = build_pdf([{"lines": [("hello world", 72, 700, 12)]}])
    line = parse_pdf(pdf)["pages"][0]["lines"][0]
    l, t, rgt, b = line["bbox"]
    assert (l, t, b) == (72, 80, 92)
    assert rgt > l


def test_uncompressed_stream():
    pdf = build_pdf([{"lines": [("plain stream text", 72, 700, 12)]}],
                    compress=False)
    r = parse_pdf(pdf)
    assert r["status"] == "ok"
    assert r["pages"][0]["lines"][0]["text"] == "plain stream text"


def test_assemble_text_and_spans():
    pdf = simple_text_pdf(["one two", "three four", "five"],
                          op_style="tm", lines_per_page=2)
    text, spans = assemble_pdf_text(parse_pdf(pdf))
    assert text == "one two\nthree four\n\nfive"
    assert [s["page_no"] for s in spans] == [0, 0, 1]
    for s in spans:
        assert text[s["start"]:s["end"]] == ["one two", "three four", "five"][s["span_id"]]
        assert s["bbox"] is not None and len(s["bbox"]) == 4


def test_parse_one_ladder():
    actor = PdfParseActor()
    # rung 1: real parse
    t, st, spans = actor._parse_one(simple_text_pdf(["real content here"]))
    assert st == "ok" and t == "real content here" and spans[0]["page_no"] == 0
    # rung 2: legacy inline payload → salvaged
    legacy = (b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj\n"
              b"legacy payload words\n%%EOF")
    t, st, spans = actor._parse_one(legacy)
    assert st == "salvaged" and t == "legacy payload words"
    # rung 3: nothing → failed, kept
    t, st, spans = actor._parse_one(b"%PDF-1.4\ngarbage")
    assert st == "failed" and t == "" and spans == []
    # non-pdf bytes
    t, st, spans = actor._parse_one(b"<html></html>")
    assert st == "failed"


def test_actor_batch_schema(ray_session):
    import datetime

    from docling_graph_ray.stages.html_extract import EXTRACT_SCHEMA

    batch = pa.table({
        "url": ["u1", "u2"],
        "warc_ts": pa.array([datetime.datetime(2024, 1, 1)] * 2,
                            pa.timestamp("us")),
        "lang": ["en", "en"],
        "html": pa.array([simple_text_pdf(["doc one text"]),
                          b"not a pdf"], pa.binary()),
    })
    out = PdfParseActor()(batch)
    assert out.schema.equals(EXTRACT_SCHEMA)
    assert out.column("parse_status").to_pylist() == ["ok", "failed"]
    assert out.column("extracted_text").to_pylist()[0] == "doc one text"


def test_malformed_pdfs_never_throw():
    actor = PdfParseActor()
    good = simple_text_pdf(PARAS)
    cases = [
        good[: len(good) // 2],                    # truncated mid-stream
        good.replace(b"FlateDecode", b"LZWDecode"),  # unsupported filter
        good.replace(b"/Length", b"/Xength"),      # broken length key
        b"%PDF-1.4\n" + b"\x00" * 100,
        good[:200] + b"\xff\xfe" + good[220:],     # corrupted bytes
    ]
    for raw in cases:
        t, st, spans = actor._parse_one(raw)
        assert st in ("ok", "salvaged", "failed")


def test_pdf15_objstm_cid_roundtrip():
    """PDF >=1.5 layout (catalog/pages/font compressed in an ObjStm,
    xref stream, Identity-H CID font + ToUnicode CMap) round-trips with
    status ok — the round-2 verdict's missing modern-PDF coverage."""
    from docling_graph_ray.fixtures.pdf_writer import build_pdf15
    from docling_graph_ray.stages.pdf_codec import parse_pdf

    pdf = build_pdf15([
        {"lines": [("Hello CID world!", 72, 700, 12),
                   ("Second line, with punctuation: ok?", 72, 680, 12)]},
        {"lines": [("Page two text", 72, 700, 14)]},
    ])
    assert pdf.startswith(b"%PDF-1.5")
    # the page dicts must NOT exist as direct objects (only inside the
    # object stream) or the test proves nothing
    assert b"/Type /Page /Parent" not in pdf
    out = parse_pdf(pdf)
    assert out["status"] == "ok"
    texts = [ln["text"] for p in out["pages"] for ln in p["lines"]]
    assert texts == ["Hello CID world!",
                     "Second line, with punctuation: ok?",
                     "Page two text"]
    # deterministic bytes
    assert build_pdf15([{"lines": [("x", 72, 700, 12)]}]) == \
        build_pdf15([{"lines": [("x", 72, 700, 12)]}])


def test_parse_cmap_sections():
    from docling_graph_ray.stages.pdf_codec import parse_cmap

    cmap, width = parse_cmap(
        b"1 begincodespacerange <00> <FF> endcodespacerange\n"
        b"2 beginbfchar <01> <0041> <02> <00420043> endbfchar\n"
        b"1 beginbfrange <10> <12> <0061> endbfrange\n"
        b"1 beginbfrange <20> <21> [<0058> <0059>] endbfrange\n")
    assert width == 1
    assert cmap[0x01] == "A" and cmap[0x02] == "BC"
    assert cmap[0x10] == "a" and cmap[0x12] == "c"
    assert cmap[0x20] == "X" and cmap[0x21] == "Y"


def test_type0_without_tounicode_salvages():
    """A composite font with no ToUnicode must degrade to best-effort
    text (2-byte codes through chr()) and flag the parse as salvaged,
    never throw."""
    from docling_graph_ray.stages.pdf_codec import parse_pdf

    # hand-built uncompressed PDF: Type0 font, NO ToUnicode; the show
    # string is 2-byte codes for "Hi" (0x0048 0x0069)
    content = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm <00480069> Tj ET"
    stream_obj = (b"5 0 obj\n<< /Length %d >>\nstream\n" % len(content)
                  + content + b"\nendstream\nendobj\n")
    pdf = (
        b"%PDF-1.5\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Resources << /Font << /F1 4 0 R >> >> /Contents 5 0 R >>\n"
        b"endobj\n"
        b"4 0 obj\n<< /Type /Font /Subtype /Type0 /BaseFont /X "
        b"/Encoding /Identity-H >>\nendobj\n"
        + stream_obj + b"%%EOF\n"
    )
    out = parse_pdf(pdf)
    assert out["status"] == "salvaged"
    assert out["pages"][0]["lines"][0]["text"] == "Hi"


def test_image_only_pdf_detected():
    """A scanned-document PDF (image XObject, no text operators) must
    classify as image_only — the OCR-gap signal (reference closes it
    with RapidOCR, document_processor.py:199-230) — not fold into
    failed."""
    from docling_graph_ray.fixtures.pdf_writer import build_image_pdf

    out = parse_pdf(build_image_pdf(n_pages=2))
    assert out["status"] == "image_only"
    assert out["image_only_pages"] == 2
    assert all(p["has_image"] and not p["lines"] for p in out["pages"])

    # inline BI…ID…EI image, no XObject resource
    out2 = parse_pdf(build_image_pdf(n_pages=1, inline=True))
    assert out2["status"] == "image_only"
    assert out2["image_only_pages"] == 1


def test_image_pages_with_some_text_stay_ok():
    """A doc with one captioned page and one bare scan keeps its text
    (status ok) while still counting the text-free image page."""
    from docling_graph_ray.fixtures.pdf_writer import build_image_pdf

    out = parse_pdf(build_image_pdf(n_pages=2, text_pages=[0]))
    assert out["status"] == "ok"
    assert out["image_only_pages"] == 1
    assert out["pages"][0]["lines"][0]["text"] == "Caption page 0"


def test_actor_reports_image_only_status():
    from docling_graph_ray.fixtures.pdf_writer import build_image_pdf
    from docling_graph_ray.stages.pdf_parse import PdfParseActor

    t, st, spans = PdfParseActor()._parse_one(build_image_pdf())
    assert (t, st, spans) == ("", "image_only", [])
    # a text-free, image-free pdf still reports failed
    t2, st2, _ = PdfParseActor()._parse_one(
        build_pdf([{"lines": []}]))
    assert (t2, st2) == ("", "failed")


def test_image_only_lineage_counter(ray_session):
    """Flagship lane: an image-only PDF lands in n_image_only, not
    n_failed."""
    import shutil
    import tempfile

    import pyarrow as pa
    import ray.data

    from docling_graph_ray.fixtures.pdf_writer import build_image_pdf
    from docling_graph_ray.pipelines.extract import run_extract_pipeline

    rows = pa.table({
        "url": pa.array(["https://a.example/scan.pdf",
                         "https://b.example/doc.pdf",
                         "https://c.example/page.html"], pa.string()),
        "warc_ts": pa.array([1, 2, 3], pa.timestamp("us")),
        "html": pa.array([
            build_image_pdf(),
            simple_text_pdf(["Real text body for the parser."]),
            b"<html><body><p>Plain html paragraph of text.</p>"
            b"</body></html>",
        ], pa.binary()),
        "text": pa.array([None, None, None], pa.string()),
        "lang": pa.array(["en", "en", "en"], pa.string()),
    })
    out = tempfile.mkdtemp(prefix="imgonly_")
    try:
        lineage = run_extract_pipeline(
            ray.data.from_arrow(rows), out_dir=out, num_partitions=2
        ).to_pandas()
        assert int(lineage["n_image_only"].sum()) == 1
        assert int(lineage["n_failed"].sum()) == 0
        assert int(lineage["n_urls"].sum()) == 3
    finally:
        shutil.rmtree(out, ignore_errors=True)
