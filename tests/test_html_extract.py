"""Unit tests for the HTML block extractor (SURVEY.md §5.2 item 1)."""

import gzip
import re
import sys

import pyarrow as pa

from docling_graph_ray.stages.html_extract import (
    decode_html,
    extract_batch,
    extract_html_doc,
    normalize_ws,
    parse_blocks,
)

ARTICLE = b"""<!DOCTYPE html><html><head><title>t</title>
<script>var boiler = "should never appear";</script>
<style>.x { color: red }</style></head><body>
<header><h1>Site Title</h1><nav><ul>
<li><a href="/a">nav one</a></li><li><a href="/b">nav two</a></li></ul></nav></header>
<article>
<h2>A Heading Here</h2>
<p>This is the first long content paragraph with plenty of words in it to pass the length threshold easily.</p>
<p>Second content paragraph, also comfortably long enough to be kept by the density classifier rules.</p>
<ul><li>a real content list item with words</li><li>another content item here</li></ul>
</article>
<footer><p>Copyright words that are boilerplate chrome and must be dropped always.</p></footer>
</body></html>"""


def test_article_extraction_keeps_content_drops_chrome():
    r = extract_html_doc(ARTICLE, None)
    t = r["extracted_text"]
    assert "first long content paragraph" in t
    assert "Second content paragraph" in t
    assert "A Heading Here" in t
    assert "nav one" not in t
    assert "Copyright words" not in t
    assert "should never appear" not in t
    assert "color: red" not in t
    assert r["parse_status"] == "ok"


def test_spans_offsets_slice_back_to_blocks():
    r = extract_html_doc(ARTICLE, None)
    t = r["extracted_text"]
    assert len(r["spans"]) == r["n_blocks_kept"]
    for s in r["spans"]:
        seg = t[s["start"]:s["end"]]
        assert seg == seg.strip() and len(seg) > 0
    # spans tile the text in reading order separated by \n\n
    rebuilt = "\n\n".join(t[s["start"]:s["end"]] for s in r["spans"])
    assert rebuilt == t


def test_nav_only_page_yields_empty_text():
    html = (
        b"<html><body><nav><ul><li><a href='/'>home</a></li>"
        b"<li><a href='/x'>about us page</a></li></ul></nav>"
        b"<footer><a href='/t'>terms</a></footer></body></html>"
    )
    r = extract_html_doc(html, None)
    assert r["extracted_text"] == ""
    assert r["n_blocks_kept"] == 0
    assert r["parse_status"] == "ok"


def test_link_farm_dropped():
    farm = " ".join(f'<a href="/{j}">farm link number {j}</a>' for j in range(200))
    html = (
        "<html><body><article><p>"
        "A genuine content paragraph that is long enough to be kept by the extractor rules."
        f"</p><div>{farm}</div></article></body></html>"
    ).encode()
    r = extract_html_doc(html, None)
    assert "farm link" not in r["extracted_text"]
    assert "genuine content" in r["extracted_text"]


def test_decode_gzip_and_charsets():
    txt, st = decode_html(gzip.compress("<p>héllo</p>".encode("utf-8")))
    assert "héllo" in txt and st == "ok"
    raw = '<meta charset="windows-1252"><p>café—test</p>'.encode("cp1252")
    txt, st = decode_html(raw)
    assert "café—test" in txt and st == "ok"
    txt, st = decode_html("plain utf-8 é".encode("utf-8"))
    assert st == "ok"
    # invalid bytes, no declaration → lenient cp1252 rung
    txt, st = decode_html(b"<p>bad \xe2 trailing</p>")
    assert st == "salvaged" and "bad" in txt


def test_decode_accepts_arrow_buffer_memoryview():
    """Regression: pyarrow binary buffers expose signed-format ('b')
    memoryviews, whose slices never compare equal to bytes literals —
    the gzip-magic check must coerce before comparing, or every gzipped
    row read zero-copy off an Arrow column silently skips decompression
    and lands in the salvage rung."""
    import pyarrow as pa

    payload = gzip.compress("<p>zero-copy héllo</p>".encode("utf-8"))
    arr = pa.array([payload], pa.binary())
    view = memoryview(arr[0].as_buffer())
    assert view.format == "b"  # the signed-format trap this guards
    txt, st = decode_html(view)
    assert st == "ok" and "zero-copy héllo" in txt
    # plain utf-8 via memoryview too
    arr2 = pa.array(["plain é".encode()], pa.binary())
    txt, st = decode_html(memoryview(arr2[0].as_buffer()))
    assert st == "ok" and "plain é" in txt


def test_fallback_text_rung():
    # corrupt gzip → decode failed → crawler text column used
    bad = b"\x1f\x8b\x00\x00garbage"
    r = extract_html_doc(bad, "crawler fallback text")
    assert r["parse_status"] == "fallback_text"
    assert r["extracted_text"] == "crawler fallback text"
    r2 = extract_html_doc(bad, None)
    assert r2["parse_status"] == "failed" and r2["extracted_text"] == ""


def test_unclosed_tags_still_parse():
    html = b"<html><body><article><p>First paragraph long enough to keep with many words here<p>Second paragraph also long enough to keep with many words here"
    r = extract_html_doc(html, None)
    assert "First paragraph" in r["extracted_text"]
    assert "Second paragraph" in r["extracted_text"]


def test_determinism_byte_identical():
    a = extract_html_doc(ARTICLE, None)
    b = extract_html_doc(ARTICLE, None)
    assert a == b


def test_extract_batch_schema_and_html_projected_away():
    from docling_graph_ray.fixtures.pages import make_pages_table
    from docling_graph_ray.stages.html_extract import EXTRACT_SCHEMA

    t = make_pages_table([20, 21, 22, 23], profile="t1")  # normal rows
    out = extract_batch(t)
    assert out.schema.equals(EXTRACT_SCHEMA)
    assert "html" not in out.column_names
    assert out.num_rows == 4


def test_table_cells_kept_paragraph_table_mix():
    html = (
        b"<html><body><article>"
        b"<p>Intro paragraph that is long enough to be kept by the classifier rules today.</p>"
        b"<table><tr><th>name</th><th>value</th></tr>"
        b"<tr><td>alpha metric</td><td>12345</td></tr></table>"
        b"</article></body></html>"
    )
    r = extract_html_doc(html, None)
    assert "alpha metric" in r["extracted_text"]
    kinds = {s["kind"] for s in r["spans"]}
    assert "cell" in kinds and "block" in kinds


def test_fast_scanner_equivalence():
    """The regex scanner and stdlib html.parser produce identical block
    lists across every fixture profile (including malformed, gzip,
    cp1252 and pathological rows)."""
    from docling_graph_ray.fixtures.pages import make_pages_table
    from docling_graph_ray.stages.html_extract import decode_html, parse_blocks

    for profile, n in (("t1", 300), ("t2", 150), ("bench", 100)):
        tbl = make_pages_table(list(range(n)), profile=profile)
        for raw in tbl.column("html").to_pylist():
            if (raw or b"").startswith(b"%PDF-"):
                continue  # binary lane rows never reach the HTML engine
            text, status = decode_html(raw or b"")
            if status == "failed" or not text:
                continue
            assert parse_blocks(text, engine="fast") == parse_blocks(
                text, engine="stdlib"
            )


def _ws_reference(s: str) -> str:
    return re.sub(r"\s+", " ", s).strip()


def test_fast_scanner_edge_cases():
    from docling_graph_ray.stages.html_extract import parse_blocks

    cases = [
        "<p>a &amp; b</p>",                          # charref in data
        "<p>x<!-- comment <p>hidden</p> -->y</p>",   # comment with tags
        "<script>var a = '<p>not text</p>';</script><p>real</p>",
        '<p><a href="/x?a>b">link</a> text here</p>',  # '>' inside attr
        "<p>unterminated <",                          # trailing junk
        "<p>3 < 5 and more words</p>",                # bare < in text
        "<P>UPPER tags</P>",
        # uppercase / mixed-case rawtext close tags (legacy HTML): the
        # scanner must not drop the remainder of the document
        "<SCRIPT>var a = 1;</SCRIPT><p>after upper script</p>",
        "<script>x</ScRiPt><p>after mixed script</p>",
        "<STYLE>.a{color:red}</STYLE><p>after upper style</p>",
        "<style>.b{}</ STYLE><p>spaced close</p>",
        "<script>never closed<p>rest is raw</p>",
        # whitespace: each case runs normalize_ws's clean (strip only) or
        # collapsing (split/join) branch in both engines
        "<p>  clean text, padded ends  </p>",
        "<p>line one\nline two\r\n\n   indented</p>",
        "<p>tab\tseparated\tcells</p>",
        "<p>double  space</p>",
        "<p>entity&nbsp;nbsp and raw\xa0nbsp</p>",
        "<p>line\u2028separator</p>",
        "<p>file\x1cseparator</p>",
        "<p>zero\u200bwidth space</p>",   # not printable, not whitespace
    ]
    for html in cases:
        blocks = parse_blocks(html, engine="fast")
        assert blocks == parse_blocks(html, engine="stdlib"), html
        for b in blocks:
            assert b["text"] == _ws_reference(b["text"]), html
    assert [b["text"] for b in parse_blocks(
        "<p>a\u2028b\x1c c\xa0 d\u200b\te</p>")] == ["a b c d\u200b e"]


def test_normalize_ws_matches_regex_on_every_code_point():
    """normalize_ws == the regex collapse for every code point, alone,
    between letters, between spaces and doubled -- so both of its
    branches agree with ``\\s`` on what whitespace is."""
    bad = []
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        for s in (f"a{c}b", c, f" {c} ", f"{c}{c}x "):
            if normalize_ws(s) != _ws_reference(s):
                bad.append((hex(cp), s))
    assert not bad, bad[:10]
