"""Unit tests for the HTML block extractor (SURVEY.md §5.2 item 1)."""

import gzip
import random
import re
import sys
from html import unescape
from html.parser import HTMLParser

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
        # start-end tags, routed as stdlib routes them: '/>' self-closes
        # (only br/hr flush) unless the '/' ends an unquoted attribute
        # value; '/ >' is not '/>'
        *(f"<div>words before {tag} words after</div>" for tag in (
            "<br/>", "<br />", '<img src="x"/>', "<img src=x />",
            "<input disabled/>", "<p/>",              # start-end
            "<img src=x/>", "<a href=/x/>", "<p / >",  # plain start tags
        )),
        "<script/><p>not raw text</p>",
        "<script src=a/>raw text</script><p>after</p>",
    ]
    for html in cases:
        blocks = parse_blocks(html, engine="fast")
        assert blocks == parse_blocks(html, engine="stdlib"), html
        for b in blocks:
            assert b["text"] == _ws_reference(b["text"]), html
    assert [b["text"] for b in parse_blocks(
        "<p>a\u2028b\x1c c\xa0 d\u200b\te</p>")] == ["a b c d\u200b e"]
    # a self-closed <p/> opens no block; <img .../> counts no inline tag
    blocks = parse_blocks(
        '<body><article><p>Some text here that is long enough '
        '<img src="a.png"/> and <b>x</b> more</p><p/>tail words after a '
        "self closing p</article></body>")
    assert [(b["n_tags"], b["tag_class"]) for b in blocks] == [
        (1, "p"), (0, "article")]


def test_normalize_ws_whitespace_tuples_are_isspace_minus_space():
    """normalize_ws looks for each of these code points; together they
    are every code point ``str.isspace()`` accepts but U+0020, once each,
    split at ASCII."""
    from docling_graph_ray.stages.html_extract import _ASCII_WS, _WIDE_WS

    listed = _ASCII_WS + _WIDE_WS
    assert len(set(listed)) == len(listed)
    assert set(listed) == {chr(c) for c in range(sys.maxunicode + 1)
                           if chr(c).isspace()} - {" "}
    assert all(c.isascii() for c in _ASCII_WS)
    assert not any(c.isascii() for c in _WIDE_WS)


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


# ---------------------------------------------------------------------------
# frozen reference: the finditer scanner + callback block model that the
# split tokenizer and fused block loop replaced, kept verbatim in behaviour
# as the oracle for the tokenizer fuzz test below

_REF_SCAN_RE = re.compile(
    r"<!--.*?(?:-->|\Z)"
    r"|<!\[CDATA\[.*?(?:\]\]>|\Z)"
    r"|<[!?][^>]*>"
    r"|</\s*([a-zA-Z][a-zA-Z0-9:_.-]*)[^>]*>"
    r"|<([a-zA-Z][a-zA-Z0-9:_.-]*)"
    r"((?:[^>\"']|\"[^\"]*\"|'[^']*')*)"
    r"(/?)>",
    re.DOTALL,
)
_REF_RAWTEXT = ("script", "style")
_REF_RAWTEXT_CLOSE = {
    t: re.compile(r"</\s*" + t, re.IGNORECASE) for t in _REF_RAWTEXT
}
_REF_BLOCK = frozenset(
    "p div h1 h2 h3 h4 h5 h6 li dt dd td th tr table ul ol section article "
    "blockquote pre main figure figcaption header footer aside nav form "
    "fieldset br hr body html".split()
)
_REF_SKIP = frozenset(
    "script style noscript template svg iframe object select textarea "
    "button title head".split()
)
_REF_BOILER = frozenset("nav aside footer header form".split())
_REF_PATH = frozenset(
    "body article section main table ul ol nav aside header footer".split()
)


class _RefBlockParser(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks = []
        self._cur = None
        self._skip = 0
        self._boiler = 0
        self._a = 0
        self._path = []
        self._cur_tag = "body"

    def _flush(self):
        if self._cur is not None and self._cur["parts"]:
            self.blocks.append(self._cur)
        self._cur = None

    def handle_starttag(self, tag, attrs):
        if tag in _REF_SKIP:
            self._skip += 1
            return
        if tag in _REF_BLOCK:
            self._flush()
            if tag not in ("br", "hr"):
                self._cur_tag = tag
            if tag in _REF_BOILER:
                self._boiler += 1
            if tag in _REF_PATH:
                self._path.append(tag)
        else:
            if self._cur is not None:
                self._cur["n_tags"] += 1
            if tag == "a":
                self._a += 1

    def handle_endtag(self, tag):
        if tag in _REF_SKIP:
            if self._skip > 0:
                self._skip -= 1
            return
        if tag in _REF_BLOCK:
            self._flush()
            if tag in _REF_BOILER and self._boiler > 0:
                self._boiler -= 1
            if tag in _REF_PATH and self._path and self._path[-1] == tag:
                self._path.pop()
            self._cur_tag = self._path[-1] if self._path else "body"
        elif tag == "a" and self._a > 0:
            self._a -= 1

    def handle_startendtag(self, tag, attrs):
        if tag in ("br", "hr"):
            self._flush()

    def handle_data(self, data):
        if self._skip > 0 or not data or data.isspace():
            return
        if self._cur is None:
            self._cur = {
                "parts": [], "link_chars": 0, "n_tags": 0,
                "tag_class": self._cur_tag, "boiler": self._boiler > 0,
                "path": "/".join(self._path) or "body",
            }
        self._cur["parts"].append(data)
        if self._a > 0:
            self._cur["link_chars"] += len(data)


def _ref_scan_feed(p, s):
    pos, n = 0, len(s)
    while pos < n:
        last, restart = pos, None
        for m in _REF_SCAN_RE.finditer(s, pos):
            start = m.start()
            if start > last:
                data = s[last:start]
                p.handle_data(unescape(data) if "&" in data else data)
            end_name, start_name, _attrs, selfclose = m.groups()
            if start_name is not None:
                tag = start_name.lower()
                if selfclose:
                    p.handle_startendtag(tag, [])
                else:
                    p.handle_starttag(tag, [])
                    if tag in _REF_RAWTEXT:
                        cm = _REF_RAWTEXT_CLOSE[tag].search(s, m.end())
                        p.handle_endtag(tag)
                        if cm is None:
                            last = restart = n
                        else:
                            gt = s.find(">", cm.start())
                            last = restart = (gt + 1) if gt >= 0 else n
                        break
            elif end_name is not None:
                p.handle_endtag(end_name.lower())
            last = m.end()
        else:
            if last < n:
                data = s[last:]
                p.handle_data(unescape(data) if "&" in data else data)
            return
        pos = restart if restart is not None else n


def _ref_parse_blocks(html):
    p = _RefBlockParser()
    _ref_scan_feed(p, html)
    p._flush()
    out = []
    for b in p.blocks:
        joined = "".join(b["parts"])
        text = normalize_ws(joined)
        if text:
            out.append({
                "text": text, "len": len(text),
                "link_chars": min(b["link_chars"], len(joined)),
                "n_tags": b["n_tags"], "tag_class": b["tag_class"],
                "boiler": b["boiler"], "path": b["path"],
            })
    return out


_FUZZ_ALPHABET = (
    ["<", "<", "<", ">", ">", ">", "/", "</", '"', "'", "!--", "-->",
     "![CDATA[", "]]>", "?", "&amp;", "&", "\xa0", "\n", " ", " ", "=",
     "script", "SCRIPT", "Script", "style", "STYLE", "x", "some words"]
    + "p div li td h1 br hr nav footer article body ul".split()  # block
    + "noscript title head textarea".split()                     # skip
    + "a A b span em img".split()                                # inline
    # anchors: text-only ones are one token, the rest fall through
    + ["<a>", "<A HREF='x>y'>", "</a>", "</a >", "</ a>", "</A>", "<a/>",
       "<a href=x/>", "<abbr>", "</abbr>", "<a><a>x</a></a>",
       "<title><a>x</a></title>", "<a>x &amp; y</a>", "<a>3 < 5</a>",
       "</a", "<a href='/x'>some words</a>"]
)


def test_split_tokenizer_matches_frozen_scanner_fuzz():
    """The split tokenizer + fused block loop give the same blocks as the
    finditer scanner they replaced, on 50,000 seeded HTML-like strings.
    Strings with '/>' are skipped: start-end tags are routed as stdlib
    does now (test_fast_scanner_edge_cases pins those)."""
    rng = random.Random(20261019)
    checked, bad = 0, []
    while checked < 50_000:
        s = "".join(rng.choices(_FUZZ_ALPHABET, k=rng.randint(1, 40)))
        if "/>" in s:
            continue
        checked += 1
        if parse_blocks(s) != _ref_parse_blocks(s):
            bad.append(s)
    assert not bad, (len(bad), bad[:5])


# XHTML-style tag pieces: names (block, skip, inline, br/hr in any case,
# raw-text), attributes with quoted and unquoted values, '/' in every
# position, the tag ends '>', '/>', ' />', '/ >', and anchors.  Left out:
# an attribute name that starts with '=' and a quote inside an unquoted
# value, where the fast tokenizer's attribute run differs from stdlib's
# (<p =x/> and <p k=a"b/>); an end tag name followed by a character that
# may not follow it, which stdlib takes into the name (</a<b> ends a tag
# named 'a<b'); and an end tag left open at the end of the input, where
# stdlib splits the data before it and drops a whitespace-only piece
# ('y\n</a' gives 'y</a').  The frozen-scanner fuzz above has '</a'.
_SC_NAMES = ("p div li br hr BR Hr nav article img input a A abbr b span "
             "script style title".split())
_SC_ATTRS = [" k", " k=v", ' k="v w"', " k='v'", " k=/v/", ' k = "a/>b"',
             " k=v/", "/", " /", " k= v", " disabled"]
_SC_ENDS = [">", "/>", " />", "/ >", "/>"]
_SC_TEXT = ["some words", "x", " ", "\n", "&amp;", "\xa0", "more text here",
            # anchor pieces
            "<a>", "<A HREF='x>y'>", "</a >", "</ a>", "<a/>", "<a href=x/>",
            "<abbr>", "<a><a>x</a></a>", "<title><a>x</a></title>",
            "<a>x &amp; y</a>", "<a>3 < 5</a>",
            "<a href='/x'>link words</a>"]


def _sc_piece(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.55:
        return ("<" + rng.choice(_SC_NAMES)
                + "".join(rng.choices(_SC_ATTRS, k=rng.randint(0, 3)))
                + rng.choice(_SC_ENDS))
    if r < 0.8:
        return "</" + rng.choice(_SC_NAMES) + ">"
    return rng.choice(_SC_TEXT)


def test_self_closing_tags_match_stdlib_fuzz():
    """On 20,000 seeded strings of XHTML-style tags, each containing '/>',
    the fast engine gives the same blocks as the stdlib engine: start-end
    tags are no-ops except <br/> and <hr/>, and a '/' that ends an
    unquoted value does not self-close."""
    rng = random.Random(20261019)
    checked, bad = 0, []
    while checked < 20_000:
        s = "".join(_sc_piece(rng) for _ in range(rng.randint(1, 12)))
        if "/>" not in s:
            continue
        checked += 1
        if parse_blocks(s) != parse_blocks(s, engine="stdlib"):
            bad.append(s)
    assert not bad, (len(bad), bad[:5])
