"""Deterministic HTML main-content extraction with char-offset spans.

The flagship per-batch operator (SURVEY.md §7.1-7.2).  A single-pass
regex-scanner block model (with stdlib ``html.parser`` as the verified
reference engine): the page is decomposed into text blocks
at block-level tag boundaries; each block carries text length, link-char
count, inline-tag count and a boilerplate-scope flag; a
boilerpipe/trafilatura-style classifier (text density + link density +
neighbor smoothing) keeps content blocks and drops chrome.

Analogue of the reference's chunk/span machinery: blocks ≙ chunks with
metadata (reference: docling_graph/core/extractors/document_processor.py:
375-458 ``extract_chunks_with_metadata``), spans ≙ ``SourceAnchor`` char
spans (reference: docling_graph/core/provenance/models.py:157-172).  The
per-row salvage ladder (encoding sniff → lenient decode → crawler-text
fallback → ``failed`` flag, never a thrown-away row) mirrors the
reference's validation salvage ladder
(docling_graph/core/extractors/backends/llm_backend.py:774-855).

Everything here is a pure function of the input bytes — no clock, no
randomness — which is what makes the "byte-identical extracted text per
url" golden contract and idempotent resume possible.
"""

from __future__ import annotations

import gzip
import re
import zlib
from html import unescape
from html.parser import HTMLParser

import pyarrow as pa

from docling_graph_ray.functions.hashing import sha256_hex

# ---------------------------------------------------------------------------
# schema

# geometry slots (page_no, bbox) are the reference's per-item provenance
# geometry (docling_graph/core/provenance/models.py:69-123: top-left-origin
# bbox + page number); NULL for HTML spans, populated by layout-aware
# parsers (the PDF lane) — SURVEY.md §7.6 "geometry slots (nullable for
# HTML)"
SPAN_TYPE = pa.struct(
    [
        ("span_id", pa.int32()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("kind", pa.string()),
        ("path", pa.string()),
        ("block_class", pa.string()),
        ("page_no", pa.int32()),
        ("bbox", pa.list_(pa.int32())),
    ]
)

EXTRACT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("extracted_text", pa.large_string()),
        ("text_sha256", pa.string()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("n_blocks_kept", pa.int32()),
        ("n_blocks_dropped", pa.int32()),
        ("parse_status", pa.string()),
        ("bytes_in", pa.int64()),
        ("bytes_out", pa.int64()),
    ]
)

# ---------------------------------------------------------------------------
# decoding (encoding sniff rung of the salvage ladder)

_GZIP_MAGIC = b"\x1f\x8b"
_CHARSET_RE = re.compile(
    rb"""charset\s*=\s*["']?\s*([A-Za-z0-9_\-]+)""", re.IGNORECASE
)
_CODEC_ALIASES = {
    "windows-1252": "cp1252",
    "iso-8859-1": "latin-1",
    "utf8": "utf-8",
}


def decode_html(raw) -> tuple[str, str]:
    """bytes-like → (text, decode_status in {ok, salvaged, failed}).

    Accepts ``bytes`` or ``memoryview`` — callers that read rows straight
    off an Arrow binary column pass a zero-copy view of the object-store
    buffer, so the only copy of the input payload is the decoded ``str``
    itself (``str(view, codec)`` reads the buffer directly)."""
    # bytes(...) on the 2-byte slice: a signed-format memoryview (pyarrow
    # buffers expose format 'b') never compares equal to a bytes literal
    if bytes(raw[:2]) == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error):
            return "", "failed"
    try:
        return str(raw, "utf-8"), "ok"
    except UnicodeDecodeError:
        pass
    m = _CHARSET_RE.search(raw[:2048])
    if m:
        name = str(m.group(1), "ascii", "ignore").lower()
        codec = _CODEC_ALIASES.get(name, name)
        if codec not in ("utf-8",):
            try:
                return str(raw, codec), "ok"
            except (UnicodeDecodeError, LookupError):
                pass
    # lenient last rung: never throw a row away
    return str(raw, "cp1252", "replace"), "salvaged"


# ---------------------------------------------------------------------------
# block model

# tags that open/close a block boundary (flush accumulated text)
_BLOCK_TAGS = frozenset(
    "p div h1 h2 h3 h4 h5 h6 li dt dd td th tr table ul ol section article "
    "blockquote pre main figure figcaption header footer aside nav form "
    "fieldset br hr body html".split()
)
# content inside these is invisible
_SKIP_TAGS = frozenset(
    "script style noscript template svg iframe object select textarea "
    "button title head".split()
)
# blocks opened while inside these are page chrome
_BOILER_TAGS = frozenset("nav aside footer header form".split())
# containers recorded in the span path
_PATH_TAGS = frozenset("body article section main table ul ol nav aside header footer".split())
_HEADINGS = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))
_VOID_TAGS = frozenset("br hr img meta link input area base col embed source track wbr".split())


def normalize_ws(text: str) -> str:
    """Collapse every whitespace run to one space and strip the ends.

    Equal to ``re.sub(r"\\s+", " ", text).strip()`` for every code point
    (``re``'s ``\\s`` is ``str.isspace()``, the set ``split`` and ``strip``
    use; tested exhaustively).  Clean text -- no double space and no
    non-printable character, and U+0020 is the only printable whitespace
    -- needs only ``strip``; both branches run at C speed."""
    if "  " not in text and text.isprintable():
        return text.strip()
    return " ".join(text.split())


class _Block:
    __slots__ = ("parts", "link_chars", "n_tags", "tag_class", "boiler", "path")

    def __init__(self, tag_class: str, boiler: bool, path: str) -> None:
        self.parts: list[str] = []
        self.link_chars = 0
        self.n_tags = 0
        self.tag_class = tag_class
        self.boiler = boiler
        self.path = path


class _BlockParser(HTMLParser):
    """Streams the document into a flat list of text blocks."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[_Block] = []
        self._cur: _Block | None = None
        self._skip_depth = 0
        self._boiler_depth = 0
        self._a_depth = 0
        self._path_stack: list[str] = []
        self._cur_tag = "body"

    # -- block lifecycle ----------------------------------------------------
    def _flush(self) -> None:
        b = self._cur
        if b is not None and b.parts:
            self.blocks.append(b)
        self._cur = None

    def _block(self) -> _Block:
        if self._cur is None:
            self._cur = _Block(
                self._cur_tag,
                self._boiler_depth > 0,
                "/".join(self._path_stack) or "body",
            )
        return self._cur

    # -- parser callbacks ---------------------------------------------------
    def handle_starttag(self, tag: str, attrs) -> None:
        if tag in _SKIP_TAGS:
            if tag not in _VOID_TAGS:
                self._skip_depth += 1
            return
        if tag in _BLOCK_TAGS:
            self._flush()
            if tag not in ("br", "hr"):
                self._cur_tag = tag
            if tag in _BOILER_TAGS:
                self._boiler_depth += 1
            if tag in _PATH_TAGS:
                self._path_stack.append(tag)
        else:
            if self._cur is not None:
                self._cur.n_tags += 1
            if tag == "a":
                self._a_depth += 1

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS:
            if tag not in _VOID_TAGS and self._skip_depth > 0:
                self._skip_depth -= 1
            return
        if tag in _BLOCK_TAGS:
            self._flush()
            if tag in _BOILER_TAGS and self._boiler_depth > 0:
                self._boiler_depth -= 1
            if tag in _PATH_TAGS and self._path_stack and self._path_stack[-1] == tag:
                self._path_stack.pop()
            self._cur_tag = self._path_stack[-1] if self._path_stack else "body"
        elif tag == "a" and self._a_depth > 0:
            self._a_depth -= 1

    def handle_startendtag(self, tag: str, attrs) -> None:
        if tag in ("br", "hr"):
            self._flush()

    def handle_data(self, data: str) -> None:
        if self._skip_depth > 0 or not data:
            return
        if data.isspace():  # blank-test without the strip() allocation
            return
        b = self._block()
        b.parts.append(data)
        if self._a_depth > 0:
            b.link_chars += len(data)

    def close(self) -> None:
        super().close()
        self._flush()


# ---------------------------------------------------------------------------
# fast scanner: one compiled-regex pass instead of stdlib HTMLParser
#
# HTMLParser spends >80% of parse time in its own tokenizer machinery
# (parse_starttag / goahead / updatepos — measured with cProfile on the
# bench corpus); this scanner drives the SAME _BlockParser callbacks from
# a single re.finditer pass, quote-aware for '>' inside attribute values,
# with script/style content skipped via a direct str.find to the closing
# tag.  Verified block-identical to HTMLParser across the full fixture
# corpus (test_fast_scanner_equivalence).

_SCAN_RE = re.compile(
    r"<!--.*?(?:-->|\Z)"                                  # comments
    r"|<!\[CDATA\[.*?(?:\]\]>|\Z)"                        # cdata
    r"|<[!?][^>]*>"                                       # doctype / PI
    r"|</\s*([a-zA-Z][a-zA-Z0-9:_.-]*)[^>]*>"             # end tag
    r"|<([a-zA-Z][a-zA-Z0-9:_.-]*)"                       # start tag name
    r"((?:[^>\"']|\"[^\"]*\"|'[^']*')*)"                  # attrs (quote-aware)
    r"(/?)>",
    re.DOTALL,
)
_AMP_RE = re.compile(r"&")

# raw-text elements: content runs to the literal close tag, not parsed
# (exactly stdlib html.parser's CDATA_CONTENT_ELEMENTS).  The close tag is
# matched case-insensitively, mirroring stdlib's set_cdata_mode — a
# '</SCRIPT>' in legacy HTML must terminate a '<script>' block.
_RAWTEXT = ("script", "style")
_RAWTEXT_CLOSE = {t: re.compile(r"</\s*" + t, re.IGNORECASE) for t in _RAWTEXT}


def _scan_feed(p: _BlockParser, s: str) -> None:
    """Drive _BlockParser's callbacks from one finditer pass."""
    pos = 0
    n = len(s)
    find = _SCAN_RE.finditer
    while pos < n:
        last = pos
        restart = None
        for m in find(s, pos):
            start = m.start()
            if start > last:
                data = s[last:start]
                if "&" in data:
                    data = unescape(data)
                p.handle_data(data)
            end_name, start_name, _attrs, selfclose = m.groups()
            if start_name is not None:
                tag = start_name.lower()
                if selfclose:
                    p.handle_startendtag(tag, [])
                else:
                    p.handle_starttag(tag, [])
                    if tag in _RAWTEXT:
                        # skip raw content to the matching close tag
                        cm = _RAWTEXT_CLOSE[tag].search(s, m.end())
                        close = cm.start() if cm else -1
                        if close < 0:
                            p.handle_endtag(tag)   # unterminated: drop rest
                            last = n
                            restart = n
                            break
                        gt = s.find(">", close)
                        p.handle_endtag(tag)
                        restart = (gt + 1) if gt >= 0 else n
                        last = restart
                        break
            elif end_name is not None:
                p.handle_endtag(end_name.lower())
            last = m.end()
        else:
            if last < n:
                data = s[last:]
                if "&" in data:
                    data = unescape(data)
                p.handle_data(data)
            return
        pos = restart if restart is not None else n


def parse_blocks(html_text: str, engine: str = "fast") -> list[dict]:
    """Parse → list of normalized block dicts (whitespace-collapsed text).

    ``engine='fast'`` uses the single-pass regex scanner; ``'stdlib'``
    uses html.parser — both drive the same block model and produce
    identical blocks (equivalence-tested)."""
    p = _BlockParser()
    if engine == "fast":
        _scan_feed(p, html_text)
        p._flush()
    else:
        p.feed(html_text)
        p.close()
    out = []
    for b in p.blocks:
        joined = "".join(b.parts)
        text = normalize_ws(joined)
        if not text:
            continue
        out.append(
            {
                "text": text,
                "len": len(text),
                "link_chars": min(b.link_chars, len(joined)),
                "n_tags": b.n_tags,
                "tag_class": b.tag_class,
                "boiler": b.boiler,
                "path": b.path,
            }
        )
    return out


# ---------------------------------------------------------------------------
# classification (boilerpipe-style densities + neighbor smoothing)

_MIN_CONTENT_LEN = 80
_MIN_DENSE_LEN = 25
_MIN_TEXT_DENSITY = 12.0
_MAX_LINK_DENSITY = 0.33
_CELL_MAX_LINK_DENSITY = 0.2
_SMOOTH_MIN_LEN = 20


def classify_blocks(blocks: list[dict]) -> list[bool]:
    """True = content.  Deterministic three-pass rule:

    1. density rule per block (link density + text density thresholds;
       cells/items get a lighter rule; chrome-scope blocks always drop),
    2. boilerpipe neighbor smoothing (short block between two kept
       neighbors is rescued),
    3. headings kept only when followed by kept content within 3 blocks.
    """
    n = len(blocks)
    keep = [False] * n
    heading = [False] * n
    for i, b in enumerate(blocks):
        if b["boiler"]:
            continue
        ld = b["link_chars"] / b["len"] if b["len"] else 1.0
        cls = b["tag_class"]
        if cls in _HEADINGS:
            heading[i] = b["len"] >= 3 and ld < 0.5
            continue
        if cls in ("td", "th", "li", "dt", "dd", "tr"):
            keep[i] = ld < _CELL_MAX_LINK_DENSITY and b["len"] >= 3
            continue
        if ld >= _MAX_LINK_DENSITY:
            continue
        density = b["len"] / (1.0 + b["n_tags"])
        keep[i] = b["len"] >= _MIN_CONTENT_LEN or (
            b["len"] >= _MIN_DENSE_LEN and density >= _MIN_TEXT_DENSITY
        )
    # pass 2: neighbor smoothing over non-heading blocks
    for i in range(1, n - 1):
        b = blocks[i]
        if keep[i] or heading[i] or b["boiler"]:
            continue
        ld = b["link_chars"] / b["len"] if b["len"] else 1.0
        if (
            b["len"] >= _SMOOTH_MIN_LEN
            and ld < _MAX_LINK_DENSITY
            and keep[i - 1]
            and any(keep[j] for j in range(i + 1, min(n, i + 3)))
        ):
            keep[i] = True
    # pass 3: headings attach to following content
    for i in range(n):
        if heading[i] and any(keep[j] for j in range(i + 1, min(n, i + 4))):
            keep[i] = True
    return keep


_KIND_BY_CLASS = {
    "h1": "heading", "h2": "heading", "h3": "heading", "h4": "heading",
    "h5": "heading", "h6": "heading",
    "td": "cell", "th": "cell", "tr": "cell",
    "li": "item", "dt": "item", "dd": "item",
}


def extract_html_doc(raw: bytes, fallback_text: str | None) -> dict:
    """One url end-to-end: decode → parse → classify → text + spans.

    Returns dict with extracted_text / spans / counters / parse_status.
    Never raises: the last rungs are the crawler ``text`` column
    (``fallback_text`` status) and the ``failed`` flag.
    """
    empty = {
        "extracted_text": "",
        "spans": [],
        "n_blocks_kept": 0,
        "n_blocks_dropped": 0,
    }
    html_text, status = decode_html(raw)
    if status == "failed" or not html_text:
        if fallback_text:
            return {
                **empty,
                "extracted_text": fallback_text,
                "spans": [
                    {"span_id": 0, "start": 0, "end": len(fallback_text),
                     "kind": "fallback", "path": "text", "block_class": "text"}
                ],
                "n_blocks_kept": 1,
                "parse_status": "fallback_text",
            }
        return {**empty, "parse_status": "failed"}
    try:
        blocks = parse_blocks(html_text)
    except Exception:
        if fallback_text:
            return {
                **empty,
                "extracted_text": fallback_text,
                "spans": [
                    {"span_id": 0, "start": 0, "end": len(fallback_text),
                     "kind": "fallback", "path": "text", "block_class": "text"}
                ],
                "n_blocks_kept": 1,
                "parse_status": "fallback_text",
            }
        return {**empty, "parse_status": "failed"}

    keep = classify_blocks(blocks)
    parts: list[str] = []
    spans: list[dict] = []
    pos = 0
    for b, k in zip(blocks, keep):
        if not k:
            continue
        if parts:
            pos += 2  # "\n\n" separator
        start = pos
        pos += b["len"]
        parts.append(b["text"])
        spans.append(
            {
                "span_id": len(spans),
                "start": start,
                "end": pos,
                "kind": _KIND_BY_CLASS.get(b["tag_class"], "block"),
                "path": b["path"],
                "block_class": b["tag_class"],
            }
        )
    n_kept = len(spans)
    return {
        "extracted_text": "\n\n".join(parts),
        "spans": spans,
        "n_blocks_kept": n_kept,
        "n_blocks_dropped": len(blocks) - n_kept,
        "parse_status": status,  # ok | salvaged
    }


# ---------------------------------------------------------------------------
# the batch operator (pyarrow in → pyarrow out; html projected away)


def iter_binary_views(col):
    """Yield one zero-copy ``memoryview`` per row of an Arrow (large_)binary
    column (``b""`` for nulls) — the input-side bandwidth rule: the raw
    payload is read straight off the object-store buffer, never first
    materialized as a Python ``bytes`` list (``to_pylist`` copies every
    row up-front and doubles the stage's resident input)."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    for chunk in chunks:
        for s in chunk:
            yield memoryview(s.as_buffer()) if s.is_valid else b""


def text_column_with_digests(texts: list[str]):
    """texts → (large_string array, sha256 hex list, byte-length array).

    Single-encode rule: the text is UTF-8-encoded exactly ONCE — by the
    Arrow array build — and both the content digest and ``bytes_out`` are
    computed from the array's own data buffer (zero-copy scalar views),
    instead of two more ``str.encode`` passes per row.  On the flagship
    profile the output text is ~40% of input bytes, so the two dropped
    passes are a measurable share of the stage's memory bandwidth (the
    4→16-way scaling binder on bandwidth-limited hosts)."""
    import hashlib

    text_arr = pa.array(texts, pa.large_string())
    bin_arr = text_arr.cast(pa.large_binary())  # zero-copy view
    import pyarrow.compute as pc

    shas = [hashlib.sha256(s.as_buffer()).hexdigest() for s in bin_arr]
    lens = pc.binary_length(bin_arr).cast(pa.int64())
    return text_arr, shas, lens


def extract_batch(batch: pa.Table) -> pa.Table:
    """``map_batches`` UDF: pages schema in, EXTRACT_SCHEMA out.

    The per-row work (DOM parse) is inherently row-wise Python; columns are
    assembled as Arrow arrays and the ``html`` binary column is dropped
    here, as early as possible (SURVEY.md §7.5 wide-record rule).  The
    ``url``/``warc_ts``/``lang`` columns pass through as Arrow arrays
    (never round-tripped through Python), input html rows are read as
    zero-copy views, and the output text is encoded once
    (``text_column_with_digests``).
    """
    texts = batch.column("text").to_pylist()

    out = {
        "extracted_text": [], "spans": [],
        "n_blocks_kept": [], "n_blocks_dropped": [], "parse_status": [],
        "bytes_in": [],
    }
    for raw, fb in zip(iter_binary_views(batch.column("html")), texts):
        r = extract_html_doc(raw, fb)
        out["extracted_text"].append(r["extracted_text"])
        out["spans"].append(r["spans"])
        out["n_blocks_kept"].append(r["n_blocks_kept"])
        out["n_blocks_dropped"].append(r["n_blocks_dropped"])
        out["parse_status"].append(r["parse_status"])
        out["bytes_in"].append(len(raw))

    text_arr, shas, bytes_out = text_column_with_digests(out["extracted_text"])
    return pa.Table.from_arrays(
        [
            batch.column("url").cast(pa.string()),
            batch.column("warc_ts"),
            batch.column("lang"),
            text_arr,
            pa.array(shas, pa.string()),
            pa.array(out["spans"], pa.list_(SPAN_TYPE)),
            pa.array(out["n_blocks_kept"], pa.int32()),
            pa.array(out["n_blocks_dropped"], pa.int32()),
            pa.array(out["parse_status"], pa.string()),
            pa.array(out["bytes_in"], pa.int64()),
            bytes_out,
        ],
        schema=EXTRACT_SCHEMA,
    )
