"""Deterministic HTML main-content extraction with char-offset spans.

The flagship per-batch operator (SURVEY.md §7.1-7.2).  Each page is
tokenized by one ``re.split`` (stdlib ``html.parser`` is the verified
reference tokenizer, emitting token lists of the same shape) and one loop
turns the tokens into text blocks at block-level tag boundaries; each
block carries text length, link-char count, inline-tag count and a
boilerplate-scope flag; a boilerpipe/trafilatura-style classifier (text
density + link density + neighbor smoothing) keeps content blocks and
drops chrome.

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


#: every code point ``str.isspace()`` accepts but U+0020, split at ASCII
#: (a test rebuilds the set by a scan of all code points)
_ASCII_WS = ("\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f")
_WIDE_WS = (
    "\x85", "\xa0", "\u1680", "\u2000", "\u2001", "\u2002", "\u2003",
    "\u2004", "\u2005", "\u2006", "\u2007", "\u2008", "\u2009", "\u200a",
    "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
)


def normalize_ws(text: str) -> str:
    """Collapse every whitespace run to one space and strip the ends.

    Equal to ``re.sub(r"\\s+", " ", text).strip()`` for every code point
    (``re``'s ``\\s`` is ``str.isspace()``, the set ``split`` and ``strip``
    use; tested exhaustively).  Clean text -- no double space and no
    whitespace but U+0020 -- needs only ``strip``.  Each ``in`` below is a
    memchr-speed scan, and the wide code points are looked for only in
    non-ASCII text."""
    if "  " in text:
        return " ".join(text.split())
    for c in _ASCII_WS:
        if c in text:
            return " ".join(text.split())
    if not text.isascii():
        for c in _WIDE_WS:
            if c in text:
                return " ".join(text.split())
    return text.strip()


# ---------------------------------------------------------------------------
# tokenizers: page -> flat token list
# [data, end_name, anchor_text, start_name, data, ...]
#
# Both engines emit quads of that shape and feed the same block-building
# loop (_build_blocks), so the block model exists once.  The fast engine is
# one C-level re.split per page: HTMLParser spends most of its time in its
# own per-token Python machinery (parse_starttag / goahead), and so did a
# finditer scanner that made one match object and one method call per
# token.  The stdlib engine records HTMLParser's callbacks into the same
# list and is the verified reference (test_fast_scanner_equivalence).

_NAME_CHAR = r"[a-zA-Z0-9:_.-]"
# quote-aware attribute run: '>' inside a quoted value does not end the
# tag.  It stops before a final '/>' unless that '/' ends an unquoted value,
# as stdlib's attribute grammar does (<img src=x/> is a plain start tag,
# <img src="x"/> is start-end).  Possessive throughout, as stdlib scans: a
# quote only ever opens a quoted run, no item consumes '>', and a value
# after '=' takes its spaces and its unquoted characters whole.
_ATTRS = (r"""(?:[^>"'=/]++|=\s*+(?:"[^"]*+"|'[^']*+'|[^\s>"']*+)"""
          r"""|"[^"]*+"|'[^']*+'|/(?!>))*+""")


def _rawtext(name: str) -> str:
    """A raw-text element as ONE token: the open tag (name in any ASCII
    case), then content up to the first close tag of the same name, matched
    case-insensitively as stdlib's set_cdata_mode does, through its '>' --
    or the rest of the page when unterminated (stdlib's
    CDATA_CONTENT_ELEMENTS).  Captures nothing: skipping it leaves the
    block state as it was."""
    open_name = "".join(f"[{c}{c.upper()}]" for c in name)
    return (
        rf"<{open_name}(?!{_NAME_CHAR}){_ATTRS}>"
        rf"[^<]*+(?:<(?!/\s*(?i:{name}))[^<]*+)*+"
        rf"(?:</\s*(?i:{name})[^>]*+>?)?"
    )


_TOKEN_RE = re.compile(
    r"<!--.*?(?:-->|\Z)"                                  # comments
    r"|<!\[CDATA\[.*?(?:\]\]>|\Z)"                        # cdata
    r"|<[!?][^>]*+>"                                      # doctype / PI
    rf"|</\s*+([a-zA-Z]{_NAME_CHAR}*+)[^>]*+>"            # 1: end tag
    rf"|{_rawtext('script')}|{_rawtext('style')}"
    # 2: a text-only anchor, <a ...>text</a>, as ONE token whose text is
    # the slot: most tokens of a link-heavy page, taken in one loop step.
    # An anchor holding any '<' falls through to the tags below
    rf"|<[aA](?!{_NAME_CHAR}){_ATTRS}>([^<]*+)</\s*+[aA](?!{_NAME_CHAR})[^>]*+>"
    # 3: start tag; <br/> and <hr/> are start tags too (they flush as
    # <br> does), checked by a look-behind at the name just matched
    rf"|<([a-zA-Z]{_NAME_CHAR}*+)(?:(?<=<[bBhH][rR]){_ATTRS}/?|{_ATTRS})>"
    # any other start-end tag is a no-op (stdlib's handle_startendtag)
    rf"|<[a-zA-Z]{_NAME_CHAR}*+{_ATTRS}/>",
    re.DOTALL,
)


def _split_tokens(html_text: str) -> list:
    """The fast tokenizer: one ``re.split`` (from C: data slots, end names,
    anchor texts and start names interleaved), character references
    resolved per data and anchor-text slot, and closing empty slots so the
    list is whole quads."""
    toks = _TOKEN_RE.split(html_text)
    if "&" in html_text:
        for i in range(0, len(toks), 2):  # data and anchor-text slots
            text = toks[i]
            if text and "&" in text:
                toks[i] = unescape(text)
    toks += (None, None, None)
    return toks


class _TokenRecorder(HTMLParser):
    """The stdlib tokenizer: HTMLParser's callbacks recorded as
    ``(data, end_name, None, start_name)`` quads (data arrives unescaped,
    ``convert_charrefs=True``); an anchor's start tag, text and end tag
    stay three quads."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.toks: list = []

    def handle_data(self, data: str) -> None:
        self.toks += (data, None, None, None)

    def handle_starttag(self, tag: str, attrs) -> None:
        self.toks += ("", None, None, tag)

    def handle_endtag(self, tag: str) -> None:
        self.toks += ("", tag, None, None)

    def handle_startendtag(self, tag: str, attrs) -> None:
        if tag in ("br", "hr"):  # the only start-end tags with an effect
            self.toks += ("", None, None, tag)


# ---------------------------------------------------------------------------
# block model: one fused loop over the token quads

_INLINE, _ANCHOR, _SKIP, _FLOW = range(4)
# lower-case tag name -> (action, name); any other tag is inline
_TAG_ACTION = {
    **{t: (_SKIP, t) for t in _SKIP_TAGS},
    **{t: (_FLOW, t) for t in _BLOCK_TAGS},
    "a": (_ANCHOR, "a"),
}
_INLINE_ACTION = (_INLINE, "")


def _emit(out, parts, link_chars, n_tags, tag_class, boiler, path) -> None:
    """Close a block: append its dict unless its text is blank."""
    joined = "".join(parts)
    text = normalize_ws(joined)
    if text:
        out.append({
            "text": text,
            "len": len(text),
            "link_chars": min(link_chars, len(joined)),
            "n_tags": n_tags,
            "tag_class": tag_class,
            "boiler": boiler,
            "path": path,
        })


def _build_blocks(toks: list) -> list[dict]:
    """Token quads → normalized block dicts (whitespace-collapsed text).

    The page is cut into text blocks at block-level tag boundaries; each
    block records its text, link-char count, inline-tag count, the block
    tag it opened under, whether it sits inside page chrome, and its
    container path.  Content inside skip tags is invisible; whitespace-only
    data adds nothing.  A text-only anchor is one quad whose three effects
    (start tag, text, end tag) are taken in one step.  The open block's
    state lives in locals."""
    out: list[dict] = []
    parts: list[str] = []     # open block's text (empty: no open block)
    add = parts.append
    link_chars = n_tags = 0
    tag_class, boiler, path = "body", False, "body"
    skip_depth = boiler_depth = a_depth = 0
    stack: list[str] = []     # open _PATH_TAGS containers
    cur_tag = "body"          # class a block opened now would get
    it = iter(toks)
    for data, end, anchor, start in zip(it, it, it, it):
        if data and not skip_depth and not data.isspace():
            if not parts:
                tag_class = cur_tag
                boiler = boiler_depth > 0
                path = "/".join(stack) or "body"
                link_chars = n_tags = 0
            add(data)
            if a_depth:
                link_chars += len(data)
        if anchor is not None:
            # <a ...>anchor</a>: the start tag counts in an open block, the
            # text is link text, and a_depth ends where it began
            if parts:
                n_tags += 1
            if anchor and not skip_depth and not anchor.isspace():
                if not parts:
                    tag_class = cur_tag
                    boiler = boiler_depth > 0
                    path = "/".join(stack) or "body"
                    link_chars = n_tags = 0
                add(anchor)
                link_chars += len(anchor)
            continue
        if start is not None:
            kind, tag = _TAG_ACTION.get(start.lower(), _INLINE_ACTION)
            if kind == _ANCHOR:
                if parts:
                    n_tags += 1
                a_depth += 1
                continue
            if kind == _INLINE:
                if parts:
                    n_tags += 1
                continue
            if kind == _SKIP:
                skip_depth += 1
                continue
        elif end is not None:
            kind, tag = _TAG_ACTION.get(end.lower(), _INLINE_ACTION)
            if kind == _ANCHOR:
                if a_depth:
                    a_depth -= 1
                continue
            if kind == _INLINE:
                continue
            if kind == _SKIP:
                if skip_depth:
                    skip_depth -= 1
                continue
        else:
            continue
        # a block tag: close the open block ...
        if parts:
            _emit(out, parts, link_chars, n_tags, tag_class, boiler, path)
            parts.clear()
        # ... then track the containers it opens or closes
        if start is not None:
            if tag != "br" and tag != "hr":
                cur_tag = tag
            if tag in _BOILER_TAGS:
                boiler_depth += 1
            if tag in _PATH_TAGS:
                stack.append(tag)
        else:
            if tag in _BOILER_TAGS and boiler_depth:
                boiler_depth -= 1
            if tag in _PATH_TAGS and stack and stack[-1] == tag:
                stack.pop()
            cur_tag = stack[-1] if stack else "body"
    if parts:
        _emit(out, parts, link_chars, n_tags, tag_class, boiler, path)
    return out


def parse_blocks(html_text: str, engine: str = "fast") -> list[dict]:
    """Parse → list of normalized block dicts (whitespace-collapsed text).

    ``engine='fast'`` tokenizes with one ``re.split``; ``'stdlib'`` with
    html.parser.  Both feed the same block loop and produce identical
    blocks (equivalence-tested)."""
    if engine == "fast":
        toks = _split_tokens(html_text)
    else:
        p = _TokenRecorder()
        p.feed(html_text)
        p.close()
        toks = p.toks
    return _build_blocks(toks)


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
