"""Dependency-free real PDF text extraction (no layout-model stack).

This replaces the round-1 regex stub with an actual PDF parser: object
scanning, object-syntax parsing, FlateDecode/ASCIIHexDecode stream
decoding via zlib/binascii, page-tree walk with attribute inheritance,
and a BT…ET content-stream text interpreter (Tf/Td/TD/Tm/TL/T*/Tj/TJ/'/"
operators) producing per-line text with page numbers and top-left-origin
bounding boxes.

Reference semantics being reproduced: the heavy parse of
``DocumentProcessor.convert_to_docling_doc`` (reference:
docling_graph/core/extractors/document_processor.py:127-327) — text plus
provenance geometry — and the BOTTOMLEFT→TOPLEFT origin normalization of
``_chunk_item_geometry`` (document_processor.py:59-118); its 512-grid
``dclg_location`` quantizer (core/provenance/models.py:72-94) is
``stages/geometry.py:normalize_geometry_batch``.

PDF ≥1.5 support (round 3): ``/Type /ObjStm`` object streams are
expanded (the container objects are regular ``N G obj`` bodies the
marker scan finds; their compressed members — typically the catalog,
page tree and fonts in post-2006 writers — become resolvable), and
composite (Type0/CID) fonts decode show strings through their
``/ToUnicode`` CMap (bfchar/bfrange/codespacerange; Identity-H 2-byte
codes).  Xref streams themselves carry only byte offsets the scan
doesn't need, so they are deliberately not parsed.

Documented limitations (a full ISO-32000 implementation is out of scope):

- Objects are discovered by scanning ``N G obj`` markers rather than the
  xref table — the same robustness fallback real parsers use for damaged
  files.
- Composite fonts WITHOUT a usable ToUnicode CMap decode best-effort
  (code points are glyph ids; flagged as a warning → ``salvaged``).
- Glyph widths are estimated (0.5 em average) — bbox WIDTHS are
  approximate; positions (x, y, size, page box) are exact.
- The CTM (``cm``) is not tracked; text space is assumed unscaled, which
  holds for the overwhelming majority of text-oriented PDFs.
"""

from __future__ import annotations

import binascii
import re
import zlib

# ---------------------------------------------------------------------------
# object scanning


_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_AVG_GLYPH_EM = 0.5  # Helvetica-ish average advance per glyph, in em
_TJ_SPACE_KERN = -180.0  # TJ kerning ≤ this (milli-em) renders as a space


def find_objects(raw: bytes) -> dict[tuple[int, int], bytes]:
    """Scan for ``N G obj … endobj`` bodies.  Later definitions of the
    same (num, gen) win — matching incremental-update semantics, where
    the appended (later) object shadows the original."""
    out: dict[tuple[int, int], bytes] = {}
    for m in _OBJ_RE.finditer(raw):
        start = m.end()
        end = raw.find(b"endobj", start)
        if end < 0:
            continue
        out[(int(m.group(1)), int(m.group(2)))] = raw[start:end]
    return out


# ---------------------------------------------------------------------------
# object-syntax parser (dicts, arrays, names, numbers, strings, refs)


class Ref:
    __slots__ = ("num", "gen")

    def __init__(self, num: int, gen: int) -> None:
        self.num, self.gen = num, gen

    def __repr__(self) -> str:  # pragma: no cover - debug only
        return f"Ref({self.num},{self.gen})"


class Name(str):
    """A /Name token (distinct from a decoded string)."""


_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


class _Lexer:
    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.n = len(data)

    def _skip_ws(self) -> None:
        d, n = self.data, self.n
        while self.pos < n:
            c = d[self.pos]
            if c in _WS:
                self.pos += 1
            elif c == 0x25:  # '%' comment to EOL
                while self.pos < n and d[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def peek(self) -> int:
        self._skip_ws()
        return self.data[self.pos] if self.pos < self.n else -1

    def read_name(self) -> Name:
        # caller consumed '/'
        d, n = self.data, self.n
        start = self.pos
        while self.pos < n and d[self.pos] not in _WS and d[self.pos] not in _DELIM:
            self.pos += 1
        raw = d[start:self.pos]
        # #xx hex escapes in names
        if b"#" in raw:
            raw = re.sub(
                rb"#([0-9A-Fa-f]{2})",
                lambda m: bytes([int(m.group(1), 16)]), raw,
            )
        return Name(raw.decode("latin-1"))

    def read_literal_string(self) -> bytes:
        # caller consumed '('
        d, n = self.data, self.n
        out = bytearray()
        depth = 1
        while self.pos < n:
            c = d[self.pos]
            self.pos += 1
            if c == 0x5C:  # backslash
                if self.pos >= n:
                    break
                e = d[self.pos]
                self.pos += 1
                if e in b"nrtbf":
                    out.append({0x6E: 10, 0x72: 13, 0x74: 9,
                                0x62: 8, 0x66: 12}[e])
                elif e in b"()\\":
                    out.append(e)
                elif 0x30 <= e <= 0x37:  # octal \ddd (1-3 digits)
                    oct_digits = [e]
                    for _ in range(2):
                        if self.pos < n and 0x30 <= d[self.pos] <= 0x37:
                            oct_digits.append(d[self.pos])
                            self.pos += 1
                        else:
                            break
                    out.append(int(bytes(oct_digits), 8) & 0xFF)
                elif e in b"\r\n":  # line continuation
                    if e == 0x0D and self.pos < n and d[self.pos] == 0x0A:
                        self.pos += 1
                else:
                    out.append(e)
            elif c == 0x28:  # '('
                depth += 1
                out.append(c)
            elif c == 0x29:  # ')'
                depth -= 1
                if depth == 0:
                    return bytes(out)
                out.append(c)
            else:
                out.append(c)
        return bytes(out)

    def read_hex_string(self) -> bytes:
        # caller consumed '<'
        d, n = self.data, self.n
        out = bytearray()
        digits = []
        while self.pos < n:
            c = d[self.pos]
            self.pos += 1
            if c == 0x3E:  # '>'
                break
            if chr(c) in "0123456789abcdefABCDEF":
                digits.append(chr(c))
        if len(digits) % 2:
            digits.append("0")
        for i in range(0, len(digits), 2):
            out.append(int(digits[i] + digits[i + 1], 16))
        return bytes(out)

    def read_token(self) -> bytes:
        """Bare keyword/number token."""
        d, n = self.data, self.n
        start = self.pos
        while self.pos < n and d[self.pos] not in _WS and d[self.pos] not in _DELIM:
            self.pos += 1
        return d[start:self.pos]

    def parse_value(self):
        self._skip_ws()
        if self.pos >= self.n:
            return None
        d = self.data
        c = d[self.pos]
        if c == 0x2F:  # '/'
            self.pos += 1
            return self.read_name()
        if c == 0x28:  # '('
            self.pos += 1
            return self.read_literal_string()
        if c == 0x3C:  # '<' or '<<'
            if self.pos + 1 < self.n and d[self.pos + 1] == 0x3C:
                self.pos += 2
                out = {}
                while True:
                    self._skip_ws()
                    if self.pos + 1 < self.n and d[self.pos] == 0x3E and d[self.pos + 1] == 0x3E:
                        self.pos += 2
                        return out
                    if self.pos >= self.n:
                        return out
                    key = self.parse_value()
                    val = self.parse_value()
                    if isinstance(key, Name):
                        out[str(key)] = val
            self.pos += 1
            return self.read_hex_string()
        if c == 0x5B:  # '['
            self.pos += 1
            out = []
            while True:
                self._skip_ws()
                if self.pos < self.n and d[self.pos] == 0x5D:
                    self.pos += 1
                    return out
                if self.pos >= self.n:
                    return out
                out.append(self.parse_value())
        if c == 0x5D:  # stray ']'
            self.pos += 1
            return None
        tok = None
        if c in b"+-.0123456789":
            save = self.pos
            tok = self.read_token()
            try:
                num = int(tok)
            except ValueError:
                try:
                    return float(tok)
                except ValueError:
                    return tok.decode("latin-1", "replace")
            # possible indirect reference: NUM GEN R
            save2 = self.pos
            self._skip_ws()
            if self.pos < self.n and d[self.pos] in b"0123456789":
                save3 = self.pos
                tok2 = self.read_token()
                self._skip_ws()
                if (tok2.isdigit() and self.pos < self.n
                        and d[self.pos:self.pos + 1] == b"R"
                        and (self.pos + 1 >= self.n
                             or d[self.pos + 1] in _WS
                             or d[self.pos + 1] in _DELIM)):
                    self.pos += 1
                    return Ref(num, int(tok2))
                self.pos = save3
            self.pos = save2
            return num
        tok = self.read_token()
        if tok == b"true":
            return True
        if tok == b"false":
            return False
        if tok == b"null":
            return None
        if not tok:
            self.pos += 1  # unknown delimiter; skip it
            return None
        return tok.decode("latin-1", "replace")


# ---------------------------------------------------------------------------
# object resolution + streams


class _Doc:
    def __init__(self, raw: bytes) -> None:
        self.raw = raw
        self.bodies = find_objects(raw)
        self._cache: dict[tuple[int, int], object] = {}
        self._objstm: dict[tuple[int, int], object] = {}
        self.warnings = 0
        self._expand_object_streams()

    def _expand_object_streams(self) -> None:
        """PDF ≥1.5 object streams: a ``/Type /ObjStm`` container holds N
        compressed objects — a header of ``objnum offset`` integer pairs,
        then the object bodies at ``First + offset``.  Expanding the
        containers makes compressed objects (catalog/pages/fonts in most
        post-2006 writers) resolvable WITHOUT decoding the xref stream:
        the containers themselves are regular ``N G obj`` objects the
        marker scan already finds, and the xref stream adds only byte
        offsets we don't need (ISO 32000-1 §7.5.7-7.5.8).  Compressed
        objects always have generation 0 per spec."""
        for key, body in list(self.bodies.items()):
            if b"/ObjStm" not in body:
                continue
            sdict = _Lexer(body).parse_value()
            if (not isinstance(sdict, dict)
                    or str(sdict.get("Type", "")) != "ObjStm"):
                continue
            data = self.stream_bytes(Ref(*key))
            n = self.resolve(sdict.get("N"))
            first = self.resolve(sdict.get("First"))
            if (data is None or not isinstance(n, int)
                    or not isinstance(first, int) or first > len(data)):
                self.warnings += 1
                continue
            try:
                nums = [int(x) for x in data[:first].split()[:2 * n]]
            except ValueError:
                self.warnings += 1
                continue
            for i in range(min(n, len(nums) // 2)):
                objnum, off = nums[2 * i], nums[2 * i + 1]
                try:
                    val = _Lexer(data, first + off).parse_value()
                except Exception:
                    self.warnings += 1
                    continue
                self._objstm[(objnum, 0)] = val

    def obj(self, ref):
        if not isinstance(ref, Ref):
            return ref
        key = (ref.num, ref.gen)
        if key in self._cache:
            return self._cache[key]
        body = self.bodies.get(key)
        if body is None:
            # uncompressed definitions shadow object-stream ones
            # (incremental-update semantics); fall through otherwise
            if key in self._objstm:
                return self._objstm[key]
            self.warnings += 1
            return None
        val = _Lexer(body).parse_value()
        self._cache[key] = val
        return val

    def resolve(self, val, depth: int = 0):
        while isinstance(val, Ref) and depth < 32:
            val = self.obj(val)
            depth += 1
        return val

    def stream_bytes(self, ref) -> bytes | None:
        """Decoded stream content of the object behind ``ref``."""
        if isinstance(ref, Ref):
            body = self.bodies.get((ref.num, ref.gen))
        else:
            return None
        if body is None:
            self.warnings += 1
            return None
        lex = _Lexer(body)
        sdict = lex.parse_value()
        if not isinstance(sdict, dict):
            self.warnings += 1
            return None
        m = re.search(rb"stream(\r\n|\n|\r)", body)
        if not m:
            self.warnings += 1
            return None
        start = m.end()
        length = self.resolve(sdict.get("Length"))
        if isinstance(length, int) and 0 <= length <= len(body) - start:
            data = body[start:start + length]
        else:
            end = body.rfind(b"endstream")
            data = body[start:end if end > start else len(body)]
            data = data.rstrip(b"\r\n")
        filters = self.resolve(sdict.get("Filter"))
        if filters is None:
            filters = []
        elif not isinstance(filters, list):
            filters = [filters]
        for f in filters:
            f = str(self.resolve(f))
            try:
                if f == "FlateDecode":
                    data = zlib.decompress(data)
                elif f == "ASCIIHexDecode":
                    hex_part = data.split(b">")[0]
                    hex_clean = bytes(c for c in hex_part if c not in _WS)
                    if len(hex_clean) % 2:
                        hex_clean += b"0"
                    data = binascii.unhexlify(hex_clean)
                else:
                    self.warnings += 1
                    return None  # unsupported filter
            except Exception:
                self.warnings += 1
                return None
        return data


# ---------------------------------------------------------------------------
# page tree


_INHERITABLE = ("MediaBox", "Resources", "Rotate")


def _walk_pages(doc: _Doc, node_ref, inherited: dict, out: list,
                depth: int = 0) -> None:
    if depth > 64 or len(out) > 10_000:
        return
    node = doc.resolve(node_ref)
    if not isinstance(node, dict):
        doc.warnings += 1
        return
    merged = dict(inherited)
    for k in _INHERITABLE:
        if k in node:
            merged[k] = node[k]
    t = str(node.get("Type", ""))
    if t == "Page" or ("Kids" not in node and "Contents" in node):
        page = dict(node)
        for k, v in merged.items():
            page.setdefault(k, v)
        out.append(page)
        return
    for kid in doc.resolve(node.get("Kids")) or []:
        _walk_pages(doc, kid, merged, out, depth + 1)


def _pages(doc: _Doc) -> list[dict]:
    # proper walk: trailer-less scan for the Catalog — in the direct
    # bodies first, then in the expanded object streams (PDF ≥1.5
    # writers routinely compress the catalog)
    root = None
    for key, body in doc.bodies.items():
        if b"/Catalog" in body:
            val = doc.obj(Ref(*key))
            if isinstance(val, dict) and str(val.get("Type", "")) == "Catalog":
                root = val
                break
    if root is None:
        for key in sorted(doc._objstm):
            val = doc._objstm[key]
            if isinstance(val, dict) and str(val.get("Type", "")) == "Catalog":
                root = val
                break
    out: list[dict] = []
    if root is not None:
        _walk_pages(doc, root.get("Pages"), {}, out)
    if out:
        return out
    # fallback: every object that looks like a page, in object order
    for key in sorted(doc.bodies):
        val = doc.obj(Ref(*key))
        if isinstance(val, dict) and str(val.get("Type", "")) == "Page":
            out.append(val)
    for key in sorted(doc._objstm):
        val = doc._objstm[key]
        if isinstance(val, dict) and str(val.get("Type", "")) == "Page":
            out.append(val)
    return out


# ---------------------------------------------------------------------------
# ToUnicode CMaps (composite / CID fonts, ISO 32000-1 §9.10.3)


_HEX_TOKEN_RE = re.compile(rb"<([0-9A-Fa-f\s]*)>|\[|\]")
_CMAP_SECTION_RE = re.compile(
    rb"begin(codespacerange|bfchar|bfrange)(.*?)end\1", re.S)


def _hex_int(h: bytes) -> int:
    return int(bytes(c for c in h if c not in _WS) or b"0", 16)


def _hex_str(h: bytes) -> str:
    """Destination hex string → text: UTF-16BE code units (the ToUnicode
    contract), tolerating odd lengths."""
    clean = bytes(c for c in h if c not in _WS)
    if len(clean) % 4:
        return chr(_hex_int(clean))
    try:
        return bytes.fromhex(clean.decode("ascii")).decode(
            "utf-16-be", "replace")
    except ValueError:
        return ""


def parse_cmap(data: bytes) -> tuple[dict[int, str], int]:
    """ToUnicode CMap → (code → text map, code width in bytes).

    Covers the sections every writer emits — codespacerange (code
    width), bfchar (single mappings), bfrange (contiguous ranges, both
    the ``<lo> <hi> <dstStart>`` and ``<lo> <hi> [<d0> <d1> …]`` forms).
    Full CMap PostScript (usecmap, cidrange) is out of scope — those
    drive glyph selection, not text extraction."""
    cmap: dict[int, str] = {}
    width = 2  # Identity-H default
    for m in _CMAP_SECTION_RE.finditer(data):
        section, body = m.group(1), m.group(2)
        toks: list[object] = []
        depth = 0
        arr: list[bytes] = []
        for t in _HEX_TOKEN_RE.finditer(body):
            tok = t.group(0)
            if tok == b"[":
                depth, arr = 1, []
            elif tok == b"]":
                depth = 0
                toks.append(list(arr))
            elif depth:
                arr.append(t.group(1))
            else:
                toks.append(t.group(1))
        if section == b"codespacerange":
            if toks and isinstance(toks[0], bytes):
                clean = bytes(c for c in toks[0] if c not in _WS)
                width = max(1, len(clean) // 2)
        elif section == b"bfchar":
            for i in range(0, len(toks) - 1, 2):
                src, dst = toks[i], toks[i + 1]
                if isinstance(src, bytes) and isinstance(dst, bytes):
                    cmap[_hex_int(src)] = _hex_str(dst)
        elif section == b"bfrange":
            i = 0
            while i + 3 <= len(toks):
                lo, hi, dst = toks[i], toks[i + 1], toks[i + 2]
                i += 3
                if not (isinstance(lo, bytes) and isinstance(hi, bytes)):
                    continue
                lo_i, hi_i = _hex_int(lo), _hex_int(hi)
                if hi_i - lo_i > 65535:
                    continue
                if isinstance(dst, list):
                    for j, d in enumerate(dst[:hi_i - lo_i + 1]):
                        cmap[lo_i + j] = _hex_str(d)
                elif isinstance(dst, bytes):
                    base = _hex_str(dst)
                    if base:
                        head, last = base[:-1], ord(base[-1])
                        for j in range(hi_i - lo_i + 1):
                            cmap[lo_i + j] = head + chr(last + j)
    return cmap, width


class _Font:
    """Per-font show-string decoder: ``width``-byte codes through the
    ToUnicode ``cmap`` when present, else latin-1 (simple fonts) or
    best-effort chr() (Identity-H without ToUnicode — code points are
    glyph ids, unrecoverable without font tables; flagged upstream)."""

    __slots__ = ("width", "cmap")

    def __init__(self, width: int = 1, cmap: dict[int, str] | None = None):
        self.width = width
        self.cmap = cmap

    def decode(self, s: bytes) -> str:
        if self.width == 1 and self.cmap is None:
            return s.decode("latin-1")
        w = self.width
        out: list[str] = []
        for i in range(0, len(s) - w + 1, w):
            code = int.from_bytes(s[i:i + w], "big")
            if self.cmap is not None:
                out.append(self.cmap.get(code, ""))
            else:
                out.append(chr(code) if 32 <= code < 0x110000 else "")
        return "".join(out)


_DEFAULT_FONT = _Font()


def _page_fonts(doc: _Doc, page: dict) -> dict[str, _Font]:
    """Resource name → decoder for the page's ``/Font`` dictionary."""
    out: dict[str, _Font] = {}
    res = doc.resolve(page.get("Resources"))
    fonts = doc.resolve(res.get("Font")) if isinstance(res, dict) else None
    if not isinstance(fonts, dict):
        return out
    for name, fref in fonts.items():
        fd = doc.resolve(fref)
        if not isinstance(fd, dict):
            continue
        tu = fd.get("ToUnicode")
        cmap = None
        width = 1
        if isinstance(tu, Ref):
            data = doc.stream_bytes(tu)
            if data:
                cmap, width = parse_cmap(data)
            else:
                doc.warnings += 1
        if cmap is None and str(fd.get("Subtype", "")) == "Type0":
            width = 2  # composite font, no usable ToUnicode: best-effort
            doc.warnings += 1
        out[str(name)] = _Font(width, cmap)
    return out


# ---------------------------------------------------------------------------
# content-stream text interpreter


def _content_tokens(data: bytes):
    """Yield ('op', name) / ('val', value) in stream order."""
    lex = _Lexer(data)
    while True:
        lex._skip_ws()
        if lex.pos >= lex.n:
            return
        c = lex.data[lex.pos]
        if c in b"/(<[+-.0123456789":
            yield ("val", lex.parse_value())
            continue
        tok = lex.read_token()
        if not tok:
            lex.pos += 1
            continue
        yield ("op", tok.decode("latin-1", "replace"))


def _decode_show(s, font: _Font = _DEFAULT_FONT) -> str:
    if isinstance(s, bytes):
        return font.decode(s)
    return str(s) if s is not None else ""


def interpret_text(content: bytes, page_height: float,
                   fonts: dict[str, _Font] | None = None) -> list[dict]:
    """Content stream → reading-order text lines with top-left bboxes.

    A 'line' is the text accumulated between positioning operators
    (Td/TD/T*/Tm/'/\"), matching how writers emit one show per visual
    line.  bbox = [l, t, r, b] ints, top-left origin (BOTTOMLEFT→TOPLEFT
    normalization per document_processor.py:59-118).  ``fonts`` maps
    resource names (Tf operands) to :class:`_Font` decoders — composite
    CID fonts decode through their ToUnicode CMap."""
    lines: list[dict] = []
    fonts = fonts or {}
    cur_font = _DEFAULT_FONT
    size = 12.0
    leading = 0.0
    tx = ty = 0.0
    line_x = line_y = 0.0
    in_text = False
    buf: list[str] = []
    buf_x = buf_y = 0.0
    buf_size = 12.0

    def flush():
        nonlocal buf
        text = "".join(buf)
        if text.strip():
            w = _AVG_GLYPH_EM * buf_size * len(text)
            top = page_height - buf_y - buf_size
            lines.append({
                "text": " ".join(text.split()),
                "bbox": [int(round(buf_x)), int(round(top)),
                         int(round(buf_x + w)), int(round(top + buf_size))],
            })
        buf = []

    def newline(new_x: float, new_y: float):
        nonlocal buf_x, buf_y, buf_size
        flush()
        buf_x, buf_y, buf_size = new_x, new_y, size

    operands: list = []
    for kind, val in _content_tokens(content):
        if kind == "val":
            operands.append(val)
            continue
        op = val
        try:
            if op == "BT":
                in_text = True
                tx = ty = line_x = line_y = 0.0
                newline(0.0, 0.0)
            elif op == "ET":
                flush()
                in_text = False
            elif not in_text:
                pass
            elif op == "Tf" and len(operands) >= 2:
                size = float(operands[-1])
                cur_font = fonts.get(str(operands[-2]), _DEFAULT_FONT)
            elif op == "TL" and operands:
                leading = float(operands[-1])
            elif op == "Td" and len(operands) >= 2:
                line_x += float(operands[-2])
                line_y += float(operands[-1])
                tx, ty = line_x, line_y
                newline(tx, ty)
            elif op == "TD" and len(operands) >= 2:
                leading = -float(operands[-1])
                line_x += float(operands[-2])
                line_y += float(operands[-1])
                tx, ty = line_x, line_y
                newline(tx, ty)
            elif op == "Tm" and len(operands) >= 6:
                line_x = tx = float(operands[-2])
                line_y = ty = float(operands[-1])
                newline(tx, ty)
            elif op == "T*":
                line_y -= leading
                tx, ty = line_x, line_y
                newline(tx, ty)
            elif op == "Tj" and operands:
                buf.append(_decode_show(operands[-1], cur_font))
            elif op == "'" and operands:
                line_y -= leading
                tx, ty = line_x, line_y
                newline(tx, ty)
                buf.append(_decode_show(operands[-1], cur_font))
            elif op == '"' and len(operands) >= 3:
                line_y -= leading
                tx, ty = line_x, line_y
                newline(tx, ty)
                buf.append(_decode_show(operands[-1], cur_font))
            elif op == "TJ" and operands and isinstance(operands[-1], list):
                for piece in operands[-1]:
                    if isinstance(piece, (bytes, str)):
                        buf.append(_decode_show(piece, cur_font))
                    elif isinstance(piece, (int, float)) and piece <= _TJ_SPACE_KERN:
                        buf.append(" ")
        except (TypeError, ValueError):
            pass
        operands = []
    flush()
    return lines


# ---------------------------------------------------------------------------
# top-level API


# inline-image heuristic: BI … ID delimited by PDF whitespace/name
# boundaries.  Can in principle false-positive on "BI … ID" inside a
# string literal, but only upgrades failed→image_only classification —
# never drops text.
_INLINE_IMG_RE = re.compile(rb"(?:^|[\s>\]])BI[\s/].*?[\s>\]]ID[\s]",
                            re.DOTALL)


def _page_has_image(doc: _Doc, page: dict, content: bytes) -> bool:
    """True when the page draws an image: an ``/XObject`` resource with
    ``/Subtype /Image``, or an inline ``BI…ID…EI`` image in the content
    stream.  Scanned-page detector — the signal behind the
    ``n_image_only`` lineage counter (the reference closes this gap with
    its RapidOCR pipeline, document_processor.py:199-230; OCR itself is
    out of scope in this container, so we QUANTIFY it instead)."""
    res = doc.resolve(page.get("Resources"))
    xo = doc.resolve(res.get("XObject")) if isinstance(res, dict) else None
    if isinstance(xo, dict):
        for v in xo.values():
            d = doc.resolve(v)
            if isinstance(d, dict) and str(d.get("Subtype", "")) == "Image":
                return True
    return bool(content and _INLINE_IMG_RE.search(content))


def parse_pdf(raw: bytes) -> dict:
    """→ ``{"pages": [{"page_no", "width", "height", "lines": [{"text",
    "bbox"}], "has_image"}], "status":
    "ok"|"salvaged"|"image_only"|"failed", "image_only_pages": int}``.

    ``salvaged`` = some stream/object failed to decode but text was still
    recovered; ``image_only`` = no text anywhere but at least one page
    draws an image (a scanned document — OCR would be needed);
    ``failed`` = no text, no images.  ``image_only_pages`` counts pages
    with an image and no text regardless of overall status."""
    if not raw.startswith(b"%PDF-"):
        return {"pages": [], "status": "failed", "image_only_pages": 0}
    try:
        doc = _Doc(raw)
        pages_out = []
        for pno, page in enumerate(_pages(doc)):
            mb = doc.resolve(page.get("MediaBox")) or [0, 0, 612, 792]
            try:
                x0, y0, x1, y1 = (float(doc.resolve(v)) for v in mb)
            except (TypeError, ValueError):
                x0, y0, x1, y1 = 0.0, 0.0, 612.0, 792.0
            width, height = abs(x1 - x0), abs(y1 - y0)
            c = page.get("Contents")
            c_res = doc.resolve(c)
            if isinstance(c_res, list):
                refs = c_res          # array of stream refs
            elif isinstance(c, Ref):
                refs = [c]            # single stream ref
            else:
                refs = []
            data = b""
            for r in refs:
                part = doc.stream_bytes(r) if isinstance(r, Ref) else None
                if part is not None:
                    data += part + b"\n"
            fonts = _page_fonts(doc, page)
            lines = interpret_text(data, height, fonts) if data else []
            pages_out.append({
                "page_no": pno, "width": width, "height": height,
                "lines": lines,
                "has_image": _page_has_image(doc, page, data),
            })
        has_text = any(p["lines"] for p in pages_out)
        image_only = sum(
            1 for p in pages_out if p["has_image"] and not p["lines"])
        if not has_text:
            status = "image_only" if image_only else "failed"
            return {"pages": pages_out, "status": status,
                    "image_only_pages": image_only}
        status = "salvaged" if doc.warnings else "ok"
        return {"pages": pages_out, "status": status,
                "image_only_pages": image_only}
    except Exception:
        return {"pages": [], "status": "failed", "image_only_pages": 0}
