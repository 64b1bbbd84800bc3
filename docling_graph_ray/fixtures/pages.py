"""Deterministic synthetic Common-Crawl-style pages table (FIXTURES.md §1).

Every row is a pure function of ``(seed, row_index, profile)`` — no wall
clock, no process state — so goldens never drift (the discipline the
reference applies to its merge subsystem: deliberately timestamp-free for
byte-identical reruns, docling_graph/core/merge/merger.py:68-73, extended
here to the input fixture itself).

Schema (BASELINE.json input_hint):
    url: string, warc_ts: timestamp[us], html: binary, text: string,
    lang: string

Size buckets (skew fixture): tiny 20% / normal 70% / giant 9% /
pathological 1%.  Byte sizes are profile-scaled so unit tests stay fast
while the bench profile exercises real multi-megabyte skew.

Duplicates: rows with ``i % 100 in {32, 65, 98}`` are re-crawls of row
``i-1`` (same url, later warc_ts, regenerated html → latest-wins dedup
test); rows with ``i % 100 == 99`` are exact duplicates of row ``i-4``
(idempotence test).  ~2% of rows are ``%PDF-`` synthetic binaries (binary
lane), ~1% are malformed (salvage ladder), ~5% gzip-wrapped and ~5%
declared windows-1252 (encoding sniff).
"""

from __future__ import annotations

import gzip
import hashlib
from datetime import datetime, timedelta

import numpy as np
import pyarrow as pa

from docling_graph_ray.fixtures.pdf_writer import build_pdf15, simple_text_pdf

BASE_TS = datetime(2025, 1, 1, 0, 0, 0)

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# profile -> (giant_paras, patho_scale): paragraph counts that control byte
# sizes.  "bench" giants land ~0.3-1.2 MB, pathological ~4 MB.
PROFILES = {
    "t1": {"normal_max_paras": 12, "giant_paras": 60, "patho_chars": 120_000},
    "t2": {"normal_max_paras": 30, "giant_paras": 200, "patho_chars": 500_000},
    "bench": {"normal_max_paras": 30, "giant_paras": 1200, "patho_chars": 4_000_000},
    # "linked": t1 sizes + deterministic cross-host footer links — the
    # host link-graph fixture.  A separate profile so existing
    # profiles' html bytes (and the flagship goldens) never change.
    "linked": {"normal_max_paras": 12, "giant_paras": 60,
               "patho_chars": 120_000, "cross_links": 6},
}

LANGS = ["en", "fr", "de", "es"]

# Distinct stopword-rich vocabularies per language so the language-ID
# operator has signal.  Deterministic, embedded, no external data.
_WORDS = {
    "en": (
        "the of and to in is was for that with on as by at from this be are "
        "which has have had not but they were their one all more when there "
        "time data system process result value number method large model"
    ).split(),
    "fr": (
        "le la les de des du et à en un une est sont pour que qui dans sur "
        "avec par plus ne pas au aux ce cette ses leur nous vous ils elles "
        "temps données système processus résultat valeur nombre méthode"
    ).split(),
    "de": (
        "der die das und zu in ist war für mit auf als von bei aus diese "
        "sein sind welche hat haben hatte nicht aber sie waren ihre ein "
        "alle mehr wenn zeit daten system prozess ergebnis wert zahl"
    ).split(),
    "es": (
        "el la los las de del y a en un una es son para que quien con por "
        "más no al este esta sus su nosotros ellos tiempo datos sistema "
        "proceso resultado valor número método modelo grande"
    ).split(),
}

_CATEGORIES = ["news", "blog", "docs", "shop", "wiki", "forum"]


def _rng_for(seed: int, base_id: int, variant: int) -> np.random.Generator:
    key = f"{seed}:{base_id}:{variant}".encode()
    s = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
    return np.random.Generator(np.random.PCG64(s))


def _words(rng: np.random.Generator, lang: str, n: int) -> list[str]:
    vocab = _WORDS[lang]
    idx = rng.integers(0, len(vocab), size=n)
    return [vocab[j] for j in idx]


def _sentence(rng: np.random.Generator, lang: str) -> str:
    ws = _words(rng, lang, int(rng.integers(6, 18)))
    ws[0] = ws[0].capitalize()
    return " ".join(ws) + "."


def _paragraph(rng: np.random.Generator, lang: str, sentences: int | None = None) -> str:
    n = sentences if sentences is not None else int(rng.integers(2, 7))
    return " ".join(_sentence(rng, lang) for _ in range(n))


def _nav_links(rng: np.random.Generator, n: int, site: int) -> str:
    items = "".join(
        f'<li><a href="/cat{j}/page{int(rng.integers(0, 5000))}">'
        f"link item {j}</a></li>"
        for j in range(n)
    )
    return f'<nav class="menu"><ul>{items}</ul></nav>'


def _table(rng: np.random.Generator, lang: str, rows: int) -> str:
    out = ["<table><thead><tr><th>name</th><th>value</th><th>note</th></tr></thead><tbody>"]
    for r in range(rows):
        w = _words(rng, lang, 3)
        out.append(
            f"<tr><td>{w[0]} {r}</td><td>{int(rng.integers(0, 10_000))}</td>"
            f"<td>{w[1]} {w[2]}</td></tr>"
        )
    out.append("</tbody></table>")
    return "".join(out)


def _bucket_for(base_id: int) -> str:
    m = base_id % 100
    if m < 20:
        return "tiny"
    if m < 90:
        return "normal"
    if m < 99:
        return "giant"
    return "pathological"


def _build_html(
    rng: np.random.Generator, base_id: int, lang: str, bucket: str, profile: dict
) -> str:
    site = base_id % 997
    title = " ".join(_words(rng, lang, 5))
    head = (
        f'<head><meta charset="utf-8"><title>{title}</title>'
        f'<script>var x = {base_id}; function f() {{ return x * 2; }}</script>'
        f"<style>.menu {{ color: red; }} body {{ margin: 0; }}</style></head>"
    )
    header = (
        f'<header><h1 class="site-title">Site {site}</h1>'
        + _nav_links(rng, int(rng.integers(4, 12)), site)
        + "</header>"
    )
    n_cross = profile.get("cross_links", 0)
    cross = "".join(
        f'<a href="https://site{(base_id * 31 + j * 97) % 997}.example'
        f'/x/{j}">partner {j}</a> '
        for j in range(n_cross)
    )
    footer = (
        '<footer><p>© 2025 example corp. All rights reserved. '
        + cross
        + '<a href="/terms">terms</a> <a href="/privacy">privacy</a></p></footer>'
    )
    sidebar = (
        '<aside class="sidebar">' + _nav_links(rng, int(rng.integers(5, 15)), site) + "</aside>"
    )

    if bucket == "tiny":
        # nav/boilerplate-only page: expected extracted_text == ""
        body = f"<body>{header}{sidebar}{footer}</body>"
        return f'<!DOCTYPE html><html lang="{lang}">{head}{body}</html>'

    parts = [f"<body>{header}{sidebar}", "<article>"]
    if bucket == "normal":
        n_paras = int(rng.integers(3, profile["normal_max_paras"] + 1))
        for p in range(n_paras):
            if p % 4 == 0:
                parts.append(f"<h2>{' '.join(_words(rng, lang, 4))}</h2>")
            parts.append(f"<p>{_paragraph(rng, lang)}</p>")
        parts.append(_table(rng, lang, int(rng.integers(3, 10))))
        items = "".join(f"<li>{_sentence(rng, lang)}</li>" for _ in range(int(rng.integers(3, 8))))
        parts.append(f"<ul>{items}</ul>")
    elif bucket == "giant":
        # repeated long paragraphs + a huge link farm
        n_paras = profile["giant_paras"]
        base_para = _paragraph(rng, lang, sentences=30)
        for p in range(n_paras):
            if p % 10 == 0:
                parts.append(f"<h2>{' '.join(_words(rng, lang, 4))}</h2>")
            parts.append(f"<p>{base_para} Section {p}.</p>")
        farm = "".join(
            f'<a href="/f/{j}">farm link {j}</a> ' for j in range(n_paras * 10)
        )
        parts.append(f'<div class="linkfarm">{farm}</div>')
    else:  # pathological
        kind = int(rng.integers(0, 3))
        if kind == 0:
            # single unbroken text node
            blob = " ".join(_words(rng, lang, profile["patho_chars"] // 6))
            parts.append(f"<p>{blob}</p>")
        elif kind == 1:
            # deep nesting, depth 200
            depth = 200
            parts.append("<div>" * depth)
            parts.append(f"<p>{_paragraph(rng, lang, sentences=10)}</p>")
            parts.append("</div>" * depth)
        else:
            # giant table (row count scaled by profile)
            parts.append(_table(rng, lang, max(50, profile["patho_chars"] // 80)))
    parts.append("</article>")
    parts.append(footer)
    parts.append("</body>")
    return f'<!DOCTYPE html><html lang="{lang}">{head}{"".join(parts)}</html>'


def _lossy_text(html: str) -> str:
    """Crawler-provided fallback text: naive tag strip + whitespace join."""
    import re

    no_script = re.sub(r"(?is)<(script|style)[^>]*>.*?</\1>", " ", html)
    stripped = re.sub(r"(?s)<[^>]+>", " ", no_script)
    return " ".join(stripped.split())


_PDF_OP_STYLES = ("tm", "td", "tstar", "tj_array", "hex")


def _synth_pdf(rng: np.random.Generator, base_id: int) -> bytes:
    """A REAL generated PDF (fixtures/pdf_writer.py: xref, FlateDecode
    streams, BT/Tj text operators) so the corpus exercises the real
    parser lane (stages/pdf_codec.py); every fifth one keeps the legacy
    inline-payload shape to exercise the salvage rung, and every seventh
    is a PDF-1.5 object-stream + CID-font document (build_pdf15) so the
    modern-PDF path (ObjStm expansion, ToUnicode CMap) stays covered in
    the flagship lineage (should count n_ok, not n_salvaged)."""
    words = [str(int(x)) for x in rng.integers(0, 1_000_000, size=40)]
    if base_id % 5 == 4:
        payload = f"synthetic pdf {base_id} " + " ".join(words)
        return (
            b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog >>\nendobj\n"
            + payload.encode("ascii")
            + b"\n%%EOF"
        )
    lines = [f"synthetic pdf {base_id} page intro"] + [
        " ".join(words[i:i + 8]) for i in range(0, len(words), 8)
    ]
    if base_id % 7 == 3:
        y, page_lines, pages = 720.0, [], []
        for ln in lines:
            page_lines.append((ln, 72.0, y, 12.0))
            y -= 18.0
            if len(page_lines) == 4:
                pages.append({"lines": page_lines})
                page_lines, y = [], 720.0
        if page_lines:
            pages.append({"lines": page_lines})
        return build_pdf15(pages)
    style = _PDF_OP_STYLES[base_id % len(_PDF_OP_STYLES)]
    # every fourth real PDF is multi-page (3 lines per page)
    lpp = 3 if base_id % 4 == 3 else 40
    return simple_text_pdf(lines, op_style=style, lines_per_page=lpp)


def make_row(i: int, seed: int = 42, profile: str = "t2") -> dict:
    """The row for output index ``i`` — pure function of (seed, i, profile)."""
    prof = PROFILES[profile]
    m = i % 100
    if m in (32, 65, 98):
        # re-crawl of the previous row: same url, later ts, regenerated html
        base_id, variant, ts_extra = i - 1, 1, 40_000_000
    elif m == 99:
        # exact duplicate of row i-4 (same url, same ts, same html)
        base_id, variant, ts_extra = i - 4, 0, -4 * 137
    else:
        base_id, variant, ts_extra = i, 0, 0

    rng = _rng_for(seed, base_id, variant)
    lang = LANGS[base_id % 4]
    bucket = _bucket_for(base_id)
    cat = _CATEGORIES[base_id % len(_CATEGORIES)]
    slug = hashlib.blake2b(f"{seed}:{base_id}".encode(), digest_size=6).hexdigest()
    url = f"https://site{base_id % 997}.example/{cat}/{slug}"
    ts = BASE_TS + timedelta(seconds=i * 137 + ts_extra)

    flavor = base_id % 50  # orthogonal-ish to the bucket cycle (100)
    if flavor == 7:  # ~2% synthetic PDFs → binary lane
        html_bytes = _synth_pdf(rng, base_id)
        text = f"pdf document {base_id}"
        return {"url": url, "warc_ts": ts, "html": html_bytes, "text": text, "lang": lang}

    html = _build_html(rng, base_id, lang, bucket, prof)
    text = _lossy_text(html)

    if flavor == 11:
        # declared windows-1252 body with accented chars
        html_1252 = html.replace(
            '<meta charset="utf-8">', '<meta charset="windows-1252">'
        ).replace("Section", "Sección—é")
        html_bytes = html_1252.encode("cp1252", errors="replace")
        text = _lossy_text(html_1252)
    elif flavor in (13, 17):  # ~4% gzip-wrapped
        html_bytes = gzip.compress(html.encode("utf-8"), compresslevel=1, mtime=0)
    elif flavor == 23:
        # malformed: truncated mid-byte (cut a multi-char entity / tag)
        raw = html.encode("utf-8")
        html_bytes = raw[: max(10, int(len(raw) * 0.6))] + b"\xe2"
    elif flavor == 29:
        # malformed: unclosed tags soup
        html_bytes = html.replace("</p>", "").replace("</div>", "").encode("utf-8")
    else:
        html_bytes = html.encode("utf-8")

    return {"url": url, "warc_ts": ts, "html": html_bytes, "text": text, "lang": lang}


def make_pages_table(
    indices: np.ndarray | list[int], seed: int = 42, profile: str = "t2"
) -> pa.Table:
    rows = [make_row(int(i), seed, profile) for i in indices]
    return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)


def pages_dataset(n: int, seed: int = 42, profile: str = "t2", override_num_blocks: int | None = None):
    """Streaming Ray dataset of n synthetic pages (generated inside tasks,
    never materialized on the driver)."""
    import ray
    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        return make_pages_table(batch.column("id").to_pylist(), seed, profile)

    # blocks ≫ cores: the fused downstream chain runs ONE TASK PER BLOCK,
    # so block count — not batch_size — is the parallelism of the whole
    # narrow pipeline.  4 blocks per core also smooths giant-row skew.
    if override_num_blocks:
        nb = override_num_blocks
    else:
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        nb = max(16, min(n, max(4 * cpus, n // 64)))
    return ray.data.range(n, override_num_blocks=nb).map_batches(
        gen, batch_format="pyarrow", batch_size=64
    )


def pages_parquet_dir(n: int, seed: int = 42, profile: str = "t2") -> str:
    """Materialize the synthetic table to /tmp Parquet ONCE and reuse.

    The cache key includes a hash of THIS MODULE's source, so editing the
    generator invalidates stale caches.  Callers then read with
    ``ray.data.read_parquet`` — the timed path matches the north rule's
    input (Parquet shards), not Python row generation.  Files hold
    ``max(250, min(512, n // 64))`` rows each (the last one the rest),
    each generated and written by a Ray task of its own."""
    import hashlib
    import inspect
    import os
    import shutil
    import sys

    import pyarrow.parquet as pq
    import ray

    src_hash = hashlib.blake2b(
        inspect.getsource(sys.modules[__name__]).encode(), digest_size=6
    ).hexdigest()
    dest = f"/tmp/graft_pages_{profile}_{seed}_{n}_{src_hash}"
    if os.path.isdir(dest) and os.listdir(dest):
        return dest
    tmp = dest + ".building"
    shutil.rmtree(tmp, ignore_errors=True)
    # consolidate files (no storm of tiny files) but BOUND the row-group
    # size: a Parquet row group is the smallest unit a distributed read
    # can split, so `n // 64` rows per file as ONE row group made the
    # read granularity GROW with n — at 96k rows each row group was
    # ~400 MB in memory, Ray could only admit 2-3 concurrent reads and
    # the whole pipeline starved behind them (measured: 9x throughput
    # cliff from 48k→96k).  128-row groups ≈ 33 MB in-memory for the
    # bench profile keep reads splittable at every scale.
    os.makedirs(tmp)
    per_file = max(250, min(512, n // 64))

    @ray.remote
    def write_file(k: int, start: int) -> None:
        table = make_pages_table(range(start, min(n, start + per_file)),
                                 seed, profile)
        pq.write_table(table, os.path.join(tmp, f"part-{k:05d}.parquet"),
                       row_group_size=128)

    ray.get([write_file.remote(k, start)
             for k, start in enumerate(range(0, n, per_file))])
    try:
        os.replace(tmp, dest)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)  # concurrent builder won
    return dest
