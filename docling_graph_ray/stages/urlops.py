"""URL canonicalization + URL-keyed dedup — web-crawl curation primitives.

A crawl sees the same page under many spellings: scheme/host case noise,
explicit default ports, tracking parameters, fragments.  Canonicalizing
before url-keyed operations (dedup, per-site rollups, frontier joins) is
the first normalization pass of every production crawl pipeline.

Canonical form (documented contract, applied in this order):

1. strip the fragment (``#…``);
2. lowercase the ``scheme://host[:port]`` prefix (path/query case is
   semantic and preserved);
3. drop explicit default ports (``http://h:80`` → ``http://h``,
   ``https://h:443`` → ``https://h``);
4. remove tracking parameters (``utm_*``, ``gclid``, ``fbclid``,
   ``msclkid``) wherever they sit in the query string;
5. drop a now-empty ``?``.

Everything is RE2 (``pyarrow.compute`` string kernels — one C++ pass per
rule over the whole batch, no Python per row), which is also what DuckDB
regexp functions run — so the oracle SQL in ``__ray_entry__`` mirrors
each rule literally and byte-agrees.  Rule 4's mid-query rule is applied
a fixed 3 times on BOTH sides: RE2 GlobalReplace does not rescan emitted
text, so k adjacent tracking params need ⌈k/1⌉ passes — 3 bounds any
realistic tracker pileup deterministically.

Scale: canonicalization is embarrassingly parallel (map_batches, zero
shuffle).  ``url_dedup`` shuffles one string key + int64 id per row into
C-path ``Min``/``Count`` aggregates — no per-group Python (the 324 s/
1.6M-group ``map_groups`` disease, SURVEY §7.4).

Reference semantics: the reference normalizes entity identity text
before dedup (docling_graph/core/utils/normalization.py) — urls are the
web-scale identity column, same role.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_TRACKERS = r"(?:utm_[^=&#]*|gclid|fbclid|msclkid)"

# (pattern, rewrite, repeat) — applied in order
_RULES: list[tuple[str, str, int]] = [
    (r"#.*$", "", 1),                                        # 1 fragment
    # 2 handled separately (needs lowercase of a match, not a rewrite)
    (r"^(http://[^/?:]+):80((?:[/?].*)?)$", r"\1\2", 1),     # 3 default :80
    (r"^(https://[^/?:]+):443((?:[/?].*)?)$", r"\1\2", 1),   # 3 default :443
    (r"([?&])" + _TRACKERS + r"=[^&#]*&", r"\1", 3),         # 4 mid-query
    (r"[?&]" + _TRACKERS + r"=[^&#]*$", "", 1),              # 4 tail
    (r"\?$", "", 1),                                         # 5 empty query
]

_PREFIX = r"^[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*"


def canonicalize_url(arr) -> pa.Array:
    """Vectorized canonical form of a string array of urls."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # rule 1 first so the prefix match never sees a fragment
    out = pc.replace_substring_regex(arr, pattern=r"#.*$", replacement="")
    # rule 2: lowercase scheme://host[:port]; non-matching rows unchanged
    head = pc.extract_regex(out, pattern="(?P<h>" + _PREFIX + ")")
    head_vals = pc.struct_field(head, "h")
    lowered = pc.binary_join_element_wise(
        pc.utf8_lower(head_vals),
        pc.replace_substring_regex(out, pattern=_PREFIX, replacement=""),
        "",
    )
    out = pc.if_else(pc.is_valid(head_vals), lowered, out)
    for pattern, rewrite, repeat in _RULES[1:]:
        for _ in range(repeat):
            out = pc.replace_substring_regex(
                out, pattern=pattern, replacement=rewrite
            )
    return out


def synth_messy_urls(doc_ids) -> pa.Array:
    """Deterministic messy url per doc_id — six spelling variants of the
    same canonical page (case noise, default ports, adjacent trackers,
    fragments).  Mirrored literally by the oracle SQL so the
    canonicalizer is checked against an independent DuckDB regexp
    implementation.  Vectorized (numpy unicode kernels)."""
    import numpy as np

    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    i = doc_ids.cast(pa.int64()).to_numpy(zero_copy_only=False)
    # six consecutive ids = the six spelling variants of ONE canonical
    # page, so url_dedup genuinely collapses (5 http spellings fold; the
    # https spelling keeps its own canonical)
    k = i % 6
    g = i // 6
    site = (g % 50).astype("U")
    page = (g % 40).astype("U")
    q = (g % 3).astype("U")

    def J(*parts):
        out = parts[0] if isinstance(parts[0], np.ndarray) else np.full(len(i), parts[0], object)
        for p in parts[1:]:
            out = np.char.add(out.astype("U"), p if isinstance(p, np.ndarray) else np.full(len(i), p, "U32"))
        return out

    base = J("site", site, ".com/page", page)
    variants = [
        J("HTTP://", base, "?q=", q),
        J("http://Site", site, ".COM/page", page, "?q=", q, "#top"),
        J("http://site", site, ".com:80/page", page, "?q=", q),
        J("http://", base, "?utm_source=a&utm_medium=b&q=", q),
        J("http://", base, "?q=", q, "&fbclid=Zz9"),
        J("https://site", site, ".com:443/page", page, "?q=", q),
    ]
    out = variants[0]
    for kk in range(1, 6):
        out = np.where(k == kk, variants[kk], out)
    return pa.array(out.astype("U"), pa.string())


def url_dedup(ds, *, url_col: str = "url", id_col: str = "doc_id"):
    """One row per canonical url: ``(url_canon, keep_id, n_dups)`` with
    the minimum id as the deterministic keeper.  Partition-bucketed
    Arrow hash-aggregates (a native ``groupby(url)`` sort-shuffles by
    the full url domain — measured 80× slower at 1e7 keys, see
    bucketing.bucketed_aggregate); the shuffle carries (url_canon, id)
    — never page payloads."""
    from docling_graph_ray.stages.bucketing import bucketed_aggregate

    slim = ds.map_batches(
        lambda b: pa.table(
            {
                "url_canon": canonicalize_url(b.column(url_col)),
                id_col: b.column(id_col).cast(pa.int64()).combine_chunks(),
            }
        ),
        batch_format="pyarrow",
    )
    return bucketed_aggregate(
        slim, ["url_canon"], [(id_col, "min"), ("", "count_all")],
        rename=["url_canon", "keep_id", "n_dups"], combine=True,
    )
