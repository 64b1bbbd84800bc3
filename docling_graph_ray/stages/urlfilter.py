"""URL domain-blocklist filtering — the crawl-curation gate that drops
pages from known-bad registrable domains (the UT1/adult-blocklist step
of CCNet/RefinedWeb-style pipelines; beyond-reference training-data
operator, SURVEY §7.9 family — it composes with the canonicalizer in
``stages/urlops.py``).

Semantics: a page is blocked when its (lowercased, port-stripped) host
equals a blocklist entry OR ends with ``"." + entry`` — i.e. entries
match themselves and every subdomain, on label boundaries only
("evilsite1.com" does NOT match the entry "site1.com").  When several
entries match, the most specific (longest) suffix wins, ties broken
lexicographically — a total order both the engine and the SQL twin
implement identically.

Scale shape: the blocklist is a true dimension table (UT1 is ~4M
entries, a few tens of MB) — it broadcasts once via ``ray.put`` and
every task probes a shared frozenset; the per-row work is O(labels)
set lookups after one vectorized host-extraction pass.  Nothing
shuffles.  A blocklist that ever outgrew broadcast would switch to
``semi_join_auto`` on the exploded suffix column (the measured
crossover lives in ``stages/joins.py``) — documented, not needed for
any real blocklist.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray

__all__ = ["extract_hosts", "blocklist_annotate"]

_HOST_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://([^/?#]+)")
_PORT_RE = re.compile(r":\d+$")


def extract_hosts(urls) -> list[str]:
    """Lowercased, port-stripped host per url ('' when not a URL)."""
    if isinstance(urls, (pa.Array, pa.ChunkedArray)):
        urls = urls.to_pylist()
    out = []
    for u in urls:
        m = _HOST_RE.match(u or "")
        out.append(_PORT_RE.sub("", m.group(1).lower()) if m else "")
    return out


def _match(host: str, blocked: frozenset[str], max_labels: int) -> str | None:
    """Most-specific blocklist entry matching ``host`` (suffix on label
    boundaries), or None.  Checks longest → shortest, so the first hit
    IS the longest; the lexicographic tiebreak is vacuous here because
    suffixes of one host at a given depth are unique."""
    if not host:
        return None
    labels = host.split(".")
    depth = min(len(labels), max_labels)
    for k in range(depth):
        cand = ".".join(labels[k:])
        if cand in blocked:
            return cand
    return None


def blocklist_annotate(
    ds,
    blocked_domains,
    *,
    url_col: str = "url",
    max_labels: int = 8,
):
    """Annotate every row with ``host``, ``blocked`` and ``blocked_by``
    (the matched entry, null when clean).  Streaming; the blocklist is
    broadcast once (``ray.put``) and probed per batch."""
    bl = frozenset(d.strip().lower() for d in blocked_domains if d.strip())
    bl_ref = ray.put(bl)

    def fn(batch: pa.Table) -> pa.Table:
        b = ray.get(bl_ref)
        hosts = extract_hosts(batch.column(url_col))
        hits = [_match(h, b, max_labels) for h in hosts]
        return (
            batch.append_column("host", pa.array(hosts, pa.string()))
            .append_column("blocked", pa.array(
                np.array([h is not None for h in hits])))
            .append_column("blocked_by", pa.array(hits, pa.string()))
        )

    return ds.map_batches(fn, batch_format="pyarrow")
