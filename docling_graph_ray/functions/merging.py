"""Deterministic merge / enrichment folds.

Ports the reference's merge SEMANTICS (not its engine):

- ``enrich_first_wins``: later duplicates fill empty attrs of the first
  record but never overwrite non-empty values (reference:
  docling_graph/core/converters/graph_converter.py:656-689);
- ``fold_records``: left-associative union-fold with keep-first precedence
  and explicit conflict records; deliberately timestamp-free so
  ``merge(A, A) == A`` byte-identically (reference:
  docling_graph/core/merge/node_folder.py:113-252, merger.py:1-10,68-73);
- ``merge_descriptions``: sentence-dedup union with a length cap
  (reference: docling_graph/core/utils/description_merger.py:20-80).

All folds are order-sensitive: callers must present rows in a
deterministic within-group order (SURVEY.md §7.5 item 3) — our groupby
helpers sort groups by an explicit key column first.
"""

from __future__ import annotations

import re


def _is_empty(v: object) -> bool:
    return v is None or v == "" or v == [] or v == {}


def enrich_first_wins(records: list[dict]) -> dict:
    """First record wins; later records only fill empty fields."""
    if not records:
        return {}
    out = dict(records[0])
    for rec in records[1:]:
        for k, v in rec.items():
            if _is_empty(out.get(k)) and not _is_empty(v):
                out[k] = v
    return out


def fold_records(
    records: list[dict], *, conflict_fields: list[str] | None = None
) -> tuple[dict, list[dict]]:
    """Left-associative keep-first fold with conflict records.

    Returns (folded_record, conflicts); a conflict is recorded when a
    later record carries a different non-empty scalar for a field the
    fold already holds.  ``fold([A]) == (A, [])`` and
    ``fold([A, A]) == (A, [])`` (idempotence)."""
    if not records:
        return {}, []
    watch = set(conflict_fields) if conflict_fields is not None else None
    out = dict(records[0])
    conflicts: list[dict] = []
    for i, rec in enumerate(records[1:], start=1):
        for k, v in rec.items():
            if _is_empty(v):
                continue
            cur = out.get(k)
            if _is_empty(cur):
                out[k] = v
            elif cur != v and (watch is None or k in watch):
                conflicts.append(
                    {"field": k, "kept": cur, "dropped": v, "source_index": i}
                )
    return out, conflicts


_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def merge_descriptions(descriptions: list[str], max_len: int = 2000) -> str:
    """Sentence-dedup union preserving first-seen order, capped at a
    sentence boundary."""
    seen: set[str] = set()
    out: list[str] = []
    total = 0
    for desc in descriptions:
        if not desc:
            continue
        for sent in _SENT_SPLIT_RE.split(desc.strip()):
            s = sent.strip()
            key = s.casefold()
            if not s or key in seen:
                continue
            if total + len(s) + (1 if out else 0) > max_len:
                return " ".join(out)
            seen.add(key)
            out.append(s)
            total += len(s) + (1 if len(out) > 1 else 0)
    return " ".join(out)
