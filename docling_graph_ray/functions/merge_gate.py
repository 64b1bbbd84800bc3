"""Merge compatibility gate, re-keying, and the conflicting-collision
split guard — the safety rails around the union-fold merge.

Reference semantics (ported behavior, not code):

- **Schema-hash gate** (docling_graph/core/merge/merger.py:291-329):
  graphs exported under different template schemas refuse to merge in
  strict mode; non-strict merges proceed with a warning.  Exports are
  self-describing: format-v2 graphs embed ``template_schema_hash`` +
  ``id_fields_map`` so later merges can gate and re-key without the
  template (graph_converter.py:279-294).
- **Re-key** (docling_graph/core/merge/identity.py:86-180): node ids are
  recomputed from the declared identity fields under the current
  canonicalizer; ``skolem_document_id`` (when present) is mixed into the
  fingerprint so a re-merge never silently re-fuses previously split
  nodes; fan-ins (two old ids → one new id) fold with keep-first +
  conflict records instead of clobbering; a recomputed id colliding
  across different classes is corrupted input → ValueError.
- **Conflicting-collision split** (merger.py:473-596): when the same
  node id arrives from two documents that share no root scope AND
  folding would overwrite a conflicting non-empty scalar, the later
  document's occurrence is renamed ``<id>__doc_<doc8>`` and stamped
  ``skolem_document_id``.  One proven conflict is CONTAGIOUS within its
  (document-pair, class) group: it proves that class's identity fields
  under-determine instances across those documents, so every collision
  of that class between the pair splits even when values agree.
"""

from __future__ import annotations

import json
from collections import defaultdict

from docling_graph_ray.functions.hashing import blake2b_hex
from docling_graph_ray.functions.merging import _is_empty, fold_records
from docling_graph_ray.functions.normalize import node_id as _node_id

_META_ATTRS = frozenset((
    "node_id", "__class__", "class", "id", "label", "type", "doc_id",
    "skolem_document_id",
))


# ---------------------------------------------------------------------------
# schema hash + stamping


def template_schema_hash(id_fields_map: dict[str, list[str]],
                         field_specs: dict | None = None) -> str:
    """Deterministic hash of the template's identity schema: the
    {class: graph_id_fields} map plus optional per-class field specs.
    Same schema ⇒ same hash on any machine (canonical JSON, blake2b-16hex
    — provenance/models.py:40-48 analogue)."""
    spec = {
        "id_fields_map": {k: list(v) for k, v in sorted(id_fields_map.items())},
        "field_specs": field_specs or {},
    }
    return blake2b_hex(json.dumps(spec, sort_keys=True, default=str),
                       digest_size=8)


def stamp_graph_metadata(metadata: dict | None, *,
                         id_fields_map: dict[str, list[str]],
                         field_specs: dict | None = None) -> dict:
    """Metadata dict for ``export_graph_json`` carrying
    the self-describing identity schema (graph_converter.py:279-294)."""
    out = dict(metadata or {})
    out["id_fields_map"] = {k: list(v) for k, v in sorted(id_fields_map.items())}
    out["template_schema_hash"] = template_schema_hash(id_fields_map, field_specs)
    return out


def check_merge_compatibility(metadatas: list[dict], *,
                              strict: bool = True) -> list[str]:
    """Schema-hash gate over the inputs' export metadata.

    Returns warnings; raises ``ValueError`` when hashes differ in strict
    mode (merger.py:291-329: 'refusing to merge')."""
    hashes: dict[str, list[int]] = defaultdict(list)
    missing: list[int] = []
    for i, md in enumerate(metadatas):
        h = (md or {}).get("template_schema_hash")
        if h:
            hashes[str(h)].append(i)
        else:
            missing.append(i)
    warnings: list[str] = []
    if len(hashes) > 1:
        detail = {h[:12]: idx for h, idx in sorted(hashes.items())}
        if strict:
            raise ValueError(
                "inputs were extracted with different template schemas; "
                f"refusing to merge (strict gate): {detail}"
            )
        warnings.append(
            "template schemas differ across inputs; merging anyway — "
            f"same-named classes merge by node id: {detail}"
        )
    if missing and len(metadatas) > 1:
        warnings.append(
            "template compatibility check skipped for inputs without a "
            f"schema hash: {missing}"
        )
    return warnings


def resolve_id_fields_map(metadatas: list[dict]) -> dict[str, list[str]]:
    """First-seen union of the inputs' embedded ``id_fields_map`` (the
    v2-export rung of the reference's identity-resolution ladder,
    merger.py:331-356: template > v2 export map > ledger)."""
    out: dict[str, list[str]] = {}
    for md in metadatas:
        raw = (md or {}).get("id_fields_map")
        if isinstance(raw, dict):
            for cls, fields in raw.items():
                if cls not in out and isinstance(fields, list):
                    out[str(cls)] = [f for f in fields if isinstance(f, str)]
    return out


# ---------------------------------------------------------------------------
# re-keying


def recompute_node_id(attrs: dict, id_fields: list[str] | None,
                      class_col: str = "__class__") -> str:
    """Deterministic node id for an exported node-attribute dict
    (identity.py:86-180 semantics on the flat row model).

    Declared id fields canonicalize through the shared normalizer;
    classes without id fields fingerprint every truthy non-collection
    non-meta attribute; ``skolem_document_id`` is mixed in so re-merges
    keep split nodes apart."""
    cls = str(attrs.get(class_col) or attrs.get("class") or "")
    if not cls:
        raise ValueError("node has no class attribute; cannot recompute id")
    if id_fields:
        ident = {f: attrs.get(f) for f in id_fields if f in attrs}
    else:
        ident = {
            k: v for k, v in attrs.items()
            if k not in _META_ATTRS and v and not isinstance(v, (list, dict))
        }
    skolem = attrs.get("skolem_document_id")
    if skolem:
        ident["skolem_document_id"] = str(skolem)
    return _node_id(cls, ident)


def rekey_node_rows(
    rows: list[dict], id_fields_map: dict[str, list[str]], *,
    id_col: str = "node_id", class_col: str = "__class__",
) -> tuple[list[dict], dict[str, str], list[dict]]:
    """Recompute every node id under the current canonicalizer.

    Returns ``(rows_out, old→new mapping, fold_conflicts)``.  Fan-ins
    (two old ids → one new id) fold keep-first with conflict records
    instead of clobbering; an id colliding across classes raises
    (corrupted input — registry parity)."""
    mapping: dict[str, str] = {}
    class_by_new: dict[str, str] = {}
    by_new: dict[str, list[dict]] = defaultdict(list)
    for r in rows:
        cls = str(r.get(class_col) or r.get("class") or "")
        new_id = recompute_node_id(r, list(id_fields_map.get(cls) or []),
                                   class_col)
        prev_cls = class_by_new.get(new_id)
        if prev_cls is not None and prev_cls != cls:
            raise ValueError(
                f"recomputed id {new_id!r} collides across classes "
                f"{prev_cls!r} and {cls!r}: corrupted input"
            )
        class_by_new[new_id] = cls
        mapping[str(r.get(id_col))] = new_id
        by_new[new_id].append(r)

    from docling_graph_ray.functions.normalize import (
        canonicalize_identity_for_dedup,
    )

    out: list[dict] = []
    conflicts: list[dict] = []
    for new_id in sorted(by_new):
        group = by_new[new_id]
        folded, confs = fold_records(
            [{k: v for k, v in r.items() if k != id_col} for r in group]
        )
        folded[id_col] = new_id
        for c in confs:
            # formatting noise (canonically-equal values) folds silently —
            # merger.py test_formatting_noise_folds_shared_entity semantics
            if (canonicalize_identity_for_dedup(c["field"], c["kept"])
                    == canonicalize_identity_for_dedup(c["field"], c["dropped"])):
                continue
            conflicts.append({**c, "node_id": new_id})
        out.append(folded)
    return out, mapping, conflicts


def rekey_edge_rows(edges: list[dict], mapping: dict[str, str], *,
                    src_col: str = "src", dst_col: str = "dst") -> list[dict]:
    out = []
    for e in edges:
        e2 = dict(e)
        e2[src_col] = mapping.get(str(e[src_col]), e[src_col])
        e2[dst_col] = mapping.get(str(e[dst_col]), e[dst_col])
        out.append(e2)
    return out


# ---------------------------------------------------------------------------
# conflicting-collision split guard


def conflicting_scalar_fields(a: dict, b: dict,
                              exclude: tuple = ()) -> list[str]:
    """Fields where both sides carry different non-empty scalars — the
    rule-8 conflict test (fill-empty-compatible pairs return []).
    Formatting noise is NOT a conflict: values equal under the canonical
    identity normalizer fold silently, the same tolerance the re-key
    fan-in fold applies (rekey_node_rows; reference
    test_formatting_noise_folds_shared_entity semantics)."""
    from docling_graph_ray.functions.normalize import (
        canonicalize_identity_for_dedup,
    )

    out = []
    for k in sorted(set(a) & set(b)):
        if k in _META_ATTRS or k in exclude:
            continue
        va, vb = a.get(k), b.get(k)
        if (not _is_empty(va) and not _is_empty(vb)
                and not isinstance(va, (list, dict))
                and not isinstance(vb, (list, dict)) and va != vb
                and (canonicalize_identity_for_dedup(k, va)
                     != canonicalize_identity_for_dedup(k, vb))):
            out.append(k)
    return out


def split_conflicting_collisions(
    node_rows: list[dict], *,
    id_col: str = "node_id", doc_col: str = "doc_id",
    class_col: str = "__class__", root_col: str | None = None,
) -> tuple[list[dict], list[dict]]:
    """merger.py:473-596 on the flat row model.

    Inputs process in document order (sorted ``doc_col``); the first
    document owning an id keeps it.  A later document's occurrence splits
    (rename ``<id>__doc_<doc8>`` + ``skolem_document_id`` stamp) when

    - the two occurrences share no root scope (``root_col`` when
      provided; occurrences sharing a root are re-extractions of one
      logical document and legitimately fold), AND
    - a non-empty scalar conflicts — OR any collision of the same class
      between the same document pair conflicts (contagion: that class's
      identity under-determines instances across the pair).

    Returns ``(rows_out, split_records)``."""
    docs = sorted({str(r.get(doc_col)) for r in node_rows})
    rows_by_doc: dict[str, list[dict]] = defaultdict(list)
    for r in node_rows:
        rows_by_doc[str(r.get(doc_col))].append(r)

    first_owner: dict[str, tuple[str, dict]] = {}  # id → (doc, row)
    out: list[dict] = []
    records: list[dict] = []

    for doc in docs:
        rows = rows_by_doc[doc]
        # collect this input's collisions against earlier owners
        collisions: list[tuple[dict, str, dict, list[str], str]] = []
        for r in rows:
            key = str(r.get(id_col))
            owner = first_owner.get(key)
            if owner is None:
                continue
            owner_doc, owner_row = owner
            if root_col is not None:
                o_scope = {owner_row.get(root_col)} - {None}
                i_scope = {r.get(root_col)} - {None}
                if o_scope & i_scope:
                    continue
            confs = conflicting_scalar_fields(
                owner_row, r,
                exclude=((root_col, doc_col) if root_col is not None
                         else (doc_col,)),
            )
            cls = str(r.get(class_col) or r.get("class") or "")
            collisions.append((r, owner_doc, owner_row, confs, cls))

        trigger_by_group: dict[tuple[str, str], str] = {}
        for r, owner_doc, _orow, confs, cls in collisions:
            if confs and cls:
                trigger_by_group.setdefault((owner_doc, cls),
                                            str(r.get(id_col)))

        split_rows = set()
        for r, owner_doc, _orow, confs, cls in collisions:
            trigger = trigger_by_group.get((owner_doc, cls)) if cls else None
            if not confs and trigger is None:
                continue
            key = str(r.get(id_col))
            new_id = f"{key}__doc_{blake2b_hex(doc, digest_size=4)}"
            r2 = dict(r)
            r2[id_col] = new_id
            r2["skolem_document_id"] = doc
            out.append(r2)
            split_rows.add(id(r))
            first_owner.setdefault(new_id, (doc, r2))
            rec = {
                "original_id": key, "split_id": new_id, "class": cls,
                "conflicting_fields": confs,
                "reason": "field-conflict" if confs else "same-class-conflict",
                "document_id": doc, "collided_with": owner_doc,
            }
            if not confs:
                rec["triggered_by"] = trigger
            records.append(rec)

        for r in rows:
            if id(r) not in split_rows:
                out.append(r)
                first_owner.setdefault(str(r.get(id_col)), (doc, r))

    records.sort(key=lambda r: (r["document_id"], r["original_id"]))
    return out, records
