"""Deep nested-record merge — N partial extractions of one document
reduced to one nested record.

Ports the reference's dict merger semantics (reference:
docling_graph/core/utils/dict_merger.py:76-347 —
``deep_merge_dicts`` / ``_merge_entity_lists`` /
``consolidate_extracted_data``), the per-document reduce behind
merge_pydantic_models (SURVEY.md §2.5).  Exact rules kept:

- empty source values (None, "", [], {}) never overwrite
  (dict_merger.py:103-105);
- scalars: LAST non-empty wins (source overwrites target,
  dict_merger.py:152-168) — except ``description_merge_fields``,
  which sentence-dedup-merge instead;
- ``override_roots``: wholesale replace on any non-empty source
  (dict_merger.py:98-100);
- dicts merge recursively with dotted-path tracking;
- scalar lists concat + dedup preserving first-seen order
  (dict_merger.py:146-149);
- entity lists (lists of dicts) dedup by: explicit ``id`` →
  path-scoped identity-fields hash → stable-content hash → optional
  child-overlap Jaccard >= 0.5 fallback (dict_merger.py:199-320);
  matches deep-merge rather than append.

Order sensitivity: the fold is left-associative, so partial records
MUST be sorted (page/batch index) before folding — the dataset
operator sorts each group, the discipline the reference applies at
orchestrator.py:2875-2878 (SURVEY.md §7.5.3).
"""

from __future__ import annotations

import copy
import json

import pyarrow as pa

from docling_graph_ray.functions.hashing import blake2b_hex
from docling_graph_ray.functions.merging import merge_descriptions

MERGE_SIMILARITY_THRESHOLD = 0.5


def _is_empty(value: object) -> bool:
    return value is None or value == "" or value == [] or value == {}


def child_fingerprints(entity: dict) -> set[str]:
    """Hashes of child entity-list items plus key:scalar pairs — the
    similarity signature (dict_merger.py:173-189)."""
    fingerprints: set[str] = set()
    for k, v in entity.items():
        if k in ("id", "__class__"):
            continue
        if isinstance(v, list) and v and isinstance(v[0], dict):
            for item in v:
                content = json.dumps(item, sort_keys=True, default=str)
                fingerprints.add(blake2b_hex(content, 8))
        elif v is not None and not isinstance(v, (dict, list)):
            fingerprints.add(f"{k}:{v!s}")
    return fingerprints


def jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def _entity_hash(entity: dict, identity_fields: list[str] | None) -> str:
    """Identity-fields hash when any identity value is present, else a
    stable-content hash (dict_merger.py:222-238)."""
    if identity_fields:
        identity_data = {f: entity.get(f) for f in identity_fields}
        if any(v not in (None, "") for v in identity_data.values()):
            return blake2b_hex(
                json.dumps(identity_data, sort_keys=True, default=str), 8
            )
    stable = {k: v for k, v in entity.items()
              if k not in ("id", "__class__") and v is not None}
    return blake2b_hex(json.dumps(stable, sort_keys=True, default=str), 8)


def deep_merge_dicts(
    target: dict,
    source: dict,
    *,
    identity_fields_map: dict[str, list[str]] | None = None,
    override_roots: set[str] | None = None,
    parent_path: str = "",
    merge_similarity_fallback: bool = False,
    description_merge_fields: set[str] | None = None,
    description_merge_max_length: int = 4096,
) -> dict:
    """Recursive merge of ``source`` into ``target`` (mutates target)."""
    for key, source_value in source.items():
        if (override_roots and key in override_roots
                and not _is_empty(source_value)):
            target[key] = copy.deepcopy(source_value)
            continue
        if _is_empty(source_value):
            continue
        if key not in target or _is_empty(target[key]):
            target[key] = copy.deepcopy(source_value)
            continue

        target_value = target[key]
        child_path = f"{parent_path}.{key}" if parent_path else key

        if isinstance(target_value, dict) and isinstance(source_value, dict):
            deep_merge_dicts(
                target_value, source_value,
                identity_fields_map=identity_fields_map,
                override_roots=override_roots, parent_path=child_path,
                merge_similarity_fallback=merge_similarity_fallback,
                description_merge_fields=description_merge_fields,
                description_merge_max_length=description_merge_max_length,
            )
        elif isinstance(target_value, list) and isinstance(source_value, list):
            if target_value and isinstance(target_value[0], dict):
                target[key] = _merge_entity_lists(
                    target_value, source_value,
                    identity_fields=(identity_fields_map or {}).get(child_path),
                    parent_path=child_path,
                    identity_fields_map=identity_fields_map,
                    merge_similarity_fallback=merge_similarity_fallback,
                    description_merge_fields=description_merge_fields,
                    description_merge_max_length=description_merge_max_length,
                )
            else:
                for item in source_value:
                    if item not in target_value:
                        target_value.append(item)
        else:
            if (
                description_merge_fields
                and key in description_merge_fields
                and isinstance(target_value, str)
                and isinstance(source_value, str)
            ):
                target[key] = merge_descriptions(
                    [target_value, source_value],
                    max_len=description_merge_max_length,
                )
            else:
                target[key] = copy.deepcopy(source_value)
    return target


def _merge_entity_lists(
    target_list: list[dict],
    source_list: list[dict],
    *,
    identity_fields: list[str] | None,
    parent_path: str,
    identity_fields_map: dict[str, list[str]] | None,
    merge_similarity_fallback: bool,
    description_merge_fields: set[str] | None,
    description_merge_max_length: int,
) -> list[dict]:
    def merge_into(existing: dict, incoming: dict) -> None:
        deep_merge_dicts(
            existing, incoming,
            identity_fields_map=identity_fields_map,
            parent_path=parent_path,
            merge_similarity_fallback=merge_similarity_fallback,
            description_merge_fields=description_merge_fields,
            description_merge_max_length=description_merge_max_length,
        )

    merged: list[dict] = []
    id_map: dict[str, dict] = {}
    seen_hashes: dict[str, dict] = {}
    for entity in target_list:
        # mixed lists (a scalar among entity dicts) are malformed input;
        # keep the scalar as an opaque member rather than throwing —
        # the engine-wide salvage discipline (functions/salvage.py)
        if not isinstance(entity, dict):
            merged.append(entity)
            continue
        entity_id = entity.get("id")
        if entity_id:
            id_map[entity_id] = entity
        else:
            seen_hashes[_entity_hash(entity, identity_fields)] = entity
        merged.append(entity)

    for source_entity in source_list:
        if not isinstance(source_entity, dict):
            if source_entity not in merged:
                merged.append(source_entity)
            continue
        source_id = source_entity.get("id")
        if source_id and source_id in id_map:
            merge_into(id_map[source_id], source_entity)
        elif source_id:
            merged.append(source_entity)
            id_map[source_id] = source_entity
        else:
            s_hash = _entity_hash(source_entity, identity_fields)
            if s_hash in seen_hashes:
                merge_into(seen_hashes[s_hash], source_entity)
            elif merge_similarity_fallback:
                src_fp = child_fingerprints(source_entity)
                best_score, best_entity = 0.0, None
                for existing in merged:
                    if existing.get("id") and existing["id"] != source_id:
                        continue
                    score = jaccard(src_fp, child_fingerprints(existing))
                    if score > best_score:
                        best_score, best_entity = score, existing
                if (best_entity is not None
                        and best_score >= MERGE_SIMILARITY_THRESHOLD):
                    merge_into(best_entity, source_entity)
                else:
                    merged.append(source_entity)
                    seen_hashes[s_hash] = source_entity
            else:
                merged.append(source_entity)
                seen_hashes[s_hash] = source_entity
    return merged


def consolidate_records(records: list[dict], **kwargs) -> dict:
    """Left-associative fold of partial records
    (dict_merger.py:324-347 ``consolidate_extracted_data``)."""
    if not records:
        return {}
    consolidated = copy.deepcopy(records[0])
    for record in records[1:]:
        deep_merge_dicts(consolidated, record, **kwargs)
    return consolidated


def merge_partial_records(
    ds,
    *,
    doc_col: str = "doc_id",
    order_col: str = "page_no",
    json_col: str = "record",
    identity_fields_map: dict[str, list[str]] | None = None,
    merge_similarity_fallback: bool = False,
    description_merge_fields: set[str] | None = None,
):
    """Dataset operator: N partial JSON records per document → one
    merged nested record per document — the per-document reduce of
    merge_pydantic_models (SURVEY.md §2.5), with the deterministic-order
    discipline built in.

    Partition-bucketed (stages/bucketing.py): ``map_groups`` runs once
    per ``hash(doc_col) % P`` bucket, never once per document (SURVEY
    §7.4) — the deep merge is inherent per-record Python, but the per-
    group task/slice/table overhead is gone; one sorted pass walks the
    doc runs.  Partitioning assumption: one document's partials always
    share a bucket."""
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def merge_partition(g: pa.Table) -> pa.Table:
        # json_col as tiebreak: order_col alone is not a total order when
        # two partials share a page (observed: duplicate l_linenumber per
        # order), and without one the keep-first winner depends on shuffle
        # arrival order.
        g = g.take(pa.compute.sort_indices(g, sort_keys=[
            (doc_col, "ascending"), (order_col, "ascending"),
            (json_col, "ascending"),
        ])).combine_chunks()
        starts, lens = run_starts(g, [doc_col])
        doc_ids = g.column(doc_col).to_pylist()
        payloads = g.column(json_col).to_pylist()
        out_doc, out_n, out_rec = [], [], []
        for s, ln in zip(starts.tolist(), lens.tolist()):
            merged = consolidate_records(
                [json.loads(p) if p else {} for p in payloads[s:s + ln]],
                identity_fields_map=identity_fields_map,
                merge_similarity_fallback=merge_similarity_fallback,
                description_merge_fields=description_merge_fields,
            )
            out_doc.append(doc_ids[s])
            out_n.append(ln)
            out_rec.append(
                json.dumps(merged, sort_keys=True, ensure_ascii=False))
        return pa.table({
            doc_col: pa.array(out_doc, g.column(doc_col).type),
            "n_partials": pa.array(out_n, pa.int64()),
            "record": pa.array(out_rec, pa.string()),
        })

    return bucketed_map(ds, [doc_col], merge_partition)
