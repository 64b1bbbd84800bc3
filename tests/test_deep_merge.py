"""Deep nested-record merge: reference dict_merger semantics
(dict_merger.py:76-347) — scalar overwrite rules, entity-list dedup
ladder, Jaccard fallback, description merging, per-document reduce."""

import json

import pyarrow as pa
import pytest

import ray
import ray.data

from docling_graph_ray.functions.deep_merge import (
    child_fingerprints,
    consolidate_records,
    deep_merge_dicts,
    jaccard,
    merge_partial_records,
)


def test_scalar_last_nonempty_wins():
    t = {"a": 1, "b": "keep", "c": None}
    deep_merge_dicts(t, {"a": 2, "b": "", "c": "fill", "d": 9})
    assert t == {"a": 2, "b": "keep", "c": "fill", "d": 9}


def test_empty_values_never_overwrite():
    t = {"x": "v", "l": [1], "m": {"k": 1}}
    deep_merge_dicts(t, {"x": None, "l": [], "m": {}})
    assert t == {"x": "v", "l": [1], "m": {"k": 1}}


def test_override_roots_wholesale():
    t = {"r": {"a": 1, "b": 2}}
    deep_merge_dicts(t, {"r": {"a": 9}}, override_roots={"r"})
    assert t == {"r": {"a": 9}}


def test_recursive_dict_and_scalar_list():
    t = {"n": {"deep": {"x": 1}}, "tags": ["a", "b"]}
    deep_merge_dicts(t, {"n": {"deep": {"y": 2}}, "tags": ["b", "c"]})
    assert t["n"] == {"deep": {"x": 1, "y": 2}}
    assert t["tags"] == ["a", "b", "c"]  # concat-dedup, first-seen order


def test_entity_list_identity_fields_merge():
    t = {"studies": [{"name": "S1", "n": 5}]}
    s = {"studies": [{"name": "S1", "temp": 20}, {"name": "S2"}]}
    deep_merge_dicts(t, s, identity_fields_map={"studies": ["name"]})
    assert t["studies"] == [{"name": "S1", "n": 5, "temp": 20},
                            {"name": "S2"}]


def test_entity_list_nested_path_identity():
    t = {"studies": [{"name": "S1", "experiments": [{"run": 1, "t": 5}]}]}
    s = {"studies": [{"name": "S1", "experiments": [{"run": 1, "p": 2},
                                                    {"run": 2}]}]}
    deep_merge_dicts(
        t, s, identity_fields_map={"studies": ["name"],
                                   "studies.experiments": ["run"]},
    )
    assert t["studies"][0]["experiments"] == [
        {"run": 1, "t": 5, "p": 2}, {"run": 2}]


def test_entity_list_id_and_content_hash():
    # explicit ids merge; identical stable content (id excluded) merges
    t = {"xs": [{"id": "a", "v": 1}, {"w": 7}]}
    s = {"xs": [{"id": "a", "u": 2}, {"w": 7, "extra": 1}]}
    deep_merge_dicts(t, s)
    assert t["xs"][0] == {"id": "a", "v": 1, "u": 2}
    # {"w":7,"extra":1} hashes differently -> appended
    assert t["xs"][1:] == [{"w": 7}, {"w": 7, "extra": 1}]


def test_jaccard_similarity_fallback():
    a = {"kind": "x", "vals": [{"i": 1}, {"i": 2}]}
    b = {"kind": "x", "vals": [{"i": 1}, {"i": 2}], "note": "later"}
    assert jaccard(child_fingerprints(a), child_fingerprints(b)) >= 0.5
    t = {"es": [dict(a)]}
    s = {"es": [dict(b)]}
    deep_merge_dicts(t, s, merge_similarity_fallback=True)
    assert len(t["es"]) == 1 and t["es"][0]["note"] == "later"
    # without the flag, differing content appends
    t2 = {"es": [dict(a)]}
    deep_merge_dicts(t2, {"es": [dict(b)]})
    assert len(t2["es"]) == 2


def test_description_merge_fields():
    t = {"description": "Alpha beta. Gamma delta."}
    deep_merge_dicts(
        t, {"description": "Gamma delta. Epsilon zeta."},
        description_merge_fields={"description"},
    )
    assert t["description"].count("Gamma delta") == 1
    assert "Epsilon zeta" in t["description"] and "Alpha beta" in t["description"]


def test_consolidate_records_fold():
    assert consolidate_records([]) == {}
    assert consolidate_records([{"a": 1}]) == {"a": 1}
    out = consolidate_records([{"a": 1, "b": "x"}, {"b": "y"}, {"c": 3}])
    assert out == {"a": 1, "b": "y", "c": 3}


def test_merge_partial_records_dataset(ray_session):
    rows = []
    for doc, page, rec in [
        ("d1", 2, {"title": "late", "studies": [{"name": "S1", "p2": 1}]}),
        ("d1", 1, {"title": "early", "studies": [{"name": "S1", "p1": 1}]}),
        ("d2", 1, {"title": "only"}),
    ]:
        rows.append({"doc_id": doc, "page_no": page,
                     "record": json.dumps(rec)})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(3)
    out = merge_partial_records(
        ds, identity_fields_map={"studies": ["name"]}
    ).to_pandas().set_index("doc_id").sort_index()
    d1 = json.loads(out.loc["d1", "record"])
    # sorted by page_no before folding: page 2's title overwrites page 1's
    assert d1["title"] == "late"
    assert d1["studies"] == [{"name": "S1", "p1": 1, "p2": 1}]
    assert int(out.loc["d1", "n_partials"]) == 2
    assert json.loads(out.loc["d2", "record"]) == {"title": "only"}
