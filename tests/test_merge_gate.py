"""Merge gate / re-key / collision-split semantics — mirrors the
reference's gate cases (reference: tests/unit/core/merge/test_merger.py:
schema mismatch raises / downgrades / missing hashes warn; split and
contagion cases at :448-596; identity re-key at test_identity.py)."""

import pytest

from docling_graph_ray.functions.merge_gate import (
    check_merge_compatibility,
    conflicting_scalar_fields,
    recompute_node_id,
    rekey_edge_rows,
    rekey_node_rows,
    resolve_id_fields_map,
    split_conflicting_collisions,
    stamp_graph_metadata,
    template_schema_hash,
)

IDMAP = {"Person": ["name"], "Invoice": ["number"]}


def test_schema_hash_deterministic_and_sensitive():
    h1 = template_schema_hash(IDMAP)
    h2 = template_schema_hash({"Invoice": ["number"], "Person": ["name"]})
    assert h1 == h2  # order-insensitive
    assert template_schema_hash({"Person": ["name", "dob"]}) != h1


def test_stamp_and_gate_same_schema_passes():
    md = stamp_graph_metadata({"run": "a"}, id_fields_map=IDMAP)
    assert md["template_schema_hash"] and md["id_fields_map"] == {
        "Invoice": ["number"], "Person": ["name"]}
    assert check_merge_compatibility([md, dict(md)]) == []


def test_schema_mismatch_raises_by_default():
    a = stamp_graph_metadata({}, id_fields_map=IDMAP)
    b = stamp_graph_metadata({}, id_fields_map={"Person": ["name", "dob"]})
    with pytest.raises(ValueError, match="refusing to merge"):
        check_merge_compatibility([a, b])


def test_schema_mismatch_downgrades_to_warning():
    a = stamp_graph_metadata({}, id_fields_map=IDMAP)
    b = stamp_graph_metadata({}, id_fields_map={"Person": ["name", "dob"]})
    warns = check_merge_compatibility([a, b], strict=False)
    assert len(warns) == 1 and "merging anyway" in warns[0]


def test_missing_schema_hashes_skip_gate_with_warning():
    a = stamp_graph_metadata({}, id_fields_map=IDMAP)
    warns = check_merge_compatibility([a, {}])
    assert len(warns) == 1 and "skipped" in warns[0]
    # single input with no hash: nothing to check
    assert check_merge_compatibility([{}]) == []


def test_resolve_id_fields_map_first_seen_union():
    a = {"id_fields_map": {"Person": ["name"]}}
    b = {"id_fields_map": {"Person": ["other"], "Org": ["org_id"]}}
    assert resolve_id_fields_map([a, b]) == {
        "Person": ["name"], "Org": ["org_id"]}


def test_recompute_node_id_canonicalizes():
    a = {"__class__": "Person", "name": "Ada Lovelace", "age": 36}
    b = {"__class__": "Person", "name": "ada-LOVELACE", "age": 99}
    assert recompute_node_id(a, ["name"]) == recompute_node_id(b, ["name"])
    # no id fields → content branch over truthy scalars
    c1 = {"__class__": "Note", "text": "x", "empty": None, "lst": [1]}
    c2 = {"__class__": "Note", "text": "x", "lst": [2, 3]}
    assert recompute_node_id(c1, []) == recompute_node_id(c2, [])


def test_skolem_stamp_keeps_split_nodes_apart_on_rekey():
    plain = {"__class__": "Item", "name": "row 2"}
    stamped = {"__class__": "Item", "name": "row 2",
               "skolem_document_id": "docB"}
    assert recompute_node_id(plain, ["name"]) != recompute_node_id(
        stamped, ["name"])


def test_rekey_folds_fanin_and_rewrites_edges():
    rows = [
        {"node_id": "old1", "__class__": "Person", "name": "Ada", "x": "1"},
        {"node_id": "old2", "__class__": "Person", "name": "ADA", "x": ""},
        {"node_id": "old3", "__class__": "Person", "name": "Grace"},
    ]
    out, mapping, conflicts = rekey_node_rows(rows, {"Person": ["name"]})
    assert len(out) == 2  # old1+old2 fan in
    assert mapping["old1"] == mapping["old2"] != mapping["old3"]
    assert conflicts == []  # empty x fills, no conflict
    edges = [{"src": "old2", "dst": "old3", "label": "knows"}]
    e = rekey_edge_rows(edges, mapping)
    assert e[0]["src"] == mapping["old1"] and e[0]["dst"] == mapping["old3"]


def test_rekey_cross_class_collision_raises():
    rows = [
        {"node_id": "a", "__class__": "Person", "name": "Ada"},
        {"node_id": "b", "__class__": "Person", "name": "Ada"},
    ]
    out, _, _ = rekey_node_rows(rows, {"Person": ["name"]})
    assert len(out) == 1
    # the same recomputed id under a different class is corrupted input:
    # simulate by giving two classes identical fingerprints via no-id-field
    # branch with identical scalar sets is NOT possible (class mixes into
    # the hash), so assert the guard path via a forged duplicate mapping
    with pytest.raises(ValueError):
        rekey_node_rows(
            [{"node_id": "a", "__class__": "", "name": "x"}],
            {},
        )


def test_conflicting_scalar_fields_rule8():
    a = {"node_id": "i", "amount": 10, "note": "", "lst": [1]}
    b = {"node_id": "i", "amount": 20, "note": "x", "lst": [2]}
    assert conflicting_scalar_fields(a, b) == ["amount"]  # lists/meta skip


def test_collision_split_on_conflict_no_shared_root():
    rows = [
        {"node_id": "line2", "__class__": "LineItem", "doc_id": "docA",
         "root_id": "invA", "amount": 10},
        {"node_id": "line2", "__class__": "LineItem", "doc_id": "docB",
         "root_id": "invB", "amount": 99},
    ]
    out, recs = split_conflicting_collisions(rows, root_col="root_id")
    ids = sorted(r["node_id"] for r in out)
    assert ids[0] == "line2" and ids[1].startswith("line2__doc_")
    assert len(recs) == 1
    assert recs[0]["reason"] == "field-conflict"
    assert recs[0]["conflicting_fields"] == ["amount"]
    split = [r for r in out if r["node_id"] != "line2"][0]
    assert split["skolem_document_id"] == "docB"


def test_shared_root_reextraction_folds_not_splits():
    rows = [
        {"node_id": "line2", "__class__": "LineItem", "doc_id": "docA.jpg",
         "root_id": "invA", "amount": 10},
        {"node_id": "line2", "__class__": "LineItem", "doc_id": "docA.docx",
         "root_id": "invA", "amount": 99},  # conflict BUT same root
    ]
    out, recs = split_conflicting_collisions(rows, root_col="root_id")
    assert recs == []
    assert sorted(r["node_id"] for r in out) == ["line2", "line2"]


def test_compatible_collision_folds_without_contagion():
    rows = [
        {"node_id": "p1", "__class__": "Party", "doc_id": "docA",
         "root_id": "invA", "name": "ACME"},
        {"node_id": "p1", "__class__": "Party", "doc_id": "docB",
         "root_id": "invB", "name": "ACME"},  # agrees → folds by identity
    ]
    out, recs = split_conflicting_collisions(rows, root_col="root_id")
    assert recs == []
    assert {r["node_id"] for r in out} == {"p1"}


def test_same_class_conflict_is_contagious_within_doc_pair():
    rows = [
        {"node_id": "line1", "__class__": "LineItem", "doc_id": "docA",
         "root_id": "invA", "amount": 1},
        {"node_id": "line2", "__class__": "LineItem", "doc_id": "docA",
         "root_id": "invA", "amount": 2},
        {"node_id": "party", "__class__": "Party", "doc_id": "docA",
         "root_id": "invA", "name": "ACME"},
        # docB: line1 conflicts; line2 agrees but same (pair, class) → splits;
        # Party agrees and is a different class → folds
        {"node_id": "line1", "__class__": "LineItem", "doc_id": "docB",
         "root_id": "invB", "amount": 9},
        {"node_id": "line2", "__class__": "LineItem", "doc_id": "docB",
         "root_id": "invB", "amount": 2},
        {"node_id": "party", "__class__": "Party", "doc_id": "docB",
         "root_id": "invB", "name": "ACME"},
    ]
    out, recs = split_conflicting_collisions(rows, root_col="root_id")
    by_reason = {r["original_id"]: r["reason"] for r in recs}
    assert by_reason == {"line1": "field-conflict",
                        "line2": "same-class-conflict"}
    assert recs[1]["triggered_by"] == "line1" or recs[0]["triggered_by"] == "line1" or any(
        r.get("triggered_by") == "line1" for r in recs)
    assert {r["node_id"] for r in out if r["node_id"].startswith("party")} == {"party"}


def test_export_stamped_and_gated_roundtrip(tmp_path):
    """Exports are self-describing (graph_converter.py:279-294): the
    stamped metadata survives graph.json round-trip and drives both the
    gate and id_fields_map resolution on re-merge."""
    import json

    from docling_graph_ray.stages.exporters import (
        FORMAT_MARKER,
        import_graph_json,
    )

    md = stamp_graph_metadata({"run": "r1"}, id_fields_map=IDMAP)
    paths = [tmp_path / "g1.json", tmp_path / "g2.json"]
    for p in paths:
        p.write_text(json.dumps({
            "nodes": [{"node_id": "n1", "__class__": "Person", "name": "Ada"}],
            "edges": [{"src": "n1", "dst": "n1", "label": "self"}],
            "metadata": md, "graph": {"format": FORMAT_MARKER},
        }))
    (_, _, m1), (_, _, m2) = (import_graph_json(str(p)) for p in paths)
    assert check_merge_compatibility([m1, m2]) == []
    assert resolve_id_fields_map([m1, m2]) == {
        "Invoice": ["number"], "Person": ["name"]}
    bad = stamp_graph_metadata({}, id_fields_map={"Person": ["dob"]})
    with pytest.raises(ValueError):
        check_merge_compatibility([m1, bad])


def test_split_then_rekey_remerge_keeps_instances_apart():
    """Round-trip: split → export (stamped) → re-key on re-merge must NOT
    re-fuse (merger.py test_remerge_of_split_export_keeps_instances_apart)."""
    rows = [
        {"node_id": "i1", "__class__": "Item", "doc_id": "docA",
         "root_id": "rA", "name": "row 2", "amount": 1},
        {"node_id": "i1", "__class__": "Item", "doc_id": "docB",
         "root_id": "rB", "name": "row 2", "amount": 9},
    ]
    split, recs = split_conflicting_collisions(rows, root_col="root_id")
    assert len(recs) == 1
    rekeyed, mapping, _ = rekey_node_rows(split, {"Item": ["name"]})
    assert len(rekeyed) == 2  # skolem stamp keeps them apart
    ids = {r["node_id"] for r in rekeyed}
    assert len(ids) == 2
