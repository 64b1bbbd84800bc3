"""Extraction-quality evaluation: strict/relaxed/aligned node matching,
edge P/R/F1 via fold maps, micro summation, completeness, verbatim —
hand-computed expectations (reference semantics:
docs/examples/scripts/16_extraction_evaluation.py)."""

import pyarrow as pa
import pytest

import ray
import ray.data

from docling_graph_ray.stages.evaluate import (
    TAGGED_SCHEMA,
    evaluate_graphs,
    identity_token,
    pair_similarity,
    relaxed_match_pairs,
    tag_graph,
)


def _ds(rows):
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def _nodes(side_rows):
    return _ds([
        {"doc_id": d, "class": c, "key": k, **attrs}
        for d, c, k, attrs in side_rows
    ])


def _sources(rows):
    """Source-text rows in the tagged layout (side ``src``; the text rides
    in ``attrs``) for the verbatim check."""
    return ray.data.from_arrow(pa.Table.from_pylist([
        {"doc_id": d, "side": "src", "kind": "source", "cls": "", "key": "",
         "src": "", "dst": "", "attrs": text}
        for d, text in rows
    ], schema=TAGGED_SCHEMA))


def _edges(rows):
    return _ds([
        {"doc_id": d, "label": lbl,
         "src": identity_token(*s), "dst": identity_token(*t)}
        for d, lbl, s, t in rows
    ])


@pytest.fixture()
def counts(ray_session):
    gt_nodes = _nodes([
        ("d1", "Person", "ALICE", {"role": "eng", "age": 30, "bio": None}),
        ("d1", "Person", "BOB_2", {"role": None, "age": None, "bio": None}),
        ("d1", "Org", "ACME", {"role": None, "age": None, "bio": None}),
    ])
    bio = "alice builds deterministic extraction pipelines " * 3  # >= 80 chars
    got_nodes = _nodes([
        ("d1", "Person", "ALICE", {"role": "eng", "age": None, "bio": bio}),
        ("d1", "Person", "BOB_2_JR", {"role": None, "age": None, "bio": None}),
        ("d1", "Org", "GLOBEX", {"role": None, "age": None, "bio": None}),
    ])
    gt_edges = _edges([
        ("d1", "WORKS_AT", ("Person", "ALICE"), ("Org", "ACME")),
        ("d1", "KNOWS", ("Person", "ALICE"), ("Person", "BOB_2")),
    ])
    got_edges = _edges([
        ("d1", "WORKS_AT", ("Person", "ALICE"), ("Org", "GLOBEX")),
        ("d1", "KNOWS", ("Person", "ALICE"), ("Person", "BOB_2_JR")),
    ])
    tagged = tag_graph(gt_nodes, gt_edges, side="gt",
                       attr_cols=["role", "age", "bio"]).union(
        tag_graph(got_nodes, got_edges, side="got",
                  attr_cols=["role", "age", "bio"]),
        _sources([("d1", "Source doc. " + bio)]),
    )
    out = evaluate_graphs(tagged, structural="off").to_pandas()
    return out.set_index(["section", "rung", "cls"]).sort_index()


def _row(counts, section, rung, cls):
    r = counts.loc[(section, rung, cls)]
    return (int(r["tp"]), int(r["fp"]), int(r["fn"]))


def test_node_strict_and_relaxed(counts):
    # strict: ALICE matches; BOB_2 vs BOB_2_JR differ; relaxed containment
    # with equal digit signature pairs them uniquely.
    assert _row(counts, "nodes", "strict", "Person") == (1, 1, 1)
    assert _row(counts, "nodes", "relaxed", "Person") == (2, 0, 0)
    assert _row(counts, "nodes", "strict", "Org") == (0, 1, 1)
    assert _row(counts, "nodes", "relaxed", "Org") == (0, 1, 1)


def test_edge_strict_and_relaxed_fold(counts):
    # KNOWS edge only matches after the relaxed fold rewrites BOB_2_JR -> BOB_2
    assert _row(counts, "edges", "strict", "KNOWS") == (0, 1, 1)
    assert _row(counts, "edges", "relaxed", "KNOWS") == (1, 0, 0)
    # WORKS_AT never matches (Org unmatched at every rung)
    assert _row(counts, "edges", "strict", "WORKS_AT") == (0, 1, 1)
    assert _row(counts, "edges", "relaxed", "WORKS_AT") == (0, 1, 1)


def test_completeness_on_strict_matches(counts):
    # ALICE: gt has role + age filled; got fills role only
    assert _row(counts, "completeness", "role", "Person") == (1, 0, 0)
    assert _row(counts, "completeness", "age", "Person") == (0, 0, 1)


def test_verbatim_ratio(counts):
    # got ALICE bio (>= 80 chars) is verbatim-contained in the source
    assert _row(counts, "verbatim", "", "") == (1, 0, 0)


def test_structural_alignment_on_synthetic_ids(ray_session):
    # GT id is an invented slug; attributes align the pair (score >= 1.0)
    gt = _nodes([("d1", "Study", "STUDY-LFP-GELATION",
                  {"title": "Gelation of LFP", "n": 7})])
    got = _nodes([("d1", "Study", "RUN A",
                   {"title": "Gelation of LFP", "n": 7})])
    tagged = tag_graph(gt, None, side="gt", attr_cols=["title", "n"]).union(
        tag_graph(got, None, side="got", attr_cols=["title", "n"])
    )
    out = evaluate_graphs(tagged, structural="on").to_pandas()
    out = out.set_index(["section", "rung", "cls"]).sort_index()
    assert _row(out, "nodes", "strict", "Study") == (0, 1, 1)
    assert _row(out, "nodes", "aligned", "Study") == (1, 0, 0)


def test_singleton_root_pairing(ray_session):
    # Exactly one root node per side: paired even with zero shared attrs
    gt = _nodes([("d1", "Report", "R_2024", {"title": "t1", "n": None})])
    got = _nodes([("d1", "Report", "DOC_STEM", {"title": None, "n": 3})])
    tagged = tag_graph(gt, None, side="gt", attr_cols=["title", "n"]).union(
        tag_graph(got, None, side="got", attr_cols=["title", "n"])
    )
    out = evaluate_graphs(tagged, structural="auto",
                          root_cls="Report").to_pandas()
    out = out.set_index(["section", "rung", "cls"]).sort_index()
    assert _row(out, "nodes", "aligned", "Report") == (1, 0, 0)


def test_relaxed_requires_unique_candidate_and_digit_signature():
    # two same-class containment candidates -> ambiguous -> no pair
    pairs = relaxed_match_pairs(
        [("C", "RUN_1")], [("C", "RUN_1_A"), ("C", "RUN_1_B")]
    )
    assert pairs == []
    # digit signature mismatch -> no pair despite containment
    assert relaxed_match_pairs([("C", "RUN_1")], [("C", "RUN_12")]) == []
    # unique containment with equal digits -> pair
    assert relaxed_match_pairs([("C", "RUN_1")], [("C", "RUN_1_FINAL")]) == [
        (("C", "RUN_1"), ("C", "RUN_1_FINAL"))
    ]


def test_pair_similarity_scoring():
    long = "x" * 50
    assert pair_similarity({"a": "same"}, {"a": "same"}) == 1.0
    assert pair_similarity({"a": "cat"}, {"a": "cat x"}) == 0.0  # len<4 guard
    assert pair_similarity({"a": "word"}, {"a": "word more"}) == 0.5
    assert pair_similarity({"a": long}, {"a": long + " tail"}) == 1.0
    assert pair_similarity({"a": ["x", "y"]}, {"a": ["y", "z"]}) == 0.5
