"""Template induction: distributed field profiling, spec induction,
lint/repair, deterministic render + exec-verify gate (reference:
docling_graph/templategen/ — spec.py, linter.py, renderer.py, verify.py)."""

import json

import pyarrow as pa
import pytest

import ray
import ray.data

from docling_graph_ray.templategen import (
    field_distinct_counts,
    induce_spec,
    lint_spec,
    profile_columns,
    render_template,
    repair_spec,
    sanitize_identifier,
    verify_template_source,
)

ROWS = [
    {"doc_id": 1, "lang": "en", "score": 1.5, "tags": ["a"], "when": "2024-01-02"},
    {"doc_id": 2, "lang": "en", "score": 2, "tags": [], "when": "2024-01-03"},
    {"doc_id": 3, "lang": "fr", "score": None, "tags": ["b", "c"], "when": "2024-02-01"},
    {"doc_id": 4, "lang": "en", "score": 4.0, "tags": ["a"], "when": None},
    {"doc_id": 5, "lang": "fr", "score": 5.5, "tags": None, "when": "2024-03-05"},
    {"doc_id": 6, "lang": "fr", "score": 6.0, "tags": ["d"], "when": "2024-03-06"},
]


def _ds(rows, blocks=3):
    return ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(blocks)


@pytest.fixture()
def profile(ray_session):
    out = profile_columns(
        _ds(ROWS), cls="Doc",
        columns=["doc_id", "lang", "score", "tags", "when"],
    ).to_pandas().set_index("field")
    return out


def test_profile_counts(profile):
    assert int(profile.loc["doc_id", "n"]) == 6
    assert int(profile.loc["doc_id", "n_filled"]) == 6
    assert int(profile.loc["doc_id", "n_int"]) == 6
    # score: one null -> 5 filled; Arrow already promoted the column to
    # double, so every filled value votes float (typed-column votes are
    # degenerate by design — JSON records exercise real mixes)
    assert int(profile.loc["score", "n_filled"]) == 5
    assert int(profile.loc["score", "n_float"]) == 5
    assert int(profile.loc["score", "n_int"]) == 0
    # tags: empty list and None are unfilled
    assert int(profile.loc["tags", "n_filled"]) == 4
    assert int(profile.loc["tags", "n_list"]) == 4
    # when: all filled values are ISO-date-like strings
    assert int(profile.loc["when", "n_datelike"]) == 5
    # distinct merged across 3 blocks
    assert json.loads(profile.loc["lang", "distinct"]) == ['"en"', '"fr"']
    assert int(profile.loc["lang", "distinct_saturated"]) == 0


    # n counts every record that the field was observed against in its batch


def test_field_distinct_counts_exact(ray_session):
    out = field_distinct_counts(
        _ds(ROWS), columns=["doc_id", "lang"]
    ).to_pandas().set_index("field")
    assert int(out.loc["doc_id", "n_distinct"]) == 6
    assert int(out.loc["lang", "n_distinct"]) == 2


@pytest.fixture()
def spec(profile):
    return induce_spec(profile.reset_index(), root="Doc",
                       enum_max=4, enum_min_uses=3)


def test_induce_spec(spec):
    model = spec["models"][0]
    assert model["kind"] == "root"
    # doc_id: *_id rank wins identity
    assert model["identity"] == ["doc_id"]
    fields = {f["name"]: f for f in model["fields"]}
    assert fields["doc_id"]["role"] == "identity"
    assert fields["score"]["type"] == "float"       # numeric promotion
    assert fields["score"]["optional"] is True
    assert fields["doc_id"]["optional"] is False
    assert fields["tags"]["is_list"] is True
    assert fields["when"]["type"] == "date"
    # lang: 2 distinct values over 6 uses -> enum
    assert fields["lang"]["type"] == "DocLang"
    assert spec["enums"][0]["members"] == ["en", "fr"]


def test_lint_clean_spec(spec):
    assert lint_spec(spec) == []


def test_lint_findings():
    bad = {
        "name": "t", "root": "Missing", "enums": [{"name": "class",
                                                   "members": []}],
        "models": [
            {"name": "A", "kind": "entity", "identity": [], "fields": [
                {"name": "import", "type": "str", "is_list": False,
                 "role": "property", "edge_label": "X"},
                {"name": "x", "type": "Nope", "is_list": False,
                 "role": "property", "edge_label": None},
            ]},
            {"name": "A", "kind": "component",
             "identity": ["ghost"], "fields": [
                 {"name": "y", "type": "str", "is_list": True,
                  "role": "edge", "edge_label": None}]},
        ],
    }
    codes = sorted({f["code"] for f in lint_spec(bad)})
    # W13: the second model is a component owning an edge field (R24)
    assert codes == ["E01", "E04", "E05", "E06", "E07", "E08", "E09",
                     "E10", "W01", "W13"]


def test_repair_spec_renames_follow():
    spec = {
        "name": "t", "root": "2bad class", "enums": [],
        "models": [
            {"name": "2bad class", "kind": "entity",
             "identity": ["for"], "fields": [
                 {"name": "for", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "child", "type": "sub item", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
            {"name": "sub item", "kind": "entity", "identity": [],
             "fields": [{"name": "v", "type": "str", "is_list": False,
                         "optional": True, "role": "property",
                         "edge_label": None, "reference": False}]},
        ],
    }
    fixed, actions = repair_spec(spec)
    assert fixed["root"] == "F2badClass"
    assert fixed["models"][0]["identity"] == ["for_"]
    assert fixed["models"][0]["fields"][1]["type"] == "SubItem"
    assert fixed["models"][1]["kind"] == "component"   # demoted
    assert lint_spec(fixed) == []
    assert len(actions) == 4


def test_render_verify_roundtrip(spec):
    src = render_template(spec)
    assert src == render_template(spec)  # byte-identical re-render
    classes = verify_template_source(src)
    doc = classes["Doc"]
    assert doc.model_config["graph_id_fields"] == ["doc_id"]
    assert doc.model_config["is_entity"] is True
    inst = doc(doc_id=7, lang="en", score=1.0, tags=["t"])
    assert inst.doc_id == 7 and inst.lang == "en"
    assert classes["DocLang"]("en").name == "EN"
    assert classes["DocLang"]("OTHER").name == "OTHER"


def test_render_edges_and_nesting():
    spec = {
        "name": "t", "docstring": "d", "root": "Root", "enums": [],
        "models": [
            {"name": "Root", "kind": "root", "identity": ["name"],
             "docstring": "", "fields": [
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "parts", "type": "Part", "is_list": True,
                  "optional": True, "role": "edge",
                  "edge_label": "HAS_PART", "reference": False},
                 {"name": "owner", "type": "str", "is_list": False,
                  "optional": True, "role": "edge",
                  "edge_label": "OWNED_BY", "reference": True}]},
            {"name": "Part", "kind": "component", "identity": [],
             "docstring": "", "fields": [
                 {"name": "label", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
        ],
    }
    src = render_template(spec)
    # dependency-first: Part must be defined before Root
    assert src.index("class Part") < src.index("class Root")
    classes = verify_template_source(src)
    root = classes["Root"](name="r", parts=[classes["Part"](label="p")])
    assert root.parts[0].label == "p"
    fields = type(root).model_fields
    extra = fields["parts"].json_schema_extra
    assert extra["edge_label"] == "HAS_PART"
    assert fields["owner"].json_schema_extra["graph_reference"]


def test_render_refuses_unsafe_names():
    spec = {"name": "t", "root": "A", "enums": [], "models": [
        {"name": "A; import os", "kind": "root", "identity": [],
         "fields": []}]}
    with pytest.raises(ValueError, match="unrenderable"):
        render_template(spec)


def test_sanitize_identifier():
    assert sanitize_identifier("2bad name!") == "f_2bad_name"
    assert sanitize_identifier("class") == "class_"
    assert sanitize_identifier("__dunder__") == "dunder"
    assert sanitize_identifier("sub item", pascal=True) == "SubItem"


def test_end_to_end_induction(ray_session):
    prof = profile_columns(_ds(ROWS), cls="Doc",
                           columns=["doc_id", "lang", "score"])
    spec = induce_spec(prof, root="Doc")
    fixed, _ = repair_spec(spec)
    assert lint_spec(fixed) == []
    classes = verify_template_source(render_template(fixed))
    assert "Doc" in classes


def test_render_max_instances_and_closed_catalog():
    from docling_graph_ray.templategen import (
        lint_spec, render_template, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "d", "root": "Root", "enums": [],
        "models": [
            {"name": "Root", "kind": "root", "identity": ["name"],
             # the cardinality sentence keeps R13/W11 quiet (a bound must
             # be visible to Phase-1 discovery as docstring prose)
             "docstring": "At most 3 expected per document.",
             "max_instances": 3, "fields": [
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "cats", "type": "str", "is_list": True,
                  "optional": True, "role": "edge",
                  "edge_label": "IN_CATALOG", "reference": True,
                  "closed_catalog": True},
                 {"name": "owner", "type": "str", "is_list": False,
                  "optional": True, "role": "edge",
                  "edge_label": "OWNED_BY", "reference": True,
                  "closed_catalog": True}]},
        ],
    }
    assert lint_spec(spec) == []
    src = render_template(spec)
    assert src == render_template(spec)
    classes = verify_template_source(src)
    root = classes["Root"]
    assert root.model_config["graph_max_instances"] == 3
    for fname in ("cats", "owner"):
        extra = root.model_fields[fname].json_schema_extra
        assert extra["reference_closed_catalog"] is True
        assert extra["graph_reference"] is True
    # list edge keeps its factory default alongside the catalog marker
    assert root(name="x").cats == []


def test_lint_marker_rules():
    from docling_graph_ray.templategen import lint_spec

    spec = {
        "name": "t", "docstring": "d", "root": "A", "enums": [],
        "models": [
            {"name": "A", "kind": "root", "identity": ["name"],
             "docstring": "", "max_instances": 0, "fields": [
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "bad", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False,
                  "closed_catalog": True}]},
            {"name": "B", "kind": "component", "identity": [],
             "docstring": "", "max_instances": 2, "fields": [
                 {"name": "x", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
        ],
    }
    codes = {f["code"] for f in lint_spec(spec)}
    assert "E11" in codes   # max_instances=0
    assert "E12" in codes   # closed_catalog without reference
    assert "W02" in codes   # max_instances on a component


def test_lint_prose_hygiene_rules():
    from docling_graph_ray.templategen import (
        DOCSTRING_WINDOW, lint_spec, repair_spec,
    )

    long_doc = ("An invoice is a billing document. It is not a receipt. "
                "At most 3 per order. " + "Padding sentence here. " * 20)
    spec = {
        "name": "t", "root": "Invoice", "enums": [],
        "models": [
            {"name": "Invoice", "kind": "root",
             "identity": ["invoice_number"], "docstring": long_doc,
             "fields": [
                 {"name": "invoice_number", "type": "str", "is_list": False,
                  "optional": False, "role": "identity", "edge_label": None,
                  "examples": ["alpha", "beta"],  # digit-free!
                  "description": ""},
                 {"name": "total", "type": "float", "is_list": False,
                  "optional": True, "role": "property", "edge_label": None,
                  "description": "The grand total. Calculate it by "
                                 "multiplying price and quantity. "
                                 "Leave empty if absent."},
                 {"name": "notes", "type": "str", "is_list": True,
                  "optional": True, "role": "property", "edge_label": None,
                  "description": "Generate an id for each note."},
             ]},
        ],
    }
    codes = {f["code"] for f in lint_spec(spec)}
    assert "W03" in codes   # docstring over budget
    assert "W04" in codes   # computation / global-rule sentences
    assert "W05" in codes   # invention sentence
    assert "W06" in codes   # digit-free number-named identity
    assert "W09" in codes   # identity-less root list

    fixed, actions = repair_spec(spec)
    assert lint_spec(fixed) == []
    m = fixed["models"][0]
    # W06: identity renamed to 'name' (tracking the identity list)
    assert m["identity"] == ["name"]
    assert m["fields"][0]["name"] == "name"
    # W03: docstring reordered IS -> IS-NOT -> cardinality
    assert m["docstring"].startswith("An invoice is a billing document.")
    assert m["docstring"].index("not a receipt") > m["docstring"].index(
        "Padding sentence")
    # W04/W05 scrub keeps only the innocent sentences
    assert m["fields"][1]["description"] == "The grand total."
    assert m["fields"][2]["description"] == ""
    # W09 scheduled
    assert m["root_list_dedup"] == ["notes"]
    assert any("dedup" in a for a in actions)


def test_lint_identity_examples_and_digit_flags():
    from docling_graph_ray.templategen import lint_spec

    spec = {
        "name": "t", "root": "R", "enums": [],
        "models": [
            {"name": "R", "kind": "root", "identity": ["name"],
             "docstring": "", "fields": [
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity", "edge_label": None,
                  "examples": ["123", "456"], "description": ""},
             ]},
        ],
    }
    codes = {f["code"] for f in lint_spec(spec)}
    assert "W07" in codes   # name identity holding digit-only values

    spec["models"][0]["fields"][0]["examples"] = ["only-one"]
    codes = {f["code"] for f in lint_spec(spec)}
    assert "W08" in codes   # fewer than 2 verbatim examples

    # no examples key at all (hand-authored spec) -> silent
    del spec["models"][0]["fields"][0]["examples"]
    assert lint_spec(spec) == []


def test_render_root_list_dedup_marker():
    from docling_graph_ray.templategen import (
        render_template, repair_spec, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "d", "root": "R", "enums": [],
        "models": [
            {"name": "R", "kind": "root", "identity": ["name"],
             "docstring": "", "fields": [
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "tags", "type": "str", "is_list": True,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
        ],
    }
    fixed, _ = repair_spec(spec)
    classes = verify_template_source(render_template(fixed))
    assert classes["R"].model_config["graph_root_list_dedup"] == ["tags"]


def test_enum_normalizer_gate():
    """Rendered enum fields accept free-text casing/punctuation variants
    and fall back to OTHER — the never-reject gate (reference
    snippets.py:101-146, renderer.py:578-606)."""
    from docling_graph_ray.templategen import (
        render_template, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "d", "root": "Doc",
        "enums": [{"name": "LoanStatus", "members": ["on_loan", "returned"],
                   "include_other": True,
                   "synonyms": {"on_loan": ["checked out"]}}],
        "models": [
            {"name": "Doc", "kind": "root", "identity": ["name"],
             "docstring": "", "fields": [
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "status", "type": "LoanStatus", "is_list": False,
                  "optional": True, "role": "property",
                  "description": "Loan state.",
                  "edge_label": None, "reference": False},
                 {"name": "states", "type": "LoanStatus", "is_list": True,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
        ],
    }
    src = render_template(spec)
    assert src == render_template(spec)  # deterministic
    assert "Synonyms: map 'checked out' -> 'on_loan'." in src
    classes = verify_template_source(src)
    doc = classes["Doc"]
    # member-name, value, casing and punctuation variants all map
    assert doc(name="x", status="ON_LOAN").status.value == "on_loan"
    assert doc(name="x", status="On-Loan").status.value == "on_loan"
    assert doc(name="x", status="returned").status.value == "returned"
    # unmapped → OTHER, absent → OTHER (the safety-net default)
    assert doc(name="x", status="lost??").status.name == "OTHER"
    assert doc(name="x").status.name == "OTHER"
    # list variant normalizes each item
    got = doc(name="x", states=["RETURNED", "nope"]).states
    assert [s.name for s in got] == ["RETURNED", "OTHER"]


def test_field_normalizer_gates():
    """currency / numeric / string_list before-validators (reference
    snippets.py:151-210): never reject, coerce or drop."""
    from docling_graph_ray.templategen import (
        render_template, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "d", "root": "Inv", "enums": [],
        "models": [
            {"name": "Inv", "kind": "root", "identity": ["ref"],
             "docstring": "", "fields": [
                 {"name": "ref", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "currency", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "normalizer": "currency",
                  "edge_label": None, "reference": False},
                 {"name": "total", "type": "float", "is_list": False,
                  "optional": True, "role": "property",
                  "normalizer": "numeric",
                  "edge_label": None, "reference": False},
                 {"name": "tags", "type": "str", "is_list": True,
                  "optional": True, "role": "property",
                  "normalizer": "string_list",
                  "edge_label": None, "reference": False}]},
        ],
    }
    classes = verify_template_source(render_template(spec))
    inv = classes["Inv"]
    assert inv(ref="1", currency="€").currency == "EUR"
    assert inv(ref="1", currency="usd").currency == "USD"
    assert inv(ref="1", total="$1,500.00").total == 1500.0
    assert inv(ref="1", total="1 500,00").total == 1500.0
    assert inv(ref="1", total="n/a").total is None  # dropped, not raised
    assert inv(ref="1", tags="a, b").tags == ["a", "b"]
    assert inv(ref="1", tags="solo").tags == ["solo"]


def test_lint_normalizer_and_synonym_rules():
    from docling_graph_ray.templategen import lint_spec

    spec = {
        "name": "t", "docstring": "d", "root": "M",
        "enums": [{"name": "E", "members": ["a"],
                   "synonyms": {"ghost": ["g"]}}],
        "models": [
            {"name": "M", "kind": "root", "identity": ["rid"],
             "docstring": "", "fields": [
                 {"name": "rid", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "normalizer": "currency",
                  "edge_label": None, "reference": False},
                 {"name": "x", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "normalizer": "bogus",
                  "edge_label": None, "reference": False}]},
        ],
    }
    codes = {f["code"] for f in lint_spec(spec)}
    assert "E14" in codes  # synonyms name an undeclared member
    assert "E13" in codes  # unknown normalizer
    assert "W10" in codes  # normalizer on an identity field


def test_repair_identity_rungs():
    """The reference repair_draft rungs (linter.py:1838-1955): trim to
    the digit-bearing/shortest two, retype/descale/denormalize identity,
    strip component identity+max_instances, synthesize root identity."""
    from docling_graph_ray.templategen import lint_spec, repair_spec

    spec = {
        "name": "t", "docstring": "d", "root": "Doc",
        "enums": [{"name": "Kind", "members": ["a", "b"]}],
        "models": [
            # identity-less root → document_reference synthesized
            {"name": "Doc", "kind": "root", "identity": [],
             "docstring": "", "fields": [
                 {"name": "note", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
            # 3 identity fields: 'code' digit-bearing (kept first),
            # 'name' shortest digit-free, 'title' longest → demoted
            {"name": "Part", "kind": "entity",
             "identity": ["title", "name", "code"],
             "docstring": "", "fields": [
                 {"name": "title", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "examples": ["a very long part title"],
                  "edge_label": None, "reference": False},
                 {"name": "name", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "examples": ["bolt"],
                  "edge_label": None, "reference": False},
                 {"name": "code", "type": "Kind", "is_list": True,
                  "optional": False, "role": "identity",
                  "examples": ["X-42"], "normalizer": "numeric",
                  "edge_label": None, "reference": False}]},
            # component with identity + max_instances → both stripped
            {"name": "Box", "kind": "component", "identity": ["bid"],
             "max_instances": 4,
             "docstring": "", "fields": [
                 {"name": "bid", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False}]},
        ],
    }
    repaired, actions = repair_spec(spec)
    models = {m["name"]: m for m in repaired["models"]}

    doc = models["Doc"]
    assert doc["identity"] == ["document_reference"]
    assert doc["fields"][0]["name"] == "document_reference"

    part = models["Part"]
    assert part["identity"] == ["name", "code"]  # digit-bearing + shortest
    code = {f["name"]: f for f in part["fields"]}["code"]
    assert code["type"] == "str" and code["is_list"] is False
    assert code.get("normalizer", "none") in ("none", None)
    title = {f["name"]: f for f in part["fields"]}["title"]
    assert title["role"] == "property"

    box = models["Box"]
    assert box["identity"] == [] and "max_instances" not in box
    assert {f["name"]: f for f in box["fields"]}["bid"]["role"] == "property"

    # repaired spec carries no E-findings
    assert not [f for f in lint_spec(repaired) if f["code"].startswith("E")]


def test_repair_max_instances_doubles_once_and_injects_cardinality():
    from docling_graph_ray.templategen import repair_spec

    spec = {
        "name": "t", "docstring": "d", "root": "Doc", "enums": [],
        "models": [
            {"name": "Doc", "kind": "root", "identity": ["rid"],
             "docstring": "Top-level record.", "max_instances": 3,
             "fields": [
                 {"name": "rid", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False}]},
        ],
    }
    r1, _ = repair_spec(spec)
    doc = r1["models"][0]
    assert doc["max_instances"] == 6              # doubled once
    assert doc["max_instances_documented"] == 3
    assert "At most 3 expected per document." in doc["docstring"]
    r2, _ = repair_spec(r1)                       # idempotent
    assert r2["models"][0]["max_instances"] == 6
    assert r2["models"][0]["docstring"].count("At most 3") == 1


def test_reverse_spec_roundtrip():
    """spec → render → live classes → reverse → repair → render is a
    fixed point (reference reverse.py: generated templates flow SPEC →
    renderer → Python; existing ones flow back for the rulebook)."""
    from docling_graph_ray.templategen import (
        render_template, repair_spec, reverse_spec, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "Invoice extraction template.",
        "root": "Invoice",
        "enums": [{"name": "Status", "members": ["open", "paid"],
                   "include_other": True}],
        "models": [
            {"name": "Item", "kind": "entity", "identity": ["sku"],
             "docstring": "One line item.", "fields": [
                 {"name": "sku", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "qty", "type": "int", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
            {"name": "Invoice", "kind": "root", "identity": ["ref"],
             "docstring": "Top-level invoice. At most 2 expected per "
                          "document.",
             "max_instances": 2, "max_instances_documented": 1,
             "fields": [
                 {"name": "ref", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "status", "type": "Status", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False},
                 {"name": "items", "type": "Item", "is_list": True,
                  "optional": True, "role": "edge",
                  "edge_label": "HAS_ITEM", "reference": False}]},
        ],
    }
    src1 = render_template(spec)
    root = verify_template_source(src1)["Invoice"]

    draft, findings = reverse_spec(root)
    assert draft["root"] == "Invoice"
    by_name = {m["name"]: m for m in draft["models"]}
    assert by_name["Invoice"]["identity"] == ["ref"]
    assert by_name["Item"]["identity"] == ["sku"]
    assert by_name["Invoice"]["max_instances"] == 1  # documented = 2 // 2
    enums = {e["name"]: e for e in draft["enums"]}
    assert enums["Status"]["members"] == ["open", "paid"]
    assert enums["Status"]["include_other"] is True
    items = {f["name"]: f for f in by_name["Invoice"]["fields"]}["items"]
    assert items["role"] == "edge" and items["edge_label"] == "HAS_ITEM"

    repaired, _ = repair_spec(draft)
    src2 = render_template(repaired)
    # the re-render round-trips to the SAME live structure
    classes2 = verify_template_source(src2)
    root2 = classes2["Invoice"]
    assert root2.model_config["graph_id_fields"] == ["ref"]
    assert root2.model_config["graph_max_instances"] == 2  # re-doubled
    assert classes2["Status"]("open").name == "OPEN"
    # and the reversed spec itself re-renders byte-identically
    assert render_template(repaired) == src2


def test_reverse_spec_lenient_findings():
    """Unrepresentable constructs become findings, never crashes
    (reference reverse.py leniency contract)."""
    from typing import Union

    from pydantic import BaseModel, ConfigDict, Field

    from docling_graph_ray.templategen import spec_from_template

    class Weird(BaseModel):
        model_config = ConfigDict(
            is_entity=True,
            graph_id_fields=["a", "b", "c", "ghost"],
        )
        """no real docstring (this is a statement, not a docstring)"""
        a: str = Field(..., examples=["a1"])
        b: str = Field(..., examples=["b-22"])
        c: str = Field(..., examples=["long example value"])
        u: Union[int, str, None] = None
        required_prop: str = Field(...)
        strange: bytes | None = None

    spec, findings = spec_from_template(Weird)
    text = "\n".join(findings)
    assert "ghost" in text                      # undeclared identity
    assert "multi-type union" in text           # Union[int, str]
    assert "unknown scalar type" in text        # bytes
    assert "required non-identity" in text      # required_prop
    m = spec["models"][0]
    assert len(m["identity"]) == 2              # trimmed to best two
    assert m["kind"] == "root"
    # repair output renders + verifies
    from docling_graph_ray.templategen import (
        render_template, verify_template_source,
    )
    classes = verify_template_source(render_template(spec))
    assert "Weird" in classes


def test_evaluate_template_empirical(ray_session):
    """Trial-run report (reference templategen/evaluate.py): fill rates,
    enum OTHER-rate (members don't match the data), grounding precision
    of extracted strings against the source text."""
    from docling_graph_ray.templategen import (
        evaluate_template, render_template, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "d", "root": "Doc",
        "enums": [{"name": "Tone", "members": ["formal", "casual"],
                   "include_other": True}],
        "models": [
            {"name": "Doc", "kind": "root", "identity": ["ref"],
             "docstring": "", "fields": [
                 {"name": "ref", "type": "str", "is_list": False,
                  "optional": False, "role": "identity",
                  "edge_label": None, "reference": False},
                 {"name": "tone", "type": "Tone", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False},
                 {"name": "summary", "type": "str", "is_list": False,
                  "optional": True, "role": "property",
                  "edge_label": None, "reference": False}]},
        ],
    }
    doc_cls = verify_template_source(render_template(spec))["Doc"]

    recs = [
        {"record": {"ref": "r1", "tone": "formal",
                    "summary": "alpha beta"},
         "text": "intro alpha beta outro"},
        {"record": {"ref": "r2", "tone": "shouty",    # unmapped → OTHER
                    "summary": "gamma delta"},
         "text": "unrelated body"},
        {"record": {"ref": "r3"}, "text": "x"},       # tone absent → OTHER
        {"record": "not json at all {", "text": "y"},
    ]
    import ray.data

    ds = ray.data.from_items(recs)
    rep = evaluate_template(doc_cls, ds, json_col="record",
                            text_col="text").to_pandas()
    rep = rep.set_index(["cls", "field"]).sort_index()

    rec_row = rep.loc[("", "__records__")]
    # "not json at all {" is a str record → json.loads fails → counted failed
    assert int(rec_row.n) == 4 and int(rec_row.n_filled) == 3

    tone = rep.loc[("Doc", "tone")]
    assert int(tone.n) == 3
    assert int(tone.n_other) == 2            # unmapped + absent
    assert int(tone.n_filled) == 1           # only 'formal' is a real member

    summary = rep.loc[("Doc", "summary")]
    assert int(summary.n_string_vals) == 2
    assert int(summary.n_grounded) == 1      # 'alpha beta' found in text

    ref = rep.loc[("Doc", "ref")]
    assert int(ref.n_filled) == 3            # identity coverage


def test_import_allowlist_gate():
    """V1b (reference verify.py:57-63, 357-375): user-supplied template
    modules fail BEFORE exec on non-allowlisted imports, relative
    imports, or forbidden builtins."""
    import pytest

    from docling_graph_ray.templategen import (
        check_template_imports, verify_template_source,
    )

    bad = (
        "import os\n"
        "from . import sibling\n"
        "from subprocess import run\n"
        "x = eval('1+1')\n"
    )
    v = check_template_imports(bad)
    assert len(v) == 4
    with pytest.raises(ValueError, match="import allowlist"):
        verify_template_source(bad, check_imports=True)
    # allowlisted module passes the gate (and exec)
    ok = ("from enum import Enum\n"
          "from pydantic import BaseModel\n"
          "class M(BaseModel):\n    x: int | None = None\n")
    assert check_template_imports(ok) == []
    assert "M" in verify_template_source(ok, check_imports=True)


def _field(name, type_, role="property", **kw):
    f = {"name": name, "type": type_, "is_list": kw.pop("is_list", False),
         "optional": True, "role": role,
         "edge_label": kw.pop("edge_label", None),
         "reference": kw.pop("reference", False)}
    f.update(kw)
    return f


def test_structural_rules_and_repairs():
    """R24/R9/R15/R14/R23 tier (reference linter.py:518-1002) adapted to
    this engine: cycle repairs SEVER to identity strings because the
    renderer refuses cycles outright."""
    from docling_graph_ray.templategen import (
        lint_spec, render_template, repair_spec, verify_template_source,
    )

    spec = {
        "name": "t", "docstring": "d", "root": "Root", "enums": [],
        "models": [
            {"name": "Root", "kind": "root", "identity": ["rid"],
             "docstring": "", "fields": [
                 _field("rid", "str", role="identity"),
                 _field("box", "Box"),
                 # inconsistent labels for the same (field, target)
                 _field("part", "Part", role="edge",
                        edge_label="hasPart"),
             ]},
            # component owning an edge to an entity → severed to str
            {"name": "Box", "kind": "component", "identity": [],
             "docstring": "", "fields": [
                 _field("owner", "Part", role="edge",
                        edge_label="OWNED_BY"),
             ]},
            # self-loop + duplicate (field,target) with different label
            {"name": "Part", "kind": "entity", "identity": ["pid"],
             "docstring": "", "fields": [
                 _field("pid", "str", role="identity"),
                 _field("part", "Part", role="edge",
                        edge_label="CONTAINS_PART"),
             ]},
            # unreachable island: Orphan nests Leaf; Orphan is the head
            {"name": "Orphan", "kind": "entity", "identity": ["oid"],
             "docstring": "", "fields": [
                 _field("oid", "str", role="identity"),
                 _field("leaf", "Leaf"),
             ]},
            {"name": "Leaf", "kind": "entity", "identity": ["lid"],
             "docstring": "", "fields": [
                 _field("lid", "str", role="identity"),
             ]},
        ],
    }
    codes = {f["code"] for f in lint_spec(spec)}
    assert {"W13", "W14", "W16", "W17"} <= codes

    fixed, actions = repair_spec(spec)
    by = {m["name"]: m for m in fixed["models"]}
    # component edge severed to identity str
    owner = {f["name"]: f for f in by["Box"]["fields"]}["owner"]
    assert owner["type"] == "str" and owner["role"] == "property"
    # self-loop severed
    selfp = {f["name"]: f for f in by["Part"]["fields"]}["part"]
    assert selfp["type"] == "str"
    # label normalized camelCase -> UPPER_SNAKE
    root_part = {f["name"]: f for f in by["Root"]["fields"]}["part"]
    assert root_part["edge_label"] == "HAS_PART"
    # island head attached to the root as a list edge
    root_fields = {f["name"] for f in by["Root"]["fields"]}
    assert "orphan" in root_fields
    # repaired spec renders + verifies (cycle-free) and lints clean of
    # structural warns
    classes = verify_template_source(render_template(fixed))
    assert {"Root", "Part", "Orphan", "Leaf"} <= set(classes)
    left = {f["code"] for f in lint_spec(fixed)}
    assert not ({"W13", "W16", "W17"} & left)


def test_cyclic_template_renders_with_forward_refs():
    """r5 (VERDICT r4 next-step #4): mutually-referencing models RENDER
    via quoted forward refs + model_rebuild instead of being refused;
    cycle_policy 'forward_ref' retains the cycle through lint/repair;
    the rendered module exec-verifies, instantiates cyclic nesting, and
    round-trips through the reverse flow."""
    from docling_graph_ray.templategen import (
        lint_spec, render_template, repair_spec, spec_from_template,
        verify_template_source,
    )

    spec = {
        "name": "orgchart", "docstring": "d", "root": "Org",
        "cycle_policy": "forward_ref", "enums": [],
        "models": [
            {"name": "Org", "kind": "root", "identity": ["name"],
             "docstring": "", "fields": [
                 _field("name", "str", role="identity", optional=False),
                 _field("members", "Person", role="edge", is_list=True,
                        edge_label="HAS_MEMBER"),
             ]},
            {"name": "Person", "kind": "entity", "identity": ["name"],
             "docstring": "", "fields": [
                 _field("name", "str", role="identity", optional=False),
                 # back edge: Person nests Org -> mutual cycle
                 _field("employer", "Org", role="edge",
                        edge_label="WORKS_AT"),
                 # self-reference: manager chain
                 _field("manager", "Person", role="edge",
                        edge_label="REPORTS_TO"),
             ]},
        ],
    }
    # retention policy: no W16, repair does not sever
    assert not [f for f in lint_spec(spec) if f["code"] == "W16"]
    fixed, _actions = repair_spec(spec)
    person = {m["name"]: m for m in fixed["models"]}["Person"]
    assert {f["name"]: f["type"] for f in person["fields"]}["employer"] \
        == "Org"

    src = render_template(fixed)
    assert src == render_template(fixed)  # byte-identical re-render
    assert ".model_rebuild()" in src
    assert '"Org"' in src or '"Person"' in src  # quoted forward ref
    classes = verify_template_source(src)
    org = classes["Org"](name="acme", members=[
        {"name": "bo",
         "manager": {"name": "cy", "employer": {"name": "acme2"}}},
    ])
    assert org.members[0].manager.employer.name == "acme2"
    assert type(org.members[0].manager).__name__ == "Person"

    # reverse flow: the live cyclic classes walk back into a spec that
    # still carries the cycle
    rspec, _notes = spec_from_template(classes["Org"])
    rperson = {m["name"]: m for m in rspec["models"]}.get("Person")
    assert rperson is not None
    rtypes = {f["name"]: f["type"] for f in rperson["fields"]}
    assert rtypes.get("employer") == "Org"
    assert rtypes.get("manager") == "Person"


def test_cyclic_default_policy_still_severs():
    from docling_graph_ray.templategen import lint_spec, repair_spec

    spec = {
        "name": "t", "docstring": "d", "root": "A", "enums": [],
        "models": [
            {"name": "A", "kind": "root", "identity": ["aid"],
             "docstring": "", "fields": [
                 _field("aid", "str", role="identity"),
                 _field("b", "B")]},
            {"name": "B", "kind": "entity", "identity": ["bid"],
             "docstring": "", "fields": [
                 _field("bid", "str", role="identity"),
                 _field("a", "A")]},
        ],
    }
    assert [f for f in lint_spec(spec) if f["code"] == "W16"]
    fixed, actions = repair_spec(spec)
    back = {f["name"]: f for f in
            {m["name"]: m for m in fixed["models"]}["B"]["fields"]}["a"]
    assert back["type"] == "str"
    assert any("cycle_policy sever" in a for a in actions)


def test_nesting_depth_flip():
    """R14: a nesting field at depth > 4 flips to a reference edge when
    the target keeps another full home."""
    from docling_graph_ray.templategen import lint_spec, repair_spec

    # chain Root -> A -> B -> C -> C2 (depth 4) -> D, with D ALSO fully
    # nested at depth 1 (the second home) — the deep nesting flips
    def model(name, kind, fields):
        return {"name": name, "kind": kind,
                "identity": [] if kind == "component" else [f"{name.lower()}_id"],
                "docstring": "", "fields": (
                    [] if kind == "component" else
                    [_field(f"{name.lower()}_id", "str", role="identity")]
                ) + fields}

    spec = {
        "name": "t", "docstring": "d", "root": "Root", "enums": [],
        "models": [
            model("Root", "root", [_field("a", "A"), _field("d0", "D")]),
            model("A", "entity", [_field("b", "B")]),
            model("B", "entity", [_field("c", "C")]),
            model("C", "entity", [_field("c2", "C2")]),
            model("C2", "entity", [_field("d", "D")]),
            model("D", "entity", []),
        ],
    }
    assert any(f["code"] == "W15" for f in lint_spec(spec))
    fixed, actions = repair_spec(spec)
    c2_d = {f["name"]: f for f in
            {m["name"]: m for m in fixed["models"]}["C2"]["fields"]}["d"]
    assert c2_d["reference"] is True and c2_d["role"] == "edge"
    assert any("R14" in a for a in actions)


def test_reference_target_rules():
    """R11 (reference linter.py:733-778): references to identity-less
    targets un-reference; a reference that is a rich target's ONLY full
    path flips off; identity-only shared targets are exempt."""
    from docling_graph_ray.templategen import lint_spec, repair_spec

    spec = {
        "name": "t", "docstring": "d", "root": "Root", "enums": [],
        "models": [
            {"name": "Root", "kind": "root", "identity": ["rid"],
             "docstring": "", "fields": [
                 _field("rid", "str", role="identity"),
                 # reference to a component (no identity) → un-referenced
                 _field("box", "Box", role="edge", edge_label="HAS_BOX",
                        reference=True),
                 # only full path to a rich entity → flipped off
                 _field("part", "Part", role="edge", edge_label="HAS_PART",
                        reference=True),
                 # identity-only shared target: reference is its design
                 _field("person", "Person", role="edge",
                        edge_label="HAS_PERSON", reference=True),
             ]},
            {"name": "Box", "kind": "component", "identity": [],
             "docstring": "", "fields": [_field("v", "str")]},
            {"name": "Part", "kind": "entity", "identity": ["pid"],
             "docstring": "", "fields": [
                 _field("pid", "str", role="identity"),
                 _field("weight", "float")]},
            {"name": "Person", "kind": "entity", "identity": ["name"],
             "docstring": "", "fields": [
                 _field("name", "str", role="identity")]},
        ],
    }
    w18 = [f for f in lint_spec(spec) if f["code"] == "W18"]
    assert {f["where"] for f in w18} == {"Root.box", "Root.part"}

    fixed, actions = repair_spec(spec)
    root = {f["name"]: f for f in fixed["models"][0]["fields"]}
    assert root["box"]["reference"] is False
    assert root["part"]["reference"] is False
    assert root["person"]["reference"] is True  # exempt, untouched
    assert not [f for f in lint_spec(fixed) if f["code"] == "W18"]


def test_lint_cli_subprocess(tmp_path):
    """End-to-end CLI: lint a hand-written module, write the repaired
    re-render, refuse a module with disallowed imports."""
    import subprocess
    import sys as _sys

    good = tmp_path / "tpl.py"
    good.write_text(
        "from pydantic import BaseModel, ConfigDict, Field\n"
        "class Org(BaseModel):\n"
        "    '''An org. At most 2 expected per document.'''\n"
        "    model_config = ConfigDict(is_entity=True,\n"
        "                              graph_id_fields=['name'],\n"
        "                              graph_max_instances=4)\n"
        "    name: str = Field(..., examples=['ACME', 'Init'])\n",
        encoding="utf-8")
    out = tmp_path / "rerender.py"
    r = subprocess.run(
        [_sys.executable, "-m", "docling_graph_ray", "lint",
         f"{good}:Org", "--out", str(out)],
        capture_output=True, text=True, cwd="/root/repo")
    assert r.returncode == 0, r.stderr
    assert out.exists() and "class Org(BaseModel):" in out.read_text()

    evil = tmp_path / "evil.py"
    evil.write_text("import socket\nfrom pydantic import BaseModel\n"
                    "class E(BaseModel):\n    x: int = 1\n",
                    encoding="utf-8")
    r2 = subprocess.run(
        [_sys.executable, "-m", "docling_graph_ray", "lint",
         f"{evil}:E"], capture_output=True, text=True, cwd="/root/repo")
    assert r2.returncode == 2
    assert "import allowlist" in r2.stderr

    # dotted-module form runs the SAME allowlist over the located
    # source BEFORE import — the module body must never execute
    import os as _os

    marker = tmp_path / "executed.marker"
    (tmp_path / "evilmod.py").write_text(
        "import socket\nopen(r'%s', 'w').close()\n"
        "from pydantic import BaseModel\n"
        "class E(BaseModel):\n    x: int = 1\n" % marker,
        encoding="utf-8")
    env = dict(_os.environ, PYTHONPATH="/root/repo")
    r3 = subprocess.run(
        [_sys.executable, "-m", "docling_graph_ray", "lint", "evilmod:E"],
        capture_output=True, text=True, cwd=str(tmp_path), env=env)
    assert r3.returncode == 2
    assert "import allowlist" in r3.stderr
    assert not marker.exists()


def test_canonical_home_rule():
    """R10 (reference linter.py:643-702): a rich entity nests in full at
    ONE canonical home (marked, else nearest the root); extra full
    inbound edges flip to references; the same-parent all-single shape
    (seller/buyer Party) keeps every role full."""
    from docling_graph_ray.templategen import lint_spec, repair_spec

    spec = {
        "name": "t", "docstring": "d", "root": "Root", "enums": [],
        "models": [
            {"name": "Root", "kind": "root", "identity": ["rid"],
             "docstring": "", "fields": [
                 _field("rid", "str", role="identity"),
                 _field("dept", "Dept", role="edge",
                        edge_label="HAS_DEPT"),
                 _field("item", "Item", role="edge", is_list=True,
                        edge_label="HAS_ITEM"),
                 # seller/buyer shape: two single edges, same parent
                 _field("seller", "Party", role="edge",
                        edge_label="SOLD_BY"),
                 _field("buyer", "Party", role="edge",
                        edge_label="BOUGHT_BY"),
             ]},
            # Item also nested (deeper) under Dept → Dept edge flips
            {"name": "Dept", "kind": "entity", "identity": ["did"],
             "docstring": "", "fields": [
                 _field("did", "str", role="identity"),
                 _field("items", "Item", role="edge", is_list=True,
                        edge_label="HAS_ITEM"),
             ]},
            {"name": "Item", "kind": "entity", "identity": ["iid"],
             "docstring": "", "fields": [
                 _field("iid", "str", role="identity"),
                 _field("weight", "float")]},
            {"name": "Party", "kind": "entity", "identity": ["name"],
             "docstring": "", "fields": [
                 _field("name", "str", role="identity"),
                 _field("vat", "str")]},
        ],
    }
    w19 = [f for f in lint_spec(spec) if f["code"] == "W19"]
    assert {f["where"] for f in w19} == {"Item"}  # Party shape exempt

    fixed, _ = repair_spec(spec)
    by = {m["name"]: m for m in fixed["models"]}
    assert by["Item"]["canonical_home"] == "Root.item"  # nearest root
    dept_items = {f["name"]: f for f in by["Dept"]["fields"]}["items"]
    assert dept_items["reference"] is True
    root_item = {f["name"]: f for f in by["Root"]["fields"]}["item"]
    assert root_item["reference"] is False
    # seller/buyer untouched
    root_f = {f["name"]: f for f in by["Root"]["fields"]}
    assert not root_f["seller"]["reference"]
    assert not root_f["buyer"]["reference"]
    assert not [f for f in lint_spec(fixed) if f["code"] == "W19"]
