"""Chunking ladder, salvage ladder, content sniffing, alias
reconciliation, stage registry."""

import pyarrow as pa
import pytest

import ray.data

from docling_graph_ray.functions.salvage import salvage_record
from docling_graph_ray.stages.alias import is_containment_alias, reconcile_group
from docling_graph_ray.stages.chunking import (
    chunk_document,
    count_tokens,
    split_oversized,
)
from docling_graph_ray.stages.sniff import detect_kind


# ---------------------------------------------------------------------- chunking

def test_chunk_packs_whole_blocks():
    text = "aaa bbb. ccc ddd.\n\neee fff."
    spans = [
        {"span_id": 0, "start": 0, "end": 17},
        {"span_id": 1, "start": 19, "end": 27},
    ]
    chunks = chunk_document("u", text, spans, max_tokens=100)
    assert len(chunks) == 1
    assert chunks[0]["span_ids"] == [0, 1]
    assert chunks[0]["resplit_of"] == -1
    assert chunks[0]["token_count"] == count_tokens(chunks[0]["chunk_text"])


def test_chunk_budget_splits_between_blocks():
    blocks = ["one two three four five."] * 4
    text = "\n\n".join(blocks)
    spans, pos = [], 0
    for i, b in enumerate(blocks):
        spans.append({"span_id": i, "start": pos, "end": pos + len(b)})
        pos += len(b) + 2
    chunks = chunk_document("u", text, spans, max_tokens=13)
    # 6 tokens per block -> 2 blocks per chunk
    assert [c["span_ids"] for c in chunks] == [[0, 1], [2, 3]]


def test_chunk_oversized_block_resplits_with_parent():
    monster = " ".join(f"w{i}" for i in range(100)) + "."
    chunks = chunk_document("u", monster,
                            [{"span_id": 0, "start": 0, "end": len(monster)}],
                            max_tokens=20)
    assert len(chunks) > 1
    assert chunks[0]["resplit_of"] == -1
    assert all(c["resplit_of"] == 0 for c in chunks[1:])
    assert all(c["token_count"] <= 20 for c in chunks)


def test_split_oversized_monster_single_word():
    # one unbroken 'word' longer than any budget: char-level rung
    blob = "x" * 500
    pieces = split_oversized(blob, max_tokens=1)
    assert "".join(pieces) == blob
    assert len(pieces) > 1


def test_chunk_geometry_union():
    text = "alpha beta\n\ngamma delta\n\nepsilon zeta"
    spans = [
        {"span_id": 0, "start": 0, "end": 10, "page_no": 1,
         "bbox": [10, 20, 100, 40]},
        {"span_id": 1, "start": 12, "end": 23, "page_no": 1,
         "bbox": [5, 50, 80, 70]},
        {"span_id": 2, "start": 25, "end": 37, "page_no": 2,
         "bbox": [0, 0, 50, 10]},
    ]
    chunks = chunk_document("u", text, spans, max_tokens=100)
    assert len(chunks) == 1
    # page = first covered span's page; bbox = union over that page only
    assert chunks[0]["page_no"] == 1
    assert chunks[0]["bbox"] == [5, 20, 100, 70]


def test_chunk_geometry_null_without_spans():
    chunks = chunk_document("u", "plain text here", None, max_tokens=100)
    assert chunks[0]["page_no"] is None
    assert chunks[0]["bbox"] is None


def test_chunk_determinism():
    text = " ".join(f"t{i}" for i in range(300))
    a = chunk_document("u", text, None, max_tokens=32)
    b = chunk_document("u", text, None, max_tokens=32)
    assert a == b
    assert all(x["text_hash"] == y["text_hash"] for x, y in zip(a, b))


# ---------------------------------------------------------------------- salvage

SCHEMA = {
    "n": {"kind": "int", "required": True},
    "score": {"kind": "float", "required": False},
    "tags": {"kind": "list<str>", "required": False},
    "name": {"kind": "str", "required": True},
}


def test_salvage_ok_record():
    rec, status = salvage_record(
        {"n": 5, "score": 1.5, "tags": ["a"], "name": "x"}, SCHEMA
    )
    assert status == "ok" and rec["n"] == 5


def test_salvage_coercions():
    rec, status = salvage_record(
        {"n": "42", "score": "3,200.5", "tags": "a, b", "name": 7}, SCHEMA
    )
    assert status == "coerced"
    assert rec == {"n": 42, "score": 3200.5, "tags": ["a", "b"], "name": "7"}


def test_salvage_quantity_with_unit():
    rec, status = salvage_record(
        {"n": {"numeric_value": 3, "text_value": "3 kg"}, "name": "x"}, SCHEMA
    )
    assert rec["n"] == 3 and status == "coerced"


def test_salvage_required_default_and_failed():
    rec, status = salvage_record({"name": "x"}, SCHEMA)
    assert status == "defaulted" and rec["n"] == 0
    rec2, status2 = salvage_record({"n": "not-a-number", "name": "x"}, SCHEMA)
    assert status2 == "failed"


def test_salvage_closed_schema_drops_unknown():
    rec, _ = salvage_record({"n": 1, "name": "x", "extra": "gone"}, SCHEMA)
    assert "extra" not in rec


def test_coerce_scalar_to_quantity_rung():
    """Scalar → QuantityWithUnit coercion (llm_backend.py:233-243)."""
    from docling_graph_ray.functions.salvage import coerce_quantity, salvage_record

    assert coerce_quantity(12) == ({"numeric_value": 12.0}, "coerced")
    assert coerce_quantity("12.5 kg") == ({"numeric_value": 12.5}, "coerced")
    assert coerce_quantity("-3e2 m/s") == ({"numeric_value": -300.0}, "coerced")
    assert coerce_quantity("about right") == (
        {"text_value": "about right"}, "coerced")
    q, st = coerce_quantity({"numeric_value": 5.0})
    assert st == "ok" and q["numeric_value"] == 5.0
    # wired into the ladder via kind='quantity'
    schema = {"wt": {"kind": "quantity", "required": True}}
    rec, status = salvage_record({"wt": "80 kg"}, schema)
    assert rec["wt"] == {"numeric_value": 80.0} and status == "coerced"
    rec2, status2 = salvage_record({}, schema)
    assert status2 == "defaulted" and rec2["wt"]["text_value"] == ""


# ---------------------------------------------------------------------- sniff

@pytest.mark.parametrize("raw,kind", [
    (b"%PDF-1.4 ...", "pdf"),
    (b"\x1f\x8b\x08rest", "gzip"),
    (b'{"schema_name": "DoclingDocument", "x": 1}', "doc_json"),
    (b'{"plain": "json"}', "text"),
    (b"<?xml version='1.0'?><doclang><page/></doclang>", "doclang_xml"),
    (b"<?xml version='1.0'?><rss></rss>", "xml"),
    (b"<!DOCTYPE html><html><body></body></html>", "html"),
    (b"  <html lang='en'><head></head></html>", "html"),
    (b"# Title\n\nSome markdown", "markdown"),
    (b"just plain words here", "text"),
    (b"", "empty"),
    (None, "empty"),
])
def test_detect_kind(raw, kind):
    assert detect_kind(raw) == kind


# ---------------------------------------------------------------------- alias

def test_containment_alias_rules():
    assert is_containment_alias("Acme Corp", "Acme Corp International")
    assert not is_containment_alias("Acme Corp", "Acme Corp")       # equal
    assert not is_containment_alias("Acme 4", "Acme 5 International")  # digits
    assert not is_containment_alias("Zeta", "Acme Corp")            # not subset


def test_reconcile_group_folds_alias():
    g = pa.Table.from_pylist([
        {"cls": "C", "name": "Acme Corp International", "n": 1, "attr": None},
        {"cls": "C", "name": "Acme Corp", "n": 2, "attr": "filled"},
        {"cls": "C", "name": "Other Co", "n": 1, "attr": None},
    ])
    out = reconcile_group(g, name_col="name", count_col="n").to_pylist()
    by_name = {r["name"]: r for r in out}
    assert set(by_name) == {"Acme Corp International", "Other Co"}
    merged = by_name["Acme Corp International"]
    assert merged["aliases"] == ["Acme Corp"]
    assert merged["n"] == 3
    assert merged["attr"] == "filled"  # enrichment from the alias


def _reconcile_bruteforce(g, *, name_col, count_col):
    """The pre-index reference scan: every row against every survivor."""
    import pyarrow.compute as pc
    from docling_graph_ray.functions.normalize import normalize_entity_name

    idx = pc.sort_indices(g, sort_keys=[(name_col, "ascending")])
    rows = g.take(idx).to_pylist()
    rows.sort(key=lambda r: (
        -len(normalize_entity_name(r[name_col]).split("_")), r[name_col]))
    survivors = []
    for row in rows:
        target = next((s for s in survivors
                       if is_containment_alias(row[name_col], s[name_col])),
                      None)
        if target is None:
            row = dict(row)
            row["aliases"] = []
            survivors.append(row)
        else:
            target["aliases"] = sorted([*target["aliases"], row[name_col]])
            target[count_col] = (target.get(count_col) or 0) + (
                row.get(count_col) or 0)
            for k, v in row.items():
                if k in (name_col, "aliases"):
                    continue
                if target.get(k) in (None, "", [], {}) and v not in (None, "", [], {}):
                    target[k] = v
    survivors.sort(key=lambda r: r[name_col])
    return survivors


def test_reconcile_group_index_matches_full_scan():
    """The inverted-index candidate path must pick the SAME survivor the
    full quadratic scan would (first richest match), incl. shared-token
    chains and digit-signature vetoes."""
    import random

    rng = random.Random(11)
    words = ["acme", "corp", "intl", "group", "beta", "nova", "labs",
             "north", "south", "unit"]
    rows = []
    for i in range(300):
        n = rng.randint(1, 5)
        name = " ".join(rng.choice(words) for _ in range(n))
        if rng.random() < 0.3:
            name += f" {rng.randint(1, 3)}"
        rows.append({"cls": "C", "name": name, "n": 1, "attr": None})
    g = pa.Table.from_pylist(rows)
    got = reconcile_group(g, name_col="name", count_col="n").to_pylist()
    want = _reconcile_bruteforce(g, name_col="name", count_col="n")
    assert [(r["name"], r["n"], r["aliases"]) for r in got] == \
        [(r["name"], r["n"], r["aliases"]) for r in want]


def test_reconcile_group_hot_class_bounded():
    """A 1e5-member single class completes in bounded time (the round-3
    verdict's skew demand): the inverted index keeps typical cost
    near-linear and the scan cap bounds the shared-token worst case;
    overflow is auditable opt-in without changing the default schema."""
    import time

    rows = [{"cls": "C", "name": f"entity {i} alpha beta", "n": 1}
            for i in range(100_000)]
    g = pa.Table.from_pylist(rows)
    t0 = time.monotonic()
    out = reconcile_group(g, name_col="name", count_col="n",
                          audit_col="n_scan_overflow")
    dt = time.monotonic() - t0
    assert out.num_rows == 100_000      # distinct digit sigs: no merges
    assert dt < 60, f"hot-class reconcile took {dt:.1f}s"
    assert out.column("n_scan_overflow").to_pylist()[0] == 0
    # default call keeps the legacy schema (no audit column)
    small = reconcile_group(g.slice(0, 10), name_col="name", count_col="n")
    assert "n_scan_overflow" not in small.schema.names


def test_reconcile_group_row_cap_fallback():
    """A class above max_group_rows reconciles only its top-richness-K
    head; the rest passes through vectorized as own-survivors with the
    unreconciled count in the audit column (VERDICT r4 next-step #8).
    Schema and survivor semantics must match the exact path."""
    g = pa.Table.from_pylist([
        {"cls": "C", "name": "Acme Corp International", "n": 1, "attr": None},
        {"cls": "C", "name": "Acme Corp", "n": 2, "attr": "filled"},
        {"cls": "C", "name": "Zeta Group North", "n": 1, "attr": None},
        {"cls": "C", "name": "Zeta", "n": 5, "attr": None},
        {"cls": "C", "name": "Other Co", "n": 1, "attr": None},
    ])
    # cap=3 keeps the 3 richest (Acme Corp International, Zeta Group
    # North, and one 2-token name); the remaining rows pass through
    out = reconcile_group(g, name_col="name", count_col="n",
                          audit_col="n_unreconciled",
                          max_group_rows=3).to_pylist()
    exact = reconcile_group(g, name_col="name", count_col="n",
                            audit_col="n_unreconciled").to_pylist()
    assert exact[0]["n_unreconciled"] == 0
    # capped mode: nothing dropped — counts are conserved
    assert sum(r["n"] for r in out) == 10
    assert all(r["n_unreconciled"] == out[0]["n_unreconciled"] for r in out)
    assert out[0]["n_unreconciled"] == 2  # rows beyond the head
    assert {type(r["aliases"]) for r in out} == {list}
    # an in-head alias still folds (Acme Corp is 2 tokens: richness
    # order is International(3), North(3), then 'Acme Corp' (tie at 2,
    # name asc) — in the head, so it merges)
    by_name = {r["name"]: r for r in out}
    assert by_name["Acme Corp International"]["aliases"] == ["Acme Corp"]
    assert by_name["Acme Corp International"]["n"] == 3


def test_reconcile_group_cap_schema_matches_exact():
    g = pa.Table.from_pylist([
        {"cls": "C", "name": f"name {i} unit", "n": 1} for i in range(8)
    ])
    capped = reconcile_group(g, name_col="name", count_col="n",
                             max_group_rows=4)
    exact = reconcile_group(g, name_col="name", count_col="n")
    assert capped.schema.names == exact.schema.names
    assert capped.num_rows == exact.num_rows == 8
    assert capped.schema.field("aliases").type == pa.list_(pa.string())
    assert exact.schema.field("aliases").type == pa.list_(pa.string())


# ---------------------------------------------------------------------- registry

def test_registry_compose(ray_session):
    from docling_graph_ray.state.registry import builtin_registry

    reg = builtin_registry()
    assert "chunk" in reg.names()
    pipeline = reg.compose([
        ("detect_content_kind", {"col_name": "html"}),
    ])
    ds = ray.data.from_arrow(pa.table({
        "html": pa.array([b"<!DOCTYPE html><html></html>", b"%PDF-xx"]),
    }))
    out = pipeline(ds).to_pandas()
    assert out["content_kind"].tolist() == ["html", "pdf"]
    with pytest.raises(KeyError, match="unknown stage"):
        reg.get("nope")


# ---------------------------------------------------------------------- anchors

def test_anchor_scan_and_derive():
    from docling_graph_ray.functions.anchors import derive_unanchored, scan_values

    hits = scan_values("Alpha beta GAMMA delta", ["beta", "gamma", "missing"])
    assert hits == [
        {"value_id": 0, "kind": "verbatim", "start": 6, "end": 10},
        {"value_id": 1, "kind": "verbatim_ci", "start": 11, "end": 16},
    ]
    anchors = [{"url": "u", "value_id": 0}]
    derived = derive_unanchored(anchors, {"u": ["beta", "gone"]})
    assert derived == [{"url": "u", "value_id": 1, "chunk_id": -1,
                        "kind": "derived", "start": -1, "end": -1}]


def test_bind_node_provenance(ray_session):
    """Per-node provenance binding: node identity values join their
    document's chunks per-url co-group (binder.py:172-360 semantics)."""
    import pyarrow as pa

    import ray.data

    from docling_graph_ray.functions.anchors import bind_node_provenance

    nodes = ray.data.from_arrow(pa.Table.from_pylist([
        {"node_id": "P_1", "url": "u1", "id_value": "beta"},
        {"node_id": "P_2", "url": "u1", "id_value": "GAMMA"},
        {"node_id": "P_3", "url": "u1", "id_value": "absent"},
        {"node_id": "P_4", "url": "u2", "id_value": "beta"},  # other doc
    ]))
    chunks = ray.data.from_arrow(pa.Table.from_pylist([
        {"url": "u1", "chunk_id": 0, "chunk_text": "Alpha beta gamma"},
        {"url": "u1", "chunk_id": 1, "chunk_text": "beta again here"},
        {"url": "u2", "chunk_id": 0, "chunk_text": "no match content"},
    ]))
    rows = bind_node_provenance(nodes, chunks).take_all()
    by_node = {}
    for r in rows:
        by_node.setdefault(r["node_id"], []).append(r)
    # P_1: verbatim in BOTH u1 chunks, never in u2
    assert sorted(a["chunk_id"] for a in by_node["P_1"]) == [0, 1]
    assert all(a["kind"] == "verbatim" and a["url"] == "u1"
               for a in by_node["P_1"])
    assert by_node["P_1"][0]["start"] == 6
    # P_2: case-folded hit
    assert by_node["P_2"][0]["kind"] == "verbatim_ci"
    # P_3: no chunk matches → exactly one derived anchor (completeness)
    assert by_node["P_3"] == [{
        "node_id": "P_3", "url": "u1", "value": "absent", "chunk_id": -1,
        "kind": "derived", "start": -1, "end": -1}]
    # P_4: scanning is scoped to the node's own document
    assert by_node["P_4"][0]["kind"] == "derived"


def test_run_manifest(ray_session, tmp_path):
    import json

    import ray as _ray

    from docling_graph_ray.fixtures.pages import pages_dataset
    from docling_graph_ray.pipelines.extract import run_extract_pipeline
    from docling_graph_ray.state.manifest import write_run_manifest

    out = str(tmp_path / "run")
    run_extract_pipeline(pages_dataset(60, profile="t1"),
                         out_dir=out, num_partitions=4).count()
    p = write_run_manifest(out, {"num_partitions": 4, "profile": "t1"})
    m = json.load(open(p))
    assert m["partitions_committed"] == 4
    assert m["totals"]["n_urls"] > 0
    assert m["totals"]["n_failed"] == 0
    # byte-identical rerun
    b1 = open(p).read()
    write_run_manifest(out, {"num_partitions": 4, "profile": "t1"})
    assert open(p).read() == b1


# ---------------------------------------------------------------------- doc formats

def test_extract_doc_json():
    import json

    from docling_graph_ray.stages.doc_formats import extract_doc_json

    doc = {
        "schema_name": "DoclingDocument",
        "texts": [
            {"text": "Heading  one", "label": "title",
             "prov": [{"page_no": 1, "bbox": [10, 20, 300, 40]}]},
            {"text": "Body   paragraph.", "label": "paragraph"},
            {"text": "", "label": "empty"},
        ],
    }
    r = extract_doc_json(json.dumps(doc).encode())
    assert r["parse_status"] == "ok"
    assert r["extracted_text"] == "Heading one\n\nBody paragraph."
    assert r["n_blocks_kept"] == 2 and r["n_blocks_dropped"] == 1
    assert r["spans"][0]["block_class"] == "title"
    assert r["spans"][0]["page_no"] == 1
    assert r["spans"][0]["bbox"] == [10, 20, 300, 40]
    assert r["spans"][1]["page_no"] is None
    # malformed json -> failed (the actor then falls back to crawler text)
    assert extract_doc_json(b'{"schema_name": ')["parse_status"] == "failed"


def test_extract_doclang():
    from docling_graph_ray.stages.doc_formats import extract_doclang

    xml = (b"<?xml version='1.0'?><doclang><page no='1'>"
           b"<heading>Title here</heading><para>Some  text.</para>"
           b"</page></doclang>")
    r = extract_doclang(xml)
    assert r["parse_status"] == "ok"
    assert r["extracted_text"] == "Title here\n\nSome text."
    assert [s["block_class"] for s in r["spans"]] == ["heading", "para"]


def test_extract_actor_routes_doc_formats(ray_session):
    import json
    from datetime import datetime

    import pyarrow as pa_

    import ray.data as rd

    from docling_graph_ray.pipelines.extract import extract_pages_dataset

    rows = [
        {"url": "u1", "warc_ts": datetime(2025, 1, 1),
         "html": json.dumps({"schema_name": "DoclingDocument",
                             "texts": [{"text": "json doc body"}]}).encode(),
         "text": "fb", "lang": "en"},
        {"url": "u2", "warc_ts": datetime(2025, 1, 1),
         "html": b"<doclang><para>doclang body</para></doclang>",
         "text": "fb", "lang": "en"},
        {"url": "u3", "warc_ts": datetime(2025, 1, 1),
         "html": b"<!DOCTYPE html><html><body><p>"
                 b"plain html body long enough to keep as content, with "
                 b"several words of running prose in one block.</p>"
                 b"</body></html>",
         "text": "fb", "lang": "en"},
    ]
    from docling_graph_ray.fixtures.pages import PAGES_SCHEMA
    ds = rd.from_arrow(pa_.Table.from_pylist(rows, schema=PAGES_SCHEMA))
    out = extract_pages_dataset(ds, num_partitions=2).to_pandas()
    by_url = out.set_index("url")
    assert by_url.loc["u1", "extracted_text"] == "json doc body"
    assert by_url.loc["u2", "extracted_text"] == "doclang body"
    assert "running prose" in by_url.loc["u3", "extracted_text"]
