"""Records → knowledge-graph conversion: the reference's GraphConverter
nodes/edges passes re-expressed over datasets.

The reference walks one validated Pydantic instance per run, mutating a
networkx graph and a shared id registry
(docling_graph/core/converters/graph_converter.py:498-618 nodes pass,
:691-820 edges pass, :625-655 component embedding, :657-689 duplicate
enrichment).  Here the walk is a per-batch flat-map over RECORD rows
(one extracted document record per row, JSON-encoded), driven by a
templategen SPEC instead of live Pydantic classes:

- entity classes (``kind != "component"``) become node MENTION rows;
- component classes embed into their parent entity's attributes with
  entity-typed values nulled (they become edges instead);
- edge fields take their label from the ``edge_label`` marker (field
  name fallback) and carry the ``closed_catalog`` marker as a bool
  column (consumed by ``stages.graph.enforce_closed_catalogs``);
- entities nested under components link from the nearest entity
  ancestor (``_edges_through_component`` semantics);
- node ids are deterministic content hashes of the canonicalized
  identity fields (``functions.normalize.node_id``) — equal identity ⇒
  equal id on any worker, so the reference's NodeIDRegistry needs no
  port (SURVEY.md §2.3);
- duplicate mentions (same entity reached through several paths or
  several documents) are NOT resolved in the walk: every mention is
  emitted with a deterministic ``(doc_key, seq)`` order and resolved by
  ``finalize_nodes``'s groupby — first-non-empty-wins enrichment
  (graph_converter.py:657-689) as a distributed fold instead of
  driver-side ``visited_ids`` state.

Records are trees (parsed JSON), so the reference's object-identity
recursion guard is unnecessary; a depth cap guards degenerate inputs.
"""

from __future__ import annotations

import json

import pyarrow as pa

from docling_graph_ray.functions.formatting import dumps_canonical
from docling_graph_ray.functions.merging import enrich_first_wins
from docling_graph_ray.functions.normalize import node_id as _node_id

_MAX_DEPTH = 64

MENTION_SCHEMA = pa.schema([
    ("node_id", pa.string()),
    ("class", pa.string()),
    ("doc_key", pa.string()),
    ("seq", pa.int64()),
    ("attrs", pa.large_string()),       # canonical JSON
])

EDGE_SCHEMA = pa.schema([
    ("src", pa.string()),
    ("dst", pa.string()),
    ("label", pa.string()),
    ("closed_catalog", pa.bool_()),
    ("doc_key", pa.string()),
    ("seq", pa.int64()),
])

NODE_SCHEMA = pa.schema([
    ("node_id", pa.string()),
    ("class", pa.string()),
    ("attrs", pa.large_string()),
    ("n_mentions", pa.int64()),
])


def compile_spec(spec: dict) -> dict:
    """Templategen spec → walk catalog: per class name, its kind,
    identity list and field marker map."""
    cat: dict = {}
    for m in spec.get("models", []):
        cat[m["name"]] = {
            "is_entity": m.get("kind") != "component",
            "identity": list(m.get("identity", []) or []),
            "fields": {f["name"]: f for f in m.get("fields", [])},
        }
    return cat


def _is_empty(v: object) -> bool:
    return v is None or v == "" or v == [] or v == {}


def _identity_fields(cls: str, attrs: dict, cat: dict) -> dict:
    ident = cat[cls]["identity"]
    if ident:
        return {f: attrs.get(f) for f in ident}
    # no declared identity: content-based fallback over all non-empty
    # scalar attributes (node_id_registry.py:58-113 semantics)
    return {
        k: v for k, v in sorted(attrs.items())
        if not _is_empty(v) and isinstance(v, (str, int, float, bool))
    }


def _component_attrs(obj: dict, cls: str, cat: dict, depth: int) -> dict:
    """Embed a component: entity-typed values null out (they become
    edges from the nearest entity ancestor); nested components recurse
    (graph_converter.py:625-655)."""
    if depth > _MAX_DEPTH:
        return {}
    out: dict = {}
    fields = cat[cls]["fields"]
    for fname, v in (obj or {}).items():
        f = fields.get(fname)
        tcls = f.get("type") if f else None
        if tcls in cat:
            if cat[tcls]["is_entity"]:
                out[fname] = None
            elif isinstance(v, list):
                out[fname] = [
                    _component_attrs(i, tcls, cat, depth + 1)
                    for i in v if isinstance(i, dict)
                ]
            elif isinstance(v, dict):
                out[fname] = _component_attrs(v, tcls, cat, depth + 1)
            else:
                out[fname] = v
        else:
            out[fname] = v
    return out


class _Walk:
    """One record's walk state: a monotone emission counter giving every
    mention/edge a deterministic within-document order."""

    def __init__(self, cat: dict, doc_key: str):
        self.cat = cat
        self.doc_key = doc_key
        self.seq = 0
        self.mentions: list[dict] = []
        self.edges: list[dict] = []

    def _next(self) -> int:
        s = self.seq
        self.seq += 1
        return s

    def entity(self, obj: dict, cls: str, depth: int = 0) -> str:
        """Emit one mention for an entity instance; recurse into nested
        entities (direct, list, or through components) emitting edges
        from this node.  Returns the node id."""
        if depth > _MAX_DEPTH:
            raise ValueError("record nesting exceeds the walk depth cap")
        cat = self.cat
        fields = cat[cls]["fields"]
        attrs: dict = {}
        nested: list[tuple[dict, str, dict | None]] = []  # (obj, cls, field)
        for fname, v in (obj or {}).items():
            f = fields.get(fname)
            tcls = f.get("type") if f else None
            if tcls in cat:
                if cat[tcls]["is_entity"]:
                    attrs[fname] = None
                    items = v if isinstance(v, list) else [v]
                    for item in items:
                        if isinstance(item, dict):
                            nested.append((item, tcls, f))
                else:
                    items = v if isinstance(v, list) else [v]
                    embedded = [
                        _component_attrs(i, tcls, cat, depth + 1)
                        for i in items if isinstance(i, dict)
                    ]
                    attrs[fname] = (
                        embedded if isinstance(v, list)
                        else (embedded[0] if embedded else None)
                    )
                    for item in items:
                        if isinstance(item, dict):
                            nested.append((item, tcls, f))
            else:
                attrs[fname] = v
        nid = _node_id(cls, _identity_fields(cls, attrs, cat))
        self.mentions.append({
            "node_id": nid, "class": cls, "doc_key": self.doc_key,
            "seq": self._next(), "attrs": dumps_canonical(attrs),
        })
        for item, tcls, f in nested:
            if self.cat[tcls]["is_entity"]:
                self._edge_and_recurse(nid, item, tcls, f, depth)
            else:
                self._through_component(nid, item, tcls, depth + 1)
        return nid

    def _edge_and_recurse(self, src: str, obj: dict, tcls: str,
                          f: dict | None, depth: int) -> None:
        dst = self.entity(obj, tcls, depth + 1)
        label = (f or {}).get("edge_label") or (f or {}).get("name") or tcls
        self.edges.append({
            "src": src, "dst": dst, "label": str(label),
            "closed_catalog": bool((f or {}).get("closed_catalog")),
            "doc_key": self.doc_key, "seq": self._next(),
        })

    def _through_component(self, src: str, obj: dict, cls: str,
                           depth: int) -> None:
        """Edges from the nearest entity ancestor to entities below a
        component (graph_converter.py:769-818)."""
        if depth > _MAX_DEPTH:
            return
        fields = self.cat[cls]["fields"]
        for fname, v in (obj or {}).items():
            f = fields.get(fname)
            tcls = f.get("type") if f else None
            if tcls not in self.cat:
                continue
            items = v if isinstance(v, list) else [v]
            for item in items:
                if not isinstance(item, dict):
                    continue
                if self.cat[tcls]["is_entity"]:
                    self._edge_and_recurse(src, item, tcls, f, depth)
                else:
                    self._through_component(src, item, tcls, depth + 1)


_TAGGED_SCHEMA = pa.schema([
    ("node_id", pa.string()),        # mention: node id | edge: src
    ("class", pa.string()),
    ("doc_key", pa.string()),
    ("seq", pa.int64()),
    ("attrs", pa.large_string()),
    ("dst", pa.string()),
    ("label", pa.string()),
    ("closed_catalog", pa.bool_()),
    ("_is_edge", pa.bool_()),
])


def records_to_graph(records, spec: dict, *, root: str | None = None,
                     record_col: str = "record", key_col: str = "doc_key"):
    """Dataset of JSON record rows → one TAGGED dataset holding both
    node mention rows and edge rows (``_is_edge`` discriminator); split
    with :func:`split_graph`.

    One walk per record emits both row kinds in a single pass (the
    reference walks twice, nodes pass then edges pass — one tagged pass
    is equivalent because ids are deterministic hashes, not registry
    state).  ``records`` needs a ``record_col`` (JSON text shaped like
    the spec's root class) and a ``key_col`` giving each document a
    deterministic sort key for the downstream enrichment fold.  The
    spec rides the task closure (template-sized, tiny).  Laziness
    caveat: each consumer of the split datasets re-executes the walk;
    callers chaining several graph passes over BOTH halves should
    ``materialize()`` the tagged dataset first when it fits."""
    root_cls = root or spec.get("root")
    cat = compile_spec(spec)
    if root_cls not in cat:
        raise ValueError(f"root class {root_cls!r} is not in the spec")

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_pylist()
        recs = batch.column(record_col).to_pylist()
        rows: list[dict] = []
        for key, rec in zip(keys, recs):
            obj = json.loads(rec) if isinstance(rec, (str, bytes)) else rec
            if not isinstance(obj, dict):
                continue
            w = _Walk(cat, str(key))
            w.entity(obj, root_cls)
            for m in w.mentions:
                rows.append({**m, "dst": None, "label": None,
                             "closed_catalog": None, "_is_edge": False})
            for e in w.edges:
                rows.append({
                    "node_id": e["src"], "class": None,
                    "doc_key": e["doc_key"], "seq": e["seq"],
                    "attrs": None, "dst": e["dst"], "label": e["label"],
                    "closed_catalog": e["closed_catalog"], "_is_edge": True,
                })
        return pa.Table.from_pylist(rows, schema=_TAGGED_SCHEMA)

    return records.map_batches(fn, batch_format="pyarrow")


def split_graph(tagged):
    """Tagged conversion output → (mentions, edges) datasets with the
    MENTION_SCHEMA / EDGE_SCHEMA columns."""

    def mention_side(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "_is_edge" not in b.schema.names:
            return MENTION_SCHEMA.empty_table()
        m = b.filter(pa.compute.invert(b.column("_is_edge")))
        return pa.table({
            "node_id": m.column("node_id"), "class": m.column("class"),
            "doc_key": m.column("doc_key"), "seq": m.column("seq"),
            "attrs": m.column("attrs"),
        }).cast(MENTION_SCHEMA)

    def edge_side(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "_is_edge" not in b.schema.names:
            return EDGE_SCHEMA.empty_table()
        e = b.filter(b.column("_is_edge"))
        return pa.table({
            "src": e.column("node_id"), "dst": e.column("dst"),
            "label": e.column("label"),
            "closed_catalog": e.column("closed_catalog"),
            "doc_key": e.column("doc_key"), "seq": e.column("seq"),
        }).cast(EDGE_SCHEMA)

    return (
        tagged.map_batches(mention_side, batch_format="pyarrow"),
        tagged.map_batches(edge_side, batch_format="pyarrow"),
    )


def finalize_nodes(mentions, *, num_partitions: int = 64):
    """Mention rows → final node rows: per node id, sort mentions by
    ``(doc_key, seq)`` and fold attrs first-non-empty-wins
    (graph_converter.py:657-689 as a distributed groupby fold).

    Partition-bucketed (stages/bucketing.py): ``map_groups`` runs once
    per ``hash(node_id) % P`` bucket, never once per node — the per-
    mention ``json.loads`` work is inherent to the JSON attr payloads,
    but the per-group task/slice/table overhead (the SURVEY §7.4 cost
    that dominates above ~400k groups) is gone; one sorted pass over the
    partition walks the node runs in plain Python."""
    from docling_graph_ray.stages.bucketing import bucketed_map, run_starts

    def fold_partition(g: pa.Table) -> pa.Table:
        order = pa.compute.sort_indices(g, sort_keys=[
            ("node_id", "ascending"), ("doc_key", "ascending"),
            ("seq", "ascending")])
        g = g.take(order).combine_chunks()
        starts, lens = run_starts(g, ["node_id"])
        node_ids = g.column("node_id").to_pylist()
        classes = g.column("class").to_pylist()
        attrs = g.column("attrs").to_pylist()
        rows = []
        for s, ln in zip(starts.tolist(), lens.tolist()):
            folded = enrich_first_wins(
                [json.loads(a) for a in attrs[s:s + ln]])
            rows.append({
                "node_id": node_ids[s],
                "class": classes[s],
                "attrs": dumps_canonical(folded),
                "n_mentions": ln,
            })
        return pa.Table.from_pylist(rows, schema=NODE_SCHEMA)

    return bucketed_map(mentions, ["node_id"], fold_partition,
                        num_partitions=num_partitions)
