"""Template generation: induce a template spec from data, lint/repair
it, render deterministic Python, and verify the render.

Re-expresses the reference's templategen subsystem (SURVEY.md §2.11;
reference: docling_graph/templategen/ — ``spec.py`` IR, ``linter.py``
rule checks + renames, ``renderer.py`` deterministic code emission,
``verify.py`` execute-the-source gate, ``induce/documents.py`` draft
proposal) with the LLM induction step replaced by **distributed field
profiling**: per-(class, field) statistics are computed as
``map_batches`` partials merged by a small ``groupby`` — the only part
that must scale to a 100 TB record corpus.  Spec building, linting and
rendering are driver-side small-data, exactly as in the reference
("templategen is driver-side tooling, not a dataflow operator",
SURVEY.md §2.11).

Key reference disciplines kept:

- the LLM (here: the profiler) proposes *data*; a deterministic
  renderer writes the code (templategen/generate.py:1-40);
- identity is 1-2 scalar fields, never lists/enums (spec.py:74-76,
  field-definitions.md);
- identifiers are gated before interpolation into source — a
  non-identifier name is a render error, repair renames it first
  (spec.py:33-64);
- rendered source is executed in a scratch namespace and its classes
  checked before the template is accepted (verify.py).
"""

from __future__ import annotations

import ast
import json
import keyword
import re

import pyarrow as pa

SCALAR_TYPES = frozenset(("str", "int", "float", "bool", "date", "datetime"))
MAX_IDENTITY_FIELDS = 2
MAX_FIELD_EXAMPLES = 5
DISTINCT_CAP = 64
_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_NAME_FIELDS = frozenset(("name", "title", "nom"))

PROFILE_SCHEMA = pa.schema(
    [
        ("cls", pa.string()),
        ("field", pa.string()),
        ("n", pa.int64()),
        ("n_filled", pa.int64()),
        ("n_str", pa.int64()),
        ("n_int", pa.int64()),
        ("n_float", pa.int64()),
        ("n_bool", pa.int64()),
        ("n_list", pa.int64()),
        ("n_datelike", pa.int64()),
        ("distinct", pa.string()),        # JSON sorted list, capped
        ("distinct_saturated", pa.int64()),
        ("examples", pa.string()),        # JSON list (smallest K distincts)
    ]
)


# ---------------------------------------------------------------------------
# distributed field profiling (the scale-sensitive part)


def _classify(value: object, acc: dict[str, int]) -> None:
    if isinstance(value, bool):
        acc["n_bool"] += 1
    elif isinstance(value, int):
        acc["n_int"] += 1
    elif isinstance(value, float):
        acc["n_float"] += 1
    elif isinstance(value, str):
        acc["n_str"] += 1
        if _ISO_DATE.match(value):
            acc["n_datelike"] += 1
    elif isinstance(value, (list, tuple)):
        acc["n_list"] += 1


def _is_filled(value: object) -> bool:
    if value is None:
        return False
    if isinstance(value, str):
        return bool(value.strip())
    if isinstance(value, (list, dict)):
        return bool(value)
    return True


def _partial_rows(cls: str, per_field: dict[str, dict]) -> pa.Table:
    rows = []
    for field in sorted(per_field):
        acc = per_field[field]
        distinct = sorted(acc["distinct"])[:DISTINCT_CAP]
        rows.append(
            {
                "cls": cls,
                "field": field,
                "n": acc["n"],
                "n_filled": acc["n_filled"],
                "n_str": acc["n_str"],
                "n_int": acc["n_int"],
                "n_float": acc["n_float"],
                "n_bool": acc["n_bool"],
                "n_list": acc["n_list"],
                "n_datelike": acc["n_datelike"],
                "distinct": json.dumps(distinct, ensure_ascii=False),
                "distinct_saturated": int(acc["saturated"]),
                "examples": json.dumps(distinct[:MAX_FIELD_EXAMPLES],
                                       ensure_ascii=False),
            }
        )
    return pa.Table.from_pylist(rows, schema=PROFILE_SCHEMA)


def _new_acc() -> dict:
    return {
        "n": 0, "n_filled": 0, "n_str": 0, "n_int": 0, "n_float": 0,
        "n_bool": 0, "n_list": 0, "n_datelike": 0,
        "distinct": set(), "saturated": False,
    }


def _observe(acc: dict, value: object) -> None:
    acc["n"] += 1
    if not _is_filled(value):
        return
    acc["n_filled"] += 1
    _classify(value, acc)
    if not isinstance(value, (list, tuple, dict)):
        if len(acc["distinct"]) < DISTINCT_CAP:
            acc["distinct"].add(json.dumps(value, ensure_ascii=False))
        elif json.dumps(value, ensure_ascii=False) not in acc["distinct"]:
            acc["saturated"] = True


def profile_columns(ds, *, cls: str, columns: list[str]):
    """Per-field stats over typed Arrow columns: ``map_batches`` partial
    profiles (one row per field per batch) merged by a tiny
    ``groupby((cls, field))`` — the partial-aggregate-before-shuffle
    pattern, so the wide step moves O(batches × fields) rows, never the
    data."""

    def partial(batch: pa.Table) -> pa.Table:
        per_field = {c: _new_acc() for c in columns}
        for c in columns:
            for value in batch.column(c).to_pylist():
                _observe(per_field[c], value)
        return _partial_rows(cls, per_field)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["cls", "field"]).map_groups(
        _merge_partials, batch_format="pyarrow"
    )


def _merge_partials(group: pa.Table) -> pa.Table:
    rows = group.to_pylist()
    out = dict(rows[0])
    distinct = set()
    saturated = False
    for r in rows:
        distinct.update(json.loads(r["distinct"]))
        saturated = saturated or bool(r["distinct_saturated"])
    for key in ("n", "n_filled", "n_str", "n_int", "n_float", "n_bool",
                "n_list", "n_datelike"):
        out[key] = sum(r[key] for r in rows)
    if len(distinct) > DISTINCT_CAP:
        saturated = True
    capped = sorted(distinct)[:DISTINCT_CAP]
    out["distinct"] = json.dumps(capped, ensure_ascii=False)
    out["distinct_saturated"] = int(saturated)
    out["examples"] = json.dumps(capped[:MAX_FIELD_EXAMPLES], ensure_ascii=False)
    return pa.Table.from_pylist([out], schema=PROFILE_SCHEMA)


def field_distinct_counts(ds, *, columns: list[str]):
    """Exact per-field distinct counts at any cardinality: project to
    (field, value) rows, distinct them with a groupby, count per field
    with a second tiny groupby.  Two shuffles of O(rows × fields) —
    use only when exactness matters (the profile's capped sketch covers
    induction)."""

    def explode(batch: pa.Table) -> pa.Table:
        fields, values = [], []
        for c in columns:
            col = batch.column(c)
            for v in col.to_pylist():
                if _is_filled(v):
                    fields.append(c)
                    values.append(json.dumps(v, ensure_ascii=False))
        return pa.table({"field": pa.array(fields, pa.string()),
                         "value": pa.array(values, pa.string())})

    def pre_distinct(batch: pa.Table) -> pa.Table:
        return batch.group_by(["field", "value"]).aggregate([])

    from docling_graph_ray.stages.bucketing import bucketed_first

    # distinct (field, value) without per-pair Python or a full-key-
    # domain sort shuffle (the value domain scales with the corpus)
    pairs = bucketed_first(
        ds.map_batches(explode, batch_format="pyarrow")
        .map_batches(pre_distinct, batch_format="pyarrow"),  # combiner
        ["field", "value"],
    )

    def to_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("field").aggregate([([], "count_all")])
        return pa.table({"field": g.column("field"),
                         "n_distinct": g.column("count_all").cast(pa.int64())})

    summed = pairs.map_batches(to_partial, batch_format="pyarrow") \
                  .groupby("field").sum("n_distinct")

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["field", "n_distinct"])

    return summed.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# spec IR (plain dicts; validated by lint_spec)
#
# spec = {
#   "name": str, "docstring": str, "root": str,
#   "enums":  [{"name", "members": [str], "include_other": bool}],
#   "models": [{"name", "kind": "root"|"entity"|"component",
#               "docstring": str, "identity": [field names],
#               "fields": [{"name", "type", "is_list", "optional",
#                           "description", "examples", "role",
#                           "edge_label", "reference"}]}],
# }


def induce_spec(profiles, *, root: str, name: str = "induced_template",
                enum_max: int = 8, enum_min_uses: int = 3) -> dict:
    """Build a spec from profile rows (a small table — collect is fine).

    Type = majority vote with numeric promotion; optional = any empty
    slot; enum = unsaturated string field with few, well-used distinct
    values; identity = *_id / name-like / near-unique scalar, capped at
    MAX_IDENTITY_FIELDS (reference induce/documents.py proposes the
    same shape; spec.py:74-76 enforces scalarity)."""
    if hasattr(profiles, "to_pandas"):      # ray Dataset / pyarrow Table
        rows = profiles.to_pandas().to_dict("records")
    elif hasattr(profiles, "to_dict"):      # pandas DataFrame
        rows = profiles.to_dict("records")
    else:
        rows = list(profiles)

    by_cls: dict[str, list[dict]] = {}
    for r in rows:
        by_cls.setdefault(r["cls"], []).append(r)

    enums: list[dict] = []
    models: list[dict] = []
    for cls in sorted(by_cls):
        fields = []
        id_candidates: list[tuple[int, str]] = []
        for r in sorted(by_cls[cls], key=lambda r: r["field"]):
            fname = r["field"]
            filled = r["n_filled"]
            if filled == 0:
                continue  # a gap, not a field (spec.py SpecGap analogue)
            is_list = r["n_list"] > 0
            if r["n_bool"] == filled:
                ftype = "bool"
            elif r["n_int"] + r["n_float"] == filled:
                ftype = "float" if r["n_float"] > 0 else "int"
            elif r["n_str"] == filled and r["n_datelike"] == filled:
                ftype = "date"
            elif r["n_str"] > 0:
                ftype = "str"
            else:
                ftype = "str"
            distinct = json.loads(r["distinct"])
            n_distinct = len(distinct)
            if (
                ftype == "str" and not is_list and not r["distinct_saturated"]
                and 0 < n_distinct <= enum_max
                and filled >= enum_min_uses * n_distinct
            ):
                ename = _pascal(cls) + _pascal(fname)
                enums.append({
                    "name": ename,
                    "members": [json.loads(v) for v in distinct],
                    "include_other": True,
                })
                ftype = ename
            examples = [str(json.loads(v)) for v in
                        json.loads(r["examples"])][:MAX_FIELD_EXAMPLES]
            fields.append({
                "name": fname, "type": ftype, "is_list": is_list,
                "optional": filled < r["n"],
                "description": "", "examples": examples,
                "role": "property", "edge_label": None, "reference": False,
            })
            # identity candidates: scalar str/int, unsaturated-or-unique
            if not is_list and ftype in ("str", "int"):
                if fname == "id" or fname.endswith("_id"):
                    rank = 0
                elif fname in _NAME_FIELDS:
                    rank = 1
                elif (r["distinct_saturated"] or n_distinct * 100
                      >= filled * 95):
                    rank = 2
                else:
                    continue
                id_candidates.append((rank, fname))
        identity = [f for _, f in sorted(id_candidates)[:1]]
        for f in fields:
            if f["name"] in identity:
                f["role"] = "identity"
        kind = "root" if cls == root else ("entity" if identity
                                           else "component")
        model = {
            "name": cls, "kind": kind,
            "docstring": f"{cls} records (induced from field profiles).",
            "identity": identity, "fields": fields,
        }
        if kind == "root":
            # identity-less root lists dedup first-wins (linter W09/R19);
            # scheduling at induction keeps induced specs lint-clean
            dedup = [f["name"] for f in fields
                     if f["is_list"] and f["type"] in SCALAR_TYPES]
            if dedup:
                model["root_list_dedup"] = dedup
        models.append(model)
    return {"name": name, "docstring": f"Template induced from data "
            f"profiles of {', '.join(sorted(by_cls))}.",
            "root": root, "enums": enums, "models": models}


# ---------------------------------------------------------------------------
# lint + repair


def sanitize_identifier(value: str, *, pascal: bool = False) -> str:
    """Deterministic rename for names that cannot be interpolated into
    source (spec.py:33-64 gate; linter renames, render refuses)."""
    cleaned = re.sub(r"[^0-9a-zA-Z_]+", "_", str(value)).strip("_") or "field"
    if cleaned[0].isdigit():
        cleaned = "f_" + cleaned
    if pascal:
        cleaned = _pascal(cleaned)
    if keyword.iskeyword(cleaned):
        cleaned += "_"
    # dunders need no special case: leading/trailing underscores are
    # already stripped above.
    return cleaned


def _pascal(value: str) -> str:
    parts = re.split(r"[^0-9a-zA-Z]+", str(value))
    return "".join(p[:1].upper() + p[1:] for p in parts if p) or "X"


def _is_bad_name(value: str) -> bool:
    return (
        not isinstance(value, str) or not value or not value.isidentifier()
        or keyword.iskeyword(value)
        or (value.startswith("__") and value.endswith("__"))
    )


# --- prose-hygiene rule machinery (reference linter.py R3/R4/R5/R16/R6/
# R19 semantics, re-derived over the dict spec) ------------------------------

DOCSTRING_WINDOW = 240          # the Phase-1 docstring window (linter.py:85)
MIN_IDENTITY_EXAMPLES = 2
#: field normalizer gates (reference spec.py:144): renderer emits a
#: never-reject ``mode="before"`` validator per gate
NORMALIZERS = frozenset(("none", "currency", "numeric", "string_list"))

_SENT_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")
_NOT_RE = re.compile(r"\bnot\b", re.IGNORECASE)
_CARDINALITY_PHRASES = ("at most", "maximum", "up to")
_COMPUTE_RE = re.compile(
    r"\b(calculate|compute|sum|convert|round|multiply|derive)\b",
    re.IGNORECASE)
_INVENT_RE = re.compile(
    r"\b(generat(?:e|es|ed|ing)|assign(?:s|ed|ing)?|invent(?:s|ed|ing)?)\b",
    re.IGNORECASE)
_NA_RE = re.compile(r"\bn/a\b", re.IGNORECASE)
_GLOBAL_RULE_PHRASES = ("omit if", "leave empty")
_NUMBER_NAME_RE = re.compile(r"(_number$|_no$|^ref_|_ref$)")
_ID_RENAME_CANDIDATES = ("name", "title")


def _sentences(text) -> list[str]:
    return [s.strip() for s in _SENT_SPLIT_RE.split(str(text or ""))
            if s.strip()]


def _is_forbidden_description(sentence: str) -> bool:
    low = sentence.lower()
    return bool(_COMPUTE_RE.search(sentence)) or bool(_NA_RE.search(sentence)) \
        or any(p in low for p in _GLOBAL_RULE_PHRASES)


def _is_cardinality_sentence(sentence: str) -> bool:
    return (any(c.isdigit() for c in sentence)
            or any(p in sentence.lower() for p in _CARDINALITY_PHRASES))


def _docstring_reordered(docstring: str) -> str:
    """Sentences reordered IS → IS-NOT → cardinality (the reference's R4
    window-packing heuristic: discriminating IS content first)."""
    sents = _sentences(docstring)
    is_not = [s for s in sents if _NOT_RE.search(s)]
    card = [s for s in sents if s not in is_not
            and _is_cardinality_sentence(s)]
    is_bucket = [s for s in sents if s not in is_not and s not in card]
    return " ".join(is_bucket + is_not + card)


def _identity_rank(field: dict, position: int) -> tuple:
    """R1 identity-trim order (reference linter.py _identity_rank):
    digit-bearing examples first, then shortest example, then original
    position — "kept the digit-bearing/shortest-example ids"."""
    examples = [str(e) for e in (field.get("examples") or [])
                if isinstance(e, (str, int, float))]
    has_digit = any(any(c.isdigit() for c in e) for e in examples)
    shortest = min((len(e) for e in examples), default=float("inf"))
    return (0 if has_digit else 1, shortest, position)


# --- structural rule machinery (reference linter.py R24/R9/R15/R14/R23
# re-derived over the dict spec; this engine's renderer REFUSES model
# cycles — no forward-ref escape hatch — so the reference's
# flip-to-reference cycle rung becomes identity-severance here) --------------

MAX_NESTING_DEPTH = 4

_VERB_PREFIXES = ("has", "is", "was", "owns", "uses", "contains",
                  "includes", "employs", "manages", "belongs", "refers",
                  "links", "derives", "produces", "located")


def _upper_snake(value: str) -> str:
    parts = re.findall(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z0-9]+|[A-Z]+",
                       str(value or ""))
    return "_".join(p.upper() for p in parts if p)


def _derive_edge_label(field_name: str, target: str) -> str:
    """Deterministic label for a label-less/banned edge (reference
    naming.derive_edge_label semantics): the field name as an
    UPPER_SNAKE verb phrase when it reads like one, else HAS_<TARGET>."""
    label = _upper_snake(field_name)
    if label and label.split("_")[0].lower() in _VERB_PREFIXES:
        return label
    return f"HAS_{_upper_snake(target) or 'TARGET'}"


def _model_map(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec.get("models", [])}


def _nesting_items(spec: dict):
    """(parent model, field) pairs that NEST a model type: edge fields
    and model-typed property fields — exactly what the node-catalog walk
    traverses (dense/catalog.build_node_catalog)."""
    models = _model_map(spec)
    for m in spec.get("models", []):
        for f in m.get("fields", []):
            if f.get("type") in models and (
                    f.get("role") == "edge" or f.get("role") == "property"):
                yield m, f


def _edge_depths(spec: dict, *, include_reference: bool = False) -> dict:
    """BFS nesting depth from the root over non-reference nesting
    fields; unreachable models are absent from the result."""
    models = _model_map(spec)
    root = spec.get("root")
    if root not in models:
        return {}
    depths = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for name in frontier:
            for f in models[name].get("fields", []):
                if f.get("type") in models and (
                        include_reference or not f.get("reference")):
                    if f.get("role") not in ("edge", "property"):
                        continue
                    t = f["type"]
                    if t not in depths:
                        depths[t] = depths[name] + 1
                        nxt.append(t)
        frontier = nxt
    return depths


def _nonref_inbound(spec: dict) -> dict:
    counts: dict[str, int] = {m["name"]: 0 for m in spec.get("models", [])}
    for _m, f in _nesting_items(spec):
        if not f.get("reference"):
            counts[f["type"]] += 1
    return counts


def _sever_to_identity(f: dict, target: str) -> None:
    """Replace a nesting field with a plain str carrying the target's
    identity — the cycle/component-edge severance (reference R24
    severance; also this engine's R15 rung, since the renderer refuses
    cycles outright instead of emitting forward refs)."""
    f["role"] = "property"
    f["type"] = "str"
    f["edge_label"] = None
    f["reference"] = False
    f.pop("closed_catalog", None)
    f.pop("normalizer", None)
    if not f.get("description"):
        f["description"] = f"The identity of the related {target}."


def lint_spec(spec: dict) -> list[dict]:
    """Deterministic findings (code, where, message) — the reference
    linter's rule families that apply to a dict spec (linter.py):
    identity arity/scalarity, identifier safety, duplicate/unknown
    names, edge-marker placement."""
    findings: list[dict] = []

    def finding(code: str, where: str, message: str) -> None:
        findings.append({"code": code, "where": where, "message": message})

    enum_names = [e["name"] for e in spec.get("enums", [])]
    model_names = [m["name"] for m in spec.get("models", [])]
    for dup in sorted({n for n in enum_names if enum_names.count(n) > 1}
                      | {n for n in model_names if model_names.count(n) > 1}):
        finding("E05", dup, "duplicate class name")
    declared = set(enum_names) | set(model_names) | SCALAR_TYPES

    root = spec.get("root")
    if root not in model_names:
        finding("E09", str(root), "root is not a declared model")

    for e in spec.get("enums", []):
        if _is_bad_name(e["name"]):
            finding("E04", e["name"], "enum name is not a safe identifier")
        if not e.get("members"):
            finding("E08", e["name"], "enum has no members")
        members = {str(v) for v in e.get("members", [])}
        for member in sorted(e.get("synonyms") or {}):
            if str(member) not in members:
                finding("E14", f"{e['name']}.{member}",
                        "enum synonyms name an undeclared member")

    for m in spec.get("models", []):
        where = m["name"]
        if _is_bad_name(m["name"]):
            finding("E04", where, "model name is not a safe identifier")
        if not m.get("fields"):
            finding("E08", where, "model has no fields")
        identity = m.get("identity", [])
        field_by_name = {f["name"]: f for f in m.get("fields", [])}
        if m.get("kind") == "entity" and not identity:
            finding("E01", where, "entity without identity fields")
        if len(identity) > MAX_IDENTITY_FIELDS:
            finding("E02", where,
                    f"more than {MAX_IDENTITY_FIELDS} identity fields")
        if m.get("kind") == "component" and identity:
            finding("W01", where, "component carries identity fields")
        mi = m.get("max_instances")
        if mi is not None:
            if not isinstance(mi, int) or isinstance(mi, bool) or mi < 1:
                finding("E11", where,
                        "max_instances must be a positive integer")
            elif m.get("kind") == "component":
                finding("W02", where,
                        "max_instances on a component is ignored "
                        "(cardinality bounds apply to entity classes)")
        for fname in identity:
            f = field_by_name.get(fname)
            if f is None:
                finding("E10", f"{where}.{fname}",
                        "identity names an undeclared field")
            elif f["is_list"] or f["type"] not in SCALAR_TYPES:
                finding("E03", f"{where}.{fname}",
                        "identity fields must be scalar-typed")
        for f in m.get("fields", []):
            fwhere = f"{where}.{f['name']}"
            if _is_bad_name(f["name"]):
                finding("E04", fwhere, "field name is not a safe identifier")
            if f.get("type") not in declared:
                finding("E07", fwhere, f"unknown type {f.get('type')!r}")
            if f.get("role") == "edge" and not f.get("edge_label"):
                finding("E06", fwhere, "edge field without edge_label")
            if f.get("role") != "edge" and f.get("edge_label"):
                finding("E06", fwhere, "edge_label on a non-edge field")
            if f.get("closed_catalog") and not f.get("reference"):
                finding("E12", fwhere,
                        "closed_catalog requires a reference edge field")
            norm = f.get("normalizer", "none") or "none"
            if norm not in NORMALIZERS:
                finding("E13", fwhere, f"unknown normalizer {norm!r}")
            elif norm != "none" and (f.get("role") == "identity"
                                     or f["name"] in identity):
                # reference R2: identity values copy verbatim — the gate
                # would rewrite them (repair clears it)
                finding("W10", fwhere,
                        "identity field carries a normalizer gate "
                        "(identity values are copied verbatim)")
            desc = f.get("description") or ""
            bad = [s for s in _sentences(desc)
                   if _is_forbidden_description(s)]
            if bad:
                finding("W04", fwhere,
                        "description instructs computation or restates "
                        f"global rules: {bad}")
            invented = [s for s in _sentences(desc) if _INVENT_RE.search(s)]
            if invented:
                finding("W05", fwhere,
                        f"description instructs invention: {invented}")
            if (f.get("role") == "identity" or f["name"] in identity) \
                    and "examples" in f:
                # examples-aware (induced) specs only: hand-authored specs
                # without profiling carry no examples key — the reference
                # raises R3 as a GAP for gap-fill, not a lint failure
                ex = [e for e in (f.get("examples") or []) if str(e).strip()]
                if len(ex) < MIN_IDENTITY_EXAMPLES:
                    finding("W08", fwhere,
                            "identity field carries fewer than "
                            f"{MIN_IDENTITY_EXAMPLES} verbatim examples "
                            "(examples are document-derived — no repair)")
                elif _NUMBER_NAME_RE.search(f["name"]) and ex and not any(
                        any(c.isdigit() for c in str(e)) for e in ex):
                    finding("W06", fwhere,
                            "number-named identity field holds digit-free "
                            "values (rename to name/title)")
                elif (f["name"] in _ID_RENAME_CANDIDATES and ex and all(
                        any(c.isdigit() for c in str(e)) for e in ex)):
                    finding("W07", fwhere,
                            "identity named name/title holds digit-bearing "
                            "values only — consider a *_number name "
                            "(not auto-renamed)")
        doc = " ".join(str(m.get("docstring") or "").split())
        if len(doc) > DOCSTRING_WINDOW and _docstring_reordered(doc) != doc:
            # reference R4: warn only when reordering changes the text;
            # an already-IS-first over-budget docstring is advisory-only
            finding("W03", where,
                    f"docstring overruns the {DOCSTRING_WINDOW}-char "
                    "Phase-1 window (sentences reorder IS -> IS-NOT -> "
                    f"cardinality); window: {doc[:DOCSTRING_WINDOW]!r}")
        # reference R13: a cardinality bound must be visible to Phase-1
        # discovery as a docstring sentence
        if (m.get("max_instances") and m.get("kind") != "component"
                and not any(_is_cardinality_sentence(s)
                            for s in _sentences(doc))):
            # mirror the R13 repair rung exactly: when documented is
            # unset, repair stores documented = max_instances (then
            # doubles the stored bound) — the injected sentence quotes
            # the CURRENT max_instances, not max_instances // 2
            documented = int(m["max_instances"]) \
                if m.get("max_instances_documented") is None \
                else int(m["max_instances_documented"])
            finding("W11", where,
                    f"max_instances={m['max_instances']} without a "
                    "cardinality sentence in the docstring — repair "
                    f"injects 'At most {documented} expected per "
                    "document.'")

    # reference R1: an identity-less root gets a synthesized
    # document_reference identity on repair (never invented per-entity
    # ids — the root is the one class with a printed-reference fallback)
    root_decl = next((m for m in spec.get("models", [])
                      if m["name"] == root), None)
    if root_decl is not None and not root_decl.get("identity"):
        finding("W12", str(root),
                "identity-less root — repair synthesizes a "
                "'document_reference' identity field")

    # --- structural rules (R24/R9/R15/R14/R23 families) -----------------
    models_by = _model_map(spec)
    # W13 / R24: components embed — they cannot own labeled edges
    for m in spec.get("models", []):
        if m.get("kind") != "component":
            continue
        for f in m.get("fields", []):
            if f.get("role") == "edge":
                finding("W13", f"{m['name']}.{f['name']}",
                        "edge on a component — components embed into "
                        "their parent node and cannot own graph edges "
                        "(repair severs to the target identity / nested "
                        "property)")
    # W14 / R9: edge labels are UPPER_SNAKE, consistent per
    # (field name, target) template-wide
    chosen: dict[tuple[str, str], str] = {}
    for m, f in _nesting_items(spec):
        if f.get("role") != "edge":
            continue
        raw = f.get("edge_label") or ""
        norm = _upper_snake(raw) or _derive_edge_label(f["name"], f["type"])
        if norm != raw:
            finding("W14", f"{m['name']}.{f['name']}",
                    f"edge label {raw!r} normalizes to {norm!r}")
        key = (f["name"], f["type"])
        first = chosen.setdefault(key, norm)
        if norm != first:
            finding("W14", f"{m['name']}.{f['name']}",
                    f"inconsistent label {norm!r} for field "
                    f"{f['name']!r} -> {f['type']}; first occurrence "
                    f"{first!r} wins on repair")
    # W16 / R15: self-references and mutual full-nesting cycles.  The
    # renderer emits forward refs for cycles (r5), so retention is now
    # a valid policy: ``cycle_policy: "forward_ref"`` keeps them (no
    # finding, no repair — reference linter.py R9 retention choice);
    # the default ``"sever"`` flags them for the severance repair.
    if spec.get("cycle_policy", "sever") != "forward_ref":
        for m, f in _nesting_items(spec):
            if f.get("reference"):
                continue
            if f["type"] == m["name"]:
                finding("W16", f"{m['name']}.{f['name']}",
                        "self-referencing nesting — repair severs to "
                        "the identity string (set cycle_policy: "
                        "'forward_ref' to retain; renderer emits "
                        "forward refs either way)")
        names = list(models_by)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                ab = [f for f in models_by[a].get("fields", [])
                      if f.get("type") == b and not f.get("reference")
                      and f.get("role") in ("edge", "property")]
                ba = [f for f in models_by[b].get("fields", [])
                      if f.get("type") == a and not f.get("reference")
                      and f.get("role") in ("edge", "property")]
                if ab and ba:
                    finding("W16", f"{a} <-> {b}",
                            "mutual nesting cycle — repair severs the "
                            "back edge (deeper-from-root side) to the "
                            "identity string (set cycle_policy: "
                            "'forward_ref' to retain)")
    # W15 / R14: nesting depth from the root stays within the budget
    depths = _edge_depths(spec)
    for m, f in _nesting_items(spec):
        if f.get("reference"):
            continue
        pd = depths.get(m["name"])
        if pd is not None and pd >= MAX_NESTING_DEPTH:
            finding("W15", f"{m['name']}.{f['name']}",
                    f"'{f['type']}' nested at depth {pd + 1} "
                    f"(> {MAX_NESTING_DEPTH}) — repair flips to a "
                    "reference edge when the target keeps another full "
                    "home")
    # W19 / R10: a rich entity nests in full at exactly ONE canonical
    # home; extra full inbound edges should flip to references.  Shape
    # exception: all-single edges from ONE parent (seller/buyer Party) —
    # every role keeps its data
    for target in spec.get("models", []):
        if target.get("kind") != "entity":
            continue
        inbound_edges = [
            (p, f) for p, f in _nesting_items(spec)
            if f.get("role") == "edge" and f["type"] == target["name"]
            and not f.get("reference") and p["name"] != target["name"]
        ]
        if len(inbound_edges) < 2:
            continue
        parents = {p["name"] for p, _ in inbound_edges}
        if len(parents) == 1 and all(not f.get("is_list")
                                     for _, f in inbound_edges):
            continue
        finding("W19", target["name"],
                f"nested in full at {len(inbound_edges)} paths — repair "
                "keeps one canonical home (marked, else nearest the "
                "root) and flips the others to reference edges")

    # W18 / R11: references need identity targets and a canonical home
    # elsewhere; identity-only shared targets are exempt (the Person
    # pattern: references on every path are their design)
    inbound = _nonref_inbound(spec)
    for m, f in _nesting_items(spec):
        if not f.get("reference") or f.get("role") != "edge":
            continue
        target = models_by.get(f["type"])
        if target is None:
            continue
        if not target.get("identity"):
            finding("W18", f"{m['name']}.{f['name']}",
                    f"reference to {f['type']!r} which declares no "
                    "identity — the marker is ignored at runtime; repair "
                    "un-references the edge")
        elif (target.get("kind") != "root"
              and any(ff.get("role") != "identity"
                      for ff in target.get("fields", []))
              and inbound.get(f["type"], 0) == 0):
            finding("W18", f"{m['name']}.{f['name']}",
                    f"reference on the only full path to {f['type']!r} — "
                    "the node would carry nothing but its identity; "
                    "repair flips the reference off")
    # W17 / R23: every entity needs a discovery path from the root
    # (meaningless when the root itself is undeclared — E09 covers that)
    if root in models_by:
        for m in spec.get("models", []):
            if m.get("kind") == "entity" and m["name"] not in depths:
                finding("W17", m["name"],
                        "entity has no discovery path from the root "
                        "(unreachable island) — repair attaches the "
                        "island head to the root as a full list edge")

    # identity-less root list fields → dedup validator scheduled (R19)
    root_m = next((m for m in spec.get("models", []) if m["name"] == root),
                  None)
    if root_m is not None:
        model_kind = {m["name"]: m.get("kind") for m in spec.get("models", [])}
        enum_set = set(enum_names)
        scheduled = set(root_m.get("root_list_dedup", []))
        for f in root_m.get("fields", []):
            if (not f.get("is_list") or f["name"] in scheduled
                    or f.get("role") == "edge"):
                continue  # edge lists dedup by identity in the registry
            t = f.get("type")
            if (t in SCALAR_TYPES or t in enum_set
                    or model_kind.get(t) == "component"):
                finding("W09", f"{root}.{f['name']}",
                        "identity-less root list field — first-wins dedup "
                        "validator should be scheduled (root_list_dedup)")
    return findings


def repair_spec(spec: dict) -> tuple[dict, list[str]]:
    """Apply the deterministic repairs the linter's rename/demote rules
    perform (linter.py repair_draft): sanitize unsafe names (tracking
    renames so identity lists and type references follow), demote
    identity-less entities to components, drop identity overflow."""
    spec = json.loads(json.dumps(spec))  # deep copy
    actions: list[str] = []
    renames: dict[str, str] = {}

    for e in spec.get("enums", []):
        if _is_bad_name(e["name"]):
            new = sanitize_identifier(e["name"], pascal=True)
            renames[e["name"]] = new
            actions.append(f"renamed enum {e['name']!r} -> {new!r}")
            e["name"] = new
    for m in spec.get("models", []):
        if _is_bad_name(m["name"]):
            new = sanitize_identifier(m["name"], pascal=True)
            renames[m["name"]] = new
            actions.append(f"renamed model {m['name']!r} -> {new!r}")
            m["name"] = new
    if spec.get("root") in renames:
        spec["root"] = renames[spec["root"]]

    for m in spec.get("models", []):
        field_renames: dict[str, str] = {}
        for f in m.get("fields", []):
            f["type"] = renames.get(f["type"], f["type"])
            if _is_bad_name(f["name"]):
                new = sanitize_identifier(f["name"])
                field_renames[f["name"]] = new
                actions.append(
                    f"renamed field {m['name']}.{f['name']!r} -> {new!r}")
                f["name"] = new
        m["identity"] = [field_renames.get(i, i) for i in m.get("identity", [])]

    # --- induction repair rungs (reference linter.py repair_draft /
    # _predraft_identity, cited per rung) --------------------------------
    for m in spec.get("models", []):
        by_name = {f["name"]: f for f in m.get("fields", [])}
        # IR rung: missing/invalid kind defaults by identity evidence
        if m.get("kind") not in ("root", "entity", "component"):
            m["kind"] = "entity" if m.get("identity") else "component"
            actions.append(f"defaulted missing kind of {m['name']} to "
                           f"{m['kind']!r}")
        # R1 rung: identity names an undeclared field — dropped
        declared = [i for i in m.get("identity", []) if i in by_name]
        if declared != m.get("identity", []):
            dropped = [i for i in m.get("identity", []) if i not in by_name]
            actions.append(f"dropped undeclared identity fields on "
                           f"{m['name']}: {dropped}")
            m["identity"] = declared
        # R1 rung: components carry no identity / max_instances
        if m.get("kind") == "component":
            if m.get("identity"):
                for i in m["identity"]:
                    by_name[i]["role"] = "property"
                m["identity"] = []
                actions.append(f"cleared identity on component {m['name']} "
                               "(roles demoted to property)")
            if m.get("max_instances") is not None:
                m.pop("max_instances", None)
                actions.append(f"cleared max_instances on component "
                               f"{m['name']}")
        # R1 rung: identity-less ROOT synthesizes document_reference
        # (a real printed identity beats the filename fallback,
        # linter.py _predraft_synthesize_root_identity)
        if m["name"] == spec.get("root") and not m.get("identity"):
            f = by_name.get("document_reference")
            if f is None:
                f = {"name": "document_reference", "type": "str",
                     "is_list": False, "optional": False,
                     "description": "Identifier printed on the document, "
                     "e.g. reference number or title.",
                     "examples": [], "role": "identity",
                     "edge_label": None, "reference": False}
                m["fields"] = [f] + list(m.get("fields", []))
                by_name[f["name"]] = f
            else:
                f["role"] = "identity"
                f["type"] = "str"
                f["is_list"] = False
            m["identity"] = ["document_reference"]
            actions.append(f"synthesized document_reference identity on "
                           f"identity-less root {m['name']}")
        # R2 rung: identity is scalar, non-list, un-normalized, never an
        # edge (linter.py _predraft_retype_identity)
        for i in m.get("identity", []):
            f = by_name[i]
            if f.get("is_list"):
                f["is_list"] = False
                actions.append(f"cleared is_list on identity "
                               f"{m['name']}.{i}")
            if f.get("type") not in SCALAR_TYPES:
                actions.append(f"retyped identity {m['name']}.{i} from "
                               f"{f.get('type')!r} to 'str'")
                f["type"] = "str"
            if (f.get("normalizer") or "none") != "none":
                f["normalizer"] = "none"
                actions.append(f"cleared normalizer on identity "
                               f"{m['name']}.{i} (values copy verbatim)")
            if f.get("edge_label") or f.get("reference") \
                    or f.get("closed_catalog"):
                f["edge_label"] = None
                f["reference"] = False
                f.pop("closed_catalog", None)
                actions.append(f"cleared edge markers on identity "
                               f"{m['name']}.{i}")
            f["role"] = "identity"
        # R1 rung: identity overflow trims to the BEST two — digit-
        # bearing examples first, then shortest example (linter.py
        # _identity_rank), not positionally
        if len(m.get("identity", [])) > MAX_IDENTITY_FIELDS:
            ranked = sorted(
                m["identity"],
                key=lambda n: _identity_rank(by_name[n],
                                             m["identity"].index(n)))
            keep = ranked[:MAX_IDENTITY_FIELDS]
            dropped = [i for i in m["identity"] if i not in keep]
            for i in dropped:
                by_name[i]["role"] = "property"
            m["identity"] = [i for i in m["identity"] if i in keep]
            actions.append(f"trimmed identity overflow on {m['name']} to "
                           f"the digit-bearing/shortest ids: kept "
                           f"{m['identity']}, demoted {dropped}")
        if m.get("kind") == "entity" and not m["identity"]:
            m["kind"] = "component"
            m.pop("max_instances", None)
            actions.append(f"demoted identity-less entity {m['name']} "
                           "to component")
        # R13 rung: double the documented max_instances ONCE (discovery
        # overshoot headroom, linter.py repair_draft contract) and make
        # the documented figure visible as a docstring sentence
        mi = m.get("max_instances")
        if (isinstance(mi, int) and not isinstance(mi, bool) and mi >= 1
                and m.get("kind") != "component"):
            if m.get("max_instances_documented") is None:
                m["max_instances_documented"] = mi
                m["max_instances"] = mi * 2
                actions.append(f"doubled documented max_instances of "
                               f"{m['name']} ({mi} -> {mi * 2}) for "
                               "discovery headroom")
            doc = str(m.get("docstring") or "")
            if not any(_is_cardinality_sentence(s) for s in _sentences(doc)):
                sentence = (f"At most {m['max_instances_documented']} "
                            "expected per document.")
                m["docstring"] = f"{doc.rstrip()} {sentence}".strip()
                actions.append(f"injected cardinality sentence into "
                               f"{m['name']} docstring: {sentence!r}")

    # prose hygiene + identity honesty + root-list dedup (reference
    # linter.py R4/R16/R6/R5/R19 semantics)
    for m in spec.get("models", []):
        doc = " ".join(str(m.get("docstring") or "").split())
        if len(doc) > DOCSTRING_WINDOW:
            reordered = _docstring_reordered(doc)
            if reordered != doc:
                m["docstring"] = reordered
                actions.append(
                    f"reordered over-budget docstring of {m['name']} "
                    "IS -> IS-NOT -> cardinality")
        taken = {f["name"] for f in m.get("fields", [])}
        for f in m.get("fields", []):
            sents = _sentences(f.get("description") or "")
            kept = [s for s in sents if not _is_forbidden_description(s)
                    and not _INVENT_RE.search(s)]
            if len(kept) != len(sents):
                f["description"] = " ".join(kept)
                actions.append(
                    f"scrubbed computation/invention sentences from "
                    f"{m['name']}.{f['name']} description"
                    + (" (emptied: description gap)" if not kept else ""))
            ex = [e for e in (f.get("examples") or []) if str(e).strip()]
            if (f["name"] in m.get("identity", [])
                    and _NUMBER_NAME_RE.search(f["name"]) and ex
                    and not any(any(c.isdigit() for c in str(e))
                                for e in ex)):
                new = next((c for c in _ID_RENAME_CANDIDATES
                            if c not in taken), None)
                if new is not None:
                    old = f["name"]
                    f["name"] = new
                    taken.add(new)
                    m["identity"] = [new if i == old else i
                                     for i in m["identity"]]
                    actions.append(
                        f"renamed digit-free number-named identity "
                        f"{m['name']}.{old!r} -> {new!r}")

    # --- structural repairs (reference linter.py R24/R9/R15/R14/R23;
    # cycle repairs SEVER instead of flipping to forward refs — this
    # engine's renderer refuses cycles) ----------------------------------
    models_by = _model_map(spec)
    # W13 / R24: component-owned edges
    for m in spec.get("models", []):
        if m.get("kind") != "component":
            continue
        for f in m.get("fields", []):
            if f.get("role") != "edge":
                continue
            target = models_by.get(f.get("type"))
            if target is not None and target.get("kind") != "component":
                name = f["type"]
                _sever_to_identity(f, name)
                actions.append(f"severed component edge {m['name']}."
                               f"{f['name']} to the {name} identity str")
            else:
                f["role"] = "property"
                f["edge_label"] = None
                f["reference"] = False
                f.pop("closed_catalog", None)
                actions.append(f"demoted component edge {m['name']}."
                               f"{f['name']} to a nested property")
    # W14 / R9: edge-label normalization + per-(field, target) consistency
    chosen: dict[tuple[str, str], str] = {}
    for m, f in _nesting_items(spec):
        if f.get("role") != "edge":
            continue
        raw = f.get("edge_label") or ""
        norm = _upper_snake(raw) or _derive_edge_label(f["name"], f["type"])
        first = chosen.setdefault((f["name"], f["type"]), norm)
        if first != raw:  # first-wins consistency + normalization
            f["edge_label"] = first
            actions.append(f"edge label {m['name']}.{f['name']}: "
                           f"{raw!r} -> {first!r}")
    # W16 / R15: self-loops sever; mutual cycles sever the back edge
    # (the side deeper from the root; ties by declaration order).
    # Under cycle_policy "forward_ref" the cycle is RETAINED — the
    # renderer emits quoted forward refs + model_rebuild (r5), the
    # reference's R9 retention choice.
    if spec.get("cycle_policy", "sever") != "forward_ref":
        for m, f in list(_nesting_items(spec)):
            if not f.get("reference") and f.get("type") == m["name"]:
                _sever_to_identity(f, m["name"])
                actions.append(f"severed self-referencing field "
                               f"{m['name']}.{f['name']} (cycle_policy "
                               "sever)")
        depths0 = _edge_depths(spec)
        names = list(models_by)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                ab = [f for f in models_by[a].get("fields", [])
                      if f.get("type") == b and not f.get("reference")
                      and f.get("role") in ("edge", "property")]
                ba = [f for f in models_by[b].get("fields", [])
                      if f.get("type") == a and not f.get("reference")
                      and f.get("role") in ("edge", "property")]
                if not ab or not ba:
                    continue
                da = depths0.get(a, float("inf"))
                db = depths0.get(b, float("inf"))
                back_fields, target = (ba, a) if da <= db else (ab, b)
                owner = b if da <= db else a
                for f in back_fields:
                    _sever_to_identity(f, target)
                    actions.append(f"severed mutual-cycle back edge "
                                   f"{owner}.{f['name']} -> {target} "
                                   "(cycle_policy sever)")
    # W19 / R10: keep ONE canonical full home per multi-homed entity —
    # the marked canonical_home, else the inbound edge whose parent is
    # nearest the root (BFS depth incl. references; ties by model then
    # field declaration order); the rest flip to references.  The
    # same-parent all-single shape (seller/buyer) keeps every role full.
    depths_r10 = _edge_depths(spec, include_reference=True)
    model_index = {m["name"]: i for i, m in enumerate(spec.get("models", []))}
    for target in spec.get("models", []):
        if target.get("kind") != "entity":
            continue
        inbound_edges = []
        for p in spec.get("models", []):
            if p["name"] == target["name"]:
                continue  # self-reference: the cycle rung owns it
            for fi, f in enumerate(p.get("fields", [])):
                if (f.get("role") == "edge" and f.get("type") ==
                        target["name"] and not f.get("reference")):
                    inbound_edges.append((p, f, fi))
        if len(inbound_edges) < 2:
            continue
        parents = {p["name"] for p, _, _ in inbound_edges}
        if len(parents) == 1 and all(not f.get("is_list")
                                     for _, f, _ in inbound_edges):
            continue
        canonical = None
        home = target.get("canonical_home")
        if isinstance(home, str) and "." in home:
            hp, _, hf = home.partition(".")
            canonical = next((t for t in inbound_edges
                              if t[0]["name"] == hp and t[1]["name"] == hf),
                             None)
        if canonical is None:
            canonical = min(
                inbound_edges,
                key=lambda t: (depths_r10.get(t[0]["name"], float("inf")),
                               model_index[t[0]["name"]], t[2]))
            target["canonical_home"] = (f"{canonical[0]['name']}."
                                        f"{canonical[1]['name']}")
        for p, f, _fi in inbound_edges:
            if f is canonical[1]:
                continue
            f["reference"] = True
            actions.append(
                f"flipped {p['name']}.{f['name']} -> {target['name']} to a "
                f"reference edge (canonical home "
                f"{target['canonical_home']}, R10)")

    # W18 / R11: un-reference identity-less targets; flip off references
    # that are a rich target's only path
    inbound_r11 = _nonref_inbound(spec)
    for m, f in _nesting_items(spec):
        if not f.get("reference") or f.get("role") != "edge":
            continue
        target = models_by.get(f["type"])
        if target is None:
            continue
        if not target.get("identity"):
            f["reference"] = False
            f.pop("closed_catalog", None)
            inbound_r11[f["type"]] = inbound_r11.get(f["type"], 0) + 1
            actions.append(f"un-referenced {m['name']}.{f['name']} "
                           f"(target {f['type']} has no identity; marker "
                           "ignored at runtime)")
        elif (target.get("kind") != "root"
              and any(ff.get("role") != "identity"
                      for ff in target.get("fields", []))
              and inbound_r11.get(f["type"], 0) == 0):
            f["reference"] = False
            f.pop("closed_catalog", None)
            inbound_r11[f["type"]] = inbound_r11.get(f["type"], 0) + 1
            actions.append(f"flipped reference off on the only full path "
                           f"{m['name']}.{f['name']} -> {f['type']}")
    # W15 / R14: depth overflow flips to reference when safe (target has
    # identity and keeps another full home)
    depths = _edge_depths(spec)
    inbound = _nonref_inbound(spec)
    for m, f in _nesting_items(spec):
        if f.get("reference"):
            continue
        pd = depths.get(m["name"])
        if pd is None or pd < MAX_NESTING_DEPTH:
            continue
        target = models_by[f["type"]]
        if target.get("identity") and inbound.get(f["type"], 0) >= 2:
            f["reference"] = True
            if f.get("role") != "edge":
                f["role"] = "edge"
            if not f.get("edge_label"):
                f["edge_label"] = _derive_edge_label(f["name"], f["type"])
            inbound[f["type"]] -= 1
            actions.append(f"flipped depth-{pd + 1} nesting {m['name']}."
                           f"{f['name']} to a reference edge (R14)")
    # W17 / R23: attach unreachable-island heads to the root
    root_decl = models_by.get(spec.get("root"))
    if root_decl is not None:
        for _ in range(len(spec.get("models", []))):
            reach = set(_edge_depths(spec))
            unreachable = [m for m in spec.get("models", [])
                           if m.get("kind") == "entity"
                           and m["name"] not in reach]
            if not unreachable:
                break
            un_names = {m["name"] for m in unreachable}
            nested_inside = {
                f["type"] for m in unreachable
                for f in m.get("fields", [])
                if f.get("type") in un_names and not f.get("reference")
                and f.get("role") in ("edge", "property")
            }
            heads = [m for m in unreachable
                     if m["name"] not in nested_inside] or unreachable[:1]
            taken = {f["name"] for f in root_decl.get("fields", [])}
            for head in heads:
                fname = re.sub(r"(?<!^)(?=[A-Z])", "_",
                               head["name"]).lower()
                while fname in taken:
                    fname += "_"
                taken.add(fname)
                root_decl["fields"].append({
                    "name": fname, "type": head["name"], "is_list": True,
                    "optional": True, "role": "edge",
                    "edge_label": _derive_edge_label(fname, head["name"]),
                    "reference": False,
                    "description": f"Every {head['name']} the document "
                    "describes.",
                })
                actions.append(f"attached unreachable entity "
                               f"{head['name']} to the root as list edge "
                               f"{fname!r} (R23)")

    root_m = next((m for m in spec.get("models", [])
                   if m["name"] == spec.get("root")), None)
    if root_m is not None:
        model_kind = {m["name"]: m.get("kind") for m in spec.get("models", [])}
        enum_set = {e["name"] for e in spec.get("enums", [])}
        dedup = list(root_m.get("root_list_dedup", []))
        for f in root_m.get("fields", []):
            t = f.get("type")
            if (f.get("is_list") and f["name"] not in dedup
                    and f.get("role") != "edge"
                    and (t in SCALAR_TYPES or t in enum_set
                         or model_kind.get(t) == "component")):
                dedup.append(f["name"])
                actions.append(
                    f"scheduled first-wins dedup for identity-less root "
                    f"list {root_m['name']}.{f['name']}")
        if dedup:
            root_m["root_list_dedup"] = dedup
    return spec, actions


# ---------------------------------------------------------------------------
# deterministic renderer + verify gate


_SCALAR_PY = {"str": "str", "int": "int", "float": "float", "bool": "bool",
              "date": "date", "datetime": "datetime"}


def _assert_renderable(spec: dict) -> None:
    for e in spec.get("enums", []):
        if _is_bad_name(e["name"]):
            raise ValueError(f"unrenderable enum name {e['name']!r}")
    for m in spec.get("models", []):
        if _is_bad_name(m["name"]):
            raise ValueError(f"unrenderable model name {m['name']!r}")
        for f in m.get("fields", []):
            if _is_bad_name(f["name"]):
                raise ValueError(
                    f"unrenderable field name {m['name']}.{f['name']!r}")


def _enum_member_name(value: object, used: set[str]) -> str:
    base = sanitize_identifier(str(value)).upper() or "MEMBER"
    name, i = base, 2
    while name in used:
        name = f"{base}_{i}"
        i += 1
    used.add(name)
    return name


def _enum_validator(field: str, enum_name: str, is_list: bool) -> str:
    """``mode="before"`` delegation to the gate; the list variant
    normalizes every item so case/synonym variants in a list never raise
    (reference snippets.py:126-146)."""
    if is_list:
        return (
            f'    @field_validator("{field}", mode="before")\n'
            f"    @classmethod\n"
            f"    def _normalize_{field}(cls, v: Any) -> Any:\n"
            f'        """Map free-text list items onto {enum_name} '
            f'members (falls back to OTHER)."""\n'
            f"        if isinstance(v, list):\n"
            f"            return [_normalize_enum({enum_name}, item) "
            f"for item in v]\n"
            f"        return _normalize_enum({enum_name}, v)"
        )
    return (
        f'    @field_validator("{field}", mode="before")\n'
        f"    @classmethod\n"
        f"    def _normalize_{field}(cls, v: Any) -> Any:\n"
        f'        """Map free-text values onto {enum_name} members '
        f'(falls back to OTHER)."""\n'
        f"        return _normalize_enum({enum_name}, v)"
    )


def _normalizer_validator(field: str, norm: str) -> str:
    """Never-reject coercion gates (reference snippets.py:151-210
    semantics): currency symbols/casing → ISO-4217-shaped codes; numeric
    strings ('1 500,00', '$1,500.00') → float or None; bare/comma
    strings → list."""
    if norm == "currency":
        return (
            f'    @field_validator("{field}", mode="before")\n'
            f"    @classmethod\n"
            f"    def _normalize_{field}_currency(cls, v: Any) -> Any:\n"
            f'        """Normalize currency symbols/casing to ISO 4217 '
            f'codes; never rejects."""\n'
            f"        if not v:\n"
            f"            return v\n"
            "        symbol_map = {'\\u20ac': 'EUR', '$': 'USD', "
            "'\\u00a3': 'GBP', '\\u00a5': 'JPY'}\n"
            f"        v_str = str(v).strip()\n"
            f"        if v_str in symbol_map:\n"
            f"            return symbol_map[v_str]\n"
            f"        v_upper = v_str.upper()\n"
            f"        if len(v_upper) == 3 and v_upper.isalpha():\n"
            f"            return v_upper\n"
            f"        logger.warning('Currency %r does not match ISO 4217 "
            f"format; kept as %r', v, v_upper)\n"
            f"        return v_upper"
        )
    if norm == "numeric":
        return (
            f'    @field_validator("{field}", mode="before")\n'
            f"    @classmethod\n"
            f"    def _coerce_{field}_numeric(cls, v: Any) -> Any:\n"
            f'        """Coerce numeric strings to float; unparseable '
            f'values drop to None (never rejects)."""\n'
            f"        if not isinstance(v, str):\n"
            f"            return v\n"
            f"        cleaned = re.sub(r'[^\\d,.\\-]', '', v)\n"
            f"        if ',' in cleaned:\n"
            f"            if re.search(r',\\d\\d?$', cleaned):\n"
            f"                cleaned = cleaned.replace('.', '')"
            f".replace(',', '.')\n"
            f"            else:\n"
            f"                cleaned = cleaned.replace(',', '')\n"
            f"        try:\n"
            f"            return float(cleaned)\n"
            f"        except ValueError:\n"
            f"            logger.warning('Could not parse numeric value "
            f"%r; dropping it', v)\n"
            f"            return None"
        )
    # string_list
    return (
        f'    @field_validator("{field}", mode="before")\n'
        f"    @classmethod\n"
        f"    def _coerce_{field}_list(cls, v: Any) -> Any:\n"
        f'        """Accept bare or comma-separated strings as lists."""\n'
        f"        if isinstance(v, str):\n"
        f"            if ',' in v:\n"
        f"                return [p.strip() for p in v.split(',') "
        f"if p.strip()]\n"
        f"            return [v]\n"
        f"        if v is None:\n"
        f"            return []\n"
        f"        return v"
    )


def render_template(spec: dict) -> str:
    """Spec -> Python module source.  Pure function of the spec: stable
    ordering (enums alphabetical, models dependency-first with the root
    last), no timestamps — byte-identical re-renders, the reference's
    determinism discipline (renderer.py; merger.py:1-10 applied to
    codegen).

    Cyclic specs RENDER (r5; reference renderer.py forward-ref
    emission): a dependency back edge (self-reference or mutual
    nesting) becomes a quoted forward-ref annotation, and every class
    that used one gets a ``model_rebuild()`` call at module end — so
    org charts / part hierarchies compile without the linter's
    severance rung (which remains the default REPAIR policy; see
    ``cycle_policy``)."""
    _assert_renderable(spec)
    model_by_name = {m["name"]: m for m in spec.get("models", [])}

    # dependency-first model order (nested model types render before
    # use; a back edge into the active trail is deferred to a quoted
    # forward ref instead of refusing the spec)
    ordered: list[str] = []
    seen: set[str] = set()

    def visit(name: str, trail: tuple[str, ...] = ()) -> None:
        if name in seen or name not in model_by_name:
            return
        if name in trail:
            return  # cycle back edge: rendered as a forward ref
        for f in model_by_name[name].get("fields", []):
            if f["type"] in model_by_name:
                visit(f["type"], trail + (name,))
        seen.add(name)
        ordered.append(name)

    root = spec.get("root")
    for name in sorted(model_by_name):
        if name != root:
            visit(name)
    if root in model_by_name:
        visit(root)

    enums_by_name = {e["name"]: e for e in spec.get("enums", [])}
    has_enums = bool(enums_by_name)
    has_normalizers = any(
        (f.get("normalizer") or "none") != "none"
        for m in spec.get("models", []) for f in m.get("fields", [])
    )
    has_validators = has_enums or has_normalizers

    lines: list[str] = []
    emit = lines.append
    emit('"""' + (spec.get("docstring") or spec.get("name", "template")) +
         '\n\nGenerated by docling_graph_ray.templategen render_template '
         '(deterministic).\n"""')
    emit("")
    # no `from __future__ import annotations`: the rendered module is
    # exec'd in a scratch namespace, so annotations evaluate eagerly in
    # dependency-first order; ONLY cycle back edges are quoted forward
    # refs, resolved by the model_rebuild() calls at module end.
    if has_validators:
        emit("import logging")
        emit("import re")
    emit("from datetime import date, datetime")
    emit("from enum import Enum")
    if has_enums:
        emit("from typing import Any, List, Optional, Type")
    else:
        emit("from typing import Any, List, Optional")
    emit("")
    if has_validators:
        emit("from pydantic import BaseModel, ConfigDict, Field, "
             "field_validator")
    else:
        emit("from pydantic import BaseModel, ConfigDict, Field")
    if has_validators:
        emit("")
        emit("logger = logging.getLogger(__name__)")
    emit("")
    emit("")
    emit("def edge(label: str, default: Any = None, *, reference: bool = "
         "False, closed_catalog: bool = False, **kwargs: Any) -> Any:")
    emit('    """Mark a field as a graph edge (json_schema_extra markers '
         'read by the graph converter)."""')
    emit("    extra = {'edge_label': label}")
    emit("    if reference:")
    emit("        extra['graph_reference'] = True")
    emit("    if closed_catalog:")
    emit("        extra['reference_closed_catalog'] = True")
    emit("    if 'default_factory' in kwargs:")
    emit("        return Field(json_schema_extra=extra, **kwargs)")
    emit("    return Field(default, json_schema_extra=extra, **kwargs)")

    if has_enums:
        # the enum normalizer gate (reference snippets.py:101-122,
        # NORMALIZE_ENUM_HELPER semantics re-derived): accept enum
        # instances, member names or value strings in any casing /
        # punctuation; unmapped values fall back to OTHER instead of
        # rejecting — the never-raise law of the salvage ladder applied
        # to codegen
        emit("")
        emit("")
        emit("def _normalize_enum(enum_cls: Type[Enum], v: Any) -> Any:")
        emit('    """Map free-text values onto enum members; fall back '
             'to OTHER (never raises)."""')
        emit("    if isinstance(v, enum_cls):")
        emit("        return v")
        emit("    if isinstance(v, str):")
        emit("        key = re.sub(r'[^A-Za-z0-9]+', '', v).lower()")
        emit("        mapping = {}")
        emit("        for member in enum_cls:")
        emit("            mapping[re.sub(r'[^A-Za-z0-9]+', '', "
             "member.name).lower()] = member")
        emit("            mapping[re.sub(r'[^A-Za-z0-9]+', '', "
             "str(member.value)).lower()] = member")
        emit("        if key in mapping:")
        emit("            return mapping[key]")
        emit("    if 'OTHER' in enum_cls.__members__:")
        emit("        logger.warning('Unmapped enum value %r for %s; "
             "falling back to OTHER', v, enum_cls.__name__)")
        emit("        return enum_cls.OTHER")
        emit("    return v")

    for e in sorted(spec.get("enums", []), key=lambda e: e["name"]):
        emit("")
        emit("")
        emit(f"class {e['name']}(str, Enum):")
        used: set[str] = set()
        for member in e["members"]:
            emit(f"    {_enum_member_name(member, used)} = "
                 f"{json.dumps(str(member), ensure_ascii=False)}")
        if e.get("include_other", True) and "OTHER" not in used:
            emit('    OTHER = "OTHER"')

    emitted: set[str] = set()
    needs_rebuild: list[str] = []
    for name in ordered:
        m = model_by_name[name]
        emit("")
        emit("")
        emit(f"class {m['name']}(BaseModel):")
        if m.get("docstring"):
            emit(f'    """{m["docstring"]}"""')
        emit("")
        cfg = [f"is_entity={m.get('kind') != 'component'}"]
        if m.get("identity"):
            cfg.append(f"graph_id_fields={m['identity']!r}")
        if m.get("max_instances"):
            # per-class cardinality bound consumed by the grouped top-K
            # demotion (reference marker graph_max_instances,
            # graph_converter.py:360-429 / stages/graph.py:cardinality_bound)
            cfg.append(f"graph_max_instances={int(m['max_instances'])}")
        if m.get("root_list_dedup"):
            # identity-less root lists: first-wins dedup scheduled by the
            # linter's R19 analogue (reference needs_root_list_dedup)
            cfg.append(
                f"graph_root_list_dedup={sorted(m['root_list_dedup'])!r}")
        emit(f"    model_config = ConfigDict({', '.join(cfg)})")
        emit("")
        validators: list[str] = []
        has_forward_ref = False
        for f in m.get("fields", []):
            py = _SCALAR_PY.get(f["type"], f["type"])
            if f["type"] in model_by_name and f["type"] not in emitted:
                # cycle back edge (incl. self-reference): the target
                # class is not defined yet — quote the annotation and
                # schedule a model_rebuild for this class
                py = f'"{py}"'
                has_forward_ref = True
            ann = f"List[{py}]" if f["is_list"] else py
            optional = f.get("optional", True)
            enum_decl = enums_by_name.get(f["type"])
            enum_other = bool(enum_decl and enum_decl.get("include_other",
                                                          True))
            if optional and not f["is_list"] and not enum_other:
                ann = f"Optional[{ann}]"
            if f["is_list"]:
                default = "Field(default_factory=list)"
            elif enum_other and f.get("role") != "edge":
                # enum fields with the OTHER safety net default to OTHER,
                # not None (reference renderer.py:497-505): absent or
                # unmapped values both land on the safety member
                default = f"{f['type']}.OTHER"
            else:
                default = "None" if optional else None  # required: no default
            if f.get("role") == "edge":
                label = json.dumps(str(f["edge_label"]))
                # edge() wraps the default; list edges pass the factory kwarg
                if f["is_list"]:
                    default = (f"edge({label}, "
                               "default_factory=list"
                               + (", reference=True" if f.get("reference")
                                  else "") + ")")
                else:
                    default = (f"edge({label}"
                               + (", reference=True" if f.get("reference")
                                  else "") + ")")
                if f.get("closed_catalog"):
                    default = default[:-1] + ", closed_catalog=True)"
            line = f"    {f['name']}: {ann}"
            if default is not None:
                line += f" = {default}"
            desc = str(f.get("description") or "")
            if enum_decl and enum_decl.get("synonyms"):
                # synonyms ride the field description (reference
                # renderer.py _effective_description): prose for the
                # extractor, while the gate maps names/values
                mappings = "; ".join(
                    f"'{syn}' -> '{member}'"
                    for member in enum_decl["members"]
                    for syn in enum_decl["synonyms"].get(str(member), [])
                )
                if mappings:
                    desc = f"{desc} Synonyms: map {mappings}.".strip()
            if desc:
                line += f"  # {' '.join(desc.split())}"
            emit(line)
            # per-field normalizer gates (reference snippets.py:126-210
            # templates re-derived; emission order matches the field list)
            if enum_decl:
                validators.append(_enum_validator(f["name"], f["type"],
                                                  f["is_list"]))
            norm = f.get("normalizer") or "none"
            if norm != "none":
                validators.append(_normalizer_validator(f["name"], norm))
        for block in validators:
            emit("")
            for vline in block.splitlines():
                emit(vline)
        if not m.get("fields"):
            emit("    pass")
        emitted.add(name)
        if has_forward_ref:
            needs_rebuild.append(m["name"])
    if needs_rebuild:
        emit("")
        emit("")
        emit("# resolve cycle forward refs (classes above reference "
             "classes below)")
        for nm in needs_rebuild:
            emit(f"{nm}.model_rebuild()")
    emit("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# reverse flow: live template class → spec dict
# (reference templategen/reverse.py:1-590 — existing/hand-written
# templates walk back into a loose spec so the full rulebook judges
# them; deliberately LENIENT: unrepresentable constructs become
# findings, never crashes)


_SCALAR_BY_TYPE = {str: "str", int: "int", float: "float", bool: "bool"}


def _unwrap_annotation(annotation, resolve=None) -> tuple[object, bool, list[str]]:
    """Peel Optional/List/Union/Annotated layers (reverse.py:123-165):
    returns (core type, is_list, notes about unrepresentable layers).
    ``resolve`` maps a forward-ref NAME to its class — cyclic templates
    keep ``ForwardRef('X')`` in ``FieldInfo.annotation`` even after
    ``model_rebuild()`` resolves the validation core, so the reverse
    walk must resolve the name itself (r5 forward-ref round-trip)."""
    import types
    import typing

    is_list = False
    notes: list[str] = []
    current = annotation
    for _ in range(16):
        ref_name = None
        if isinstance(current, typing.ForwardRef):
            ref_name = current.__forward_arg__
        elif isinstance(current, str):
            ref_name = current
        if ref_name is not None:
            target = resolve(ref_name) if resolve else None
            if target is None:
                notes.append(f"unresolved forward ref {ref_name!r} — "
                             "carried as 'str'")
                return (str, is_list, notes)
            current = target
            continue
        origin = typing.get_origin(current)
        if origin is not None and str(origin).endswith("Annotated"):
            current = typing.get_args(current)[0]
        elif origin is typing.Union or origin is types.UnionType:
            args = [a for a in typing.get_args(current)
                    if a is not type(None)]
            if not args:
                notes.append("annotation is None-only")
                return (type(None), is_list, notes)
            if len(args) > 1:
                from pydantic import BaseModel
                model_args = [a for a in args if isinstance(a, type)
                              and issubclass(a, BaseModel)]
                chosen = model_args[0] if model_args else args[0]
                notes.append("multi-type union collapsed to "
                             f"'{getattr(chosen, '__name__', chosen)}'")
                current = chosen
            else:
                current = args[0]
        elif origin in (list, set, tuple, frozenset):
            if origin is not list:
                notes.append(f"'{origin.__name__}' container treated as a "
                             "list")
            if is_list:
                notes.append("nested list-of-list flattened to one list")
            is_list = True
            item_args = typing.get_args(current)
            if not item_args:
                return (str, is_list, notes)
            current = item_args[0]
        else:
            return (current, is_list, notes)
    notes.append("annotation nesting too deep to unwrap")
    return (current, is_list, notes)


def _extra_marker(field_info, key: str):
    extra = getattr(field_info, "json_schema_extra", None)
    if isinstance(extra, dict):
        return extra.get(key)
    return None


def reverse_spec(template) -> tuple[dict, list[str]]:
    """Walk a live root template class back into a spec dict
    (reference reverse.py reverse_draft): model_config reads mirror the
    converter's (``is_entity``, ``graph_id_fields``,
    ``graph_max_instances`` — emitted as the DOCUMENTED ``raw // 2``
    since live templates store the doubled bound and ``repair_spec``
    doubles exactly once — ``graph_root_list_dedup``);
    ``json_schema_extra`` markers exactly as the graph converter reads
    them.  Descriptions render as comments in this engine's codegen, so
    they are recovered only when present in ``FieldInfo.description``.
    Returns ``(spec, findings)``; findings name every construct the
    spec cannot represent."""
    from datetime import date, datetime
    from enum import Enum

    from pydantic import BaseModel

    findings: list[str] = []
    models: list[dict] = []
    enums: dict[int, dict] = {}
    names: dict[int, str] = {}
    taken: set[str] = set()
    queue: list[type] = []
    seen: set[int] = set()

    scalar_by_type = dict(_SCALAR_BY_TYPE)
    scalar_by_type[date] = "date"
    scalar_by_type[datetime] = "datetime"

    class_by_name: dict[str, type] = {}

    def assign_name(cls: type) -> str:
        key = id(cls)
        if key in names:
            return names[key]
        base = name = cls.__name__
        i = 2
        while name in taken:
            name = f"{base}_{i}"
            i += 1
        if name != base:
            findings.append(f"{base}: duplicate class name — renamed to "
                            f"{name!r}")
        names[key] = name
        taken.add(name)
        # forward refs are resolved by SOURCE name (what the quoted
        # annotation says), first binding wins
        class_by_name.setdefault(base, cls)
        class_by_name.setdefault(name, cls)
        return name

    def enqueue(cls: type) -> str:
        nm = assign_name(cls)
        if id(cls) not in seen:
            seen.add(id(cls))
            queue.append(cls)
        return nm

    def register_enum(cls: type) -> str:
        key = id(cls)
        if key in enums:
            return enums[key]["name"]
        nm = assign_name(cls)
        members, include_other = [], False
        for member in cls:
            if member.name == "OTHER":
                include_other = True
                continue
            if not isinstance(member.value, str):
                findings.append(
                    f"{nm}: enum member {member.name!r} has a non-string "
                    f"value {member.value!r} — stringified")
            members.append(str(member.value))
        enums[key] = {"name": nm, "members": members,
                      "include_other": include_other}
        return nm

    def cfg(cls: type, key: str, default):
        config = getattr(cls, "model_config", {}) or {}
        get = getattr(config, "get", None)
        return get(key, default) if callable(get) else default

    def reverse_field(model_name: str, fname: str, fi,
                      identity: list[str], resolve=None) -> dict:
        where = f"{model_name}.{fname}"
        core, is_list, notes = _unwrap_annotation(fi.annotation, resolve)
        findings.extend(f"{where}: {n}" for n in notes)
        if isinstance(core, type) and issubclass(core, BaseModel):
            type_name = enqueue(core)
            is_model = True
        elif isinstance(core, type) and issubclass(core, Enum):
            type_name = register_enum(core)
            is_model = False
        elif isinstance(core, type) and core in scalar_by_type:
            type_name = scalar_by_type[core]
            is_model = False
        else:
            shown = getattr(core, "__name__", None) or str(core)
            findings.append(f"{where}: unknown scalar type {shown!r} — "
                            "carried as 'str'")
            type_name = "str"
            is_model = False

        extra = getattr(fi, "json_schema_extra", None)
        if extra is not None and not isinstance(extra, dict):
            findings.append(f"{where}: json_schema_extra is not a mapping "
                            "(callable?) — edge markers unreadable")
        label = _extra_marker(fi, "edge_label")
        edge_label = label if isinstance(label, str) and label else None
        reference = _extra_marker(fi, "graph_reference") is True
        closed = bool(_extra_marker(fi, "reference_closed_catalog"))

        if fname in identity:
            role = "identity"
            if edge_label or reference or closed:
                findings.append(f"{where}: identity field carries edge "
                                "markers — repair clears them")
        elif edge_label is not None:
            role = "edge"
        else:
            role = "property"
            if is_model:
                findings.append(f"{where}: model-typed field without "
                                "edge() metadata — the converter falls "
                                "back to the field name as edge label")
            if reference or closed:
                findings.append(f"{where}: reference markers without an "
                                "edge_label")
        if fi.is_required() and role != "identity":
            findings.append(f"{where}: required non-identity field — the "
                            "renderer emits non-identity fields "
                            "Optional/defaulted")
        examples = [str(e) for e in (getattr(fi, "examples", None) or [])]
        if len(examples) > MAX_FIELD_EXAMPLES:
            findings.append(f"{where}: {len(examples)} examples truncated "
                            f"to {MAX_FIELD_EXAMPLES}")
            examples = examples[:MAX_FIELD_EXAMPLES]
        field = {
            "name": fname, "type": type_name, "is_list": is_list,
            "optional": not fi.is_required(),
            "description": getattr(fi, "description", None) or "",
            "examples": examples, "role": role,
            "edge_label": edge_label, "reference": reference,
        }
        if closed:
            field["closed_catalog"] = True
        return field

    root_name = enqueue(template)
    while queue:
        cls = queue.pop(0)
        nm = assign_name(cls)
        is_entity = cfg(cls, "is_entity", True)
        kind = ("root" if cls is template
                else ("component" if is_entity is False else "entity"))
        raw_ids = cfg(cls, "graph_id_fields", [])
        if not isinstance(raw_ids, (list, tuple)):
            findings.append(f"{nm}: graph_id_fields is not a list "
                            f"({raw_ids!r}) — ignored")
            raw_ids = []
        identity = []
        for idn in raw_ids:
            if not isinstance(idn, str):
                findings.append(f"{nm}: non-string graph_id_fields entry "
                                f"{idn!r} — dropped")
            elif idn not in cls.model_fields:
                findings.append(f"{nm}: graph_id_fields names undeclared "
                                f"field {idn!r} — dropped")
            elif idn not in identity:
                identity.append(idn)
        if kind == "component" and identity:
            findings.append(f"{nm}: is_entity=False with graph_id_fields "
                            "— repair clears it")
        if kind == "entity" and not identity:
            findings.append(f"{nm}: no graph_id_fields and not "
                            "is_entity=False — repair demotes to "
                            "component (never invent ids)")
        import sys as _sys

        _mod = _sys.modules.get(getattr(cls, "__module__", ""), None)
        _modns = vars(_mod) if _mod is not None else {}

        def _resolve(ref_name: str, _ns=_modns):
            target = class_by_name.get(ref_name) or _ns.get(ref_name)
            return target if isinstance(target, type) else None

        model = {
            "name": nm, "kind": kind,
            "docstring": " ".join((cls.__doc__ or "").split()),
            "identity": identity,
            "fields": [reverse_field(nm, fn, fi, identity, _resolve)
                       for fn, fi in cls.model_fields.items()],
        }
        if not model["docstring"]:
            findings.append(f"{nm}: class has no docstring")
        raw_mi = cfg(cls, "graph_max_instances", None)
        if raw_mi is not None:
            if (not isinstance(raw_mi, int) or isinstance(raw_mi, bool)
                    or raw_mi < 1):
                findings.append(f"{nm}: graph_max_instances={raw_mi!r} is "
                                "not a positive int — ignored")
            else:
                documented = max(1, raw_mi // 2)
                if documented * 2 != raw_mi:
                    findings.append(
                        f"{nm}: graph_max_instances={raw_mi} is not an "
                        f"even 2x bound — draft carries the documented "
                        f"{documented} (re-renders as {documented * 2})")
                model["max_instances"] = documented
        dedup = cfg(cls, "graph_root_list_dedup", None)
        if isinstance(dedup, (list, tuple)) and dedup:
            model["root_list_dedup"] = [str(d) for d in dedup]
        models.append(model)

    spec = {
        "name": f"{root_name.lower()}_template",
        "docstring": " ".join((template.__doc__ or root_name).split()),
        "root": root_name,
        "enums": sorted(enums.values(), key=lambda e: e["name"]),
        "models": models,
    }
    # a live template that ALREADY nests cyclically is the author's
    # retention choice (it compiled — forward refs resolved): record it
    # so repair_spec keeps the cycle instead of severing (r5)
    nest: dict[str, set[str]] = {}
    model_names = {m["name"] for m in models}
    for m in models:
        nest[m["name"]] = {f["type"] for f in m["fields"]
                           if f["type"] in model_names
                           and not f.get("reference")}

    def _in_cycle(start: str) -> bool:
        stack, seen_c = [(start, iter(nest.get(start, ())))], {start}
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                continue
            if nxt == start:
                return True
            if nxt not in seen_c:
                seen_c.add(nxt)
                stack.append((nxt, iter(nest.get(nxt, ()))))
        return False

    if any(_in_cycle(n) for n in nest):
        spec["cycle_policy"] = "forward_ref"
        findings.append("cyclic nesting detected — retained "
                        "(cycle_policy: forward_ref; the live template "
                        "compiled with forward refs)")
    return spec, findings


def spec_from_template(template) -> tuple[dict, list[str]]:
    """Reverse + repair in one step (reference reverse.py
    spec_from_template): the repair actions ARE the lint verdict for an
    existing template — each states what the rulebook would change."""
    draft, findings = reverse_spec(template)
    repaired, actions = repair_spec(draft)
    return repaired, findings + actions


# ---------------------------------------------------------------------------
# empirical template evaluation (reference templategen/evaluate.py:1-560:
# "static validity is not extraction quality" — trial-run the template
# against real records and report the signals the converter emits for
# free: per-class field fill-rates, enum-OTHER rates (the members don't
# match the data), identity coverage, grounding precision of extracted
# strings against source text).  Ray shape: per-batch count partials →
# one tiny groupby — the report never collects records on the driver.


EVAL_SCHEMA = pa.schema([
    ("cls", pa.string()),
    ("field", pa.string()),
    ("n", pa.int64()),
    ("n_filled", pa.int64()),
    ("n_other", pa.int64()),        # enum fields: OTHER fallbacks
    ("n_string_vals", pa.int64()),
    ("n_grounded", pa.int64()),     # string values found in source text
])


def _walk_instance(inst, cls_name: str, counts: dict, text_norm: str | None):
    """Count fill/OTHER/grounding for one validated instance; recurse
    into nested models and model lists (each class tallies its own
    rows, mirroring the reference's per-class fill-rate table)."""
    from enum import Enum

    from pydantic import BaseModel

    for fname in type(inst).model_fields:
        key = (cls_name, fname)
        acc = counts.setdefault(key, [0, 0, 0, 0, 0])
        acc[0] += 1
        value = getattr(inst, fname, None)
        items = value if isinstance(value, list) else [value]
        filled = _is_filled(value if not isinstance(value, Enum)
                            else value.value)
        if isinstance(value, Enum):
            filled = value.name != "OTHER"
        if filled:
            acc[1] += 1
        for item in items:
            if isinstance(item, Enum):
                if item.name == "OTHER":
                    acc[2] += 1
            elif isinstance(item, BaseModel):
                _walk_instance(item, type(item).__name__, counts, text_norm)
            elif isinstance(item, str) and item.strip():
                acc[3] += 1
                if text_norm is not None and \
                        " ".join(item.split()) in text_norm:
                    acc[4] += 1


def evaluate_template(template, records, *, json_col: str = "record",
                      text_col: str | None = None):
    """Trial-run ``template`` over a Dataset of JSON record rows and
    return the empirical report as a tiny Dataset of EVAL_SCHEMA rows
    (plus one ``(cls='', field='__records__')`` row counting validated
    vs failed records).  Fill-rate = n_filled/n; OTHER-rate =
    n_other/n; grounding precision = n_grounded/n_string_vals (only
    when ``text_col`` carries the source text).  Advisory only — no
    gates (reference evaluate.py contract)."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], list[int]] = {}
        n_ok = n_fail = 0
        texts = (batch.column(text_col).to_pylist()
                 if text_col and text_col in batch.schema.names
                 else [None] * batch.num_rows)
        for raw, text in zip(batch.column(json_col).to_pylist(), texts):
            try:
                rec = json.loads(raw) if isinstance(raw, str) else raw
                inst = template.model_validate(rec or {})
            except Exception:
                n_fail += 1
                continue
            n_ok += 1
            text_norm = (" ".join(str(text).split())
                         if text is not None else None)
            _walk_instance(inst, template.__name__, counts, text_norm)
        rows = [{"cls": c, "field": f, "n": a[0], "n_filled": a[1],
                 "n_other": a[2], "n_string_vals": a[3], "n_grounded": a[4]}
                for (c, f), a in sorted(counts.items())]
        rows.append({"cls": "", "field": "__records__",
                     "n": n_ok + n_fail, "n_filled": n_ok, "n_other": 0,
                     "n_string_vals": 0, "n_grounded": 0})
        return pa.Table.from_pylist(rows, schema=EVAL_SCHEMA)

    partials = records.map_batches(partial, batch_format="pyarrow")
    summed = partials.groupby(["cls", "field"]).sum(
        ["n", "n_filled", "n_other", "n_string_vals", "n_grounded"])
    return summed.map_batches(
        lambda t: t.rename_columns(
            ["cls", "field", "n", "n_filled", "n_other",
             "n_string_vals", "n_grounded"]).cast(EVAL_SCHEMA),
        batch_format="pyarrow",
    )


#: module roots a template module may import (reference verify.py:57-63
#: gate V1b) — templates are declarative; anything else fails BEFORE exec
ALLOWED_IMPORT_ROOTS = frozenset(
    {"typing", "typing_extensions", "pydantic", "datetime", "enum", "re",
     "logging"})
FORBIDDEN_NAMES = frozenset({"exec", "eval", "open", "__import__",
                             "compile"})


def check_template_imports(source: str) -> list[str]:
    """Import allowlist + forbidden-builtin scan (reference verify.py
    _check_v1b_imports): linting/verifying EXECUTES the module, so the
    AST gate runs first and names every violation."""
    tree = ast.parse(source)
    violations: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] not in ALLOWED_IMPORT_ROOTS:
                    violations.append(
                        f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                violations.append(f"line {node.lineno}: relative import")
                continue
            if (node.module or "").split(".")[0] not in ALLOWED_IMPORT_ROOTS:
                violations.append(
                    f"line {node.lineno}: from {node.module} import ...")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            violations.append(f"line {node.lineno}: use of {node.id!r}")
    return violations


def verify_template_source(source: str, *,
                           check_imports: bool = False) -> dict[str, type]:
    """Parse + execute the rendered source in a scratch namespace and
    return its BaseModel classes — the accept gate
    (templategen/verify.py): a render that cannot execute, or that
    lost a class, never reaches the user.  ``check_imports=True`` runs
    the V1b allowlist first — REQUIRED when the source is user-supplied
    (the lint CLI), optional for our own renderer's output (which only
    ever emits allowlisted imports)."""
    ast.parse(source)  # clear SyntaxError before exec
    if check_imports:
        violations = check_template_imports(source)
        if violations:
            raise ValueError(
                "template module fails the import allowlist (V1b): "
                + "; ".join(violations))
    namespace: dict = {}
    # dont_inherit: compile() otherwise inherits THIS module's
    # `from __future__ import annotations`, turning the rendered
    # module's eager annotations into unresolvable lazy strings.
    exec(compile(source, "<rendered-template>", "exec", dont_inherit=True),
         namespace)
    from enum import Enum

    from pydantic import BaseModel

    return {
        name: obj for name, obj in namespace.items()
        if isinstance(obj, type)
        and ((issubclass(obj, BaseModel) and obj is not BaseModel)
             or (issubclass(obj, Enum) and obj is not Enum))
    }
