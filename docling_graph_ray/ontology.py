"""Ontology → template-spec compilers: JSON Schema, LinkML YAML, OWL/TTL.

Deterministic, LLM-free compilation of published schema formats into the
templategen spec dict, rendered through the existing deterministic
renderer + exec-verify gate (``templategen.render_template`` /
``verify_template_source``).  Reference analogue:
docling_graph/templategen/ontology/{jsonschema,linkml,owl}.py (≈2.6k
LoC); this module ports the core translation SEMANTICS:

- **JSON Schema** (jsonschema.py): object walk with ``$defs``/``$ref``
  resolution, ``allOf`` merge, ``oneOf``-of-consts → enum, inline nested
  objects lifted to component models, ``required`` → non-optional,
  ``format: date/date-time`` → date/datetime, identity from id-ish
  required scalars.
- **LinkML** (linkml.py): ``classes``/``slots`` with ``is_a``
  flattening (abstract parents are mixed in, not emitted),
  ``tree_root`` → spec root, ``identifier: true`` → identity,
  ``multivalued``/``required`` → list/optional, ``enums``
  permissible_values, class-valued ranges → edges.
- **OWL/RDFS/SKOS Turtle** (owl.py): a minimal Turtle reader (prefixes,
  ``;``/``,`` continuations, blank-node restriction lists), owl:Class →
  model, Datatype/ObjectProperty with rdfs:domain/range → fields/edges,
  Functional/maxCardinality-1 → single-valued,
  InverseFunctional/hasKey → identity, rdfs:comment/skos:example →
  docs/examples, rdfs:subClassOf named class → inherited slots,
  skos:Concept schemes → enums.  Root = a class that is never an
  object-property range (most fields wins, then alphabetical).

Unsupported constructs degrade to the closest renderable shape rather
than failing (the compilers are front-ends to the same lint/repair
pipeline data-induced specs use).
"""

from __future__ import annotations

import json
import re

from docling_graph_ray.templategen import _pascal, sanitize_identifier

_ID_FIELD_RE = re.compile(
    r"(^id$|_id$|_number$|^number$|^isbn$|_code$|^code$|^sku$|^key$)",
    re.IGNORECASE)
_NAMEISH = frozenset(("name", "title", "label", "nom"))


def _mk_field(name: str, ftype: str, *, is_list: bool = False,
              optional: bool = True, description: str = "",
              examples: list | None = None, role: str = "property",
              edge_label: str | None = None, reference: bool = False) -> dict:
    return {
        "name": sanitize_identifier(name), "type": ftype, "is_list": is_list,
        "optional": optional, "description": description,
        "examples": [str(e) for e in (examples or [])][:3],
        "role": role, "edge_label": edge_label, "reference": reference,
    }


def _pick_identity(fields: list[dict]) -> list[str]:
    """Identity heuristic shared by all three compilers: explicit id-ish
    scalar first, then name-like, required before optional."""
    ranked: list[tuple[int, str]] = []
    for f in fields:
        if f["is_list"] or f["type"] not in ("str", "int"):
            continue
        bonus = 0 if not f["optional"] else 1
        if _ID_FIELD_RE.search(f["name"]):
            ranked.append((0 + bonus, f["name"]))
        elif f["name"].lower() in _NAMEISH:
            ranked.append((2 + bonus, f["name"]))
    ranked.sort()
    return [ranked[0][1]] if ranked else []


def _finish_models(models: list[dict], root: str) -> None:
    for m in models:
        if not m["identity"]:
            m["identity"] = _pick_identity(m["fields"])
        for f in m["fields"]:
            if f["name"] in m["identity"]:
                f["role"] = "identity"
        m["kind"] = ("root" if m["name"] == root
                     else ("entity" if m["identity"] else "component"))


# ===========================================================================
# JSON Schema


_JS_SCALARS = {"string": "str", "integer": "int", "number": "float",
               "boolean": "bool"}


def spec_from_json_schema(schema: dict, *, name: str | None = None) -> dict:
    """JSON Schema (draft 2020-ish subset) → templategen spec."""
    defs = dict(schema.get("$defs") or schema.get("definitions") or {})
    root_name = _pascal(schema.get("title") or name or "Root")

    enums: list[dict] = []
    models: dict[str, dict] = {}

    def resolve_ref(ref: str) -> tuple[str, dict]:
        key = ref.split("/")[-1]
        return key, defs.get(key, {})

    def merge_allof(node: dict) -> dict:
        if "allOf" not in node:
            return node
        merged: dict = {k: v for k, v in node.items() if k != "allOf"}
        props: dict = dict(merged.get("properties") or {})
        req: list = list(merged.get("required") or [])
        for sub in node["allOf"]:
            if "$ref" in sub:
                _, sub = resolve_ref(sub["$ref"])
            sub = merge_allof(sub)
            props.update(sub.get("properties") or {})
            req += [r for r in (sub.get("required") or []) if r not in req]
            for k in ("title", "description"):
                merged.setdefault(k, sub.get(k)) if sub.get(k) else None
        merged["properties"] = props
        merged["required"] = req
        merged.setdefault("type", "object")
        return merged

    def oneof_enum_members(node: dict) -> list | None:
        subs = node.get("oneOf")
        if not isinstance(subs, list) or not subs:
            return None
        members = []
        for s in subs:
            if isinstance(s, dict) and "const" in s:
                members.append(s["const"])
            elif isinstance(s, dict) and isinstance(s.get("enum"), list):
                members += s["enum"]
            else:
                return None
        return members

    def compile_object(obj_name: str, node: dict) -> str:
        node = merge_allof(node)
        cls = _pascal(obj_name)
        if cls in models:
            return cls
        model = {"name": cls, "kind": "component",
                 "docstring": str(node.get("description") or ""),
                 "identity": [], "fields": []}
        models[cls] = model  # pre-register: cycles hit the name, not ∞
        required = set(node.get("required") or [])
        for fname, fnode in sorted((node.get("properties") or {}).items()):
            model["fields"].append(
                compile_field(cls, fname, fnode, fname in required))
        return cls

    def compile_field(cls: str, fname: str, fnode: dict, req: bool) -> dict:
        desc = str(fnode.get("description") or "")
        examples = fnode.get("examples") or []
        optional = not req
        if "$ref" in fnode:
            key, target = resolve_ref(fnode["$ref"])
            child = compile_object(key, target)
            return _mk_field(fname, child, optional=optional,
                             description=desc, role="edge",
                             edge_label=fname.upper())
        members = (fnode.get("enum") if isinstance(fnode.get("enum"), list)
                   else oneof_enum_members(fnode))
        if members:
            ename = _pascal(cls) + _pascal(fname)
            enums.append({"name": ename,
                          "members": [str(m) for m in members],
                          "include_other": True})
            return _mk_field(fname, ename, optional=optional,
                             description=desc, examples=examples)
        jtype = fnode.get("type")
        if jtype == "array":
            items = fnode.get("items") or {}
            if "$ref" in items:
                key, target = resolve_ref(items["$ref"])
                child = compile_object(key, target)
                return _mk_field(fname, child, is_list=True,
                                 description=desc, role="edge",
                                 edge_label=fname.upper())
            if items.get("type") == "object":
                child = compile_object(fname, items)
                return _mk_field(fname, child, is_list=True,
                                 description=desc, role="edge",
                                 edge_label=fname.upper())
            itype = _JS_SCALARS.get(items.get("type"), "str")
            return _mk_field(fname, itype, is_list=True, description=desc,
                             examples=examples)
        if jtype == "object":
            child = compile_object(fname, fnode)
            return _mk_field(fname, child, optional=optional,
                             description=desc, role="edge",
                             edge_label=fname.upper())
        if jtype == "string":
            fmt = fnode.get("format")
            ftype = {"date": "date", "date-time": "datetime"}.get(fmt, "str")
        else:
            ftype = _JS_SCALARS.get(jtype, "str")
        return _mk_field(fname, ftype, optional=optional, description=desc,
                         examples=examples)

    compile_object(root_name, schema)
    model_list = list(models.values())
    _finish_models(model_list, root_name)
    return {
        "name": sanitize_identifier(name or schema.get("title") or "schema"),
        "docstring": str(schema.get("description")
                         or f"Compiled from JSON Schema {root_name}."),
        "root": root_name, "enums": enums, "models": model_list,
    }


# ===========================================================================
# LinkML


_LINKML_SCALARS = {
    "string": "str", "str": "str", "integer": "int", "int": "int",
    "float": "float", "double": "float", "decimal": "float",
    "boolean": "bool", "bool": "bool", "date": "date",
    "datetime": "datetime", "time": "str", "uri": "str", "uriorcurie": "str",
}


def spec_from_linkml(yaml_text: str, *, name: str | None = None) -> dict:
    """LinkML YAML schema → templategen spec."""
    import yaml

    doc = yaml.safe_load(yaml_text) or {}
    classes: dict = doc.get("classes") or {}
    slots: dict = doc.get("slots") or {}
    enum_defs: dict = doc.get("enums") or {}
    default_range = str(doc.get("default_range") or "string")

    enums: list[dict] = []
    enum_names: dict[str, str] = {}
    for ename, e in sorted(enum_defs.items()):
        pv = (e or {}).get("permissible_values") or {}
        spec_name = _pascal(ename)
        enums.append({"name": spec_name,
                      "members": [str(k) for k in pv],
                      "include_other": True})
        enum_names[ename] = spec_name

    class_names = {c: _pascal(c) for c in classes}

    def gather_slots(cname: str, seen: tuple = ()) -> list[str]:
        """is_a flattening: parent slots first (subclass_flatten)."""
        if cname in seen or cname not in classes:
            return []
        node = classes[cname] or {}
        parent = node.get("is_a")
        out = gather_slots(parent, seen + (cname,)) if parent else []
        for s in node.get("slots") or []:
            if s not in out:
                out.append(s)
        return out

    def slot_field(cname: str, sname: str) -> dict:
        node = dict(slots.get(sname) or {})
        usage = ((classes.get(cname) or {}).get("slot_usage") or {}).get(
            sname) or {}
        node.update(usage)
        rng = str(node.get("range") or default_range)
        is_list = bool(node.get("multivalued"))
        optional = not bool(node.get("required") or node.get("identifier"))
        desc = str(node.get("description") or "")
        if rng in class_names:
            return _mk_field(sname, class_names[rng], is_list=is_list,
                             optional=optional, description=desc,
                             role="edge", edge_label=sname.upper())
        if rng in enum_names:
            return _mk_field(sname, enum_names[rng], is_list=is_list,
                             optional=optional, description=desc)
        return _mk_field(sname, _LINKML_SCALARS.get(rng, "str"),
                         is_list=is_list, optional=optional,
                         description=desc)

    root = None
    models: list[dict] = []
    for cname, node in sorted(classes.items()):
        node = node or {}
        if node.get("abstract"):
            continue  # mixed into children, not emitted
        cls = class_names[cname]
        if node.get("tree_root"):
            root = cls
        fields = [slot_field(cname, s) for s in gather_slots(cname)]
        identity = [f["name"] for s in gather_slots(cname)
                    for f in [slot_field(cname, s)]
                    if (slots.get(s) or {}).get("identifier")]
        models.append({"name": cls, "kind": "component",
                       "docstring": str(node.get("description") or ""),
                       "identity": identity, "fields": fields})
    if root is None and models:
        root = models[0]["name"]
    _finish_models(models, root)
    return {
        "name": sanitize_identifier(name or doc.get("name") or "linkml"),
        "docstring": str(doc.get("description")
                         or "Compiled from LinkML schema."),
        "root": root, "enums": enums, "models": models,
    }


# ===========================================================================
# OWL / RDFS / SKOS Turtle


_XSD_SCALARS = {
    "string": "str", "normalizedString": "str", "token": "str",
    "integer": "int", "int": "int", "long": "int",
    "nonNegativeInteger": "int", "positiveInteger": "int",
    "decimal": "float", "float": "float", "double": "float",
    "boolean": "bool", "date": "date", "dateTime": "datetime",
    "gYear": "int", "anyURI": "str",
}

_COMMENT_RE = re.compile(r"^\s*#.*$", re.MULTILINE)


def _ttl_tokens(text: str):
    """Crude Turtle tokenizer: IRIs, prefixed names, literals, blank-node
    brackets and punctuation."""
    token_re = re.compile(
        r"""<[^>]*>                     # IRI
          | "(?:[^"\\]|\\.)*"(?:\^\^[^\s;,.\]]+|@[\w-]+)?   # literal
          | \[ | \] | \( | \) | ; | , | \.
          | [^\s;,.\[\]()]+             # prefixed name / keyword
        """, re.VERBOSE)
    return token_re.findall(text)


def _parse_ttl(text: str) -> list[tuple[str, str, str]]:
    """Tokens → (subject, predicate, object) triples; blank nodes get
    synthetic ids ``_:bN`` and their contents become triples too."""
    text = _COMMENT_RE.sub("", text)
    toks = _ttl_tokens(text)
    triples: list[tuple[str, str, str]] = []
    bn_count = 0

    def parse_block(i: int, subject: str | None) -> int:
        nonlocal bn_count
        # parse "pred obj (, obj)* (; pred obj...)* ."-style runs
        while i < len(toks):
            if toks[i] in (".", "]"):
                return i + 1
            if subject is None:
                subject = toks[i]
                i += 1
                if subject == "[":
                    bn_count += 1
                    subject = f"_:b{bn_count}"
            pred = toks[i]
            i += 1
            if pred == "a":
                pred = "rdf:type"
            while True:
                obj = toks[i]
                i += 1
                if obj == "[":
                    bn_count += 1
                    bnode = f"_:b{bn_count}"
                    triples.append((subject, pred, bnode))
                    i = parse_bnode(i, bnode)
                elif obj == "(":
                    items = []
                    while toks[i] != ")":
                        items.append(toks[i])
                        i += 1
                    i += 1
                    bn_count += 1
                    lst = f"_:list{bn_count}"
                    triples.append((subject, pred, lst))
                    for item in items:
                        triples.append((lst, "rdf:li", item))
                else:
                    triples.append((subject, pred, obj))
                if i < len(toks) and toks[i] == ",":
                    i += 1
                    continue
                break
            if i < len(toks) and toks[i] == ";":
                i += 1
                # allow trailing "; ."
                if i < len(toks) and toks[i] in (".", "]"):
                    return i + 1
                continue
            if i < len(toks) and toks[i] in (".", "]"):
                return i + 1
            subject = None
        return i

    def parse_bnode(i: int, bnode: str) -> int:
        nonlocal bn_count
        while i < len(toks) and toks[i] != "]":
            pred = toks[i]
            i += 1
            if pred == "a":
                pred = "rdf:type"
            obj = toks[i]
            i += 1
            if obj == "[":
                bn_count += 1
                inner = f"_:b{bn_count}"
                triples.append((bnode, pred, inner))
                i = parse_bnode(i, inner)
            else:
                triples.append((bnode, pred, obj))
            if i < len(toks) and toks[i] == ";":
                i += 1
        return i + 1

    i = 0
    while i < len(toks):
        if toks[i] == "@prefix":
            while i < len(toks) and toks[i] != ".":
                i += 1
            i += 1
            continue
        i = parse_block(i, None)
    return triples


def _lit(value: str) -> str:
    m = re.match(r'"((?:[^"\\]|\\.)*)"', value)
    return m.group(1).replace('\\"', '"') if m else value


def _local(name: str) -> str:
    if name.startswith("<"):
        frag = re.split(r"[#/]", name.strip("<>"))[-1]
        return frag
    return name.split(":", 1)[-1]


def spec_from_ttl(ttl_text: str, *, name: str | None = None) -> dict:
    """OWL/RDFS/SKOS Turtle → templategen spec."""
    triples = _parse_ttl(ttl_text)
    by_subj: dict[str, list[tuple[str, str]]] = {}
    for s, p, o in triples:
        by_subj.setdefault(s, []).append((p, o))

    def objects(s: str, p: str) -> list[str]:
        return [o for pp, o in by_subj.get(s, []) if pp == p]

    def types(s: str) -> set[str]:
        return {_local(o) for o in objects(s, "rdf:type")}

    classes = sorted({s for s in by_subj
                      if "Class" in types(s) and not s.startswith("_:")})
    cls_name = {c: _pascal(_local(c)) for c in classes}

    # SKOS concept schemes → enums
    enums: list[dict] = []
    scheme_enum: dict[str, str] = {}
    schemes = [s for s in by_subj if "ConceptScheme" in types(s)]
    for sch in sorted(schemes):
        members = sorted(
            _lit(objects(c, "skos:prefLabel")[0]) if objects(c, "skos:prefLabel")
            else _local(c)
            for c in by_subj
            if "Concept" in types(c) and sch in objects(c, "skos:inScheme")
        )
        ename = _pascal(_local(sch))
        enums.append({"name": ename, "members": members,
                      "include_other": True})
        scheme_enum[sch] = ename

    # cardinality restrictions: class → {property: max1}
    max1: dict[str, set[str]] = {}
    for c in classes:
        for r in objects(c, "rdfs:subClassOf"):
            if not r.startswith("_:"):
                continue
            props = objects(r, "owl:onProperty")
            cards = (objects(r, "owl:maxCardinality")
                     + objects(r, "owl:cardinality")
                     + objects(r, "owl:qualifiedCardinality"))
            if props and cards and _lit(cards[0]).startswith(("0", "1")):
                max1.setdefault(c, set()).add(props[0])

    # owl:hasKey → identity
    haskey: dict[str, list[str]] = {}
    for c in classes:
        for lst in objects(c, "owl:hasKey"):
            haskey.setdefault(c, []).extend(
                _local(i) for i in objects(lst, "rdf:li"))

    # properties
    props = sorted(
        s for s in by_subj
        if types(s) & {"DatatypeProperty", "ObjectProperty",
                       "AnnotationProperty"} and not s.startswith("_:")
    )

    fields_by_class: dict[str, list[dict]] = {c: [] for c in classes}
    identity_by_class: dict[str, list[str]] = {c: [] for c in classes}
    object_ranges: set[str] = set()

    for p in props:
        t = types(p)
        fname = _local(p)
        domains = objects(p, "rdfs:domain")
        ranges = objects(p, "rdfs:range")
        desc = _lit(objects(p, "rdfs:comment")[0]) if objects(
            p, "rdfs:comment") else ""
        examples = [_lit(e) for e in objects(p, "skos:example")]
        functional = "FunctionalProperty" in t
        inverse_functional = "InverseFunctionalProperty" in t
        for dom in domains:
            if dom not in fields_by_class:
                continue
            # InverseFunctional (a key) is single-valued on the instance
            # side — it must stay scalar to serve as an identity field
            single = (functional or inverse_functional
                      or p in max1.get(dom, set()))
            if "ObjectProperty" in t and ranges and ranges[0] in cls_name:
                target = ranges[0]
                object_ranges.add(target)
                f = _mk_field(fname, cls_name[target], is_list=not single,
                              optional=True, description=desc,
                              role="edge", edge_label=fname.upper())
            else:
                rng = _local(ranges[0]) if ranges else "string"
                if ranges and ranges[0] in scheme_enum:
                    ftype = scheme_enum[ranges[0]]
                else:
                    ftype = _XSD_SCALARS.get(rng, "str")
                f = _mk_field(fname, ftype, is_list=not single,
                              optional=not inverse_functional,
                              description=desc, examples=examples)
            fields_by_class[dom].append(f)
            if inverse_functional or fname in haskey.get(dom, []):
                identity_by_class[dom].append(f["name"])

    # rdfs:subClassOf named class → inherit parent fields (flatten)
    parents = {c: [o for o in objects(c, "rdfs:subClassOf")
                   if not o.startswith("_:") and o in cls_name]
               for c in classes}

    def all_fields(c: str, seen: tuple = ()) -> list[dict]:
        if c in seen:
            return []
        out: list[dict] = []
        for par in parents.get(c, []):
            for f in all_fields(par, seen + (c,)):
                if f["name"] not in {x["name"] for x in out}:
                    out.append(dict(f))
        for f in fields_by_class.get(c, []):
            if f["name"] not in {x["name"] for x in out}:
                out.append(f)
        return out

    def all_identity(c: str, seen: tuple = ()) -> list[str]:
        """Identity inherits with the fields (subclass flattening)."""
        if c in seen:
            return []
        out: list[str] = []
        for par in parents.get(c, []):
            out += all_identity(par, seen + (c,))
        out += identity_by_class.get(c, [])
        return list(dict.fromkeys(out))

    # abstract-ish parents that exist only to be subclassed still render;
    # root = class never used as an object range, most fields wins
    models = []
    for c in classes:
        models.append({
            "name": cls_name[c], "kind": "component",
            "docstring": (_lit(objects(c, "rdfs:comment")[0])
                          if objects(c, "rdfs:comment") else ""),
            "identity": all_identity(c),
            "fields": all_fields(c),
        })
    root_candidates = [m for c, m in zip(classes, models)
                       if c not in object_ranges]
    pool = root_candidates or models
    root = (max(pool, key=lambda m: (len(m["fields"]), m["name"]))["name"]
            if pool else None)
    _finish_models(models, root)
    return {
        "name": sanitize_identifier(name or "ontology"),
        "docstring": "Compiled from OWL/RDFS/SKOS ontology.",
        "root": root, "enums": enums, "models": models,
    }
