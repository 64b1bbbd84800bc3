"""Typed-record salvage ladder: coerce candidate records to a target
schema, never throw a row away.

The reference mutates-and-revalidates failing records through up to three
passes of typed fixers (scalar coercion, missing-required fill, primitive
→ string, scalar → list, prune-invalid-leaves) — docling_graph/core/
extractors/backends/llm_backend.py:774-855 — so an imperfect model output
becomes either a valid record or an explicit failure, never an exception.
This module ports those SEMANTICS for Arrow-typed records: each field is
coerced down a ladder and the outcome is recorded per row
(``salvage_status``: ok | coerced | defaulted | failed), which feeds the
same ``parse_failures``-style metrics the north rule requires.

Rungs per field (first that succeeds wins):
1. exact type already — ok;
2. safe cast (str→int/float/bool, numeric string parse, float→int when
   integral; QuantityWithUnit-style dicts reduce to their numeric value,
   llm_backend.py:223-243);
3. scalar→list wrap when a list is wanted (comma-split for strings,
   llm_backend.py salvage pass 5);
4. anything→string when a string is wanted;
5. default fill for REQUIRED fields (0 / "" / [] — the enum-default
   analogue of pass 2), marking the row ``defaulted``;
6. otherwise the row is ``failed`` (kept, with nulls)."""

from __future__ import annotations

import ast
import json
import math
import re
from typing import Any

OK, COERCED, DEFAULTED, FAILED = "ok", "coerced", "defaulted", "failed"

_RANK = {OK: 0, COERCED: 1, DEFAULTED: 2, FAILED: 3}


def _worse(a: str, b: str) -> str:
    return a if _RANK[a] >= _RANK[b] else b


_QTY_STRIP_RE = re.compile(r"[^\d.\-eE]")


def coerce_quantity(value: Any) -> tuple[dict | None, str]:
    """Scalar → QuantityWithUnit-shaped dict — the reference's first
    salvage rung (llm_backend.py:233-243, `_coerce_scalar_to_quantity_
    with_unit`): numbers become ``{"numeric_value": float}``; strings
    parse numerically after stripping non-numeric chars ('12.5 kg' →
    12.5) or fall back to ``{"text_value": s}``."""
    if value is None:
        return None, FAILED
    if isinstance(value, dict):
        if "numeric_value" in value or "text_value" in value:
            return value, OK
        return None, FAILED
    if isinstance(value, bool):
        return {"numeric_value": float(value)}, COERCED
    if isinstance(value, (int, float)):
        return {"numeric_value": float(value)}, COERCED
    if isinstance(value, str):
        clean = _QTY_STRIP_RE.sub("", value)
        try:
            return {"numeric_value": float(clean)}, COERCED
        except ValueError:
            return {"text_value": value}, COERCED
    return {"numeric_value": None, "text_value": str(value)}, COERCED


def _coerce_scalar(value: Any, kind: str) -> tuple[Any, str]:
    """kind ∈ {'int','float','str','bool','quantity'} → (value, rung)."""
    if kind == "quantity":
        return coerce_quantity(value)
    if value is None:
        return None, FAILED
    # QuantityWithUnit-style dict → numeric_value (llm_backend.py:223-243)
    if isinstance(value, dict):
        for k in ("numeric_value", "value", "amount"):
            if k in value:
                v, st = _coerce_scalar(value[k], kind)
                return v, (FAILED if st == FAILED else COERCED)
        if kind == "str":
            return json.dumps(value, sort_keys=True), COERCED
        return None, FAILED
    if kind == "int":
        if isinstance(value, bool):
            return int(value), COERCED
        if isinstance(value, int):
            return value, OK
        if isinstance(value, float):
            return (int(value), COERCED) if math.isfinite(value) and value == int(value) else (None, FAILED)
        if isinstance(value, str):
            s = value.strip().replace(",", "")
            try:
                return int(s), COERCED
            except ValueError:
                try:
                    f = float(s)
                    return (int(f), COERCED) if f == int(f) else (None, FAILED)
                except ValueError:
                    return None, FAILED
        return None, FAILED
    if kind == "float":
        if isinstance(value, bool):
            return float(value), COERCED
        if isinstance(value, (int, float)):
            return float(value), OK if isinstance(value, float) else COERCED
        if isinstance(value, str):
            try:
                return float(value.strip().replace(",", "")), COERCED
            except ValueError:
                return None, FAILED
        return None, FAILED
    if kind == "bool":
        if isinstance(value, bool):
            return value, OK
        if isinstance(value, (int, float)) and value in (0, 1):
            return bool(value), COERCED
        if isinstance(value, str):
            s = value.strip().lower()
            if s in ("true", "yes", "1"):
                return True, COERCED
            if s in ("false", "no", "0"):
                return False, COERCED
        return None, FAILED
    # str
    if isinstance(value, str):
        return value, OK
    if isinstance(value, (int, float, bool)):
        return str(value), COERCED
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True), COERCED
    return str(value), COERCED


def _coerce_list(value: Any, item_kind: str) -> tuple[Any, str]:
    if value is None:
        return None, FAILED
    if isinstance(value, str):
        s = value.strip()
        # ast literal parse rung (llm_backend salvage pass 5)
        if s.startswith("[") and s.endswith("]"):
            try:
                value = ast.literal_eval(s)
            except (ValueError, SyntaxError):
                value = [p.strip() for p in s[1:-1].split(",") if p.strip()]
        else:
            value = [p.strip() for p in s.split(",") if p.strip()]
        status = COERCED
    elif isinstance(value, list):
        status = OK
    else:
        value, status = [value], COERCED
    out = []
    for item in value:
        v, st = _coerce_scalar(item, item_kind)
        if st == FAILED:
            return None, FAILED
        status = _worse(status, st)
        out.append(v)
    return out, status


_DEFAULTS = {"int": 0, "float": 0.0, "str": "", "bool": False,
             "quantity": {"numeric_value": None, "text_value": ""}}


def salvage_record(record: dict, schema: dict[str, dict]) -> tuple[dict, str]:
    """Coerce ``record`` to ``schema``: {field: {'kind': 'int'|'float'|
    'str'|'bool'|'list<int>'|…, 'required': bool}}.

    Returns (salvaged_record, status).  Unknown input fields are dropped
    (closed-schema semantics); a FAILED required field falls to the
    default rung; a FAILED optional field becomes null."""
    out: dict[str, Any] = {}
    status = OK
    for field, spec in schema.items():
        kind = spec["kind"]
        required = bool(spec.get("required"))
        raw = record.get(field)
        if kind.startswith("list<"):
            v, st = _coerce_list(raw, kind[5:-1])
        else:
            v, st = _coerce_scalar(raw, kind)
        if st == FAILED:
            if required:
                if raw is None:
                    v, st = (
                        [] if kind.startswith("list<") else _DEFAULTS[kind],
                        DEFAULTED,
                    )
                else:
                    # failed rows are KEPT, with nulls — and every schema
                    # field must be present so columnar assembly
                    # (pa.Table.from_pylist) never sees ragged records
                    v, st = None, FAILED
            else:
                v, st = None, OK if raw is None else COERCED
        out[field] = v
        status = _worse(status, st)
    return out, status
