"""JSON fallback serialization of property values.

Parity with the reference's serialization helpers
(docling_graph/core/utils/string_formatter.py:79-120): graph exports and
reports must encode arbitrary template-typed property values — dates,
Decimals, UUIDs, Paths, sets, bytes, Enums, nested Pydantic models —
deterministically.

These are pure scalar helpers (no Ray): the batch operators call them
row-locally inside ``map_batches`` UDFs, so they run on workers with no
extra state.
"""

from __future__ import annotations

import datetime as _dt
import decimal
import enum
import json
import pathlib
import uuid
from typing import Any

def json_serializable(obj: Any) -> Any:
    """``json.dumps(..., default=json_serializable)`` fallback for the
    value types an extraction template can put on a node
    (string_formatter.py:79-103): ISO strings for date/datetime/time,
    float for Decimal, str for UUID/Path, sorted list for set/frozenset,
    utf-8 text for bytes, ``.value`` for Enum, ``model_dump(mode="json")``
    for Pydantic models.  Anything else raises TypeError so bad payloads
    fail loudly instead of exporting repr noise."""
    if isinstance(obj, (_dt.datetime, _dt.date, _dt.time)):
        return obj.isoformat()
    if isinstance(obj, decimal.Decimal):
        return float(obj)
    if isinstance(obj, (uuid.UUID, pathlib.PurePath)):
        return str(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=str)
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj).decode("utf-8", "replace")
    if isinstance(obj, enum.Enum):
        return obj.value
    dump = getattr(obj, "model_dump", None)
    if callable(dump):
        return dump(mode="json")
    raise TypeError(f"{type(obj).__name__} is not JSON-serializable")


def dumps_canonical(obj: Any, **kw: Any) -> str:
    """Sorted-keys JSON with the fallback above — the canonical encoding
    every exporter cell uses, so reruns are byte-identical."""
    kw.setdefault("sort_keys", True)
    kw.setdefault("ensure_ascii", False)
    return json.dumps(obj, default=json_serializable, **kw)
