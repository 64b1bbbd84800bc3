"""functions.formatting — serialization parity
(string_formatter.py:79-120 semantics)."""

import datetime
import decimal
import enum
import json
import pathlib
import uuid

import pytest

from docling_graph_ray.functions.formatting import (
    dumps_canonical,
    json_serializable,
)


class Color(enum.Enum):
    RED = "red"


def test_json_serializable_ladder():
    d = datetime.date(2026, 8, 17)
    dt = datetime.datetime(2026, 8, 17, 12, 0, 5)
    t = datetime.time(9, 30)
    assert json_serializable(d) == "2026-08-17"
    assert json_serializable(dt) == "2026-08-17T12:00:05"
    assert json_serializable(t) == "09:30:00"
    assert json_serializable(decimal.Decimal("2.5")) == 2.5
    u = uuid.uuid5(uuid.NAMESPACE_DNS, "x")
    assert json_serializable(u) == str(u)
    assert json_serializable(pathlib.PurePosixPath("/a/b")) == "/a/b"
    assert json_serializable({3, 1, 2}) == [1, 2, 3]
    assert json_serializable(frozenset({"b", "a"})) == ["a", "b"]
    assert json_serializable(b"caf\xc3\xa9") == "café"
    assert json_serializable(b"\xff") == "�"  # lossy, never raises
    assert json_serializable(Color.RED) == "red"


def test_json_serializable_pydantic_model_dump():
    import pydantic

    class M(pydantic.BaseModel):
        when: datetime.date

    out = json_serializable(M(when=datetime.date(2026, 1, 2)))
    assert out == {"when": "2026-01-02"}


def test_json_serializable_rejects_unknown():
    with pytest.raises(TypeError):
        json_serializable(object())


def test_dumps_canonical_deterministic():
    obj = {"b": {1, 3, 2}, "a": datetime.date(2026, 8, 17)}
    s1 = dumps_canonical(obj)
    s2 = dumps_canonical({"a": datetime.date(2026, 8, 17), "b": {3, 2, 1}})
    assert s1 == s2
    assert json.loads(s1) == {"a": "2026-08-17", "b": [1, 2, 3]}
