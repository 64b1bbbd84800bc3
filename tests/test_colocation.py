"""Partitioning is decided in one place: ``stages/bucketing.py``.

Every wide step of the package co-locates rows through
``bucketing.bucketed_map``, which owns the hash, the ``_part`` tag column
and the ``groupby`` over it.  A module that names the tag column itself,
or hashes rows into partition ids with ``pd.util.hash_array``, has grown
a second partitioner; this AST pass fails on either.

``ALLOWED_HASHERS`` names the functions that call ``hash_array`` for
something other than a partition id.
"""

from __future__ import annotations

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_PACKAGE = _REPO / "docling_graph_ray"
_OWNER = "stages/bucketing.py"
_TAG = "_part"

ALLOWED_HASHERS = {
    # word hashes feeding the W-token window hash, not a partition id
    ("stages/substr_dedup.py", "_word_hashes"),
}


def _sources():
    for path in sorted(_PACKAGE.rglob("*.py")):
        yield path.relative_to(_PACKAGE).as_posix(), ast.parse(
            path.read_text(), str(path))
    yield "__ray_entry__.py", ast.parse(
        (_REPO / "__ray_entry__.py").read_text())


def _hashers(tree: ast.AST):
    """(enclosing function name, line) of every ``hash_array`` use."""
    out = []

    def walk(node, fn_name):
        for child in ast.iter_child_nodes(node):
            name = fn_name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name if fn_name is None else fn_name
            if ((isinstance(child, ast.Attribute) and child.attr == "hash_array")
                    or (isinstance(child, ast.Name) and child.id == "hash_array")
                    or (isinstance(child, ast.alias)
                        and child.name == "hash_array")):
                out.append((name, child.lineno))
            walk(child, name)

    walk(tree, None)
    return out


def test_only_bucketing_names_the_tag_column():
    hits = [
        f"{rel}:{n.lineno}"
        for rel, tree in _sources() if rel != _OWNER
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and n.value == _TAG
    ]
    assert not hits, f"{_TAG!r} named outside {_OWNER}: {hits}"


def test_only_bucketing_hashes_partition_ids():
    hits = [
        f"{rel}:{line} ({fn})"
        for rel, tree in _sources() if rel != _OWNER
        for fn, line in _hashers(tree)
        if (rel, fn) not in ALLOWED_HASHERS
    ]
    assert not hits, f"hash_array outside {_OWNER}: {hits}"


def test_allowed_hashers_are_not_stale():
    found = {(rel, fn) for rel, tree in _sources() for fn, _ in _hashers(tree)}
    assert ALLOWED_HASHERS <= found, ALLOWED_HASHERS - found


def test_bucketing_owns_both():
    tree = ast.parse((_PACKAGE / _OWNER).read_text())
    assert any(isinstance(n, ast.Constant) and n.value == _TAG
               for n in ast.walk(tree))
    assert _hashers(tree)
