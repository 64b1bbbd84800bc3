"""Every module-level name in the package is reachable from non-test code.

A name-reachability pass over the AST: the roots are the package's own
module-level statements (other than definitions and imports) plus every
identifier in ``__ray_entry__.py``, ``bench.py``, ``tools/`` and
``perfbench/``.  A module-level function, class or constant of
``docling_graph_ray/`` is live once a live body names it, so a name used
only inside its own body, only by other dead code, or only by tests is
dead.  Matching is by identifier, not by module, so two same-named defs
keep each other alive (the pass errs towards "live").  Docstrings and
comments are not uses.  A module-level ``from m import x as _x`` makes
every use of ``_x`` in that package a use of ``x``.

A dead name fails the test; delete it, or add it to ``ALLOWLIST`` with a
one-line reason.  An allowlisted name is a root too, so what it calls
stays live; an entry that is no longer defined, or that stays live
without its own allowlisting, fails the test as stale.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
_PACKAGE = "docling_graph_ray"
_ROOT_CODE = ("__ray_entry__.py", "bench.py", "tools", "perfbench")

_PROTOCOL = "protocol surface"
_TEST_INPUT = "test input builder: kept tests build input or check output with it"

ALLOWLIST = {
    # state/protocols.py, state/registry.py: the plugin extension points
    "Exporter": _PROTOCOL,
    "OcrBackend": _PROTOCOL,
    "get_stage_kind": _PROTOCOL,
    "validate_stage": _PROTOCOL,
    "builtin_registry": _PROTOCOL,
    # scanned-PDF input for the image_only lane
    "build_image_pdf": _TEST_INPUT,
    # DocLang writer for the extract_doclang round-trip
    "render_doclang": _TEST_INPUT,
    # stamped graph.json input for the merge-gate tests
    "stamp_graph_metadata": _TEST_INPUT,
    # bit distance for the simhash64 tests
    "hamming64": _TEST_INPUT,
    # the DuckDB twin of mix32
    "MIX32_SQL": _TEST_INPUT,
}


def _py_files(rel: str):
    path = _REPO / rel
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


def _identifiers(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
    return out


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _scan():
    """(defs, uses, roots): each package def's location, the identifiers
    its body names, and the identifiers named by root code."""
    defs: dict[tuple[str, str], int] = {}
    uses: dict[tuple[str, str], set[str]] = defaultdict(set)
    roots: set[str] = set()
    aliases: dict[str, set[str]] = defaultdict(set)
    for path in _py_files(_PACKAGE):
        rel = str(path.relative_to(_REPO))
        for stmt in ast.parse(path.read_text()).body:
            names = _defined_names(stmt)
            if "__all__" in names:
                continue  # an export list is not a use
            names = [n for n in names if not n.startswith("__")]
            if names:
                for name in names:
                    defs[(rel, name)] = stmt.lineno
                    uses[(rel, name)] |= _identifiers(stmt) - {name}
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for a in stmt.names:
                    if a.asname:
                        aliases[a.asname].add(a.name.rsplit(".", 1)[-1])
            else:
                roots |= _identifiers(stmt)
    for rel in _ROOT_CODE:
        for path in _py_files(rel):
            roots |= _identifiers(ast.parse(path.read_text()))
    for names in (*uses.values(), roots):
        names |= {n for a in names & aliases.keys() for n in aliases[a]}
    return defs, uses, roots


def _dead(defs, uses, roots) -> list[str]:
    by_name = defaultdict(list)
    for key in defs:
        by_name[key[1]].append(key)
    live, seen, frontier = set(), set(), set(roots)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for key in by_name.get(name, ()):
            live.add(key)
            frontier |= uses[key]
    return sorted(f"{rel}:{defs[(rel, name)]} {name}"
                  for rel, name in defs if (rel, name) not in live)


def test_every_package_name_is_reachable():
    defs, uses, roots = _scan()
    dead = _dead(defs, uses, roots | set(ALLOWLIST))
    assert not dead, "unreachable from non-test code:\n" + "\n".join(dead)


def test_allowlist_is_not_stale():
    defs, uses, roots = _scan()
    defined = {name for _, name in defs}
    assert set(ALLOWLIST) <= defined, sorted(set(ALLOWLIST) - defined)
    stale = []
    for name in ALLOWLIST:
        dead = _dead(defs, uses, roots | (set(ALLOWLIST) - {name}))
        if not any(line.endswith(" " + name) for line in dead):
            stale.append(name)
    assert not stale, f"live without their allowlist entry: {stale}"
