"""Every .py file in the repo compiles without warnings.

An invalid escape such as ``'\\S'`` in a non-raw string works today only
because Python keeps unknown escapes as written; it warns at compile time
(DeprecationWarning before 3.12, SyntaxWarning from 3.12) and will become
an error.  Compiling with both turned into errors makes a new one fail CI.
"""

from __future__ import annotations

import warnings
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent


def test_repo_compiles_without_warnings():
    failures = []
    for path in sorted(_REPO.rglob("*.py")):
        if ".git" in path.relative_to(_REPO).parts:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                compile(path.read_bytes(), str(path), "exec")
            except (SyntaxError, SyntaxWarning, DeprecationWarning) as ex:
                failures.append(f"{path.relative_to(_REPO)}: {ex}")
    assert not failures, failures
