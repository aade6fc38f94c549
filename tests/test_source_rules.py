"""Rules on the library source that no installed linter checks.

No bare ``assert`` in ``src/weylfan``: ``python -O`` strips it, so a failed
self-check would return a wrong result silently.  Self-checks call
``errors.internal_check``, which raises ``InternalCheckFailed``.

``linalg`` imports nothing from ``fractions``: its eliminations are
integer-only.
"""

import ast
from pathlib import Path

import weylfan

MODULES = sorted(Path(weylfan.__file__).parent.glob("*.py"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"linalg.py", "roots.py", "fans.py", "cli.py"}


def test_no_bare_assert():
    found = [f"{p.name}:{node.lineno}"
             for p in MODULES
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_linalg_imports_no_fractions():
    """``linalg`` is integer-only: Fractions only pass through its vec_* helpers."""
    p = next(p for p in MODULES if p.name == "linalg.py")
    found = [node.lineno
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)]
    assert found == []
