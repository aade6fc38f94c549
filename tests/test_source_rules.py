"""Rules on the library source that no installed linter checks.

No bare ``assert`` in ``src/weylfan``: ``python -O`` strips it, so a failed
self-check would return a wrong result silently.  Self-checks call
``errors.internal_check``, which raises ``InternalCheckFailed``.
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
