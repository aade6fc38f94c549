"""Rules on the library source that no installed linter checks.

No bare ``assert`` in ``src/weylfan``: ``python -O`` strips it, so a failed
self-check would return a wrong result silently.  Self-checks call
``errors.internal_check``, which raises ``InternalCheckFailed``.

``linalg`` imports nothing from ``fractions``: its eliminations are
integer-only.

No dead error codes: every ``WeylFanError`` subclass in ``errors.py`` is
instantiated somewhere in ``src/weylfan``.

No dead functions: every function and method defined in ``src/weylfan`` is
referenced by name somewhere in ``src/weylfan``, apart from the library entry
points in ``ENTRY_POINTS``.  A helper that only tests call is a test oracle
and lives in the tests.
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


def test_every_error_class_is_raised():
    """A domain error that nothing instantiates is a code the CLI can never print."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    subclasses = {node.name for node in ast.walk(trees["errors.py"])
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(b, ast.Name) and b.id == "WeylFanError" for b in node.bases)}
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert subclasses and sorted(subclasses - called) == []


# Functions that nothing in ``src/weylfan`` calls, and why each stays there.
ENTRY_POINTS = {
    "check_complete": "the paper's completeness check; the perfbench chambers workload runs it",
    "check_smooth": "the paper's smoothness check; the perfbench chambers workload runs it",
}


def test_every_function_is_referenced():
    """Every def is named by some Name or Attribute node of the library, so a
    function with no caller fails here; dunder methods are called implicitly."""
    nodes = [node for p in MODULES
             for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))]
    defined = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    referenced = ({node.id for node in nodes if isinstance(node, ast.Name)}
                  | {node.attr for node in nodes if isinstance(node, ast.Attribute)})
    assert sorted(defined - referenced - ENTRY_POINTS.keys()) == []
    # an entry point that gains a caller, or is deleted, leaves the list
    assert sorted(ENTRY_POINTS.keys() - (defined - referenced)) == []
