"""The library is standard-library only: every module of src/dmm imports
nothing but dmm itself and the standard library, and its function-local
imports close no cycle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dmm"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        foreign = {root for root in _imported_roots(path)
                   if root != "dmm" and root not in sys.stdlib_module_names}
        assert not foreign, (path.name, foreign)


def test_canonical_form_imports_in_a_fresh_process():
    # conftest.py imports dmm.enumeration first, which would hide a cycle
    # in canonical_form's function-local import of dmm.enumeration
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = ("from dmm.constructions import canonical_form, make_named; "
            "canonical_form(make_named('S5'))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr



def _globals(node, fn=None):
    """(enclosing function, name) for each name a global statement under
    node declares; fn is None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Global):
            yield from ((fn, name) for name in child.names)
        yield from _globals(child, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)


def test_no_global_statement():
    # no library function rebinds a module-level name: derived data lives
    # on the objects it belongs to
    found = [(path.stem, *g) for path in sorted(SRC.glob("*.py"))
             for g in _globals(ast.parse(path.read_text(), str(path)))]
    assert found == []
