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


# Names defined in src/dmm that no library code reads, each with the reason
# it stays; drop an entry once the reason is gone.
UNREAD_BY_LIBRARY = {
    "hs_contains": "public query that the benchmark times",
    "direct_product": "public query that the benchmark times",
    "canonical_form": "public query that the benchmark times",
    "FiniteIRL.relabel": "scripts/hs_digest.py calls it",
    "Catalog.from_json": "public reader of the files `dmm enumerate --out` "
                         "writes, the inverse of to_json",
    "_lattice_distributive": "perfbench traces it",
    "congruence_lattice": "perfbench traces it",
    "dfg_oracle": "perfbench imports it",
    "dfg_ra": "perfbench imports it",
}


def _definitions(tree):
    """(key, name, node) for each top-level function, method of a top-level
    class (dunder methods aside) and upper-case constant; a method's key is
    Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((t.id, t.id, node) for t in targets
                        if isinstance(t, ast.Name) and t.id.isupper())


def test_every_library_name_has_a_library_reader():
    # a name is read when it is loaded, or loaded as an attribute, somewhere
    # in src/dmm outside its own definition; imports do not count, so a
    # function kept only for tests or scripts shows up here
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))]
    reads: dict[str, list[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(id(node))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.setdefault(node.attr, []).append(id(node))
    unread = set()
    for tree in trees:
        for key, name, node in _definitions(tree):
            own = {id(sub) for sub in ast.walk(node)}
            if all(r in own for r in reads.get(name, ())):
                unread.add(key)
    assert unread == set(UNREAD_BY_LIBRARY)
