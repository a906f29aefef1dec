"""No API that nothing calls: every function and method defined in
`src/ffmzv` is referenced by name somewhere outside `tests/`.

The places searched are the package itself (`ast` names, attributes
and identifier strings such as `getattr`'s, leaving out the references
a def makes to its own name, recursion included), the Python files of
`demos/` and `perfbench/` (the same way) and the CI workflows (as words
of the text).  The check is by name, so it is
coarse: a method counts as called when any object's attribute of that
name is read.  Dunders and the names in `ffmzv.__all__` are exempt, and
so are the test references below, each with its reason.
"""
import ast
import re
from pathlib import Path

import ffmzv

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ffmzv"

# name -> why a definition that only tests call stays in the library
TEST_REFERENCES = {
    "apply_t": "TModule.apply_t, one application of ρ_t: the one-step "
               "reference that `TModule.iterates` is tested against",
    "binomial": "CarlitzCache.binomial, B_{n,i} by exact division of "
                "Carlitz factorials: the reference for the bracket "
                "products the H_n fill multiplies by",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _references(tree, names):
    """Add to `names` every name the tree reads, except inside a def of
    that same name."""

    def visit(node, inside):
        if isinstance(node, _DEFS):
            inside = inside | {node.name}
        found = None
        if isinstance(node, ast.Name):
            found = node.id
        elif isinstance(node, ast.Attribute):
            found = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = node.value if node.value.isidentifier() else None
        if found and found not in inside:
            names.add(found)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())


def _defined():
    """(module, name) of every function and method in the package."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, _DEFS):
                out.add((path.name, node.name))
    return out


def _referenced():
    names = set()
    files = [*SRC.glob("*.py"), *(ROOT / "demos").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py")]
    for path in files:
        _references(ast.parse(path.read_text(), str(path)), names)
    for path in (ROOT / ".github" / "workflows").glob("*.y*ml"):
        names.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return names


def test_every_definition_is_referenced_outside_tests():
    """Nothing unreferenced but the exempt names, and each test
    reference still a definition that nothing outside `tests/` names,
    so the dict cannot go stale."""
    defined = _defined()
    referenced = _referenced()
    exempt = set(ffmzv.__all__) | set(TEST_REFERENCES)
    unused = sorted(
        f"{module}: {name}"
        for module, name in defined
        if name not in referenced and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert unused == []
    names = {name for _, name in defined}
    for name in TEST_REFERENCES:
        assert name in names and name not in referenced, name
