"""Every name the package exports has a caller outside the unit tests.

A name in ``levibranch.__all__`` counts as used when one of these refers
to it:

* a function or class body in ``src/levibranch`` other than its own
  definition (a bare name, so ``frame.weyl_dim`` is not ``weyl_dim``);
* a ``perfbench/*.py`` module, as an import from ``levibranch`` or as an
  attribute of an imported ``levibranch`` module;
* ``tests/test_acceptance.py``, as an import from ``levibranch`` or a bare
  name.

A name that only the unit tests reach is test-only API and belongs in the
tests.
"""

import ast
import os

import levibranch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "levibranch")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _src_names() -> set:
    """Bare names loaded in src, outside the definition they name."""
    used = set()

    def walk(node, owners):
        if isinstance(node, ast.Name) and node.id not in owners:
            used.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            walk(_parse(os.path.join(SRC, name)), frozenset())
    return used


def _imported_names(tree) -> set:
    """Names imported from ``levibranch`` and attributes of its module aliases."""
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("levibranch"):
            used |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name.startswith("levibranch")}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_exported_name_has_a_caller_outside_the_unit_tests():
    used = _src_names()
    for name in sorted(os.listdir(PERFBENCH)):
        if name.endswith(".py"):
            used |= _imported_names(_parse(os.path.join(PERFBENCH, name)))
    acceptance = _parse(os.path.join(ROOT, "tests", "test_acceptance.py"))
    used |= _imported_names(acceptance)
    used |= {n.id for n in ast.walk(acceptance) if isinstance(n, ast.Name)}
    test_only = sorted(set(levibranch.__all__) - used)
    assert not test_only, f"exported names reached only from tests: {test_only}"
