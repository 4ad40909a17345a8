"""Every definition and constant in ``src/levibranch`` has a reader outside the tests.

The rule covers every module-level function and class and every public
method (properties included).  A definition counts as used when one of
these refers to it:

* a module of ``src/levibranch`` other than ``__init__.py``, outside the
  definition itself: a bare name or a module attribute for a module-level
  definition, ``Class.method`` or a ``.method`` attribute for a method;
* a ``perfbench/*.py`` module, the same way, with ``levibranch`` imports
  for bare names.

The tracer is no caller: a ``tracing.SPANS`` target (which
``tests/test_tracing.py`` resolves) counts only if it is named in
``SPANS_ONLY``, the definitions the tracer alone keeps today.  A name
there that gains a real caller, or leaves the spans, fails too, so the set
only shrinks.

A plain method counts from a ``.method`` attribute only where that is
called (``w.sign()``), so an array attribute of the same name (the
``sign`` of a ``WeylGroup``) is no caller.  A definition that only tests
reach belongs in the tests (``tests/oracles.py``).

Each module-level constant (a name in capitals, with or without a leading
underscore, bound by an assignment) must be read by name, in its own or
another module of ``src`` or as a module attribute in ``perfbench/*.py``:
a limit nothing reads limits nothing.

Each module-level import of a module of ``src`` other than ``__init__.py``
(which re-exports) must be read in that module, so a deletion leaves no
import behind.  Every import in ``src`` is at module level, so an import
cycle cannot hide inside a function.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "levibranch")
PERFBENCH = os.path.join(ROOT, "perfbench")
SRC_MODULES = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}
# definitions that only a ``tracing.SPANS`` target reaches
SPANS_ONLY = {"RootDatum.dominance_leq"}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _modules(folder):
    return [(name[:-3], _parse(os.path.join(folder, name)))
            for name in sorted(os.listdir(folder)) if name.endswith(".py")]


def _is_property(fn) -> bool:
    return any((isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
               for d in fn.decorator_list)


def definitions() -> dict:
    """{qualified name: is it called, not read} for the definitions the rule covers."""
    out = {}
    for _, tree in _modules(SRC):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[node.name] = True
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = not _is_property(item)
    return out


class _References(ast.NodeVisitor):
    """Collects what one module refers to, outside the definitions it names.

    ``names`` holds bare names, ``levibranch`` imports and attributes of
    ``levibranch`` modules; ``qualified`` the ``Name.attr`` pairs; ``called``
    and ``read`` the other attributes, called or read.  Attributes of other
    modules (``np.sign``) are ignored.  ``owners`` are the enclosing
    definitions, as qualified names, so a definition's own body never
    counts for it.
    """

    def __init__(self, tree, bare_names: bool):
        self.package, self.foreign = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    ours = a.name.startswith("levibranch")
                    (self.package if ours else self.foreign).add(a.asname or a.name)
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("levibranch")):
                self.package |= {a.asname or a.name for a in node.names
                                 if a.name in SRC_MODULES}
        self.bare_names = bare_names
        self.names, self.qualified, self.called, self.read = set(), set(), set(), set()
        self.owners = []
        self.visit(tree)

    def _define(self, node):
        outer = self.owners[-1] if self.owners else ""
        qual = node.name if not outer or "." in outer else f"{outer}.{node.name}"
        self.owners.append(qual)
        self.generic_visit(node)
        self.owners.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Name(self, node):
        if (self.bare_names and isinstance(node.ctx, ast.Load)
                and node.id not in self.owners):
            self.names.add(node.id)

    def visit_ImportFrom(self, node):
        if (node.module or "").startswith("levibranch"):
            self.names |= {a.name for a in node.names}

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute):
            self._attribute(node.func, self.called)
            self.visit(node.func.value)
        else:
            self.visit(node.func)
        for child in node.args + node.keywords:
            self.visit(child)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._attribute(node, self.read)
        self.visit(node.value)

    def _attribute(self, node, bucket):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        if base in self.foreign:
            return
        if base in self.package:
            if node.attr not in self.owners:
                self.names.add(node.attr)
            return
        if base is not None and f"{base}.{node.attr}" not in self.owners:
            self.qualified.add(f"{base}.{node.attr}")
        if not any(o.endswith(f".{node.attr}") for o in self.owners):
            bucket.add(node.attr)


def _span_targets() -> set:
    """The ``attr`` field of every ``tracing.SPANS`` entry."""
    tree = _parse(os.path.join(PERFBENCH, "tracing.py"))
    spans = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    return {entry.elts[2].value for entry in spans.elts}


def _references() -> list:
    refs = [_References(tree, bare_names=True) for name, tree in _modules(SRC)
            if name != "__init__"]
    return refs + [_References(tree, bare_names=False) for _, tree in _modules(PERFBENCH)]


def constants() -> set:
    """The names of the module-level constants of ``src``."""
    out = set()
    for _, tree in _modules(SRC):
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                    and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id)}
    return out


def referenced() -> set:
    """The definitions of ``definitions()`` that ``src`` or ``perfbench`` reaches,
    the tracer aside."""
    refs = _references()
    names = set().union(*(r.names for r in refs))
    qualified = set().union(*(r.qualified for r in refs))
    called = set().union(*(r.called for r in refs))
    read = set().union(*(r.read for r in refs))
    used = set()
    for name, is_call in definitions().items():
        cls, _, attr = name.rpartition(".")
        if not cls:
            hit = name in names or name in qualified
        else:
            hit = name in qualified or attr in (called if is_call else read)
        if hit:
            used.add(name)
    return used


def test_every_definition_has_a_caller_outside_the_tests():
    test_only = sorted(set(definitions()) - referenced() - SPANS_ONLY)
    assert not test_only, f"definitions reached only from tests or the tracer: {test_only}"


def test_spans_only_names_the_definitions_only_the_tracer_keeps():
    assert SPANS_ONLY <= set(definitions()) & _span_targets()
    called = sorted(SPANS_ONLY & referenced())
    assert not called, f"definitions in SPANS_ONLY that have a caller: {called}"


def test_every_constant_is_read_outside_the_tests():
    names = set().union(*(r.names for r in _references()))
    unread = sorted(constants() - names)
    assert not unread, f"constants nothing outside the tests reads: {unread}"


def test_every_import_is_read_where_it_is_made():
    unread = []
    for name, tree in _modules(SRC):
        if name == "__init__":
            continue
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}: {b}" for b in sorted(bound - read)]
    assert not unread, f"imports their module never reads: {unread}"


def test_every_import_is_at_module_level():
    nested = [f"{name}.py:{node.lineno}" for name, tree in _modules(SRC)
              for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
              and not any(node is top for top in tree.body)]
    assert not nested, f"imports inside a definition or a block: {nested}"
