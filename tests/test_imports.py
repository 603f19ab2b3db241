"""Three lints on the package's source.  The import lint: no module but
``__init__``, which re-exports, imports a name it never uses.  The dead-code
lint: every private name a module defines is read somewhere in the
package.  The public-name lint: every public module-level function or class
is read somewhere in the package, its tests, demos or benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sphlie"
READERS = ("src", "tests", "demos", "perfbench")


def unused_imports(tree: ast.AST) -> list[str]:
    """The names bound by the imports of ``tree`` that no ``Name`` node
    reads, in source order; ``from __future__`` binds none."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: names for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             and (names := unused_imports(ast.parse(path.read_text("utf-8"))))}
    assert found == {}, f"unused imports: {found}"


def test_the_import_lint_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom .linalg import rref, kernel as k\n"
                     "def f(x):\n    return rref(x)\n")
    assert unused_imports(tree) == ["os", "k"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def dead_private_names(trees: dict[str, ast.AST]) -> list[str]:
    """The private names that the modules ``trees`` define and no module of
    them reads, as "module.name" or "module.Class.method", in source order.

    Defined: module-level functions, classes and assignment targets, and
    the methods of module-level classes.  Read: a loaded ``Name`` or
    ``Attribute``, or a name an ``ImportFrom`` imports."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [f"{module}.{n}" for n in names if _private(n)]
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{m.name}" for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and _private(m.name)]
    read = names_read(trees.values())
    return [name for name in defined if name.rsplit(".", 1)[1] not in read]


def names_read(trees) -> set[str]:
    """The names ``trees`` read: a loaded ``Name`` or ``Attribute``, or a
    name an ``ImportFrom`` imports."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_no_private_name_is_dead():
    trees = {path.stem: ast.parse(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(trees) == []


def test_the_dead_code_lint_sees_an_unread_private_name():
    trees = {
        "a": ast.parse("_POOL = (1, 2)\n"
                       "_SIXTHS: tuple = tuple(6 * c for c in _POOL)\n"
                       "def _draw():\n    return _POOL\n"
                       "class _Memo:\n    def _mark(self):\n"
                       "        self._seen = 1\n"
                       "class Report:\n    def __init__(self):\n"
                       "        self._cache = {}\n"
                       "    def _used(self):\n        return 1\n"
                       "    def _unused(self):\n"
                       "        return self._used()\n"),
        "b": ast.parse("from .a import _draw\n"),
    }
    assert dead_private_names(trees) == [
        "a._SIXTHS", "a._Memo", "a._Memo._mark", "a.Report._unused"]


def unused_public_names(defined: dict[str, ast.AST], readers) -> list[str]:
    """The public module-level functions and classes of the modules
    ``defined`` that no tree of ``readers`` reads (:func:`names_read`), as
    "module.name", in source order."""
    read = names_read(readers)
    return [f"{module}.{node.name}" for module, tree in defined.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_no_public_name_is_unused():
    defined = {path.stem: ast.parse(path.read_text("utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    readers = [ast.parse(path.read_text("utf-8")) for folder in READERS
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert unused_public_names(defined, readers) == []


def test_the_public_name_lint_sees_an_unread_name():
    defined = {"linalg": ast.parse(
        "def rref(rows):\n    return rows\n"
        "def project_along(s, target, along):\n    return rref(s)\n"
        "class DirectSum:\n    pass\nclass Unused:\n    pass\n"
        "_PRIVATE = 1\nPUBLIC = 2\n")}
    readers = [defined["linalg"], ast.parse(
        "from .linalg import DirectSum\nimport linalg\n"
        "print(linalg.rref)\n")]
    assert unused_public_names(defined, readers) == [
        "linalg.project_along", "linalg.Unused"]
