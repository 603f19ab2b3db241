"""The import lint: no module of the package but ``__init__``, which
re-exports, imports a name it never uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sphlie"


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
