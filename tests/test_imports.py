"""Import lint over the package sources, using only the standard library:
every module-level import is used, and no function or class imports locally."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gradedhpt"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_imports(path):
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    local = sorted(n.lineno for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in top)
    assert not local, f"{path.name}: imports inside functions or classes at lines {local}"
