"""No dead names in the package: every import is used, and every private
module-level name is referenced somewhere in the package.

The sources are read with the standard library's ast only, so the test runs
wherever the package runs.  A name counts as used when its module reads it
outside its own definition, when another module of the package imports it or
reads it as an attribute, or when ``__all__`` lists it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gtbasis"
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _reads(tree, skip=None) -> set:
    """Names read under tree, as a name or as an attribute, outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _exported(tree) -> set:
    """The strings of a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported_from(module: str) -> set:
    """Names the other modules import from module (relative imports, one level)."""
    return {alias.name for name, tree in TREES.items() if name != module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


def _used_elsewhere(module: str) -> set:
    """Names read or imported by the other modules of the package."""
    reads = set()
    for name, tree in TREES.items():
        if name != module:
            reads |= _reads(tree)
    return reads | _imported_from(module) | _exported(TREES[module])


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _reads(tree) | _imported_from(module) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{module}.py imports names it never uses: {unused}"


def _private_definitions(tree):
    """(name, defining node) for each private module-level function, class or variable."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_module_level_name_is_referenced(module):
    tree = TREES[module]
    elsewhere = _used_elsewhere(module)
    dead = [name for name, node in _private_definitions(tree)
            if name not in elsewhere and name not in _reads(tree, skip=node)]
    assert not dead, f"{module}.py defines private names nothing references: {dead}"
