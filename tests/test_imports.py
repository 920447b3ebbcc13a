import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "curvint")
                 .glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nos.sep\n") == [
        (1, "math")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def unloaded_private_names(sources: list) -> list:
    """Module-level names with one leading underscore that no source loads
    (as a name, an attribute or an imported name)."""
    trees = [ast.parse(source) for source in sources]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined.update(t.id for t in targets
                               if isinstance(t, ast.Name))
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return sorted(name for name in defined - loaded
                  if name.startswith("_") and not name.startswith("__"))


def test_the_check_finds_an_unloaded_private_name():
    assert unloaded_private_names([
        "_A = 1\n_b: int = 2\ndef _c(): pass\ndef _d(): pass\n"
        "class _E: pass\n__all__ = []\n",
        "from m import _c\nimport m\nm._d\n_b = 3\n"]) == ["_A", "_E", "_b"]


def test_every_private_module_level_name_is_loaded():
    assert unloaded_private_names([p.read_text() for p in PACKAGE]) == []
