"""No module of the package imports a name it never uses, defines a
private module-level name that nothing references, or defines a public
function or class that only the tests use, so a deletion leaves nothing
dead behind. The package's __init__.py imports to re-export, so its
imports are left out."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracvide"
MODULES = sorted(PACKAGE.glob("*.py"))
# the code outside the package and its tests that may use a public name
USERS = sorted(path for folder in ("demos", "perfbench") for path in (ROOT / folder).rglob("*.py"))


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _loaded(tree):
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _bound_by_imports(tree):
    """(line, name) of each name an import statement binds, anywhere in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _private_definitions(tree):
    """(line, name) of each _-prefixed, non-dunder name defined at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _referenced(tree):
    """Every name the module reads, as a name, an attribute or an imported name."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_the_package_has_modules_to_check():
    assert {"analysis.py", "cli.py", "specfun.py"} <= {path.name for path in MODULES}
    assert {"demos", "perfbench"} <= {path.parent.name for path in USERS}


@pytest.mark.parametrize("module", [p.name for p in MODULES if p.name != "__init__.py"])
def test_every_imported_name_is_used(module):
    tree = _trees()[module]
    loaded = _loaded(tree)
    unused = [f"line {line}: {name}" for line, name in _bound_by_imports(tree)
              if name not in loaded]
    assert unused == []


@pytest.mark.parametrize("module", [p.name for p in MODULES])
def test_every_private_module_level_name_is_referenced(module):
    trees = _trees()
    loaded = _loaded(trees[module])
    # a private name another package module imports counts as used there,
    # where the import check applies
    imported = {alias.name for name, tree in trees.items() if name != module
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    dead = [f"line {line}: {name}" for line, name in _private_definitions(trees[module])
            if name not in loaded and name not in imported]
    assert dead == []


@pytest.mark.parametrize("module", [p.name for p in MODULES if p.name != "__init__.py"])
def test_every_public_name_is_used_outside_the_tests(module):
    # a use in another package module, or a second place in the module
    # itself, counts; __init__.py's re-export does not. The demos and the
    # benchmark, which may name a function in a string, count by word
    trees = _trees()
    used = set().union(*(_referenced(tree) for name, tree in trees.items()
                         if name != "__init__.py"))
    texts = [path.read_text(encoding="utf-8") for path in USERS]
    public = [(node.lineno, node.name) for node in trees[module].body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    unused = [f"line {line}: {name}" for line, name in public if name not in used
              and not any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert unused == []
