"""Import layering, unused and private imports, and the one owner of the
tolerance threshold in the robcls sources, read with `ast`.

No linter is needed: each source file is parsed and its imports are compared
with the names it uses.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robcls"
SOURCES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _robcls_imports(tree: ast.Module) -> set:
    """Short names of the robcls modules a source file imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("robcls."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("robcls."))
    return out


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set:
    """Names a source file reads, counting string annotations and `__all__` entries."""
    used = _names(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize(
    "module, forbidden",
    [("frames", {"modules", "graphs"}), ("simclass", {"repdims"})],
)
def test_layering(module, forbidden):
    """Frames sit below the module tables and the diagrams; simclass sits below repdims."""
    assert not _robcls_imports(_tree(SRC / f"{module}.py")) & forbidden


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
    used = _used_names(tree)
    assert not {name: line for name, line in imported.items() if name not in used}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_imports(path):
    """A name with a leading underscore stays inside its module."""
    private = [
        (node.lineno, a.name)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("robcls"))
        for a in node.names
        if _private(a.name)
    ]
    assert not private


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_vanishing_rule_has_one_owner(path):
    """Only `tensor.Tolerance` turns a tolerance into a threshold; the rest call `vanishes`/`indeterminate`."""
    calls = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "threshold"
    ]
    assert path.name == "tensor.py" or not calls
