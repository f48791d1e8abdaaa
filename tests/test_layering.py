"""Import layering, unused and private imports, the one owner of the
tolerance threshold, and the inventory of test-only code in the robcls
sources, read with `ast`.

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
    [
        ("frames", {"modules", "graphs"}),
        ("simclass", {"repdims"}),
        ("classes", {p.stem for p in SOURCES} - {"classes", "tensor"}),
    ],
)
def test_layering(module, forbidden):
    """Frames sit below the module tables and the diagrams; simclass sits below repdims; classes
    imports no robcls module but tensor."""
    assert not _robcls_imports(_tree(SRC / f"{module}.py")) & forbidden


def test_cli_reads_named_structures_through_the_catalog():
    """`classify` gets a named structure only from `CatalogEntry.structure`: cli.py neither imports nor names the span constructors."""
    tree = _tree(SRC / "cli.py")
    imported = {a.name.split(".")[-1] for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    named = _used_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not (imported | named) & {"distribution_span", "robinson_from_span"}


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


# Functions and methods of src/robcls that nothing in src/robcls names: only the
# tests call them. Each is kept for the roadmap item that will give it a caller.
TEST_ONLY = {
    # residual oracles for the `classify --trace` diagnostics (item 1)
    "riemann_symmetry_residuals": "item 1",
    "second_bianchi_residual": "item 1",
    "hodge_relation_residuals": "item 1",
    "robinson_form_residuals": "item 1",
    # gauge and covariance transformations for the covariance oracle (item 4)
    "boost": "item 4",
    "null_rotate_about_k": "item 4",
    "conjugate": "item 4",
    # paper statements that become `regress` and `verify-dims` checks (item 9)
    "g_refined_maps": "item 9",
    "integrability_map_0_3_3": "item 9",
    "nilpotent_action_check": "item 9",
    # public API: exported by robcls/__init__.py, called only by the tests
    "adapted_blocks": "public API",
    "frame_field_bracket": "public API",
    "catalog_entries": "public API",
    "multi_robinson_equivalences": "public API",
}


def _definitions() -> dict:
    """Top-level functions and the non-dunder methods of top-level classes, by name."""
    out = {}
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef):
                out[node.name] = path.stem
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        out[sub.name] = f"{path.stem}.{node.name}"
    return out


def _named_in_sources() -> set:
    """Every name and attribute the sources read; a re-export in `__init__.py` is not a use."""
    named = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        named |= _used_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return named


def test_test_only_code_is_inventoried():
    """A definition that no source names is listed in TEST_ONLY, and every entry there is still such a definition."""
    named = _named_in_sources()
    unnamed = {name: where for name, where in _definitions().items() if name not in named}
    assert not {name: where for name, where in unnamed.items() if name not in TEST_ONLY}
    assert not TEST_ONLY.keys() - unnamed.keys()
