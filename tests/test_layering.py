"""Module layering (poly -> milnor -> tracer, arcs -> poly, the leaf _cores under both), no scipy, and source syntax."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "milnorarc"


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def import_nodes(module: str) -> list:
    """Every import statement of `module`, at any depth."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def sibling_imports(module: str) -> set:
    """Names of package modules that `module` imports, at any depth."""
    found = set()
    for node in import_nodes(module):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "milnorarc":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        else:
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "milnorarc" and len(parts) > 1:
                    found.add(parts[1])
    return found & set(MODULES)


def external_imports(module: str) -> set:
    """Top-level names of the absolute imports of `module`, at any depth."""
    found = set()
    for node in import_nodes(module):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("module, allowed", [
    ("poly", set()),
    ("milnor", {"poly"}),
    ("arcs", {"poly", "_cores"}),
    ("tracer", {"poly", "milnor", "_cores"}),
    ("_cores", set()),
])
def test_module_imports_only_lower_layers(module, allowed):
    assert sibling_imports(module) <= allowed


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    # numpy is the one numerical dependency; the arc search runs its own
    # Levenberg-Marquardt loop
    assert "scipy" not in external_imports(module)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_sources_parse_as_python_3_10(path):
    """The package declares requires-python >= 3.10.  This checks only that
    every module parses with the 3.10 grammar; it does not check that the
    stdlib APIs a module uses exist in 3.10."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
