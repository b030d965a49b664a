"""Module layering (poly -> milnor -> tracer, arcs -> poly, the leaf _cores under both), the Kronecker packing
kept inside poly, pickling kept inside _cores, no scipy, and source syntax."""

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


def packing_names() -> tuple:
    """The methods of poly's `ClearedComponents` and the fields it sets on itself."""
    tree = ast.parse((PACKAGE / "poly.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ClearedComponents")
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    fields = {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "self"} - methods
    return methods, fields


@pytest.mark.parametrize("module", [m for m in MODULES if m != "poly"])
def test_only_poly_knows_the_packing(module):
    # the Kronecker packing is read only through poly.composed_coefficients;
    # a field name that is called (a dict's .values()) is some other method
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in import_nodes(module) for alias in node.names}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    methods, fields = packing_names()
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and (node.attr in methods or node.attr in fields and id(node) not in called)}
    assert "ClearedComponents" not in names
    assert not used


@pytest.mark.parametrize("module", [m for m in MODULES if m != "_cores"])
def test_only_cores_pickles(module):
    # map_on_cores sends only results across a pipe; an item that raised is
    # computed again by the caller, so no exception needs to pickle
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert "pickle" not in external_imports(module)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "__reduce__"]


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
