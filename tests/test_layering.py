"""The package's modules form one stack: each module imports only modules
below it, and only at the top of the module.  `printing` sits below
`ratexpr` and `forms`, which import it to render themselves."""

import ast
import pathlib

import poissonforms

# Bottom first.
LAYERS = ["report", "linalg", "scalars", "polynomials", "printing",
          "ratexpr", "forms", "parsing", "geometry", "bracket", "canonical",
          "complexforms", "onedim", "files", "cli", "__init__"]

SRC = pathlib.Path(poissonforms.__file__).parent


def _package_imports(source: str):
    """(imported module, imported at top level) for each import of the
    package in `source`, relative or absolute."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, id(node) in top
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else [node.module or ""])
            for name in names:
                if name.split(".")[0] == "poissonforms":
                    yield name.split(".")[-1], id(node) in top


def _upward(module: str, source: str) -> list:
    """The imports in `source`, the text of `module`, that reach its own
    layer or one above it, or that are made inside a function or class."""
    return [(module, target) for target, at_top in _package_imports(source)
            if not at_top or LAYERS.index(target) >= LAYERS.index(module)]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS)


def test_modules_import_only_lower_layers():
    assert [bad for module in LAYERS
            for bad in _upward(module, (SRC / f"{module}.py").read_text())
            ] == []


def test_upward_imports_are_found():
    assert _upward("forms", "from .geometry import _contract\n") == [
        ("forms", "geometry")]
    assert _upward("linalg", "import poissonforms.forms\n") == [
        ("linalg", "forms")]
    assert _upward("forms", "def f():\n    from .bracket import x\n") == [
        ("forms", "bracket")]
    assert _upward("forms", "def f():\n    from .printing import x\n") == [
        ("forms", "printing")]
