"""The package's modules form one stack: each module imports only modules
below it, and only at the top of the module.  `printing` sits below
`ratexpr` and `forms`, which import it to render themselves.  Every name
a module imports is used in it; `__init__` imports names to export
them."""

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


def _unused_imports(source: str) -> list:
    """The names bound by the top-level imports of `source` that no
    expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def _outside_imports(source: str) -> set:
    """The modules outside the package that `source` imports, by their
    top-level name, wherever the import is made."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out - {"poissonforms"}


def _readers(module: str, source: str, name: str) -> set:
    """The top-level definitions of `source`, the text of `module`, that
    read `name` under any name it is imported as, each as
    "module.definition"; "module" stands for a read outside them."""
    tree = ast.parse(source)
    names = {name} | {a.asname for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for a in node.names if a.name == name and a.asname}
    out = set()
    for node in tree.body:
        where = module
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where += "." + node.name
        if any(isinstance(n, ast.Name) and n.id in names
               or isinstance(n, ast.Attribute) and n.attr in names
               for n in ast.walk(node)):
            out.add(where)
    return out


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


def test_every_imported_name_is_used():
    assert [(module, name) for module in LAYERS if module != "__init__"
            for name in _unused_imports((SRC / f"{module}.py").read_text())
            ] == []


def test_unused_imports_are_found():
    assert _unused_imports(
        "from __future__ import annotations\n"
        "import random\nimport os.path\n"
        "from .bracket import random_form, _samples as draw\n"
        "def f(x: os.path.PathLike):\n    return draw(x)\n") == [
        "random", "random_form"]


def test_law_arguments_have_one_walk():
    """The generators and the sample stream are walked in `bracket`
    (`_law_arguments`, `_realization_arguments`), the one module that
    draws samples.  `__init__` imports `random_scalar` only to export
    it, which reads no name."""
    def source(module):
        return (SRC / f"{module}.py").read_text()

    def reading_modules(name):
        return {r.split(".")[0] for module in LAYERS
                for r in _readers(module, source(module), name)}

    assert reading_modules("_generators") == {"bracket"}
    assert reading_modules("_samples") == {"bracket"}
    assert reading_modules("random_scalar") == {"bracket"}
    assert [m for m in LAYERS if "random" in _outside_imports(source(m))
            ] == ["bracket"]


def test_coefficient_products_have_one_loop():
    """Poly.__mul__ and PolySum.add_product multiply coefficient dicts in
    the one loop `_mul_add`, which no other module reads."""
    source = (SRC / "polynomials.py").read_text()
    assert _readers("polynomials", source, "_mul_add") == {
        "polynomials.Poly", "polynomials.PolySum"}
    assert [m for m in LAYERS if m != "polynomials" and _readers(
        m, (SRC / f"{m}.py").read_text(), "_mul_add")] == []


def test_the_chart_unit_has_one_owner():
    """RatExpr._of stores chart.unit for every denominator equal to 1, so
    no other site maps a denominator onto it.  `_signed_sum` reads it to
    pick polynomial terms by identity, and `random_scalar` to build a
    polynomial expression."""
    assert {r for module in LAYERS
            for r in _readers(module, (SRC / f"{module}.py").read_text(),
                              "unit")} == {
        "ratexpr.RatExpr", "forms._signed_sum", "bracket.random_scalar"}


def test_readers_are_found():
    source = ("from .bracket import _samples as draw, _generators\n"
              "def f(x):\n    return draw(x)\n"
              "class C:\n    g = bracket._generators\n"
              "h = _generators\n")
    assert _readers("m", source, "_samples") == {"m.f"}
    assert _readers("m", source, "_generators") == {"m.C", "m"}
    assert _outside_imports("import random\nfrom os.path import join\n"
                            "from . import x\nimport poissonforms.forms\n"
                            "def f():\n    from random import Random\n"
                            ) == {"random", "os"}
