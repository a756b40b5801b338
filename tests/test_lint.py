"""Static checks on the package source, by its syntax tree alone."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "metaprop").glob("*.py"))


def imported_names(tree):
    """(name, line) per name an import binds, but for ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def exported_names(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [element.value for element in node.value.elts]
    return []


def defined_names(tree):
    """The names the module's top level binds: definitions, assignments and imports."""
    names = {name for name, _ in imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(exported_names(tree))                   # a re-export is a use
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = sorted(set(exported_names(tree)) - defined_names(tree))
    assert missing == [], f"{path.name} lists undefined names in __all__"


def test_every_lazy_name_is_defined():
    package = SOURCES[0].parent
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_NAMES" for t in node.targets))
    missing = []
    for module, names in ast.literal_eval(table).items():
        defined = defined_names(ast.parse((package / f"{module}.py").read_text(encoding="utf-8")))
        missing += [f"{module}.{name}" for name in names.split() if name not in defined]
    assert missing == [], "metaprop._NAMES lists names its modules do not define"


def called_lines(tree, name):
    """The line of every call of ``name``, by its bare name or as an attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_every_fit_goes_through_fit_subsets():
    # one fitting path: selection.fit_subsets -> engine.fit_designs; fit_model is
    # the one-design entry point for callers outside the package
    stray = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stray += [f"{path.name} line {line}: fit_model" for line in called_lines(tree, "fit_model")]
        if path.stem not in ("engine", "selection"):
            stray += [f"{path.name} line {line}: fit_designs"
                      for line in called_lines(tree, "fit_designs")]
    assert stray == [], "a module fits outside selection.fit_subsets"
