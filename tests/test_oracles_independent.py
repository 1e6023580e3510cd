"""The oracles in tests/oracles.py stay independent of the library: they
import from expsample only its errors and its quadrature rules, the
restatements of the AST printer and the run-record digest use no library
name at all, and the package defines none of their names, so no library
path can be checked against itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import expsample

ORACLES = Path(__file__).with_name("oracles.py")
ALLOWED = {"errors", "quadrature"}


def _tree():
    return ast.parse(ORACLES.read_text(), filename=str(ORACLES))


def _imported_library_modules(tree):
    """The expsample submodules the file imports from; the bare package
    counts as the submodule ''."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "expsample":
                found += [alias.name for alias in node.names]
                continue
            names = [node.module]
        else:
            continue
        found += [name.partition(".")[2] for name in names
                  if name == "expsample" or name.startswith("expsample.")]
    return found


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _library_names_used(tree, function):
    """The names bound by an expsample import that the module-level
    function of tree reads, directly or through the file's other
    module-level functions."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.partition(".")[0] == "expsample"):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).partition(".")[0]
                         for alias in node.names
                         if alias.name.partition(".")[0] == "expsample")
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    used, todo, seen = set(), [function], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if node.id in functions and node.id not in seen:
                    todo.append(node.id)
    return used & bound


def test_oracles_import_only_errors_and_quadrature():
    modules = _imported_library_modules(_tree())
    assert modules, "oracles.py no longer imports from expsample"
    assert set(modules) <= ALLOWED, sorted(set(modules) - ALLOWED)


def test_library_defines_no_oracle_name():
    names = _defined_names(_tree())
    assert {"mellin_convolution", "series_oracle", "kantorovich_eval",
            "mellin_derivative", "walk_expression", "exact_lattice_moment",
            "to_source", "residuals", "config_digest"} <= names
    modules = [expsample] + [
        importlib.import_module(f"expsample.{info.name}")
        for info in pkgutil.iter_modules(expsample.__path__)]
    for module in modules:
        clash = names & set(vars(module))
        assert not clash, (module.__name__, sorted(clash))


def test_the_guard_sees_a_forbidden_import():
    tree = ast.parse("from expsample import operators\n"
                     "from expsample.kernels import Kernel\n"
                     "import expsample.quadrature\n")
    assert _imported_library_modules(tree) == [
        "operators", "kernels", "quadrature"]


@pytest.mark.parametrize("function", ["to_source", "config_digest"])
def test_restatements_use_no_library_name(function):
    # the printer dispatches on class names, as walk_expression does, and
    # the digest hashes the canonical JSON itself: neither reads the code
    # it checks, the parser's node types or the analysis module
    assert _library_names_used(_tree(), function) == set()


def test_the_guard_sees_a_library_name_in_a_restatement():
    tree = ast.parse("from expsample.analysis import config_record\n"
                     "import expsample.expr as ex\n"
                     "def _record(r):\n"
                     "    return config_record(**r)\n"
                     "def config_digest(r):\n"
                     "    return _record(r)['digest']\n"
                     "def to_source(node):\n"
                     "    return isinstance(node, ex.Num)\n")
    assert _library_names_used(tree, "config_digest") == {"config_record"}
    assert _library_names_used(tree, "to_source") == {"ex"}
