import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qgharm

PACKAGE = Path(qgharm.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(qgharm.__path__))

# Library entry points that no code in the package calls: tests run them as
# a paper claim or as a second route to a value the CLI computes.
ONLY_TESTS_CALL = {
    "bipartial_isometry_check",
    "bishift_construct",
    "bishift_theorem_check",
    "convolution_theorem_check",
    "convolve_functional_form",
    "dihedral_table",
    "enumerate_left_shifts",
    "functional_of",
    "holder_check",
    "norm_transport_check",
    "young_check",
}


@pytest.mark.parametrize("module",
                         ["qgharm"] + [f"qgharm.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, (module, missing)


def test_star_import_of_the_package():
    namespace = {}
    exec("from qgharm import *", namespace)
    assert set(qgharm.__all__) <= set(namespace)


def _public_definitions_without_a_caller() -> set:
    """Module-level public functions and classes whose name no other
    top-level statement of the package mentions. Imports and the strings of
    __all__ are not mentions."""
    defined, mentions = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            mentions.append((stmt, names))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[stmt.name] = stmt
    return {name for name, stmt in defined.items()
            if not any(name in names for other, names in mentions
                       if other is not stmt)}


def test_every_public_helper_has_a_caller_or_is_pinned():
    assert _public_definitions_without_a_caller() == ONLY_TESTS_CALL


def test_importing_the_cli_loads_every_module():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import qgharm.cli; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('qgharm.'))))")
    proc = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [f"qgharm.{m}" for m in MODULES]
