import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qgharm
from qgharm import catalog, cli, report

PACKAGE = Path(qgharm.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(qgharm.__path__))

# Library entry points that no code in the package calls: tests run them as
# a paper claim or as a second route to a value the CLI computes.
ONLY_TESTS_CALL = {
    "antipode",
    "bipartial_isometry_check",
    "bishift_construct",
    "bishift_theorem_check",
    "counit",
    "dihedral_table",
    "enumerate_left_shifts",
    "haar",
    "normalize",
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


def _package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree: ast.Module) -> list:
    return [stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")]


def _public_definitions_without_a_caller() -> set:
    """Module-level public functions and classes of the package that no
    other top-level statement of it refers to. A reference is the bare name
    in its own module or in a module that imports it from there, or
    module.name; the strings of __all__ are not references."""
    trees = _package_trees()
    defined = {(mod, stmt.name): stmt for mod, tree in trees.items()
               for stmt in _public_definitions(tree)}
    referred = set()
    for mod, tree in trees.items():
        origin = {alias.asname or alias.name: (node.module, alias.name)
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  and node.level and node.module for alias in node.names}
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    ref = origin.get(node.id, (mod, node.id))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in trees):
                    ref = (node.value.id, node.attr)
                else:
                    continue
                if defined.get(ref) is not stmt:
                    referred.add(ref)
    return {name for mod, name in defined.keys() - referred}


def test_every_public_helper_has_a_caller_or_is_pinned():
    assert _public_definitions_without_a_caller() == ONLY_TESTS_CALL


def _defaulted_parameters_no_call_sets() -> set:
    """(function, parameter) for every defaulted parameter of a module-level
    public function of the package that no call in the package or the tests
    sets, by position or by keyword. A call is matched by the function's
    name; a *args or **kwargs argument sets every parameter."""
    params = {}
    for tree in _package_trees().values():
        for stmt in _public_definitions(tree):
            if isinstance(stmt, ast.FunctionDef):
                a = stmt.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                params[stmt.name] = (positional, {
                    *positional[len(positional) - len(a.defaults):],
                    *(p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None)})
    unset = {(name, p) for name, (_, defaulted) in params.items()
             for p in defaulted}
    sources = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name not in params:
                continue
            positional, _ = params[name]
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                unset = {(f, p) for f, p in unset if f != name}
                continue
            unset -= {(name, p) for p in positional[:len(node.args)]}
            unset -= {(name, k.arg) for k in node.keywords}
    return unset


def test_every_default_is_set_by_some_call():
    assert _defaulted_parameters_no_call_sets() == set()


def test_no_module_solves_by_least_squares():
    """Structure with a closed form is written in it, not fitted: no module
    of the package calls lstsq."""
    callers = sorted(mod for mod, tree in _package_trees().items()
                     for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and "lstsq" in (getattr(node.func, "attr", None),
                                     getattr(node.func, "id", None)))
    assert callers == []


def test_no_module_forms_a_kronecker_product():
    """The multiplicative unitary is certified on structure tensors: no
    module of the package forms a Kronecker product, so no (n^2, n^2)
    operator on the twofold GNS space."""
    callers = sorted(mod for mod, tree in _package_trees().items()
                     for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and "kron" in (getattr(node.func, "attr", None),
                                    getattr(node.func, "id", None)))
    assert callers == []


def test_the_runtime_imports_only_numpy_and_the_standard_library():
    """Every import of the package is relative, from the standard library
    or from numpy; qgharm.suq2 stays pure Python and imports no numpy."""
    outside = set()
    for mod, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            allowed = set(sys.stdlib_module_names) | (
                set() if mod == "suq2" else {"numpy"})
            outside |= {(mod, name) for name in names
                        if name.partition(".")[0] not in allowed}
    assert outside == set()


def test_private_names_cross_modules_only_from_core():
    """A module of the package takes an underscore name of another package
    module only from core, the shared kernel, whether by a relative import
    or as module._name; dunder names such as __version__ are not private."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__"))

    trees = _package_trees()
    crossing = set()
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing |= {(mod, node.module, alias.name)
                             for alias in node.names if private(alias.name)
                             and node.module != "core"}
            elif (isinstance(node, ast.Attribute) and private(node.attr)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in trees
                  and node.value.id not in ("core", mod)):
                crossing.add((mod, node.value.id, node.attr))
    assert crossing == set()


def test_every_error_type_is_told_apart_by_some_handler():
    """An exception type is kept only while an except clause of the package
    names it: the CLI maps each one it catches to an exit code."""
    defined = {(module, name) for module in MODULES
               for name, obj in vars(importlib.import_module(
                   f"qgharm.{module}")).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"qgharm.{module}"}
    assert {module for module, _ in defined} == {"errors"}
    caught = set()
    for tree in _package_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type:
                types = getattr(node.type, "elts", [node.type])
                caught |= {getattr(t, "id", None) or getattr(t, "attr", None)
                           for t in types}
    assert {name for _, name in defined} <= caught


def test_no_test_file_imports_another():
    """Tests share code only through tests/reference.py: no file of tests/
    or bench/tests imports a test module, and the reference module defines
    no test of its own."""
    imports = set()
    for path in sorted(TESTS.glob("*.py")) + sorted(
            (TESTS.parent / "bench" / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
            else:
                continue
            imports |= {(path.name, name) for name in names
                        if any(part.startswith("test_")
                               for part in name.split("."))}
    assert imports == set()
    reference = ast.parse((TESTS / "reference.py").read_text())
    assert [node.name for node in ast.walk(reference)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test")] == []


def test_importing_the_cli_loads_every_module():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import qgharm.cli; "
             "print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('qgharm.'))))")
    proc = subprocess.run([sys.executable, "-c", probe, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [f"qgharm.{m}" for m in MODULES]


# Package functions that the CLI sweep below never enters, each with the
# reason it stays. A function that loses its last runtime caller fails
# test_every_function_the_cli_sweep_skips_is_pinned until it is deleted or
# pinned here; one that gains a caller fails it until it leaves the list.
SHIFTS = "shift and bi-shift machinery: no subcommand certifies shifts yet"
SECOND_ROUTE = ("a second route to a value the CLI computes, called only by "
                "tests (ONLY_TESTS_CALL), or its helper")
ERROR_PATH = "an error path that no catalog example or sweep input takes"
REPR = "a __repr__ for error messages and pinned prints"
HOPF = ("SU_mu(2) Hopf structure beyond the certificate: counit and "
        "antipode, waiting for the exact Hopf identities")
ELEMENT_SUMS = ("element arithmetic of the tests' second routes; the "
                "certificate adds coefficients, not elements")
WORDS = ("words, products and Haar values of the tests' second routes; the "
         "certificate writes c^{2n}, c*^{2n}, a^{2n} and phi(c^{2n} c*^{2n}) "
         "in closed form")
NEVER_ENTERED = {
    "cli._Parser.error": ERROR_PATH + " (argparse usage errors)",
    "cli.main": "the console-script entry point; the sweep calls cli.run",
    "core.FiniteQuantumGroup.__repr__": REPR,
    "core.dihedral_table": SECOND_ROUTE,
    "core.dihedral_table.<locals>.idx": SECOND_ROUTE,
    "errors.AxiomFailure.__init__": ERROR_PATH + " (exit 2)",
    "lp._norms_at_large_p": ERROR_PATH + " (overflow at a large p)",
    "report.Check.failing": ERROR_PATH + " (names failing residuals)",
    "structures._disagreement": ERROR_PATH + " (a non-group-like "
                                "biprojection, which no example has)",
    "structures._partial_isometry_residual": SHIFTS,
    "structures._shift_relations": SHIFTS,
    "structures.bipartial_isometry_check": SHIFTS,
    "structures.bishift_construct": SHIFTS,
    "structures.bishift_theorem_check": SHIFTS,
    "structures.enumerate_left_shifts": SHIFTS,
    "structures.shift_check": SHIFTS,
    "suq2.Laurent.__add__": WORDS,
    "suq2.Laurent.__repr__": REPR,
    "suq2.Laurent.const": WORDS,
    "suq2.Monomial.__repr__": REPR,
    "suq2.MuRational.__add__": WORDS,
    "suq2.MuRational.__repr__": REPR,
    "suq2.MuRational.const": WORDS,
    "suq2.PolyElement.__add__": ELEMENT_SUMS,
    "suq2.PolyElement.__mul__": WORDS,
    "suq2.PolyElement.__repr__": REPR,
    "suq2.PolyElement.is_zero": ELEMENT_SUMS,
    "suq2._apply_antimultiplicative": HOPF,
    "suq2._times_pairs": ("Delta of a monomial with two or three runs, "
                          "a^k c*^m c^n; the certificate comultiplies c^{2n}"),
    "suq2.antipode": HOPF,
    "suq2.counit": HOPF,
    "suq2.haar": WORDS,
    "suq2.normalize": WORDS,
}


def _sweep() -> list:
    """The CLI sweep: every subcommand on every example, both sharpness
    kinds, suq2 at n = 1..4, all, catalog and three refusals."""
    argvs = []
    for name in catalog.EXAMPLE_NAMES:
        ex = ("--example", name)
        argvs += [("verify", *ex), ("young", *ex, "--samples", "10"),
                  ("hausdorff-young", *ex, "--samples", "10"),
                  ("structures", *ex), ("hunt", *ex)]
        argvs += [("sharpness", *ex, "--kind", kind, "--restarts", "2",
                   "--iters", "3") for kind in ("young", "hy")]
    argvs += [("suq2", "--n", str(n)) for n in range(1, 5)]
    argvs += [("all", "--samples", "10"), ("catalog",)]
    return argvs + [("suq2", "--n", "9"),
                    ("young", "--example", "z2-function", "--samples", "0"),
                    ("verify", "--example", "z2-function", "--tol", "1")]


def _print_the_sweep_entries() -> None:
    """Run the sweep in this process under a profile hook, and print its
    exit codes and the module.qualname of every package function it
    entered, as JSON."""
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(PACKAGE)):
            entered.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    codes = []
    sys.setprofile(profile)
    try:
        for argv in _sweep():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.run(list(argv)))
    finally:
        sys.setprofile(None)
    print(json.dumps({"codes": codes, "entered": sorted(entered)}))


def _package_functions() -> set:
    """module.qualname of every function the package defines, nested ones
    included; lambdas, comprehensions and class bodies are not counted."""
    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if (const.co_flags & inspect.CO_NEWLOCALS
                        and not const.co_name.startswith("<")):
                    yield const.co_qualname
                yield from walk(const)
    return {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in walk(compile(path.read_text(), str(path), "exec"))}


def test_every_function_the_cli_sweep_skips_is_pinned():
    # a fresh interpreter, so that no cache filled by another test hides a
    # function from the sweep
    probe = ("import sys; sys.path[:0] = sys.argv[1:]; import test_exports; "
             "test_exports._print_the_sweep_entries()")
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(PACKAGE.parent), str(TESTS)],
        capture_output=True, text=True, check=True)
    run = json.loads(proc.stdout)
    assert run["codes"] == [0] * (len(_sweep()) - 3) + [1, 1, 1]
    assert _package_functions() - set(run["entered"]) == set(NEVER_ENTERED)


def test_every_sweep_document_has_the_bytes_of_the_stdlib_encoder(
        monkeypatch):
    docs = []

    def recorded(doc):
        docs.append(doc)
        return report.json_dumps(doc)

    monkeypatch.setattr(cli, "json_dumps", recorded)
    for argv in _sweep():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.run(list(argv))
    assert len(docs) == len(_sweep()) - 3     # the refusals print none
    for doc in docs:
        assert report.json_dumps(doc) == (
            json.dumps(doc, sort_keys=True, indent=2) + "\n"), doc["command"]
