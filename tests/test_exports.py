import importlib
import pkgutil

import pytest

import qgharm

MODULES = sorted(m.name for m in pkgutil.iter_modules(qgharm.__path__))


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
