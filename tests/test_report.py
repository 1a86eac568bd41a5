import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgharm
from qgharm import duality, lp, structures
from qgharm.catalog import get_example
from qgharm.core import verify_axioms
from qgharm.report import Check, check, json_dumps
from reference import (_wrong_haar, holder_check, norm_transport_check,
                       weighted_space)


KP = get_example("kac-paljutkin")
KP_PAIR = duality.build_dual(KP)
_draws = np.random.default_rng(11).standard_normal((2, 2, KP.dim))
X, Y = _draws[0] + 1j * _draws[1]

# z4-function with the indicator H of the subgroup {0, 2} and of its coset
Z4 = get_example("z4-function")
Z4_PAIR = duality.build_dual(Z4)
H = np.array([1.0, 0.0, 1.0, 0.0])
COSET = np.array([0.0, 1.0, 0.0, 1.0])


def _young_under_a_sixteenth_of_phi():
    """young_check with L^p(G) taken under phi / 16, which makes
    ||x * y||_r / (||x||_p ||y||_q) 16 times larger. A Haar state scaled
    in the algebra itself would not do: x * y scales with it."""
    small = weighted_space(KP, KP.haar / 16.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "base_space", lambda g: small)
        return lp.young_check(KP, X, Y, 4.0 / 3.0, 4.0 / 3.0)


PASSING = {
    "verify_axioms": lambda: verify_axioms(KP),
    "plancherel_check": lambda: duality.plancherel_check(KP_PAIR),
    "biduality_check": lambda: duality.biduality_check(KP),
    "young_check": lambda: lp.young_check(KP, X, Y, 4.0 / 3.0, 1.5),
    "hausdorff_young_check":
        lambda: lp.hausdorff_young_check(KP_PAIR, X, 4.0 / 3.0),
    "norm_transport_check":
        lambda: norm_transport_check(KP, np.eye(KP.dim), X, 3.0),
    "holder_check": lambda: holder_check(KP, X, Y, 4.0 / 3.0),
    "is_group_like_projection":
        lambda: structures.group_like_checks(Z4, [H], 1e-9)[0],
    "verify_glp_properties":
        lambda: structures.glp_properties_checks(Z4, [H], 1e-9)[0],
    "is_biprojection":
        lambda: structures.biprojection_checks(Z4_PAIR, [H], 1e-9)[0],
    "glpbi_check": lambda: structures.glpbi_checks(Z4_PAIR, [H], 1e-9)[0],
    "biprojection_iff_grouplike":
        lambda: structures.biprojection_iff_grouplike(Z4_PAIR),
    "shift_check": lambda: structures.shift_check(Z4, COSET, H),
    "bipartial_isometry_check":
        lambda: structures.bipartial_isometry_check(Z4_PAIR, COSET, H),
    "bishift_theorem_check":
        lambda: structures.bishift_theorem_check(Z4_PAIR, COSET),
}

FAILING = {
    "verify_axioms": lambda: verify_axioms(_wrong_haar()),
    # the indicator of {1} is a projection, but {1} is no subgroup
    "is_group_like_projection":
        lambda: structures.group_like_checks(Z4, [np.eye(4)[1]], 1e-9)[0],
    "young_check": _young_under_a_sixteenth_of_phi,
}


def _assert_consistent(rep):
    assert type(rep) is Check
    assert rep.residuals
    assert rep.holds == (max(rep.residuals.values()) <= rep.tol)
    assert rep.failing() == {k: v for k, v in rep.residuals.items()
                             if v > rep.tol}


@pytest.mark.parametrize("name", sorted(PASSING))
def test_every_checker_returns_one_record_with_a_consistent_verdict(name):
    rep = PASSING[name]()
    _assert_consistent(rep)
    assert rep.holds, (name, rep.failing())
    assert rep.failing() == {}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_a_failing_check_names_its_failing_residuals(name):
    rep = FAILING[name]()
    _assert_consistent(rep)
    assert not rep.holds
    assert rep.failing()


@pytest.mark.parametrize("residuals", [{"a": 0.0, "b": math.nan},
                                       {"b": math.nan, "a": 0.0},
                                       {"b": math.nan}])
def test_a_nan_residual_fails_in_any_position(residuals):
    rep = check("t", "c", residuals, 1e-9)
    assert not rep.holds
    assert list(rep.failing()) == ["b"]


def test_a_check_without_residuals_is_refused():
    with pytest.raises(ValueError):
        check("t", "c", {}, 1e-9)


# ---------------------------------------------------------------------------
# the canonical JSON writer
# ---------------------------------------------------------------------------

def _stdlib_form(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     math.nan, math.inf, -math.inf, 1e16, 1e-7, 0.1]),
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d11e'),
)

_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=40)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_the_writer_gives_the_bytes_of_the_stdlib_encoder(doc):
    assert json_dumps(doc) == _stdlib_form(doc)


@pytest.mark.parametrize("doc", [{1: 0.0}, {"a": {None: 1}}, [{(1,): 2}]])
def test_the_writer_refuses_a_key_that_is_not_a_str(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        json_dumps(doc)


@pytest.mark.parametrize("value", [{1, 2}, np.bool_(True), np.int64(3),
                                   1j, b"x", np.zeros(2)])
def test_the_writer_refuses_what_the_stdlib_encoder_refuses(value):
    with pytest.raises(TypeError):
        _stdlib_form({"a": [value]})
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_dumps({"a": [value]})


def _loads_numpy(module: str) -> bool:
    """Whether importing module in a fresh interpreter loads numpy."""
    probe = (f"import sys; sys.path.insert(0, sys.argv[1]); "
             f"import {module}; print('numpy' in sys.modules)")
    package = Path(qgharm.__file__).parent.parent
    proc = subprocess.run([sys.executable, "-c", probe, str(package)],
                          capture_output=True, text=True, check=True)
    return proc.stdout != "False\n"


def test_importing_the_report_module_loads_no_numpy():
    assert not _loads_numpy("qgharm.report")


def test_importing_the_exact_engine_loads_no_numpy():
    # qgharm.suq2 returns a report.Check; a relative import pulling numpy
    # in would escape the absolute-import scan of tests/test_exports.py
    assert not _loads_numpy("qgharm.suq2")
