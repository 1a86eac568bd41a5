"""Acceptance gate: each test prints one pass/fail line for its criterion.

Tolerances are pinned here on purpose; loosening them is a contract change,
not a test fix.
"""

import json
import sys
import time
from fractions import Fraction

import numpy as np

from qgharm import cli
from qgharm.catalog import EXAMPLE_NAMES, get_example
from qgharm.convolution import convolve
from qgharm.duality import (
    biduality_check,
    build_dual,
    fourier_coeffs,
    pentagon_residual,
    plancherel_check,
)
from qgharm.lp import (
    base_space,
    conjugate_exponent,
    dual_space,
    lp_norm,
    lp_norms_batch,
    young_check,
    young_exponent,
)
from qgharm.sharpness import estimate_best_constant_hy, estimate_best_constant_young
from qgharm.structures import (
    bipartial_isometry_check,
    biprojection_iff_grouplike,
    bishift_construct,
    bishift_theorem_check,
    enumerate_group_like_projections,
    enumerate_left_shifts,
    glpbi_checks,
    range_projection_of_fourier,
)
from qgharm.suq2 import certified_bound, counterexample_report

YOUNG_EXPONENTS = (1.0, 4.0 / 3.0, 3.0 / 2.0, 2.0)
HY_EXPONENTS = (1.0, 4.0 / 3.0, 2.0)


def _report(num: int, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    sys.__stdout__.write(f"criterion {num}: {word} ({detail})\n")
    sys.__stdout__.flush()


def _seeded_pairs(g, count, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, g.dim)) + 1j * rng.standard_normal((count, g.dim))
    y = rng.standard_normal((count, g.dim)) + 1j * rng.standard_normal((count, g.dim))
    return x, y


def test_criterion_1_axioms_on_the_whole_catalog():
    start = time.monotonic()
    worst = 0.0
    from qgharm.core import verify_axioms
    for name in EXAMPLE_NAMES:
        rep = verify_axioms(get_example(name), tol=1e-10)
        worst = max(worst, *rep.residuals.values())
        assert rep.holds, f"{name}: {rep.failing()}"
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"worst residual {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_duality_stack():
    worst = {"pentagon": 0.0, "conjugation": 0.0, "plancherel": 0.0,
             "biduality": 0.0}
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        # one residual certifies the pentagon and the conjugation form
        residual = pentagon_residual(pair)
        worst["pentagon"] = max(worst["pentagon"], residual)
        worst["conjugation"] = max(worst["conjugation"], residual)
        pl = plancherel_check(pair)
        worst["plancherel"] = max(worst["plancherel"], *pl.residuals.values())
        bd = biduality_check(g)
        worst["biduality"] = max(worst["biduality"], *bd.residuals.values())
    ok = (worst["pentagon"] <= 1e-9 and worst["conjugation"] <= 1e-10
          and worst["plancherel"] <= 1e-9 and worst["biduality"] <= 1e-8)
    _report(2, ok, ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert ok


def test_criterion_3_young_inequality():
    start = time.monotonic()
    worst_ratio = 0.0
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        sp = base_space(g)
        xs, ys = _seeded_pairs(g, 1000, seed=42)
        convs = np.stack([convolve(g, xs[i], ys[i]).coeffs for i in range(1000)])
        norms_x = {p: lp_norms_batch(sp, xs, p) for p in YOUNG_EXPONENTS}
        norms_y = {q: lp_norms_batch(sp, ys, q) for q in YOUNG_EXPONENTS}
        norms_c = {}
        for p in YOUNG_EXPONENTS:
            for q in YOUNG_EXPONENTS:
                r = young_exponent(p, q)
                if r not in norms_c:
                    norms_c[r] = lp_norms_batch(sp, convs, r)
                ratios = norms_c[r] / (norms_x[p] * norms_y[q])
                worst_ratio = max(worst_ratio, float(np.max(ratios)))
    random_ok = worst_ratio <= 1.0 + 1e-9

    # equality at (h, h) for every enumerated group-like projection
    eq_gap = 0.0
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        for cert in enumerate_group_like_projections(g):
            h = cert.details["element"].coeffs
            for p in YOUNG_EXPONENTS:
                for q in YOUNG_EXPONENTS:
                    rep = young_check(g, h, h, p, q)
                    eq_gap = max(eq_gap, abs(rep.details["ratio"] - 1.0))

    # equality at (R(x), x) for every certified coset shift on six points
    g6 = get_example("s3-function")
    shifts_seen = 0
    for cert in enumerate_group_like_projections(g6):
        for s in enumerate_left_shifts(g6, cert.details["element"]):
            x = s.details["element"].coeffs
            rx = g6.antipode @ x
            shifts_seen += 1
            for p in YOUNG_EXPONENTS:
                for q in YOUNG_EXPONENTS:
                    rep = young_check(g6, rx, x, p, q)
                    eq_gap = max(eq_gap, abs(rep.details["ratio"] - 1.0))
    elapsed = time.monotonic() - start
    ok = random_ok and eq_gap <= 1e-9 and shifts_seen == 18 and elapsed < 60.0
    _report(3, ok, f"max ratio {worst_ratio:.12f}, equality gap {eq_gap:.2e}, "
                   f"{shifts_seen} shifts, {elapsed:.1f}s")
    assert ok


def test_criterion_4_hausdorff_young():
    worst_ratio = 0.0
    eq_gap = 0.0
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        bsp, dsp = base_space(g), dual_space(pair)
        rng = np.random.default_rng(42)
        xs = rng.standard_normal((1000, g.dim)) + 1j * rng.standard_normal((1000, g.dim))
        fs = np.stack([fourier_coeffs(pair, xs[i]) for i in range(1000)])
        for p in HY_EXPONENTS:
            pc = conjugate_exponent(p)
            ratios = lp_norms_batch(dsp, fs, pc) / lp_norms_batch(bsp, xs, p)
            worst_ratio = max(worst_ratio, float(np.max(ratios)))
        for cert in enumerate_group_like_projections(g):
            h = cert.details["element"].coeffs
            phi_h = cert.details["haar_value"]
            for p in HY_EXPONENTS:
                pc = conjugate_exponent(p)
                lhs = lp_norm(dsp, fourier_coeffs(pair, h), pc)
                rhs = lp_norm(bsp, h, p)
                eq_gap = max(eq_gap, abs(lhs - phi_h ** (1.0 - 1.0 / pc)),
                             abs(rhs - phi_h ** (1.0 / p)),
                             abs(lhs - rhs))
    ok = worst_ratio <= 1.0 + 1e-9 and eq_gap <= 1e-9
    _report(4, ok, f"max ratio {worst_ratio:.12f}, group-like gap {eq_gap:.2e}")
    assert ok


def test_criterion_5_projection_machinery():
    conv_idem = 0.0
    glpbi_worst = 0.0
    bipartial_worst = 0.0
    for name in EXAMPLE_NAMES:
        g = get_example(name)
        pair = build_dual(g)
        certs = enumerate_group_like_projections(g)
        for cert in certs:
            h = cert.details["element"].coeffs
            conv_idem = max(conv_idem, float(np.max(np.abs(
                convolve(g, h, h).coeffs - cert.details["haar_value"] * h))))
            rep = glpbi_checks(pair, [cert], 1e-9)[0]
            assert rep.holds, (name, rep.details)
            glpbi_worst = max(glpbi_worst, *rep.residuals.values())
            shifts = enumerate_left_shifts(g, cert.details["element"])
            assert shifts, (name, cert.details["haar_value"])
            for s in shifts:
                brep = bipartial_isometry_check(pair, s.details["element"],
                                                cert.details["element"])
                assert brep.holds, (name, brep.details)
                bipartial_worst = max(bipartial_worst, *brep.residuals.values())

    # certificate equivalence over every projection
    sweep_ok = True
    for name in EXAMPLE_NAMES:
        pair = build_dual(get_example(name))
        rep = biprojection_iff_grouplike(pair)
        sweep_ok = sweep_ok and rep.holds and not rep.details["disagreements"]

    # bi-shift extremality on four and six points
    bishift_gap = 0.0
    pair4 = build_dual(get_example("z4-function"))
    h4 = np.array([1.0, 0.0, 1.0, 0.0])
    xh4 = np.array([0.0, 1.0, 0.0, 1.0])
    ht4 = range_projection_of_fourier(pair4, h4)
    x4 = bishift_construct(pair4, xh4, pair4.base.unit, ht4, h4)
    rep4 = bishift_theorem_check(pair4, x4)
    assert rep4.holds, rep4.details
    bishift_gap = max(bishift_gap, *rep4.residuals.values())
    pair6 = build_dual(get_example("s3-function"))
    h6 = np.zeros(6)
    h6[[0, 3, 4]] = 1.0
    xh6 = np.zeros(6)
    xh6[[1, 2, 5]] = 1.0
    ht6 = range_projection_of_fourier(pair6, h6)
    x6 = bishift_construct(pair6, xh6, pair6.base.unit, ht6, h6)
    rep6 = bishift_theorem_check(pair6, x6)
    assert rep6.holds, rep6.details
    bishift_gap = max(bishift_gap, *rep6.residuals.values())

    ok = (conv_idem <= 1e-12 and glpbi_worst <= 1e-9 and sweep_ok
          and bipartial_worst <= 1e-9 and bishift_gap <= 1e-9)
    _report(5, ok, f"idempotent {conv_idem:.2e}, image {glpbi_worst:.2e}, "
                   f"bipartial {bipartial_worst:.2e}, bishift {bishift_gap:.2e}, "
                   f"equivalence {'clean' if sweep_ok else 'BROKEN'}")
    assert ok


def test_criterion_6_sharpness_search():
    start = time.monotonic()
    g = get_example("z2-function")
    young_rep = estimate_best_constant_young(g, 4.0 / 3.0, 4.0 / 3.0,
                                             restarts=32, iters=2000, seed=42)
    young_elapsed = time.monotonic() - start
    hy_rep = estimate_best_constant_hy(g, 2.0, restarts=8, iters=400, seed=42)
    young_ok = abs(young_rep.constant_estimate - 1.0) <= 1e-3 and young_elapsed < 60.0
    hy_ok = abs(hy_rep.constant_estimate - 1.0) <= 1e-9
    ok = young_ok and hy_ok
    _report(6, ok, f"young {young_rep.constant_estimate:.12f} in {young_elapsed:.1f}s, "
                   f"plancherel {hy_rep.constant_estimate:.12f}")
    assert ok


def test_criterion_7_symbolic_counterexample():
    start = time.monotonic()
    identity_ok = all(counterexample_report(n, Fraction(1, 2)).holds
                      for n in (1, 2, 3))
    bound_ok = (certified_bound(1, Fraction(1, 2)) == Fraction(80, 21)
                and certified_bound(2, Fraction(1, 2)) > 10)
    growth_ok = True
    for mu in (Fraction(1, 2), Fraction(3, 4)):
        vals = [certified_bound(n, mu) for n in range(1, 5)]
        growth_ok = growth_ok and all(a < b for a, b in zip(vals, vals[1:]))
    elapsed = time.monotonic() - start
    ok = identity_ok and bound_ok and growth_ok and elapsed < 30.0
    _report(7, ok, f"identities exact, L(1,1/2)=80/21, growth strict, {elapsed:.2f}s")
    assert ok


def test_criterion_8_deterministic_reports(capsys):
    outputs = []
    for _ in range(2):
        code = cli.run(["verify", "--example", "s3-group", "--seed", "42"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    same_verify = outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code = cli.run(["suq2", "--n", "1", "--mu-num", "1", "--mu-den", "2"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    same_suq2 = outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    ok = same_verify and same_suq2 and doc["tool_version"] == "0.1.0"
    _report(8, ok, "byte-identical JSON on reruns")
    assert ok
