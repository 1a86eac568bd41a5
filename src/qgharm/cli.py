"""Command-line front end.

Every subcommand prints a single deterministic JSON document to stdout
(sorted keys, two-space indent, trailing newline) and a short human
summary to stderr. Exit codes: 0 when every check holds, 2 when a
mathematical check fails, 1 for usage or construction errors, including a
sample count or search budget below 1. The QG_SEED environment variable
overrides the default of 42 for every --seed flag that is not given; it
must then be an integer. An explicit flag wins over the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import catalog
from .core import json_dumps, verify_axioms
from .duality import (
    biduality_check,
    build_dual,
    comult_conjugation_residual,
    pentagon_residual,
    plancherel_check,
)
from .errors import AxiomFailure, BadFlags, BadParameters, QgharmError
from .lp import base_space, dual_space, hausdorff_young_check, young_check
from .sharpness import (
    CEILING,
    estimate_best_constant_hy,
    estimate_best_constant_young,
    hunt_nongrouplike_biprojection,
)
from .structures import (
    biprojection_iff_grouplike,
    enumerate_group_like_projections,
    glpbi_check,
    is_biprojection,
    projection_candidates,
    verify_glp_properties,
)
from .suq2 import counterexample_report

TOOL_VERSION = "0.1.0"

__all__ = ["main", "build_parser", "run"]


def _default_seed() -> int:
    value = os.environ.get("QG_SEED", "42")
    try:
        return int(value)
    except ValueError:
        raise BadFlags(f"QG_SEED must be an integer, got {value!r}") from None


def _at_least_one(flag: str, value: int) -> None:
    """Refuse a run on zero evidence."""
    if value < 1:
        raise BadFlags(f"{flag} must be at least 1, got {value}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, keeping 2
    reserved for mathematical check failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _check(name: str, claim: str, lhs=None, rhs=None, residual=None,
           holds: bool = True, **extra) -> dict:
    entry = {
        "name": name,
        "claim": claim,
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "holds": bool(holds),
    }
    entry.update(extra)
    return entry


def _document(command: str, example, params: dict, seed, checks: list) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "command": command,
        "example": example,
        "params": params,
        "seed": seed,
        "elapsed_ms": None,
        "checks": checks,
    }


def _seeded_elements(g, samples: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((samples, g.dim))
            + 1j * rng.standard_normal((samples, g.dim)))


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _run_verify(args) -> dict:
    g = catalog.get_example(args.example)
    rep = verify_axioms(g, tol=args.tol)
    checks = [
        _check(name, "hopf-star-algebra-axioms", residual=float(value),
               rhs=args.tol, holds=float(value) <= args.tol)
        for name, value in sorted(rep.residuals.items())
    ]
    pair = build_dual(g)
    pres = pentagon_residual(pair)
    checks.append(_check("pentagon", "multiplicative-unitary",
                         residual=pres, rhs=1e-9, holds=pres <= 1e-9))
    conj = comult_conjugation_residual(pair)
    checks.append(_check("comultiplication-conjugation",
                         "multiplicative-unitary", residual=conj, rhs=1e-10,
                         holds=conj <= 1e-10))
    pl = plancherel_check(pair, samples=100, seed=args.seed)
    checks.append(_check("plancherel", "fourier-isometry",
                         residual=pl.max_residual, rhs=pl.tol,
                         holds=pl.passed))
    bid = biduality_check(g)
    checks.append(_check("biduality", "double-dual-identification",
                         residual=bid.max_residual, rhs=bid.tol,
                         holds=bid.passed))
    return _document("verify", args.example,
                     {"tol": args.tol, "samples": 100}, args.seed, checks)


def _worst_ratio(name: str, claim: str, reports) -> dict:
    """One check entry for the largest lhs/rhs ratio over seeded samples."""
    worst_ratio, worst_index = 0.0, -1
    for i, rep in enumerate(reports):
        if rep.ratio > worst_ratio:
            worst_ratio, worst_index = rep.ratio, i
    holds = worst_ratio <= 1.0 + 1e-9
    entry = _check(name, claim, lhs=worst_ratio, rhs=1.0,
                   residual=max(0.0, worst_ratio - 1.0), holds=holds)
    if not holds:
        entry["witness"] = {"sample_index": worst_index, "ratio": worst_ratio}
    return entry


def _run_young(args) -> dict:
    _at_least_one("--samples", args.samples)
    g = catalog.get_example(args.example)
    sp = base_space(g)
    elems = _seeded_elements(g, 2 * args.samples, args.seed)
    entry = _worst_ratio(
        "young-inequality", "convolution-norm-bound",
        (young_check(g, elems[2 * i], elems[2 * i + 1], args.p, args.q,
                     space=sp) for i in range(args.samples)))
    return _document("young", args.example,
                     {"p": args.p, "q": args.q, "samples": args.samples},
                     args.seed, [entry])


def _run_hausdorff_young(args) -> dict:
    _at_least_one("--samples", args.samples)
    g = catalog.get_example(args.example)
    pair = build_dual(g)
    bsp, dsp = base_space(g), dual_space(pair)
    elems = _seeded_elements(g, args.samples, args.seed)
    entry = _worst_ratio(
        "hausdorff-young-inequality", "fourier-norm-bound",
        (hausdorff_young_check(pair, x, args.p, bsp, dsp) for x in elems))
    return _document("hausdorff-young", args.example,
                     {"p": args.p, "samples": args.samples}, args.seed,
                     [entry])


def _run_structures(args) -> dict:
    g = catalog.get_example(args.example)
    pair = build_dual(g)
    checks = []
    certs = enumerate_group_like_projections(g, tol=args.tol)
    for idx, cert in enumerate(certs):
        h = cert.element
        props = verify_glp_properties(g, h, tol=args.tol)
        checks.append(_check(
            f"group-like-{idx}-properties", "group-like-projection",
            residual=props.max_residual, rhs=props.tol, holds=props.passed,
            coeffs=[[float(c.real), float(c.imag)] for c in h.coeffs],
            haar_value=cert.haar_value))
        bi = is_biprojection(pair, h, tol=args.tol)
        checks.append(_check(
            f"group-like-{idx}-biprojection", "fourier-multiple-of-projection",
            residual=bi.max_residual, rhs=bi.tol, holds=bi.passed,
            multiple=bi.details["multiple"]))
        gb = glpbi_check(pair, h, tol=args.tol)
        checks.append(_check(
            f"group-like-{idx}-fourier-image", "dual-group-like-and-weight",
            residual=gb.max_residual, rhs=gb.tol, holds=gb.passed))
    sweep = biprojection_iff_grouplike(
        pair, projection_candidates(g, seed=args.seed), tol=args.tol)
    checks.append(_check(
        "biprojection-iff-group-like", "certificate-equivalence",
        residual=sweep.max_residual, rhs=0.0, holds=sweep.passed,
        projections_checked=sweep.details["projections_checked"]))
    return _document("structures", args.example, {"tol": args.tol},
                     args.seed, checks)


def _run_sharpness(args) -> dict:
    g = catalog.get_example(args.example)
    if args.kind == "young":
        rep = estimate_best_constant_young(
            g, args.p, args.q, restarts=args.restarts, iters=args.iters,
            seed=args.seed)
    else:
        rep = estimate_best_constant_hy(
            g, args.p, restarts=args.restarts, iters=args.iters,
            seed=args.seed)
    entry = _check(
        f"best-constant-{args.kind}", "sharp-constant-estimate",
        lhs=rep.constant_estimate, rhs=1.0,
        residual=max(0.0, rep.constant_estimate - 1.0),
        holds=rep.constant_estimate <= 1.0 + CEILING,
        converged=rep.converged, restarts_used=rep.restarts_used,
        iterations=rep.iterations,
        argmax=[[[float(c.real), float(c.imag)] for c in a.coeffs]
                for a in rep.argmax])
    params = {"kind": args.kind, "p": args.p, "restarts": args.restarts,
              "iters": args.iters}
    if args.kind == "young":
        params["q"] = args.q
    return _document("sharpness", args.example, params, args.seed, [entry])


def _run_suq2(args) -> dict:
    if args.mu_den == 0:
        raise BadParameters("--mu-den must be nonzero")
    mu = Fraction(args.mu_num, args.mu_den)
    rep = counterexample_report(args.n, mu)
    entry = _check(
        "convolution-unbounded-certificate", "exact-lower-bound",
        lhs=rep.bound_decimal, rhs=None, residual=None,
        holds=rep.identity_holds,
        bound_numerator=str(rep.bound.numerator),
        bound_denominator=str(rep.bound.denominator))
    return _document("suq2", None,
                     {"n": args.n, "mu": f"{mu.numerator}/{mu.denominator}"},
                     None, [entry])


def _run_hunt(args) -> dict:
    _at_least_one("--budget", args.budget)
    g = catalog.get_example(args.example)
    rep = hunt_nongrouplike_biprojection(g, budget=args.budget,
                                         seed=args.seed, iters=args.iters)
    entry = _check(
        "non-group-like-biprojection-hunt", "certificate-equivalence",
        lhs=float(len(rep.candidates)), rhs=0.0,
        residual=float(len(rep.candidates)), holds=not rep.candidates,
        candidates=list(rep.candidates), near_misses=list(rep.near_misses),
        group_like_hits=rep.group_like_hits, disclaimer=rep.disclaimer)
    return _document("hunt", args.example,
                     {"budget": args.budget, "iters": args.iters},
                     args.seed, [entry])


def _run_catalog(args) -> dict:
    doc = _document("catalog", None, {}, None, [])
    doc["examples"] = [catalog.example_summary(name)
                       for name in catalog.EXAMPLE_NAMES]
    return doc


def _run_all(args) -> dict:
    names = [args.example] if args.example else list(catalog.EXAMPLE_NAMES)
    checks = []

    def add(prefix: str, run, **flags) -> None:
        for c in run(argparse.Namespace(**flags))["checks"]:
            c["name"] = f"{prefix}:{c['name']}"
            checks.append(c)

    for name in names:
        add(name, _run_verify, example=name, tol=args.tol, seed=args.seed)
        add(name, _run_young, example=name, p=4.0 / 3.0, q=4.0 / 3.0,
            samples=args.samples, seed=args.seed)
        add(name, _run_hausdorff_young, example=name, p=4.0 / 3.0,
            samples=args.samples, seed=args.seed)
        add(name, _run_structures, example=name, tol=args.tol, seed=args.seed)
        add(name, _run_hunt, example=name, budget=args.budget, iters=200,
            seed=args.seed)
    add("suq2", _run_suq2, n=1, mu_num=1, mu_den=2)
    return _document("all", args.example,
                     {"tol": args.tol, "samples": args.samples,
                      "budget": args.budget}, args.seed, checks)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qgharm",
                     description="Harmonic analysis checks on finite "
                                 "quantum groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_example(p):
        p.add_argument("--example", required=True,
                       choices=list(catalog.EXAMPLE_NAMES))

    p = sub.add_parser("verify", help="Hopf *-algebra and duality axioms")
    add_example(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser("young", help="Young convolution inequality on "
                                     "seeded random pairs")
    add_example(p)
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_young)

    p = sub.add_parser("hausdorff-young", help="Hausdorff-Young inequality "
                                               "on seeded random elements")
    add_example(p)
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_hausdorff_young)

    p = sub.add_parser("structures", help="group-like projections, Fourier "
                                          "images, certificate equivalence")
    add_example(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_structures)

    p = sub.add_parser("sharpness", help="best-constant estimation")
    add_example(p)
    p.add_argument("--kind", choices=["young", "hy"], default="young")
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_sharpness)

    p = sub.add_parser("suq2", help="exact deformation-parameter "
                                    "counterexample certificate")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mu-num", type=int, default=1)
    p.add_argument("--mu-den", type=int, default=2)
    p.set_defaults(func=_run_suq2)

    p = sub.add_parser("hunt", help="search for a biprojection that is "
                                    "not group-like")
    add_example(p)
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_hunt)

    p = sub.add_parser("all", help="full suite on one or all examples")
    p.add_argument("--example", choices=list(catalog.EXAMPLE_NAMES))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--budget", type=int, default=4)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_all)

    p = sub.add_parser("catalog", help="list the built-in examples")
    p.set_defaults(func=_run_catalog)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        doc = args.func(args)
    except AxiomFailure as exc:   # raised by args.func, never by parsing
        doc = _document(args.command, getattr(args, "example", None), {},
                        getattr(args, "seed", None),
                        [_check("construction", "axioms", holds=False,
                                message=str(exc))])
        sys.stdout.write(json_dumps(doc))
        sys.stderr.write(f"FAIL construction: {exc}\n")
        return 2
    except QgharmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    sys.stdout.write(json_dumps(doc))
    ok = all(c["holds"] for c in doc["checks"])
    for c in doc["checks"]:
        status = "PASS" if c["holds"] else "FAIL"
        res = c.get("residual")
        tail = f" (residual={res:.3e})" if isinstance(res, float) else ""
        sys.stderr.write(f"{status} {c['name']}{tail}\n")
    sys.stderr.write("all checks hold\n" if ok
                     else "at least one check failed\n")
    return 0 if ok else 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
