"""Command-line front end.

Every subcommand prints a single deterministic JSON document to stdout
(sorted keys, two-space indent, trailing newline) and a short human
summary to stderr. Exit codes: 0 when every check holds, 2 when a
mathematical check fails, 1 for usage or construction errors, including a
count below 1, --samples above 10^6, --restarts above 10^4, a --tol outside
0 < tol <= 1e-6, or a negative seed. The QG_SEED environment variable
overrides the default of 42 for every --seed flag that is not given; it
must then be an integer. An explicit flag wins over the environment.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, catalog
from .core import _encode_array, json_dumps, verify_axioms
from .duality import (
    biduality_check,
    build_dual,
    comult_conjugation_residual,
    pentagon_residual,
    plancherel_check,
)
from .errors import AxiomFailure, BadFlags, BadParameters, QgharmError
from .lp import hausdorff_young_sides, young_sides
from .report import Check, check
from .sharpness import (
    CEILING,
    estimate_best_constant_hy,
    estimate_best_constant_young,
)
from .structures import (
    ROOT_TOL,
    biprojection_iff_grouplike,
    glpbi_check,
    verify_glp_properties,
)
from .suq2 import counterexample_report

__all__ = ["main", "build_parser", "run"]


def _default_seed() -> int:
    value = os.environ.get("QG_SEED", "42")
    try:
        return int(value)
    except ValueError:
        raise BadFlags(f"QG_SEED must be an integer, got {value!r}") from None


def _count(flag: str, value: int) -> None:
    """Refuse zero evidence, and a count whose arrays would exhaust memory."""
    if value < 1:
        raise BadFlags(f"{flag} must be at least 1, got {value}")
    ceiling = {"--samples": 10**6, "--restarts": 10**4}.get(flag, float("inf"))
    if value > ceiling:
        raise BadFlags(f"{flag} must be at most {ceiling}, got {value}")


def _positive_tol(value: float) -> None:
    """Refuse a tolerance that no residual can meet, or one looser than the
    exact solver holds its own roots to, which would certify non-solutions."""
    if not 0 < value <= ROOT_TOL:
        raise BadFlags(f"--tol must be above 0 and at most {ROOT_TOL:g}, "
                       f"got {value}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, keeping 2
    reserved for mathematical check failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _entry(c: Check, **extra) -> dict:
    """The printed form of a check: its largest residual, and its rhs or,
    without one, the tol that residual is held to. details are not
    printed; extra adds keys or replaces the name."""
    return {"name": c.name, "claim": c.claim, "lhs": c.lhs,
            "rhs": c.tol if c.rhs is None else c.rhs,
            "residual": max(c.residuals.values(), default=None),
            "holds": c.holds, **extra}


def _document(command: str, example, params: dict, seed, checks: list) -> dict:
    return {
        "tool_version": __version__,
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
    _positive_tol(args.tol)
    g = catalog.get_example(args.example)
    rep = verify_axioms(g, tol=args.tol)
    pair = build_dual(g)
    checks = [check(name, rep.claim, {name: value}, rep.tol)
              for name, value in sorted(rep.residuals.items())] + [
        check("pentagon", "multiplicative-unitary",
              {"pentagon": pentagon_residual(pair)}, 1e-9),
        check("comultiplication-conjugation", "multiplicative-unitary",
              {"conjugation": comult_conjugation_residual(pair)}, 1e-10),
        plancherel_check(pair, samples=100, seed=args.seed),
        biduality_check(g),
    ]
    return _document("verify", args.example,
                     {"tol": args.tol, "samples": 100}, args.seed,
                     [_entry(c) for c in checks])


def _worst_ratio(name: str, claim: str, ratios: np.ndarray) -> dict:
    """Check entry for the largest ratio; the witness is its first sample."""
    worst_index = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst_index])
    c = check(name, claim, {"excess": max(0.0, worst_ratio - 1.0)}, 1e-9,
              lhs=worst_ratio, rhs=1.0)
    if c.holds:
        return _entry(c)
    return _entry(c, witness={"sample_index": worst_index,
                              "ratio": worst_ratio})


def _run_young(args) -> dict:
    _count("--samples", args.samples)
    g = catalog.get_example(args.example)
    elems = _seeded_elements(g, 2 * args.samples, args.seed)
    _, _, ratios = young_sides(g, elems[0::2], elems[1::2], args.p, args.q)
    entry = _worst_ratio("young-inequality", "convolution-norm-bound", ratios)
    return _document("young", args.example,
                     {"p": args.p, "q": args.q, "samples": args.samples},
                     args.seed, [entry])


def _run_hausdorff_young(args) -> dict:
    _count("--samples", args.samples)
    g = catalog.get_example(args.example)
    elems = _seeded_elements(g, args.samples, args.seed)
    _, _, ratios = hausdorff_young_sides(build_dual(g), elems, args.p)
    entry = _worst_ratio("hausdorff-young-inequality", "fourier-norm-bound",
                         ratios)
    return _document("hausdorff-young", args.example,
                     {"p": args.p, "samples": args.samples}, args.seed,
                     [entry])


def _run_structures(args) -> dict:
    _positive_tol(args.tol)
    pair = build_dual(catalog.get_example(args.example))
    sweep = biprojection_iff_grouplike(pair, tol=args.tol)
    checks = []
    for idx, (cert, bi) in enumerate(zip(
            sweep.details["group_like"],
            sweep.details["group_like_biprojection"])):
        checks += [
            _entry(verify_glp_properties(pair.base, cert, tol=args.tol),
                   name=f"group-like-{idx}-properties",
                   coeffs=_encode_array(cert.details["element"].coeffs),
                   haar_value=cert.details["haar_value"]),
            _entry(bi, name=f"group-like-{idx}-biprojection",
                   multiple=bi.details["multiple"]),
            _entry(glpbi_check(pair, cert, tol=args.tol),
                   name=f"group-like-{idx}-fourier-image"),
        ]
    checks.append(_entry(
        sweep, projections_checked=sweep.details["projections_checked"]))
    return _document("structures", args.example, {"tol": args.tol},
                     args.seed, checks)


def _run_sharpness(args) -> dict:
    _count("--restarts", args.restarts)
    _count("--iters", args.iters)
    g = catalog.get_example(args.example)
    if args.kind == "young":
        rep = estimate_best_constant_young(
            g, args.p, args.q, restarts=args.restarts, iters=args.iters,
            seed=args.seed)
    else:
        rep = estimate_best_constant_hy(
            g, args.p, restarts=args.restarts, iters=args.iters,
            seed=args.seed)
    entry = _entry(
        check(f"best-constant-{args.kind}", "sharp-constant-estimate",
              {"excess": max(0.0, rep.constant_estimate - 1.0)}, CEILING,
              lhs=rep.constant_estimate, rhs=1.0),
        converged=rep.converged, restarts_used=rep.restarts_used,
        iterations=rep.iterations,
        argmax=[_encode_array(a.coeffs) for a in rep.argmax])
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
    entry = _entry(
        Check("convolution-unbounded-certificate", "exact-lower-bound", {},
              None, holds=rep.identity_holds, lhs=rep.bound_decimal),
        bound_numerator=str(rep.bound.numerator),
        bound_denominator=str(rep.bound.denominator))
    return _document("suq2", None,
                     {"n": args.n, "mu": f"{mu.numerator}/{mu.denominator}"},
                     None, [entry])


def _run_hunt(args) -> dict:
    _count("--budget", args.budget)
    _count("--iters", args.iters)
    g = catalog.get_example(args.example)
    rep = biprojection_iff_grouplike(build_dual(g))
    candidates = [d for d in rep.details["disagreements"] if d["biprojection"]]
    entry = _entry(
        check("non-group-like-biprojection-hunt", "certificate-equivalence",
              {"candidates": len(candidates)}, 0.0,
              lhs=float(len(candidates))),
        candidates=candidates,
        group_like_hits=rep.details["biprojections"] - len(candidates))
    return _document("hunt", args.example,
                     {"budget": args.budget, "iters": args.iters},
                     args.seed, [entry])


def _run_catalog(args) -> dict:
    doc = _document("catalog", None, {}, None, [])
    doc["examples"] = catalog.list_examples()
    return doc


def _run_all(args) -> dict:
    _count("--samples", args.samples)
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
    add("suq2", _run_suq2, n=1, mu_num=1, mu_den=2)
    return _document("all", args.example,
                     {"tol": args.tol, "samples": args.samples}, args.seed,
                     checks)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="qgharm",
                     description="Harmonic analysis checks on finite "
                                 "quantum groups")
    # look the handler up by name at each call; the cached parser holds none
    parser.set_defaults(func=lambda args: globals()[
        "_run_" + args.command.replace("-", "_")](args))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_example(p):
        p.add_argument("--example", required=True,
                       choices=list(catalog.EXAMPLE_NAMES))

    p = sub.add_parser("verify", help="Hopf *-algebra and duality axioms")
    add_example(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("young", help="Young convolution inequality on "
                                     "seeded random pairs")
    add_example(p)
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("hausdorff-young", help="Hausdorff-Young inequality "
                                               "on seeded random elements")
    add_example(p)
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)

    no_effect = "echoed in the report; has no effect on the result"
    p = sub.add_parser("structures", help="group-like projections, Fourier "
                                          "images, certificate equivalence")
    add_example(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, help=no_effect)

    p = sub.add_parser("sharpness", help="best-constant estimation")
    add_example(p)
    p.add_argument("--kind", choices=["young", "hy"], default="young")
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("suq2", help="exact deformation-parameter "
                                    "counterexample certificate")
    p.add_argument("--n", type=int, default=1,
                   help="power of the certificate; 1 <= n <= 4")
    p.add_argument("--mu-num", type=int, default=1,
                   help="numerator of mu; 0 < |mu| < 1")
    p.add_argument("--mu-den", type=int, default=2,
                   help="denominator of mu; nonzero")

    p = sub.add_parser("hunt", help="biprojections that are not group-like, "
                                    "from the exact enumeration")
    add_example(p)
    p.add_argument("--budget", type=int, default=8, help=no_effect)
    p.add_argument("--iters", type=int, default=300, help=no_effect)
    p.add_argument("--seed", type=int, help=no_effect)

    p = sub.add_parser("all", help="full suite on one or all examples")
    p.add_argument("--example", choices=list(catalog.EXAMPLE_NAMES))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int)

    sub.add_parser("catalog", help="list the built-in examples")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        if getattr(args, "seed", 0) < 0:   # numpy's generators refuse it
            raise BadFlags(f"--seed and QG_SEED must not be negative, "
                           f"got {args.seed}")
        doc = args.func(args)
    except AxiomFailure as exc:   # raised by args.func, never by parsing
        doc = _document(args.command, getattr(args, "example", None), {},
                        getattr(args, "seed", None),
                        [_entry(Check("construction", "axioms", {}, None,
                                      holds=False), message=str(exc))])
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
