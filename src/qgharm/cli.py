"""Command-line front end.

Every subcommand prints a single deterministic JSON document to stdout
(sorted keys, two-space indent, trailing newline) and a short human
summary to stderr. Exit codes: 0 when every check holds, 2 when a
mathematical check fails, 1 for usage errors and refused inputs, including
a count below 1, --samples above 10^6, --restarts above 10^4, a --tol
outside 0 < tol <= 1e-6, or a negative seed. Each of the two error types
of qgharm.errors has its exit code: an AxiomFailure (the paper's identities
fail on the data) prints a failing `construction` check under the claim it
names and exits 2; any other QgharmError prints one `error:` line and exits
1. Every --seed defaults to 42, so a document depends only on its command
line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__, catalog
from .core import _encode_array, verify_axioms
from .duality import (
    PLANCHEREL_SAMPLES,
    biduality_check,
    build_dual,
    pentagon_residual,
    plancherel_check,
)
from .errors import AxiomFailure, QgharmError
from .lp import hausdorff_young_check, young_check
from .report import Check, check, json_dumps
from .sharpness import (
    CEILING,
    estimate_best_constant_hy,
    estimate_best_constant_young,
)
from .structures import (
    ROOT_TOL,
    biprojection_iff_grouplike,
    enumerate_biprojections,
    glp_properties_checks,
    glpbi_checks,
)
from .suq2 import counterexample_report

__all__ = ["main", "build_parser", "run"]


def _count(flag: str, value: int) -> None:
    """Refuse zero evidence, and a count whose arrays would exhaust memory."""
    if value < 1:
        raise QgharmError(f"{flag} must be at least 1, got {value}")
    ceiling = {"--samples": 10**6, "--restarts": 10**4}.get(flag, float("inf"))
    if value > ceiling:
        raise QgharmError(f"{flag} must be at most {ceiling}, got {value}")


def _positive_tol(value: float) -> None:
    """Refuse a tolerance that no residual can meet, or one looser than the
    exact solver holds its own roots to, which would certify non-solutions."""
    if not 0 < value <= ROOT_TOL:
        raise QgharmError(f"--tol must be above 0 and at most {ROOT_TOL:g}, "
                          f"got {value}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, keeping 2
    reserved for mathematical check failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _entry(c: Check, **extra) -> dict:
    """The printed form of a check: its largest residual (NaN if any is
    NaN), and its rhs or, without one, the tol that residual is held to.
    details are not printed; extra adds keys or replaces the name."""
    return {"name": c.name, "claim": c.claim, "lhs": c.lhs,
            "rhs": c.tol if c.rhs is None else c.rhs,
            "residual": max(c.residuals.values(), default=None,
                            key=lambda r: (math.isnan(r), r)),
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
    residual = pentagon_residual(pair)
    checks = [check(name, rep.claim, {name: value}, rep.tol)
              for name, value in sorted(rep.residuals.items())] + [
        check("pentagon", "multiplicative-unitary",
              {"pentagon": residual}, 1e-9),
        check("comultiplication-conjugation", "multiplicative-unitary",
              {"conjugation": residual}, 1e-10),
        plancherel_check(pair, seed=args.seed),
        biduality_check(g),
    ]
    return _document("verify", args.example,
                     {"tol": args.tol, "samples": PLANCHEREL_SAMPLES},
                     args.seed, [_entry(c) for c in checks])


def _sampled_entry(c: Check) -> dict:
    """Entry of a sampled inequality: lhs is the worst sample's ratio and
    rhs 1; a failing one names that sample as its witness."""
    ratio = c.details["ratio"]
    witness = {} if c.holds else {"witness": {
        "sample_index": c.details["sample_index"], "ratio": ratio}}
    return _entry(c, lhs=ratio, rhs=1.0, **witness)


def _run_young(args) -> dict:
    _count("--samples", args.samples)
    g = catalog.get_example(args.example)
    elems = _seeded_elements(g, 2 * args.samples, args.seed)
    entry = _sampled_entry(young_check(g, elems[0::2], elems[1::2], args.p,
                                       args.q))
    return _document("young", args.example,
                     {"p": args.p, "q": args.q, "samples": args.samples},
                     args.seed, [entry])


def _run_hausdorff_young(args) -> dict:
    _count("--samples", args.samples)
    g = catalog.get_example(args.example)
    elems = _seeded_elements(g, args.samples, args.seed)
    entry = _sampled_entry(hausdorff_young_check(build_dual(g), elems, args.p))
    return _document("hausdorff-young", args.example,
                     {"p": args.p, "samples": args.samples}, args.seed,
                     [entry])


def _run_structures(args) -> dict:
    _positive_tol(args.tol)
    pair = build_dual(catalog.get_example(args.example))
    sweep = biprojection_iff_grouplike(pair, tol=args.tol)
    certs = sweep.details["group_like"]
    checks = []
    for idx, (cert, props, bi, image) in enumerate(zip(
            certs, glp_properties_checks(pair.base, certs, args.tol),
            sweep.details["group_like_biprojection"],
            glpbi_checks(pair, certs, args.tol))):
        checks += [
            _entry(props, name=f"group-like-{idx}-properties",
                   coeffs=_encode_array(cert.details["element"].coeffs),
                   haar_value=cert.details["haar_value"]),
            _entry(bi, name=f"group-like-{idx}-biprojection",
                   multiple=bi.details["multiple"]),
            _entry(image, name=f"group-like-{idx}-fourier-image"),
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
              {"excess": np.maximum(rep.constant_estimate - 1.0, 0.0)},
              CEILING, lhs=rep.constant_estimate, rhs=1.0),
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
        raise QgharmError("--mu-den must be nonzero")
    mu = Fraction(args.mu_num, args.mu_den)
    rep = counterexample_report(args.n, mu)
    bound = rep.details["bound"]
    entry = _entry(rep, bound_numerator=str(bound.numerator),
                   bound_denominator=str(bound.denominator))
    return _document("suq2", None,
                     {"n": args.n, "mu": f"{mu.numerator}/{mu.denominator}"},
                     None, [entry])


def _run_hunt(args) -> dict:
    _count("--budget", args.budget)
    _count("--iters", args.iters)
    g = catalog.get_example(args.example)
    _, run, candidates = enumerate_biprojections(build_dual(g))
    entry = _entry(
        check("non-group-like-biprojection-hunt", "certificate-equivalence",
              {"candidates": len(candidates)}, 0.0,
              lhs=float(len(candidates))),
        candidates=candidates,
        group_like_hits=len(run.points) - len(candidates))
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
    sub = parser.add_subparsers(dest="command", required=True)

    def add_example(p):
        p.add_argument("--example", required=True,
                       choices=list(catalog.EXAMPLE_NAMES))

    p = sub.add_parser("verify", help="Hopf *-algebra and duality axioms")
    add_example(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("young", help="Young convolution inequality on "
                                     "seeded random pairs")
    add_example(p)
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("hausdorff-young", help="Hausdorff-Young inequality "
                                               "on seeded random elements")
    add_example(p)
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)

    no_effect = "echoed in the report; has no effect on the result"
    p = sub.add_parser("structures", help="group-like projections, Fourier "
                                          "images, certificate equivalence")
    add_example(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=42, help=no_effect)

    p = sub.add_parser("sharpness", help="best-constant estimation")
    add_example(p)
    p.add_argument("--kind", choices=["young", "hy"], default="young")
    p.add_argument("--p", type=float, default=4.0 / 3.0)
    p.add_argument("--q", type=float, default=4.0 / 3.0)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)

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
    p.add_argument("--seed", type=int, default=42, help=no_effect)

    p = sub.add_parser("all", help="full suite on one or all examples")
    p.add_argument("--example", choices=list(catalog.EXAMPLE_NAMES))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)

    sub.add_parser("catalog", help="list the built-in examples")

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:   # numpy's generators refuse it
            raise QgharmError(f"--seed must not be negative, got {args.seed}")
        doc = globals()["_run_" + args.command.replace("-", "_")](args)
    except AxiomFailure as exc:   # raised by a handler, never by parsing
        doc = _document(args.command, getattr(args, "example", None), {},
                        getattr(args, "seed", None),
                        [_entry(Check("construction", exc.claim, {}, None,
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
