"""The benchmark's workloads, the correctness gate of each job, and the
pass runner.

A workload is a fixed list of jobs made from the benchmark seed. One pass
runs the list once, in one process, one job at a time: each job is one
call to the public ``qgharm.cli.run(argv)`` with stdout and stderr
captured. Every pass starts from fresh quantum-group objects, as one CLI
process does after import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from qgharm import catalog, cli

P = "1.3333333333333333"   # 4/3, the exponent of every job that takes one

WORKLOADS = ("sweep", "search", "exact")

# bound before any tracer can replace catalog.get_example with a wrapper
_clear_examples = catalog.get_example.cache_clear


@dataclass(frozen=True)
class Job:
    """One CLI call. ``command`` names it in the cmd.* metrics; ``pin``
    returns the problems it finds in the parsed document."""

    command: str
    argv: tuple
    pin: Optional[Callable[[dict], list]] = None


@dataclass
class JobResult:
    job: Job
    seconds: float
    exit_code: Optional[int]
    stdout: str
    error: str = ""
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


@dataclass
class PassResult:
    jobs: list

    @property
    def wall_s(self) -> float:
        """Seconds spent in the pass's cli.run calls."""
        return sum(r.seconds for r in self.jobs)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.jobs)


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------

def _first_check(doc: dict) -> dict:
    return doc["checks"][0]


def _pin_near_one(tol: float) -> Callable[[dict], list]:
    def pin(doc):
        value = _first_check(doc)["lhs"]
        if not abs(value - 1.0) <= tol:
            return [f"estimate {value!r} is not within {tol:g} of 1"]
        return []
    return pin


def _pin_no_candidates(doc: dict) -> list:
    found = _first_check(doc)["candidates"]
    return [f"hunt found {len(found)} candidates"] if found else []


def suq2_bound(n: int, mu: Fraction) -> Fraction:
    """mu^{-2n} (1 - mu^{2n+2}) / (1 - mu^{4n+2}), exact."""
    return mu ** (-2 * n) * (1 - mu ** (2 * n + 2)) / (1 - mu ** (4 * n + 2))


def _pin_suq2(n: int, mu: Fraction) -> Callable[[dict], list]:
    expected = suq2_bound(n, mu)

    def pin(doc):
        check = _first_check(doc)
        got = (check["bound_numerator"], check["bound_denominator"])
        want = (str(expected.numerator), str(expected.denominator))
        return [] if got == want else [f"bound {got} is not {want}"]
    return pin


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def make_jobs(workload: str, seed: int) -> list:
    """The job list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")

    def job_seed() -> str:
        return str(rng.randrange(2 ** 31))

    if workload == "sweep":
        jobs = []
        for name in catalog.EXAMPLE_NAMES:
            for command, extra in (("verify", ()),
                                   ("young", ("--samples", "100")),
                                   ("hausdorff-young", ("--samples", "100")),
                                   ("structures", ())):
                jobs.append(Job(command, (command, "--example", name, *extra,
                                          "--seed", job_seed())))
        return jobs
    if workload == "search":
        return [
            Job("sharpness-young",
                ("sharpness", "--kind", "young", "--example", "z2-function",
                 "--p", P, "--q", P, "--restarts", "8", "--iters", "6",
                 "--seed", job_seed()),
                _pin_near_one(1e-3)),
            Job("sharpness-hy",
                ("sharpness", "--kind", "hy", "--example", "s3-function",
                 "--p", P, "--restarts", "4", "--iters", "10",
                 "--seed", job_seed()),
                _pin_near_one(1e-6)),
            Job("hunt",
                ("hunt", "--example", "kac-paljutkin", "--budget", "2",
                 "--iters", "50", "--seed", job_seed()),
                _pin_no_candidates),
        ]
    if workload == "exact":
        jobs = []
        for n in (1, 2, 3, 4):
            den = rng.randint(2, 16)
            mu = Fraction(rng.randint(1, den - 1), den)
            jobs.append(Job("suq2", ("suq2", "--n", str(n), "--mu-num",
                                     str(mu.numerator), "--mu-den",
                                     str(mu.denominator)),
                            _pin_suq2(n, mu)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------

def call(job: Job) -> JobResult:
    """Run one job through ``cli.run``; never raises for a failing job."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(job.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing job is a failed job, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return JobResult(job, seconds, code, out.getvalue(),
                     error or err.getvalue()[-400:])


def check(result: JobResult) -> list:
    """Problems with a job's result: exit code, every check, the pin."""
    if result.exit_code != 0:
        return [f"exit code {result.exit_code}: {result.error.strip()}"]
    try:
        doc = json.loads(result.stdout)
        problems = [f"check {c['name']} does not hold"
                    for c in doc["checks"] if not c["holds"]]
        if doc["command"] != result.job.argv[0]:
            problems.append(f"document is for {doc['command']!r}")
        if result.job.pin is not None:
            problems.extend(result.job.pin(doc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable document: {type(exc).__name__}: {exc}"]
    return problems


def run_pass(jobs: list, on_job: Callable[[int], None] = None) -> PassResult:
    """Run every job once from fresh examples; check them after the pass.

    ``on_job(i)`` is called before job i starts, outside the job's time
    (the tracer stamps spans with it; the harness may calibrate in it).
    """
    results = []
    _clear_examples()
    for i, job in enumerate(jobs):
        if on_job is not None:
            on_job(i)
        results.append(call(job))
    for r in results:
        r.problems = check(r)
    return PassResult(results)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summary(values) -> dict:
    """Median, first and third quartile (statistics.quantiles, n=4) and
    count; with one value every quantile is that value."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def failed_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no job was attempted")
    return failed / attempted
