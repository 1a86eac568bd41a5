"""Measurement of one workload: untraced passes for the end-to-end
metrics, or untraced and traced passes for the per-layer metrics, and the
full record of the run.

Every time reported as a metric is adjusted to a reference machine speed.
A fixed calibration kernel, which no qgharm change touches, runs around
each set-up sample, around each pass, and between the jobs of an untraced
pass whenever CALIBRATE_EVERY_S has passed since the last calibration. A
measured time is multiplied by REFERENCE_CALIBRATION_S over the mean of
the two calibration times around it. On a shared machine whose speed
drifts within seconds, this keeps the figures of one commit steady; the
raw times stay in the record.

Import this after qgharm is importable from the checkout's src/
(bench/run.py arranges that and times the import).
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from fractions import Fraction

import numpy

from run import BLAS_THREAD_VARS, OUT, ROOT, SRC
from spans import LAYERS as MODULES, Tracer
from workloads import failed_frac, make_jobs, run_pass, summary

SETUP_REPEATS = 7
# a typical time of the calibration kernel on the reference machine (a
# 2-core Intel Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4 on OpenBLAS)
REFERENCE_CALIBRATION_S = 0.025
CALIBRATE_EVERY_S = 0.5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import qgharm.cli; "
                "print(repr(time.perf_counter() - t))")

LAYERS = (*MODULES, "numpy")
ALL = ("calls", "total_s", "self_s")
CALLS = ("calls",)
# span name -> the per-layer figures reported for it
SPAN_METRICS = {
    "duality.build_dual": ALL,
    "duality.pentagon_residual": ALL,
    "duality.comult_conjugation_residual": ALL,
    "duality.biduality_check": ALL,
    "duality.fourier_coeffs": ALL,
    "duality.fourier": ALL,
    "lp.weighted_space": ALL,
    "lp.spectral_data": ALL,
    "lp.lp_norm": CALLS,
    "lp.lp_norms_batch": CALLS,
    "convolution.convolve": ALL,
    "structures.enumerate_group_like_projections": ALL,
    "structures.projection_candidates": ALL,
    "structures.biprojection_iff_grouplike": ALL,
    "structures.is_group_like_projection": CALLS,
    "structures.is_biprojection": CALLS,
    "sharpness.estimate_best_constant_young": ALL,
    "sharpness.estimate_best_constant_hy": ALL,
    "sharpness.hunt_nongrouplike_biprojection": ALL,
    "core.verify_axioms": ALL,
    "catalog.get_example": ALL,
    "suq2.comultiply": ALL,
    "suq2.convolve_compact": ALL,
    "suq2.haar": ALL,
    "suq2.counterexample_report": ALL,
    "cli.build_parser": ALL,
    "cli.run": ("self_s",),
    "linalg.eig_hermitian": CALLS,
    "linalg.matrix_power": CALLS,
    "linalg.kron": CALLS,
    "linalg.range_projection": CALLS,
    "numpy.einsum": ALL,
    "numpy.linalg.eigh": ALL,
    "numpy.linalg.lstsq": ALL,
    "numpy.linalg.inv": CALLS,
    "numpy.kron": CALLS,
}
COMMANDS = ("verify", "young", "hausdorff-young", "structures",
            "sharpness-young", "sharpness-hy", "hunt")
REPORTS = ("sharpness.estimate_best_constant_young",
           "sharpness.estimate_best_constant_hy",
           "sharpness.hunt_nongrouplike_biprojection")


def end_to_end_units() -> dict:
    return {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for span, figures in SPAN_METRICS.items():
        for fig in figures:
            units[f"{span}.{fig}"] = "count" if fig == "calls" else "s"
    units["numpy.kron.bytes_out"] = "bytes"
    units["sharpness.iterations"] = "count"
    units["sharpness.converged_frac"] = "ratio"
    units["sharpness.evals_per_iteration"] = "evals/iter"
    units["hunt.useful_frac"] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    for command in COMMANDS:
        units[f"cmd.{command}_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# set-up and environment
# ---------------------------------------------------------------------------

_CAL_SYM = numpy.arange(64.0).reshape(8, 8)
_CAL_SYM = _CAL_SYM + _CAL_SYM.T
_CAL_TENSOR = numpy.arange(512, dtype=complex).reshape(8, 8, 8)


def calibration_s() -> float:
    """Seconds for a fixed mix of pure-Python integer and Fraction
    arithmetic and small numpy calls, the instruction mix of the
    workloads, in code outside qgharm."""
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    f = Fraction(1, 3)
    for i in range(1500):
        f = f * Fraction(i + 1, i + 2) + 1
    c = numpy.arange(8, dtype=complex)
    for _ in range(150):
        numpy.einsum("s,sij->ij", c, _CAL_TENSOR, optimize=True)
        numpy.linalg.eigh(_CAL_SYM)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Speed adjustment of a time measured between two calibrations."""
    return 2.0 * REFERENCE_CALIBRATION_S / (before + after)


def measure_setup(repeats: int, cal: list) -> list:
    """Seconds to import qgharm.cli in each of ``repeats`` fresh
    interpreters, measured inside each of them. Appends a calibration
    time to ``cal`` after each."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        cal.append(calibration_s())
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return summary(values)["median"]


def _job_records(jobs: list, passes: list) -> list:
    """Per job: argv, the sha256 of its stdout, whether every pass printed
    the same document, and its median raw seconds."""
    return [{"command": job.command, "argv": list(job.argv),
             "sha256": passes[0].jobs[i].sha256,
             "identical_across_passes":
                 len({p.jobs[i].sha256 for p in passes}) == 1,
             "raw_seconds_median": _median(p.jobs[i].seconds for p in passes)}
            for i, job in enumerate(jobs)]


def _failures(passes: list) -> list:
    return [{"pass": k, "argv": list(r.job.argv), "problems": r.problems}
            for k, p in enumerate(passes) for r in p.jobs if r.failed]


def _command_seconds(jobs: list, adjusted: list) -> dict:
    """{command: seconds per pass} for every command in COMMANDS, from the
    adjusted job times of each pass."""
    return {c: [sum(t for job, t in zip(jobs, times) if job.command == c)
                for times in adjusted] for c in COMMANDS}


def calibrated_pass(jobs: list, cal: list) -> tuple:
    """One untraced pass with calibrations between its jobs.

    ``cal`` ends with a calibration taken just before the call. Before a
    job, a calibration is appended when CALIBRATE_EVERY_S has passed since
    the last one; one more is appended after the pass. Returns the pass and
    each job's time adjusted by the calibrations around it.
    """
    last = [time.perf_counter()]
    before = []

    def calibrate(i):
        if time.perf_counter() - last[0] >= CALIBRATE_EVERY_S:
            cal.append(calibration_s())
            last[0] = time.perf_counter()
        before.append(len(cal) - 1)

    result = run_pass(jobs, on_job=calibrate)
    cal.append(calibration_s())
    return result, [r.seconds * scale(cal[k], cal[k + 1])
                    for r, k in zip(result.jobs, before)]


def run_untraced(jobs: list, seconds: float, cal: list) -> tuple:
    """Calibrated passes for ``seconds``: (passes, adjusted job times)."""
    passes, adjusted = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        result, times = calibrated_pass(jobs, cal)
        passes.append(result)
        adjusted.append(times)
    return passes, adjusted


def _report_figures(returns: list, lp_calls_by_job: dict) -> dict:
    """Search figures read from the returned Sharpness/Hunt reports."""
    iterations = converged = restarts = evals = useful = budget = 0
    for name, job, rep in returns:
        if name == "sharpness.hunt_nongrouplike_biprojection":
            useful += rep.group_like_hits + len(rep.candidates)
            budget += rep.budget
        else:
            iterations += rep.iterations
            converged += sum(rep.converged_per_restart)
            restarts += rep.restarts_used
            evals += lp_calls_by_job.get(job, 0)
    return {
        "sharpness.iterations": iterations,
        "sharpness.converged_frac": converged / restarts if restarts else 0.0,
        "sharpness.evals_per_iteration":
            evals / iterations if iterations else 0.0,
        "hunt.useful_frac": useful / budget if budget else 0.0,
    }


def _span_figures(tracer: Tracer, first: int, first_return: int,
                  kron_bytes: int, k: float) -> dict:
    """Per-layer figures of the traced pass whose spans start at
    ``first``; times are multiplied by its speed adjustment ``k``."""
    agg = tracer.aggregate(first)
    fig = {}
    for span, wanted in SPAN_METRICS.items():
        calls, total, own = agg.get(span, (0, 0.0, 0.0))
        values = {"calls": calls, "total_s": total * k, "self_s": own * k}
        for key in wanted:
            fig[f"{span}.{key}"] = values[key]
    fig["numpy.kron.bytes_out"] = (tracer.bytes_out.get("numpy.kron", 0)
                                   - kron_bytes)
    fig.update(_report_figures(tracer.returns[first_return:],
                               tracer.calls_by_job("lp.lp_norm", first)))
    for layer in LAYERS:
        fig[f"layer.{layer}.self_s"] = k * sum(
            own for span, (_, _, own) in agg.items()
            if span.split(".")[0] == layer)
    return fig


def run_traced(jobs: list, seconds: float, cal: list) -> tuple:
    """Alternate calibrated untraced passes and traced passes for
    ``seconds``; a traced pass is adjusted by the calibrations around it
    (none run inside it, where the tracer would record them).

    Returns (untraced passes, their adjusted job times, traced passes,
    their adjusted times, the tracer, per-layer figures of each traced
    pass). Job ids on spans are traced pass number * len(jobs) + job index.
    """
    tracer = Tracer(capture=REPORTS)
    plain, plain_adjusted, figures = [], [], []
    traced, traced_adjusted = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        result, times = calibrated_pass(jobs, cal)
        plain.append(result)
        plain_adjusted.append(times)
        first, first_return = len(tracer), len(tracer.returns)
        kron_bytes = tracer.bytes_out.get("numpy.kron", 0)
        base = len(traced) * len(jobs)

        def stamp(i, base=base):
            tracer.job = base + i

        with tracer:
            traced.append(run_pass(jobs, on_job=stamp))
        cal.append(calibration_s())
        k = scale(cal[-2], cal[-1])
        traced_adjusted.append(traced[-1].wall_s * k)
        figures.append(_span_figures(tracer, first, first_return, kron_bytes,
                                     k))
    return (plain, plain_adjusted, traced, traced_adjusted, tracer, figures)


def _layer_metrics(workload: str, seed: int, jobs: list, seconds: float,
                   record: dict) -> tuple:
    cal = [calibration_s()]
    plain, plain_adjusted, traced, traced_adjusted, tracer, figures = \
        run_traced(jobs, seconds, cal)
    units = per_layer_units()
    metrics = {name: _median(f[name] for f in figures)
               for name in units if not name.startswith(("cmd.", "trace."))}
    for command, values in _command_seconds(jobs, plain_adjusted).items():
        metrics[f"cmd.{command}_s"] = _median(values)
    metrics["trace.wall_s"] = _median(traced_adjusted)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - _median(map(sum, plain_adjusted)))
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload}-seed{seed}-spans.npz"
    tracer.save(spans_file)
    record["spans"] = {
        "file": str(spans_file.relative_to(ROOT)), "count": len(tracer),
        "job_argv": {k * len(jobs) + i: list(job.argv)
                     for k in range(len(traced))
                     for i, job in enumerate(jobs)}}
    record["raw_untraced_wall_s"] = summary(p.wall_s for p in plain)
    record["raw_traced_wall_s"] = summary(p.wall_s for p in traced)
    record["calibration_s"] = cal
    return plain + traced, metrics, units


def _end_to_end_metrics(jobs: list, seconds: float, record: dict) -> tuple:
    cal = [calibration_s()]
    setup = measure_setup(SETUP_REPEATS, cal)
    setup_adjusted = summary(t * scale(a, b)
                             for t, a, b in zip(setup, cal, cal[1:]))
    passes, adjusted = run_untraced(jobs, seconds, cal)
    wall = summary(sum(times) for times in adjusted)
    record.update({
        "wall_s": wall,
        "raw_wall_s": summary(p.wall_s for p in passes),
        "setup_s": setup_adjusted,
        "raw_setup_s": summary(setup),
        "calibration_s": cal,
        "commands_s": {c: summary(v) for c, v in
                       _command_seconds(jobs, adjusted).items() if any(v)},
    })
    metrics = {
        "wall_s": wall["median"],
        "setup_s": setup_adjusted["median"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return passes, metrics, end_to_end_units()


def measure(workload: str, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    """Run one workload; return the full record of the run.

    ``import_s`` is this process's own import time of qgharm.cli.
    """
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(seed),
              "in_process_import_s": import_s,
              "reference_calibration_s": REFERENCE_CALIBRATION_S}
    jobs = make_jobs(workload, seed)
    if trace:
        checked, metrics, units = _layer_metrics(workload, seed, jobs,
                                                 seconds, record)
    else:
        checked, metrics, units = _end_to_end_metrics(jobs, seconds, record)
    attempted = sum(len(p.jobs) for p in checked)
    failed = sum(p.failed for p in checked)
    record.update({
        "passes": len(checked),
        "raw_pass_wall_s": [p.wall_s for p in checked],
        "jobs": _job_records(jobs, checked),
        "failures": _failures(checked),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac(failed, attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })
    return record


def result_line(record: dict) -> dict:
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": record["metrics"]}
