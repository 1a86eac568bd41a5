"""Tests of the benchmark itself: its arithmetic, its failure counting,
the tracer's clean-up, and its agreement with BENCHMARK.json.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job, failed_frac, run_pass, summary  # noqa: E402


def _suq2(n=1, num=1, den=2, pin=True):
    mu = Fraction(num, den)
    return Job("suq2", ("suq2", "--n", str(n), "--mu-num", str(num),
                        "--mu-den", str(den)),
               workloads._pin_suq2(n, mu) if pin else None)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_summary_matches_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert summary(values) == {"median": 5.5, "q1": q1, "q3": q3, "n": 10}
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)


def test_summary_of_one_and_two_values():
    assert summary([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5, "n": 1}
    two = summary([1.0, 3.0])
    assert two["median"] == 2.0 and two["n"] == 2
    with pytest.raises(ValueError):
        summary([])


def test_failed_frac():
    assert failed_frac(0, 12) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)


def test_suq2_bound_formula():
    # n = 1, mu = 1/2: 4 * (1 - 1/16) / (1 - 1/64) = 80/21
    assert workloads.suq2_bound(1, Fraction(1, 2)) == Fraction(80, 21)


# ---------------------------------------------------------------------------
# failures are counted, never fatal
# ---------------------------------------------------------------------------

def test_failing_jobs_are_counted_and_do_not_stop_the_pass():
    wrong_pin = Job("suq2", _suq2().argv,
                    lambda doc: ["deliberately wrong pinned value"])
    jobs = [
        _suq2(),
        Job("verify", ("verify", "--example", "no-such-example")),  # exit 1
        Job("suq2", ("suq2", "--n", "9")),           # check error, exit 1
        wrong_pin,
        _suq2(2, 2, 3),
    ]
    result = run_pass(jobs)
    assert [r.failed for r in result.jobs] == [False, True, True, True,
                                               False]
    assert result.failed == 3
    assert failed_frac(result.failed, len(result.jobs)) == 0.6
    assert result.jobs[3].problems == ["deliberately wrong pinned value"]


def test_crashing_job_is_a_failure(monkeypatch):
    def boom(argv):
        raise RuntimeError("crash inside the program")

    monkeypatch.setattr(workloads.cli, "run", boom)
    result = run_pass([_suq2()])
    assert result.failed == 1
    assert "RuntimeError" in result.jobs[0].problems[0]


def test_every_workload_job_list_is_seeded():
    def argvs(name, seed):
        return [job.argv for job in workloads.make_jobs(name, seed)]

    for name in workloads.WORKLOADS:
        assert argvs(name, 7) == argvs(name, 7)
        assert argvs(name, 7) != argvs(name, 8)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _bindings():
    """Every attribute a tracer may replace, with its current object."""
    out = {}
    for ns in spans.qgharm_namespaces():
        for key, value in vars(ns).items():
            if callable(value):
                out[ns.__name__, key] = value
    for owner, attr, _ in spans.NUMPY_KERNELS:
        out[owner.__name__, attr] = getattr(owner, attr)
    return out


def test_traced_run_restores_every_wrapped_attribute():
    before = _bindings()
    jobs = [_suq2(), Job("verify", ("verify", "--example", "z2-group",
                                    "--seed", "3"))]
    plain, _, traced, _, tracer, figures = harness.run_traced(
        jobs, 0.0, [harness.calibration_s()])
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)
    assert numpy.einsum is before["numpy", "einsum"]
    # the wrappers were really bound, under both names of a function
    names = set(tracer.names)
    assert {"cli.run", "suq2.counterexample_report", "duality.build_dual",
            "core.verify_axioms", "numpy.linalg.eigh"} <= names
    assert figures[0]["duality.build_dual.calls"] >= 1
    assert figures[0]["suq2.comultiply.calls"] == 1
    # tracing does not change what the program prints
    assert ([r.sha256 for r in plain[0].jobs]
            == [r.sha256 for r in traced[0].jobs])
    assert plain[0].failed == traced[0].failed == 0


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer:
        workloads.call(_suq2())
    agg = tracer.aggregate()
    calls, total, own = agg["cli.run"]
    children = sum(tracer.ends[i] - tracer.starts[i]
                   for i in range(len(tracer)) if tracer.parents[i] == 0)
    assert calls == 1 and tracer.parents[0] == -1
    assert own == pytest.approx(total - children, abs=1e-9)
    assert 0.0 <= own < total


def test_tracer_wraps_names_imported_into_other_modules():
    import qgharm.lp
    import qgharm.sharpness

    original = qgharm.lp.lp_norm
    with spans.Tracer():
        assert qgharm.sharpness.lp_norm is qgharm.lp.lp_norm
        assert qgharm.sharpness.lp_norm is not original
        assert qgharm.sharpness.lp_norm.__wrapped__ is original
    assert qgharm.sharpness.lp_norm is original


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
