"""Benchmark of the qgharm command line.

One run measures one workload for a fixed time in this process and prints,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
reports the per-layer metrics: it alternates untraced passes with passes
traced by bench/spans.py and writes the spans to .bench_out/. Every run
also writes its full record (environment, quartiles, pass times, the
sha256 of each job's stdout, failures) to .bench_out/.

    python3 bench/run.py --workload all --seed 1 --seconds 10

runs every workload both ways, each in its own process, and prints every
metric by name with its unit. bench/README.md says why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS, fixed before numpy loads: every job is tiny, and
# the benchmark runs one job at a time.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "search", "exact")


def import_qgharm() -> float:
    """Import qgharm.cli from this checkout's src/; return the seconds."""
    if not (SRC / "qgharm" / "__init__.py").is_file():
        raise SystemExit(f"qgharm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qgharm.cli
    seconds = time.perf_counter() - start
    if Path(qgharm.__file__).resolve().parent != SRC / "qgharm":
        raise SystemExit(f"imported qgharm from {qgharm.__file__}, "
                         f"not from {SRC}")
    return seconds


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced; print every metric."""
    records = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            records[workload, trace] = json.loads(
                record_path(workload, seed, trace).read_text())
    ok = True
    for workload in WORKLOADS:
        e2e, layer = records[workload, 0], records[workload, 1]
        print(f"== {workload} (seed {seed}, {seconds:g} s per run; times "
              f"adjusted to the reference speed, raw in brackets)")
        for name in ("wall_s", "setup_s"):
            m, raw = e2e[name], e2e["raw_" + name]
            print(f"  {name:<24} {m['median']:.4f} s (q1 {m['q1']:.4f}, "
                  f"q3 {m['q3']:.4f}, n {m['n']}) [{raw['median']:.4f} s]")
        m = e2e["metrics"]["peak_rss_mb"]
        print(f"  {'peak_rss_mb':<24} {m['value']:.4f} {m['unit']}")
        for rec, label in ((e2e, "untraced"), (layer, "traced")):
            print(f"  {'failed_frac':<24} {rec['failed_frac']:.4f} ratio "
                  f"({rec['failed']} of {rec['attempted']} jobs, {label})")
            ok = ok and rec["failed"] == 0
        for command, s in e2e["commands_s"].items():
            print(f"  {'cmd.' + command + '_s':<24} {s['median']:.4f} s")
        print("  per layer (traced run; zero values omitted):")
        for name, m in layer["metrics"].items():
            if m["value"]:
                print(f"    {name:<54} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import_s = import_qgharm()
    import harness

    record = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s)
    OUT.mkdir(exist_ok=True)
    record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(harness.result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
