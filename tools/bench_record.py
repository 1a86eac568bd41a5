"""Write BENCH_<LABEL>.json: one checkout's benchmark record.

Runs ``bench/run.py`` for every workload of ``bench/workloads.py``, each
in its own process, untraced (the end-to-end metrics) and traced (the
per-layer metrics), and folds the full records that those runs leave in
``.bench_out/`` into one JSON file at the root of the checkout. In the
folded records the per-pass lists (``raw_pass_wall_s``, ``calibration_s``)
become their median and quartiles, and the traced spans are left out, so
that the file stays small; ``.bench_out/`` keeps them in full. Beside the
records it keeps:

- the bytecode state: ``PYTHONDONTWRITEBYTECODE``, and whether
  ``src/qgharm/__pycache__`` existed at the start and just before each
  timed run (``src_pycache_existed`` in each record). Without cached
  bytecode every ``setup_s`` sample also compiles ``src/qgharm``. This
  process writes no bytecode itself, but with the variable unset the runs
  it starts do;
- per workload, the seconds from starting a fresh interpreter to the end
  of the workload's first job, which ``setup_s`` alone does not show when
  an import moves from set-up into the first job;
- the lines of ``tools/doc_digests.py`` at seeds 1, 2 and 3, the sha256
  of every document the workloads print.

    python3 tools/bench_record.py 41
    python3 tools/bench_record.py dev --out /tmp/bench.json

Every run uses benchmark seed SEED and lasts SECONDS, so that records of
different commits compare: ``peak_rss_mb`` grows with the number of
passes a run fits in. BLAS runs on one thread, as under ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
PYCACHE = ROOT / "src" / "qgharm" / "__pycache__"
BYTECODE = {
    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    "src_pycache_existed": PYCACHE.is_dir(),
}
# the workloads import qgharm.cli; the timed runs should not find bytecode
# that this process wrote
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
from workloads import WORKLOADS, summary  # noqa: E402

SEED = 1
SECONDS = 30.0
DIGEST_SEEDS = (1, 2, 3)
FIRST_DOCUMENT_REPEATS = 5
# imports the checkout's workloads (and with them qgharm.cli) and runs the
# first job of one workload, in a fresh interpreter
FIRST_DOCUMENT_PROBE = (
    "import sys; "
    "sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1] + '/bench']; "
    "import workloads; "
    "job = workloads.make_jobs(sys.argv[2], int(sys.argv[3]))[0]; "
    "sys.exit(0 if workloads.check(workloads.call(job)) == [] else 1)")


def _run(argv: list) -> str:
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=1200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr}")
    return done.stdout


def workload_record(workload: str, trace: int) -> dict:
    """The folded record of one ``bench/run.py`` run."""
    pycache = PYCACHE.is_dir()
    _run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
          str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)])
    path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    record = json.loads(path.read_text())
    record["src_pycache_existed"] = pycache
    record.pop("spans", None)
    for key in ("raw_pass_wall_s", "calibration_s"):
        record[key] = summary(record[key])
    return record


def first_document_s(workload: str) -> dict:
    """Seconds from starting a fresh interpreter to the end of the first
    job of the workload, over FIRST_DOCUMENT_REPEATS runs."""
    pycache = PYCACHE.is_dir()
    times = []
    for _ in range(FIRST_DOCUMENT_REPEATS):
        start = time.perf_counter()
        _run([sys.executable, "-c", FIRST_DOCUMENT_PROBE, str(ROOT),
              workload, str(SEED)])
        times.append(time.perf_counter() - start)
    return {"median": statistics.median(times), "min": min(times),
            "max": max(times), "n": len(times),
            "src_pycache_existed": pycache}


def doc_digests() -> list:
    """The lines of tools/doc_digests.py for this checkout at DIGEST_SEEDS."""
    out = _run([sys.executable, "tools/doc_digests.py", str(ROOT),
                *map(str, DIGEST_SEEDS)])
    return [json.loads(line) for line in out.splitlines()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file BENCH_<LABEL>.json")
    parser.add_argument("--out", type=Path,
                        help="where to write (default: BENCH_<LABEL>.json "
                             "at the root of the checkout)")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    workloads = {}
    for workload in WORKLOADS:
        workloads[workload] = {
            f"trace{trace}": workload_record(workload, trace)
            for trace in (0, 1)}
        workloads[workload]["first_document_s"] = first_document_s(workload)
    record = {"label": args.label, "seed": SEED,
              "seconds": SECONDS, "bytecode": BYTECODE,
              "workloads": workloads,
              "doc_digests": {"seeds": list(DIGEST_SEEDS),
                              "lines": doc_digests()}}
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, recs in workloads.items():
        e2e = recs["trace0"]
        print(f"{workload}: wall_s {e2e['wall_s']['median']:.4f} s, "
              f"setup_s {e2e['setup_s']['median']:.4f} s, peak_rss_mb "
              f"{e2e['metrics']['peak_rss_mb']['value']:.1f}, first document "
              f"{recs['first_document_s']['median']:.4f} s, "
              f"failed {e2e['failed']} + {recs['trace1']['failed']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
