"""Digests of the documents a checkout's command line prints.

For one checkout and a list of seeds, runs a fixed list of CLI calls in
this process through that checkout's ``qgharm.cli.run`` and prints one
JSON line per call: its argv, its exit code and the sha256 of its stdout
and of its stderr. The calls are every ``bench/workloads.py`` job of the
``sweep``, ``search`` and ``exact`` workloads at each seed, then
``all --seed 1``, then ``verify`` and ``structures`` on kac-paljutkin and
``hunt`` on every catalog example, so that the biprojection list of every
example is compared. Two checkouts that print the same lines print the same
documents:

    git worktree add ../parent HEAD~1
    python3 tools/doc_digests.py ../parent 1 2 3 > parent.jsonl
    python3 tools/doc_digests.py . 1 2 3 > change.jsonl
    diff parent.jsonl change.jsonl

BLAS runs on one thread, as under ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

FIXED = (("all", "--seed", "1"),
         ("verify", "--example", "kac-paljutkin"),
         ("structures", "--example", "kac-paljutkin"),
         ("hunt", "--example", "kac-paljutkin"),
         *(("hunt", "--example", name) for name in (
             "z2-function", "z3-function", "z4-function", "s3-function",
             "z2-group", "s3-group")))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(cli, argv) -> dict:
    """Exit code and output digests of one ``cli.run(argv)`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "exit": code,
            "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path,
                        help="checkout whose src/ and bench/ are imported")
    parser.add_argument("seeds", type=int, nargs="+",
                        help="benchmark seeds of the workload jobs")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from qgharm import cli
    from workloads import WORKLOADS, make_jobs

    calls = [job.argv for seed in args.seeds for workload in WORKLOADS
             for job in make_jobs(workload, seed)]
    for argv in calls + list(FIXED):
        print(json.dumps(digest(cli, argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
