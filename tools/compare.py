"""Compare what two source trees compute, suite by suite.

Usage: python tools/compare.py OLD_SRC NEW_SRC SUITE...

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts, and each
SUITE is one of boundary, divergence, sweeps and cold-start.

A record suite is the file ``tools/suite_<name>.py``.  It runs once in a
fresh interpreter with ``PYTHONPATH`` set to each tree and prints a JSON
object of records, one per case; a tree in which it fails has its stderr
printed.  ``cold-start`` runs each command of ``suite_cold_start.COMMANDS``
as ``python -m sparse_detect.cli`` in a fresh interpreter of each tree,
``suite_cold_start.RUNS`` times, alternating which tree goes first.  A
command's record is the list of the distinct (exit code, stdout) pairs of
its runs, and the suite prints each tree's wall times.

For each suite the script prints the number of cases that either tree
records, and every case whose record differs or that one tree lacks.  It
exits 1 if a case differs or a suite fails in a tree, and 2 on an unknown
suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import suite_cold_start

TOOLS = Path(__file__).resolve().parent
SUITES = ("boundary", "divergence", "sweeps", "cold-start")


def collect(srcs: list[str], jobs: list[list[str]], runs: int = 1) -> list[tuple[list, list]]:
    """Run ``python *job`` for each job ``runs`` times in a fresh interpreter of each tree.

    The trees alternate which goes first.  Per job, the result holds each
    tree's (wall seconds, finished process) for every run.
    """
    done = [([], []) for _ in jobs]
    for i in range(runs):
        for job, per_tree in zip(jobs, done):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, *job],
                    env=dict(os.environ, PYTHONPATH=srcs[side]), capture_output=True, text=True,
                )
                per_tree[side].append((time.perf_counter() - start, proc))
    return done


def record_suite(srcs: list[str], name: str) -> list[dict] | None:
    """Each tree's records of suite ``name``, or None after printing a failing tree's stderr."""
    [job] = collect(srcs, [[str(TOOLS / f"suite_{name}.py")]])
    procs = [proc for runs in job for _, proc in runs]  # one run per tree
    for src, proc in zip(srcs, procs):
        if proc.returncode:
            print(f"{name} failed in {src}:\n{proc.stderr}")
    if any(proc.returncode for proc in procs):
        return None
    return [json.loads(proc.stdout) for proc in procs]


def cold_start(srcs: list[str]) -> list[dict]:
    """Each tree's cold-start records, after printing the wall times."""
    with tempfile.TemporaryDirectory() as tmp:
        sample = Path(tmp) / "sample.txt"
        suite_cold_start.write_sample(sample)
        jobs = [
            ["-m", "sparse_detect.cli", *(arg.format(sample=sample) for arg in cmd)]
            for cmd in suite_cold_start.COMMANDS
        ]
        done = collect(srcs, jobs, suite_cold_start.RUNS)
    suite_cold_start.print_times([[[wall for wall, _ in runs] for runs in job] for job in done])
    return [
        {
            " ".join(cmd): list(dict.fromkeys((proc.returncode, proc.stdout) for _, proc in job[side]))
            for cmd, job in zip(suite_cold_start.COMMANDS, done)
        }
        for side in (0, 1)
    ]


def differing(old: dict, new: dict) -> list[str]:
    """The keys of either record set whose record differs or that the other set lacks."""
    return [
        key for key in dict.fromkeys([*old, *new])
        if key not in old or key not in new or old[key] != new[key]
    ]


def show(records: dict, key: str) -> str:
    return json.dumps(records[key])[:300] if key in records else "(no such case)"


def main(argv: list[str]) -> int:
    if len(argv) < 3 or not set(argv[2:]) <= set(SUITES):
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    srcs, status = argv[:2], 0
    for name in argv[2:]:
        both = cold_start(srcs) if name == "cold-start" else record_suite(srcs, name)
        if both is None:
            status = 1
            continue
        old, new = both
        differ = differing(old, new)
        print(f"{name}: {len(old.keys() | new.keys())} cases, {len(differ)} differ")
        for key in differ:
            print(f"differs: {key}\n  old {show(old, key)}\n  new {show(new, key)}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
