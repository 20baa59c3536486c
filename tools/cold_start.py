"""Time cold ``sparse-detect`` processes of two source trees, and compare their stdout.

Usage: python tools/cold_start.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Every
command of ``COMMANDS`` runs ``RUNS`` times per tree, each time as
``python -m sparse_detect.cli`` in a fresh interpreter, with the two trees
alternating which goes first.  ``maxtest`` and ``hc`` read a fixed sample
written to a temporary file.  The wall time of each process is taken around
``subprocess.run``, so it includes the interpreter's own start.  The script
prints, per command, each tree's median wall time with its quartiles and the
ratio of the medians; it lists every command whose exit code or stdout
differs from the first OLD_SRC run's, and exits 1 if one does."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

RUNS = 9
SIMULATE = [
    "simulate", "--family", "idj", "--beta-grid", "0.6,0.8", "--r-grid", "0.3,0.5",
    "--n-list", "1000", "--replicates", "20", "--tests", "hc,lr,max", "--seed", "7",
]
COMMANDS = [
    ["boundary", "--family", "idj", "--r", "0.25"],
    ["boundary", "--family", "idj", "--r-grid", "0.05:1.0:0.05"],
    ["boundary", "--family", "dilate", "--r-grid", "0.1:1:0.1", "--format", "csv"],
    ["exponent", "--family", "ggconv", "--r", "0.3", "--tau", "1.5", "--beta", "0.6"],
    ["check-alpha", "--family", "idj", "--r", "0.3"],
    ["maxtest", "--input", "{sample}"],
    ["hc", "--input", "{sample}"],
    [*SIMULATE, "--workers", "1"],
    [*SIMULATE, "--workers", "2"],
    ["--help"],
]


def write_sample(path: Path) -> None:
    """1000 fixed values: a standard normal sample from a seeded numpy stream."""
    values = np.random.default_rng(20261020).standard_normal(1000)
    path.write_text("".join(f"{x!r}\n" for x in values.tolist()))


def run(src: str, argv: list[str]) -> tuple[float, int, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_detect.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def spread(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{q2:.3f} [{q1:.3f}-{q3:.3f}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sample = Path(tmp) / "sample.txt"
        write_sample(sample)
        commands = [[arg.format(sample=sample) for arg in cmd] for cmd in COMMANDS]
        times = [([], []) for _ in commands]
        results = [([], []) for _ in commands]
        for i in range(RUNS):
            for c, cmd in enumerate(commands):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    wall, code, out = run(argv[side], cmd)
                    times[c][side].append(wall)
                    results[c][side].append((code, out))
    differ = [
        c for c, (old, new) in enumerate(results)
        if any(result != old[0] for result in old + new)
    ]
    print(f"{RUNS} runs per command and tree; wall seconds, median [quartiles]")
    print("| command | old | new | new/old |")
    print("| --- | --- | --- | --- |")
    for cmd, (old, new) in zip(COMMANDS, times):
        label = " ".join(cmd if cmd[0] != "simulate" else ["simulate", "(2x2 idj grid)", *cmd[-2:]])
        ratio = statistics.median(new) / statistics.median(old)
        print(f"| `{label}` | {spread(old)} | {spread(new)} | {ratio:.2f} |")
    for c in differ:
        print(f"differs: {' '.join(COMMANDS[c])}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
