"""The ``cold-start`` suite of ``tools/compare.py``: cold ``sparse-detect`` processes.

``tools/compare.py`` runs every command of ``COMMANDS`` ``RUNS`` times per
tree, each time as ``python -m sparse_detect.cli`` in a fresh interpreter,
with the two trees alternating which goes first.  ``maxtest`` and ``hc``
read the fixed sample of :func:`write_sample`, whose path replaces
``{sample}``.  A command's record is its exit code and stdout.  The wall
time of each process is taken around the whole process, so it includes the
interpreter's own start; :func:`print_times` prints, per command, each
tree's median wall time with its quartiles and the ratio of the medians.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

RUNS = 9
SIMULATE = [
    "simulate", "--family", "idj", "--beta-grid", "0.6,0.8", "--r-grid", "0.3,0.5",
    "--n-list", "1000", "--replicates", "20", "--tests", "hc,lr,max", "--seed", "7",
]
COMMANDS = [
    ["boundary", "--family", "idj", "--r", "0.25"],
    ["boundary", "--family", "idj", "--r", "0.25", "--tau", "2"],
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


def spread(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{q2:.3f} [{q1:.3f}-{q3:.3f}]"


def print_times(times: list[tuple[list[float], list[float]]]) -> None:
    """The table of each command's (OLD_SRC, NEW_SRC) wall times, in ``COMMANDS`` order."""
    print(f"{RUNS} runs per command and tree; wall seconds, median [quartiles]")
    print("| command | old | new | new/old |")
    print("| --- | --- | --- | --- |")
    for cmd, (old, new) in zip(COMMANDS, times):
        label = " ".join(cmd if cmd[0] != "simulate" else ["simulate", "(2x2 idj grid)", *cmd[-2:]])
        ratio = statistics.median(new) / statistics.median(old)
        print(f"| `{label}` | {spread(old)} | {spread(new)} | {ratio:.2f} |")
