"""The benchmark workloads, their four parts, and the checks on their outputs.

A workload is built from the benchmark seed; the package only ever sees
the generated configs.  ``run(workers)`` performs one pass and returns
its output text (the bytes that must not depend on the worker count or
on tracing) and ``check(output)`` counts the ops that pass and fail.

The benchmark times two workloads (``NAMES``): ``sweeps``, whose pass
runs the three sweep parts one after the other, and
``boundary-curves``.  The traced run traces each of the four parts
(``PARTS``) in its own client.  Why these four parts (see README.md for
the full layer map):

* ``sweep-large-n``: the two criterion-7 sweeps; n = 1e5 numpy kernels
  dominate and three heavy cells on two workers show load imbalance.
* ``sweep-grid-small-n``: the README's 10x10 beta x r grid at n = 1e3
  through the CLI; fixed per-replicate costs (stream creation, small
  draws, 300 pool tasks) dominate.
* ``sweep-subbotin``: the same sim/hctest path with a Laplace null, so
  sampling and tail probabilities go through special functions.
* ``boundary-curves``: numeric boundary sweeps through the CLI plus the
  exponent-grid routines; no RNG and no pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PARTS = ("sweep-large-n", "sweep-grid-small-n", "sweep-subbotin", "boundary-curves")
# Workloads whose pass runs several parts in this order.
COMPOSITES = {"sweeps": ("sweep-large-n", "sweep-grid-small-n", "sweep-subbotin")}
NAMES = ("sweeps", "boundary-curves")
CHOICES = tuple(dict.fromkeys(NAMES + PARTS))  # everything build() accepts
WORKERS = 2  # pool size of the timed sweeps; the machine class has nproc = 2

# Replicates per cell in one pass of each sweep workload.
REPLICATES = {"sweep-large-n": 40, "sweep-grid-small-n": 40, "sweep-subbotin": 40}

# The reference check asks the run's total_error interval (type-I plus
# type-II Wilson intervals) to overlap the reference's, both taken at
# this z (two-sided 99.9%).  At the 95% level of the CSV column a
# correct pass of the 300-cell grid would fail a cell every few passes;
# at this level a sampler that draws the wrong law still fails.
WILSON_Z = 3.2905267314918945
BOUNDARY_TOL = 1e-3  # the criterion-2 tolerance

SWEEPS = {
    "sweep-large-n": [
        {
            "family": "idj", "beta_grid": [0.55], "r_grid": [0.8],
            "n_list": [1000, 10000, 100000], "tests": ["hc", "lr", "max"],
        },
        {
            "family": "idj", "beta_grid": [0.9], "r_grid": [0.05],
            "n_list": [1000, 10000, 100000], "tests": ["hc", "lr", "max"],
        },
    ],
    "sweep-grid-small-n": [
        {
            "family": "idj", "beta_grid": "0.5:0.95:0.05", "r_grid": "0.1:1.0:0.1",
            "n_list": [1000], "tests": ["hc", "lr", "max"],
        },
    ],
    "sweep-subbotin": [
        {
            "family": "gglocation", "family_params": {"tau": 1.0},
            "beta_grid": [0.6, 0.8], "r_grid": [0.3, 0.8],
            "n_list": [1000, 10000], "tests": ["hc", "lr"],
        },
    ],
}
VIA_CLI = {"sweep-grid-small-n"}

R_GRID = "0.05:1.0:0.05"
CURVES = (
    ("idj", (), R_GRID),
    ("hetero", ("--sigma2", "0.5"), R_GRID),
    ("hetero", ("--sigma2", "2"), R_GRID),
    ("dilate", (), R_GRID),
    ("ggconv", ("--tau", "1.5"), "1,4"),
    ("gglocation", ("--tau", "1.5"), R_GRID),
)
GAMMA_CONFIG = {"tau": 1.0, "r": 0.5, "n": 10**6}  # criterion 10
SWEEP_CSV_FIELDS = 11


def import_package():
    """Import sparse_detect from this checkout's src/, never from elsewhere."""
    init = SRC / "sparse_detect" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparse_detect
    import sparse_detect.cli  # the package __init__ does not import the CLI

    found = Path(sparse_detect.__file__).resolve()
    if found != init.resolve():
        raise SystemExit(f"perfbench: imported sparse_detect from {found}, not {init}")
    return sparse_detect


def derive_seed(seed: int, index: int) -> int:
    """Independent 31-bit package seed for config ``index`` of a workload."""
    return random.Random(seed * 1_000_003 + index).getrandbits(31)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """(center, half-width) of the Wilson score interval of a rate."""
    k, m = float(successes), float(trials)
    center = (k + z * z / 2.0) / (m + z * z)
    return center, z * math.sqrt(k * (m - k) / m + z * z / 4.0) / (m + z * z)


def error_interval(false_alarms: int, misses: int, replicates: int) -> tuple[float, float]:
    """Interval of total_error: the sum of the type-I and type-II Wilson intervals."""
    c1, h1 = wilson_interval(false_alarms, replicates)
    c2, h2 = wilson_interval(misses, replicates)
    return c1 + c2, h1 + h2


@dataclass
class Check:
    """Ops attempted and failed in one pass, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, ops: int, note: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(note)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


@dataclass
class PassOutput:
    text: str
    ops: int
    output_bytes: int = 0
    exit_codes: tuple = ()
    parts: tuple = ()  # a composite pass: the PassOutput of each part


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class SweepWorkload:
    """Phase sweeps through sim.phase_sweep, or through ``cli.main simulate``."""

    def __init__(self, pkg, name: str, seed: int, replicates: int | None = None):
        self.pkg = pkg
        self.name = name
        self.replicates = replicates or REPLICATES[name]
        self.via_cli = name in VIA_CLI
        # specs keep the grids as the CLI receives them; configs hold the
        # parsed values, which is what the CSV rows print
        self.specs, self.configs = [], []
        for index, spec in enumerate(SWEEPS[name]):
            spec = dict(spec, replicates=self.replicates, seed=derive_seed(seed, index))
            parsed = {k: self._grid(spec[k]) for k in ("beta_grid", "r_grid")}
            self.specs.append(spec)
            self.configs.append(pkg.sim.ExperimentConfig.from_dict(dict(spec, **parsed)))
        self.expected = [
            [(repr(b), repr(r), str(n), t) for _, b, r, n, t in cfg.cells()]
            for cfg in self.configs
        ]
        path = reference_path(name)
        self.reference = load_reference(name) if path.exists() else None

    def _grid(self, grid):
        return self.pkg.cli._parse_grid(grid) if isinstance(grid, str) else grid

    @property
    def ops(self) -> int:
        """Hypothesis decisions per pass: cells x replicates x 2."""
        return sum(len(k) for k in self.expected) * self.replicates * 2

    def run(self, workers: int) -> PassOutput:
        if self.via_cli:
            return self._run_cli(workers)
        texts = [
            self.pkg.sim.phase_sweep(cfg, workers=workers).to_csv()
            for cfg in self.configs
        ]
        return PassOutput("".join(texts), self.ops)

    def _run_cli(self, workers: int) -> PassOutput:
        texts, codes, size = [], [], 0
        out_root = ROOT / ".perfbench_out"
        out_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_root) as tmp:
            for index, data in enumerate(self.specs):
                target = os.path.join(tmp, f"sweep{index}.csv")
                argv = [
                    "simulate", "--family", data["family"],
                    "--beta-grid", data["beta_grid"],
                    "--r-grid", data["r_grid"],
                    "--n-list", ",".join(str(n) for n in data["n_list"]),
                    "--replicates", str(data["replicates"]),
                    "--tests", ",".join(data["tests"]),
                    "--seed", str(data["seed"]),
                    "--workers", str(workers), "--output", target,
                ]
                codes.append(self.pkg.cli.main(argv))
                for path in (target, target + ".manifest.json", target + ".overlay.csv"):
                    if os.path.exists(path):
                        size += os.path.getsize(path)
                texts.append(Path(target).read_text() if os.path.exists(target) else "")
        return PassOutput("".join(texts), self.ops, size, tuple(codes))

    def check(self, out: PassOutput) -> Check:
        check = Check(attempted=out.ops)
        per_cell = 2 * self.replicates
        if any(code != 0 for code in out.exit_codes):
            check.fail(out.ops, f"cli exit codes {out.exit_codes}")
            return check
        if self.reference is None:
            check.fail(out.ops, f"no reference table at {reference_path(self.name)}")
            return check
        blocks = _split_blocks(out.text)
        for index, keys in enumerate(self.expected):
            rows = blocks[index] if index < len(blocks) else []
            seen = set()
            for row in rows:
                note = self._check_row(index, row, self.configs[index].seed)
                key = tuple(row.split(",")[:4])
                if note is None and key in seen:
                    note = "duplicate row"
                if note is not None:
                    check.fail(per_cell, f"config {index}: {note}: {row[:120]}")
                seen.add(key)
            missing = [k for k in keys if k not in seen]
            for key in missing:
                check.fail(per_cell, f"config {index}: missing cell {key}")
        return check

    def _check_row(self, index: int, row: str, seed: int):
        parts = row.split(",")
        if len(parts) != SWEEP_CSV_FIELDS:
            return f"{len(parts)} fields"
        beta, r, n, test, t1, t2, total, hw, reps, row_seed, overlay = parts
        ref = self.reference["cells"].get("|".join((str(index), beta, r, n, test)))
        if ref is None:
            return "cell not in the reference"
        try:
            t1, t2, total, hw = float(t1), float(t2), float(total), float(hw)
            reps, row_seed = int(reps), int(row_seed)
        except ValueError:
            return "unparsable field"
        if reps != self.replicates or row_seed != seed:
            return "replicates or seed column wrong"
        k1, k2 = round(t1 * reps), round(t2 * reps)
        if k1 / reps != t1 or k2 / reps != t2 or not (0 <= k1 <= reps and 0 <= k2 <= reps):
            return "rates are not counts over the replicates"
        if total != t1 + t2:
            return "total_error is not type1 + type2"
        z95 = 1.959963984540054
        want_hw = wilson_interval(k1, reps, z95)[1] + wilson_interval(k2, reps, z95)[1]
        if not math.isclose(hw, want_hw, rel_tol=1e-12):
            return "wilson_ci_halfwidth column wrong"
        if overlay != ref["beta_star"]:
            return f"beta_star {overlay} differs from the reference {ref['beta_star']}"
        center, half = error_interval(k1, k2, reps)
        ref_center, ref_half = error_interval(
            ref["false_alarms"], ref["misses"], self.reference["replicates"]
        )
        if abs(center - ref_center) > half + ref_half:
            return (
                f"total_error interval {center:.3f} +- {half:.3f} misses the "
                f"reference {ref_center:.3f} +- {ref_half:.3f}"
            )
        return None


def _split_blocks(text: str) -> list[list[str]]:
    """CSV text of consecutive sweeps -> per sweep, its data rows."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("beta,"):
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
    return blocks


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict:
    with open(reference_path(name)) as fh:
        return json.load(fh)


def reference_from_csv(text: str, replicates: int, seed: int) -> dict:
    """Reference table of one pass: per cell its counts and overlay."""
    cells = {}
    for index, rows in enumerate(_split_blocks(text)):
        for row in rows:
            beta, r, n, test, t1, t2, _, _, _, _, overlay = row.split(",")
            cells["|".join((str(index), beta, r, n, test))] = {
                "false_alarms": round(float(t1) * replicates),
                "misses": round(float(t2) * replicates),
                "beta_star": overlay,
            }
    return {"replicates": replicates, "seed": seed, "cells": cells}


# ---------------------------------------------------------------------------
# boundary curves
# ---------------------------------------------------------------------------


class BoundaryWorkload:
    """Numeric boundary sweeps through the CLI, checked against the closed forms.

    Each pass runs both routes: the numeric curves through ``cli.main
    boundary --r-grid`` and ``boundary_closed_form`` at every grid
    point, plus the single exponent-grid, gamma and divergence calls.
    The r grids are fixed; the seed picks the idj signal strength of the
    single calls and the mean gap of the divergence pair.
    """

    name = "boundary-curves"
    header = "family,params,beta_star,maximizer,method\n"

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.curves = CURVES
        gen = random.Random(seed)
        self.idj_r = round(0.05 * gen.randint(1, 20), 2)
        self.mu = round(gen.uniform(0.5, 2.0), 6)
        self.argv = [
            ["boundary", "--family", family, *extra, "--r-grid", grid, "--format", "csv"]
            for family, extra, grid in self.curves
        ]
        self.points = [self._points(*curve) for curve in self.curves]

    def _points(self, family, extra, grid) -> list[tuple[str, dict]]:
        """(row label as the CLI prints it, closed-form parameters) per grid value."""
        fmt = self.pkg.cli._fmt
        points = []
        for value in self.pkg.cli._parse_grid(grid):
            key = "linf" if family == "dilate" else "r"
            label, params = f"{key}={fmt(value)}", {key: value}
            if extra:
                name = extra[0].lstrip("-")
                label += f";{name}={fmt(float(extra[1]))}"
                params[name] = float(extra[1])
            points.append((label, params))
        return points

    @property
    def ops(self) -> int:
        """Boundary rows plus the five single calls."""
        return sum(len(points) for points in self.points) + 5

    def run(self, workers: int = 1) -> PassOutput:
        pkg = self.pkg
        texts, codes = [], []
        for argv in self.argv:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(pkg.cli.main(argv))
            texts.append(buf.getvalue())
        size = sum(len(t.encode()) for t in texts)
        closed = [
            [pkg.boundary.boundary_closed_form(family, **params) for _, params in points]
            for (family, _, _), points in zip(self.curves, self.points)
        ]
        alpha = pkg.boundary.alpha_family("idj", r=self.idj_r)
        hc = pkg.boundary.hc_achievable_boundary(alpha)
        rate = pkg.boundary.hellinger_exponent(alpha, idj_closed_form(self.idj_r))
        g = GAMMA_CONFIG
        null = pkg.dists.GenGaussian(g["tau"])
        alt = pkg.dists.Shifted(null, (g["r"] * math.log(g["n"])) ** (1.0 / g["tau"]))
        s_grid = [0.1 + 0.05 * k for k in range(39)]
        diag = pkg.sim.estimate_gamma(null, alt, [g["n"]], s_grid)
        deviation = diag.deviation_from(lambda s: s - abs(s - g["r"]), g["n"])
        p, q = pkg.dists.Gaussian(), pkg.dists.Gaussian(self.mu, 1.0)
        single = {
            "hc_achievable_boundary": hc.beta,
            "hellinger_exponent": rate,
            "estimate_gamma": deviation,
            "hellinger_sq": pkg.divergence.hellinger_sq(p, q),
            "total_variation": pkg.divergence.total_variation(p, q),
        }
        tail = json.dumps({"closed_form": closed, "single": single}, sort_keys=True)
        return PassOutput("".join(texts) + tail + "\n", self.ops, size, tuple(codes))

    def check(self, out: PassOutput) -> Check:
        check = Check(attempted=out.ops)
        body, _, tail = out.text.rstrip("\n").rpartition("\n")
        chunks = (body + "\n").split(self.header)[1:]
        try:
            data = json.loads(tail)
            closed, single = data["closed_form"], data["single"]
        except (ValueError, KeyError):
            check.fail(out.ops, "closed forms and single-call results missing")
            return check
        if len(chunks) != len(self.curves) or len(closed) != len(self.curves):
            check.fail(out.ops, "boundary output has the wrong number of curves")
            return check
        for (family, _, _), points, code, chunk, want in zip(
            self.curves, self.points, out.exit_codes, chunks, closed
        ):
            if code != 0:
                check.fail(len(points), f"{family}: exit code {code}")
                continue
            rows = {}
            for row in chunk.splitlines():
                parts = row.split(",")
                if len(parts) != 5 or parts[0] != family or parts[4] != "grid":
                    check.fail(1, f"{family}: malformed row {row!r}")
                else:
                    rows.setdefault(parts[1], parts)
            for (label, _), closed_value in zip(points, want):
                note = self._check_row(rows.get(label), closed_value)
                if note is not None:
                    check.fail(1, f"{family} {label}: {note}")
        for key, want, tol in self._single_targets():
            got = single.get(key)
            if not isinstance(got, float) or not abs(got - want) <= tol:
                check.fail(1, f"{key} = {got}, expected {want} within {tol}")
        return check

    @staticmethod
    def _check_row(parts, closed_value):
        if parts is None:
            return "row missing"
        try:
            beta, maximizer = float(parts[2]), float(parts[3])
        except ValueError:
            return "unparsable row"
        if not math.isfinite(maximizer):
            return "maximizer is not finite"
        if not abs(beta - closed_value) <= BOUNDARY_TOL:
            return f"beta_star {beta} differs from the closed form {closed_value}"
        return None

    def _single_targets(self):
        g = GAMMA_CONFIG
        yield "hc_achievable_boundary", idj_closed_form(self.idj_r), BOUNDARY_TOL
        # the Hellinger exponent crosses -1 exactly at the boundary (criterion 3)
        yield "hellinger_exponent", -1.0, 5e-3
        # the estimate sits 2 ln 2 / ln n below its limit (criterion 10 note)
        yield "estimate_gamma", 2.0 * math.log(2.0) / math.log(g["n"]), BOUNDARY_TOL
        yield "hellinger_sq", 2.0 * (1.0 - math.exp(-self.mu**2 / 8.0)), 1e-6
        yield "total_variation", math.erf(self.mu / (2.0 * math.sqrt(2.0))), 1e-6


def idj_closed_form(r: float) -> float:
    """Classical boundary beta*(r) of the Gaussian location model."""
    return 0.5 + r if r <= 0.25 else 1.0 - (1.0 - math.sqrt(r)) ** 2


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------


class CompositeWorkload:
    """A workload whose pass runs its parts one after the other.

    The output text is the parts' texts joined, so the byte-identity
    check covers every part; each part checks its own output.
    """

    def __init__(self, name: str, parts: list):
        self.name = name
        self.parts = parts

    @property
    def ops(self) -> int:
        return sum(part.ops for part in self.parts)

    def run(self, workers: int) -> PassOutput:
        outs = tuple(part.run(workers) for part in self.parts)
        return PassOutput(
            "".join(out.text for out in outs),
            self.ops,
            sum(out.output_bytes for out in outs),
            sum((out.exit_codes for out in outs), ()),
            outs,
        )

    def check(self, out: PassOutput) -> Check:
        check = Check()
        for part, part_out in zip(self.parts, out.parts):
            check.add(part.check(part_out))
        return check


def build(pkg, name: str, seed: int, replicates: int | None = None):
    if name in COMPOSITES:
        parts = [build(pkg, part, seed, replicates) for part in COMPOSITES[name]]
        return CompositeWorkload(name, parts)
    if name == BoundaryWorkload.name:
        return BoundaryWorkload(pkg, seed)
    if name in SWEEPS:
        return SweepWorkload(pkg, name, seed, replicates)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(CHOICES)}")
