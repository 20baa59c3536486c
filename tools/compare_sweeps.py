"""Compare the sweep engine's results between two source trees.

Usage: python tools/compare_sweeps.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  Each is
imported in a fresh interpreter, which runs:

* ``phase_sweep`` on the six ``GOLDEN_SWEEPS`` configs of
  ``tests/test_sim.py`` and on the three sweep parts of
  ``perfbench/workloads.py`` at 4 replicates, at workers 1, 2, 3 and 7;
* ``run_cell(cfg, cell)`` alone for every cell of a 2x2 beta x r grid;
* ``phase_sweep`` on the config of
  ``test_errors_keep_the_row_by_row_order``, whose rows fail.

A sweep is recorded as its CSV and overlay text and its manifest without
``wall_time_s``, a cell as its ``repr``, and a failure as the class and
message of its error.  The script prints the case count and every case whose
record differs; it exits 1 if one does."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_EVALUATE = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]  # tests/ and perfbench/, after src/ on PYTHONPATH
from test_sim import GOLDEN_SWEEPS
from workloads import SWEEPS, derive_seed
from sparse_detect import cli, sim
from sparse_detect.dists import FiniteDiscrete, Gaussian, Mixture, to_spec

def sweep(cfg, workers):
    try:
        table = sim.phase_sweep(cfg, workers=workers)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    manifest = {k: v for k, v in table.manifest().items() if k != "wall_time_s"}
    return [table.to_csv(), table.overlay_csv(), manifest]

configs = {f"golden-{k}": sim.ExperimentConfig(**spec) for k, (spec, _) in enumerate(GOLDEN_SWEEPS)}
for part, specs in SWEEPS.items():
    for k, spec in enumerate(specs):
        grids = {g: cli._parse_grid(spec[g]) if isinstance(spec[g], str) else spec[g]
                 for g in ("beta_grid", "r_grid")}
        configs[f"{part}-{k}"] = sim.ExperimentConfig.from_dict(
            dict(spec, **grids, replicates=4, seed=derive_seed(2026, k)))
alt = Mixture(Gaussian(300.0, 1.0), FiniteDiscrete(((0.0, 1.0),)), 0.5)
configs["errors"] = sim.ExperimentConfig(
    family="custom", beta_grid=(0.0,), r_grid=(0.0,), n_list=(50,), replicates=2,
    tests=("hc", "lr"), seed=1234,
    family_params={"null": to_spec(Gaussian()), "alt": to_spec(alt)})

records = {}
for name, cfg in configs.items():
    for workers in (1, 2, 3, 7):
        records[f"{name} workers={workers}"] = sweep(cfg, workers)
grid = sim.ExperimentConfig(family="idj", beta_grid=(0.6, 0.9), r_grid=(0.2, 0.5),
                            n_list=(64, 256), replicates=12, tests=("hc", "lr", "max"), seed=1234)
for cell in grid.cells():
    records[f"run_cell {cell!r}"] = repr(sim.run_cell(grid, cell))
json.dump(records, sys.stdout)
"""


def evaluate(src: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _EVALUATE, str(ROOT / "tests"), str(ROOT / "perfbench")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"evaluating {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    old, new = (evaluate(src) for src in argv)
    differ = [key for key in old.keys() | new.keys() if old.get(key) != new.get(key)]
    print(f"{len(old)} cases")
    for key in sorted(differ):
        print(f"differs: {key}")
        print(f"  old {json.dumps(old.get(key))[:300]}\n  new {json.dumps(new.get(key))[:300]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
