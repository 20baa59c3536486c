"""The ``sweeps`` suite of ``tools/compare.py``: the sweep engine's results.

Run with ``PYTHONPATH`` set to a ``src`` tree, it runs ``phase_sweep``, at
workers 1, 2, 3 and 7, on:

* the six ``GOLDEN_SWEEPS`` configs of ``tests/test_sim.py``;
* the three sweep parts of ``perfbench/workloads.py`` at 4 replicates;
* the config of ``test_errors_keep_the_row_by_row_order``, whose rows fail.

A sweep is recorded as its CSV and overlay text and its manifest without
``wall_time_s``, and a failure as the class and message of its error.  It
prints the records as one JSON object.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
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
json.dump(records, sys.stdout)
