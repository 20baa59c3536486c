"""The ``sweeps`` suite of ``tools/compare.py``: the sweep engine's results.

Run with ``PYTHONPATH`` set to a ``src`` tree, it runs ``phase_sweep``, at
workers 1, 2, 3 and 7, on:

* the six ``GOLDEN_SWEEPS`` configs of ``tests/test_sim.py``;
* the three sweep parts of ``perfbench/workloads.py`` at 4 replicates;
* the config of ``test_errors_keep_the_row_by_row_order``, whose rows fail.

A sweep is recorded as its CSV and overlay text and its manifest without
``wall_time_s``.  So that a change to a statistic shows even where no
sweep decision flips, it also records the rules themselves, through the
public API, on seeded sample matrices (a null row, then one alternative
row per (beta, r)) of idj, gglocation and the singular custom pair of
``GOLDEN_SWEEPS``, at n = 64 and 5000: ``hc_statistics`` (values and
thresholds), ``max_rejects``, ``lr_rejects`` and ``lr_statistic`` of each
row under each mixture, and ``hc_threshold`` over a grid of (n, delta).
At the seams where a log ratio is not finite it records
``log_likelihood_ratio`` and ``lr_log_ratios`` of the singular custom
pair on one sample and on a matrix, and ``lr_test`` and ``lr_log_ratios``
at an infinite point and at an overflowing square of Gaussian pairs,
each with whether it raised a warning.  At the seam where a family's
parameters are read it records ``ExperimentConfig`` and ``families.build``
given idj with an undeclared ``tau``, and ``Family.alpha`` and
``Family.beta_star`` of hetero without its ``sigma2``.  Floats are
recorded as ``float.hex``, and a failure as the class and message of its
error.  It prints the records as one JSON object.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
from test_sim import GOLDEN_SWEEPS
from workloads import SWEEPS, derive_seed

from sparse_detect import cli, families, hctest, rng, sim
from sparse_detect.dists import FiniteDiscrete, Gaussian, Mixture, log_likelihood_ratio, to_spec


def attempt(compute):
    try:
        return compute()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def warned(compute):
    """``compute``'s record and whether it raised a warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = attempt(compute)
    return [value, bool(caught)]


def ratios(values):
    """Log ratios as their shape and hexes; None (no ratios) stays None."""
    return None if values is None else [list(np.shape(values)), hexes(values)]


def lr_result(result):
    log_lr, decision = result
    return [float(log_lr).hex(), decision]


def rule_records(family, params, n):
    """The rules on one seeded sample matrix of ``family`` at ``n``."""
    mixes = [sim.family_mixture(family, params, r, beta, n)
             for beta in (0.0, 0.5, 0.8) for r in (0.0, 0.4)]
    laws = [mixes[0].first, *mixes]
    ys = np.stack([law.sample(n, rng.stream(28, n, k)) for k, law in enumerate(laws)])
    out = {
        "hc_statistics": attempt(lambda: [hexes(v) for v in hctest.hc_statistics(ys, laws[0])]),
        "max_rejects": attempt(lambda: hctest.max_rejects(ys).tolist()),
    }
    for c, mix in enumerate(mixes):
        ratios = lambda sample: hctest.lr_log_ratios(sample, mix.second, mix.first)
        eps = [mix.weight] * len(ys)
        out[f"lr cell {c}"] = [
            attempt(lambda: np.ravel(hctest.lr_rejects(ratios(ys), eps)).tolist()),
            [attempt(lambda: hexes(hctest.lr_statistic(ratios(y), mix.weight))) for y in ys],
        ]
    return {f"rules {family} n={n} {name}": value for name, value in out.items()}


def sweep(cfg, workers):
    table = sim.phase_sweep(cfg, workers=workers)
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
for family, params in (("idj", {}), ("gglocation", {"tau": 1.5}),
                       ("custom", GOLDEN_SWEEPS[3][0]["family_params"])):
    for n in (64, 5000):
        records.update(rule_records(family, params, n))
for n in (16, 100, 1000, 10**5, 10**9):
    for delta in (0.1, 0.5, 2.0):
        records[f"rules hc_threshold n={n} delta={delta}"] = hexes(hctest.hc_threshold(n, delta))
null, singular = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))), FiniteDiscrete(((2.0, 1.0),))
ys = np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
for shape, sample in (("1-D", ys[1]), ("matrix", ys)):
    records[f"ratios singular {shape} log_likelihood_ratio"] = attempt(
        lambda: ratios(log_likelihood_ratio(singular, null, sample)))
    records[f"ratios singular {shape} lr_log_ratios"] = attempt(
        lambda: ratios(hctest.lr_log_ratios(sample, singular, null)))
for name, sample, alt in (("infinite", [np.inf, 0.0], Gaussian(1.0, 1.0)),
                          ("overflow", [1.5e154, 0.0], Gaussian(0.0, 2.0))):
    sample = np.array(sample)
    records[f"ratios {name} lr_log_ratios"] = warned(
        lambda: ratios(hctest.lr_log_ratios(sample, alt, Gaussian())))
    for eps in (0.0, 0.3, 1.0):
        records[f"ratios {name} lr_test eps={eps}"] = warned(
            lambda: lr_result(hctest.lr_test(sample, Mixture(Gaussian(), alt, eps))))
hetero = families.FAMILIES["hetero"]
records["params idj tau ExperimentConfig"] = attempt(lambda: sim.ExperimentConfig(
    family="idj", beta_grid=(0.6,), r_grid=(0.3,), n_list=(64,), replicates=2, tests=("lr",),
    seed=5, family_params={"tau": 2.0}).config_hash())
records["params idj tau build"] = attempt(
    lambda: to_spec(families.build("idj", {"tau": 2.0})[1](0.3, 64)))
records["params hetero no sigma2 alpha"] = attempt(
    lambda: hexes(hetero.alpha(0.3, {}).evaluate([0.0, 1.0])))
records["params hetero no sigma2 beta_star"] = attempt(lambda: hetero.beta_star(0.3, {}).hex())
for name, cfg in configs.items():
    for workers in (1, 2, 3, 7):
        records[f"{name} workers={workers}"] = attempt(lambda: sweep(cfg, workers))
json.dump(records, sys.stdout)
