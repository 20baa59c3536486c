"""The ``boundary`` suite of ``tools/compare.py``: the boundary engine's results.

Run with ``PYTHONPATH`` set to a ``src`` tree, it evaluates:

* every ``alpha_family`` kind (dilate at linf 0, 0.3 and 1.5 and in its
  points and interval forms, conv_from_f with +inf off-support markers and
  with 301 support points, ggconv at tau 0.5, 1, 1.5 and 3) on its grid, on
  a Python float, on 0-d arrays and on 1-D and 2-D arrays holding +-0.0;
* ``beta_sharp``, ``hc_achievable_boundary``, ``hellinger_exponent``,
  ``tail_exponent`` at u inside and beyond the grid, ``beta_star_general``
  of ``gamma_from_alpha`` and the full ``check_admissible`` report for each
  kind, and for sampled grids that fail each admissibility check;
* ``laplace_log_integral`` of each kind's margin alpha(u) - u^2 at every
  ladder rung, ``beta_star_general`` on sampled s-grids, and
  ``ess_sup_grid`` on grids with -inf entries;
* ``boundary_closed_form`` over an (r, tau) grid for gglocation and ggconv;
* the stdout of ``sparse-detect boundary --r-grid`` for the curves of
  ``perfbench/workloads.py``, and of ``check-alpha --format json``.

The closed-form cases and the CLI commands then run a second time, under
keys starting with ``warm``, after every other case: so a grid cached
under a key that does not tell two domains apart shows as a difference.

Each result is recorded as its class, dtype, shape and ``float.hex``
values, or as the class and message of the error it raised.  It prints the
records as one JSON object.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from sparse_detect import boundary as b
from sparse_detect.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CURVES


def record(value):
    if isinstance(value, (b.BoundaryResult, b.AdmissibilityReport)):
        return {k: record(v) for k, v in vars(value).items()}
    if isinstance(value, (tuple, list)):
        return [record(v) for v in value]
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (float, np.floating, np.ndarray)):
        arr = np.asarray(value)
        return [type(value).__name__, str(arr.dtype), arr.shape, [float(x).hex() for x in arr.flat]]
    return repr(value)


def run(fn, *args, **kwargs):
    try:
        return record(fn(*args, **kwargs))
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


rng = np.random.default_rng(20261019)
ts = np.linspace(-3.0, 3.0, 301)
KINDS = {
    "idj": dict(r=0.3), "symmetric_idj": dict(r=0.3),
    "hetero-0.5": dict(r=0.3, sigma2=0.5), "hetero-2": dict(r=0.7, sigma2=2.0),
    "dilate-linf0": dict(linf=0.0), "dilate-linf0.3": dict(linf=0.3),
    "dilate-linf1.5": dict(linf=1.5), "dilate-points": dict(points=(-0.4, 0.1, 0.9)),
    "dilate-interval": dict(interval=(-0.3, 0.8)),
    "conv_from_f-inf": dict(ts=[-1.0, 0.5, 2.0], fs=[0.2, 0.0, np.inf]),
    "conv_from_f-301": dict(ts=ts, fs=np.where(rng.random(301) < 0.2, np.inf, 0.1 * ts * ts + 0.05)),
    "gen_gaussian_location": dict(r=0.5, tau=2.0),
}
for tau in (0.5, 1.0, 1.5, 3.0):
    KINDS[f"gen_gaussian_conv-{tau}"] = dict(r=1.0, tau=tau)
TAIL_POINTS = (0.0, 0.45, 1.7, 4.999, 6.0, 50.0)  # the sampled grids end at u = 5
INPUTS = {
    "float": 0.3, "0d": np.array(0.7), "0d-neg-zero": np.array(-0.0),
    "1d": np.array([-2.0, -0.0, 0.0, 0.25, 1.0, 3.5]),
    "2d": np.array([[0.0, -0.0, 0.5], [-1.5, 2.0, 4.0]]),
}


def kind_records(prefix=""):
    """The records of every closed-form case of KINDS."""
    out = {}
    for name, params in KINDS.items():
        kind, name = name.split("-")[0], prefix + name
        alpha = b.alpha_family(kind, **params)
        out[f"{name}.grid"] = record(alpha.grid())
        for label, x in INPUTS.items():
            out[f"{name}.evaluate({label})"] = run(alpha.evaluate, x)
        out[f"{name}.beta_sharp"] = run(b.beta_sharp, alpha)
        out[f"{name}.hc_achievable_boundary"] = run(b.hc_achievable_boundary, alpha)
        out[f"{name}.hellinger_exponent"] = run(b.hellinger_exponent, alpha, 0.75)
        out[f"{name}.check_admissible"] = run(b.check_admissible, alpha)
        for q in TAIL_POINTS:
            out[f"{name}.tail_exponent({q!r})"] = run(b.tail_exponent, alpha, q)
        gamma = alpha if alpha.axis == "s" else b.gamma_from_alpha(alpha)
        out[f"{name}.beta_star_general"] = run(b.beta_star_general, gamma)
        xs, vals = alpha.grid()
        for m in b._LADDER:
            out[f"{name}.laplace_log_integral(M={m:g})"] = run(b.laplace_log_integral, xs, vals - xs * xs, m)
    return out


records = kind_records()

u = np.linspace(-5.0, 5.0, 20001)
GRIDS = {
    "excess": u * u + 0.1, "constant-margin": u * u - 0.06, "gap-0.01": u * u - 0.01,
    "final-magnitude": u * u - 0.2,
}
BAD = {name: b.ExponentFunction.from_grid(u, vals) for name, vals in GRIDS.items()}
BAD["concave"] = b.ExponentFunction.from_grid(u, -np.abs(u), convolutional=True)
BAD["nan"] = b.ExponentFunction(axis="u", fn=lambda x: np.where(np.abs(x) < 1.0, np.nan, -1.0), width=5.0)
for name, alpha in BAD.items():
    for fn in (b.beta_sharp, b.hc_achievable_boundary, b.check_admissible):
        records[f"grid-{name}.{fn.__name__}"] = run(fn, alpha)
    records[f"grid-{name}.hellinger_exponent"] = run(b.hellinger_exponent, alpha, 0.75)
    for q in TAIL_POINTS:
        records[f"grid-{name}.tail_exponent({q!r})"] = run(b.tail_exponent, alpha, q)

s = np.linspace(0.0, 4.0, 20001)
S_GRIDS = {
    "gglocation-tau1": s - np.abs(s - 0.5), "half": 0.5 * s,
    "off-support": np.where(s < 0.3, -np.inf, 0.9 * s - 0.2), "excess": s + 1e-6,
    "short": np.array([0.0, 0.1, 0.3, 0.2, 0.0]),
}
for name, vals in S_GRIDS.items():
    xs = s if vals.size == s.size else np.linspace(0.0, 1.0, vals.size)
    gamma = b.ExponentFunction.from_grid(xs, vals, axis="s")
    records[f"s-grid-{name}.beta_star_general"] = run(b.beta_star_general, gamma)
    for m in b._LADDER:
        records[f"s-grid-{name}.laplace_log_integral(M={m:g})"] = run(b.laplace_log_integral, xs, vals - xs, m)

SUP_GRIDS = {
    "inner": [-np.inf, 0.5, 2.0, 1.0, -np.inf], "edge": [3.0, -np.inf, 1.0],
    "tie": [-np.inf, 1.0, 1.0, -np.inf], "all-inf": [-np.inf] * 3,
    "nan": [-np.inf, np.nan, 0.0], "plus-inf": [0.0, np.inf, -np.inf],
}
for name, vals in SUP_GRIDS.items():
    xs = np.linspace(-1.0, 1.0, len(vals))
    records[f"ess_sup_grid({name})"] = run(b.ess_sup_grid, xs, vals)
    records[f"ess_sup_grid({name}, refine)"] = run(b.ess_sup_grid, xs, vals, lambda x: 2.1 - (x - 0.1) ** 2)

for tau in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 100.0, 135.0, 140.0, 200.0):
    for r in (0.0, 5e-324, 1e-323, 1e-310, 1e-300, 1e-3, 0.05, 0.25, 0.5, 0.9, 1.0, 1.5):
        records[f"gglocation(r={r!r}, tau={tau!r})"] = run(
            b.boundary_closed_form, "gglocation", r=r, tau=tau)
for tau in (0.5, 1.0, 1.5, 2.0, 3.0):
    for r in (0.05, 0.5, 1.0, 2.5, 4.0):
        records[f"ggconv(r={r!r}, tau={tau!r})"] = run(b.boundary_closed_form, "ggconv", r=r, tau=tau)

CLI = [
    ["boundary", "--family", family, *extra, "--r-grid", grid, "--format", "csv"]
    for family, extra, grid in CURVES
] + [
    ["check-alpha", "--family", "idj", "--r", "0.3", "--format", "json"],
    ["check-alpha", "--family", "dilate", "--linf", "0.0", "--format", "json"],
    ["check-alpha", "--family", "ggconv", "--r", "1", "--tau", "1.5", "--format", "json"],
]


def cli_records(prefix=""):
    """The exit code and stdout of every CLI command."""
    out = {}
    for argv in CLI:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli_main(argv)
        out[prefix + " ".join(argv)] = [code, text.getvalue()]
    return out


records.update(cli_records())
records.update(kind_records("warm "))
records.update(cli_records("warm "))
json.dump(records, sys.stdout)
