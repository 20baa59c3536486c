"""Every numeric input of the public API, of a config and of the CLI, fed values it must refuse.

Each case puts one bad value where a number belongs: NaN, +inf, -inf, -1,
"abc" or True.  A list or sample parameter gets the value as one of its
entries.  The call must either return a result whose every number is
finite, or raise a named :class:`SparseDetectError`; a CLI run must exit
with 0 (then printing no NaN or inf), 2 or 3, and never with a traceback.
NaN and "abc" must always raise, as no parameter can mean anything by
them.  The exceptions to these rules are listed in ``ALLOWED`` and
``NAN_PASSES``, each with its reason.

The cases cover every callable in the ``__all__`` of the library modules:
each one either has cases here or is listed in ``NO_NUMBERS`` (it takes
no numeric parameter) or ``UNCHECKED`` (with the reason its numbers are
not checked).  ``rng`` has no ``__all__``; ``rng.stream`` masks its seed
on purpose.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import re

import numpy as np
import pytest

from sparse_detect import boundary, cli, dists, divergence, families, hctest, sim
from sparse_detect.boundary import alpha_family
from sparse_detect.dists import FiniteDiscrete, Gaussian, Mixture
from sparse_detect.errors import SparseDetectError

BAD = [math.nan, math.inf, -math.inf, -1.0, "abc", True]
MODULES = (boundary, dists, divergence, hctest, sim, families)

IDJ = alpha_family("idj", r=0.25)
MIX = Mixture(Gaussian(), Gaussian(1.0, 1.0), 0.1)
CONFIG = dict(
    family="idj", beta_grid=[0.6], r_grid=[0.5], n_list=[64], replicates=5,
    tests=["max"], seed=7,
)


def sample(v, n=20):
    """An n-point sample holding ``v`` as its fourth entry."""
    ys = [0.1 * k - 1.0 for k in range(n)]
    ys[3] = v
    return ys


_MISSING = object()


def config(**changes):
    """``CONFIG`` with ``changes`` through ``from_dict``; a key set to ``_MISSING`` is left out."""
    data = dict(CONFIG, **changes)
    return sim.ExperimentConfig.from_dict({k: v for k, v in data.items() if v is not _MISSING})

# callable -> {case: function of the bad value}
CASES = {
    "ExponentFunction": {
        "width": lambda v: boundary.ExponentFunction(axis="u", fn=np.abs, width=v),
        "xs": lambda v: boundary.ExponentFunction.from_grid([0.0, v, 2.0], [0.0, 0.0, 0.0]),
        "values": lambda v: boundary.ExponentFunction.from_grid([0.0, 1.0, 2.0], [0.0, v, 0.0]),
    },
    "alpha_family": {
        "idj r": lambda v: alpha_family("idj", r=v),
        "symmetric_idj r": lambda v: alpha_family("symmetric_idj", r=v),
        "hetero r": lambda v: alpha_family("hetero", r=v, sigma2=1.5),
        "hetero sigma2": lambda v: alpha_family("hetero", r=0.3, sigma2=v),
        "dilate linf": lambda v: alpha_family("dilate", linf=v),
        "dilate points": lambda v: alpha_family("dilate", points=[0.2, v]),
        "dilate interval": lambda v: alpha_family("dilate", interval=(v, 1.5)),
        "conv_from_f ts": lambda v: alpha_family("conv_from_f", ts=[0.1, v], fs=[0.0, 0.0]),
        "conv_from_f fs": lambda v: alpha_family("conv_from_f", ts=[0.1, 0.5], fs=[0.0, v]),
        "ggconv r": lambda v: alpha_family("gen_gaussian_conv", r=v, tau=1.5),
        "ggconv tau": lambda v: alpha_family("gen_gaussian_conv", r=1.0, tau=v),
        "gglocation r": lambda v: alpha_family("gen_gaussian_location", r=v, tau=1.5),
        "gglocation tau": lambda v: alpha_family("gen_gaussian_location", r=0.5, tau=v),
    },
    "exponent_from_csv": {"value": "csv"},  # written to a file, see test_api_input
    "hellinger_exponent": {"beta": lambda v: boundary.hellinger_exponent(IDJ, v)},
    "tail_exponent": {"u": lambda v: boundary.tail_exponent(IDJ, v)},
    "boundary_closed_form": {
        "idj r": lambda v: boundary.boundary_closed_form("idj", r=v),
        "idj beta": lambda v: boundary.boundary_closed_form("idj", mode="r-of-beta", beta=v),
        "hetero r": lambda v: boundary.boundary_closed_form("hetero", r=v, sigma2=1.5),
        "hetero sigma2": lambda v: boundary.boundary_closed_form("hetero", r=0.3, sigma2=v),
        "hetero beta": lambda v: boundary.boundary_closed_form(
            "hetero", mode="r-of-beta", beta=v, sigma2=1.5
        ),
        "dilate linf": lambda v: boundary.boundary_closed_form("dilate", linf=v),
        "ggconv r": lambda v: boundary.boundary_closed_form("ggconv", r=v, tau=1.5),
        "ggconv tau": lambda v: boundary.boundary_closed_form("ggconv", r=1.0, tau=v),
        "gglocation r": lambda v: boundary.boundary_closed_form("gglocation", r=v, tau=2.0),
        "gglocation tau": lambda v: boundary.boundary_closed_form("gglocation", r=0.5, tau=v),
    },
    "beta_convolution": {
        "ts": lambda v: boundary.beta_convolution([0.1, 0.5, v], [0.0, 0.0, 0.0]),
        "fs": lambda v: boundary.beta_convolution([0.1, 0.5, 0.9], [0.0, v, 0.0]),
    },
    "ess_sup_grid": {
        "xs": lambda v: boundary.ess_sup_grid([0.0, v, 2.0], [0.0, 1.0, 0.0]),
        "values": lambda v: boundary.ess_sup_grid([0.0, 1.0, 2.0], [0.0, v, 0.0]),
    },
    "laplace_log_integral": {
        "xs": lambda v: boundary.laplace_log_integral([0.0, v, 2.0], [0.0, 0.0, 0.0], 10.0),
        "values": lambda v: boundary.laplace_log_integral([0.0, 1.0, 2.0], [0.0, v, 0.0], 10.0),
        "M": lambda v: boundary.laplace_log_integral([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], v),
    },
    "Gaussian": {
        "mean": lambda v: Gaussian(v, 1.0),
        "sd": lambda v: Gaussian(0.0, v),
    },
    "GenGaussian": {"tau": lambda v: dists.GenGaussian(v)},
    "Dilated": {"scale": lambda v: dists.Dilated(Gaussian(), v)},
    "Shifted": {"shift": lambda v: dists.Shifted(Gaussian(), v)},
    "FiniteDiscrete": {
        "point": lambda v: FiniteDiscrete(((0.0, 0.5), (v, 0.5))),
        "mass": lambda v: FiniteDiscrete(((0.0, 0.5), (1.0, v))),
    },
    "Mixture": {"weight": lambda v: Mixture(Gaussian(), Gaussian(1.0, 1.0), v)},
    "epsilon_from_beta": {
        "n": lambda v: dists.epsilon_from_beta(v, 0.6),
        "beta": lambda v: dists.epsilon_from_beta(100, v),
    },
    "mu_from_r": {
        "n": lambda v: dists.mu_from_r(v, 0.5),
        "r": lambda v: dists.mu_from_r(100, v),
    },
    "from_spec": {
        "gaussian mean": lambda v: dists.from_spec({"kind": "gaussian", "mean": v}),
        "gaussian sd": lambda v: dists.from_spec({"kind": "gaussian", "sd": v}),
        "gen_gaussian tau": lambda v: dists.from_spec({"kind": "gen_gaussian", "tau": v}),
        "mixture weight": lambda v: dists.from_spec(
            {"kind": "mixture", "first": {"kind": "gaussian"},
             "second": {"kind": "gaussian", "mean": 1.0}, "weight": v}
        ),
    },
    "hellinger_tensorize": {
        "h2": lambda v: divergence.hellinger_tensorize(v, 2),
        "n": lambda v: divergence.hellinger_tensorize(0.1, v),
    },
    "tv_hellinger_bounds": {"h2": lambda v: divergence.tv_hellinger_bounds(v)},
    "mixture_hellinger_singular": {
        "h2": lambda v: divergence.mixture_hellinger_singular(v, 0.1),
        "eps": lambda v: divergence.mixture_hellinger_singular(0.5, v),
    },
    "decompose_alternative": {
        "kappa": lambda v: divergence.decompose_alternative(
            Gaussian(), v, Gaussian(1.0, 1.0), FiniteDiscrete(((5.0, 1.0),)), 0.1, 100
        ),
        "eps": lambda v: divergence.decompose_alternative(
            Gaussian(), 0.0, Gaussian(1.0, 1.0), None, v, 100
        ),
        "n": lambda v: divergence.decompose_alternative(
            Gaussian(), 0.0, Gaussian(1.0, 1.0), None, 0.1, v
        ),
    },
    "hc_statistic": {"sample": lambda v: hctest.hc_statistic(sample(v), Gaussian())},
    "hc_statistics": {"samples": lambda v: hctest.hc_statistics([sample(v)] * 2, Gaussian())},
    "hc_threshold": {
        "n": lambda v: hctest.hc_threshold(v, 0.1),
        "delta": lambda v: hctest.hc_threshold(100, v),
    },
    "hc_decision": {
        "statistic": lambda v: hctest.hc_decision(v, 100),
        "n": lambda v: hctest.hc_decision(3.0, v),
        "delta": lambda v: hctest.hc_decision(3.0, 100, v),
    },
    "hc_test": {
        "sample": lambda v: hctest.hc_test(sample(v), Gaussian()),
        "delta": lambda v: hctest.hc_test(sample(0.0), Gaussian(), delta=v),
    },
    "max_test": {
        "sample": lambda v: hctest.max_test(sample(v)),
        "u": lambda v: hctest.max_test(sample(0.0), u=v),
    },
    "max_rejects": {
        "samples": lambda v: hctest.max_rejects([sample(v)] * 2),
        "u": lambda v: hctest.max_rejects(np.zeros((2, 20)), v),
    },
    "lr_test": {"sample": lambda v: hctest.lr_test(sample(v), MIX)},
    "lr_statistic": {"eps": lambda v: hctest.lr_statistic(np.zeros(20), v)},
    "lr_rejects": {"eps": lambda v: hctest.lr_rejects(np.zeros(20), v)},
    "vn_statistic": {
        "sample": lambda v: hctest.vn_statistic(sample(v), 0.5, Gaussian()),
        "s": lambda v: hctest.vn_statistic(sample(0.0), v, Gaussian()),
    },
    "wilson_halfwidth": {
        "successes": lambda v: sim.wilson_halfwidth(v, 10),
        "trials": lambda v: sim.wilson_halfwidth(3, v),
        "z": lambda v: sim.wilson_halfwidth(3, 10, v),
    },
    "family_mixture": {
        "r": lambda v: sim.family_mixture("idj", {}, v, 0.6, 100),
        "beta": lambda v: sim.family_mixture("idj", {}, 0.5, v, 100),
        "n": lambda v: sim.family_mixture("idj", {}, 0.5, 0.6, v),
        "hetero sigma2": lambda v: sim.family_mixture("hetero", {"sigma2": v}, 0.5, 0.6, 100),
        "gglocation tau": lambda v: sim.family_mixture("gglocation", {"tau": v}, 0.5, 0.6, 100),
        "gglocation r": lambda v: sim.family_mixture("gglocation", {"tau": 2.0}, v, 0.6, 100),
    },
    "run_cell": {
        "null_rejects": lambda v: sim.run_cell(config(), config().cells()[0], v, 0),
        "misses": lambda v: sim.run_cell(config(), config().cells()[0], 0, v),
    },
    "phase_sweep": {"workers": lambda v: sim.phase_sweep(config(), workers=v)},
    "estimate_gamma": {
        "n_list": lambda v: sim.estimate_gamma(Gaussian(), Gaussian(1.0, 1.0), [v], [0.5]),
        "s_grid": lambda v: sim.estimate_gamma(Gaussian(), Gaussian(1.0, 1.0), [1000], [0.5, v]),
    },
    "ExperimentConfig": {
        **{f"{key} entry": (lambda key: lambda v: config(**{key: [v]}))(key)
           for key in ("beta_grid", "r_grid", "n_list", "tests")},
        **{f"{key} scalar": (lambda key: lambda v: config(**{key: v}))(key)
           for key in CONFIG},
        "delta": lambda v: config(delta=v),
        "family_params sigma2": lambda v: config(family="hetero", family_params={"sigma2": v}),
        "family_params tau": lambda v: config(family="gglocation", family_params={"tau": v}),
        "family_params": lambda v: config(family_params=v),
    },
    "build": {
        "name": lambda v: families.build(v, {}),
        "hetero sigma2": lambda v: families.build("hetero", {"sigma2": v}),
        "gglocation tau": lambda v: families.build("gglocation", {"tau": v}),
    },
}

# callables in __all__ that take no numeric parameter
NO_NUMBERS = {
    "BoundaryResult", "AdmissibilityReport", "gamma_from_alpha", "check_admissible",
    "beta_sharp", "beta_star_general", "hc_achievable_boundary", "Distribution",
    "to_spec", "total_variation", "error_sum", "hellinger_sq", "DecomposedAlternative",
    "HCResult", "DecisionRule", "PhaseCell", "PhaseTable", "GammaDiagnostic", "Family",
}
# callables whose numbers are deliberately not checked
UNCHECKED = {
    "log_likelihood_ratio": "elementwise at evaluation points: NaN in, NaN out, like log_density",
    "lr_log_ratios": "elementwise log ratios of a sweep row; lr_test checks the sample",
    # their other parameter, eps, has cases above
    "lr_statistic ell": "log ratios may be +-inf; a NaN row is decided by lr_rejects",
    "lr_rejects ell": "log ratios may be +-inf; a NaN screen sends its row to lr_statistic",
}
# (callable, case, bad value) -> why its non-finite result is the right answer
ALLOWED = {
    ("ExponentFunction", "values", -math.inf): "-inf marks a point off the support",
    ("laplace_log_integral", "values", math.inf): "(1/M) log of an integral of exp(+inf)",
    ("exponent_from_csv", "value", -math.inf): "-inf marks a point off the support",
}


# (callable, case) -> why a NaN passes unreported
NAN_PASSES = {
    ("max_rejects", "samples"): "a sweep's per-chunk rule never scans for NaN; max_test does",
}


def _numbers(result):
    """Every float, int and numeric array inside a result, its containers and dataclasses."""
    if isinstance(result, (bool, np.bool_)):
        return
    if isinstance(result, numbers.Number):
        yield result
    elif isinstance(result, np.ndarray):
        if result.dtype.kind in "iuf":
            yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from _numbers(item)
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        for f in dataclasses.fields(result):
            yield from _numbers(getattr(result, f.name))


def _is_finite(result) -> bool:
    return all(np.all(np.isfinite(x)) for x in _numbers(result))


def _call(fn, v, tmp_path):
    if fn == "csv":
        path = tmp_path / "alpha.csv"
        path.write_text(f"u,value\n0,0\n1,{v}\n2,0\n")
        return boundary.exponent_from_csv(path)
    return fn(v)


API_CASES = [
    pytest.param(name, case, fn, v, id=f"{name}-{case}-{v!r}")
    for name, cases in CASES.items()
    for case, fn in cases.items()
    for v in BAD
]


@pytest.mark.parametrize("name, case, fn, v", API_CASES)
def test_api_input(name, case, fn, v, tmp_path):
    try:
        result = _call(fn, v, tmp_path)
    except SparseDetectError:
        return
    if v == "abc" or (v != v and (name, case) not in NAN_PASSES):
        pytest.fail(f"{name}({case}={v!r}) returned {result!r}")
    assert _is_finite(result) or (name, case, v) in ALLOWED, f"{name}({case}={v!r}) -> {result!r}"


def test_every_public_callable_is_covered():
    public = {
        attr
        for module in MODULES
        for attr in module.__all__
        if callable(getattr(module, attr))
    }
    listed = set(CASES) | NO_NUMBERS | {key.split()[0] for key in UNCHECKED}
    assert public == listed


@pytest.mark.parametrize("key", list(CONFIG))
def test_missing_config_key_rejected(key):
    with pytest.raises(SparseDetectError, match=repr(key)):
        config(**{key: _MISSING})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CLI_BAD = ["nan", "inf", "-inf", "-1", "abc", "True"]
SIMULATE = {
    "--family": "idj", "--beta-grid": "0.6", "--r-grid": "0.5", "--n-list": "64",
    "--replicates": "3", "--tests": "max", "--seed": "7", "--workers": "1",
}


def _simulate(flag, family="idj"):
    """A simulate case: every flag of ``SIMULATE`` but ``flag``, for ``family``."""
    args = {k: v for k, v in SIMULATE.items() if k != flag} | {"--family": family}
    return "simulate", flag, [a for pair in args.items() for a in pair]


FLAGS = [
    ("boundary", "--r", ["--family", "idj"]),
    ("boundary", "--beta", ["--family", "idj", "--mode", "r-of-beta"]),
    ("boundary", "--sigma2", ["--family", "hetero", "--r", "0.3"]),
    ("boundary", "--tau", ["--family", "ggconv", "--r", "1.0"]),
    ("boundary", "--linf", ["--family", "dilate"]),
    ("boundary", "--r-grid", ["--family", "idj"]),
    ("exponent", "--beta", ["--family", "idj", "--r", "0.25"]),
    ("exponent", "--r", ["--family", "idj", "--beta", "0.7"]),
    ("check-alpha", "--r", ["--family", "idj"]),
    ("hc", "--delta", ["--input", "{sample}"]),
    ("lr", "--epsilon", ["--input", "{sample}", "--null", "gaussian", "--alt", "gaussian"]),
    ("lr", "--r", ["--input", "{sample}", "--family", "idj", "--beta", "0.6"]),
    ("lr", "--beta", ["--input", "{sample}", "--family", "idj", "--r", "0.5"]),
    ("lr", "--sigma2", ["--input", "{sample}", "--family", "hetero", "--r", "0.5",
                        "--beta", "0.6"]),
    ("maxtest", "--u", ["--input", "{sample}"]),
    *[_simulate(flag) for flag in ("--beta-grid", "--r-grid", "--n-list", "--replicates",
                                   "--seed", "--workers", "--delta")],
    _simulate("--sigma2", "hetero"),
    _simulate("--tau", "gglocation"),
    ("estimate-gamma", "--r", ["--family", "idj", "--n-list", "1000", "--s-grid", "0.5"]),
    ("estimate-gamma", "--tau", ["--family", "gglocation", "--r", "0.5", "--n-list", "1000",
                                 "--s-grid", "0.5"]),
    ("estimate-gamma", "--n-list", ["--family", "idj", "--r", "0.5", "--s-grid", "0.5"]),
    ("estimate-gamma", "--s-grid", ["--family", "idj", "--r", "0.5", "--n-list", "1000"]),
]


def _cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), (argv, out)
    return code, err


@pytest.mark.parametrize("command, flag, rest", FLAGS, ids=[f"{c} {f}" for c, f, _ in FLAGS])
@pytest.mark.parametrize("value", CLI_BAD)
def test_cli_flag(capsys, tmp_path, command, flag, rest, value):
    path = tmp_path / "sample.csv"
    path.write_text("\n".join(str(0.1 * k - 1.0) for k in range(20)) + "\n")
    rest = [str(path) if a == "{sample}" else a for a in rest]
    _cli(capsys, [command, *rest, f"{flag}={value}"])


@pytest.mark.parametrize(
    "key", [*CONFIG, "delta", "family_params"], ids=lambda key: key
)
@pytest.mark.parametrize("value", [*BAD, "missing", "wrong shape"], ids=repr)
def test_cli_config_key(capsys, tmp_path, key, value):
    """Each config key through ``simulate --config``; a list key's bad value is its entry.

    "wrong shape" puts a scalar where a list belongs and a list where a scalar does.
    """
    data = dict(CONFIG)
    if value == "missing":
        data.pop(key, None)
    elif value == "wrong shape":
        data[key] = 0.5 if isinstance(CONFIG.get(key), list) else [data.get(key, 0.1)]
    elif isinstance(CONFIG.get(key), list):
        data[key] = [value]
    else:
        data[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    code, err = _cli(capsys, ["simulate", "--config", str(path), "--workers", "1"])
    if value == "missing" and key not in CONFIG:
        want = 0  # delta and family_params have defaults
    elif value == "missing" and key == "seed":
        want = 2  # a usage error: simulate has no wall-clock default seed
    else:
        want = 3
    assert code == want, err
