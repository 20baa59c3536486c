"""Family-table tests: every row against both boundary routes and its users."""

import argparse
import math

import pytest

from sparse_detect.boundary import beta_sharp, beta_star_general, boundary_closed_form
from sparse_detect.cli import _build_parser
from sparse_detect.dists import FiniteDiscrete, to_spec
from sparse_detect.errors import ConfigError, InvalidParameterError
from sparse_detect.families import FAMILIES, SIMULATABLE, build
from sparse_detect.sim import ExperimentConfig, phase_sweep

RS = [round(0.05 * k, 2) for k in range(1, 21)]  # criterion 2's r grid

# Oracle grid per family with a boundary: (shape parameters, signal values).
ORACLE = {
    "idj": ([{}], RS),
    "hetero": ([{"sigma2": s} for s in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)], RS),
    "dilate": ([{}], RS),
    "ggconv": ([{"tau": t} for t in (1.0, 1.5, 2.0)], [1.0, 2.0, 4.0]),
    "gglocation": ([{"tau": t} for t in (0.8, 1.0, 1.5, 2.0, 2.5)], RS),
}

# Shape parameters of each simulatable family for the overlay check.
SIM_PARAMS = {
    "idj": {},
    "hetero": {"sigma2": 2.0},
    "gglocation": {"tau": 1.5},
    "custom": {
        "null": to_spec(FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))),
        "alt": to_spec(FiniteDiscrete(((2.0, 1.0),))),
    },
}


def test_every_family_with_a_boundary_has_an_oracle_grid():
    assert set(ORACLE) == {name for name, f in FAMILIES.items() if f.exponent}


@pytest.mark.parametrize("name", list(ORACLE))
def test_numeric_boundary_matches_closed_form(name):
    family = FAMILIES[name]
    shapes, values = ORACLE[name]
    for shape in shapes:
        for value in values:
            alpha = family.alpha(value, shape)
            route = beta_star_general if alpha.axis == "s" else beta_sharp
            got = route(alpha).beta
            want = boundary_closed_form(name, **{family.swept: value}, **shape)
            assert got == pytest.approx(want, abs=1e-3), (name, shape, value)


def test_simulatable_families_have_overlay_params():
    assert set(SIM_PARAMS) == set(SIMULATABLE)


@pytest.mark.parametrize("name", SIMULATABLE)
def test_overlay_is_the_closed_form(name):
    family, params = FAMILIES[name], SIM_PARAMS[name]
    cfg = ExperimentConfig(
        family=name, beta_grid=(0.6,), r_grid=(0.0, 0.3, 0.8), n_list=(32,),
        replicates=1, tests=("lr",), seed=0, family_params=params,
    )
    table = phase_sweep(cfg)
    assert len(table.cells) == 3
    for cell in table.cells:
        if family.exponent is None:
            assert math.isnan(cell.beta_star)
        else:
            assert cell.beta_star == boundary_closed_form(name, r=cell.r, **params)


@pytest.mark.parametrize("value", [math.nan, -0.1, math.inf])
def test_overlay_rejects_a_signal_value_outside_zero_to_inf(value):
    with pytest.raises(InvalidParameterError, match="r must be >= 0 and finite"):
        FAMILIES["idj"].beta_star(value, {})


# Each route from a family's parameters to a result, at signal value 0.3.
ROUTES = {
    "alpha": lambda name, params: FAMILIES[name].alpha(0.3, params),
    "beta_star": lambda name, params: FAMILIES[name].beta_star(0.3, params),
    "build": build,
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_a_missing_shape_parameter_is_named(route):
    with pytest.raises(InvalidParameterError, match="^family 'hetero' requires parameter sigma2$"):
        ROUTES[route]("hetero", {})


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize(
    "name, params", [("idj", {"tau": 2.0}), ("hetero", {"sigma2": 0.5, "tau": 2.0})]
)
def test_an_undeclared_parameter_is_refused(route, name, params):
    words = f"^family {name!r} does not take parameter tau$"
    with pytest.raises(InvalidParameterError, match=words):
        ROUTES[route](name, params)


@pytest.mark.parametrize("route", list(ROUTES))
def test_parameters_must_be_a_dict(route):
    with pytest.raises(InvalidParameterError, match="^family parameters must be a dict, got 3$"):
        ROUTES[route]("idj", 3)


def test_config_refuses_an_undeclared_parameter():
    with pytest.raises(ConfigError, match="^family 'idj' does not take parameter tau$"):
        ExperimentConfig(
            family="idj", beta_grid=(0.6,), r_grid=(0.3,), n_list=(32,), replicates=1,
            tests=("lr",), seed=0, family_params={"tau": 2.0},
        )


def test_cli_family_choices_are_the_table():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    with_family = {}
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.dest == "family":
                with_family[command] = list(action.choices)
    assert set(with_family) == {
        "boundary", "exponent", "check-alpha", "lr", "simulate", "estimate-gamma"
    }
    for command, choices in with_family.items():
        assert choices == list(FAMILIES), command
