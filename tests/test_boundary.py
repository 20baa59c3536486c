"""Boundary-engine tests: closed forms, grid suprema, and their agreement."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import logsumexp

from sparse_detect import boundary
from sparse_detect.boundary import (
    ExponentFunction,
    alpha_family,
    beta_convolution,
    beta_sharp,
    beta_star_general,
    boundary_closed_form,
    check_admissible,
    ess_sup_grid,
    gamma_from_alpha,
    hc_achievable_boundary,
    hellinger_exponent,
    laplace_log_integral,
    tail_exponent,
)
from sparse_detect.errors import (
    AdmissibilityError,
    EmptySupportError,
    HCBoundaryUndefinedError,
    InvalidParameterError,
    OutOfRegimeError,
    WrongParametrizationError,
)

U_GRID = np.linspace(-5.0, 5.0, 20001)

# one valid parameter set per alpha_family kind, then ggconv's tau < 1 and tau = 1 branches
ALPHA_KINDS = [
    ("idj", dict(r=0.3)),
    ("symmetric_idj", dict(r=0.3)),
    ("hetero", dict(r=0.3, sigma2=0.5)),
    ("dilate", dict(points=(-0.4, 0.9))),
    ("conv_from_f", dict(ts=[-1.0, 0.5, 2.0], fs=[0.2, 0.0, np.inf])),
    ("gen_gaussian_conv", dict(r=1.0, tau=1.5)),
    ("gen_gaussian_location", dict(r=0.5, tau=2.0)),
    ("gen_gaussian_conv", dict(r=1.0, tau=0.5)),
    ("gen_gaussian_conv", dict(r=1.0, tau=1.0)),
]
ALPHA_IDS = [kind for kind, _ in ALPHA_KINDS[:7]] + [
    "gen_gaussian_conv-tau0.5",
    "gen_gaussian_conv-tau1",
]


class TestClosedForms:
    def test_classical_golden_values(self):
        assert boundary_closed_form("idj", r=0.25) == pytest.approx(0.75, abs=1e-12)
        assert boundary_closed_form("idj", mode="r-of-beta", beta=0.75) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_idj_bit_identical_to_the_scalar_formula(self):
        # the sweep overlay column prints this value with repr
        for r in [0.05 * k for k in range(1, 41)] + [0.8, 0.3, 1e-9, 0.2500001]:
            want = 0.5 + r if r <= 0.25 else 1.0 - max(0.0, 1.0 - math.sqrt(r)) ** 2
            got = boundary_closed_form("idj", r=r)
            assert type(got) is float and got == want, r

    def test_idj_branches(self):
        assert boundary_closed_form("idj", r=0.1) == pytest.approx(0.6, abs=1e-12)
        assert boundary_closed_form("idj", r=0.81) == pytest.approx(
            1 - (1 - 0.9) ** 2, abs=1e-12
        )
        assert boundary_closed_form("idj", r=4.0) == 1.0

    def test_idj_inverse_pair(self):
        for r in np.linspace(0.01, 0.99, 49):
            beta = boundary_closed_form("idj", r=float(r))
            back = boundary_closed_form("idj", mode="r-of-beta", beta=beta)
            assert back == pytest.approx(float(r), abs=1e-9)

    def test_hetero_golden_values(self):
        assert boundary_closed_form("hetero", r=0.0, sigma2=2.0) == pytest.approx(
            0.5, abs=1e-12
        )
        # signal variance tau^2 = 4 on top of unit noise
        assert boundary_closed_form("hetero", r=0.0, sigma2=5.0) == pytest.approx(
            0.8, abs=1e-12
        )
        # sigma2 = 1 collapses to the classical boundary
        for r in (0.1, 0.25, 0.6):
            assert boundary_closed_form("hetero", r=r, sigma2=1.0) == pytest.approx(
                boundary_closed_form("idj", r=r), abs=1e-12
            )

    def test_hetero_inverse_pair(self):
        for sigma2 in (0.5, 1.0, 1.5, 3.0):
            for r in np.linspace(0.02, 0.9, 23):
                beta = boundary_closed_form("hetero", r=float(r), sigma2=sigma2)
                if beta >= 1.0 - 1e-9:
                    continue
                back = boundary_closed_form(
                    "hetero", mode="r-of-beta", beta=beta, sigma2=sigma2
                )
                assert back == pytest.approx(float(r), abs=1e-9)

    def test_dilate_golden_values(self):
        assert boundary_closed_form("dilate", linf=0.5) == pytest.approx(0.75, abs=1e-12)
        assert boundary_closed_form("dilate", linf=0.7) == pytest.approx(0.91, abs=1e-12)
        assert boundary_closed_form("dilate", linf=1.3) == 1.0

    def test_ggconv_golden_values(self):
        assert boundary_closed_form("ggconv", tau=1.0, r=4.0) == pytest.approx(
            0.5625, abs=1e-12
        )
        assert boundary_closed_form("ggconv", tau=1.0, r=2.0) == 0.5  # below threshold
        assert boundary_closed_form("ggconv", tau=2.0, r=2.0) == pytest.approx(
            2.0 / 3.0, abs=1e-12
        )
        assert boundary_closed_form("ggconv", tau=2.0, r=0.5) == 0.5

    def test_ggconv_generic_tau_matches_bullets(self):
        # the generic 1-D supremum must agree with the exact bullets
        def classical(x):
            return 0.5 + x if x <= 0.25 else 1.0 - max(0.0, 1.0 - math.sqrt(x)) ** 2

        for tau, r in ((1.0, 4.0), (1.0, 8.0), (2.0, 2.0), (2.0, 5.0)):
            zs = np.linspace(0.0, 6.0, 200001)
            brute = np.max(
                np.where(
                    zs > 0,
                    np.array([classical(r * z * z) for z in zs]) - zs**tau,
                    0.5,
                )
            )
            want = boundary_closed_form("ggconv", tau=tau, r=r)
            assert max(0.5, brute) == pytest.approx(want, abs=1e-8)

    def test_gglocation_golden_values(self):
        assert boundary_closed_form("gglocation", tau=1.0, r=0.5) == pytest.approx(
            0.75, abs=1e-12
        )
        assert boundary_closed_form("gglocation", tau=0.7, r=1.5) == 1.0
        assert boundary_closed_form("gglocation", tau=2.0, r=0.25) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_gglocation_branch_continuity(self):
        # threshold between the linear and the power branch at tau = 2 is 1/4
        below = boundary_closed_form("gglocation", tau=2.0, r=0.25 - 1e-12)
        above = boundary_closed_form("gglocation", tau=2.0, r=0.25 + 1e-12)
        assert abs(below - above) <= 1e-9
        at_one = boundary_closed_form("gglocation", tau=2.0, r=1.0)
        just_above = boundary_closed_form("gglocation", tau=2.0, r=1.0 + 1e-12)
        assert abs(at_one - just_above) <= 1e-9

    def test_gglocation_subnormal_threshold_keeps_the_linear_branch(self):
        # at tau = 140 the branch point (1 - 2^(1/(1-tau)))^tau is 3.48e-323, subnormal:
        # slope = (1/2 - c) / threshold overflows, so the ratio r / threshold is formed in logs
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            tau, r = mpmath.mpf(140), mpmath.mpf(1e-323)
            threshold = (1 - mpmath.power(2, 1 / (1 - tau))) ** tau
            want = float(0.5 + (0.5 - mpmath.power(2, tau / (1 - tau))) * r / threshold)
        assert want == pytest.approx(0.50070559461454980, abs=1e-16)
        assert boundary_closed_form("gglocation", r=1e-323, tau=140.0) == pytest.approx(
            want, rel=1e-14
        )
        # the threshold underflows to 0.0 at tau = 200, and r = 1e-300 is above the
        # branch point at tau = 100: both read the power branch as before
        assert boundary_closed_form("gglocation", r=1e-300, tau=200.0) == 0.99838224323874578
        assert boundary_closed_form("gglocation", r=1e-300, tau=100.0) == 0.5

    def test_invalid_parameters_name_the_branch(self):
        with pytest.raises(InvalidParameterError, match="r must be >= 0"):
            boundary_closed_form("idj", r=-1.0)
        with pytest.raises(InvalidParameterError, match="beta must lie in"):
            boundary_closed_form("idj", mode="r-of-beta", beta=1.2)
        with pytest.raises(InvalidParameterError, match="sigma2"):
            boundary_closed_form("hetero", r=0.1, sigma2=0.0)
        with pytest.raises(InvalidParameterError, match="r-of-beta"):
            boundary_closed_form("dilate", mode="r-of-beta", linf=0.5)
        with pytest.raises(InvalidParameterError):
            boundary_closed_form("nope", r=0.5)

    @pytest.mark.parametrize("family, shape", [("idj", {}), ("gglocation", {"tau": 0.7}),
                                               ("gglocation", {"tau": 1.5}),
                                               ("gglocation", {"tau": 200.0})])
    def test_no_signal_reads_one_half(self, family, shape):
        # no signal, r = 0, is inside these closed forms; only their exponent functions need r > 0
        assert boundary_closed_form(family, r=0.0, **shape) == 0.5
        assert boundary_closed_form(family, r=0, **shape) == 0.5

    def test_numeric_string_beta_rejected_like_r(self):
        for family, params in (("idj", {}), ("hetero", {"sigma2": 1.5})):
            with pytest.raises(InvalidParameterError, match="beta must lie in"):
                boundary_closed_form(family, mode="r-of-beta", beta="0.6", **params)
            with pytest.raises(InvalidParameterError, match="r must be"):
                boundary_closed_form(family, r="0.3", **params)

    @pytest.mark.parametrize("value", [math.inf, math.nan, "abc", None])
    def test_non_finite_beta_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="beta must lie in"):
            boundary_closed_form("idj", mode="r-of-beta", beta=value)

    @pytest.mark.parametrize("value", [math.inf, math.nan, "abc", None])
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="r must be >= 0 and finite"):
            boundary_closed_form("idj", r=value)
        with pytest.raises(InvalidParameterError, match="r must be >= 0 and finite"):
            alpha_family("idj", r=value)
        with pytest.raises(InvalidParameterError, match="linf must be >= 0 and finite"):
            boundary_closed_form("dilate", linf=value)


def _ggconv_reference(u, r, tau):
    """u^2 - min(u^2, c(z*)), with z* the brentq root of c' above the minimum of c'."""
    u, sqrt_r = abs(u), math.sqrt(r)
    slope = lambda z: 2.0 * r * z - 2.0 * sqrt_r * u + tau * z ** (tau - 1.0)
    lo = (tau * (1.0 - tau) / (2.0 * r)) ** (1.0 / (2.0 - tau)) if tau < 1.0 else 0.0
    hi = u / sqrt_r
    if hi <= lo or slope(lo) >= 0.0:
        return 0.0
    # c'(hi) = tau hi^(tau-1) > 0, unless rounding cancels it at a tiny u
    z = brentq(slope, lo, hi, xtol=1e-18) if slope(hi) > 0.0 else hi
    return u * u - min(u * u, (u - sqrt_r * z) ** 2 + z**tau)


class TestAlphaFamilies:
    def test_idj_value(self):
        alpha = alpha_family("idj", r=0.25)
        assert float(alpha.evaluate(1.0)) == pytest.approx(0.75, abs=1e-15)

    def test_symmetric_idj(self):
        alpha = alpha_family("symmetric_idj", r=0.3)
        assert float(alpha.evaluate(-1.0)) == float(alpha.evaluate(1.0))

    def test_hetero_value(self):
        alpha = alpha_family("hetero", r=0.25, sigma2=2.0)
        u = 1.3
        assert float(alpha.evaluate(u)) == pytest.approx(
            u * u - (u - 0.5) ** 2 / 2.0, abs=1e-14
        )

    def test_dilate_interval_is_square_inside(self):
        alpha = alpha_family("dilate", interval=(-0.5, 0.5))
        for u in (0.0, 0.2, -0.4):
            assert float(alpha.evaluate(u)) == pytest.approx(u * u, abs=1e-14)
        assert float(alpha.evaluate(2.0)) == pytest.approx(
            2 * 2.0 * 0.5 - 0.25, abs=1e-14
        )

    def test_dilate_uniform_support_boundary(self):
        alpha = alpha_family("dilate", interval=(-0.5, 0.5))
        assert beta_sharp(alpha).beta == pytest.approx(0.75, abs=1e-9)

    def test_conv_from_f_matches_idj(self):
        # point mass at sqrt(r) reproduces the location-model exponent
        alpha = alpha_family("conv_from_f", ts=[0.5], fs=[0.0])
        ref = alpha_family("idj", r=0.25)
        us = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(alpha.evaluate(us), ref.evaluate(us), atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        tau=st.floats(0.2, 6.0),
        r=st.floats(0.05, 8.0),
        share=st.floats(0.0, 1.0),
    )
    def test_ggconv_matches_brentq_reference(self, tau, r, share):
        alpha = alpha_family("gen_gaussian_conv", r=r, tau=tau)
        u = share * alpha.domain()[1]
        got = float(alpha.evaluate(u))
        assert 0.0 <= got <= u * u
        assert float(alpha.evaluate(-u)) == got
        assert abs(got - _ggconv_reference(u, r, tau)) <= 1e-12 * max(1.0, u * u)

    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0, 4.0])
    def test_ggconv_tau1_closed_form(self, r):
        # c'(z) = 2 r z - 2 sqrt(r) u + 1 is linear, so z* = max(0, (2 sqrt(r) u - 1) / 2r)
        alpha = alpha_family("gen_gaussian_conv", r=r, tau=1.0)
        us = np.linspace(*alpha.domain(), 401)
        z = np.maximum(0.0, (2.0 * math.sqrt(r) * np.abs(us) - 1.0) / (2.0 * r))
        want = us * us - (np.abs(us) - math.sqrt(r) * z) ** 2 - z
        np.testing.assert_allclose(
            alpha.evaluate(us), want, rtol=0, atol=1e-14 * max(1.0, us.max() ** 2)
        )

    def test_ggconv_minimum_at_zero_gives_exact_zero(self):
        # for tau = 0.5, r = 1 the minimum of c sits at z = 0 while u < 0.75
        alpha = alpha_family("gen_gaussian_conv", r=1.0, tau=0.5)
        for u in (0.1, 0.3, 0.6):
            assert float(alpha.evaluate(u)) == 0.0

    def test_ggconv_tau2_matches_hetero(self):
        # Gaussian signal of variance r on unit noise is hetero sigma2 = 1 + r
        alpha = alpha_family("gen_gaussian_conv", r=2.0, tau=2.0)
        ref = alpha_family("hetero", r=0.0, sigma2=3.0)
        us = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(alpha.evaluate(us), ref.evaluate(us), atol=1e-9)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("dilate", dict(points=[math.nan])),
            ("dilate", dict(points=[0.3, math.inf])),
            ("dilate", dict(interval=(-math.inf, 1.0))),
            ("conv_from_f", dict(ts=[math.nan, 0.5], fs=[0.0, 0.0])),
            ("conv_from_f", dict(ts=[0.1, 0.5], fs=[math.nan, 0.0])),  # only +inf is off-support
        ],
    )
    def test_non_finite_support_rejected(self, kind, params):
        with pytest.raises(InvalidParameterError, match="finite"):
            alpha_family(kind, **params)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("gen_gaussian_conv", dict(r=1.0, tau=1.5)),
            ("dilate", dict(points=(-0.4, 0.1, 0.9))),
            ("dilate", dict(interval=(-0.3, 0.8))),
            ("conv_from_f", dict(ts=[-1.0, 0.5, 2.0], fs=[0.2, 0.0, np.inf])),
            ("gen_gaussian_conv", dict(r=1.0, tau=0.5)),
            ("gen_gaussian_conv", dict(r=1.0, tau=1.0)),
            ("dilate", dict(linf=0.0)),
        ],
        ids=[
            "ggconv", "dilate-points", "dilate-interval", "conv_from_f",
            "ggconv-tau0.5", "ggconv-tau1", "dilate-linf0",
        ],
    )
    def test_evaluators_match_the_row_by_support_formula(self, kind, params):
        # dilate and conv_from_f reduce over their support one point at a time;
        # np.maximum and np.minimum are exact, so they equal the reduction of
        # the (rows, support) array bit for bit, signed zeros included.  ggconv
        # solves each row on its own, so pieces of 7 rows give the same bits.
        alpha = alpha_family(kind, **params)
        us = np.linspace(*alpha.domain(), 4099)
        if kind == "dilate" and "interval" in params:
            x = np.clip(us, *params["interval"])
            want = 2.0 * us * x - x * x
        elif kind == "dilate":
            linf = params.get("linf")
            support = np.asarray(params["points"] if linf is None else (-linf, linf))
            want = (2.0 * us[:, None] * support - support**2).max(axis=1)
        elif kind == "conv_from_f":
            ts, fs = np.asarray(params["ts"]), np.asarray(params["fs"])
            ts, fs = ts[np.isfinite(fs)], fs[np.isfinite(fs)]
            want = us * us - ((us[:, None] - ts[None, :]) ** 2 + fs[None, :]).min(axis=1)
        else:
            want = np.concatenate([alpha.evaluate(us[i : i + 7]) for i in range(0, us.size, 7)])
        got = alpha.evaluate(us)
        assert got.tobytes() == want.tobytes()
        if params.get("linf") == 0.0:
            assert np.signbit(got).any() and (got == 0.0).all()


class TestExponentFunction:
    @pytest.mark.parametrize("kind, params", ALPHA_KINDS, ids=ALPHA_IDS)
    def test_result_keeps_the_input_shape(self, kind, params):
        alpha = alpha_family(kind, **params)
        for xs in (np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0.3]), np.array([[1.9]])):
            got = alpha.evaluate(xs)
            want = [np.asarray(alpha.evaluate(float(x))).item() for x in xs.flat]
            assert got.shape == xs.shape
            assert got.ravel().tolist() == want

    @pytest.mark.parametrize("kind, params", ALPHA_KINDS, ids=ALPHA_IDS)
    def test_scalar_matches_one_element_array(self, kind, params):
        alpha = alpha_family(kind, **params)
        for x in (0.0, 0.37, 1.9):
            scalar = np.asarray(alpha.evaluate(x)).item()
            assert scalar == np.asarray(alpha.evaluate(np.array([x]))).item()

    @pytest.mark.parametrize("kind, params", ALPHA_KINDS, ids=ALPHA_IDS)
    def test_domain_by_axis(self, kind, params):
        alpha = alpha_family(kind, **params)
        lo, hi = alpha.domain()
        assert alpha.has_closed_form and hi >= 5.0
        assert lo == (-hi if alpha.axis == "u" else 0.0)

    @pytest.mark.parametrize(
        "xs", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, math.nan, 2.0]]
    )
    def test_grid_abscissae_not_strictly_increasing_rejected(self, xs):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            ExponentFunction.from_grid(xs, [0.0, 0.0, 0.0])

    def test_neither_evaluator_nor_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExponentFunction(axis="u")

    def test_evaluator_and_grid_together_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExponentFunction(
                axis="u", fn=np.abs, width=5.0, xs=[0.0, 1.0], values=[0.0, 1.0]
            )


class TestAdmissibility:
    def test_idj_admissible(self):
        report = check_admissible(alpha_family("idj", r=0.25))
        assert report.admissible
        assert abs(report.ladder_values[-1]) <= 0.05

    def test_everywhere_violation(self):
        bad = ExponentFunction.from_grid(U_GRID, U_GRID**2 + 0.1)
        report = check_admissible(bad)
        assert not report.admissible
        assert any("exceeds u^2" in v for v in report.violations)

    def test_report_is_true_exactly_when_admissible(self):
        good = check_admissible(alpha_family("idj", r=0.25))
        bad = check_admissible(ExponentFunction.from_grid(U_GRID, U_GRID**2 + 0.1))
        assert (bool(good), bool(bad)) == (True, False)

    def test_concave_with_convolutional_flag(self):
        alpha = ExponentFunction.from_grid(U_GRID, -np.abs(U_GRID), convolutional=True)
        report = check_admissible(alpha)
        assert not report.admissible
        assert any("not convex" in v for v in report.violations)

    def test_wrong_axis(self):
        gamma = alpha_family("gen_gaussian_location", r=0.5, tau=1.0)
        with pytest.raises(WrongParametrizationError):
            check_admissible(gamma)

    def test_nan_values_are_a_violation(self):
        alpha = ExponentFunction(
            axis="u", fn=lambda u: np.where(np.abs(u) < 1.0, np.nan, -1.0), width=5.0
        )
        report = check_admissible(alpha)
        assert not report.admissible
        assert any("NaN" in v for v in report.violations)
        with pytest.raises(AdmissibilityError, match="NaN"):
            beta_sharp(alpha)

    @pytest.mark.parametrize(
        "alpha",
        [alpha_family("hetero", r=r, sigma2=5.0) for r in (0.0, 0.05, 0.5, 1.0)]
        + [alpha_family("gen_gaussian_conv", r=4.0, tau=2.0)],
    )
    def test_domain_width_term_does_not_reject(self, alpha):
        # the ladder's first rungs are dominated by log(W)/t, so a ladder
        # that ends near 0 is admissible wherever it started
        report = check_admissible(alpha)
        assert report.admissible, report.violations

    @pytest.mark.parametrize("gap", [0.01, 0.03])
    def test_ladder_moving_away_from_zero_rejected(self, gap):
        # (1/t) log integral of exp(-t gap) = -gap + log(W)/t: within the
        # final tolerance, but its magnitude grows over the last rungs
        report = check_admissible(ExponentFunction.from_grid(U_GRID, U_GRID**2 - gap))
        assert not report.admissible
        assert any("does not decrease" in v for v in report.violations)


class TestBetaSharp:
    def test_idj_quarter(self):
        res = beta_sharp(alpha_family("idj", r=0.25))
        assert res.beta == pytest.approx(0.75, abs=1e-9)
        assert res.maximizer == pytest.approx(1.0, abs=1e-6)

    def test_weak_signal_floor(self):
        res = beta_sharp(alpha_family("hetero", r=0.0, sigma2=2.0))
        assert res.beta == pytest.approx(0.5, abs=1e-12)

    def test_strong_signal_ceiling(self):
        alpha = ExponentFunction.from_grid(U_GRID, U_GRID**2)
        assert beta_sharp(alpha).beta == pytest.approx(1.0, abs=1e-12)

    def test_inadmissible_rejected(self):
        bad = ExponentFunction.from_grid(U_GRID, U_GRID**2 + 0.1)
        with pytest.raises(AdmissibilityError):
            beta_sharp(bad)

    def test_wrong_axis(self):
        gamma = alpha_family("gen_gaussian_location", r=0.5, tau=1.0)
        with pytest.raises(WrongParametrizationError):
            beta_sharp(gamma)

    @pytest.mark.parametrize("r", [0.05, 0.25, 0.5, 0.75, 1.0])
    def test_matches_closed_form_idj(self, r):
        got = beta_sharp(alpha_family("idj", r=r)).beta
        assert got == pytest.approx(boundary_closed_form("idj", r=r), abs=1e-3)

    @pytest.mark.parametrize("sigma2", [0.5, 1.5, 3.0])
    def test_matches_closed_form_hetero(self, sigma2):
        for r in (0.1, 0.4):
            got = beta_sharp(alpha_family("hetero", r=r, sigma2=sigma2)).beta
            want = boundary_closed_form("hetero", r=r, sigma2=sigma2)
            assert got == pytest.approx(want, abs=1e-3)

    def test_matches_closed_form_ggconv(self):
        got = beta_sharp(alpha_family("gen_gaussian_conv", r=2.0, tau=2.0)).beta
        assert got == pytest.approx(2.0 / 3.0, abs=1e-5)
        got = beta_sharp(alpha_family("gen_gaussian_conv", r=4.0, tau=1.0)).beta
        assert got == pytest.approx(0.5625, abs=1e-5)

    def test_grid_built_once_per_call(self, monkeypatch):
        builds = []
        grid = ExponentFunction.grid

        def counting_grid(self, *args):
            builds.append(self)
            return grid(self, *args)

        monkeypatch.setattr(ExponentFunction, "grid", counting_grid)
        alpha = alpha_family("idj", r=0.25)
        beta_sharp(alpha)
        hellinger_exponent(alpha, 0.6)
        hc_achievable_boundary(alpha)
        assert len(builds) == 3

    def test_symmetrization_invariance(self):
        for r in (0.05, 0.25, 0.6, 1.0):
            plain = beta_sharp(alpha_family("idj", r=r)).beta
            mirrored = beta_sharp(alpha_family("symmetric_idj", r=r)).beta
            assert abs(plain - mirrored) <= 1e-9

    def test_results_stay_in_the_sparse_band(self):
        # positive-part exponents land in [1/2, 1]; maximizers stay in domain
        for alpha in (
            alpha_family("idj", r=0.05),
            alpha_family("idj", r=2.5),
            alpha_family("hetero", r=0.0, sigma2=0.5),
            alpha_family("dilate", linf=1.5),
        ):
            res = beta_sharp(alpha)
            assert 0.5 <= res.beta <= 1.0
            lo, hi = alpha.domain()
            assert lo <= res.maximizer <= hi


class TestBetaStarGeneral:
    @pytest.mark.parametrize("r", [0.1, 0.25, 0.5, 1.0])
    def test_substitution_identity(self, r):
        alpha = alpha_family("idj", r=r)
        gamma = gamma_from_alpha(alpha)
        assert beta_star_general(gamma).beta == pytest.approx(
            beta_sharp(alpha).beta, abs=1e-9
        )

    def test_gglocation_laplace(self):
        gamma = alpha_family("gen_gaussian_location", r=0.5, tau=1.0)
        assert beta_star_general(gamma).beta == pytest.approx(0.75, abs=1e-9)

    def test_gglocation_matches_closed_form(self):
        for tau, r in ((1.0, 0.3), (2.0, 0.25), (2.0, 0.6), (3.0, 0.1), (0.5, 0.8)):
            gamma = alpha_family("gen_gaussian_location", r=r, tau=tau)
            want = boundary_closed_form("gglocation", tau=tau, r=r)
            assert beta_star_general(gamma).beta == pytest.approx(want, abs=1e-6)

    def test_gamma_above_s_is_refused(self):
        s = np.linspace(0.0, 2.0, 201)
        values = s.copy()
        values[100] += 0.3
        gamma = ExponentFunction.from_grid(s, values, axis="s")
        with pytest.raises(AdmissibilityError, match=r"^gamma\(s\) exceeds s at s=1 by 0\.3$"):
            beta_star_general(gamma)

    def test_constant_negative_gamma(self):
        s = np.linspace(0.0, 5.0, 1001)
        gamma = ExponentFunction.from_grid(s, np.full_like(s, -1.0), axis="s")
        assert beta_star_general(gamma).beta == 0.5

    def test_wrong_axis(self):
        with pytest.raises(WrongParametrizationError):
            beta_star_general(alpha_family("idj", r=0.25))


class TestHellingerExponent:
    def test_spot_values_idj_quarter(self):
        alpha = alpha_family("idj", r=0.25)
        assert hellinger_exponent(alpha, 0.6) == pytest.approx(-0.7225, abs=1e-9)
        assert hellinger_exponent(alpha, 0.75) == pytest.approx(-1.0, abs=1e-9)
        assert hellinger_exponent(alpha, 0.9) == pytest.approx(-1.3, abs=1e-9)

    def test_sign_characterization(self):
        cases = [
            alpha_family("idj", r=0.25),
            alpha_family("hetero", r=0.4, sigma2=1.5),
            alpha_family("dilate", linf=0.7),
        ]
        closed = [
            boundary_closed_form("idj", r=0.25),
            boundary_closed_form("hetero", r=0.4, sigma2=1.5),
            boundary_closed_form("dilate", linf=0.7),
        ]
        for alpha, bstar in zip(cases, closed):
            assert hellinger_exponent(alpha, bstar - 0.05) > -1.0
            assert hellinger_exponent(alpha, bstar + 0.05) < -1.0
            assert hellinger_exponent(alpha, bstar) == pytest.approx(-1.0, abs=5e-3)

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            hellinger_exponent(alpha_family("idj", r=0.25), 0.4)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, "abc"])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(InvalidParameterError, match="beta must be finite"):
            hellinger_exponent(alpha_family("idj", r=0.25), beta)


class TestTailExponent:
    def test_flat_before_the_peak(self):
        alpha = alpha_family("idj", r=0.25)
        for u in (0.0, 0.2, 0.5):
            assert tail_exponent(alpha, u) == pytest.approx(0.0, abs=1e-12)

    def test_decay_after_the_peak(self):
        alpha = alpha_family("idj", r=0.25)
        assert tail_exponent(alpha, 1.0) == pytest.approx(-0.25, abs=1e-9)

    def test_zero_exponent(self):
        alpha = ExponentFunction.from_grid(U_GRID, np.zeros_like(U_GRID))
        for u in (0.0, 1.5, 3.0):
            assert tail_exponent(alpha, u) == pytest.approx(-u * u, abs=1e-6)

    def test_nonincreasing(self):
        alpha = alpha_family("hetero", r=0.3, sigma2=2.0)
        us = np.linspace(0.0, 3.0, 61)
        vals = [tail_exponent(alpha, float(u)) for u in us]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_u_rejected(self):
        with pytest.raises(InvalidParameterError):
            tail_exponent(alpha_family("idj", r=0.25), -0.5)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_non_finite_u_rejected(self, u):
        with pytest.raises(InvalidParameterError, match="u must be >= 0 and finite"):
            tail_exponent(alpha_family("idj", r=0.25), u)


class TestNoSignal:
    """At r = 0 the exponent is 0 everywhere: both boundary routes read 1/2."""

    @pytest.mark.parametrize(
        "family, closed, shape",
        [("idj", "idj", {}), ("symmetric_idj", "idj", {}),
         ("gen_gaussian_location", "gglocation", {"tau": 0.7}),
         ("gen_gaussian_location", "gglocation", {"tau": 1.5})],
    )
    def test_numeric_route_is_the_closed_form(self, family, closed, shape):
        alpha = alpha_family(family, r=0.0, **shape)
        route = beta_star_general if alpha.axis == "s" else beta_sharp
        assert route(alpha).beta == boundary_closed_form(closed, r=0.0, **shape) == 0.5

    @pytest.mark.parametrize("family", ["idj", "symmetric_idj"])
    def test_hc_boundary_is_undefined(self, family):
        with pytest.raises(HCBoundaryUndefinedError, match="nowhere positive"):
            hc_achievable_boundary(alpha_family(family, r=0.0))

    def test_ggconv_still_requires_positive_r(self):
        with pytest.raises(InvalidParameterError, match="r must be > 0 and finite, got 0.0"):
            alpha_family("gen_gaussian_conv", r=0.0, tau=1.5)
        with pytest.raises(InvalidParameterError, match="r must be > 0 and finite, got 0.0"):
            boundary_closed_form("ggconv", r=0.0, tau=1.5)


class TestHCAchievableBoundary:
    @pytest.mark.parametrize(
        "alpha,want",
        [
            (alpha_family("idj", r=0.25), 0.75),
            (alpha_family("hetero", r=0.25, sigma2=1.0), 0.75),
            (alpha_family("dilate", linf=0.5), 0.75),
        ],
    )
    def test_golden_values(self, alpha, want):
        assert hc_achievable_boundary(alpha).beta == pytest.approx(want, abs=1e-6)

    def test_adaptivity_identity(self):
        for alpha in (
            alpha_family("idj", r=0.1),
            alpha_family("idj", r=0.8),
            alpha_family("hetero", r=0.3, sigma2=2.5),
            alpha_family("dilate", linf=0.9),
        ):
            direct = hc_achievable_boundary(alpha).beta
            reference = beta_sharp(alpha).beta
            assert direct == pytest.approx(reference, abs=1e-3)

    @pytest.mark.parametrize(
        "alpha",
        [alpha_family("idj", r=r) for r in (0.05, 0.25, 0.6, 1.5)]
        + [
            alpha_family("hetero", r=0.25, sigma2=1.0),
            alpha_family("hetero", r=0.3, sigma2=2.5),
            alpha_family("hetero", r=0.1, sigma2=0.5),
        ],
    )
    def test_direct_form_is_beta_sharp_on_q_nonnegative(self, alpha):
        # the direct form is beta_sharp's objective restricted to q >= 0;
        # with a nonnegative maximizer the restriction changes no bit
        sharp = beta_sharp(alpha)
        assert sharp.maximizer >= 0.0
        hc = hc_achievable_boundary(alpha)
        assert (hc.beta, hc.maximizer) == (sharp.beta, sharp.maximizer)

    def test_nowhere_positive_rejected(self):
        alpha = ExponentFunction.from_grid(U_GRID, -(U_GRID**2))
        with pytest.raises(HCBoundaryUndefinedError):
            hc_achievable_boundary(alpha)


class TestBetaConvolution:
    def test_laplace_tail_cost(self):
        ts = np.linspace(-5, 5, 20001)
        fs = np.abs(ts) * 4.0 ** (-0.5)
        res = beta_convolution(ts, fs)
        assert res.beta == pytest.approx(0.5625, abs=1e-6)
        assert abs(res.maximizer) == pytest.approx(0.75, abs=1e-3)

    def test_zero_cost_saturates(self):
        ts = np.linspace(-5, 5, 2001)
        assert beta_convolution(ts, np.zeros_like(ts)).beta == 1.0

    def test_point_support(self):
        ts = np.linspace(-2, 2, 4001)
        fs = np.where(ts == 0.5, 0.0, np.inf)
        res = beta_convolution(ts, fs)
        assert res.beta == pytest.approx(0.75, abs=1e-12)
        assert res.maximizer == pytest.approx(0.5, abs=1e-12)

    def test_empty_support(self):
        ts = np.linspace(-1, 1, 101)
        with pytest.raises(EmptySupportError):
            beta_convolution(ts, np.full_like(ts, np.inf))

    @pytest.mark.parametrize(
        "ts, fs, match",
        [
            ([0.5, 0.1, 0.3], [0.0, 0.0, 0.0], "ts must be strictly increasing"),
            ([0.1, 0.1, 0.3], [0.0, 0.0, 0.0], "ts must be strictly increasing"),
            ([0.1, math.nan, 0.3], [0.0, 0.0, 0.0], "ts must be finite"),
            ([0.1, 0.3], [math.nan, 0.0], "fs must be finite or [+]inf"),
            ([0.1, 0.3], [-math.inf, 0.0], "fs must be finite or [+]inf"),
        ],
    )
    def test_malformed_grid_rejected(self, ts, fs, match):
        with pytest.raises(InvalidParameterError, match=match):
            beta_convolution(ts, fs)


class TestEssSupGrid:
    def test_parabola(self):
        val, arg = ess_sup_grid(U_GRID, -(U_GRID**2))
        assert val == 0.0
        assert arg == 0.0

    def test_constant_ties_break_left(self):
        xs = np.linspace(0.0, 1.0, 11)
        val, arg = ess_sup_grid(xs, np.full_like(xs, 2.5))
        assert (val, arg) == (2.5, 0.0)

    def test_idj_margin(self):
        alpha = alpha_family("idj", r=0.25)
        xs, vals = alpha.grid()
        val, arg = ess_sup_grid(
            xs, vals - xs * xs, refine=lambda u: float(alpha.evaluate(u)) - u * u
        )
        assert val == pytest.approx(0.0, abs=1e-12)
        assert arg == pytest.approx(0.5, abs=1e-6)

    def test_neg_inf_skipped(self):
        xs = np.linspace(0, 1, 5)
        vals = np.array([-np.inf, 1.0, -np.inf, 0.5, -np.inf])
        assert ess_sup_grid(xs, vals) == (1.0, 0.25)
        with pytest.raises(EmptySupportError):
            ess_sup_grid(xs, np.full_like(xs, -np.inf))

    def test_nan_value_rejected(self):
        xs = np.linspace(0, 1, 5)
        vals = np.array([0.0, 1.0, np.nan, 2.0, -np.inf])
        with pytest.raises(InvalidParameterError, match="NaN at x=0.5"):
            ess_sup_grid(xs, vals)

    def test_refine_skipped_next_to_neg_inf(self):
        # the winner's left neighbour is off the support, so refining
        # between the neighbours would leave it
        xs = np.linspace(0, 1, 5)
        vals = np.array([-np.inf, 1.0, 0.5, 0.25, 0.0])
        assert ess_sup_grid(xs, vals, refine=lambda x: 5.0) == (1.0, 0.25)
        vals[0] = 0.5
        assert ess_sup_grid(xs, vals, refine=lambda x: 5.0)[0] == 5.0


class TestLaplaceLogIntegral:
    def test_gaussian_closed_form(self):
        want = 0.005 * (math.log(math.pi) - math.log(100.0))  # -0.01730220...
        got = laplace_log_integral(U_GRID, -(U_GRID**2), 100.0)
        assert got == pytest.approx(want, abs=1e-6)

    def test_constant(self):
        xs = np.linspace(0.0, 1.0, 101)
        assert laplace_log_integral(xs, np.full_like(xs, 2.5), 37.0) == pytest.approx(
            2.5, abs=1e-12
        )

    def test_idj_margin_increases_toward_zero(self):
        alpha = alpha_family("idj", r=0.25)
        xs, vals = alpha.grid()
        seq = [laplace_log_integral(xs, vals - xs * xs, m) for m in (1e2, 1e3, 1e4)]
        assert seq[0] < seq[1] < seq[2] < 0.0

    def test_invalid_m(self):
        with pytest.raises(InvalidParameterError):
            laplace_log_integral(U_GRID, -(U_GRID**2), 0.0)

    @pytest.mark.parametrize("big_m", [math.nan, math.inf, -1.0, "abc"])
    def test_non_finite_or_non_positive_m_rejected(self, big_m):
        with pytest.raises(InvalidParameterError, match="M must be > 0 and finite"):
            laplace_log_integral(U_GRID, -(U_GRID**2), big_m)

    @pytest.mark.parametrize(
        "xs", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0, 3.0], [0.0, math.nan, 2.0, 3.0]]
    )
    def test_not_strictly_increasing_xs_rejected(self, xs):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            laplace_log_integral(xs, np.zeros(4), 10.0)


def _scipy_laplace(xs, values, big_m):
    """Reference: trapezoid log-weights and scipy's logsumexp, one M per call."""
    dx = np.diff(xs)
    weights = np.zeros_like(xs)
    weights[:-1] += 0.5 * dx
    weights[1:] += 0.5 * dx
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    return float(logsumexp(big_m * values + log_w)) / big_m


def _ladder_grids():
    """(id, xs, alpha values): every alpha_family grid, then sampled and edge grids."""
    for name, (kind, params) in zip(ALPHA_IDS, ALPHA_KINDS):
        yield (name, *alpha_family(kind, **params).grid())
    rng = np.random.default_rng(20260419)
    for i in range(6):
        n = int(rng.integers(50, 3000))
        xs = np.cumsum(rng.uniform(1e-3, 0.1, n)) - 1.0
        vals = xs * xs - np.abs(rng.normal(0.0, rng.uniform(0.01, 3.0), n))
        vals[rng.random(n) < 0.3] = -np.inf
        vals[: n // 3] = -np.inf  # one off-support region
        yield f"sampled-{i}", xs, vals
    xs = np.linspace(-1.0, 1.0, 41)
    yield "tied-maxima", xs, xs * xs - np.where(np.arange(41) % 10 == 3, 0.0, 0.2)
    yield "constant-margin", xs, xs * xs - 0.01
    yield "all-neg-inf", xs, np.full_like(xs, -np.inf)
    yield "pos-inf", xs, np.where(np.arange(41) == 7, np.inf, xs * xs - 0.1)


LADDER_GRIDS = list(_ladder_grids())


@pytest.mark.parametrize("xs, vals", [g[1:] for g in LADDER_GRIDS], ids=[g[0] for g in LADDER_GRIDS])
def test_ladder_equals_scipy_logsumexp_bit_for_bit(xs, vals):
    margin = vals - xs * xs
    want = tuple(_scipy_laplace(xs, margin, m) for m in boundary._LADDER)
    alpha = ExponentFunction.from_grid(xs, np.zeros_like(xs))
    report, gate_margin = boundary._admissibility(alpha, boundary._Grid(xs, "u"), vals)
    assert gate_margin.tobytes() == margin.tobytes()
    one_rung = tuple(laplace_log_integral(xs, margin, m) for m in boundary._LADDER)
    assert np.array(report.ladder_values).tobytes() == np.array(want).tobytes()
    assert np.array(one_rung).tobytes() == np.array(want).tobytes()


# (id, xs, alpha values, convolutional flag, the violation the grid must raise)
VERDICT_GRIDS = [
    ("excess", U_GRID, U_GRID**2 + 0.1, False, "exceeds u^2"),
    ("constant-margin-0.06", U_GRID, U_GRID**2 - 0.06, False, "does not decrease"),
    ("final-magnitude", U_GRID, U_GRID**2 - 0.2 - np.abs(U_GRID), False, "maximum allowed"),
    ("non-convex", U_GRID, -np.abs(U_GRID), True, "not convex"),
] + [(name, xs, vals, False, None) for name, xs, vals in LADDER_GRIDS]


@pytest.mark.parametrize(
    "xs, vals, convolutional, violation",
    [g[1:] for g in VERDICT_GRIDS], ids=[g[0] for g in VERDICT_GRIDS],
)
def test_gate_verdict_matches_the_full_report(monkeypatch, xs, vals, convolutional, violation):
    # the gate evaluates only the last two rungs, which is all its verdict reads
    alpha = ExponentFunction.from_grid(xs, np.zeros_like(xs), convolutional=convolutional)
    grid = boundary._Grid(xs, "u")
    report = boundary._admissibility(alpha, grid, vals)[0]
    if violation is not None:
        assert any(violation in v for v in report.violations), report.violations
    rungs = []
    ladder = boundary._laplace_ladder
    monkeypatch.setattr(
        boundary, "_laplace_ladder", lambda x, v, m: rungs.append(m) or ladder(x, v, m)
    )
    if report.admissible:
        boundary._require_admissible(alpha, grid, vals)
    else:
        with pytest.raises(AdmissibilityError) as raised:
            boundary._require_admissible(alpha, grid, vals)
        assert str(raised.value) == "; ".join(report.violations)
    assert rungs == [boundary._LADDER[-2:]]


@pytest.mark.parametrize(
    "alpha",
    [alpha_family(kind, **params) for kind, params in ALPHA_KINDS]
    + [ExponentFunction.from_grid(g[1], g[2], convolutional=g[3]) for g in VERDICT_GRIDS[:4]],
    ids=ALPHA_IDS + [g[0] for g in VERDICT_GRIDS[:4]],
)
def test_beta_sharp_rejects_exactly_what_check_admissible_rejects(alpha):
    if alpha.axis == "s":
        for fn in (check_admissible, beta_sharp):
            with pytest.raises(WrongParametrizationError):
                fn(alpha)
        return
    report = check_admissible(alpha)
    assert len(report.ladder_values) == len(boundary._LADDER)
    if report.admissible:
        beta_sharp(alpha)
    else:
        with pytest.raises(AdmissibilityError) as raised:
            beta_sharp(alpha)
        assert str(raised.value) == "; ".join(report.violations)


def _unwritten_inputs():
    """(id, exponent function): sampled grids on both axes, and a closed form."""
    s_grid = np.linspace(0.0, 4.0, 20001)
    u_vals = np.where(U_GRID < -4.0, -np.inf, 2.0 * U_GRID * math.sqrt(0.3) - 0.3)
    yield "u-grid", ExponentFunction.from_grid(U_GRID.copy(), u_vals)
    yield "s-grid", ExponentFunction.from_grid(s_grid, s_grid - np.abs(s_grid - 0.5), axis="s")
    yield "ggconv", alpha_family("gen_gaussian_conv", r=1.0, tau=1.5)


UNWRITTEN_INPUTS = list(_unwritten_inputs())
# every entry point that reaches the row buffers of the gate, the ladder or the supremum
BOUNDARY_CALLS = {
    "beta_sharp": beta_sharp,
    "hc_achievable_boundary": hc_achievable_boundary,
    "hellinger_exponent": lambda alpha: hellinger_exponent(alpha, 0.75),
    "tail_exponent": lambda alpha: tail_exponent(alpha, 0.5),
    "check_admissible": check_admissible,
    "beta_star_general": lambda fn: beta_star_general(
        fn if fn.axis == "s" else gamma_from_alpha(fn)
    ),
    "laplace_log_integral": lambda fn: laplace_log_integral(*fn.grid(), 2048.0),
    "ess_sup_grid": lambda fn: ess_sup_grid(*fn.grid()),
}


# the s-axis grid goes only to the calls that take one; the others refuse its axis first
UNWRITTEN_CASES = [
    (name, fn, call)
    for name, fn in UNWRITTEN_INPUTS
    for call in BOUNDARY_CALLS
    if fn.axis == "u" or call in ("beta_star_general", "laplace_log_integral", "ess_sup_grid")
]


@pytest.mark.parametrize(
    "fn, call", [c[1:] for c in UNWRITTEN_CASES], ids=[f"{c[0]}-{c[2]}" for c in UNWRITTEN_CASES]
)
def test_boundaries_never_write_into_their_inputs(fn, call):
    before = [a.copy() for a in fn.grid()]
    if not fn.has_closed_form:
        assert fn.grid()[0] is fn.xs and fn.grid()[1] is fn.values
    first = BOUNDARY_CALLS[call](fn)
    assert [a.tobytes() for a in fn.grid()] == [a.tobytes() for a in before]
    assert repr(BOUNDARY_CALLS[call](fn)) == repr(first)
    u = before[0].copy()
    fn.evaluate(u)
    assert u.tobytes() == before[0].tobytes()


def _cache_outcomes(alpha) -> list[str]:
    """Every boundary of ``alpha`` on its grid, as repr (exact for floats) or its error."""
    u_axis = alpha.axis == "u"
    calls = [
        lambda: beta_sharp(alpha),
        lambda: hc_achievable_boundary(alpha),
        lambda: hellinger_exponent(alpha, 0.75),
        *(lambda q=q: tail_exponent(alpha, q) for q in (0.0, 0.45, 1.7, 4.999, 6.0)),
        lambda: beta_star_general(gamma_from_alpha(alpha) if u_axis else alpha),
        lambda: check_admissible(alpha),
    ]
    out = []
    for call in calls:
        try:
            out.append(repr(call()))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


# other domains of both axes: (-5, 5) and (0, 5) share a width, and five
# domains are more than the cache holds
CACHE_FILLERS = [
    alpha_family("idj", r=0.3), alpha_family("gen_gaussian_location", r=0.5, tau=2.0),
    alpha_family("idj", r=4.0), alpha_family("gen_gaussian_location", r=2.5, tau=2.0),
    alpha_family("idj", r=9.0),
]


def test_cache_covers_every_family_kind_on_both_axes():
    assert {kind for kind, _ in ALPHA_KINDS} == set(boundary._ALPHA_FAMILIES)
    axes = {alpha_family(kind, **params).axis for kind, params in ALPHA_KINDS}
    assert axes == {"u", "s"}


@pytest.fixture(scope="module")
def cold_fillers():
    """The outcomes of each of CACHE_FILLERS on an empty cache."""
    outcomes = []
    for alpha in CACHE_FILLERS:
        boundary._domain.cache_clear()
        outcomes.append(_cache_outcomes(alpha))
    return outcomes


@pytest.mark.parametrize("kind, params", ALPHA_KINDS, ids=ALPHA_IDS)
def test_cold_and_warm_domains_give_the_same_bits(kind, params, cold_fillers):
    alpha = alpha_family(kind, **params)
    boundary._domain.cache_clear()
    cold = _cache_outcomes(alpha)
    assert _cache_outcomes(alpha) == cold  # the record just built
    boundary._domain.cache_clear()
    for count in (2, len(CACHE_FILLERS)):  # the cache holds other domains, then evicts
        for other, want in zip(CACHE_FILLERS[:count], cold_fillers):
            assert _cache_outcomes(other) == want
        assert boundary._domain.cache_info().currsize <= boundary._DOMAINS_CACHED
        assert _cache_outcomes(alpha) == cold


def test_closed_forms_on_one_domain_share_a_read_only_grid():
    idj, hetero = alpha_family("idj", r=0.3), alpha_family("hetero", r=0.3, sigma2=0.5)
    gglocation = alpha_family("gen_gaussian_location", r=0.5, tau=2.0)
    assert idj.domain() == hetero.domain() == (-5.0, 5.0) and gglocation.domain() == (0.0, 5.0)
    xs, values = idj.grid()
    assert hetero.grid()[0] is xs
    assert gglocation.grid()[0] is not xs
    for row in (xs, gglocation.grid()[0]):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0
    assert values.flags.writeable and idj.grid()[1] is not values  # values are the caller's


def test_domain_cache_holds_at_most_its_bound():
    # from r = 2.25 on, every idj r has its own domain [-2 (sqrt r + 1), 2 (sqrt r + 1)]
    domains = set()
    for r in np.linspace(2.25, 100.0, 40):
        alpha = alpha_family("idj", r=float(r))
        beta_sharp(alpha)
        domains.add(alpha.domain())
        assert boundary._domain.cache_info().currsize <= boundary._DOMAINS_CACHED == 4
    assert len(domains) == 40


def _traced_peak(fn, cold=True) -> int:
    fn()  # warm: the first call may import or cache
    if cold:  # a cold call builds its domain's record, which the cache then keeps
        boundary._domain.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call, bound",
    [
        # one 20001-point row is 160 kB; each bound is the measured peak plus 1.5 rows.
        # The unblocked Newton kernel peaked at 2.88 MB, the compacted one at 1.86 MB
        (alpha_family("gen_gaussian_conv", r=1.0, tau=1.5).grid, 2_100_000),
        # 1.36 MB before one margin served the gate and the supremum, 0.90 MB after
        (lambda: beta_sharp(alpha_family("idj", r=0.3)), 1_140_000),
    ],
    ids=["ggconv-grid", "idj-beta_sharp"],
)
def test_peak_memory_of_one_boundary_call(call, bound):
    peak = _traced_peak(call)
    assert peak < bound, peak


def test_peak_memory_of_a_warm_boundary_call():
    # the second call on a domain reads its cached rows: one idj beta_sharp
    # peaked at 0.90 MB before the cache, and at 0.58 MB warm; the bound adds 1.5 rows
    boundary._domain.cache_clear()
    peak = _traced_peak(lambda: beta_sharp(alpha_family("idj", r=0.3)), cold=False)
    assert boundary._domain.cache_info().misses == 1  # the traced call built no row
    assert peak < 820_000, peak
