"""Distribution-layer tests: calibration, quantiles, ratios, sampling."""

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from scipy.stats import binom, chisquare, kstest

from sparse_detect import dists, rng
from sparse_detect.dists import (
    Dilated,
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
    epsilon_from_beta,
    from_spec,
    log_likelihood_ratio,
    mu_from_r,
    to_spec,
)
from sparse_detect.errors import (
    InvalidParameterError,
    InvalidProbabilityError,
    InvalidSampleSizeError,
    SingularPointError,
    UndefinedPointError,
)


class TestCalibration:
    def test_epsilon_from_beta_values(self):
        assert epsilon_from_beta(100, 0.5) == pytest.approx(0.1, abs=1e-15)
        assert epsilon_from_beta(10, 0.0) == 1.0
        # direct power evaluation: (10^4)^(-0.75) = 10^-3
        assert epsilon_from_beta(10**4, 0.75) == pytest.approx(1e-3, rel=1e-13)

    def test_epsilon_from_beta_errors(self):
        with pytest.raises(InvalidSampleSizeError):
            epsilon_from_beta(1, 0.5)
        with pytest.raises(InvalidParameterError):
            epsilon_from_beta(100, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_calibration_inputs_rejected(self, value):
        with pytest.raises(InvalidParameterError, match="beta must be >= 0 and finite"):
            epsilon_from_beta(1000, value)
        with pytest.raises(InvalidParameterError, match="r must be >= 0 and finite"):
            mu_from_r(1000, value)

    def test_mu_from_r_values(self):
        n_e2 = int(round(math.e**2))
        assert mu_from_r(n_e2, 1.0) == pytest.approx(
            math.sqrt(2 * math.log(n_e2)), rel=1e-15
        )
        assert mu_from_r(50, 0.0) == 0.0
        n_e8 = int(round(math.e**8))
        assert mu_from_r(n_e8, 0.25) == pytest.approx(
            math.sqrt(0.5 * math.log(n_e8)), rel=1e-15
        )

    def test_mu_from_r_errors(self):
        with pytest.raises(InvalidParameterError):
            mu_from_r(100, -1.0)
        with pytest.raises(InvalidSampleSizeError):
            mu_from_r(1, 1.0)


class TestLogLikelihoodRatio:
    def test_gaussian_location_closed_form(self):
        g, q = Gaussian(2.0, 1.0), Gaussian(0.0, 1.0)
        # mu*y - mu^2/2 with mu = 2
        assert log_likelihood_ratio(g, q, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_likelihood_ratio(g, q, 0.0) == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize(
        "y",
        [
            np.linspace(-30.0, 30.0, 1001),
            np.array([0.0, -0.0, 1e-310, -1e-310, 1e200, math.inf, -math.inf, math.nan]),
            np.array(-0.0),
            -0.0,
            2.5,
            [[1.0, -0.0], [3.0, -4.5]],
        ],
    )
    def test_gaussian_pair_equals_the_plain_expression(self, y):
        # the in-place form skips - 0.0, / 1.0 and + 0.0 and moves no bit
        def plain(g, q, y):
            scalar = np.isscalar(y) or np.ndim(y) == 0
            yy = np.asarray(y, dtype=float)
            out = (
                math.log(q.sd / g.sd)
                + 0.5 * ((yy - q.mean) / q.sd) ** 2
                - 0.5 * ((yy - g.mean) / g.sd) ** 2
            )
            return float(out) if scalar else out

        laws = [
            Gaussian(), Gaussian(2.0), Gaussian(0.0, 2.0), Gaussian(-1.5, 0.7), Gaussian(-0.0, 1.0)
        ]
        with np.errstate(invalid="ignore", over="ignore"):
            for g, q in itertools.product(laws, laws):
                got, want = log_likelihood_ratio(g, q, y), plain(g, q, y)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (g, q)

    def test_identical_laws(self):
        d = GenGaussian(1.5)
        for y in (-2.0, 0.0, 3.5):
            assert log_likelihood_ratio(d, d, y) == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetry(self):
        g, q = Gaussian(1.0, 2.0), GenGaussian(1.0)
        ys = np.linspace(-4, 4, 41)
        fwd = log_likelihood_ratio(g, q, ys)
        bwd = log_likelihood_ratio(q, g, ys)
        np.testing.assert_allclose(fwd, -bwd, atol=1e-12)

    def test_discrete_atoms(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        assert log_likelihood_ratio(g, q, 1.0) == pytest.approx(math.log(2.0))
        assert log_likelihood_ratio(g, q, 0.0) == -math.inf

    def test_singular_and_undefined_points(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((2.0, 1.0),))
        with pytest.raises(SingularPointError):
            log_likelihood_ratio(g, q, 2.0)
        with pytest.raises(UndefinedPointError):
            log_likelihood_ratio(q, q, 3.0)

    def test_discrete_pair_matches_the_pointwise_loop(self):
        a = FiniteDiscrete(tuple((0.5 * k, 1.0 / 20) for k in range(20)))
        b = FiniteDiscrete(((-1.0, 0.25), (0.0, 0.25), (2.5, 0.5)))
        q = Shifted(Mixture(a, b, 0.3), 0.25)
        g = Shifted(Mixture(b, a, 0.6), 0.25)
        ys = 0.25 + np.concatenate([0.5 * np.arange(20), [-1.0, 0.0, 2.5]])
        atoms = dict(a.atoms)
        assert a.mass(ys - 0.25).tolist() == [atoms.get(v, 0.0) for v in ys - 0.25]
        loop = lambda d: np.array([d.mass(v) for v in ys])
        want = np.log(loop(g)) - np.log(loop(q))
        np.testing.assert_array_equal(log_likelihood_ratio(g, q, ys), want)
        assert g.mass(float(ys[0])) == pytest.approx(0.6 * 0.05 + 0.4 * 0.25)
        assert isinstance(g.mass(float(ys[0])), float)
        with pytest.raises(SingularPointError):
            log_likelihood_ratio(Shifted(b, 0.25), Shifted(a, 0.25), ys)
        with pytest.raises(UndefinedPointError):
            log_likelihood_ratio(g, q, np.append(ys, 0.3))


class TestDiscreteTails:
    def test_upper_tail_sums_the_atoms_above(self):
        # 1 - cdf rounds the 1e-17 atom away
        d = FiniteDiscrete(((0.0, 1.0 - 1e-17), (1.0, 1e-17)))
        assert d.survival(0.5) == 1e-17
        lower, upper = d.tails(np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(lower, [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(upper, [1.0, 1e-17, 0.0])


# one law of every kind; the mixture has a density, so both evaluators apply
_ONE_OF_EACH_KIND = {
    "gaussian": Gaussian(0.5, 2.0),
    "gen_gaussian": GenGaussian(1.5),
    "dilated": Dilated(GenGaussian(0.7), 2.0),
    "shifted": Shifted(Gaussian(), -1.0),
    "finite_discrete": FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))),
    "mixture": Mixture(Gaussian(), Shifted(GenGaussian(1.0), 2.0), 0.3),
}


@pytest.mark.parametrize("kind", sorted(dists._KINDS))
def test_nan_in_nan_out(kind):
    # the elementwise evaluators pass NaN through, without a warning
    law = _ONE_OF_EACH_KIND[kind]
    assert law.kind == kind
    points = np.array([math.nan, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(math.isnan(tail) for tail in law.tails(math.nan))
        for tail in law.tails(points):
            assert math.isnan(tail[0]) and math.isfinite(tail[1])
        if law.has_density:
            assert math.isnan(law.log_density(math.nan))
            logs = law.log_density(points)
            assert math.isnan(logs[0]) and math.isfinite(logs[1])


class TestQuantile:
    def test_gaussian_median(self):
        assert Gaussian(0.0, 1.0).quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_laplace_quartile(self):
        # Laplace CDF at y < 0 is exp(y)/2, so the lower quartile is ln(1/2)
        assert GenGaussian(1.0).quantile(0.25) == pytest.approx(
            math.log(0.5), rel=1e-12
        )

    def test_discrete_generalized_inverse(self):
        d = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        assert d.quantile(0.5) == 0.0
        assert d.quantile(0.51) == 1.0

    def test_invalid_probability(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(InvalidProbabilityError):
                Gaussian().quantile(p)

    @pytest.mark.parametrize(
        "dist",
        [
            Gaussian(0.0, 1.0),
            Gaussian(-1.5, 0.7),
            GenGaussian(1.0),
            GenGaussian(2.0),
            GenGaussian(0.7),
            Dilated(GenGaussian(1.0), 2.5),
            Shifted(Gaussian(0.0, 1.0), 3.0),
            Mixture(Gaussian(0.0, 1.0), Gaussian(3.0, 2.0), 0.3),
        ],
    )
    def test_cdf_quantile_roundtrip(self, dist):
        ps = np.linspace(5e-4, 1 - 5e-4, 1000)
        for p in ps:
            y = dist.quantile(float(p))
            assert abs(float(dist.cdf(y)) - p) <= 1e-9
            # generalized inverse never overshoots
            assert dist.quantile(float(dist.cdf(y))) <= y + 1e-9

    @pytest.mark.parametrize(
        "dist",
        [
            Gaussian(0.5, 2.0),
            GenGaussian(1.3),
            Dilated(GenGaussian(0.8), 1.7),
            Mixture(Gaussian(), FiniteDiscrete(((0.0, 0.4), (2.0, 0.6))), 0.3),
            FiniteDiscrete(((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
        ],
    )
    def test_cdf_nondecreasing_and_right_continuous(self, dist):
        ys = np.linspace(-6, 6, 2001)
        cdf = np.asarray(dist.cdf(ys), dtype=float)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert np.all((cdf >= 0) & (cdf <= 1))
        for t in (-1.0, 0.0, 1.0, 2.0):
            from_right = float(dist.cdf(t + 1e-12))
            assert from_right == pytest.approx(float(dist.cdf(t)), abs=1e-9)

    def test_gen_gaussian_tau2_matches_gaussian(self):
        # exp(-x^2) density is a normal with sd = 1/sqrt(2)
        gg = GenGaussian(2.0)
        ref = Gaussian(0.0, 1.0 / math.sqrt(2.0))
        ys = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(gg.cdf(ys), ref.cdf(ys), atol=1e-13)
        np.testing.assert_allclose(gg.log_density(ys), ref.log_density(ys), atol=1e-13)


class TestGenGaussianTails:
    @pytest.mark.parametrize("y", [-40.0, -30.0])
    def test_laplace_lower_tail_is_exact(self, y):
        # at tau = 1 the lower tail is exp(y)/2; 0.5 - 0.5 * P(1, 40) rounds to 0.0
        got = float(GenGaussian(1.0).cdf(y))
        assert got == pytest.approx(0.5 * math.exp(y), rel=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_lower_tail_matches_high_precision(self, tau):
        # from near the center out to the far tail
        mpmath = pytest.importorskip("mpmath")
        ys = [y for y in (0.01, 0.3, 0.7, 0.999, 1.0, 1.001, 1.5, 4.0, 9.0, 30.0)
              if y**tau < 700.0]
        for y in ys:
            with mpmath.workdps(40):
                x = mpmath.mpf(y) ** tau
                q = mpmath.gammainc(1 / mpmath.mpf(tau), x, mpmath.inf, regularized=True)
                want = float(q / 2)
            assert float(GenGaussian(tau).cdf(-y)) == pytest.approx(want, rel=1e-13), y

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_survival_mirrors_cdf(self, tau):
        d = GenGaussian(tau)
        ys = np.linspace(-50, 50, 2001)
        np.testing.assert_array_equal(d.survival(ys), d.cdf(-ys))

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_cdf_monotone(self, tau):
        cdf = GenGaussian(tau).cdf(np.linspace(-60, 60, 240001))
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] >= 0.0 and cdf[-1] <= 1.0


class TestGenGaussianQuantile:
    def test_far_lower_tail_is_finite(self):
        # inverting |2p - 1| rounded p = 1e-20 to the median's other end: -inf
        assert GenGaussian(1.0).quantile(1e-20) == pytest.approx(
            math.log(2e-20), rel=1e-14
        )

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_cdf_round_trip_down_to_1e_300(self, tau):
        d = GenGaussian(tau)
        for p in np.logspace(-300.0, math.log10(0.5), 601):
            assert float(d.cdf(d.quantile(float(p)))) == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_symmetric(self, tau):
        d = GenGaussian(tau)
        # 1 - q is exact for q in [1/2, 1), so both calls invert the same tail
        qs = np.concatenate([np.linspace(0.5, 1.0, 201)[:-1], 1.0 - np.logspace(-16, -2, 29)])
        for q in qs:
            assert d.quantile(float(q)) == -d.quantile(1.0 - float(q))
        assert d.quantile(0.5) == 0.0


class TestSampling:
    def test_determinism(self):
        d = Mixture(Gaussian(), GenGaussian(1.0), 0.25)
        a = d.sample(1000, rng.stream(7, 1, 2))
        b = d.sample(1000, rng.stream(7, 1, 2))
        np.testing.assert_array_equal(a, b)
        c = d.sample(1000, rng.stream(7, 1, 3))
        assert not np.array_equal(a, c)

    def test_empty(self):
        assert Gaussian().sample(0, rng.stream(1)).size == 0

    def test_in_place_samplers_equal_the_affine_forms(self):
        # mean + sd * z, scale * x and shift + x, bit for bit; every kind
        # returns a fresh array, which Dilated and Shifted then update
        base = GenGaussian(1.5)
        for d in (Gaussian(), Gaussian(1.5, 2.0), Gaussian(0.0, 0.5), Gaussian(-2.0, 1.0)):
            z = rng.stream(13, 1).standard_normal(1000)
            assert d.sample(1000, rng.stream(13, 1)).tobytes() == (d.mean + d.sd * z).tobytes()
        x = base.sample(1000, rng.stream(13, 2))
        assert Dilated(base, 2.5).sample(1000, rng.stream(13, 2)).tobytes() == (2.5 * x).tobytes()
        assert Shifted(base, -0.7).sample(1000, rng.stream(13, 2)).tobytes() == (-0.7 + x).tobytes()
        kinds = [
            Gaussian(), base, Dilated(base, 2.0), Shifted(base, 1.0),
            FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))), Mixture(Gaussian(), base, 0.5),
        ]
        for d in kinds:
            assert d.sample(10, rng.stream(13, 3)).flags.owndata, d

    def test_standard_normal_turns_a_negative_zero_draw_positive(self):
        # as 0.0 + 1.0 * z does: the mean is added even when it is 0
        class Zeros:
            def standard_normal(self, n):
                return np.full(n, -0.0)

        assert np.signbit(Gaussian().sample(3, Zeros())).tolist() == [False] * 3

    def test_gaussian_mean(self):
        x = Gaussian().sample(10**6, rng.stream(11, 0))
        assert abs(x.mean()) < 0.005  # 3 sigma / sqrt(n) band

    def test_sparse_mixture_sample(self):
        mix = Mixture(Gaussian(), Gaussian(5.0, 1.0), 0.5)
        x = mix.sample(20000, rng.stream(3, 0, 0))
        frac_high = (x > 2.5).mean()
        assert 0.45 < frac_high < 0.55

    def test_epsilon_zero_is_null_distributionally(self):
        # KS distance below the 1% critical value in >= 95 of 100 seeded trials
        mix = Mixture(Gaussian(), Gaussian(3.0, 1.0), 0.0)
        passes = 0
        for trial in range(100):
            x = mix.sample(10**5, rng.stream(2024, trial))
            pvalue = kstest(x, Gaussian().cdf).pvalue
            passes += pvalue > 0.01
        assert passes >= 95

    @pytest.mark.parametrize(
        "dist",
        [GenGaussian(tau) for tau in (0.5, 1.0, 1.5, 2.0, 3.0)]
        + [Shifted(GenGaussian(1.0), 3.0), Dilated(GenGaussian(1.5), 2.0)],
    )
    def test_gen_gaussian_sampler_law(self, dist):
        # KS p-value above 0.01 in >= 95 of 100 seeded trials against d.cdf
        passes = 0
        for trial in range(100):
            x = dist.sample(10**4, rng.stream(2025, trial))
            passes += kstest(x, dist.cdf).pvalue > 0.01
        assert passes >= 95

    def test_gen_gaussian_sampler_determinism(self):
        d = GenGaussian(1.5)
        a = d.sample(1000, rng.stream(7, 4))
        np.testing.assert_array_equal(a, d.sample(1000, rng.stream(7, 4)))
        assert not np.array_equal(a, d.sample(1000, rng.stream(7, 5)))
        assert d.sample(0, rng.stream(7, 4)).shape == (0,)

    # one-atom components make each value its component label
    LABELS = (FiniteDiscrete(((0.0, 1.0),)), FiniteDiscrete(((1.0, 1.0),)))

    def test_mixture_second_component_count_is_binomial(self):
        n, w, trials = 50, 0.3, 4000
        mix = Mixture(*self.LABELS, w)
        counts = np.array(
            [int(mix.sample(n, rng.stream(41, trial)).sum()) for trial in range(trials)]
        )
        observed = np.bincount(counts, minlength=n + 1)
        expected = trials * binom.pmf(np.arange(n + 1), n, w)
        # pool the sparse outer bins so every expected count is at least 5
        keep = expected >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        assert chisquare(obs, exp, ddof=0).pvalue > 1e-3
        assert counts.mean() == pytest.approx(n * w, abs=4 * math.sqrt(n * w * (1 - w) / trials))

    def test_mixture_positions_are_exchangeable(self):
        n, w, trials = 20, 0.25, 8000
        mix = Mixture(*self.LABELS, w)
        draws = np.array([mix.sample(n, rng.stream(43, trial)) for trial in range(trials)])
        band = 4 * math.sqrt(w * (1 - w) / trials)
        # the label at position 0, and at every position, is Bernoulli(w)
        assert abs(draws[:, 0].mean() - w) < band
        assert np.all(np.abs(draws.mean(axis=0) - w) < band)

    def test_mixture_edge_cases(self):
        first, second = self.LABELS
        stream = lambda: rng.stream(47, 1)
        np.testing.assert_array_equal(Mixture(first, second, 0.0).sample(100, stream()), 0.0)
        np.testing.assert_array_equal(Mixture(first, second, 1.0).sample(100, stream()), 1.0)
        for w in (0.0, 0.5, 1.0):
            assert Mixture(first, second, w).sample(0, stream()).shape == (0,)
        mix = Mixture(Gaussian(), GenGaussian(1.0), 0.1)
        np.testing.assert_array_equal(mix.sample(1000, stream()), mix.sample(1000, stream()))

    def test_discrete_sampling_frequencies(self):
        d = FiniteDiscrete(((0.0, 0.25), (1.0, 0.75)))
        x = d.sample(10**5, rng.stream(5))
        assert abs((x == 1.0).mean() - 0.75) < 0.01


class TestMillsRatio:
    def test_bounds_on_unit_to_ten(self):
        z = np.linspace(1.0, 10.0, 901)
        upper_tail = Gaussian().cdf(-z)  # symmetric form avoids 1 - F cancellation
        density = np.exp(Gaussian().log_density(z))
        ratio = upper_tail / density
        assert np.all(z / (1 + z**2) <= ratio)
        assert np.all(ratio <= 1.0 / z)


_SPEC_LAWS = [
    Gaussian(0.0, 1.0),
    GenGaussian(1.0),
    Dilated(GenGaussian(2.0), 2.0),
    Shifted(GenGaussian(1.0), 1.5),
    FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))),
    Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.1),
    Mixture(
        Gaussian(),
        Mixture(Shifted(GenGaussian(1.5), -1.0), FiniteDiscrete(((2.0, 0.25), (3.0, 0.75))), 0.3),
        0.05,
    ),
]


class TestSerialization:
    @pytest.mark.parametrize("dist", _SPEC_LAWS)
    def test_roundtrip(self, dist):
        assert from_spec(json.loads(json.dumps(to_spec(dist)))) == dist

    def test_nested_spec_form(self):
        assert to_spec(_SPEC_LAWS[-1]) == {
            "kind": "mixture",
            "first": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
            "second": {
                "kind": "mixture",
                "first": {
                    "kind": "shifted",
                    "base": {"kind": "gen_gaussian", "tau": 1.5},
                    "shift": -1.0,
                },
                "second": {"kind": "finite_discrete", "atoms": [[2.0, 0.25], [3.0, 0.75]]},
                "weight": 0.3,
            },
            "weight": 0.05,
        }

    def test_missing_field_takes_default(self):
        assert from_spec({"kind": "gaussian", "sd": 2}) == Gaussian(0.0, 2.0)

    @pytest.mark.parametrize(
        "spec, words",
        [
            ([1, 2], "not a spec"),
            ({"mean": 0.0}, "not a spec"),
            ({"kind": "sparse_mixture"}, "not a spec"),
            ({"kind": ["gaussian"]}, "not a spec"),
            ({"kind": "gen_gaussian"}, "gen_gaussian spec needs field 'tau'"),
            ({"kind": "dilated", "base": {"kind": "gaussian"}}, "needs field 'scale'"),
            ({"kind": "gaussian", "sd": "abc"}, "gaussian field 'sd'"),
            ({"kind": "mixture", "first": {"kind": "gaussian"}, "second": 3, "weight": 0.1},
             "not a spec"),
            ({"kind": "dilated", "base": {"kind": "gen_gaussian"}, "scale": 2}, "'tau'"),
            ({"kind": "finite_discrete", "atoms": [[0.0, 0.5, 1.0]]}, "field 'atoms'"),
            ({"kind": "finite_discrete", "atoms": [1.0]}, "field 'atoms'"),
            ({"kind": "finite_discrete", "atoms": [["x", 1.0]]}, "field 'atoms'"),
            ({"kind": "finite_discrete", "atoms": 5}, "field 'atoms'"),
            ({"kind": "gaussian", "sdd": 2}, "gaussian spec has unknown field sdd"),
            ({"kind": "gaussian", "mean": True}, "field 'mean' cannot be read from True"),
            ({"kind": "gaussian", "sd": "2"}, "field 'sd' cannot be read from '2'"),
            ({"kind": "finite_discrete", "atoms": [[True, 1.0]]},
             "atom points must be finite, got True"),
            ({"kind": "finite_discrete", "atoms": [[0.0, "1"]]},
             "atom masses must be finite, got '1'"),
        ],
    )
    def test_malformed_spec_is_named(self, spec, words):
        with pytest.raises(InvalidParameterError, match=re.escape(words)):
            from_spec(spec)

    def test_documented_forms(self):
        assert to_spec(Gaussian(0.0, 1.0)) == {"kind": "gaussian", "mean": 0.0, "sd": 1.0}
        assert to_spec(GenGaussian(1.0)) == {"kind": "gen_gaussian", "tau": 1.0}
        spec = json.loads('{"kind":"finite_discrete","atoms":[[0,0.5],[1,0.5]]}')
        assert from_spec(spec) == FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        nested = json.loads(
            '{"kind":"dilated","scale":2.0,"base":{"kind":"gen_gaussian","tau":1.0}}'
        )
        assert from_spec(nested) == Dilated(GenGaussian(1.0), 2.0)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            Gaussian(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            GenGaussian(-1.0)
        with pytest.raises(InvalidParameterError):
            Dilated(Gaussian(), 0.0)
        with pytest.raises(InvalidParameterError):
            FiniteDiscrete(((0.0, 0.6), (1.0, 0.6)))
        with pytest.raises(InvalidParameterError):
            Mixture(Gaussian(), Gaussian(), 1.5)

    @pytest.mark.parametrize(
        "build, words",
        [
            (lambda v: Gaussian(v, 1.0), "mean must be finite"),
            (lambda v: Gaussian(0.0, v), "sd must be finite"),
            (lambda v: GenGaussian(v), "tau must be finite"),
            (lambda v: Dilated(Gaussian(), v), "scale must be finite"),
            (lambda v: Shifted(Gaussian(), v), "shift must be finite"),
            (lambda v: FiniteDiscrete(((0.0, 0.5), (v, 0.5))), "atom points must be finite"),
        ],
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, build, words, value):
        with pytest.raises(InvalidParameterError, match=words):
            build(value)

    def test_nan_atom_mass_rejected(self):
        with pytest.raises(InvalidParameterError, match="masses must be >= 0"):
            FiniteDiscrete(((0.0, math.nan), (1.0, 1.0)))

    def test_mixture_of_mixture_is_representable(self):
        inner = Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.2)
        outer = Mixture(Gaussian(), inner, 0.5)
        assert outer.cdf(0.0) == pytest.approx(
            0.5 * 0.5 + 0.5 * float(inner.cdf(0.0))
        )
