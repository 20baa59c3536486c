"""Distribution-layer tests: calibration, quantiles, ratios, sampling."""

import json
import math

import numpy as np
import pytest
from scipy.stats import kstest

from sparse_detect import rng
from sparse_detect.dists import (
    Dilated,
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
    SparseMixture,
    dumps,
    epsilon_from_beta,
    from_spec,
    loads,
    log_likelihood_ratio,
    mu_from_r,
    sample,
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


class TestSampling:
    def test_determinism(self):
        d = Mixture(Gaussian(), GenGaussian(1.0), 0.25)
        a = sample(d, 1000, rng.stream(7, 1, 2))
        b = sample(d, 1000, rng.stream(7, 1, 2))
        np.testing.assert_array_equal(a, b)
        c = sample(d, 1000, rng.stream(7, 1, 3))
        assert not np.array_equal(a, c)

    def test_empty(self):
        assert sample(Gaussian(), 0, rng.stream(1)).size == 0

    def test_gaussian_mean(self):
        x = sample(Gaussian(), 10**6, rng.stream(11, 0))
        assert abs(x.mean()) < 0.005  # 3 sigma / sqrt(n) band

    def test_sparse_mixture_sample(self):
        mix = SparseMixture(Gaussian(), Gaussian(5.0, 1.0), 0.5)
        x = sample(mix, 20000, rng.stream(3, 0, 0))
        frac_high = (x > 2.5).mean()
        assert 0.45 < frac_high < 0.55

    def test_epsilon_zero_is_null_distributionally(self):
        # KS distance below the 1% critical value in >= 95 of 100 seeded trials
        mix = SparseMixture(Gaussian(), Gaussian(3.0, 1.0), 0.0)
        passes = 0
        for trial in range(100):
            x = sample(mix, 10**5, rng.stream(2024, trial))
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
            x = sample(dist, 10**4, rng.stream(2025, trial))
            passes += kstest(x, dist.cdf).pvalue > 0.01
        assert passes >= 95

    def test_gen_gaussian_sampler_determinism(self):
        d = GenGaussian(1.5)
        a = sample(d, 1000, rng.stream(7, 4))
        np.testing.assert_array_equal(a, sample(d, 1000, rng.stream(7, 4)))
        assert not np.array_equal(a, sample(d, 1000, rng.stream(7, 5)))
        assert d.sample(0, rng.stream(7, 4)).shape == (0,)
        assert sample(d, 0, rng.stream(7, 4)).shape == (0,)

    def test_discrete_sampling_frequencies(self):
        d = FiniteDiscrete(((0.0, 0.25), (1.0, 0.75)))
        x = sample(d, 10**5, rng.stream(5))
        assert abs((x == 1.0).mean() - 0.75) < 0.01


class TestMillsRatio:
    def test_bounds_on_unit_to_ten(self):
        z = np.linspace(1.0, 10.0, 901)
        upper_tail = Gaussian().cdf(-z)  # symmetric form avoids 1 - F cancellation
        density = np.exp(Gaussian().log_density(z))
        ratio = upper_tail / density
        assert np.all(z / (1 + z**2) <= ratio)
        assert np.all(ratio <= 1.0 / z)


class TestSerialization:
    @pytest.mark.parametrize(
        "dist",
        [
            Gaussian(0.0, 1.0),
            GenGaussian(1.0),
            Dilated(GenGaussian(2.0), 2.0),
            Shifted(GenGaussian(1.0), 1.5),
            FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))),
            Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.1),
            SparseMixture(Gaussian(), Gaussian(2.0, 1.0), 0.01),
        ],
    )
    def test_roundtrip(self, dist):
        assert loads(dumps(dist)) == dist

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
            SparseMixture(Gaussian(), Gaussian(), 1.5)

    def test_mixture_of_mixture_is_representable(self):
        inner = SparseMixture(Gaussian(), Gaussian(2.0, 1.0), 0.2).mixed()
        outer = Mixture(Gaussian(), inner, 0.5)
        assert outer.cdf(0.0) == pytest.approx(
            0.5 * 0.5 + 0.5 * float(inner.cdf(0.0))
        )
