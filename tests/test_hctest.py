"""Tests for the sample-level decision rules."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sparse_detect import rng
from sparse_detect.dists import (
    Dilated,
    Distribution,
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
    SparseMixture,
)
from sparse_detect.errors import (
    InfiniteWeightError,
    InvalidParameterError,
    InvalidSampleSizeError,
)
from sparse_detect.hctest import (
    empirical_cdf,
    hc_decision,
    hc_statistic,
    hc_test,
    hc_threshold,
    lr_test,
    max_test,
    vn_statistic,
)

UNIFORM_CDF = lambda t: np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
# a callable CDF that is not monotone, so its lower-tail rows are not contiguous
WAVY_CDF = lambda t: 0.5 + 0.45 * np.sin(3.0 * np.asarray(t, dtype=float))

# one null of every Distribution kind, plus two callable CDFs
ORACLE_NULLS = [
    Gaussian(),
    Gaussian(-0.5, 2.0),
    GenGaussian(1.0),
    GenGaussian(2.5),
    Dilated(GenGaussian(0.7), 1.3),
    Shifted(Gaussian(), 0.5),
    FiniteDiscrete(((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
    Mixture(Gaussian(), GenGaussian(1.5), 0.3),
    Mixture(Gaussian(), FiniteDiscrete(((0.0, 0.4), (2.0, 0.6))), 0.3),
    UNIFORM_CDF,
    WAVY_CDF,
]


def hc_statistic_oracle(sample, null_cdf, restricted=False):
    """Reference form: both tails evaluated at every row, chosen by np.where."""
    ys = np.sort(np.asarray(sample, dtype=float))
    n = ys.size
    if isinstance(null_cdf, Distribution):
        f_low = np.asarray(null_cdf.cdf(ys), dtype=float)
        f_up = np.asarray(null_cdf.survival(ys), dtype=float)
    else:
        f_low = np.asarray(null_cdf(ys), dtype=float)
        f_up = 1.0 - f_low
    if np.any(f_low <= 0.0) or np.any(f_up <= 0.0):
        raise InfiniteWeightError("null CDF hit 0 or 1 at a sample point")
    idx_hi = np.arange(1, n + 1) / n
    idx_lo = np.arange(0, n) / n
    weight = np.sqrt(f_low * f_up)
    use_lower = f_low <= f_up
    dev_right = np.where(use_lower, idx_hi - f_low, f_up - (1.0 - idx_hi))
    dev_left = np.where(use_lower, idx_lo - f_low, f_up - (1.0 - idx_lo))
    dev = np.maximum(np.abs(dev_right), np.abs(dev_left)) / weight
    if restricted:
        keep = (f_low >= 1.0 / n) & (f_low <= 0.5)
        if not np.any(keep):
            raise InvalidParameterError("no candidates with null CDF in [1/n, 1/2]")
        dev = np.where(keep, dev, -np.inf)
    idx = int(np.argmax(dev))
    return math.sqrt(n) * float(dev[idx]), float(ys[idx])


def outcome(fn, *args, **kwargs):
    """fn's result, or the type of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (InfiniteWeightError, InvalidParameterError) as exc:
        return type(exc)


class TestEmpiricalCdf:
    def test_between_points(self):
        F = empirical_cdf([1.0, 2.0])
        assert F(1.5) == 0.5

    def test_left_limit_semantics(self):
        F = empirical_cdf([1.0, 2.0, 2.0, 5.0])
        assert F.eval_left(2.0) == F(2.0 - 1e-9)
        assert F(2.0) == 0.75

    def test_single_point(self):
        F = empirical_cdf([3.0])
        assert F(3.0) == 1.0
        assert F.eval_left(3.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidSampleSizeError):
            empirical_cdf([])


class TestHCStatistic:
    def test_single_sample_at_null_median(self):
        stat, arg = hc_statistic([0.0], Gaussian())
        assert stat == pytest.approx(1.0, abs=1e-14)
        assert arg == 0.0

    def test_two_samples_at_quartiles(self):
        ys = [Gaussian().quantile(0.25), Gaussian().quantile(0.75)]
        stat, _ = hc_statistic(ys, Gaussian())
        want = math.sqrt(2) * 0.25 / math.sqrt(0.25 * 0.75)
        assert stat == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.816497, abs=1e-6)

    def test_brute_force_candidates(self):
        # exhaustive check of the candidate-set evaluation on a small sample
        stream = rng.stream(10, 0)
        ys = np.sort(stream.normal(size=7))
        f = Gaussian().cdf(ys)
        best = 0.0
        n = ys.size
        for i in range(n):
            for emp in ((i + 1) / n, i / n):
                best = max(best, abs(emp - f[i]) / math.sqrt(f[i] * (1 - f[i])))
        stat, _ = hc_statistic(ys, Gaussian())
        assert stat == pytest.approx(math.sqrt(n) * best, rel=1e-14)

    def test_ties_resolve_to_smallest_threshold(self):
        # exact float tie: both points give deviation 0.25/sqrt(0.1875)
        stat, arg = hc_statistic([0.25, 0.75], UNIFORM_CDF)
        assert arg == 0.25

    def test_infinite_weight_reported(self):
        with pytest.raises(InfiniteWeightError):
            hc_statistic([-50.0, 0.0], Gaussian())

    def test_probability_integral_transform_invariance(self):
        stream = rng.stream(77, 1)
        ys = stream.normal(size=500) + 0.3
        stat_raw, _ = hc_statistic(ys, Gaussian())
        stat_pit, _ = hc_statistic(Gaussian().cdf(ys), UNIFORM_CDF)
        assert stat_pit == pytest.approx(stat_raw, abs=1e-12)

    def test_restricted_variant_never_exceeds_full(self):
        stream = rng.stream(5, 2)
        ys = stream.normal(size=200)
        full, _ = hc_statistic(ys, Gaussian())
        tamed, _ = hc_statistic(ys, Gaussian(), restricted=True)
        assert tamed <= full + 1e-12


class TestHCStatisticMatchesOracle:
    """hc_statistic computes each tail only on its own rows, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        null=st.sampled_from(ORACLE_NULLS),
        sample=st.lists(
            # small-grid values make ties; CDF values suit the uniform null
            st.one_of(
                st.floats(-8.0, 8.0),
                st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            ),
            min_size=1,
            max_size=80,
        ),
        restricted=st.booleans(),
    )
    def test_small_samples(self, null, sample, restricted):
        got = outcome(hc_statistic, sample, null, restricted=restricted)
        want = outcome(hc_statistic_oracle, sample, null, restricted=restricted)
        assert got == want

    @pytest.mark.parametrize("n", [16, 10**3, 10**5])
    @pytest.mark.parametrize("null_index", range(len(ORACLE_NULLS)))
    def test_seeded_samples(self, n, null_index):
        null = ORACLE_NULLS[null_index]
        ys = Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.1).sample(n, rng.stream(31, n))
        if null is UNIFORM_CDF:
            ys = Gaussian().cdf(ys)
        for data in (ys, np.round(ys, 2)):
            for restricted in (False, True):
                got = outcome(hc_statistic, data, null, restricted=restricted)
                want = outcome(hc_statistic_oracle, data, null, restricted=restricted)
                assert got == want

    def test_peak_memory_at_n_1e5(self):
        # the two-branch formula peaked at 8.9 MB here
        ys = Gaussian().sample(10**5, rng.stream(0, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hc_statistic(ys, Gaussian())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000, peak


class TestHCDecision:
    def test_threshold_value(self):
        assert hc_threshold(100, 0.1) == pytest.approx(1.833, abs=5e-4)

    def test_decisions(self):
        assert hc_decision(3.0, 100, 0.1) == "alternative"
        assert hc_decision(1.0, 100, 0.1) == "null"

    def test_small_n_rejected(self):
        with pytest.raises(InvalidSampleSizeError):
            hc_decision(1.0, 2, 0.1)
        with pytest.raises(InvalidSampleSizeError):
            hc_threshold(15, 0.1)

    def test_hc_test_bundle(self):
        stream = rng.stream(9, 3)
        ys = stream.normal(size=1000)
        res = hc_test(ys, Gaussian(), delta=0.1)
        assert res.n == 1000
        assert res.decision == ("alternative" if res.statistic > res.threshold else "null")
        assert set(res.to_dict()) == {
            "statistic", "arg_t", "threshold", "decision", "n", "delta",
        }


class TestMaxTest:
    def test_decisions_at_n100(self):
        base = np.zeros(99)
        assert max_test(np.append(base, 3.5), u=1.0) == "alternative"
        assert max_test(np.append(base, 2.0), u=1.0) == "null"
        # sqrt(2 ln 100) = 3.035 separates the two
        assert math.sqrt(2 * math.log(100)) == pytest.approx(3.035, abs=5e-4)

    def test_small_n_rejected(self):
        with pytest.raises(InvalidSampleSizeError):
            max_test([1.0])

    def test_low_u_warns(self):
        with pytest.warns(UserWarning):
            max_test(np.zeros(100), u=0.5)


class TestLRTest:
    def test_discrete_toy(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        mix = SparseMixture(q, g, 0.5)
        log_lr, decision = lr_test([1.0], mix)
        assert log_lr == pytest.approx(math.log(1.5), abs=1e-14)
        assert decision == "alternative"

    def test_epsilon_zero_convention(self):
        mix = SparseMixture(Gaussian(), Gaussian(3.0, 1.0), 0.0)
        log_lr, decision = lr_test([0.1, -0.5], mix)
        assert log_lr == 0.0
        assert decision == "alternative"

    def test_singular_sentinel(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((2.0, 1.0),))
        log_lr, decision = lr_test([2.0], SparseMixture(q, g, 1.0))
        assert log_lr == math.inf
        assert decision == "alternative"

    def test_matches_neyman_pearson_brute_force(self):
        # total error of the rule equals 1 - TV between the product laws
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        for eps, n in ((0.5, 1), (0.5, 3), (0.25, 6), (0.7, 4)):
            mix = SparseMixture(q, g, eps)
            m = Mixture(q, g, eps)
            total_error = 0.0
            tv = 0.0
            for outcome in itertools.product(q.points, repeat=n):
                ys = np.array(outcome)
                p_null = float(np.prod([q.mass(v) for v in ys]))
                p_mix = float(np.prod([m.mass(v) for v in ys]))
                _, decision = lr_test(ys, mix)
                total_error += p_null if decision == "alternative" else p_mix
                tv += 0.5 * abs(p_null - p_mix)
            assert total_error == pytest.approx(1.0 - tv, abs=1e-12)

    def test_single_sample_toy_total_error(self):
        # the worked toy: error 0.75 = 1 - TV
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        mix = SparseMixture(q, g, 0.5)
        _, d0 = lr_test([0.0], mix)
        _, d1 = lr_test([1.0], mix)
        assert (d0, d1) == ("null", "alternative")
        total = 0.5 + (1 - 0.5) * 0.5  # P_Q(y=1) + P_M(y=0)
        assert total == pytest.approx(0.75)


class TestVnStatistic:
    def test_exact_match_gives_zero(self):
        n = 16
        flat_quarter = lambda t: np.full_like(np.asarray(t, dtype=float), 0.25)
        t = math.sqrt(2 * 0.5 * math.log(n))
        ys = np.concatenate([np.full(4, t - 1.0), np.full(12, t + 1.0)])
        assert vn_statistic(ys, 0.5, n, flat_quarter) == pytest.approx(0.0, abs=1e-14)

    def test_extreme_samples_match_direct_formula(self):
        n, s = 100, 0.5
        t = math.sqrt(2 * s * math.log(n))
        phi = norm.cdf(t)
        # the whole sample below the threshold: F_n(t) = 1
        got_below = vn_statistic(np.full(n, t - 1.0), s, n, Gaussian())
        want_below = math.sqrt(n) * (1.0 - phi) / math.sqrt(phi * (1.0 - phi))
        assert got_below == pytest.approx(want_below, rel=1e-12)
        # the whole sample planted above the threshold: F_n(t) = 0
        got_above = vn_statistic(np.full(n, t + 1.0), s, n, Gaussian())
        want_above = -math.sqrt(n) * phi / math.sqrt(phi * (1.0 - phi))
        assert got_above == pytest.approx(want_above, rel=1e-12)

    def test_null_sample_is_order_one(self):
        stream = rng.stream(123, 0)
        ys = stream.normal(size=10**4)
        v = vn_statistic(ys, 0.3, 10**4, Gaussian())
        assert abs(v) < 5.0

    def test_dominated_by_hc(self):
        for seed in range(20):
            stream = rng.stream(321, seed)
            ys = stream.normal(size=200) * 1.1
            stat, _ = hc_statistic(ys, Gaussian())
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert stat >= abs(vn_statistic(ys, s, 200, Gaussian())) - 1e-12

    def test_range_validation(self):
        ys = np.zeros(100)
        with pytest.raises(InvalidParameterError):
            vn_statistic(ys, 1.5, 100, Gaussian())
        with pytest.raises(InvalidSampleSizeError):
            vn_statistic(np.zeros(8), 0.5, 8, Gaussian())


class TestNullCalibration:
    def test_loglog_normalization_sane(self):
        # light version of the 200-replicate calibration in the acceptance suite
        n, reps = 2 * 10**4, 50
        norm_const = math.sqrt(2 * math.log(math.log(n)))
        ratios = []
        for rep in range(reps):
            ys = Gaussian().sample(n, rng.stream(606, rep))
            stat, _ = hc_statistic(ys, Gaussian())
            ratios.append(stat / norm_const)
        mean = float(np.mean(ratios))
        assert 0.6 < mean < 1.8
