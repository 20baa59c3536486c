"""Tests for the sample-level decision rules."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sparse_detect import hctest, rng
from sparse_detect.dists import (
    Dilated,
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
)
from sparse_detect.errors import (
    InfiniteWeightError,
    InvalidParameterError,
    InvalidSampleSizeError,
    UndefinedPointError,
)
from sparse_detect.hctest import (
    _block_width,
    hc_decision,
    hc_statistic,
    hc_statistics,
    hc_test,
    hc_threshold,
    lr_log_ratios,
    lr_rejects,
    lr_statistic,
    lr_test,
    max_rejects,
    max_test,
    vn_statistic,
)

# an atom far below the rounding of 1 - cdf: its upper tail must not cancel
TINY_ATOM = FiniteDiscrete(((0.0, 1.0 - 1e-17), (1.0, 1e-17)))

# one null of every Distribution kind, a nested one and a near-degenerate one
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
    Shifted(
        Dilated(Mixture(GenGaussian(0.5), FiniteDiscrete(((-2.0, 0.5), (3.0, 0.5))), 0.2), 2.0),
        -1.0,
    ),
    TINY_ATOM,
]


def hc_statistic_oracle(sample, null, restricted=False):
    """Reference form: both tails evaluated at every row, chosen by np.where."""
    ys = np.sort(np.asarray(sample, dtype=float))
    n = ys.size
    f_low = np.asarray(null.cdf(ys), dtype=float)
    f_up = np.asarray(null.survival(ys), dtype=float)
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
        # exact float tie: -a in the lower tail and a in the upper tail both
        # give deviation |1/2 - p| v p over sqrt(p (1 - p)), p = Phi(-a)
        stat, arg = hc_statistic([-0.7, 0.7], Gaussian())
        assert arg == -0.7

    def test_ties_across_blocks_resolve_to_smallest_threshold(self):
        # a symmetric sample at n = 2**13 ties rows 29 and n - 30 exactly;
        # only the upper one is a block endpoint, so the tie spans both passes
        n, width = 2**13, _block_width(2**13)
        bulk = norm.ppf((np.arange(30, n // 2) + 0.5) / n)
        low = np.concatenate((np.full(30, norm.ppf(1e-4)), bulk))
        ys = np.concatenate((low, -low))
        assert 29 % width != 0 and (n - 30) % width == 0
        stat, arg = hc_statistic(ys, Gaussian())
        assert arg == norm.ppf(1e-4)
        assert (stat, arg) == hc_statistic_oracle(ys, Gaussian())

    def test_infinite_weight_reported(self):
        with pytest.raises(InfiniteWeightError):
            hc_statistic([-50.0, 0.0], Gaussian())
        for bad in (math.inf, -math.inf):
            with pytest.raises(InfiniteWeightError):
                hc_statistic([0.0, bad, 1.0], Gaussian())

    @pytest.mark.parametrize("n", [3, 5000])
    def test_nan_sample_rejected(self, n):
        ys = np.linspace(-2.0, 2.0, n)
        ys[1] = math.nan
        with pytest.raises(InvalidParameterError, match="NaN"):
            hc_statistic(ys, Gaussian())

    def test_probability_integral_transform_invariance(self):
        # the statistic depends on the sample only through F(Y_i), so an
        # affine map of the sample and of the null leaves it unchanged
        stream = rng.stream(77, 1)
        ys = stream.normal(size=500) + 0.3
        stat_raw, _ = hc_statistic(ys, Gaussian())
        stat_affine, _ = hc_statistic(2.0 * ys + 1.0, Gaussian(1.0, 2.0))
        assert stat_affine == pytest.approx(stat_raw, abs=1e-12)

    def test_tiny_upper_tail_atom(self):
        # 1 - cdf cancels the 1e-17 atom to 0, an infinite weight
        stat, arg = hc_statistic([0.0, 0.0, 0.0], TINY_ATOM)
        assert math.isfinite(stat) and arg == 0.0

    def test_callable_null_rejected(self):
        cdf = Gaussian().cdf
        ys = np.linspace(-2.0, 2.0, 100)
        with pytest.raises(InvalidParameterError):
            hc_statistic(ys, cdf)
        with pytest.raises(InvalidParameterError):
            hc_test(ys, cdf)
        with pytest.raises(InvalidParameterError):
            vn_statistic(ys, 0.5, cdf)

    def test_restricted_variant_never_exceeds_full(self):
        stream = rng.stream(5, 2)
        ys = stream.normal(size=200)
        full, _ = hc_statistic(ys, Gaussian())
        tamed, _ = hc_statistic(ys, Gaussian(), restricted=True)
        assert tamed <= full + 1e-12


class TestHCStatisticMatchesOracle:
    """The pruned scan returns the exhaustive scan's outcome, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        null=st.sampled_from(ORACLE_NULLS),
        sample=st.lists(
            # small-grid values make ties and hit the atoms
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

    @pytest.mark.parametrize("n", [16, 10**3, 4095, 4096, 10**4 + 7, 10**5])
    @pytest.mark.parametrize("null_index", range(len(ORACLE_NULLS)))
    def test_seeded_samples(self, n, null_index):
        null = ORACLE_NULLS[null_index]
        ys = Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.1).sample(n, rng.stream(31, n))
        for data in (ys, np.round(ys, 2)):
            for restricted in (False, True):
                got = outcome(hc_statistic, data, null, restricted=restricted)
                want = outcome(hc_statistic_oracle, data, null, restricted=restricted)
                assert got == want

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4096, 20000),
        mean=st.sampled_from([0.0, 2.0, 4.0]),
        decimals=st.sampled_from([None, 0, 1, 2]),
        null=st.sampled_from(ORACLE_NULLS),
        restricted=st.booleans(),
    )
    def test_pruned_samples(self, seed, n, mean, decimals, null, restricted):
        ys = Mixture(Gaussian(), Gaussian(mean, 1.0), n**-0.6).sample(n, rng.stream(seed))
        if decimals is not None:
            ys = np.round(ys, decimals)
        got = outcome(hc_statistic, ys, null, restricted=restricted)
        want = outcome(hc_statistic_oracle, ys, null, restricted=restricted)
        assert got == want

    def test_maximizer_inside_a_block(self):
        # a strong signal puts the maximum at a row the endpoint pass skips
        n = 10**5
        ys = Mixture(Gaussian(), Gaussian(2.5, 1.0), 0.02).sample(n, rng.stream(32, n))
        want = hc_statistic_oracle(ys, Gaussian())
        row = int(np.searchsorted(np.sort(ys), want[1]))
        assert row % _block_width(n) != 0 and row != n - 1
        assert hc_statistic(ys, Gaussian()) == want

    @pytest.mark.parametrize("null", [Gaussian(), GenGaussian(1.0)])
    def test_long_ties(self, null):
        n = 10**5
        ys = np.round(Mixture(null, Gaussian(3.0, 1.0), 0.01).sample(n, rng.stream(33, n)), 1)
        for restricted in (False, True):
            got = hc_statistic(ys, null, restricted=restricted)
            assert got == hc_statistic_oracle(ys, null, restricted=restricted)

    @settings(max_examples=200, deadline=None)
    @given(
        null=st.sampled_from(ORACLE_NULLS),
        ys=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=50),
    )
    def test_tails_are_cdf_and_survival(self, null, ys):
        # hc_statistic reads both tails from one tails() call
        ys = np.array(ys)
        lower, upper = null.tails(ys)
        np.testing.assert_array_equal(lower, null.cdf(ys))
        np.testing.assert_array_equal(upper, null.survival(ys))
        y = float(ys[0])
        assert null.tails(y) == (null.cdf(y), null.survival(y))

    def test_peak_memory_at_n_1e5(self):
        # the full scan peaked at 4.6 MB here, the pruned one at 1.9 MB
        ys = Gaussian().sample(10**5, rng.stream(0, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hc_statistic(ys, Gaussian())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, peak


class TestHCStatisticsMatrix:
    """Every row of the matrix scan equals the exhaustive scan, bit for bit."""

    # (null, sampled law); the discrete null's samples stay inside its support
    CASES = {
        "gaussian": (Gaussian(), Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.1)),
        "laplace": (
            GenGaussian(1.0), Mixture(GenGaussian(1.0), Shifted(GenGaussian(1.0), 3.0), 0.1)
        ),
        "discrete": (
            FiniteDiscrete(((-1.0, 0.25), (0.0, 0.25), (1.0, 0.5))),
            FiniteDiscrete(((-1.0, 0.2), (-0.5, 0.3), (0.0, 0.3), (0.5, 0.2))),
        ),
    }
    # 131 rows of 1e5 values would hold 100 MB; a sweep never holds more than 2**17.
    # 131 rows at n = 64 and 1000 prune in blocks of width 2 and 7, each
    # with a short last block, as the sweep's grids at n = 1e3 do
    SHAPES = [
        (m, n)
        for m in (1, 2, 131)
        for n in (1, 2, 16, 64, 1000, 4095, 4096, 10**5)
        if m * n <= 131 * 4096
    ]

    @pytest.mark.parametrize("m, n", SHAPES)
    @pytest.mark.parametrize("case", CASES)
    def test_rows_equal_the_exhaustive_scan(self, case, m, n):
        null, law = self.CASES[case]
        ys = np.stack([law.sample(n, rng.stream(51, n, k)) for k in range(m)])
        for data in (ys, np.round(ys, 1)):  # rounding makes long ties
            for restricted in (False, True):
                want = [
                    outcome(hc_statistic_oracle, row, null, restricted=restricted) for row in data
                ]
                got = outcome(hc_statistics, data, null, restricted=restricted)
                errors = {w for w in want if not isinstance(w, tuple)}
                if errors:
                    assert got in errors
                else:
                    statistics, thresholds = got
                    assert list(zip(statistics.tolist(), thresholds.tolist())) == want
                    assert [hc_statistic(row, null, restricted) for row in data] == want

    @pytest.mark.parametrize("n", [50, 2048])  # 2048: two rows are pruned in blocks
    def test_invalid_rows_raise_the_single_sample_errors(self, n):
        good = Gaussian().sample(n, rng.stream(52, n))
        nan_row, zero_tail, top_tail = good.copy(), good.copy(), good.copy()
        nan_row[7] = math.nan
        zero_tail[3] = -50.0
        top_tail[5] = math.inf
        cases = (
            (nan_row, InvalidParameterError),
            (zero_tail, InfiniteWeightError),
            (top_tail, InfiniteWeightError),
        )
        for bad, error in cases:
            with pytest.raises(error):
                hc_statistic(bad, Gaussian())
            for rows in ((good, bad), (bad, good), (good, good, bad)):
                with pytest.raises(error):
                    hc_statistics(np.stack(rows), Gaussian())

    def test_width_rule_counts_the_whole_matrix(self):
        # one sample is scanned row by row below n = 4096, a matrix of
        # 4096 values or more in blocks
        assert (_block_width(4095), _block_width(4096)) == (1, 16)
        assert (_block_width(1000, 4), _block_width(1000, 5)) == (1, 7)
        assert _block_width(15, 300) == 1

    def test_max_rejects_rows(self):
        ys = np.stack([np.append(np.zeros(99), v) for v in (3.5, 2.0, -3.5)])
        assert max_rejects(ys).tolist() == [True, False, True]
        assert [max_test(row) for row in ys] == ["alternative", "null", "alternative"]

    @pytest.mark.parametrize(
        "call, error, words",
        [
            (lambda: max_rejects(np.zeros((2, 0))), InvalidSampleSizeError, "n must be >= 2"),
            (lambda: max_rejects(np.zeros(20)), InvalidParameterError, "got shape (20,)"),
            (lambda: hc_statistics(np.zeros(20), Gaussian()), InvalidParameterError,
             "samples must be a (rows, n) matrix, got shape (20,)"),
            (lambda: hc_statistics(np.zeros((2, 2, 20)), Gaussian()), InvalidParameterError,
             "got shape (2, 2, 20)"),
        ],
        ids=["max-empty-rows", "max-one-sample", "hc-one-sample", "hc-3d"],
    )
    def test_matrix_shape_is_named(self, call, error, words):
        with pytest.raises(error, match=re.escape(words)):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda ys: hc_statistic(ys, Gaussian()),
            lambda ys: hc_test(ys, Gaussian()),
            lambda ys: max_test(ys),
            lambda ys: lr_test(ys, Mixture(Gaussian(), Gaussian(1.0, 1.0), 0.1)),
            lambda ys: vn_statistic(ys, 0.5, Gaussian()),
        ],
        ids=["hc_statistic", "hc_test", "max_test", "lr_test", "vn_statistic"],
    )
    def test_one_sample_entry_points_name_a_matrix(self, call):
        with pytest.raises(
            InvalidParameterError, match=re.escape("sample must be a 1-D array, got shape (3, 50)")
        ):
            call(np.zeros((3, 50)))


class TestLRStatisticRows:
    """The row-wise epsilon reduction equals lr_statistic on each row, bit for bit."""

    @pytest.mark.parametrize("n", [2, 16, 1000, 10**5])
    @pytest.mark.parametrize(
        "null, alt",
        [
            (Gaussian(), Gaussian(2.5, 1.0)),
            (Gaussian(), Gaussian()),  # r = 0: every log ratio is 0
            (Gaussian(), Gaussian(1.0, 2.0)),
            (GenGaussian(1.5), Shifted(GenGaussian(1.5), 1.2)),
        ],
    )
    def test_rows_equal_single_rows(self, null, alt, n):
        m = 2 if n == 10**5 else 6
        ys = np.stack([Mixture(null, alt, 0.1).sample(n, rng.stream(53, n, k)) for k in range(m)])
        ell = lr_log_ratios(ys, alt, null)
        singles = [lr_log_ratios(row, alt, null) for row in ys]
        assert all(np.array_equal(a, b) for a, b in zip(ell, singles))
        # beta = 0 gives eps 1, a huge beta eps 0; rows repeat as in a sweep
        eps = [1.0, 0.0, 0.3, n**-0.6, 1e-300]
        rows = np.repeat(np.arange(m), len(eps))
        eps_of_row = np.tile(eps, m)
        got = lr_statistic(ell[rows], eps_of_row)
        want = [lr_statistic(singles[i], e) for i, e in zip(rows, eps_of_row)]
        assert got.tolist() == want

    def test_singular_rows(self):
        # a singular point reads +inf among its row's other ratios, and each
        # row of the matrix reduces as it does alone
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((2.0, 1.0),))
        ys = np.array([[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
        ell = lr_log_ratios(ys, g, q)
        assert ell.tolist() == [[-math.inf] * 3, [-math.inf, math.inf, -math.inf]]
        assert lr_log_ratios(ys[1], g, q).tolist() == ell[1].tolist()
        assert lr_statistic(ell, [0.0, 0.0]).tolist() == [0.0, math.inf]
        assert lr_statistic(ell, [1.0, 1.0]).tolist() == [-math.inf, math.inf]
        for eps in (0.0, 0.5, 1.0):
            want = [lr_statistic(lr_log_ratios(row, g, q), eps) for row in ys]
            assert lr_statistic(ell, [eps, eps]).tolist() == want

    def test_overflowing_ratio_counts_as_singular_at_eps_zero(self):
        # l(1.5e154) overflows to +inf for sd 2 against sd 1 without a singular
        # point; eps = 0 then gives +inf, as every eps > 0 does
        null, alt = Gaussian(), Gaussian(0.0, 2.0)
        ys = np.array([1.5e154, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the square of the sd-1 term overflows quietly
            ell = lr_log_ratios(ys, alt, null)
            tests = [lr_test(ys, Mixture(null, alt, eps)) for eps in (0.0, 0.3, 1.0)]
        assert math.isinf(ell[0]) and ell[0] > 0 and math.isfinite(ell[1])
        assert tests == [(math.inf, "alternative")] * 3
        assert lr_statistic(lr_log_ratios(np.zeros(2), alt, null), 0.0) == 0.0


class TestLRRejects:
    """The certified screen gives lr_statistic's sign test on every row."""

    # a discrete null with an atom the alternative lacks: l = -inf there
    DISCRETE_NULL = FiniteDiscrete(((0.0, 0.5), (1.0, 0.3), (2.0, 0.2)))
    DISCRETE_ALT = FiniteDiscrete(((0.0, 0.2), (1.0, 0.8)))

    @staticmethod
    def spy(monkeypatch):
        """Count the rows that lr_rejects hands to the exact lr_statistic."""
        rows = []
        exact = hctest.lr_statistic

        def counted(ell, eps):
            rows.append(np.size(eps))
            return exact(ell, eps)

        monkeypatch.setattr(hctest, "lr_statistic", counted)
        return rows

    @pytest.mark.parametrize("n", [2, 16, 1000])
    @pytest.mark.parametrize(
        "null, alt",
        [
            (Gaussian(), Gaussian(2.5, 1.0)),
            (Gaussian(), Gaussian(1.0, 2.0)),  # hetero: sd != 1
            (GenGaussian(1.5), Shifted(GenGaussian(1.5), 1.2)),
            (DISCRETE_NULL, DISCRETE_ALT),
        ],
        ids=["gaussian", "hetero", "subbotin", "discrete"],
    )
    def test_equals_the_sign_of_the_statistic(self, null, alt, n):
        ys = np.stack([
            Mixture(null, alt, w).sample(n, rng.stream(59, n, k))
            for k, w in enumerate((0.0, 0.1, 0.5, 0.9))
        ])
        ell = lr_log_ratios(ys, alt, null)
        if null.is_discrete and n > 2:
            assert np.isneginf(ell).any()
        eps = [0.0, 1.0, 1e-300, n**-0.6, n**-0.3, 0.5]
        rows = np.repeat(np.arange(len(ys)), len(eps))
        eps_of_row = np.tile(eps, len(ys))
        want = lr_statistic(ell[rows], eps_of_row) >= 0.0
        assert lr_rejects(ell[rows], eps_of_row).tolist() == want.tolist()
        assert [lr_rejects(ell[i], e) for i, e in zip(rows, eps_of_row)] == want.tolist()

    def test_clear_rows_never_fall_back(self, monkeypatch):
        # Gaussian and discrete rows with -inf ratios are decided by the screen alone
        fallback = self.spy(monkeypatch)
        pairs = ((Gaussian(), Gaussian(2.0, 1.0)), (self.DISCRETE_NULL, self.DISCRETE_ALT))
        for null, alt in pairs:
            mix = Mixture(null, alt, 0.05)
            ys = np.stack([mix.sample(1000, rng.stream(61, k)) for k in range(40)])
            ell = lr_log_ratios(ys, alt, null)
            eps = np.full(len(ys), 1000**-0.6)
            got = lr_rejects(ell, eps)
            assert fallback == []
            assert got.tolist() == (lr_statistic(ell, eps) >= 0.0).tolist()

    def test_nan_and_singular_rows(self):
        ell = np.zeros((3, 5))
        ell[1, 2] = np.nan
        ell[2] = [np.nan, np.inf, 1.0, -np.inf, 0.0]
        eps = [0.01, 0.01, 0.5]
        with np.errstate(invalid="ignore"):  # logaddexp on NaN
            want = lr_statistic(ell, eps) >= 0.0
            assert lr_rejects(ell, eps).tolist() == want.tolist() == [True, False, False]
            assert lr_rejects(np.array([np.nan]), 0.2) is False
        # a singular point (+inf) rejects at every eps, beside a -inf ratio too
        singular = np.array([-np.inf, np.inf])
        assert [lr_rejects(singular, eps) for eps in (0.0, 0.2, 1.0)] == [True] * 3
        assert lr_rejects(np.array([singular] * 3), [0.0, 0.2, 1.0]).tolist() == [True] * 3
        assert lr_rejects(np.array([1.0, np.inf]), 0.2) is True
        assert lr_rejects(np.zeros((2, 0)), [0.3, 1.0]).tolist() == [True, True]

    @pytest.mark.parametrize("n", [3, 64])
    def test_singular_pair_rows_equal_lr_test(self, n):
        # rows of the null and of the mixture, whose atom off the null support
        # makes a row singular; eps 0 keeps the singular row's +inf
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((2.0, 1.0),))
        ys = np.stack([Mixture(q, g, w).sample(n, rng.stream(71, n, k))
                       for k, w in enumerate((0.0, 0.3, 0.0, 0.6, 0.05))])
        ell = lr_log_ratios(ys, g, q)
        decided = set()
        for eps in (0.0, 1e-3, 0.3, 1.0):
            tests = [lr_test(y, Mixture(q, g, eps)) for y in ys]
            assert lr_statistic(ell, [eps] * len(ys)).tolist() == [t[0] for t in tests]
            got = lr_rejects(ell, [eps] * len(ys)).tolist()
            assert got == [t[1] == "alternative" for t in tests], eps
            decided.update(got)
        assert decided == {False, True}

    @pytest.mark.parametrize("n", [3, 64])
    @pytest.mark.parametrize(
        "null, alt",
        [
            (FiniteDiscrete(((0.0, 0.5), (1.0, 0.5))), FiniteDiscrete(((2.0, 1.0),))),
            (Gaussian(), FiniteDiscrete(((2.0, 1.0),))),
        ],
        ids=["singular", "mixed-kind"],
    )
    def test_extended_real_ratios_move_no_value(self, null, alt, n):
        # the reference fills a row holding +inf with +inf; the statistic and
        # the decision read the row's own ratios the same, bit for bit
        ys = np.stack([Mixture(null, alt, w).sample(n, rng.stream(73, n, k))
                       for k, w in enumerate((0.0, 0.3, 0.0, 0.6, 0.05))])
        ell = lr_log_ratios(ys, alt, null)
        old = np.where(np.isposinf(ell).any(-1, keepdims=True), np.inf, ell)
        singular = np.isposinf(ell).any(-1)
        if null.is_discrete:  # rows without +inf, and rows holding +inf beside -inf
            assert (singular & np.isneginf(ell).any(-1)).any() and not singular.all()
        else:  # an atomic law against an atomless one: +inf throughout
            assert np.isposinf(ell).all()
        rows = [lr_log_ratios(y, alt, null) for y in ys]
        assert all(np.array_equal(a, b) for a, b in zip(ell, rows))
        hexes = lambda values: [float(v).hex() for v in values]
        for eps in (0.0, 1e-3, 0.3, 1.0):
            w = [eps] * len(ys)
            want = hexes(lr_statistic(old, w))
            decided = lr_rejects(old, w).tolist()
            assert hexes(lr_statistic(ell, w)) == want, eps
            assert lr_rejects(ell, w).tolist() == decided, eps
            assert hexes(lr_statistic(row, eps) for row in rows) == want, eps
            assert [lr_rejects(row, eps) for row in rows] == decided, eps

    def test_rows_near_zero_fall_back(self, monkeypatch):
        # l == 0 gives a statistic of rounding size, and a bisected eps one
        # within 1e-13 of 0: both lie inside the margin, so the exact path decides
        zero = np.zeros((3, 1000))
        ys = Gaussian().sample(1000, rng.stream(67, 0))
        ys[:5] = 3.0
        ell = lr_log_ratios(ys, Gaussian(1.0, 1.0), Gaussian())
        assert lr_statistic(ell, 1e-9) > 0.0 > lr_statistic(ell, 1.0)
        lo, hi = 1e-9, 1.0
        while hi - lo > 4 * np.spacing(hi):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if lr_statistic(ell, mid) > 0.0 else (lo, mid)
        for eps in (lo, hi):
            assert abs(lr_statistic(ell, eps)) < 1e-13
        zero_eps = [1e-3, 0.5, 1 - 1e-9]
        want = [lr_statistic(row, e) >= 0.0 for row, e in zip(zero, zero_eps)]
        want_near = [lr_statistic(ell, eps) >= 0.0 for eps in (lo, hi)]
        assert want_near == [True, False]
        fallback = self.spy(monkeypatch)
        assert lr_rejects(zero, zero_eps).tolist() == want
        assert fallback == [3]
        assert [lr_rejects(ell, eps) for eps in (lo, hi)] == want_near
        assert fallback == [3, 1, 1]

    @pytest.mark.parametrize(
        "ufunc, reference, lo, hi",
        [
            (np.exp, math.exp, -745.0, 0.0),
            (np.exp, math.exp, -1.0, 0.0),
            (np.log1p, math.log1p, 0.0, 1.0),
        ],
    )
    def test_vector_ufuncs_within_one_ulp(self, ufunc, reference, lo, hi):
        # the margin assumes numpy's vectorised exp and log1p within one ulp of libm
        xs = np.random.default_rng(71).uniform(lo, hi, 10**5)
        got = ufunc(xs)
        want = np.array([reference(x) for x in xs])
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


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

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(InvalidParameterError, match="delta must be > 0 and finite"):
            hc_threshold(1000, delta)
        with pytest.raises(InvalidParameterError, match="delta"):
            hc_decision(3.0, 1000, delta)

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

    @pytest.mark.parametrize("u", [math.nan, math.inf, -1.0, 0.0])
    def test_u_must_be_positive_and_finite(self, u):
        with pytest.raises(InvalidParameterError, match="u must be > 0 and finite"):
            max_test(np.zeros(100), u=u)
        with pytest.raises(InvalidParameterError, match="u must be > 0 and finite"):
            max_rejects(np.zeros((2, 100)), u)

    def test_nan_sample_rejected(self):
        with pytest.raises(InvalidParameterError, match="without NaN"):
            max_test([0.1, math.nan, 0.2] * 10)


class TestLRTest:
    def test_discrete_toy(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        mix = Mixture(q, g, 0.5)
        log_lr, decision = lr_test([1.0], mix)
        assert log_lr == pytest.approx(math.log(1.5), abs=1e-14)
        assert decision == "alternative"

    def test_epsilon_zero_convention(self):
        mix = Mixture(Gaussian(), Gaussian(3.0, 1.0), 0.0)
        log_lr, decision = lr_test([0.1, -0.5], mix)
        assert log_lr == 0.0
        assert decision == "alternative"

    def test_singular_sentinel(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((2.0, 1.0),))
        log_lr, decision = lr_test([2.0], Mixture(q, g, 1.0))
        assert log_lr == math.inf
        assert decision == "alternative"

    def test_singular_point_beats_the_epsilon_zero_convention(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((2.0, 1.0),))
        ell = lr_log_ratios([0.0, 2.0], g, q)
        assert ell.tolist() == [-math.inf, math.inf]
        assert lr_statistic(ell, 0.0) == math.inf
        assert lr_test([0.0, 2.0], Mixture(q, g, 0.0)) == (math.inf, "alternative")

    def test_nan_sample_rejected(self):
        mix = Mixture(Gaussian(), Gaussian(1.0, 1.0), 0.1)
        with pytest.raises(InvalidParameterError, match="without NaN"):
            lr_test([0.1, math.nan], mix)

    def test_infinite_gaussian_point_raises_without_warnings(self):
        mix = Mixture(Gaussian(), Gaussian(1.0, 1.0), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UndefinedPointError):
                lr_test([0.0, math.inf, 1.0], mix)
            # the closed form's inf - inf is a quiet NaN
            ell = lr_log_ratios(np.array([np.inf, 0.0]), Gaussian(1.0, 1.0), Gaussian())
        assert math.isnan(ell[0]) and ell[1] == -0.5

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "null, alt",
        [
            (Gaussian(), Gaussian(1.0, 1.0)),
            (Gaussian(), Gaussian(0.0, 2.0)),
            (GenGaussian(1.5), Shifted(GenGaussian(1.5), 1.0)),
        ],
        ids=["gaussian", "hetero", "subbotin"],
    )
    def test_infinite_point_raises_at_every_eps(self, null, alt, eps):
        # eps = 0 reads no ratio, yet an undefined one still raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (np.inf, -np.inf):
                with pytest.raises(UndefinedPointError):
                    lr_test(np.array([y, 0.0]), Mixture(null, alt, eps))

    def test_undefined_point_propagates(self):
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        with pytest.raises(UndefinedPointError):
            lr_log_ratios([0.5], g, q)
        with pytest.raises(UndefinedPointError):
            lr_test([0.5], Mixture(q, g, 0.0))

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.3, 1.0])
    def test_is_the_reduction_of_the_log_ratios(self, eps):
        # one ell array serves every epsilon, bit for bit
        null, alt = Gaussian(), Gaussian(2.5, 1.0)
        ys = Mixture(null, alt, 0.05).sample(500, rng.stream(8, 1))
        ell = lr_log_ratios(ys, alt, null)
        log_lr, decision = lr_test(ys, Mixture(null, alt, eps))
        assert lr_statistic(ell, eps) == log_lr
        assert decision == ("alternative" if log_lr >= 0.0 else "null")
        if 0.0 < eps < 1.0:
            terms = np.log1p(eps * np.expm1(ell))
            assert log_lr == pytest.approx(float(np.sum(terms)), rel=1e-9)

    def test_matches_neyman_pearson_brute_force(self):
        # total error of the rule equals 1 - TV between the product laws
        q = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g = FiniteDiscrete(((1.0, 1.0),))
        for eps, n in ((0.5, 1), (0.5, 3), (0.25, 6), (0.7, 4)):
            mix = Mixture(q, g, eps)
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
        mix = Mixture(q, g, 0.5)
        _, d0 = lr_test([0.0], mix)
        _, d1 = lr_test([1.0], mix)
        assert (d0, d1) == ("null", "alternative")
        total = 0.5 + (1 - 0.5) * 0.5  # P_Q(y=1) + P_M(y=0)
        assert total == pytest.approx(0.75)


class TestVnStatistic:
    def test_exact_match_gives_zero(self):
        n = 16
        flat_quarter = FiniteDiscrete(((-5.0, 0.25), (10.0, 0.75)))  # F(t) = 0.25
        t = math.sqrt(2 * 0.5 * math.log(n))
        ys = np.concatenate([np.full(4, t - 1.0), np.full(12, t + 1.0)])
        assert vn_statistic(ys, 0.5, flat_quarter) == pytest.approx(0.0, abs=1e-14)

    def test_extreme_samples_match_direct_formula(self):
        n, s = 100, 0.5
        t = math.sqrt(2 * s * math.log(n))
        phi = norm.cdf(t)
        # the whole sample below the threshold: F_n(t) = 1
        got_below = vn_statistic(np.full(n, t - 1.0), s, Gaussian())
        want_below = math.sqrt(n) * (1.0 - phi) / math.sqrt(phi * (1.0 - phi))
        assert got_below == pytest.approx(want_below, rel=1e-12)
        # the whole sample planted above the threshold: F_n(t) = 0
        got_above = vn_statistic(np.full(n, t + 1.0), s, Gaussian())
        want_above = -math.sqrt(n) * phi / math.sqrt(phi * (1.0 - phi))
        assert got_above == pytest.approx(want_above, rel=1e-12)

    def test_null_sample_is_order_one(self):
        stream = rng.stream(123, 0)
        ys = stream.normal(size=10**4)
        v = vn_statistic(ys, 0.3, Gaussian())
        assert abs(v) < 5.0

    def test_dominated_by_hc(self):
        for seed in range(20):
            stream = rng.stream(321, seed)
            ys = stream.normal(size=200) * 1.1
            stat, _ = hc_statistic(ys, Gaussian())
            for s in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert stat >= abs(vn_statistic(ys, s, Gaussian())) - 1e-12

    def test_range_validation(self):
        ys = np.zeros(100)
        with pytest.raises(InvalidParameterError):
            vn_statistic(ys, 1.5, Gaussian())
        with pytest.raises(InvalidSampleSizeError):
            vn_statistic(np.zeros(8), 0.5, Gaussian())

    def test_nan_sample_rejected(self):
        with pytest.raises(InvalidParameterError, match="without NaN"):
            vn_statistic(np.full(20, math.nan), 0.5, Gaussian())


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
