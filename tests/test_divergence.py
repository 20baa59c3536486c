"""Divergence tests: discrete identities, quadrature accuracy, mixtures."""

import math

import numpy as np
import pytest

from sparse_detect.dists import (
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
)
from sparse_detect.divergence import (
    decompose_alternative,
    error_sum,
    hellinger_sq,
    hellinger_tensorize,
    mixture_hellinger_singular,
    total_variation,
    tv_hellinger_bounds,
)
from sparse_detect.errors import (
    IncompatibleLawsError,
    InvalidDistanceError,
    InvalidParameterError,
    NotSingularError,
    QuadratureError,
)

TWO_ATOM_P = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
TWO_ATOM_Q = FiniteDiscrete(((0.0, 0.25), (1.0, 0.75)))
DELTA0 = FiniteDiscrete(((0.0, 1.0),))
DELTA1 = FiniteDiscrete(((1.0, 1.0),))


def random_discrete_pair(rng, max_atoms=8):
    k = int(rng.integers(2, max_atoms + 1))
    points = np.sort(rng.uniform(-3, 3, size=k))
    p = rng.uniform(0.05, 1.0, size=k)
    q = rng.uniform(0.05, 1.0, size=k)
    p /= p.sum()
    q /= q.sum()
    # renormalize exactly so the mass invariant holds to 1e-12
    p[-1] = 1.0 - p[:-1].sum()
    q[-1] = 1.0 - q[:-1].sum()
    return (
        FiniteDiscrete(tuple(zip(points, p))),
        FiniteDiscrete(tuple(zip(points, q))),
    )


class TestTotalVariation:
    def test_identical(self):
        assert total_variation(TWO_ATOM_P, TWO_ATOM_P) == 0.0

    def test_half_l1_by_hand(self):
        assert total_variation(TWO_ATOM_P, TWO_ATOM_Q) == pytest.approx(0.25, abs=1e-15)

    def test_disjoint_supports(self):
        assert total_variation(DELTA0, DELTA1) == 1.0

    def test_gaussian_location_closed_form(self):
        # TV(N(0,1), N(mu,1)) = 1 - 2 * Phi(-mu/2)
        for mu in (0.5, 1.0, 3.0):
            want = 1.0 - 2.0 * float(Gaussian().cdf(-mu / 2.0))
            got = total_variation(Gaussian(), Gaussian(mu, 1.0))
            assert got == pytest.approx(want, abs=1e-6)

    def test_incompatible(self):
        with pytest.raises(IncompatibleLawsError):
            total_variation(Gaussian(), DELTA0)

    def test_mixture_with_atom_against_null(self):
        # TV(Q, (1-eps) Q + eps delta) = eps: half off-support atom mass
        # plus half the density deficit
        eps = 0.125
        mix = Mixture(Gaussian(), DELTA1, eps)
        assert total_variation(Gaussian(), mix) == pytest.approx(eps, abs=1e-7)


class TestNestedMixedLaw:
    # P = (1 - w2) [(1 - w1) Q + w1 delta_1] + w2 delta_2.5 keeps a density
    # part c Q, c = (1 - w1)(1 - w2), and two atoms off Q's support
    W1, W2 = 0.3, 0.2
    C = (1 - W1) * (1 - W2)
    P = Mixture(Mixture(Gaussian(), DELTA1, W1), FiniteDiscrete(((2.5, 1.0),)), W2)

    def test_total_variation(self):
        assert total_variation(Gaussian(), self.P) == pytest.approx(1 - self.C, abs=1e-12)

    def test_hellinger(self):
        want = 2 - 2 * math.sqrt(self.C)
        assert hellinger_sq(Gaussian(), self.P) == pytest.approx(want, abs=1e-12)


class TestErrorSum:
    def test_values(self):
        assert error_sum(TWO_ATOM_P, TWO_ATOM_P) == 1.0
        assert error_sum(TWO_ATOM_P, TWO_ATOM_Q) == pytest.approx(0.75, abs=1e-15)
        assert error_sum(DELTA0, DELTA1) == 0.0


class TestHellinger:
    def test_singular(self):
        assert hellinger_sq(DELTA0, DELTA1) == 2.0

    def test_two_atom_by_hand(self):
        want = 2.0 - 2.0 * (math.sqrt(0.125) + math.sqrt(0.375))
        assert hellinger_sq(TWO_ATOM_P, TWO_ATOM_Q) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.068148, abs=5e-7)

    def test_identical(self):
        assert hellinger_sq(TWO_ATOM_P, TWO_ATOM_P) == 0.0
        assert hellinger_sq(Gaussian(), Gaussian()) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_location_closed_form(self):
        # H^2(N(0,1), N(mu,1)) = 2 (1 - exp(-mu^2 / 8))
        for mu in (0.5, 1.5, 3.0):
            want = 2.0 * (1.0 - math.exp(-(mu**2) / 8.0))
            got = hellinger_sq(Gaussian(), Gaussian(mu, 1.0))
            assert got == pytest.approx(want, abs=1e-7)

    def test_gaussian_scale_closed_form(self):
        # Bhattacharyya affinity sqrt(2 s1 s2 / (s1^2 + s2^2)) for centered normals
        s1, s2 = 1.0, 2.0
        want = 2.0 - 2.0 * math.sqrt(2 * s1 * s2 / (s1**2 + s2**2))
        got = hellinger_sq(Gaussian(0, s1), Gaussian(0, s2))
        assert got == pytest.approx(want, abs=1e-7)

    def test_gen_gaussian_vs_gaussian_quadrature(self):
        # smooth cross-family case just exercises the quadrature path
        h2 = hellinger_sq(GenGaussian(1.0), Gaussian())
        assert 0.0 < h2 < 2.0

    @pytest.mark.parametrize(
        "divergence,p,q",
        [
            # quad's error estimate is 1.149
            (hellinger_sq, GenGaussian(0.3), GenGaussian(0.5)),
            # quad reads 0.5014 against a true 0.9945, with an error
            # estimate of 6e-9 that scipy itself distrusts
            (total_variation, GenGaussian(0.2), GenGaussian(4.0)),
        ],
    )
    def test_failed_quadrature_raises_quadrature_error(self, divergence, p, q):
        # the suite turns warnings into errors, so a stray IntegrationWarning
        # would surface here instead
        with pytest.raises(QuadratureError, match="quadrature failed"):
            divergence(p, q)


class TestTensorize:
    def test_values(self):
        assert hellinger_tensorize(0.5, 2) == pytest.approx(0.875, abs=1e-15)
        assert hellinger_tensorize(0.0, 17).hex() == "0x0.0p+0"
        assert hellinger_tensorize(2.0, 3) == 2.0

    def test_matches_explicit_product(self):
        # explicit 3-fold product of a two-atom law on 8 outcome triples
        p, q = TWO_ATOM_P, TWO_ATOM_Q
        h2_single = hellinger_sq(p, q)
        affinity = 0.0
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    pp = p.masses[i] * p.masses[j] * p.masses[k]
                    qq = q.masses[i] * q.masses[j] * q.masses[k]
                    affinity += math.sqrt(pp * qq)
        want = 2.0 - 2.0 * affinity
        assert hellinger_tensorize(h2_single, 3) == pytest.approx(want, abs=1e-14)

    def test_small_h2_keeps_relative_accuracy(self):
        mpmath = pytest.importorskip("mpmath")
        h2, n = 1e-12, 10**4
        with mpmath.workdps(50):
            want = 2 - 2 * (1 - mpmath.mpf(h2) / 2) ** n
            assert abs(hellinger_tensorize(h2, n) / want - 1) < 1e-14

    def test_range_errors(self):
        with pytest.raises(InvalidDistanceError):
            hellinger_tensorize(2.5, 2)
        with pytest.raises(InvalidParameterError):
            hellinger_tensorize(0.5, 0)


class TestSandwich:
    def test_values(self):
        lo, hi = tv_hellinger_bounds(0.5)
        assert lo == pytest.approx(0.25, abs=1e-15)
        assert hi == pytest.approx(0.661438, abs=5e-7)
        assert tv_hellinger_bounds(0.0) == (0.0, 0.0)
        assert tv_hellinger_bounds(2.0) == (1.0, 1.0)

    def test_brackets_tv_on_random_discrete_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            p, q = random_discrete_pair(rng)
            tv = total_variation(p, q)
            lo, hi = tv_hellinger_bounds(hellinger_sq(p, q))
            assert lo <= tv <= hi  # exact inequality, no tolerance


class TestMixtureIdentities:
    def test_singular_mixture_endpoints(self):
        assert mixture_hellinger_singular(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
        assert mixture_hellinger_singular(0.3, 1.0) == 2.0
        assert mixture_hellinger_singular(0.1, 0.5) == pytest.approx(
            0.656497, abs=5e-7
        )

    def test_small_eps_keeps_relative_accuracy(self):
        mpmath = pytest.importorskip("mpmath")
        eps = 1e-12
        with mpmath.workdps(50):
            want = 2 * (1 - mpmath.sqrt(1 - mpmath.mpf(eps)))
            assert abs(mixture_hellinger_singular(0.0, eps) / want - 1) < 1e-14

    def test_identity_vs_direct_discrete(self):
        # P and Q0 share support; Q1 sits on fresh points, hence singular
        rng = np.random.default_rng(99)
        for _ in range(50):
            p, q0 = random_discrete_pair(rng, max_atoms=5)
            q1 = FiniteDiscrete(((100.0, 0.5), (101.0, 0.5)))
            eps = float(rng.uniform(0.0, 1.0))
            mix = Mixture(q0, q1, eps)
            direct = hellinger_sq(p, mix)
            formula = mixture_hellinger_singular(hellinger_sq(p, q0), eps)
            assert direct == pytest.approx(formula, abs=1e-12)

    def test_factor_four_sandwich(self):
        eps_grid = np.linspace(0.01, 1.0, 100)
        h2_grid = np.linspace(0.02, 2.0, 100)
        for eps in eps_grid:
            for h2 in h2_grid:
                val = mixture_hellinger_singular(float(h2), float(eps))
                ratio = val / max(eps, h2)
                assert 0.25 <= ratio <= 4.0

    def test_contamination_monotonicity(self):
        # H^2(P, (1-e)P + eQ) grows with the contamination level
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q = random_discrete_pair(rng, max_atoms=6)
            e1, e2 = sorted(rng.uniform(0.0, 1.0, size=2))
            h1 = hellinger_sq(p, Mixture(p, q, float(e1)))
            h2 = hellinger_sq(p, Mixture(p, q, float(e2)))
            assert h1 <= h2 + 1e-12

    def test_product_tv_upper_bound_decays_beyond_beta_one(self):
        beta = 1.2
        uppers = []
        for n in (10**2, 10**3, 10**4):
            eps = float(n) ** (-beta)
            mix = Mixture(TWO_ATOM_P, TWO_ATOM_Q, eps)
            h2_n = hellinger_tensorize(hellinger_sq(TWO_ATOM_P, mix), n)
            uppers.append(tv_hellinger_bounds(h2_n)[1])
        assert uppers[0] > uppers[1] > uppers[2]


class TestDecomposition:
    def test_kappa_zero_keeps_epsilon(self):
        out = decompose_alternative(Gaussian(), 0.0, Gaussian(2.0, 1.0), None, 0.01, 100)
        assert out.epsilon_prime == pytest.approx(0.01, abs=1e-15)
        assert out.case.startswith("case-1")
        assert out.q_prime == Mixture(Gaussian(), Gaussian(2.0, 1.0), 0.01)

    def test_declared_kappa_echoed(self):
        nu = FiniteDiscrete(((50.0, 1.0),))
        out = decompose_alternative(Gaussian(), 0.3, Gaussian(1.0, 1.0), nu, 0.1, 1000)
        assert out.kappa == 0.3
        want = 0.1 * 0.7 / (1 - 0.1 * 0.3)
        assert out.epsilon_prime == pytest.approx(want, rel=1e-14)

    def test_case_arithmetic(self):
        # beta = 0.5 at n = 1e4 gives eps = 1e-2; kappa = 0.1 puts the
        # singular mass at 1e-3 > 1/n = 1e-4
        nu = FiniteDiscrete(((50.0, 1.0),))
        out = decompose_alternative(Gaussian(), 0.1, Gaussian(1.0, 1.0), nu, 1e-2, 10**4)
        assert out.case.startswith("case-2")

    def test_not_singular_rejected(self):
        null = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        overlapping = FiniteDiscrete(((1.0, 1.0),))
        with pytest.raises(NotSingularError):
            decompose_alternative(null, 0.2, null, overlapping, 0.1, 100)
