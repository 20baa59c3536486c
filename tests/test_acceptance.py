"""Acceptance suite: one test per numbered criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one
``ACCEPTANCE <k>: PASS|FAIL`` line per criterion.

Two criteria are known to fail for quantified reasons external to this
implementation (finite-sample constants the tolerances did not budget
for); their tests state the measured values in the failure message and
are intentionally not weakened.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sparse_detect import rng
from sparse_detect.boundary import (
    alpha_family,
    beta_sharp,
    boundary_closed_form,
    hc_achievable_boundary,
    hellinger_exponent,
)
from sparse_detect.dists import (
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
)
from sparse_detect.divergence import (
    hellinger_sq,
    hellinger_tensorize,
    mixture_hellinger_singular,
    total_variation,
    tv_hellinger_bounds,
)
from sparse_detect.hctest import hc_statistic, lr_test
from sparse_detect.sim import ExperimentConfig, estimate_gamma, phase_sweep

SEED = 42
WORKERS = 2


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {label}: PASS", flush=True)


def parameter_grid():
    """The ~150 family instances shared by criteria 2-4."""
    rs = [round(0.05 * k, 2) for k in range(1, 21)]
    instances = []
    for r in rs:
        instances.append(("idj", {"r": r}, alpha_family("idj", r=r)))
    for sigma2 in (0.5, 1.0, 1.5, 2.0, 3.0):
        for r in rs:
            instances.append(
                (
                    "hetero",
                    {"r": r, "sigma2": sigma2},
                    alpha_family("hetero", r=r, sigma2=sigma2),
                )
            )
    for linf in rs:
        instances.append(("dilate", {"linf": linf}, alpha_family("dilate", linf=linf)))
    return instances


def test_criterion_1_closed_form_golden_table():
    with criterion("1 closed-form golden table"):
        start = time.perf_counter()
        cases = [
            (("idj",), {"r": 0.25}, 0.75),
            (("idj",), {"mode": "r-of-beta", "beta": 0.75}, 0.25),
            (("hetero",), {"r": 0.0, "sigma2": 2.0}, 0.5),
            (("hetero",), {"r": 0.0, "sigma2": 5.0}, 0.8),  # signal variance 4
            (("dilate",), {"linf": 0.5}, 0.75),
            (("dilate",), {"linf": 0.7}, 0.91),
            (("ggconv",), {"tau": 1.0, "r": 4.0}, 0.5625),
            (("ggconv",), {"tau": 2.0, "r": 2.0}, 2.0 / 3.0),
            (("gglocation",), {"tau": 1.0, "r": 0.5}, 0.75),
            (("gglocation",), {"tau": 0.8, "r": 1.5}, 1.0),
            (("gglocation",), {"tau": 2.5, "r": 1.5}, 1.0),
        ]
        for fam, kwargs, want in cases:
            got = boundary_closed_form(*fam, **kwargs)
            assert got == pytest.approx(want, abs=1e-9), (fam, kwargs, got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"golden table took {elapsed:.2f}s, budget 1s"


def test_criterion_2_oracle_equivalence():
    with criterion("2 oracle equivalence (grid vs closed forms)"):
        start = time.perf_counter()
        for family, params, alpha in parameter_grid():
            want = boundary_closed_form(family, **params)
            got = beta_sharp(alpha).beta
            assert got == pytest.approx(want, abs=1e-3), (family, params, got, want)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s, budget 30s"


def test_criterion_3_exponent_sign_law():
    with criterion("3 Hellinger exponent sign law"):
        for family, params, alpha in parameter_grid():
            bstar = boundary_closed_form(family, **params)
            # probes stay inside the exponent's domain [1/2, inf); every
            # instance here has bstar > 1/2 so the clamped lower probe
            # still sits strictly below the boundary
            below = hellinger_exponent(alpha, max(0.5, bstar - 0.05))
            above = hellinger_exponent(alpha, bstar + 0.05)
            at = hellinger_exponent(alpha, bstar)
            assert below > -1.0, (family, params, below)
            assert above < -1.0, (family, params, above)
            assert abs(at + 1.0) <= 5e-3, (family, params, at)
        spot = alpha_family("idj", r=0.25)
        assert hellinger_exponent(spot, 0.6) == pytest.approx(-0.7225, abs=1e-4)
        assert hellinger_exponent(spot, 0.9) == pytest.approx(-1.3, abs=1e-4)


def test_criterion_4_adaptivity_identity():
    with criterion("4 higher-criticism adaptivity identity"):
        for family, params, alpha in parameter_grid():
            reference = beta_sharp(alpha).beta
            achieved = hc_achievable_boundary(alpha).beta
            assert achieved == pytest.approx(reference, abs=1e-3), (family, params)


def _random_discrete_pair(gen, max_atoms=8):
    k = int(gen.integers(2, max_atoms + 1))
    points = np.sort(gen.uniform(-3, 3, size=k))
    p = gen.uniform(0.05, 1.0, size=k)
    q = gen.uniform(0.05, 1.0, size=k)
    p /= p.sum()
    q /= q.sum()
    p[-1] = 1.0 - p[:-1].sum()
    q[-1] = 1.0 - q[:-1].sum()
    return (
        FiniteDiscrete(tuple(zip(points, p))),
        FiniteDiscrete(tuple(zip(points, q))),
    )


def test_criterion_5_divergence_identities():
    with criterion("5 divergence identities"):
        start = time.perf_counter()
        # enumerated cases
        p2 = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        q2 = FiniteDiscrete(((0.0, 0.25), (1.0, 0.75)))
        assert hellinger_sq(FiniteDiscrete(((0.0, 1.0),)), FiniteDiscrete(((1.0, 1.0),))) == 2.0
        assert total_variation(p2, q2) == pytest.approx(0.25, abs=1e-15)
        assert hellinger_tensorize(0.5, 2) == pytest.approx(0.875, abs=1e-15)
        assert mixture_hellinger_singular(0.1, 0.5) == pytest.approx(
            2 * (1 - math.sqrt(0.5)) + math.sqrt(0.5) * 0.1, abs=1e-15
        )
        gen = np.random.default_rng(20250809)
        off_support = FiniteDiscrete(((100.0, 0.4), (101.0, 0.6)))
        for trial in range(1000):
            p, q = _random_discrete_pair(gen)
            h2 = hellinger_sq(p, q)
            tv = total_variation(p, q)
            # TV/Hellinger sandwich, exact
            lo, hi = tv_hellinger_bounds(h2)
            assert lo <= tv <= hi
            # product-law tensorization vs explicit two-fold enumeration
            aff = float(np.sqrt(np.outer(p.masses, p.masses) * np.outer(q.masses, q.masses)).sum())
            assert hellinger_tensorize(h2, 2) == pytest.approx(2 - 2 * aff, abs=1e-12)
            # singular-contamination identity vs direct computation
            eps = float(gen.uniform(0.0, 1.0))
            direct = hellinger_sq(p, Mixture(q, off_support, eps))
            formula = mixture_hellinger_singular(h2, eps)
            assert direct == pytest.approx(formula, abs=1e-12)
            # factor-4 sandwich around eps v H^2
            if eps > 0 or h2 > 0:
                ratio = formula / max(eps, h2)
                assert 0.25 <= ratio <= 4.0
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"divergence identities took {elapsed:.1f}s, budget 5s"


def test_criterion_6_neyman_pearson_brute_force():
    with criterion("6 likelihood-ratio test matches brute-force optimum"):
        q_bin = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
        g_bin = FiniteDiscrete(((1.0, 1.0),))
        q_tri = FiniteDiscrete(((-1.0, 0.3), (0.0, 0.4), (1.0, 0.3)))
        g_tri = FiniteDiscrete(((-1.0, 0.1), (0.0, 0.2), (1.0, 0.7)))
        toys = [
            (q_bin, g_bin, 0.5, (1, 2, 3, 8, 12)),
            (q_bin, g_bin, 0.25, (4, 10)),
            (q_tri, g_tri, 0.4, (2, 4, 6)),
        ]
        for q, g, eps, sizes in toys:
            mix = Mixture(q, g, eps)
            mixed = Mixture(q, g, eps)
            for n in sizes:
                total_error = 0.0
                tv = 0.0
                for outcome in itertools.product(q.points, repeat=n):
                    ys = np.asarray(outcome)
                    p_null = float(np.prod([q.mass(v) for v in ys]))
                    p_mix = float(np.prod([mixed.mass(v) for v in ys]))
                    _, decision = lr_test(ys, mix)
                    total_error += p_null if decision == "alternative" else p_mix
                    tv += 0.5 * abs(p_null - p_mix)
                assert total_error == pytest.approx(1.0 - tv, abs=1e-12), (eps, n)


def test_criterion_7_monte_carlo_phase_separation():
    with criterion("7 Monte-Carlo phase separation"):
        start = time.perf_counter()
        inside = phase_sweep(
            ExperimentConfig(
                family="idj", beta_grid=(0.55,), r_grid=(0.8,),
                n_list=(10**3, 10**4, 10**5), replicates=500,
                tests=("hc",), seed=SEED,
            ),
            workers=WORKERS,
        )
        totals = [c.total_error for c in inside.cells]
        print(f"\n  (a) r=0.8 beta=0.55 hc totals by n: {totals}")
        outside = phase_sweep(
            ExperimentConfig(
                family="idj", beta_grid=(0.9,), r_grid=(0.05,),
                n_list=(10**3, 10**4, 10**5), replicates=500,
                tests=("hc", "lr", "max"), seed=SEED,
            ),
            workers=WORKERS,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"phase separation took {elapsed:.0f}s, budget 600s"
        # (a) deep inside the detectable region: error must not grow with n
        assert totals[0] >= totals[1] >= totals[2], totals
        # (b) outside the detectable region: every test stays powerless
        for cell in outside.cells:
            assert cell.total_error > 0.7, (cell.test, cell.n, cell.total_error)
        # (a) continued: the stated error ceiling at n = 1e5.  The threshold
        # sqrt(2 (1+delta) log log n) at delta=0.1 sits below the finite-n
        # null quantiles of the unrestricted statistic, so the null
        # rejection rate alone is ~0.78 at n=1e5; see the decisions ledger
        # for measurements.  The assertion is kept as stated.
        assert totals[2] < 0.3, (
            f"hc total error at n=1e5 is {totals[2]:.3f}, criterion demands < 0.3; "
            "the type-I rate of the log-log threshold dominates at this n "
            "(measured ~0.78-0.82 for delta=0.1; see decisions ledger)"
        )


def test_criterion_8_null_calibration():
    with criterion("8 null calibration of the statistic"):
        n = 10**5
        norm_const = math.sqrt(2 * math.log(math.log(n)))
        ratios = []
        for rep in range(200):
            ys = Gaussian().sample(n, rng.stream(SEED, 8, rep))
            stat, _ = hc_statistic(ys, Gaussian())
            ratios.append(stat / norm_const)
        mean = float(np.mean(ratios))
        print(f"\n  mean HC / sqrt(2 log log n) over 200 null replicates: {mean:.4f}")
        assert 0.7 <= mean <= 1.6, mean


def test_criterion_9_worker_count_determinism():
    with criterion("9 worker-count determinism"):
        cfg = ExperimentConfig(
            family="idj", beta_grid=(0.6, 0.9), r_grid=(0.5,), n_list=(64,),
            replicates=25, tests=("hc", "lr", "max"), seed=SEED,
        )
        csvs = {w: phase_sweep(cfg, workers=w).to_csv() for w in (1, 4, 16)}
        assert csvs[1] == csvs[4] == csvs[16]


def test_criterion_10_gamma_diagnostic():
    with criterion("10 finite-n exponent diagnostic"):
        tau, r, n = 1.0, 0.5, 10**6
        null = GenGaussian(tau)
        alt = Shifted(null, (r * math.log(n)) ** (1.0 / tau))
        s_grid = np.arange(0.1, 2.0000001, 0.05)
        diag = estimate_gamma(null, alt, [n], s_grid)
        target = lambda s: s - abs(s - r)
        deviation = diag.deviation_from(target, n)
        print(f"\n  max |estimate - limit| at n=1e6: {deviation:.6f}")
        # The estimate approaches the limit from below at the exact rate
        # 2 ln 2 / ln n (the null-quantile constant times the ratio slope),
        # which is 0.1003 at n=1e6; the 0.05 budget is first met near
        # n ~ 1e12.  See the decisions ledger.  The assertion is kept as
        # stated.
        assert deviation <= 0.05, (
            f"max deviation {deviation:.4f} exceeds 0.05; the finite-n error "
            "is 2 ln 2 / ln n = 0.1003 at n=1e6 (see decisions ledger)"
        )
