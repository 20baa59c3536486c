"""Monte-Carlo harness tests: determinism, calibration, diagnostics."""

import hashlib
import math
import re

import numpy as np
import pytest
import scipy

import sparse_detect
from sparse_detect import hctest, rng, sim
from sparse_detect.dists import (
    FiniteDiscrete,
    Gaussian,
    GenGaussian,
    Mixture,
    Shifted,
    to_spec,
)
from sparse_detect.errors import (
    ConfigError,
    IncompatibleLawsError,
    InfiniteWeightError,
    InvalidParameterError,
    InvalidSampleSizeError,
)
from sparse_detect.hctest import (
    TESTS,
    DecisionRule,
    hc_statistic,
    hc_test,
    hc_threshold,
    lr_test,
    max_test,
)
from sparse_detect.sim import (
    ExperimentConfig,
    estimate_gamma,
    family_mixture,
    phase_sweep,
    run_cell,
    wilson_halfwidth,
)


def small_config(**overrides):
    base = dict(
        family="idj",
        beta_grid=(0.6, 0.9),
        r_grid=(0.5,),
        n_list=(64,),
        replicates=25,
        tests=("hc", "lr", "max"),
        seed=1234,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_valid(self):
        cfg = small_config()
        assert len(cfg.cells()) == 2 * 1 * 1 * 3

    def test_hc_needs_n_at_least_16(self):
        with pytest.raises(ConfigError):
            small_config(n_list=(8,))

    def test_lr_allows_small_n(self):
        cfg = small_config(n_list=(4,), tests=("lr",))
        assert cfg.n_list == (4,)

    def test_empty_grids_rejected(self):
        with pytest.raises(ConfigError):
            small_config(beta_grid=())
        with pytest.raises(ConfigError):
            small_config(replicates=0)
        with pytest.raises(ConfigError):
            small_config(tests=("hc", "bogus"))

    @pytest.mark.parametrize(
        "field, values, shown",
        [
            ("beta_grid", (0.6, 0.9, 0.6), "0.6"),
            ("r_grid", (0.0, 0.5, -0.0), "-0.0"),
            ("n_list", (64, 128, 64, 128), "64"),
            ("tests", ("hc", "max", "hc"), "'hc'"),
        ],
    )
    def test_repeated_entries_refused(self, field, values, shown):
        with pytest.raises(ConfigError, match=re.escape(f"{field} repeats {shown}")):
            small_config(**{field: values})

    @pytest.mark.parametrize("tests", ["max", 5, ()])
    def test_tests_must_come_in_a_list(self, tests):
        # a string is not split into characters, and a scalar is named, not iterated
        words = f"tests must come in a non-empty list, got {tests!r}"
        with pytest.raises(ConfigError, match=re.escape(words) + "$"):
            small_config(tests=tests)

    def test_cell_order_is_beta_r_n_test(self):
        cfg = ExperimentConfig(
            family="idj",
            beta_grid=(0.9, 0.6),
            r_grid=(0.7, 0.2),
            n_list=(128, 64),
            replicates=1,
            tests=("max", "hc"),
            seed=0,
        )
        cells = cfg.cells()
        keys = [(b, r, n, t) for _, b, r, n, t in cells]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2], k[3]))
        assert [c[0] for c in cells] == list(range(len(cells)))

    @pytest.mark.parametrize(
        "family, missing",
        [("hetero", "sigma2"), ("gglocation", "tau"), ("custom", "null, alt")],
    )
    def test_missing_family_params_rejected(self, family, missing):
        with pytest.raises(ConfigError, match=f"requires parameter {missing}"):
            small_config(family=family)
        with pytest.raises(InvalidParameterError, match=missing):
            family_mixture(family, {}, 0.5, 0.6, 100)

    @pytest.mark.parametrize("family, params", [("idj", {}), ("gglocation", {"tau": 2.0})])
    def test_negative_r_rejected(self, family, params):
        with pytest.raises(ConfigError, match="r must be >= 0"):
            small_config(family=family, family_params=params, r_grid=(0.5, -0.5))

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ConfigError, match="r must be >= 0 and finite"):
            small_config(r_grid=(0.5, r))

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, "abc"])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(ConfigError, match="delta must be > 0 and finite"):
            small_config(delta=delta)

    def test_non_numeric_shape_parameter_rejected(self):
        with pytest.raises(ConfigError, match="tau must be > 0"):
            small_config(family="gglocation", family_params={"tau": "abc"})

    def test_non_integral_n_rejected(self):
        with pytest.raises(ConfigError, match="every n must be an integer"):
            ExperimentConfig.from_dict(dict(small_config().to_dict(), n_list=[100.7]))
        cfg = ExperimentConfig.from_dict(dict(small_config().to_dict(), n_list=[1000.0]))
        assert cfg.n_list == (1000,)

    @pytest.mark.parametrize(
        "field, value",
        [("replicates", 2.7), ("replicates", True), ("replicates", "3"),
         ("seed", 1.9), ("seed", False), ("seed", math.nan)],
    )
    def test_non_integral_replicates_and_seed_rejected(self, field, value):
        data = dict(small_config().to_dict(), **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ExperimentConfig.from_dict(data)
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            small_config(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match=re.escape(f"seed must lie in [0, {2**64 - 1}]")):
            small_config(seed=seed)
        assert small_config(seed=2**64 - 1).seed == 2**64 - 1

    def test_integral_floats_read_as_integers(self):
        data = dict(small_config().to_dict(), replicates=25.0, seed=1234.0)
        cfg = ExperimentConfig.from_dict(data)
        assert cfg == small_config()
        assert type(cfg.replicates) is int and type(cfg.seed) is int

    def test_non_numeric_delta_in_dict_rejected(self):
        data = dict(small_config().to_dict(), delta="abc")
        with pytest.raises(ConfigError, match="delta must be > 0 and finite, got 'abc'"):
            ExperimentConfig.from_dict(data)

    def test_malformed_custom_spec_rejected(self):
        params = {"null": {"kind": "gen_gaussian"}, "alt": {"kind": "gaussian", "mean": 2.0}}
        with pytest.raises(ConfigError, match="gen_gaussian spec needs field 'tau'"):
            small_config(family="custom", family_params=params)

    def test_unsimulatable_family_rejected(self):
        with pytest.raises(ConfigError, match="not simulatable"):
            small_config(family="dilate")

    @pytest.mark.parametrize(
        "field, value, words",
        [
            ("tests", "lr", "tests must be a list, got 'lr'"),
            ("tests", [["lr"]], "tests must be a non-empty subset"),
            ("family_params", [1], "family_params must be an object, got [1]"),
        ],
    )
    def test_malformed_dict_entry_rejected(self, field, value, words):
        data = dict(small_config().to_dict(), **{field: value})
        with pytest.raises(ConfigError, match=re.escape(words)):
            ExperimentConfig.from_dict(data)

    def test_round_trip_dict(self):
        configs = [small_config(), *(ExperimentConfig(**spec) for spec, _ in GOLDEN_SWEEPS)]
        configs.append(small_config(
            family="gglocation", family_params={"tau": 1.5}, delta=0.25, tests=("hc", "max")
        ))
        for cfg in configs:
            again = ExperimentConfig.from_dict(cfg.to_dict())
            assert again == cfg and again.config_hash() == cfg.config_hash()
            assert len(cfg.config_hash()) == 64

    @pytest.mark.parametrize("key", ["detla", "Delta", "family_param"])
    def test_unknown_key_named(self, key):
        data = dict(small_config(delta=0.2).to_dict(), **{key: 0.3})
        with pytest.raises(ConfigError, match=f"config has unknown key '{key}'$"):
            ExperimentConfig.from_dict(data)

    def test_absent_keys_take_the_defaults(self):
        data = small_config().to_dict()
        del data["delta"], data["family_params"]
        cfg = ExperimentConfig.from_dict(data)
        assert cfg == small_config()
        assert (cfg.delta, cfg.family_params) == (0.1, {})

    def test_family_params_are_copied(self):
        data = small_config(family="hetero", family_params={"sigma2": 0.5}).to_dict()
        cfg = ExperimentConfig.from_dict(data)
        data["family_params"]["sigma2"] = 3.0
        assert cfg.family_params == {"sigma2": 0.5}


class TestFamilyMixture:
    def test_idj_mapping(self):
        mix = family_mixture("idj", {}, 0.8, 0.55, 10**4)
        assert mix.first == Gaussian(0.0, 1.0)
        assert mix.second == Gaussian(math.sqrt(1.6 * math.log(10**4)), 1.0)
        assert mix.weight == pytest.approx(10**-2.2, rel=1e-12)

    def test_hetero_mapping(self):
        mix = family_mixture("hetero", {"sigma2": 4.0}, 0.25, 0.6, 100)
        assert mix.second.sd == 2.0

    def test_gglocation_mapping(self):
        mix = family_mixture("gglocation", {"tau": 2.0}, 0.5, 0.6, 1000)
        assert mix.first == GenGaussian(2.0)
        assert isinstance(mix.second, Shifted)
        assert mix.second.shift == pytest.approx(math.sqrt(0.5 * math.log(1000)))

    def test_gglocation_negative_r_rejected(self):
        with pytest.raises(InvalidParameterError, match="r must be >= 0"):
            family_mixture("gglocation", {"tau": 2.0}, -0.5, 0.6, 1000)

    def test_signal_rescaled_per_n(self):
        small = family_mixture("idj", {}, 0.5, 0.6, 100)
        large = family_mixture("idj", {}, 0.5, 0.6, 10**6)
        assert large.second.mean > small.second.mean


class TestWilson:
    def test_hand_value(self):
        z = 1.959963984540054
        want = z * math.sqrt(10 * 90 / 100 + z * z / 4) / (100 + z * z)
        assert wilson_halfwidth(10, 100) == pytest.approx(want, rel=1e-12)

    def test_stable_at_extremes(self):
        assert 0.0 < wilson_halfwidth(0, 50) < 0.1
        assert wilson_halfwidth(50, 50) == wilson_halfwidth(0, 50)

    def test_numpy_integer_counts(self):
        assert wilson_halfwidth(np.int64(3), np.int64(10)) == wilson_halfwidth(3, 10)

    @pytest.mark.parametrize(
        "successes, trials", [(3, math.nan), (5, 3), (-1, 3), (1.5, 3), (0, 0), (None, 3)]
    )
    def test_invalid_counts_rejected(self, successes, trials):
        with pytest.raises(InvalidParameterError):
            wilson_halfwidth(successes, trials)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -1.0, 0.0, "1.96", None])
    def test_z_must_be_positive_and_finite(self, z):
        with pytest.raises(InvalidParameterError, match="z must be > 0 and finite"):
            wilson_halfwidth(3, 10, z=z)


class TestRunCell:
    def test_identical_seeds_identical_cells(self):
        cfg = small_config()
        assert phase_sweep(cfg).cells == phase_sweep(cfg).cells

    @pytest.mark.parametrize("counts", [(-1, 0), (0, 26), (26, 0), (2.0, 3), (None, 4)])
    def test_counts_outside_the_replicates_rejected(self, counts):
        cfg = small_config()  # 25 replicates
        with pytest.raises(InvalidParameterError):
            run_cell(cfg, cfg.cells()[0], *counts)

    def test_given_counts_fold_into_the_row(self):
        cfg = small_config()
        cell = run_cell(cfg, cfg.cells()[0], 5, 25)
        assert (cell.type1_rate, cell.type2_rate, cell.total_error) == (0.2, 1.0, 1.2)
        assert cell.wilson_ci_halfwidth == wilson_halfwidth(5, 25) + wilson_halfwidth(25, 25)

    def test_different_seed_changes_rates(self):
        cfg_a = small_config(replicates=40)
        cfg_b = small_config(replicates=40, seed=999)
        a, b = phase_sweep(cfg_a).cells[1], phase_sweep(cfg_b).cells[1]
        assert (a.type1_rate, a.type2_rate) != (b.type1_rate, b.type2_rate)

    def test_singular_custom_family_separates_exactly(self):
        # epsilon = 1 with the alternative off the null support: the
        # likelihood rule is never wrong in either direction
        cfg = ExperimentConfig(
            family="custom",
            beta_grid=(0.0,),  # epsilon = n^0 = 1
            r_grid=(0.0,),
            n_list=(32,),
            replicates=50,
            tests=("lr",),
            seed=7,
            family_params={
                "null": to_spec(FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))),
                "alt": to_spec(FiniteDiscrete(((2.0, 1.0),))),
            },
        )
        [cell] = phase_sweep(cfg).cells
        assert cell.total_error == 0.0

    def test_beyond_beta_one_is_undetectable(self):
        # sparsity exponent above 1: likelihood test near-powerless
        cfg = ExperimentConfig(
            family="idj",
            beta_grid=(1.2,),
            r_grid=(0.5,),
            n_list=(10**4,),
            replicates=500,
            tests=("lr",),
            seed=42,
        )
        [cell] = phase_sweep(cfg).cells
        assert cell.total_error >= 0.9


class TestPhaseSweep:
    @pytest.mark.parametrize("workers", [0, -2, 1.5, True, None])
    def test_workers_must_be_an_integer_from_one(self, workers):
        with pytest.raises(InvalidParameterError, match="workers must be"):
            phase_sweep(small_config(tests=("max",)), workers=workers)

    def test_single_cell_single_row(self):
        cfg = small_config(beta_grid=(0.7,), tests=("max",))
        table = phase_sweep(cfg)
        assert len(table.cells) == 1
        assert len(table.overlay_csv().splitlines()) == 2  # header, one (r, beta_star) row

    def test_overlay_column_matches_closed_form(self):
        cfg = small_config(tests=("max",), r_grid=(0.25,))
        table = phase_sweep(cfg)
        assert all(cell.beta_star == pytest.approx(0.75) for cell in table.cells)

    def test_csv_shape_and_roundtrip(self):
        cfg = small_config(replicates=10)
        table = phase_sweep(cfg)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == table.CSV_HEADER
        assert len(lines) == 1 + len(table.cells)
        first = lines[1].split(",")
        assert float(first[0]) == table.cells[0].beta
        assert first[3] == table.cells[0].test

    def test_worker_counts_do_not_change_bytes(self):
        cfg = small_config(replicates=15)
        csv_1 = phase_sweep(cfg, workers=1).to_csv()
        csv_2 = phase_sweep(cfg, workers=2).to_csv()
        csv_4 = phase_sweep(cfg, workers=4).to_csv()
        assert csv_1 == csv_2 == csv_4

    def test_manifest_fields(self):
        cfg = small_config(replicates=5, tests=("lr",))
        table = phase_sweep(cfg)
        manifest = table.manifest()
        assert manifest["seed"] == cfg.seed
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["worker_count"] == 1
        assert manifest["wall_time_s"] > 0
        assert set(manifest) == {
            "seed", "config_hash", "wall_time_s", "worker_count",
            "sparse_detect_version", "numpy_version", "scipy_version",
        }
        assert manifest["sparse_detect_version"] == sparse_detect.__version__
        assert manifest["numpy_version"] == np.__version__
        assert manifest["scipy_version"] == scipy.__version__

    def test_lr_never_clearly_beaten(self):
        # likelihood-ratio optimality up to Monte-Carlo noise
        cfg = ExperimentConfig(
            family="idj",
            beta_grid=(0.55,),
            r_grid=(0.8,),
            n_list=(10**3,),
            replicates=200,
            tests=("hc", "lr", "max"),
            seed=42,
        )
        table = phase_sweep(cfg, workers=2)
        by_test = {c.test: c for c in table.cells}
        lr = by_test["lr"]
        for other in ("hc", "max"):
            cell = by_test[other]
            slack = 2.0 * (lr.wilson_ci_halfwidth + cell.wilson_ci_halfwidth)
            assert lr.total_error <= cell.total_error + slack

    def test_monotone_phase_separation(self):
        # inside-the-detectable-region cells beat outside cells clearly
        cfg = ExperimentConfig(
            family="idj",
            beta_grid=(0.52, 0.95),
            r_grid=(0.3,),  # boundary sits at 0.7955
            n_list=(10**4,),
            replicates=150,
            tests=("hc",),
            seed=42,
        )
        table = phase_sweep(cfg, workers=2)
        inside = table.select(beta=0.52)[0]
        outside = table.select(beta=0.95)[0]
        assert inside.total_error < outside.total_error


class _InlinePool:
    """Stands in for the process pool: runs each task here and records its arguments."""

    tasks: list = []

    def __init__(self, workers):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        args = list(zip(*iterables))
        self.tasks.extend(args)
        return [fn(*a) for a in args]


# CSV plus overlay bytes of these configs as computed when every cell drew
# its own alternative samples; sharing a draw between tests must keep them
GOLDEN_SWEEPS = [
    (
        dict(family="idj", beta_grid=(0.0, 0.55, 0.8, 400.0), r_grid=(0.15, 0.6),
             n_list=(100, 1000), replicates=9, tests=("hc", "lr", "max"), seed=2024),
        "954b8b8e8c6e0bd55df355399e561be1a17c40280714f5af0982e28392fc8a53",
    ),
    (
        dict(family="hetero", family_params={"sigma2": 2.0}, beta_grid=(0.6,),
             r_grid=(0.2, 0.5), n_list=(64, 512), replicates=7,
             tests=("hc", "lr", "max"), seed=5),
        "b2a1a083db85d1241fde8af6f6d002a6c69aacfa6915349755053b2c44373897",
    ),
    (
        dict(family="gglocation", family_params={"tau": 1.5}, beta_grid=(0.5, 0.75),
             r_grid=(0.0, 0.4), n_list=(64, 300), replicates=8,
             tests=("hc", "lr", "max"), seed=11),
        "2f80c54a932f0d7544eebc6b22c02cc3e0ef8e319242c8fda665b7134769135f",
    ),
    (
        dict(family="custom", beta_grid=(0.0, 0.5), r_grid=(0.0,), n_list=(32, 40),
             replicates=6, tests=("lr", "max"), seed=7,
             family_params={
                 "null": to_spec(FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))),
                 "alt": to_spec(FiniteDiscrete(((2.0, 1.0),))),
             }),
        "73d108cda44a5c100df134ff79e96b60dbc03fe3ddb61224fd0d13011c67d249",
    ),
    (
        # 7 sample rows a replicate: 2 chunks at n = 20000, 7 at n = 70000
        dict(family="idj", beta_grid=(0.5, 0.7, 1.0), r_grid=(0.3, 0.9),
             n_list=(16, 20000, 70000), replicates=3, tests=("hc", "lr", "max"), seed=99),
        "8f0555d03175633b2ab185e4c7d1ae8881b12d12a967477977471cf864c434de",
    ),
    (
        # 3 sample rows a replicate in 2 chunks at n = 50000, singular lr rows among them
        dict(family="custom", beta_grid=(0.0, 0.5), r_grid=(0.0,), n_list=(50000,),
             replicates=4, tests=("lr", "max"), seed=8,
             family_params={
                 "null": to_spec(FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))),
                 "alt": to_spec(FiniteDiscrete(((2.0, 1.0),))),
             }),
        "af1b214d22d3369d8d9e4a5d3400e7c145707727ea7b038bd156505207041810",
    ),
]


class TestSharedNull:
    """Each null and each alternative sample is drawn once for every cell it serves."""

    def grid(self, **overrides):
        base = dict(
            beta_grid=(0.6, 0.75, 0.9), r_grid=(0.2, 0.5), n_list=(64, 256), replicates=12
        )
        base.update(overrides)
        return small_config(**base)

    def test_hc_and_max_type1_equal_across_beta_r(self):
        cfg = self.grid(replicates=30)
        table = phase_sweep(cfg)
        for n in cfg.n_list:
            for test in ("hc", "max"):
                rates = {c.type1_rate for c in table.select(n=n, test=test)}
                assert len(rates) == 1, (n, test, rates)

    @pytest.mark.parametrize("replicates", [2, 5, 13])
    def test_csv_identical_across_worker_counts(self, replicates):
        # 2 and 5 replicates leave some of the 3 or 7 replicate blocks empty
        cfg = self.grid(replicates=replicates)
        csvs = {w: phase_sweep(cfg, workers=w).to_csv() for w in (1, 2, 3, 7)}
        assert csvs[1] == csvs[2] == csvs[3] == csvs[7]

    def test_one_run_cell_call_per_cell(self, monkeypatch):
        # per-cell run_cell spans are what the benchmark's traced run reads
        calls = []
        real = sim.run_cell

        def counting(cfg, cell, *args):
            calls.append(cell)
            return real(cfg, cell, *args)

        monkeypatch.setattr(sim, "run_cell", counting)
        cfg = self.grid(replicates=3)
        phase_sweep(cfg, workers=1)
        assert calls == cfg.cells()

    def test_one_draw_per_sample_and_one_task_per_n_and_block(self, monkeypatch):
        # every stream, fresh or re-keyed, is keyed through rng.philox_state
        streams = []
        real_state = rng.philox_state

        def counting(seed, *path):
            streams.append(path)
            return real_state(seed, *path)

        monkeypatch.setattr(rng, "philox_state", counting)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(_InlinePool, "tasks", [])
        cfg = self.grid()  # 3 beta x 2 r x 2 n, 3 tests, 12 replicates
        csv = phase_sweep(cfg, workers=3).to_csv()
        assert len(_InlinePool.tasks) == len(cfg.n_list) * 3
        nulls = [path for path in streams if len(path) == 2]  # (n, k)
        alternatives = [path for path in streams if len(path) == 4]  # (beta, r, n, k)
        assert (len(nulls), len(alternatives), len(streams)) == (24, 144, 168)
        assert len(set(streams)) == len(streams)
        monkeypatch.undo()
        assert csv == phase_sweep(cfg, workers=1).to_csv()

    def test_no_task_holds_more_than_the_chunk_cap(self, monkeypatch):
        shapes, batches = [], []  # each chunk a test decides; each matrix lr_rejects reads
        for name, test in TESTS.items():
            def recording(ys, *args, real=test.rejects):
                shapes.append(ys.shape)
                return real(ys, *args)

            monkeypatch.setitem(TESTS, name, DecisionRule(recording, test.min_n))
        real_lr = hctest.lr_rejects

        def recording_lr(ell, eps):
            batches.append(np.shape(ell))
            return real_lr(ell, eps)

        monkeypatch.setattr(hctest, "lr_rejects", recording_lr)
        cfg = self.grid(n_list=(16, 20000, 70000), replicates=2)  # 7 sample rows a replicate
        phase_sweep(cfg)
        assert max(m * n for m, n in shapes + batches) <= sim._CHUNK_VALUES == 2**17
        rows = {n: sorted({m for m, size in shapes if size == n}) for n in cfg.n_list}
        assert rows == {16: [7], 20000: [1, 6], 70000: [1]}
        # lr decides a chunk's 3 null and 3 alternative cells of one r in one
        # batch, and a one-row chunk's null cells one batch a cell
        lr_rows = {n: max(m for m, size in batches if size == n) for n in cfg.n_list}
        assert lr_rows == {16: 6, 20000: 6, 70000: 1}

    @pytest.mark.parametrize(
        "family, params, r, n",
        [
            ("idj", {}, 0.5, 200),
            ("idj", {}, 0.0, 200),
            ("gglocation", {"tau": 1.5}, 0.4, 64),
            ("custom", GOLDEN_SWEEPS[3][0]["family_params"], 0.0, 3),  # singular rows
        ],
    )
    def test_matrix_decisions_equal_single_sample_tests(self, family, params, r, n):
        # beta 0 gives eps 1 and beta 400 eps 0; two columns of the same r
        # give each beta two alternative rows
        betas = (0.0, 0.5, 400.0)
        mixes = [[family_mixture(family, params, r, beta, n)] * 2 for beta in betas]
        cell_mixes = [mix for row in mixes for mix in row]
        null = mixes[0][0].first
        laws = (null, mixes[1][0])  # null and alternative laws, as in a sweep
        samples = np.stack([laws[k % 2].sample(n, rng.stream(54, k)) for k in range(8)])
        # every row of the test table against its public single-sample test
        reference = {
            "hc": lambda y, mix: hc_test(y, mix.first, delta=0.1).decision,
            "lr": lambda y, mix: lr_test(y, mix)[1],
            "max": lambda y, mix: max_test(y),
        }
        assert list(reference) == list(TESTS)
        wants = set()
        for name, test in TESTS.items():
            if n < test.min_n:
                continue
            for lo, ys in ((0, samples[:7]), (1, samples[2:])):  # 7 and 6 rows
                on_null, on_alt = test.rejects(ys, lo, null, mixes, 0.1)
                alt_rows = ys[1:] if lo == 0 else ys
                want = [reference[name](y, mix) == "alternative"
                        for y, mix in zip(alt_rows, cell_mixes[max(lo, 1) - 1:])]
                assert on_alt.tolist() == want, (name, lo)
                if lo == 0:
                    want_null = [reference[name](ys[0], mix) == "alternative" for mix in cell_mixes]
                    assert on_null.tolist() == want_null, name
                    want += want_null
                else:
                    assert on_null is None
                wants.update(want)
        if family == "custom":
            assert wants == {False, True}  # some rows singular, some not

    @pytest.mark.parametrize(
        "family, params, tests",
        [
            ("idj", {}, tuple(TESTS)),
            ("gglocation", {"tau": 1.5}, tuple(TESTS)),
            ("custom", GOLDEN_SWEEPS[3][0]["family_params"], ("lr", "max")),  # singular rows
        ],
    )
    def test_chunk_decisions_equal_row_by_row(self, family, params, tests):
        n, betas, rs = 64, (0.0, 0.5, 0.8), (0.0, 0.4)
        mixes = [[family_mixture(family, params, r, beta, n) for r in rs] for beta in betas]
        null = mixes[0][0].first
        laws = [null, *(mix for row in mixes for mix in row)]
        ys = np.stack([law.sample(n, rng.stream(3, k)) for k, law in enumerate(laws)])
        for name in tests:
            rejects = TESTS[name].rejects
            alone = [rejects(ys[k:k + 1], k, null, mixes, 0.1) for k in range(len(ys))]
            assert alone[0][1].size == 0 and all(on_null is None for on_null, _ in alone[1:])
            alt_alone = np.concatenate([on_alt for _, on_alt in alone[1:]]).tolist()
            for lo, hi in ((0, 7), (0, 3), (2, 5), (3, 7)):
                on_null, on_alt = rejects(ys[lo:hi], lo, null, mixes, 0.1)
                assert on_alt.tolist() == alt_alone[max(lo, 1) - 1:hi - 1], (name, lo, hi)
                if lo == 0:
                    assert on_null.tolist() == alone[0][0].tolist(), name
                else:
                    assert on_null is None

    def test_errors_keep_the_row_by_row_order(self):
        # the null row passes hc and fails lr; an alternative row fails hc.
        # Deciding row by row, as the sweep reports it, the null row's lr
        # error comes first, though the chunk's hc scan meets the other first
        alt = Mixture(Gaussian(300.0, 1.0), FiniteDiscrete(((0.0, 1.0),)), 0.5)
        params = {"null": to_spec(Gaussian()), "alt": to_spec(alt)}
        cfg = small_config(family="custom", family_params=params, beta_grid=(0.0,),
                           r_grid=(0.0,), n_list=(50,), replicates=2, tests=("hc", "lr"))
        with pytest.raises(IncompatibleLawsError):
            phase_sweep(cfg)
        mixes = [[family_mixture("custom", params, 0.0, 0.0, 50)]]
        ys = np.stack([Gaussian().sample(50, rng.stream(1)), alt.sample(50, rng.stream(2))])
        TESTS["hc"].rejects(ys[:1], 0, Gaussian(), mixes, 0.1)
        with pytest.raises(IncompatibleLawsError):
            TESTS["lr"].rejects(ys[:1], 0, Gaussian(), mixes, 0.1)
        with pytest.raises(InfiniteWeightError):
            TESTS["hc"].rejects(ys, 0, Gaussian(), mixes, 0.1)

    @pytest.mark.parametrize(
        "spec, digest",
        GOLDEN_SWEEPS,
        ids=[
            spec["family"] + ("-chunked" if max(spec["n_list"]) > 10**4 else "")
            for spec, _ in GOLDEN_SWEEPS
        ],
    )
    def test_golden_bytes(self, spec, digest):
        cfg = ExperimentConfig(**spec)
        for workers in (1, 2, 3, 7):
            table = phase_sweep(cfg, workers=workers)
            data = (table.to_csv() + table.overlay_csv()).encode()
            assert hashlib.sha256(data).hexdigest() == digest, workers


class TestHCTypeOneTrend:
    def test_null_rejection_rate_never_rises_significantly(self):
        # the threshold grows with n, so the true null rate drifts down;
        # the drift (~0.01 per decade here) sits below what 500 fixed-seed
        # replicates resolve, so the check is one-sided with noise slack
        rates = []
        reps = 500
        for n in (10**3, 10**4, 10**5):
            thr = hc_threshold(n, 0.1)
            rejects = 0
            for rep in range(reps):
                ys = Gaussian().sample(n, rng.stream(42, n, rep, 0))
                stat, _ = hc_statistic(ys, Gaussian())
                rejects += stat > thr
            rates.append(rejects / reps)
        noise = 2.0 * 2.0 * wilson_halfwidth(int(rates[0] * reps), reps)
        assert rates[1] <= rates[0] + noise
        assert rates[2] <= rates[1] + noise


class TestEstimateGamma:
    @pytest.mark.parametrize(
        "n_list, s_grid, words",
        [
            ([1000.7], [0.5], "every n must be an integer, got 1000.7"),
            ([math.nan], [0.5], "every n must be an integer, got nan"),
            ([1000], [0.5, math.nan], "every s in s_grid must be finite, got nan"),
        ],
    )
    def test_malformed_grids_named(self, n_list, s_grid, words):
        with pytest.raises(InvalidParameterError, match=re.escape(words)):
            estimate_gamma(Gaussian(), Gaussian(1.0, 1.0), n_list, s_grid)

    def test_deviation_names_an_n_outside_the_list(self):
        diag = estimate_gamma(Gaussian(), Gaussian(1.0, 1.0), [1000], [0.5])
        with pytest.raises(InvalidSampleSizeError, match=re.escape("one of [1000], got 999")):
            diag.deviation_from(lambda s: s, 999)

    def test_identical_pair_is_zero(self):
        diag = estimate_gamma(
            Gaussian(), Gaussian(), [10**3, 10**4], np.arange(0.15, 1.0, 0.1)
        )
        assert np.allclose(diag.ratios, 0.0, atol=1e-12)
        assert diag.converged

    def test_laplace_location_pair_approaches_target(self):
        tau, r = 1.0, 0.5
        target = lambda s: s - abs(s - r)
        devs = []
        for n in (10**3, 10**4, 10**5, 10**6):
            q = GenGaussian(tau)
            g = Shifted(q, (r * math.log(n)) ** (1.0 / tau))
            s_lo = max(0.1, 1.0 / math.log2(n) + 1e-9)
            diag = estimate_gamma(q, g, [n], np.arange(s_lo, 2.0001, 0.05))
            devs.append(diag.deviation_from(target, n))
            # finite-n estimates approach the limit from below
            targets = np.array([target(s) for s in diag.s_grid])
            assert float(np.max(diag.ratios[0] - targets)) <= 1e-12
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] == pytest.approx(2 * math.log(2) / math.log(10**6), abs=1e-9)

    def test_gaussian_location_pair_approaches_substitution_target(self):
        r = 0.25
        target = lambda s: 2.0 * math.sqrt(r * s) - r
        devs = []
        for n in (10**3, 10**5):
            g = Gaussian(math.sqrt(2 * r * math.log(n)), 1.0)
            s_lo = max(0.1, 1.0 / math.log2(n) + 1e-9)
            diag = estimate_gamma(Gaussian(), g, [n], np.arange(s_lo, 2.0001, 0.05))
            devs.append(diag.deviation_from(target, n))
        assert devs[1] < devs[0]

    def test_family_diagnostic_and_convergence_flags(self):
        s_grid = np.arange(0.15, 2.0001, 0.05)
        # the alternative is rebuilt for every n from a callable
        alt = lambda n: family_mixture("gglocation", {"tau": 1.0}, 0.5, 0.5, n).second
        # the 1e3 -> 1e4 step is 2 ln 2 (1/ln 1e3 - 1/ln 1e4) = 0.0502 > 0.05,
        # deterministically flagged
        early = estimate_gamma(GenGaussian(1.0), alt, [10**3, 10**4], s_grid)
        assert any(f[0] == 10**3 and f[1] == 10**4 for f in early.flags)
        assert not early.converged
        # by 1e5 -> 1e6 the step has shrunk to 0.0201, below threshold
        late = estimate_gamma(GenGaussian(1.0), alt, [10**5, 10**6], s_grid)
        assert late.converged

    def test_s_grid_floor_enforced(self):
        with pytest.raises(InvalidParameterError):
            estimate_gamma(Gaussian(), Gaussian(1.0, 1.0), [10**3], [0.05, 0.5])

    def test_quantile_resolution_guard(self):
        with pytest.raises(InvalidParameterError):
            estimate_gamma(Gaussian(), Gaussian(1.0, 1.0), [10**6], [3.0])
