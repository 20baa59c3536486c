"""CLI tests: exit codes, formats, determinism, round trips."""

import json
import os
import re
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from sparse_detect import rng
from sparse_detect.boundary import _LADDER, AdmissibilityReport, boundary_closed_form
from sparse_detect.cli import _parse_grid, _parse_int_list, main
from sparse_detect.dists import Gaussian
from sparse_detect.families import FAMILIES
from sparse_detect.sim import ExperimentConfig, GammaDiagnostic, PhaseTable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def sample_file(tmp_path):
    def write(values, name="sample.csv", header=None):
        path = tmp_path / name
        lines = ([header] if header else []) + [repr(float(v)) for v in values]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


class TestBoundaryCommand:
    def test_classical_point(self, capsys):
        code, out, _ = run(capsys, "boundary", "--family", "idj", "--r", "0.25")
        assert code == 0
        assert out.strip() == "0.75"

    def test_r_of_beta(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--family", "idj", "--beta", "0.75", "--mode", "r-of-beta"
        )
        assert code == 0
        assert float(out) == pytest.approx(0.25, abs=1e-12)

    def test_out_of_range_exit_3(self, capsys):
        code, _, err = run(capsys, "boundary", "--family", "idj", "--r", "-1")
        assert code == 3
        assert "r must be >= 0" in err

    def test_r_of_beta_without_an_inverse_exit_3(self, capsys):
        code, _, err = run(
            capsys, "boundary", "--family", "dilate", "--mode", "r-of-beta", "--beta", "0.7"
        )
        assert code == 3
        assert "r-of-beta" in err

    def test_r_of_beta_requires_beta(self, capsys):
        code, _, err = run(
            capsys, "boundary", "--family", "dilate", "--mode", "r-of-beta", "--linf", "0.5"
        )
        assert code == 2
        assert "--beta" in err

    def test_missing_parameter_exit_2(self, capsys):
        code, _, err = run(capsys, "boundary", "--family", "hetero", "--r", "0.1")
        assert code == 2
        assert "sigma2" in err

    def test_json_round_trip_identical_bits(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--family", "ggconv", "--tau", "1", "--r", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        again = boundary_closed_form(
            payload["family"], mode=payload["mode"], tau=payload["tau"], r=payload["r"]
        )
        assert again == payload["value"]  # bit-identical

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--family", "idj", "--r-grid", "0.1:0.3:0.1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,params,beta_star,maximizer,method"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "idj" and first[1] == "r=0.1"
        assert float(first[2]) == pytest.approx(0.6, abs=1e-3)

    def test_ggconv_sweep_admits_tau_2(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--family", "ggconv", "--tau", "2",
            "--r-grid", "2,4", "--format", "csv",
        )
        assert code == 0
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        assert [row[1] for row in rows] == ["r=2;tau=2", "r=4;tau=2"]
        assert float(rows[1][2]) == pytest.approx(0.8, abs=1e-9)  # r / (1 + r)

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--mode", "r-of-beta"]])
    def test_sweep_refuses_what_it_cannot_print_exit_2(self, capsys, flag):
        code, out, err = run(
            capsys, "boundary", "--family", "idj", "--r-grid", "0.1,0.2", "--beta", "0.7", *flag
        )
        assert (code, out) == (2, "")
        assert f"--r-grid prints a beta-of-r CSV table; it does not take {' '.join(flag)}" in err

    def test_closed_form_csv_header_is_the_json_keys(self, capsys):
        argv = ["boundary", "--family", "hetero", "--sigma2", "0.5", "--r", "0.3", "--format"]
        _, out, _ = run(capsys, *argv, "csv")
        header, row = out.strip().split("\n")
        _, out, _ = run(capsys, *argv, "json")
        payload = json.loads(out)
        assert header.split(",") == list(payload)
        assert row == "hetero,beta-of-r,0.5,0.3," + format(payload["value"], ".12g")

    def test_family_without_boundary_exit_3(self, capsys):
        code, _, err = run(capsys, "boundary", "--family", "custom", "--r", "0.5")
        assert code == 3
        assert "no detection boundary" in err

    def test_gglocation_sweep_uses_s_axis(self, capsys):
        code, out, _ = run(
            capsys, "boundary", "--family", "gglocation", "--tau", "1",
            "--r-grid", "0.5,0.6", "--format", "csv",
        )
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert float(rows[0].split(",")[2]) == pytest.approx(0.75, abs=1e-6)

    @pytest.mark.parametrize(
        "family, shape", [("idj", []), ("gglocation", ["--tau", "0.7"]),
                          ("gglocation", ["--tau", "1.5"])],
    )
    def test_sweep_from_r_zero_reads_the_closed_form(self, capsys, family, shape):
        argv = ["boundary", "--family", family, *shape]
        code, out, err = run(capsys, *argv, "--r-grid", "0:0.1:0.05")
        assert code == 0, err
        first = out.strip().split("\n")[1].split(",")
        _, closed, _ = run(capsys, *argv, "--r", "0")
        assert first[2] == closed.strip() == "0.5"


class TestExponentCommand:
    def test_value(self, capsys):
        code, out, _ = run(
            capsys, "exponent", "--family", "idj", "--r", "0.25", "--beta", "0.6"
        )
        assert code == 0
        assert float(out) == pytest.approx(-0.7225, abs=1e-6)


class TestCheckAlphaCommand:
    def test_family_admissible(self, capsys):
        code, out, _ = run(capsys, "check-alpha", "--family", "idj", "--r", "0.25")
        assert code == 0
        assert out.strip() == "admissible"

    def test_grid_csv_with_violation(self, capsys, tmp_path):
        path = tmp_path / "alpha.csv"
        us = np.linspace(-3, 3, 301)
        rows = ["u,value"] + [f"{float(u)!r},{float(u * u + 0.1)!r}" for u in us]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(capsys, "check-alpha", "--input", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [f.name for f in fields(AdmissibilityReport)]
        assert payload["admissible"] is False
        assert payload["violations"]

    @pytest.mark.parametrize(
        "family, value, shape",
        [("idj", 0.3, {}), ("hetero", 0.3, {"sigma2": 0.5}), ("dilate", 0.7, {}),
         ("ggconv", 1.0, {"tau": 1.5})],
        ids=["idj", "hetero", "dilate", "ggconv"],
    )
    def test_ladder_values_match_scipy_logsumexp(self, capsys, family, value, shape):
        # the ladder as scipy's logsumexp gives it, one call per rung, bit for bit
        fam = FAMILIES[family]
        xs, vals = fam.alpha(value, shape).grid()
        margin = vals - xs * xs
        dx = np.diff(xs)
        log_w = np.log(np.concatenate([[0.0], 0.5 * dx]) + np.concatenate([0.5 * dx, [0.0]]))
        want = [float(logsumexp(m * margin + log_w)) / m for m in _LADDER]
        argv = [f"--{fam.swept}", repr(value)]
        for name, v in shape.items():
            argv += [f"--{name}", repr(v)]
        code, out, _ = run(capsys, "check-alpha", "--family", family, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out)["ladder_values"]) == json.dumps(want)

    @pytest.mark.parametrize("row", ["abc,1", "0.5"])
    def test_malformed_row_exit_3(self, capsys, tmp_path, row):
        path = tmp_path / "alpha.csv"
        path.write_text(f"u,value\n0.0,0.0\n{row}\n")
        code, _, err = run(capsys, "check-alpha", "--input", str(path))
        assert code == 3
        assert f"{path}:3:" in err


class TestSampleCommands:
    def test_hc_json_fields(self, capsys, sample_file):
        ys = Gaussian().sample(100, rng.stream(3, 1))
        path = sample_file(ys)
        code, out, _ = run(capsys, "hc", "--input", path, "--null", "gaussian")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"statistic", "arg_t", "threshold", "decision", "n", "delta"}
        assert payload["n"] == 100

    def test_hc_small_sample_exit_3(self, capsys, sample_file):
        path = sample_file(range(15))
        code, _, err = run(capsys, "hc", "--input", path, "--null", "gaussian")
        assert code == 3
        assert "16" in err

    def test_hc_header_tolerated(self, capsys, sample_file):
        ys = Gaussian().sample(50, rng.stream(3, 2))
        path = sample_file(ys, header="value")
        code, out, _ = run(capsys, "hc", "--input", path)
        assert code == 0
        assert json.loads(out)["n"] == 50

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sample_exit_3(self, capsys, sample_file, bad):
        path = sample_file([0.5] * 20 + [bad] + [1.0] * 20, header="value")
        code, out, err = run(capsys, "hc", "--input", path)
        assert (code, out) == (3, "")
        assert f"{path}:22: {str(bad)!r} is not a finite number" in err

    def test_missing_file_exit_4(self, capsys):
        code, _, err = run(capsys, "hc", "--input", "/nonexistent/sample.csv")
        assert code == 4

    def test_lr_family_route(self, capsys, sample_file):
        ys = Gaussian().sample(200, rng.stream(4, 1))
        path = sample_file(ys)
        code, out, _ = run(
            capsys, "lr", "--input", path, "--family", "idj", "--r", "0.5", "--beta", "0.6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] in ("null", "alternative")

    def test_lr_unsimulatable_family_exit_3(self, capsys, sample_file):
        path = sample_file([0.0, 1.0])
        code, _, err = run(
            capsys, "lr", "--input", path, "--family", "dilate", "--r", "0.5",
            "--beta", "0.6",
        )
        assert code == 3
        assert "not simulatable" in err

    def test_lr_explicit_mixture(self, capsys, sample_file):
        path = sample_file([1.0])
        null = '{"kind":"finite_discrete","atoms":[[0,0.5],[1,0.5]]}'
        alt = '{"kind":"finite_discrete","atoms":[[1,1.0]]}'
        code, out, _ = run(
            capsys, "lr", "--input", path, "--null", null, "--alt", alt,
            "--epsilon", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "alternative"
        assert payload["log_lr"] == pytest.approx(np.log(1.5))

    def test_lr_epsilon_out_of_range_exit_3(self, capsys, sample_file):
        path = sample_file([0.0, 1.0])
        code, out, err = run(
            capsys, "lr", "--input", path, "--null", "gaussian",
            "--alt", '{"kind":"gaussian","mean":3}', "--epsilon", "1.5",
        )
        assert (code, out) == (3, "")
        assert "epsilon must lie in [0, 1], got 1.5" in err

    def test_maxtest(self, capsys, sample_file):
        path = sample_file([0.0] * 99 + [3.5])
        code, out, _ = run(capsys, "maxtest", "--input", path, "--u", "1.0")
        assert code == 0
        assert json.loads(out)["decision"] == "alternative"

    @pytest.mark.parametrize("u", ["nan", "inf", "-1", "0"])
    def test_maxtest_u_exit_3(self, capsys, sample_file, u):
        path = sample_file([0.0] * 99 + [3.5])
        code, out, err = run(capsys, "maxtest", "--input", path, "--u", u)
        assert (code, out) == (3, "")
        assert "u must be > 0 and finite" in err


class TestDistributionSpecs:
    @pytest.mark.parametrize(
        "null, code, words",
        [
            ('{"kind":"gen_gaussian"}', 3, "needs field 'tau'"),
            ('{"kind":"gaussian","sd":"abc"}', 3, "gaussian field 'sd'"),
            ('{"kind":"gaussian","sd":1e400}', 3, "sd must be finite"),
            ('{"kind":"gaussian","sdd":2}', 3, "unknown field sdd"),
            ('{"kind":"sparse_mixture"}', 3, "not a spec"),
            ("{bad", 2, "not valid JSON"),
            ("gen_gaussian:abc", 2, "non-numeric"),
        ],
    )
    def test_malformed_null_exit_code(self, capsys, sample_file, null, code, words):
        path = sample_file(Gaussian().sample(50, rng.stream(3, 3)))
        got, out, err = run(capsys, "hc", "--input", path, "--null", null)
        assert (got, out) == (code, "")
        assert words in err

    def test_malformed_custom_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "custom", "beta_grid": [0.7], "r_grid": [0.4], "n_list": [100],
            "replicates": 5, "tests": ["lr"], "seed": 5,
            "family_params": {"null": {"kind": "gen_gaussian"}, "alt": {"kind": "gaussian"}},
        }))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (3, "")
        assert "needs field 'tau'" in err

    @pytest.mark.parametrize("field, value", [("mean", True), ("sd", "2")])
    def test_custom_config_spec_number_must_be_a_number_exit_3(
        self, capsys, tmp_path, field, value
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "custom", "beta_grid": [0.7], "r_grid": [0.4], "n_list": [100],
            "replicates": 5, "tests": ["lr"], "seed": 5,
            "family_params": {
                "null": {"kind": "gaussian"}, "alt": {"kind": "gaussian", field: value},
            },
        }))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (3, "")
        assert f"gaussian field {field!r} cannot be read from {value!r}" in err


class TestFormatOption:
    @pytest.mark.parametrize(
        "command",
        [["hc"], ["lr", "--family", "idj", "--r", "0.5", "--beta", "0.6"], ["maxtest"]],
    )
    def test_sample_commands_reject_format(self, capsys, sample_file, command):
        path = sample_file(Gaussian().sample(50, rng.stream(3, 4)))
        code, out, err = run(capsys, *command, "--input", path, "--format", "json")
        assert (code, out) == (2, "")
        assert "--format" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["exponent", "--family", "idj", "--r", "0.25", "--beta", "0.6"],
            ["check-alpha", "--family", "idj", "--r", "0.25"],
            ["estimate-gamma", "--family", "idj", "--r", "0.25", "--n-list", "1000",
             "--s-grid", "0.5"],
        ],
        ids=lambda command: command[0],
    )
    def test_commands_without_csv_reject_it(self, capsys, command):
        code, out, err = run(capsys, *command, "--format", "csv")
        assert (code, out) == (2, "")
        assert "argument --format: invalid choice: 'csv'" in err

    def test_simulate_rejects_format(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "idj", "--beta-grid", "0.6", "--r-grid", "0.5",
            "--n-list", "64", "--replicates", "2", "--tests", "lr", "--seed", "1",
            "--format", "csv",
        )
        assert (code, out) == (2, "")


FAMILY_FLAGS = ("r", "sigma2", "tau", "linf", "beta")
FLAG_VALUES = {"r": "0.5", "sigma2": "0.5", "tau": "1.5", "linf": "0.5", "beta": "0.75"}


def _family_calls():
    """(label, argv, flags it reads) of each family command on each family with a boundary."""
    for name, family in FAMILIES.items():
        if family.exponent is None:
            continue
        shape = list(family.shape)
        yield "boundary", ["boundary", "--family", name], [*shape, family.swept]
        yield "r-of-beta", ["boundary", "--family", name, "--mode", "r-of-beta"], [*shape, "beta"]
        yield "r-grid", ["boundary", "--family", name, "--r-grid", "0.5,1"], shape
        yield "exponent", ["exponent", "--family", name], [*shape, family.swept, "beta"]
        yield "check-alpha", ["check-alpha", "--family", name], [*shape, family.swept]
        yield "lr", ["lr", "--input", "{sample}", "--family", name], [*shape, "r", "beta"]
        yield "estimate-gamma", [
            "estimate-gamma", "--family", name, "--n-list", "1000", "--s-grid", "0.5"
        ], [*shape, "r"]


STRAY_FLAGS = [
    pytest.param(
        [*argv, *(a for name in read for a in (f"--{name}", FLAG_VALUES[name]))], flag,
        id=f"{label} {argv[argv.index('--family') + 1]} --{flag}",
    )
    for label, argv, read in _family_calls()
    for flag in FAMILY_FLAGS if flag not in read
]


class TestFamilyFlags:
    """A family command reads its row's shape flags and its own; it refuses other family flags."""

    def test_every_unread_flag_is_probed(self):
        # 5 families, 7 calls each, times the flags a call does not read
        assert len(STRAY_FLAGS) == 114

    @pytest.mark.parametrize("argv, flag", STRAY_FLAGS)
    def test_unread_flag_exit_2(self, capsys, sample_file, argv, flag):
        path = sample_file(Gaussian().sample(50, rng.stream(3, 5)))
        argv = [path if a == "{sample}" else a for a in argv]
        code, out, err = run(capsys, *argv, f"--{flag}", FLAG_VALUES[flag])
        assert (code, out) == (2, "")
        assert f"{argv[0]} does not read --{flag} here; it reads " in err

    def test_missing_flag_is_named_before_a_stray_one(self, capsys):
        code, out, err = run(capsys, "boundary", "--family", "hetero", "--r", "0.3", "--tau", "2")
        assert (code, out) == (2, "")
        assert "boundary --family hetero requires --sigma2" in err

    @pytest.mark.parametrize(
        "argv, reads",
        [
            (["check-alpha", "--input", "{sample}", "--r", "0.3"], "no family flag"),
            (["lr", "--input", "{sample}", "--null", "gaussian", "--alt", "gaussian",
              "--epsilon", "0.1", "--beta", "0.6"], "no family flag"),
            (["estimate-gamma", "--null", "gaussian", "--alt", '{"kind":"gaussian","mean":1}',
              "--n-list", "1000", "--s-grid", "0.5", "--tau", "2"], "no family flag"),
            (["boundary", "--family", "hetero", "--sigma2", "2", "--r-grid", "0.1",
              "--r", "0.3"], "--sigma2"),
        ],
        ids=["check-alpha-input", "lr-explicit", "estimate-gamma-explicit", "boundary-sweep"],
    )
    def test_routes_without_the_flag_name_what_they_read(self, capsys, sample_file, argv, reads):
        path = sample_file([0.5, 1.0])
        code, out, err = run(capsys, *[path if a == "{sample}" else a for a in argv])
        assert (code, out) == (2, "")
        assert f"here; it reads {reads}\n" in err

    def test_simulate_refuses_an_undeclared_shape_flag_exit_3(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--family", "idj", "--tau", "2", "--beta-grid", "0.6",
            "--r-grid", "0.5", "--n-list", "64", "--replicates", "2", "--tests", "lr",
            "--seed", "1",
        )
        assert (code, out) == (3, "")
        assert "family 'idj' does not take parameter tau" in err


class TestCompetingInputs:
    """A command given two sources of the same input refuses both (exit 2)."""

    def test_check_alpha_input_and_family(self, capsys, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("u,value\n0.0,0.0\n1.0,0.5\n")
        code, out, err = run(
            capsys, "check-alpha", "--input", str(path), "--family", "idj", "--r", "0.25"
        )
        assert (code, out) == (2, "")
        assert "check-alpha takes either --family or --input" in err

    @pytest.mark.parametrize(
        "extra", [["--null", "gaussian"], ["--alt", "gaussian"], ["--epsilon", "0.1"]],
        ids=lambda extra: extra[0],
    )
    def test_lr_family_and_explicit_mixture(self, capsys, sample_file, extra):
        path = sample_file(Gaussian().sample(50, rng.stream(3, 6)))
        code, out, err = run(
            capsys, "lr", "--input", path, "--family", "idj", "--r", "0.5", "--beta", "0.6",
            *extra,
        )
        assert (code, out) == (2, "")
        assert "lr takes either --family --r --beta or --null --alt --epsilon" in err

    @pytest.mark.parametrize(
        "extra", [["--null", "gaussian"], ["--alt", "gaussian"]], ids=lambda extra: extra[0]
    )
    def test_estimate_gamma_family_and_explicit_pair(self, capsys, extra):
        code, out, err = run(
            capsys, "estimate-gamma", "--family", "idj", "--r", "0.25", "--n-list", "1000",
            "--s-grid", "0.5", *extra,
        )
        assert (code, out) == (2, "")
        assert "estimate-gamma takes either --family --r or --null --alt" in err


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--family", "idj", "--r-grid", "inf"],
            ["boundary", "--family", "idj", "--r", "inf"],
            ["exponent", "--family", "idj", "--r", "inf", "--beta", "0.6"],
            ["check-alpha", "--family", "hetero", "--r", "0.5", "--sigma2", "nan"],
            [
                "simulate", "--family", "idj", "--beta-grid", "0.6", "--r-grid", "inf",
                "--n-list", "64", "--replicates", "2", "--tests", "lr", "--seed", "1",
            ],
            [
                "simulate", "--family", "idj", "--beta-grid", "0.6", "--r-grid", "0.4",
                "--n-list", "64", "--replicates", "2", "--tests", "hc", "--seed", "1",
                "--delta", "nan",
            ],
        ],
    )
    def test_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "finite" in err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_hc_delta_exit_3(self, capsys, sample_file, delta):
        path = sample_file(Gaussian().sample(50, rng.stream(3, 2)))
        code, out, err = run(capsys, "hc", "--input", path, "--delta", delta)
        assert (code, out) == (3, "")
        assert "delta must be > 0 and finite" in err


class TestSimulateCommand:
    def test_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--family", "idj", "--beta-grid", "0.6",
            "--r-grid", "0.5", "--n-list", "64", "--replicates", "5", "--tests", "lr",
        )
        assert code == 2
        assert "seed" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = [
            "simulate", "--family", "idj", "--beta-grid", "0.6,0.9",
            "--r-grid", "0.5", "--n-list", "64", "--replicates", "20",
            "--tests", "hc,lr,max", "--seed", "77",
        ]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(argv + ["--output", str(out_a)]) == 0
        assert main(argv + ["--output", str(out_b), "--workers", "4"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert set(manifest) == {
            "seed", "config_hash", "wall_time_s", "worker_count",
            "sparse_detect_version", "numpy_version", "scipy_version",
        }

    def test_config_file_with_inline_override(self, capsys, tmp_path):
        cfg = {
            "family": "idj",
            "beta_grid": [0.7],
            "r_grid": [0.4],
            "n_list": [32],
            "replicates": 5,
            "tests": ["lr"],
            "seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "simulate", "--config", str(cfg_path), "--replicates", "7"
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[8] == "7"  # replicates column reflects the inline override

    def test_missing_family_param_exit_3(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--family", "hetero", "--beta-grid", "0.6",
            "--r-grid", "0.5", "--n-list", "64", "--replicates", "5", "--tests", "lr",
            "--seed", "1",
        )
        assert code == 3
        assert "sigma2" in err

    def test_negative_r_exit_3(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--family", "gglocation", "--tau", "2",
            "--beta-grid", "0.6", "--r-grid", "-0.5", "--n-list", "1000",
            "--replicates", "2", "--tests", "lr", "--seed", "1",
        )
        assert code == 3
        assert "r must be >= 0" in err and out == ""

    @pytest.mark.parametrize(
        "beta_grid, r_grid, words",
        [
            ("[1e400]", "[0.4]", "beta must be >= 0 and finite"),
            ("[-0.5]", "[0.4]", "beta must be >= 0 and finite"),
            ('["abc"]', "[0.4]", "beta must be a number"),
            ("[0.7]", '["abc"]', "r must be a number"),
        ],
    )
    def test_bad_config_grid_exit_3(self, capsys, tmp_path, beta_grid, r_grid, words):
        # raw JSON text: 1e400 reads as inf
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            f'{{"family": "idj", "beta_grid": {beta_grid}, "r_grid": {r_grid}, '
            '"n_list": [100], "replicates": 5, "tests": ["lr"], "seed": 5}'
        )
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (3, "")
        assert words in err

    @pytest.mark.parametrize(
        "field, value, words",
        [
            ("replicates", 2.7, "replicates must be an integer, got 2.7"),
            ("seed", 1.9, "seed must be an integer, got 1.9"),
            ("delta", "abc", "delta must be > 0 and finite, got 'abc'"),
            ("n_list", ["abc"], "every n must be an integer, got 'abc'"),
            ("n_list", [None], "every n must be an integer, got None"),
            ("n_list", [True], "every n must be an integer, got True"),
            ("beta_grid", 0.5, "beta_grid must be a list, got 0.5"),
            ("beta_grid", [True], "every beta must be a number, got True"),
            ("delta", True, "delta must be > 0 and finite, got True"),
            ("family", [], "family [] is not simulatable"),
            ("family", {}, "family {} is not simulatable"),
            ("seed", -1, f"seed must lie in [0, {2**64 - 1}], got -1"),
            ("seed", 2**64, f"seed must lie in [0, {2**64 - 1}], got {2**64}"),
        ],
    )
    def test_malformed_config_scalar_exit_3(self, capsys, tmp_path, field, value, words):
        data = {
            "family": "idj", "beta_grid": [0.7], "r_grid": [0.4],
            "n_list": [100], "replicates": 5, "tests": ["lr"], "seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(data, **{field: value})))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (3, "")
        assert words in err

    @pytest.mark.parametrize(
        "text, words",
        [
            (
                '{"family": "idj", "beta_grid": [0.5], "n_list": [100], "replicates": 5,'
                ' "tests": ["lr"], "seed": 5}',
                "config is missing 'r_grid'",
            ),
            ('[{"family": "idj", "seed": 5}]', "must hold a JSON object, got list"),
            ('{"family": "idj", "seed": 5', "is not valid JSON"),
        ],
        ids=["missing-key", "top-level-list", "invalid-json"],
    )
    def test_malformed_config_file_exit_3(self, capsys, tmp_path, text, words):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (3, "")
        assert words in err and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run(
            capsys, "simulate", "--family", "idj", "--beta-grid", "0.6", "--r-grid", "0.5",
            "--n-list", "64", "--replicates", "2", "--tests", "lr", "--seed", "1",
            "--workers", workers,
        )
        assert (code, out) == (2, "")
        assert f"--workers must be >= 1, got {workers}" in err

    @pytest.mark.parametrize(
        "affinity, cpu_count, want",
        [({5}, 8, 1), ({0, 1}, 1, 2), (None, 2, 2), (None, None, 1)],
        ids=["one-pinned-cpu", "two-pinned-cpus", "no-affinity", "cpu-count-unknown"],
    )
    def test_default_workers_are_usable_cpus(
        self, capsys, monkeypatch, affinity, cpu_count, want
    ):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity))
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        code, _, err = run(
            capsys, "simulate", "--family", "idj", "--beta-grid", "0.6,0.9",
            "--r-grid", "0.5", "--n-list", "64", "--replicates", "4", "--tests", "lr,max",
            "--seed", "1",
        )
        assert code == 0
        assert json.loads(err.strip().splitlines()[-1])["worker_count"] == want

    def test_bad_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "idj", "beta_grid": [0.7], "r_grid": [0.4],
            "n_list": [8], "replicates": 5, "tests": ["hc"], "seed": 5,
        }))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 3

    def test_repeated_grid_value_exit_3(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--family", "idj", "--beta-grid", "0.6,0.6", "--r-grid", "0.5",
            "--n-list", "64,64", "--replicates", "2", "--tests", "max", "--seed", "1",
        )
        assert (code, out) == (3, "")
        assert "beta_grid repeats 0.6" in err

    def test_unknown_config_key_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "idj", "beta_grid": [0.7], "r_grid": [0.4], "n_list": [64],
            "replicates": 2, "tests": ["max"], "seed": 5, "detla": 0.3,
        }))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert (code, out) == (3, "")
        assert "config has unknown key 'detla'" in err


class TestEstimateGammaCommand:
    def test_family_csv(self, capsys):
        code, out, _ = run(
            capsys, "estimate-gamma", "--family", "gglocation", "--tau", "1",
            "--r", "0.5", "--n-list", "1000,10000", "--s-grid", "0.2:1.0:0.2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,s,ratio"
        assert len(lines) == 1 + 2 * 5

    def test_unsimulatable_family_exit_3(self, capsys):
        code, _, err = run(
            capsys, "estimate-gamma", "--family", "dilate", "--r", "0.5",
            "--n-list", "1000", "--s-grid", "0.2",
        )
        assert code == 3
        assert "not simulatable" in err

    def test_negative_r_exit_3(self, capsys):
        code, out, err = run(
            capsys, "estimate-gamma", "--family", "gglocation", "--tau", "2",
            "--r", "-0.5", "--n-list", "1000", "--s-grid", "0.2,0.5",
        )
        assert code == 3
        assert "r must be >= 0" in err and out == ""

    def test_nan_s_grid_named_exit_3(self, capsys):
        code, out, err = run(
            capsys, "estimate-gamma", "--family", "idj", "--r", "0.25",
            "--n-list", "1000", "--s-grid", "nan",
        )
        assert (code, out) == (3, "")
        assert "every s in s_grid must be finite, got nan" in err

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "estimate-gamma", "--family", "idj", "--r", "0.25",
            "--n-list", "1000", "--s-grid", "0.2,0.5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [f.name for f in fields(GammaDiagnostic)]
        assert payload["n_list"] == [1000]
        assert len(payload["ratios"][0]) == 2


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--family", "idj", "--r-grid", "0.1,x"],
            ["boundary", "--family", "idj", "--r-grid", "0:1:a"],
            ["simulate", "--family", "idj", "--seed", "1", "--n-list", "1e3,x"],
        ],
    )
    def test_non_numeric_grid_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "non-numeric" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--family", "idj", "--r-grid", "0.1:inf:0.1"],
            [
                "estimate-gamma", "--family", "idj", "--r", "0.25",
                "--n-list", "1000", "--s-grid", "0.2:0.4:nan",
            ],
            ["simulate", "--family", "idj", "--seed", "1", "--beta-grid", "0.6:inf:0.1"],
        ],
    )
    def test_non_finite_grid_bounds_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "grid",
        [
            "--r-grid=0:1:1e-300",  # 1e300 steps
            "--r-grid=-1e308:1e308:1",  # hi - lo overflows to inf
            "--r-grid=0:1000001:1",
        ],
    )
    def test_grid_of_too_many_steps_exit_2(self, capsys, grid):
        code, out, err = run(capsys, "boundary", "--family", "idj", grid)
        assert (code, out) == (2, "")
        assert "has more than 1000000 steps" in err

    def test_grid_of_the_most_steps_parses(self):
        assert len(_parse_grid("0:1000000:1")) == 10**6 + 1

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("boundary", "--r-grid"),
            ("simulate", "--beta-grid"),
            ("simulate", "--r-grid"),
            ("simulate", "--n-list"),
            ("estimate-gamma", "--n-list"),
            ("estimate-gamma", "--s-grid"),
        ],
    )
    def test_grid_flags_report_through_argparse(self, capsys, command, flag):
        code, out, err = run(capsys, command, "--family", "idj", flag, "0:1:a")
        assert (code, out) == (2, "")
        assert f"sparse-detect {command}: error: argument {flag}: '0:1:a' holds" in err

    def test_non_integral_n_list_exit_2(self, capsys):
        assert _parse_int_list("1e3,1e4") == (1000, 10000)
        code, _, err = run(
            capsys, "simulate", "--family", "idj", "--seed", "1", "--n-list", "1000.7"
        )
        assert code == 2
        assert "non-integral" in err


class TestRepeatedMain:
    """Calls of main in one process leave no trace in the next."""

    CALLS = [
        ["boundary", "--family", "idj", "--r-grid", "0.1,0.5,0.9", "--format", "csv"],
        ["simulate", "--family", "idj", "--beta-grid", "0.6", "--r-grid", "0.5",
         "--n-list", "200", "--replicates", "4", "--tests", "hc,max", "--seed", "3",
         "--workers", "1"],
        ["hc", "--input", "{sample}", "--delta", "0.2"],
    ]
    # usage errors from argparse and from a flag's value, then help pages
    BETWEEN = [
        (["boundary", "--family", "idj", "--r-grid", "0.1,x"], 2),
        (["hc", "--delta", "0.3"], 2),
        (["simulate", "--family", "idj", "--n-list", "64"], 2),
        (["--help"], 0),
        (["boundary", "--help"], 0),
    ]

    def test_repeated_calls_print_what_the_first_printed(self, capsys, sample_file):
        path = sample_file(Gaussian().sample(100, rng.stream(5, 0)))
        calls = [[arg.format(sample=path) for arg in argv] for argv in self.CALLS]
        first = [run(capsys, *argv)[:2] for argv in calls]
        assert [code for code, _ in first] == [0, 0, 0]
        assert all(out for _, out in first)
        assert [run(capsys, *argv)[:2] for argv in calls] == first
        for argv, code in self.BETWEEN:
            assert run(capsys, *argv)[0] == code, argv
            assert [run(capsys, *argv)[:2] for argv in calls] == first, argv


def _readme_commands():
    """README command-line lines that run a family through boundary, exponent or check-alpha."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    pattern = re.compile(r"^sparse-detect (boundary|exponent|check-alpha) --family ")
    commands = []
    for line in readme.read_text().splitlines():
        if pattern.match(line):
            command, _, value = line.partition("#")
            commands.append((command.strip(), value.strip()))
    return commands


README_COMMANDS = _readme_commands()


def test_readme_lists_family_commands():
    assert len(README_COMMANDS) >= 6
    assert sum(1 for _, value in README_COMMANDS if value) >= 2


@pytest.mark.parametrize("command, value", README_COMMANDS, ids=[c for c, _ in README_COMMANDS])
def test_readme_command_runs(capsys, command, value):
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    if value:
        assert out.strip() == value


def test_readme_output_columns_are_the_csv_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Output files", 1)[1]
    columns = re.search(r"`(beta,r,\S*)`", section).group(1)
    assert columns == PhaseTable.CSV_HEADER


def test_readme_config_example_is_the_config_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Simulation configuration", 1)[1]
    data = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert set(data) == {f.name for f in fields(ExperimentConfig)}
    assert ExperimentConfig.from_dict(data).to_dict() == data


def test_readme_quick_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick tour", 1)[1]
    tour = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md quick tour", "exec"), {})
    assert capsys.readouterr().out.startswith(PhaseTable.CSV_HEADER + "\n")
