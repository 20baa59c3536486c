"""CLI tests: exit codes, formats, determinism, round trips."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from sparse_detect import rng
from sparse_detect.boundary import _LADDER, boundary_closed_form
from sparse_detect.cli import _parse_int_list, main
from sparse_detect.dists import Gaussian
from sparse_detect.families import FAMILIES


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
        assert "r must be > 0" in err

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

    def test_maxtest(self, capsys, sample_file):
        path = sample_file([0.0] * 99 + [3.5])
        code, out, _ = run(capsys, "maxtest", "--input", path, "--u", "1.0")
        assert code == 0
        assert json.loads(out)["decision"] == "alternative"


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

    def test_simulate_rejects_format(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--family", "idj", "--beta-grid", "0.6", "--r-grid", "0.5",
            "--n-list", "64", "--replicates", "2", "--tests", "lr", "--seed", "1",
            "--format", "csv",
        )
        assert (code, out) == (2, "")


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
        assert set(manifest) == {"seed", "config_hash", "wall_time_s", "worker_count"}

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

    def test_bad_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "family": "idj", "beta_grid": [0.7], "r_grid": [0.4],
            "n_list": [8], "replicates": 5, "tests": ["hc"], "seed": 5,
        }))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 3


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

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "estimate-gamma", "--family", "idj", "--r", "0.25",
            "--n-list", "1000", "--s-grid", "0.2,0.5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
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

    def test_non_integral_n_list_exit_2(self, capsys):
        assert _parse_int_list("1e3,1e4") == (1000, 10000)
        code, _, err = run(
            capsys, "simulate", "--family", "idj", "--seed", "1", "--n-list", "1000.7"
        )
        assert code == 2
        assert "non-integral" in err


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
