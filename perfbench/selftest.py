"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

pkg = workloads.import_package()
TINY_REPLICATES = 2


def test_self_time_is_span_minus_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        traced_leaf()
        traced_leaf()

    def root():
        time.sleep(0.001)
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "toy.leaf", "toy.leaf")
    traced_middle = tracer.wrap(middle, "toy.middle", "toy.middle")
    tracer.wrap(root, "toy.root", "toy.root")()

    root_s, middle_s, leaf_s = (tracer.span(f"toy.{n}") for n in ("root", "middle", "leaf"))
    assert (root_s.calls, middle_s.calls, leaf_s.calls) == (1, 1, 3)
    # leaf totals split 2:1 between middle and root; middle's share is
    # two of its three calls
    leaf_under_middle = middle_s.total_s - middle_s.self_s
    assert root_s.self_s == pytest.approx(
        root_s.total_s - middle_s.total_s - (leaf_s.total_s - leaf_under_middle), abs=1e-12
    )
    assert leaf_s.self_s == pytest.approx(leaf_s.total_s, abs=1e-12)
    total_self = root_s.self_s + middle_s.self_s + leaf_s.self_s
    assert total_self == pytest.approx(root_s.total_s, abs=1e-12)
    assert min(root_s.self_s, middle_s.self_s, leaf_s.self_s) > 0


def test_group_counts_only_outermost_calls():
    tracer = spans.Tracer()
    pkg_dists = pkg.dists
    with tracer.install(pkg):
        mix = pkg_dists.Mixture(pkg_dists.Gaussian(), pkg_dists.Gaussian(3.0, 1.0), 0.5)
        mix.sample(1000, pkg.rng.stream(1, 2))
    group = tracer.group("dists.sample")
    assert group.calls == 1 and group.values == 1000
    assert tracer.span("dists.sample.gaussian").calls == 2
    assert group.self_s == pytest.approx(
        tracer.span("dists.sample.mixture").total_s, rel=1e-9
    )


def _package_attributes():
    owners = [pkg] + [getattr(pkg, m) for m in spans.MODULES]
    owners += [c for c in vars(pkg.dists).values() if isinstance(c, type)]
    owners.append(pkg.boundary.ExponentFunction)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_install_and_remove_leave_the_package_unchanged():
    load = workloads.build(pkg, "sweep-large-n", 3, replicates=TINY_REPLICATES)
    before_csv = load.run(1).text
    before = _package_attributes()
    tracer = spans.Tracer().install(pkg)
    try:
        assert pkg.sim.hc_statistic is not before[(id(pkg.sim), "hc_statistic")]
        assert pkg.dists.Gaussian.sample is not before[(id(pkg.dists.Gaussian), "sample")]
        traced_csv = load.run(1).text
    finally:
        tracer.remove()
    after = _package_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert traced_csv == before_csv == load.run(1).text
    assert tracer.span("sim.run_cell").calls == 18


def test_corrupted_csv_row_counts_as_failed():
    load = workloads.build(pkg, "sweep-subbotin", 4, replicates=TINY_REPLICATES)
    out = load.run(1)
    assert load.check(out).failed == 0
    lines = out.text.splitlines(keepends=True)
    per_cell = 2 * TINY_REPLICATES
    corrupted = [
        lines[3].replace(",hc,", ",hc,x", 1),  # unparsable rate
        ",".join(lines[3].split(",")[:-2]) + "\n",  # dropped field
        "",  # missing row
    ]
    for bad in corrupted:
        text = "".join(lines[:3] + [bad] + lines[4:])
        check = load.check(workloads.PassOutput(text, out.ops))
        assert check.failed == per_cell, (bad, check.problems)


def test_wrong_error_rates_count_as_failed():
    load = workloads.build(pkg, "sweep-large-n", 5)
    out = load.run(2)
    assert load.check(out).failed == 0
    # a sampler that drew the alternative from the null would turn the
    # detectable cells' misses into ~all replicates
    rows = out.text.splitlines(keepends=True)
    target = next(i for i, r in enumerate(rows) if r.startswith("0.55,0.8,100000,lr,"))
    parts = rows[target].split(",")
    reps = load.replicates
    parts[5] = repr(1.0)
    parts[6] = repr(float(parts[4]) + 1.0)
    z95 = 1.959963984540054
    parts[7] = repr(
        workloads.wilson_interval(round(float(parts[4]) * reps), reps, z95)[1]
        + workloads.wilson_interval(reps, reps, z95)[1]
    )
    rows[target] = ",".join(parts)
    check = load.check(workloads.PassOutput("".join(rows), out.ops))
    assert check.failed == 2 * reps, check.problems


def test_boundary_off_by_1e_2_counts_as_failed():
    load = workloads.build(pkg, "boundary-curves", 6)
    out = load.run()
    assert load.check(out).failed == 0
    head, sep, rest = out.text.partition("idj,r=0.5,")
    value, comma, tail = rest.partition(",")
    shifted = head + sep + repr(float(value) + 1e-2) + comma + tail
    check = load.check(workloads.PassOutput(shifted, out.ops, 0, out.exit_codes))
    assert check.failed == 1, check.problems
    failed_exit = workloads.PassOutput(out.text, out.ops, 0, (0, 3) + out.exit_codes[2:])
    assert load.check(failed_exit).failed == 20  # the 20 rows of that curve


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_pass(name):
    load = workloads.build(pkg, name, 7, replicates=TINY_REPLICATES)
    runner = client.Runner(pkg, load)
    start = time.perf_counter()
    runner.run(client.WORKERS)
    tracer = spans.Tracer()
    runner.run(1, tracer)
    assert time.perf_counter() - start < 30
    assert runner.check.failed == 0, runner.check.problems
    assert runner.check.attempted == 2 * load.ops
    metrics = client.layer_metrics(tracer)
    assert metrics["cli.main.calls"] > 0 or metrics["sim.run_cell.calls"] > 0


def test_composite_pass_checks_every_part():
    load = workloads.build(pkg, "sweeps", 8, replicates=TINY_REPLICATES)
    out = load.run(client.WORKERS)
    assert [part.name for part in load.parts] == list(workloads.COMPOSITES["sweeps"])
    assert load.check(out).attempted == load.ops == sum(p.ops for p in out.parts)
    assert load.check(out).failed == 0
    # a corrupted row of the last part fails that part's cell only
    last = out.parts[-1]
    lines = last.text.splitlines(keepends=True)
    bad = workloads.PassOutput("".join(lines[:3] + lines[4:]), last.ops)
    corrupted = workloads.PassOutput(out.text, out.ops, 0, (), out.parts[:-1] + (bad,))
    assert load.check(corrupted).failed == 2 * TINY_REPLICATES


def test_run_without_package_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_metrics_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    timed_units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == timed_units
