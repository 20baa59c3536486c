"""One benchmark client: a fresh interpreter that builds and runs a workload.

    python3 perfbench/client.py --workload NAME --seed N --mode MODE [--seconds S]

Modes:

* ``setup``: import the package, build the workload, print ``READY``, exit.
* ``timed``: after ``READY``, a warm-up pass at two replicates, then
  untraced passes with workers=2 for S seconds, then one traced pass
  with workers=1.
* ``traced``: after ``READY``, the warm-up pass, one untraced pass at
  workers=2 and one at workers=1, then one traced pass at workers=1.

Every pass is checked, and every pass's output must equal the first
full pass's output byte for byte.  The last stdout line is a JSON summary
that perfbench/run.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tracemalloc
from time import perf_counter

import spans
import workloads

WORKERS = workloads.WORKERS
SAMPLE_KINDS = ("gaussian", "gen_gaussian", "shifted", "mixture")
SPAN_METRICS = (
    "rng.stream",
    "hctest.hc_statistic",
    "hctest.lr_test",
    "hctest.max_test",
    "sim.run_cell",
    "sim.family_mixture",
    "boundary.grid",
    "boundary.evaluate",
    "boundary.check_admissible",
    "boundary.laplace_log_integral",
    "boundary.ess_sup_grid",
    "boundary.beta_sharp",
    "boundary.hc_achievable_boundary",
    "boundary.hellinger_exponent",
    "boundary.boundary_closed_form",
    "divergence.hellinger_sq",
    "divergence.total_variation",
    "cli.main",
)
PEAK_BYTES_N = 100_000


def cpu_seconds() -> float:
    """User + system time of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_kb() -> dict:
    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


class Runner:
    """Runs passes of one workload and checks each against the first."""

    def __init__(self, pkg, load):
        self.pkg = pkg
        self.load = load
        self.check = workloads.Check()
        self.first = None

    def run(self, workers: int, tracer=None) -> tuple[float, float, workloads.PassOutput]:
        cpu0 = cpu_seconds()
        start = perf_counter()
        if tracer is None:
            out = self.load.run(workers)
        else:
            with tracer.install(self.pkg):
                out = self.load.run(workers)
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu0
        result = self.load.check(out)
        if self.first is None:
            self.first = out.text
        elif out.text != self.first:
            result.failed = result.attempted
            result.problems.append(
                f"output of a workers={workers}{' traced' if tracer else ''} pass "
                "differs from the first workers=2 pass"
            )
        self.check.add(result)
        return wall, cpu, out

    def warm_up(self, seed: int) -> None:
        """One checked pass at two replicates: lazy imports, first-call set-up."""
        tiny = workloads.build(self.pkg, self.load.name, seed, replicates=2)
        self.check.add(tiny.check(tiny.run(WORKERS)))

    def summary(self) -> dict:
        return {
            "attempted": self.check.attempted,
            "failed": self.check.failed,
            "problems": self.check.problems,
            "ops_per_pass": self.load.ops,
        }


def timed(pkg, load, seed: int, seconds: float) -> dict:
    runner = Runner(pkg, load)
    runner.warm_up(seed)
    walls, cpus = [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall, cpu, _ = runner.run(WORKERS)
        walls.append(wall)
        cpus.append(cpu)
    rss = peak_rss_kb()
    runner.run(1, spans.Tracer())
    return dict(runner.summary(), wall_s=walls, cpu_s=cpus, peak_rss_kb=rss)


def traced(pkg, load, seed: int) -> dict:
    runner = Runner(pkg, load)
    runner.warm_up(seed)
    wall2, cpu2, _ = runner.run(WORKERS)
    wall1, _, _ = runner.run(1)
    tracer = spans.Tracer()
    wall_traced, _, out = runner.run(1, tracer)
    layers = layer_metrics(tracer)
    layers["sim.parallel_efficiency"] = wall1 / (WORKERS * wall2)
    layers["trace.overhead_share"] = (wall_traced - wall1) / wall1
    layers["proc.cpu_s"] = cpu2
    layers["cli.output_bytes"] = out.output_bytes
    if hc_at_peak_n(load):
        layers["hctest.hc_statistic.peak_bytes"] = hc_peak_bytes(pkg)
    return dict(
        runner.summary(),
        passes={"workers2_s": wall2, "workers1_s": wall1, "traced_workers1_s": wall_traced},
        layers=layers,
    )


def layer_metrics(tracer: spans.Tracer) -> dict:
    out = {}
    for group in ("dists.sample", "dists.tail", "dists.llr", "dists.quantile"):
        stats = tracer.group(group)
        out[f"{group}.calls"] = stats.calls
        out[f"{group}.values"] = stats.values
        out[f"{group}.self_s"] = stats.self_s
        out[f"{group}.ns_per_value"] = 1e9 * stats.self_s / stats.values if stats.values else 0.0
    for kind in SAMPLE_KINDS:
        out[f"dists.sample.{kind}.self_s"] = tracer.span(f"dists.sample.{kind}").self_s
    for name in SPAN_METRICS:
        stats = tracer.span(name)
        out[f"{name}.calls"] = stats.calls
        out[f"{name}.self_s"] = stats.self_s
    hc = tracer.group("hctest.hc_statistic")
    out["hctest.hc_statistic.ns_per_value"] = 1e9 * hc.self_s / hc.values if hc.values else 0.0
    cells = sorted(tracer.span("sim.run_cell").durations)
    if cells:
        out["sim.cell_s.p50"] = cells[len(cells) // 2]
        out["sim.cell_s.max"] = cells[-1]
    return out


def hc_at_peak_n(load) -> bool:
    return any(
        "hc" in cfg.tests and PEAK_BYTES_N in cfg.n_list
        for cfg in getattr(load, "configs", ())
    )


def hc_peak_bytes(pkg) -> int:
    """tracemalloc peak of one hc_statistic call on n = 1e5 Gaussian values."""
    ys = pkg.dists.Gaussian().sample(PEAK_BYTES_N, pkg.rng.stream(0, 1))
    null = pkg.dists.Gaussian()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pkg.hctest.hc_statistic(ys, null)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def versions(pkg) -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sparse_detect": pkg.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.CHOICES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    pkg = workloads.import_package()
    load = workloads.build(pkg, args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(pkg, load, args.seed, args.seconds)
    else:
        result = traced(pkg, load, args.seed)
    result["versions"] = versions(pkg)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
