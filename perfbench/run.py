"""Benchmark entry point for sparse_detect.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Every run prints one JSON report line (run metadata, every
timing with its sample count) and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` gives the end-to-end metrics of the named workload
(``sweeps`` or ``boundary-curves``), measured untraced.  ``--trace 1``
gives the per-layer metrics; they are named ``<part>.<layer metric>``
after the workload part on which the layer should move, so a traced run
covers all four parts, whichever workload it names (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
SRC_PACKAGE = workloads.SRC / "sparse_detect"
WORKLOADS = workloads.NAMES
PARTS = workloads.PARTS
SETUP_SAMPLES = 5
TIME_BUDGET_S = 170.0
# The pool workers inherit this environment: one BLAS/OpenMP thread each,
# so that workers=2 on two cores runs two threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Per-layer metrics, by workload part: the layer metrics that the layer map
# in README.md predicts to move there (and, for rng.stream on sweep-large-n,
# one predicted to barely move).
LAYERS = {
    "sweep-large-n": (
        "rng.stream.calls", "rng.stream.self_s",
        "dists.sample.calls", "dists.sample.values", "dists.sample.self_s",
        "dists.sample.ns_per_value", "dists.sample.gaussian.self_s",
        "dists.sample.mixture.self_s",
        "dists.tail.calls", "dists.tail.self_s", "dists.tail.ns_per_value",
        "hctest.hc_statistic.calls", "hctest.hc_statistic.self_s",
        "hctest.hc_statistic.ns_per_value", "hctest.hc_statistic.peak_bytes",
        "hctest.lr_test.self_s", "hctest.max_test.self_s",
        "sim.run_cell.calls", "sim.cell_s.p50", "sim.cell_s.max",
        "sim.parallel_efficiency", "sim.family_mixture.calls",
        "proc.cpu_s", "trace.overhead_share",
    ),
    "sweep-grid-small-n": (
        "rng.stream.calls", "rng.stream.self_s",
        "dists.sample.calls", "dists.sample.self_s",
        "hctest.hc_statistic.self_s",
        "sim.run_cell.calls", "sim.run_cell.self_s",
        "sim.cell_s.p50", "sim.cell_s.max",
        "sim.parallel_efficiency", "sim.family_mixture.calls",
        "cli.main.self_s", "cli.output_bytes",
        "proc.cpu_s", "trace.overhead_share",
    ),
    "sweep-subbotin": (
        "rng.stream.calls",
        "dists.sample.calls", "dists.sample.values", "dists.sample.self_s",
        "dists.sample.ns_per_value", "dists.sample.gen_gaussian.self_s",
        "dists.sample.shifted.self_s", "dists.sample.mixture.self_s",
        "dists.tail.calls", "dists.tail.self_s", "dists.tail.ns_per_value",
        "dists.llr.self_s",
        "hctest.hc_statistic.calls", "hctest.hc_statistic.self_s",
        "hctest.hc_statistic.ns_per_value", "hctest.lr_test.self_s",
        "sim.run_cell.calls", "sim.cell_s.p50", "sim.cell_s.max",
        "sim.parallel_efficiency", "sim.family_mixture.calls",
        "proc.cpu_s", "trace.overhead_share",
    ),
    "boundary-curves": (
        "dists.quantile.calls", "dists.quantile.self_s",
        "boundary.grid.calls", "boundary.grid.self_s",
        "boundary.evaluate.calls", "boundary.evaluate.self_s",
        "boundary.check_admissible.self_s",
        "boundary.laplace_log_integral.calls", "boundary.laplace_log_integral.self_s",
        "boundary.ess_sup_grid.self_s", "boundary.beta_sharp.self_s",
        "boundary.hc_achievable_boundary.self_s", "boundary.hellinger_exponent.self_s",
        "boundary.boundary_closed_form.self_s",
        "divergence.hellinger_sq.self_s", "divergence.total_variation.self_s",
        "cli.main.self_s", "cli.output_bytes",
        "proc.cpu_s", "trace.overhead_share",
    ),
}
COUNT_SUFFIXES = (".calls", ".values", ".peak_bytes", ".output_bytes")


def layer_unit(name: str) -> str:
    if name.endswith(COUNT_SUFFIXES):
        return "bytes" if name.endswith("bytes") else "count"
    if name.endswith(".ns_per_value"):
        return "ns"
    if name.endswith((".parallel_efficiency", ".overhead_share")):
        return "ratio"
    return "s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name of a traced run, with its unit."""
    units = {f"{p}.{m}": layer_unit(m) for p in PARTS for m in LAYERS[p]}
    units["repo.src_lines"] = "lines"
    return units


class ClientError(RuntimeError):
    pass


def _kill_session(proc: subprocess.Popen) -> None:
    """SIGKILL a client together with the pool workers it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float):
    """Run one client; return (seconds until READY, parsed last line or None)."""
    cmd = [
        sys.executable, str(HERE / "client.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds),
    ]
    env = dict(os.environ, **THREAD_ENV)
    start = perf_counter()
    # the client leads its own session so that the watchdog can kill its
    # pool workers too; killing it also unblocks the reads below
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    watchdog = threading.Timer(max(1.0, deadline - monotonic()), _kill_session, (proc,))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_session(proc)
            proc.wait()
        proc.stdout.close()
    if proc.returncode == -signal.SIGKILL:
        raise ClientError(f"{workload} {mode} client killed at the time budget")
    if proc.returncode != 0 or first.strip() != "READY":
        raise ClientError(f"{workload} {mode} client exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    for pct in (99.9, 99, 90):
        rank = math.ceil(n * pct / 100)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            out[f"p{pct:g}"] = ordered[rank - 1]
            break
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> tuple[str, int]:
    """sha256 over src/sparse_detect/*.py, and their total line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC_PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(seed: int, versions: dict) -> dict:
    digest, lines = source_digest()
    return {
        "seed": seed,
        "commit": commit(),
        "src_sha256": digest,
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "versions": versions,
        "pool_thread_env": dict(THREAD_ENV),
        "workers": workloads.WORKERS,
    }


def run_timed(workload: str, seed: int, seconds: float, deadline: float):
    # set-up samples go before and after the timed client, so that their
    # median spans the whole run rather than one moment of the machine
    def setup_sample():
        return spawn(workload, seed, "setup", seconds, deadline)[0]

    setup = [setup_sample() for _ in range(SETUP_SAMPLES // 2)]
    ready_s, result = spawn(workload, seed, "timed", seconds, deadline)
    setup.append(ready_s)
    setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    walls = result["wall_s"]
    ops = result["ops_per_pass"]
    rss_kb = max(result["peak_rss_kb"].values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(ops / w for w in walls), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    timings = {
        "setup_s": summarize(setup),
        "wall_s": summarize(walls),
        "ops_per_s": summarize([ops / w for w in walls]),
        "cpu_s_per_pass": summarize(result["cpu_s"]),
    }
    report = {
        "workload": workload,
        "trace": 0,
        "ops_per_pass": ops,
        "peak_rss_kb": result["peak_rss_kb"],
        "timings": timings,
        "problems": result["problems"],
    }
    return metrics, report, result


def run_traced(workload: str, seed: int, seconds: float, deadline: float):
    # every part in its own client, whichever workload is named
    units = per_layer_units()
    metrics, traced, results = {}, {}, []
    for name in PARTS:
        _, result = spawn(name, seed, "traced", seconds, deadline)
        results.append(result)
        traced[name] = {"passes": result["passes"], "problems": result["problems"]}
        for metric in LAYERS[name]:
            key = f"{name}.{metric}"
            metrics[key] = (result["layers"][metric], units[key])
    metrics["repo.src_lines"] = (source_digest()[1], units["repo.src_lines"])
    merged = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "versions": results[0]["versions"],
    }
    report = {"workload": workload, "trace": 1, "workloads": traced}
    return metrics, report, merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sparse_detect benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC_PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC_PACKAGE}", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_BUDGET_S
    runner = run_traced if args.trace else run_timed
    try:
        metrics, report, result = runner(args.workload, args.seed, args.seconds, deadline)
    except ClientError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report["metadata"] = metadata(args.seed, result["versions"])
    report["attempted"] = result["attempted"]
    report["failed"] = result["failed"]
    report["fail_share"] = result["failed"] / max(1, result["attempted"])
    print(json.dumps(report, sort_keys=True))
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
