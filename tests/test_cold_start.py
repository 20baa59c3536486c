"""What a fresh process loads: scipy.special and scipy.integrate load only on use.

Each test runs a script in a fresh interpreter (``PYTHONPATH`` = this
checkout's ``src``), so that nothing the test process imported hides a
module the package loads on its own.  The script prints one JSON line.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from sparse_detect.dists import Gaussian
from sparse_detect.divergence import hellinger_sq, total_variation

# scipy.integrate loads the other three scipy modules with it, and
# scipy.special's array-API shim runs `from numpy import *`, which may load
# numpy.f2py through numpy's lazy __getattr__
_HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "numpy.f2py")

# commands that evaluate no special function; {sample} is a sample file
_NO_SPECIAL = (
    ["boundary", "--family", "idj", "--r", "0.25"],
    ["boundary", "--family", "dilate", "--r-grid", "0.1:1:0.1", "--format", "csv"],
    ["exponent", "--family", "ggconv", "--r", "0.3", "--tau", "1.5", "--beta", "0.6"],
    ["check-alpha", "--family", "idj", "--r", "0.3"],
    ["maxtest", "--input", "{sample}"],
)

_COLD_START = textwrap.dedent(
    f"""
    import contextlib, io, json, sys
    import sparse_detect, sparse_detect.cli
    from sparse_detect import cli, sim
    from sparse_detect.dists import Gaussian
    from sparse_detect.divergence import hellinger_sq, total_variation

    def loaded(names):
        return [m for m in names if m in sys.modules]

    codes = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    commands = loaded({("scipy.special",) + _HEAVY!r})
    Gaussian().tails(0.0)
    special = "scipy.special" in sys.modules
    baseline = loaded({_HEAVY!r})

    cfg = sim.ExperimentConfig(
        family="idj", beta_grid=(0.6,), r_grid=(0.5,), n_list=(64,),
        replicates=4, tests=("lr", "max"), seed=3,
    )
    assert sim.phase_sweep(cfg, workers=2).worker_count == 2
    assert cli.main(["boundary", "--family", "idj", "--r", "0.25"]) == 0
    swept = loaded({_HEAVY!r})
    p, q = Gaussian(), Gaussian(1.0, 1.0)
    values = [hellinger_sq(p, q).hex(), total_variation(p, q).hex()]
    print(json.dumps({{
        "codes": codes, "commands": commands, "special": special,
        "baseline": baseline, "swept": swept, "values": values,
        "after": "scipy.integrate" in sys.modules,
    }}))
    """
)

# The parent of a 2-worker max-only sweep evaluates no special function
# itself; it loads scipy.special before the pool forks, so that no worker
# imports it on its own.
_PRE_FORK = textwrap.dedent(
    """
    import json, sys
    from sparse_detect import sim

    cfg = sim.ExperimentConfig(
        family="idj", beta_grid=(0.6, 0.8), r_grid=(0.5,), n_list=(64,),
        replicates=6, tests=("max",), seed=11,
    )
    two = sim.phase_sweep(cfg, workers=2)
    loaded = "scipy.special" in sys.modules
    one = sim.phase_sweep(cfg, workers=1)
    print(json.dumps({
        "loaded": loaded, "workers": two.worker_count,
        "same_csv": one.to_csv() == two.to_csv(),
    }))
    """
)


def _run(script: str, *args: str) -> dict:
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestColdStart:
    def test_quadrature_alone_loads_scipy_integrate(self, tmp_path):
        sample = tmp_path / "sample.txt"
        sample.write_text("".join(f"{x!r}\n" for x in (0.3, -1.2, 2.5, 0.0, -0.7, 1.9)))
        argv = [[arg.format(sample=sample) for arg in cmd] for cmd in _NO_SPECIAL]
        report = _run(_COLD_START, json.dumps(argv))
        assert report["codes"] == [0] * len(_NO_SPECIAL)
        # closed-form and numeric boundaries, exponents, admissibility and
        # the max test load neither special functions nor quadrature
        assert report["commands"] == []
        assert report["special"]
        assert set(report["baseline"]) <= {"numpy.f2py"}
        # a sweep adds none of _HEAVY to what scipy.special loaded
        assert report["swept"] == report["baseline"]
        p, q = Gaussian(), Gaussian(1.0, 1.0)
        assert report["values"] == [hellinger_sq(p, q).hex(), total_variation(p, q).hex()]
        assert report["after"]

    def test_pool_parent_loads_scipy_special_before_fork(self):
        report = _run(_PRE_FORK)
        assert report["workers"] == 2
        assert report["loaded"]
        assert report["same_csv"]
