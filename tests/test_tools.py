"""``tools/compare.py``: the runner that compares two source trees suite by suite."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import compare


def test_a_case_of_only_one_tree_differs():
    old = {"same": [1, "a"], "changed": [0], "only-old": 1}
    new = {"same": [1, "a"], "changed": [1], "only-new": None}
    assert compare.differing(old, new) == ["changed", "only-old", "only-new"]
    assert compare.differing(old, dict(old)) == []


def test_unknown_suite_is_a_usage_error(capsys):
    assert compare.main(["old", "new", "boundary", "nonsense"]) == 2
    assert "Usage: python tools/compare.py OLD_SRC NEW_SRC SUITE..." in capsys.readouterr().err


def test_a_perturbed_tree_is_flagged(tmp_path):
    new_src = tmp_path / "src"
    shutil.copytree(ROOT / "src", new_src, ignore=shutil.ignore_patterns("__pycache__"))
    path = new_src / "sparse_detect" / "boundary.py"
    line = "return max(0.5, r / (1.0 + r))"  # the ggconv closed form at tau = 2
    text = path.read_text()
    assert text.count(line) == 1
    path.write_text(text.replace(line, "return max(0.5, r / (2.0 + r))"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare.py"), str(ROOT / "src"), str(new_src), "boundary"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "differs: ggconv(r=4.0, tau=2.0)\n" in proc.stdout
    assert "differs: ggconv(r=0.5, tau=2.0)\n" not in proc.stdout  # max(0.5, .) hides the change
