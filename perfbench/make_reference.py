"""Write the reference tables that the sweep checks compare against.

Run from the repository root at the commit whose results are the
baseline:

    python3 perfbench/make_reference.py

Each sweep workload is run once at REFERENCE_SEED with the benchmark's
replicate count and workers=2; the per-cell error counts and the
overlay column go to perfbench/reference/<workload>.json.
"""

from __future__ import annotations

import json

import workloads

REFERENCE_SEED = 0


def main() -> int:
    pkg = workloads.import_package()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.SWEEPS:
        load = workloads.build(pkg, name, REFERENCE_SEED)
        out = load.run(workers=2)
        table = workloads.reference_from_csv(out.text, load.replicates, REFERENCE_SEED)
        with open(workloads.reference_path(name), "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {len(table['cells'])} cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
