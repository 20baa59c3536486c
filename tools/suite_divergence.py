"""The ``divergence`` suite of ``tools/compare.py``: total_variation, hellinger_sq and error_sum.

Run with ``PYTHONPATH`` set to a ``src`` tree, it evaluates the three
functions on every ordered pair of a fixed list of 41 laws (1681 pairs,
5043 calls): Gaussian, Subbotin, shifted, dilated and finite discrete laws,
two-component and nested mixtures of them, with weights 0 and 1 among the
rest.  Per call it records the result's ``float.hex`` or the error's class
name, and whether scipy issued an ``IntegrationWarning``.  It prints the
records as one JSON object.
"""

import json
import sys
import warnings

from sparse_detect.dists import Dilated, FiniteDiscrete, Gaussian, GenGaussian, Mixture, Shifted
from sparse_detect.divergence import error_sum, hellinger_sq, total_variation

N = Gaussian()
D0, D1, D25 = (FiniteDiscrete(((x, 1.0),)) for x in (0.0, 1.0, 2.5))
P2 = FiniteDiscrete(((0.0, 0.5), (1.0, 0.5)))
Q2 = FiniteDiscrete(((0.0, 0.25), (1.0, 0.75)))
R3 = FiniteDiscrete(((-1.0, 0.2), (0.0, 0.3), (2.5, 0.5)))
LAWS = [
    N, Gaussian(1.0, 1.0), Gaussian(3.0, 0.1), Gaussian(0.0, 2.0), Gaussian(-2.0, 0.5),
    Gaussian(0.0, 0.01), GenGaussian(0.2), GenGaussian(0.3), GenGaussian(0.5),
    GenGaussian(1.0), GenGaussian(1.5), GenGaussian(2.0), GenGaussian(4.0),
    Shifted(N, 2.0), Shifted(GenGaussian(1.0), -1.0),
    Dilated(GenGaussian(0.5), 3.0), Dilated(N, 0.5),
    D0, D1, P2, Q2, R3, Dilated(P2, 2.0), Shifted(Q2, 1.0),
    Mixture(N, Gaussian(2.0, 1.0), 0.0), Mixture(N, Gaussian(2.0, 1.0), 1e-3),
    Mixture(N, Gaussian(2.0, 1.0), 0.5), Mixture(N, Gaussian(2.0, 1.0), 1.0),
    Mixture(N, Gaussian(1.357, 1.0), 2.5e-4),
    Mixture(GenGaussian(1.0), Shifted(GenGaussian(1.0), 3.0), 0.05),
    Mixture(N, D1, 0.0), Mixture(N, D1, 0.125), Mixture(N, D1, 1.0),
    Mixture(D0, GenGaussian(1.0), 0.25), Mixture(R3, N, 0.9),
    Mixture(P2, Q2, 0.3), Mixture(D0, D1, 0.5),
    Mixture(Mixture(N, D1, 0.3), D25, 0.2), Mixture(Mixture(N, D1, 0.3), D25, 1.0),
    Mixture(Mixture(N, D1, 1.0), GenGaussian(1.0), 0.4),
    Mixture(Mixture(D0, D1, 0.5), Mixture(Q2, R3, 0.5), 0.25),
]
FUNCTIONS = {"tv": total_variation, "h2": hellinger_sq, "error_sum": error_sum}

records = {}
for p in LAWS:
    for q in LAWS:
        for name, fn in FUNCTIONS.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = fn(p, q).hex()
                except Exception as exc:
                    out = type(exc).__name__
            warned = any(w.category.__name__ == "IntegrationWarning" for w in caught)
            records[f"{name}({p!r}, {q!r})"] = [out, warned]
json.dump(records, sys.stdout)
