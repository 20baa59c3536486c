"""Outside-in span tracer for the sparse_detect package.

The tracer replaces public functions and distribution methods with
timing wrappers at every place the package looks them up (module
globals such as ``sim.hc_statistic`` and class attributes such as
``Gaussian.sample``), and puts the originals back on exit.  Nothing in
``src/`` is edited.

Every wrapped call is a span.  Spans nest on one stack, so a span's
self time is its duration minus the durations of the spans it called.
Spans belong to a group (for example every ``sample`` method is in
``dists.sample``); a group's ``calls`` and ``values`` count only the
outermost span of the group, so a mixture draw that calls its
component samplers counts once, while ``self_s`` sums the self time of
every span in the group.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

import numpy as np

# Distribution methods and the group each one reports under.
DIST_METHODS = {
    "sample": "dists.sample",
    "cdf": "dists.tail",
    "survival": "dists.tail",
    "log_density": "dists.llr",
    "quantile": "dists.quantile",
}
# Module-level functions that report under a group other than their own name.
FUNCTION_GROUPS = {
    "dists.log_likelihood_ratio": "dists.llr",
    "dists.quantile": "dists.quantile",
    "dists.sample": "dists.sample",
}
MODULES = ("rng", "dists", "hctest", "sim", "boundary", "divergence", "cli")
# Spans whose individual durations are kept, not only their totals.
KEEP_DURATIONS = ("sim.run_cell",)


def _sample_values(args, kwargs, result):
    return int(np.size(result))


def _first_arg_values(args, kwargs, result):
    # methods receive self first; the argument that carries the data follows
    return int(np.size(args[1])) if len(args) > 1 else 0


def _hc_values(args, kwargs, result):
    return int(np.size(args[0])) if args else 0


VALUE_COUNTERS = {
    "dists.sample": _sample_values,
    "dists.tail": _first_arg_values,
    "hctest.hc_statistic": _hc_values,
}


class SpanStats:
    """Totals for one span name or one group."""

    __slots__ = ("calls", "total_s", "self_s", "values", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.values = 0
        self.durations = []


class Tracer:
    """Span recorder; ``install`` patches the package, ``remove`` undoes it."""

    def __init__(self):
        self.names: dict[str, SpanStats] = {}
        self.groups: dict[str, SpanStats] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def record(self, name, group, duration, child_s, outer, values):
        own = duration - child_s
        stats = self.names.get(name)
        if stats is None:
            stats = self.names[name] = SpanStats()
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += own
        if name in KEEP_DURATIONS:
            stats.durations.append(duration)
        gstats = self.groups.get(group)
        if gstats is None:
            gstats = self.groups[group] = SpanStats()
        gstats.self_s += own
        if outer:
            gstats.calls += 1
            gstats.total_s += duration
            gstats.values += values

    def wrap(self, fn, name, group):
        stack = self._stack
        count = VALUE_COUNTERS.get(group)
        record = self.record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [group, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
            outer = parent is None or parent[0] != group
            values = count(args, kwargs, result) if (count and outer) else 0
            record(name, group, duration, frame[1], outer, values)
            return result

        return traced

    # -- patching ---------------------------------------------------------

    def install(self, package) -> "Tracer":
        """Wrap every public function and distribution method of the package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {short: getattr(package, short) for short in MODULES}
        namespaces = [package, *modules.values()]
        for short, module in modules.items():
            public = getattr(module, "__all__", None) or [
                attr for attr in vars(module) if not attr.startswith("_")
            ]
            for attr in public:
                fn = getattr(module, attr, None)
                if not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # re-exported; wrapped under its home module
                name = f"{short}.{attr}"
                wrapper = self.wrap(fn, name, FUNCTION_GROUPS.get(name, name))
                for space in namespaces:
                    for key, value in list(vars(space).items()):
                        if value is fn:
                            self._patch(space, key, wrapper)
        dists = modules["dists"]
        for cls in vars(dists).values():
            if not (isinstance(cls, type) and issubclass(cls, dists.Distribution)):
                continue
            for method, group in DIST_METHODS.items():
                fn = vars(cls).get(method)
                if isinstance(fn, types.FunctionType):
                    name = f"{group}.{cls.kind}"
                    self._patch(cls, method, self.wrap(fn, name, group))
        exponent = modules["boundary"].ExponentFunction
        for method in ("grid", "evaluate"):
            fn = vars(exponent)[method]
            name = f"boundary.{method}"
            self._patch(exponent, method, self.wrap(fn, name, name))
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put back every original attribute, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results ----------------------------------------------------------

    def group(self, name: str) -> SpanStats:
        return self.groups.get(name) or SpanStats()

    def span(self, name: str) -> SpanStats:
        return self.names.get(name) or SpanStats()
