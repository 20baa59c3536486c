"""Command-line front end.

Subcommands map one-to-one onto library operations: ``boundary``
(closed forms and numeric sweeps), ``exponent`` (Hellinger-rate
evaluation), ``check-alpha`` (admissibility), ``hc``/``lr``/``maxtest``
(decision rules on sample files), ``simulate`` (phase sweeps), and
``estimate-gamma`` (finite-n exponent diagnostics).

Exit codes: 0 success, 2 usage error, 3 domain error (invalid
parameter), 4 I/O error.  All numeric output uses 12 significant
digits; --format selects the encoding of boundary (text, csv or json)
and of exponent, check-alpha and estimate-gamma (text or json).
The environment variable SPARSE_DETECT_LOG in {error,warn,info,debug}
sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import boundary as bnd
from . import families, sim
from .dists import Distribution, Gaussian, GenGaussian, Mixture, from_spec
from .errors import ConfigError, InvalidParameterError, SparseDetectError
from .hctest import TESTS, hc_test, lr_test, max_test

log = logging.getLogger("sparse_detect")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _Usage(argparse.ArgumentTypeError):
    """Bad flag value (argparse reports it from a flag's type) or combination; exit code 2."""


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------


_MAX_GRID_STEPS = 10**6  # a lo:hi:step grid is built as a list, about 0.24 s at this size


def _parse_grid(text: str) -> tuple[float, ...]:
    """Either lo:hi:step (inclusive endpoints) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _Usage(f"grid {text!r} must be lo:hi:step or a comma list")
        lo, hi, step = _numbers(text, parts)
        if not all(math.isfinite(v) for v in (lo, hi, step)):
            raise _Usage(f"grid {text!r} must have finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise _Usage(f"grid {text!r} must have step > 0 and hi >= lo")
        if not (hi - lo) / step <= _MAX_GRID_STEPS:  # an overflowing span or ratio is inf
            raise _Usage(f"grid {text!r} has more than {_MAX_GRID_STEPS} steps")
        count = int(round((hi - lo) / step))
        vals = [lo + k * step for k in range(count + 1) if lo + k * step <= hi + 1e-12]
        return tuple(vals)
    return _numbers(text, text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    """A comma list of integers, '1e3' included; a non-integral entry is a usage error."""
    values = _numbers(text, text.split(","))
    if not all(v.is_integer() for v in values):
        raise _Usage(f"{text!r} holds a non-integral entry")
    return tuple(int(v) for v in values)


def _workers(text: str) -> int:
    """A --workers pool size: an integer >= 1."""
    try:
        workers = int(text)
    except ValueError:
        raise _Usage(f"--workers must be an integer, got {text!r}") from None
    if workers < 1:
        raise _Usage(f"--workers must be >= 1, got {workers}")
    return workers


def _numbers(text: str, parts) -> tuple[float, ...]:
    """float(part) for each part; a non-numeric part is a usage error."""
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _Usage(f"{text!r} holds a non-numeric entry") from None


def _read_sample(path: str) -> np.ndarray:
    """Single-column CSV or newline-delimited floats; header line allowed."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            token = line.strip().split(",")[0].strip()
            if not token:
                continue
            try:
                value = float(token)
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise InvalidParameterError(
                    f"{path}:{lineno + 1}: cannot parse {token!r} as a number"
                )
            if not math.isfinite(value):
                raise InvalidParameterError(
                    f"{path}:{lineno + 1}: {token!r} is not a finite number"
                )
            values.append(value)
    return np.asarray(values, dtype=float)


def _parse_distribution(text: str) -> Distribution:
    """Named shortcut ('gaussian', 'gen_gaussian:tau') or a JSON spec."""
    text = text.strip()
    if text == "gaussian":
        return Gaussian()
    if text.startswith("gen_gaussian:"):
        return GenGaussian(*_numbers(text, [text.split(":", 1)[1]]))
    if text.startswith("{"):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _Usage(f"distribution {text!r} is not valid JSON: {exc}") from None
        return from_spec(spec)
    raise _Usage(
        f"cannot parse distribution {text!r}; use 'gaussian', 'gen_gaussian:TAU' "
        "or a JSON spec"
    )


def _family(args) -> families.Family:
    """The --family row of a subcommand that needs the family's boundary."""
    if args.family is None:
        raise _Usage(f"{args.command} requires --family")
    family = families.FAMILIES[args.family]
    if family.exponent is None:
        raise InvalidParameterError(f"family {family.name!r} has no detection boundary")
    return family


_FAMILY_FLAGS = ("r", "sigma2", "tau", "linf", "beta")  # in the order --help lists them


def _family_flags(args, *names: str) -> tuple:
    """The --family row's numeric shape flags as a dict, then the values of flags ``names``;
    a flag read but not given, then a family flag given but not read, is a usage error."""
    family = families.FAMILIES.get(args.family)
    shape = [name for name in family.shape if name in _FAMILY_FLAGS] if family else []
    read = (*shape, *names)
    missing = [name for name in read if getattr(args, name) is None]
    if missing:
        raise _Usage(f"{args.command} --family {args.family} requires --{missing[0]}")
    stray = [n for n in _FAMILY_FLAGS if getattr(args, n) is not None and n not in read]
    if stray:
        reads = " ".join(f"--{name}" for name in read) or "no family flag"
        raise _Usage(f"{args.command} does not read --{stray[0]} here; it reads {reads}")
    return {name: getattr(args, name) for name in shape}, *(getattr(args, n) for n in names)


def _shape_params(args) -> dict:
    """The numeric shape flags given on the command line, as family_params."""
    return {k: v for k, v in vars(args).items() if k in ("sigma2", "tau") and v is not None}


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", newline="") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_boundary(args) -> int:
    mode = args.mode or "beta-of-r"
    family = _family(args)
    if args.r_grid is not None:
        if args.format == "json" or mode == "r-of-beta":
            flag = "--format json" if args.format == "json" else "--mode r-of-beta"
            raise _Usage(f"--r-grid prints a beta-of-r CSV table; it does not take {flag}")
        shape = _family_flags(args)[0]
        rows = ["family,params,beta_star,maximizer,method"]
        for value in args.r_grid:
            params = {family.swept: value, **shape}
            label = ";".join(f"{k}={_fmt(v)}" for k, v in params.items())
            alpha = family.alpha(value, shape)
            res = (
                bnd.beta_star_general(alpha)
                if alpha.axis == "s"
                else bnd.beta_sharp(alpha)
            )
            rows.append(
                f"{args.family},{label},{_fmt(res.beta)},{_fmt(res.maximizer)},{res.method}"
            )
        _emit(args, "\n".join(rows))
        return 0

    swept = "beta" if mode == "r-of-beta" else family.swept
    shape, value = _family_flags(args, swept)
    params = {**shape, swept: value}
    value = bnd.boundary_closed_form(args.family, mode=mode, **params)
    record = {"family": args.family, "mode": mode, **params, "value": value}
    if args.format == "json":
        _emit(args, json.dumps(record))
    elif args.format == "csv":
        vals = (v if isinstance(v, str) else _fmt(v) for v in record.values())
        _emit(args, ",".join(record) + "\n" + ",".join(vals))
    else:
        _emit(args, _fmt(value))
    return 0


def _cmd_exponent(args) -> int:
    family = _family(args)
    shape, value, beta = _family_flags(args, family.swept, "beta")
    value = bnd.hellinger_exponent(family.alpha(value, shape), beta)
    if args.format == "json":
        _emit(args, json.dumps({"family": args.family, "beta": args.beta, "exponent": value}))
    else:
        _emit(args, _fmt(value))
    return 0


def _cmd_check_alpha(args) -> int:
    if bool(args.input) == bool(args.family):
        raise _Usage("check-alpha takes either --family or --input")
    if args.input:
        _family_flags(args)
        alpha = bnd.exponent_from_csv(args.input)
    else:
        family = _family(args)
        shape, value = _family_flags(args, family.swept)
        alpha = family.alpha(value, shape)
    report = bnd.check_admissible(alpha)
    if args.format == "json":
        _emit(args, json.dumps(asdict(report)))
    else:
        lines = ["admissible" if report.admissible else "inadmissible"]
        lines += [f"violation: {v}" for v in report.violations]
        _emit(args, "\n".join(lines))
    return 0


def _cmd_hc(args) -> int:
    sample = _read_sample(args.input)
    null = _parse_distribution(args.null)
    result = hc_test(sample, null, delta=args.delta, restricted=args.restricted)
    _emit(args, json.dumps(result.to_dict()))
    return 0


def _cmd_lr(args) -> int:
    sample = _read_sample(args.input)
    if args.family and args.null is args.alt is args.epsilon is None:
        shape, r, beta = _family_flags(args, "r", "beta")
        mix = sim.family_mixture(args.family, shape, r, beta, sample.size)
    elif not args.family and None not in (args.null, args.alt, args.epsilon):
        _family_flags(args)
        mix = Mixture(_parse_distribution(args.null), _parse_distribution(args.alt), args.epsilon)
    else:
        raise _Usage("lr takes either --family --r --beta or --null --alt --epsilon")
    log_lr, decision = lr_test(sample, mix)
    _emit(args, json.dumps({"log_lr": log_lr, "decision": decision, "n": int(sample.size)}))
    return 0


def _cmd_maxtest(args) -> int:
    sample = _read_sample(args.input)
    decision = max_test(sample, u=args.u)
    _emit(args, json.dumps({"decision": decision, "n": int(sample.size), "u": args.u}))
    return 0


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_simulate(args) -> int:
    cfg_data = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg_data = json.load(fh)
            except ValueError as exc:  # malformed JSON, or bytes that are not text
                raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(cfg_data, dict):
            raise ConfigError(
                f"config {args.config} must hold a JSON object, got {type(cfg_data).__name__}"
            )
    # each config field's flag has the field's name as its dest
    names = {f.name for f in fields(sim.ExperimentConfig)}
    inline = {k: v for k, v in vars(args).items() if k in names and v is not None}
    params = _shape_params(args)
    if params:
        inline["family_params"] = params
    overlap = set(inline) & set(cfg_data)
    if overlap:
        log.warning("inline flags override config fields: %s", ", ".join(sorted(overlap)))
    cfg_data.update(inline)
    if "seed" not in cfg_data:
        raise _Usage("simulate requires an explicit --seed (no wall-clock default)")
    cfg = sim.ExperimentConfig.from_dict(cfg_data)
    workers = args.workers if args.workers is not None else _usable_cpus()
    table = sim.phase_sweep(cfg, workers=workers)
    if args.output:
        outputs = {
            "": table.to_csv(),
            ".manifest.json": json.dumps(table.manifest(), indent=2, sort_keys=True) + "\n",
            ".overlay.csv": table.overlay_csv(),
        }
        for suffix, text in outputs.items():
            with open(args.output + suffix, "w", newline="") as fh:
                fh.write(text)
        log.info("wrote %s plus manifest and overlay sidecars", args.output)
    else:
        sys.stdout.write(table.to_csv())
        sys.stderr.write(json.dumps(table.manifest()) + "\n")
    return 0


def _cmd_estimate_gamma(args) -> int:
    if args.n_list is None or args.s_grid is None:
        raise _Usage("estimate-gamma requires --n-list and --s-grid")
    if args.family and args.null is args.alt is None:
        shape, r = _family_flags(args, "r")
        null, alt = families.build(args.family, shape)
        diag = sim.estimate_gamma(null, lambda n: alt(r, n), args.n_list, args.s_grid)
    elif not args.family and args.null and args.alt:
        _family_flags(args)
        diag = sim.estimate_gamma(
            _parse_distribution(args.null), _parse_distribution(args.alt), args.n_list, args.s_grid
        )
    else:
        raise _Usage("estimate-gamma takes either --family --r or --null --alt")
    for n_from, n_to, s, delta in diag.flags:
        log.warning(
            "non-convergence: n=%d -> n=%d moved by %.4f at s=%s", n_from, n_to, delta, _fmt(s)
        )
    if args.format == "json":
        _emit(args, json.dumps(asdict(diag), default=np.ndarray.tolist))
    else:
        lines = ["n,s,ratio"]
        for i, n in enumerate(diag.n_list):
            for j, s in enumerate(diag.s_grid):
                lines.append(f"{n},{_fmt(s)},{_fmt(diag.ratios[i, j])}")
        _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-detect",
        description="Detection boundaries and adaptive tests for sparse mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, family=False, sample=False, formats=()):
        if family:
            p.add_argument("--family", choices=list(families.FAMILIES))
            for name in _FAMILY_FLAGS:
                p.add_argument(f"--{name}", type=float)
        if sample:
            p.add_argument("--input", required=True, help="single-column CSV or newline-delimited sample")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("boundary", help="evaluate a detection boundary")
    add_common(p, family=True, formats=("text", "csv", "json"))
    p.add_argument("--mode", choices=["beta-of-r", "r-of-beta"])
    p.add_argument(
        "--r-grid", type=_parse_grid, help="sweep the family parameter: lo:hi:step or comma list"
    )
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("exponent", help="Hellinger-distance exponent at a sparsity level")
    add_common(p, family=True, formats=("text", "json"))
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("check-alpha", help="admissibility check of an exponent function")
    add_common(p, family=True, formats=("text", "json"))
    p.add_argument("--input", help="two-column CSV grid with a 'u,value' header")
    p.set_defaults(func=_cmd_check_alpha)

    p = sub.add_parser("hc", help="higher-criticism test on a sample file")
    add_common(p, sample=True)
    p.add_argument("--null", default="gaussian", help="'gaussian', 'gen_gaussian:TAU' or JSON spec")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--restricted", action="store_true", help="restrict candidates to null CDF in [1/n, 1/2]")
    p.set_defaults(func=_cmd_hc)

    p = sub.add_parser("lr", help="likelihood-ratio test against a declared mixture")
    add_common(p, family=True, sample=True)
    p.add_argument("--null", help="null distribution (with --alt/--epsilon)")
    p.add_argument("--alt", help="alternative distribution")
    p.add_argument("--epsilon", type=float)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("maxtest", help="sample-maximum test")
    add_common(p, sample=True)
    p.add_argument("--u", type=float, default=1.0, help="threshold multiplier of sqrt(2 ln n)")
    p.set_defaults(func=_cmd_maxtest)

    p = sub.add_parser("simulate", help="run a phase sweep")
    add_common(p)
    p.add_argument("--config", help="JSON experiment configuration")
    p.add_argument("--family", choices=list(families.FAMILIES))
    p.add_argument("--beta-grid", type=_parse_grid)
    p.add_argument("--r-grid", type=_parse_grid)
    p.add_argument("--n-list", type=_parse_int_list)
    p.add_argument("--replicates", type=int)
    p.add_argument(
        "--tests", type=lambda text: text.split(","), help=f"comma list from {','.join(TESTS)}"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument(
        "--workers", type=_workers, help="pool size >= 1; default: the CPUs this process may use"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate-gamma", help="finite-n exponent-function diagnostic")
    add_common(p, family=True, formats=("text", "json"))
    p.add_argument("--null")
    p.add_argument("--alt")
    p.add_argument("--n-list", type=_parse_int_list)
    p.add_argument("--s-grid", type=_parse_grid)
    p.set_defaults(func=_cmd_estimate_gamma)

    return parser


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("SPARSE_DETECT_LOG", "warn").lower())
    logging.basicConfig(level=level if level is not None else logging.WARNING)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SparseDetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
