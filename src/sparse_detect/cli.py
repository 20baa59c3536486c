"""Command-line front end.

Subcommands map one-to-one onto library operations: ``boundary``
(closed forms and numeric sweeps), ``exponent`` (Hellinger-rate
evaluation), ``check-alpha`` (admissibility), ``hc``/``lr``/``maxtest``
(decision rules on sample files), ``simulate`` (phase sweeps), and
``estimate-gamma`` (finite-n exponent diagnostics).

Exit codes: 0 success, 2 usage error, 3 domain error (invalid
parameter), 4 I/O error.  All numeric output uses 12 significant
digits; --format {text,csv,json} selects the encoding of boundary,
exponent, check-alpha and estimate-gamma.
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

import numpy as np

from . import boundary as bnd
from . import families, sim
from .dists import Distribution, Gaussian, GenGaussian, SparseMixture, from_spec
from .errors import SparseDetectError, InvalidParameterError
from .hctest import hc_test, lr_test, max_test

log = logging.getLogger("sparse_detect")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _Usage(Exception):
    """Bad flag combination; reported as exit code 2."""


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------


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


def _need(args, name: str) -> float:
    val = getattr(args, name, None)
    if val is None:
        raise _Usage(f"family {args.family!r} requires --{name.replace('_', '-')}")
    return val


def _params(args, *names: str) -> dict:
    return {name: _need(args, name) for name in names}


def _shape_params(args) -> dict:
    """The numeric shape flags given on the command line, as family_params."""
    return {k: v for k, v in vars(args).items() if k in ("sigma2", "tau") and v is not None}


def _alpha_for(args) -> bnd.ExponentFunction:
    family = _family(args)
    return family.alpha(_need(args, family.swept), _params(args, *family.shape))


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
        shape = _params(args, *family.shape)
        rows = ["family,params,beta_star,maximizer,method"]
        for value in _parse_grid(args.r_grid):
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
    params = _params(args, *family.shape, swept)
    value = bnd.boundary_closed_form(args.family, mode=mode, **params)
    if args.format == "json":
        payload = {"family": args.family, "mode": mode, **params, "value": value}
        _emit(args, json.dumps(payload))
    elif args.format == "csv":
        keys = ",".join(params)
        vals = ",".join(_fmt(v) for v in params.values())
        _emit(args, f"family,mode,{keys},value\n{args.family},{mode},{vals},{_fmt(value)}")
    else:
        _emit(args, _fmt(value))
    return 0


def _cmd_exponent(args) -> int:
    if args.beta is None:
        raise _Usage("exponent requires --beta")
    alpha = _alpha_for(args)
    value = bnd.hellinger_exponent(alpha, args.beta)
    if args.format == "json":
        _emit(args, json.dumps({"family": args.family, "beta": args.beta, "exponent": value}))
    else:
        _emit(args, _fmt(value))
    return 0


def _cmd_check_alpha(args) -> int:
    if args.input:
        alpha = bnd.exponent_from_csv(args.input)
    elif args.family:
        alpha = _alpha_for(args)
    else:
        raise _Usage("check-alpha requires --family or --input")
    report = bnd.check_admissible(alpha)
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "admissible": report.admissible,
                    "violations": list(report.violations),
                    "ladder_values": list(report.ladder_values),
                }
            ),
        )
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
    if args.null and args.alt:
        if args.epsilon is None:
            raise _Usage("lr with --null/--alt requires --epsilon")
        mix = SparseMixture(
            _parse_distribution(args.null), _parse_distribution(args.alt), args.epsilon
        )
    elif args.family:
        if args.beta is None or args.r is None:
            raise _Usage("lr with --family requires --r and --beta")
        mix = sim.family_mixture(
            args.family, _shape_params(args), args.r, args.beta, sample.size
        )
    else:
        raise _Usage("lr requires either --family --r --beta or --null --alt --epsilon")
    log_lr, decision = lr_test(sample, mix)
    _emit(args, json.dumps({"log_lr": log_lr, "decision": decision, "n": int(sample.size)}))
    return 0


def _cmd_maxtest(args) -> int:
    sample = _read_sample(args.input)
    decision = max_test(sample, u=args.u)
    _emit(args, json.dumps({"decision": decision, "n": int(sample.size), "u": args.u}))
    return 0


def _cmd_simulate(args) -> int:
    cfg_data = {}
    if args.config:
        with open(args.config) as fh:
            cfg_data = json.load(fh)
    inline = {}
    if args.family:
        inline["family"] = args.family
    if args.beta_grid:
        inline["beta_grid"] = list(_parse_grid(args.beta_grid))
    if args.r_grid:
        inline["r_grid"] = list(_parse_grid(args.r_grid))
    if args.n_list:
        inline["n_list"] = list(_parse_int_list(args.n_list))
    if args.replicates is not None:
        inline["replicates"] = args.replicates
    if args.tests:
        inline["tests"] = args.tests.split(",")
    if args.seed is not None:
        inline["seed"] = args.seed
    if args.delta is not None:
        inline["delta"] = args.delta
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
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    table = sim.phase_sweep(cfg, workers=workers)
    if args.output:
        table.write_csv(args.output)
        table.write_manifest(args.output + ".manifest.json")
        table.write_overlay_csv(args.output + ".overlay.csv")
        log.info(
            "wrote %s plus manifest and overlay sidecars", args.output
        )
    else:
        sys.stdout.write(table.to_csv())
        sys.stderr.write(json.dumps(table.manifest()) + "\n")
    return 0


def _cmd_estimate_gamma(args) -> int:
    if args.n_list is None or args.s_grid is None:
        raise _Usage("estimate-gamma requires --n-list and --s-grid")
    n_list = _parse_int_list(args.n_list)
    s_grid = _parse_grid(args.s_grid)
    if args.null and args.alt:
        diag = sim.estimate_gamma(
            _parse_distribution(args.null), _parse_distribution(args.alt), n_list, s_grid
        )
    elif args.family:
        if args.r is None:
            raise _Usage("estimate-gamma with --family requires --r")
        null, alt = families.build(args.family, _shape_params(args))
        diag = sim.estimate_gamma(null, lambda n: alt(args.r, n), n_list, s_grid)
    else:
        raise _Usage("estimate-gamma requires --family or --null/--alt")
    for n_from, n_to, s, delta in diag.flags:
        log.warning(
            "non-convergence: n=%d -> n=%d moved by %.4f at s=%s", n_from, n_to, delta, _fmt(s)
        )
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "n_list": list(diag.n_list),
                    "s_grid": [float(s) for s in diag.s_grid],
                    "ratios": diag.ratios.tolist(),
                    "flags": [list(f) for f in diag.flags],
                }
            ),
        )
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

    def add_common(p, *, family=False, sample=False, formats=False):
        if family:
            p.add_argument("--family", choices=list(families.FAMILIES))
            p.add_argument("--r", type=float)
            p.add_argument("--sigma2", type=float)
            p.add_argument("--tau", type=float)
            p.add_argument("--linf", type=float)
            p.add_argument("--beta", type=float)
        if sample:
            p.add_argument("--input", required=True, help="single-column CSV or newline-delimited sample")
        if formats:
            p.add_argument("--format", choices=["text", "csv", "json"], default="text")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("boundary", help="evaluate a detection boundary")
    add_common(p, family=True, formats=True)
    p.add_argument("--mode", choices=["beta-of-r", "r-of-beta"])
    p.add_argument("--r-grid", help="sweep the family parameter: lo:hi:step or comma list")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("exponent", help="Hellinger-distance exponent at a sparsity level")
    add_common(p, family=True, formats=True)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("check-alpha", help="admissibility check of an exponent function")
    add_common(p, family=True, formats=True)
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
    p.add_argument("--beta-grid")
    p.add_argument("--r-grid")
    p.add_argument("--n-list")
    p.add_argument("--replicates", type=int)
    p.add_argument("--tests", help="comma list from hc,lr,max")
    p.add_argument("--seed", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate-gamma", help="finite-n exponent-function diagnostic")
    add_common(p, family=True, formats=True)
    p.add_argument("--null")
    p.add_argument("--alt")
    p.add_argument("--n-list")
    p.add_argument("--s-grid")
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
