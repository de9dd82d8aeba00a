"""Command-line front end.

Subcommands:

eval       certified bound breakdown for one width and regime
verify     pairwise certification sweep over the built-in width sets
field      field-model spot checks (flux, divergence, gauge, supnorms)
table      published threshold tables (big-sigma, small-sigma, radius, angle)
threshold  width at which the bound crosses a target
sweep      bound components over a width range (CSV)
params     geometry-scale robustness sweep

Every report goes through one writer.  ``eval``, ``threshold`` and
``params`` print a text report, or under ``--json`` one JSON object;
``verify``, ``field``, ``table`` and ``sweep`` print CSV rows, or under
``--json`` the object ``{**meta, "rows": [one object per row]}``, whose
``meta`` keys are the command's summary (``verify``: pairs, failures,
worst margin; ``field``: check, ok; ``table``: its name).  JSON is printed with
``indent=2, sort_keys=True``.

Exit codes: 0 success (and, for verify/field, every check passed),
1 a certified check failed, 2 usage or configuration error, with a
message and no traceback (an unwritable ``--out`` is found before the
command's work starts; ``sweep --points`` is an integer from 2 to
``MAX_POINTS``, checked before anything is allocated).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .bounds import (
    REGIMES,
    calibrated_coefficients,
    interaction_probability,
    params_sweep,
    plateau_interval,
    regime_bound,
    size_table,
    angle_table,
    radius_table,
    sweep_rows,
    ten_pow,
    threshold_sigma,
)
from .certify import CSV_COLUMNS, GridTooFine, csv_rows, csv_text, sweep
from .config import ExperimentConfig, get_config, parse_config_file
from .fields import FieldModel, supnorm_constants
from .partition import SET_NAMES
from .xreal import sci_strings


def _positive_float(text: str) -> float:
    """argparse type for widths and grid steps: a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


MAX_POINTS = 100_000  # widths a sweep may print (0.7 s, 164 MB peak RSS on a 2-core Xeon)


def _int_from(lo: int, hi: Optional[int] = None):
    """argparse type: an integer from ``lo`` up to ``hi`` (no cap when None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            span = f">= {lo}" if hi is None else f"from {lo} to {hi}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {text!r}")
        return value

    return parse


def _add_common(parser: argparse.ArgumentParser, root: bool = False) -> None:
    # subparsers suppress defaults so a root-level flag survives; the
    # root parser supplies the real fallbacks
    d = None if root else argparse.SUPPRESS
    flag_d = False if root else argparse.SUPPRESS
    parser.add_argument("--magnet", choices=("k1", "k2"), default=d,
                        help="magnet geometry (default k2)")
    parser.add_argument("--energy", choices=("e1", "e2", "e3"), default=d,
                        help="beam energy (default e1, 150 keV)")
    parser.add_argument("--config", metavar="FILE", default=d,
                        help="key = value override file")
    parser.add_argument("--out", metavar="FILE", default=d,
                        help="write the report here instead of stdout")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        default=flag_d, help="emit JSON instead of text/CSV")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ab-certify",
        description="certified interference bounds for a shielded-solenoid beam",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("eval", help="bound breakdown at one width")
    _add_common(p)
    p.add_argument("--sigma", type=_positive_float, required=True, help="beam width in cm")
    p.add_argument("--regime", choices=REGIMES, default="uniform")

    p = sub.add_parser("verify", help="pairwise certification sweep")
    _add_common(p)
    p.add_argument("--set", dest="sets", action="append", default=None,
                   metavar="NAME", help="sigma1..sigma11 or all (repeatable)")
    p.add_argument("--delta0", type=_positive_float, default=None,
                   help="grid fineness override (default: per-pair rule)")
    p.add_argument("--jobs", type=_int_from(1), default=1,
                   help="worker processes (at most the CPU count)")

    p = sub.add_parser("field", help="field-model spot checks")
    _add_common(p)
    p.add_argument("--check", choices=("flux", "divergence", "gauge", "supnorms"),
                   required=True)

    p = sub.add_parser("table", help="published threshold tables")
    _add_common(p)
    p.add_argument("--which", choices=("big-sigma", "small-sigma", "radius", "angle"),
                   required=True)

    p = sub.add_parser("threshold", help="width at which the bound crosses a target")
    _add_common(p)
    p.add_argument("--target", required=True, metavar="1eK",
                   help="target bound, e.g. 1e-7")
    p.add_argument("--branch", choices=("big", "small"), required=True)

    p = sub.add_parser("sweep", help="bound components over a width range")
    _add_common(p)
    p.add_argument("--from", dest="lo", type=_positive_float, required=True)
    p.add_argument("--to", dest="hi", type=_positive_float, required=True)
    p.add_argument("--points", type=_int_from(2, MAX_POINTS), default=50,
                   help=f"number of widths, 2 to {MAX_POINTS} (default 50)")
    p.add_argument("--scale", choices=("log", "linear"), default="log")

    p = sub.add_parser("params", help="geometry-scale robustness sweep")
    _add_common(p)
    p.add_argument("--sweep", action="store_true", required=True,
                   help="run the scale sweep")
    p.add_argument("--eps-scales", default="0.5,1,2",
                   help="comma-separated skin-width factors")
    p.add_argument("--delta-scales", default="0.5,1,2",
                   help="comma-separated fattening factors")

    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    magnet = args.magnet or "k2"
    energy = args.energy or "e1"
    overrides: Dict[str, str] = {}
    if args.config:
        overrides.update(parse_config_file(args.config))
    return get_config(magnet, energy, overrides)


def _finite_or_null(value):
    """``value`` with each non-finite float in it, at any depth of dicts and
    lists, made None: strict JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _write_report(args: argparse.Namespace, report: dict, text: str) -> None:
    """Write ``report`` as strict JSON under ``--json`` (a non-finite float
    as null), else ``text``, to the --out file or stdout."""
    if args.as_json:
        report = _finite_or_null(report)
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    args.stream.write(text)


def _write_rows(args: argparse.Namespace, header: Sequence[str], rows, **meta) -> None:
    """Write string ``rows`` as CSV, or under ``--json`` as ``{**meta, "rows": [...]}``
    in strict JSON: only ``meta`` can hold a float, so only it is walked for nulls."""
    if args.as_json:
        report = {**_finite_or_null(meta), "rows": [dict(zip(header, row)) for row in rows]}
        args.stream.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    else:
        args.stream.write(csv_text(header, rows))


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------


def _cmd_eval(args, cfg: ExperimentConfig) -> int:
    rep = regime_bound(cfg, args.sigma, args.regime)
    # the four components and the probability, printed in one call
    names = ("size_term", "spread_term", "additive", "total", "probability")
    logs = [*rep._logs(), interaction_probability(cfg, args.sigma)]
    rows = list(zip(names, sci_strings(logs)))
    report = {
        "sigma": args.sigma,
        "regime": args.regime,
        "poly_value": rep.poly_value,
        "components": dict(rows[:4]),
        "interaction_probability": rows[4][1],
    }
    lines = [f"width sigma = {args.sigma:.6g} cm, regime = {args.regime}"]
    lines += [f"  {name:<12} {value}" for name, value in rows]
    _write_report(args, report, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args, cfg: ExperimentConfig) -> int:
    sets: Optional[List[str]] = None
    if args.sets:
        names: List[str] = []
        for chunk in args.sets:
            names.extend(s.strip() for s in chunk.split(",") if s.strip())
        if not names:
            print("argument --set: no set named", file=sys.stderr)
            return 2
        if "all" in names:
            sets = None
        else:
            bad = [n for n in names if n not in SET_NAMES]
            if bad:
                print(f"unknown set(s): {', '.join(bad)}", file=sys.stderr)
                return 2
            sets = names
    calibrated_coefficients(cfg)  # non-finite ones raise here, before any worker starts
    start = time.perf_counter()
    try:
        results = sweep(cfg, sets, delta0=args.delta0, jobs=args.jobs)
    except GridTooFine as exc:  # other ValueErrors are main's "error:"
        print(f"argument --delta0: {exc}", file=sys.stderr)
        return 2
    swept = time.perf_counter()
    failures = sum(not r.passed for r in results)
    _write_rows(args, CSV_COLUMNS, csv_rows(results), pairs=len(results), failures=failures,
                worst_margin_log10=min((r.margin_log10 for r in results), default=None))
    end = time.perf_counter()
    wall = end - start
    print(
        f"checked {len(results)} pairs: "
        f"{len(results) - failures} passed, {failures} failed "
        f"in {wall:.1f} s (sweep {swept - start:.1f} s, output {end - swept:.1f} s; "
        f"{len(results) / wall:,.0f} pairs/s)",
        file=sys.stderr,
    )
    return 0 if not failures else 1


def _fd_divergence(model: FieldModel, x, h: float) -> float:
    div = 0.0
    for i in range(3):
        xp = list(x)
        xm = list(x)
        xp[i] += h
        xm[i] -= h
        div += float(model.b_field(xp)[i] - model.b_field(xm)[i]) / (2.0 * h)
    return div


def _cmd_field(args, cfg: ExperimentConfig) -> int:
    model = FieldModel(cfg)
    mag = cfg.magnet
    checks: List[tuple] = []  # (x, quantity, value, bound, passed)
    flux = cfg.flux
    if args.check == "flux":
        tol = 1e-9 * max(1.0, abs(flux))
        for r in np.linspace(1e-7, mag.r1_tilde, 7):
            val = model.flux_linked(float(r))
            checks.append(((r, 0.0, 0.0), "flux_linked", val, flux, abs(val - flux) <= tol))
        for r in np.linspace(mag.r2_tilde, 2.0 * mag.r2_tilde, 4):
            val = model.flux_linked(float(r))
            checks.append(((r, 0.0, 0.0), "flux_linked", val, 0.0, abs(val) <= tol))
    elif args.check == "divergence":
        h = 1e-4 * min(cfg.eps_tilde, cfg.delta_tilde)
        pts = [
            (0.5 * (mag.r1_tilde + mag.r2_tilde), 0.0, 0.0),
            (mag.r1_tilde + cfg.eps_tilde, 1e-6, 0.3 * mag.h_tilde),
            (mag.r2_tilde - cfg.eps_tilde, -2e-5, -0.5 * mag.h_tilde),
            (0.6 * (mag.r1_tilde + mag.r2_tilde), 3e-5, 0.9 * mag.h_tilde),
        ]
        for x in pts:
            jac = model.b_partials(x)
            scale = float(np.abs(jac).sum()) + abs(flux) / model.normalisation
            val = abs(_fd_divergence(model, x, h))
            bound = 1e-4 * scale
            checks.append((x, "div_b_fd", val, bound, val <= bound))
    elif args.check == "gauge":
        tol = 1e-9 * max(1.0, abs(flux))
        below = [(2e-4, 0.0, -5e-6), (1e-5, 1e-5, -2e-6)]
        for x in below:
            val = model.lambda_gauge(x)
            checks.append((x, "lambda_below_slab", val, 0.0, abs(val) <= tol))
        above = [(1e-4, 0.0, 5e-6), (3e-4, 1e-6, 0.0)]
        for x in above:
            val = model.lambda_gauge(x)
            expected = flux if (x[0] ** 2 + x[1] ** 2) ** 0.5 >= mag.r2_tilde or x[2] >= mag.h_tilde else None
            if expected is None:
                continue
            checks.append((x, "lambda_linked", val, expected, abs(val - expected) <= tol))
        inner = [(1e-5, 0.0, 0.0), (5e-5, 5e-5, 2e-7)]
        for x in inner:
            val = model.lambda_gauge(x)
            expected = flux * model.axial_mass_below(x[2]) / model.w_axial
            checks.append((x, "lambda_inner", val, expected, abs(val - expected) <= tol))
    else:  # supnorms
        sigma = 1e-7
        consts = supnorm_constants(cfg, sigma)
        rng = np.random.default_rng(20260813)
        n = 160
        rs = rng.uniform(1e-7, 1.5 * mag.r2_tilde, n)
        phis = rng.uniform(0.0, 2.0 * math.pi, n)
        zs = rng.uniform(-2.0 * mag.h_tilde, 2.0 * mag.h_tilde, n)
        scale = abs(flux) or 1.0  # flux 0: every field vanishes, and 0 is its sup
        worst: Dict[str, tuple] = {}

        def consider(key: str, x, value: float):
            if key not in worst or value > worst[key][1]:
                worst[key] = (x, value)

        for r, phi, z in zip(rs, phis, zs):
            x = (r * math.cos(phi), r * math.sin(phi), z)
            bvec = model.b_field(x)
            jac = model.b_partials(x)
            consider("b", x, float(np.linalg.norm(bvec)) / scale)
            consider("b_perp", x, float(np.abs(jac[:, :2]).max()) / scale)
            consider("b_axial", x, float(np.abs(jac[:, 2]).max()) / scale)
            consider("a", x, abs(model.a3(x)) / scale)
            apar = model.a3_partials(x)
            consider("a_perp", x, float(np.abs(apar[:2]).max()) / scale)
            consider("a_axial", x, abs(float(apar[2])) / scale)
            consider("chi", x, model.chi(x, sigma))
            cpar = model.chi_partials(x, sigma)
            consider("chi_perp", x, float(np.abs(cpar[:2]).max()))
            consider("chi_axial", x, abs(float(cpar[2])))
            consider("chi_p2", x, abs(model.chi_curvature(x, sigma)))
        for key in ("b", "b_perp", "b_axial", "a", "a_perp", "a_axial",
                    "chi", "chi_perp", "chi_axial", "chi_p2"):
            x, val = worst[key]
            bound = consts[key]
            checks.append((x, f"sup_{key}", val, bound, val <= bound))

    ok = all(passed for *_, passed in checks)
    rows = [[f"{x[0]:.9g}", f"{x[1]:.9g}", f"{x[2]:.9g}",
             quantity, f"{value:.12e}", f"{bound:.12e}"]
            for x, quantity, value, bound, _ in checks]
    header = ("x1", "x2", "x3", "quantity", "value", "bound")
    _write_rows(args, header, rows, check=args.check, ok=ok)
    return 0 if ok else 1


_TABLE_SPECS = {
    "big-sigma": ("sigma_over_r1", lambda cfg: size_table(cfg, "big"), "{:.5f}"),
    "small-sigma": ("sigma_over_r1", lambda cfg: size_table(cfg, "small"), "{:.4e}"),
    "radius": ("radius_over_r1", lambda cfg: radius_table(cfg), "{:.5f}"),
    "angle": ("angle_deg", lambda cfg: angle_table(cfg), "{:.4f}"),
}


def _cmd_table(args, cfg: ExperimentConfig) -> int:
    column, builder, fmt = _TABLE_SPECS[args.which]
    rows = []
    for k, value in builder(cfg):
        if value is None:
            rows.append([str(k), "undefined"])
        else:
            rows.append([str(k), fmt.format(value)])
    _write_rows(args, ("target_exponent", column), rows, table=args.which)
    return 0


def _target_log10(text: str) -> float:
    """log10 of a positive finite decimal target; ValueError says why not.

    A target outside the normal floats (2e-400 is 0.0 as a float) has
    its mantissa and exponent parsed apart.
    """
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"cannot parse target {text!r}") from None
    if sys.float_info.min <= v < math.inf:
        return math.log10(v)
    mantissa, _, exponent = text.lower().partition("e")
    m = float(mantissa)
    if not 0.0 < m < math.inf:
        raise ValueError("target must be positive and finite")
    return math.log10(m) + int(exponent or 0)


def _cmd_threshold(args, cfg: ExperimentConfig) -> int:
    try:
        target = ten_pow(_target_log10(args.target.strip()))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        sigma = threshold_sigma(cfg, target, args.branch)
    except ValueError as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        return 2
    lo, hi = plateau_interval(cfg)
    report = {
        "target": args.target,
        "branch": args.branch,
        "sigma": sigma,
        "sigma_over_r1": sigma / cfg.r1,
        "plateau": [lo, hi],
    }
    _write_report(
        args,
        report,
        f"branch = {args.branch}, target = {args.target}\n"
        f"sigma = {sigma:.6e} cm  (sigma/r1 = {sigma / cfg.r1:.6e})\n"
        f"bound <= 1e-99 plateau: [{lo:.6e}, {hi:.6e}] cm\n",
    )
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    if not args.hi > args.lo:
        print("need 0 < --from < --to", file=sys.stderr)
        return 2
    rows = sweep_rows(cfg, args.lo, args.hi, args.points, args.scale)
    rows = [[f"{sigma:.9e}", *terms] for sigma, *terms in rows]
    _write_rows(args, ("sigma", "size_term", "angle_term", "additive", "total"), rows)
    return 0


def _cmd_params(args, cfg: ExperimentConfig) -> int:
    try:
        eps_scales = [float(s) for s in args.eps_scales.split(",") if s.strip()]
        delta_scales = [float(s) for s in args.delta_scales.split(",") if s.strip()]
    except ValueError:
        print("scale lists must be comma-separated numbers", file=sys.stderr)
        return 2
    rows = params_sweep(cfg, eps_scales, delta_scales)
    # the text is CSV; the JSON keeps each row's floats unformatted
    text_rows = []
    for row in rows:
        tail = ((row["worst_bound"], f"{row['worst_log10']:.4f}") if row["status"] == "ok"
                else (row["reason"], ""))
        text_rows.append([f"{row['eps_scale']:.6g}", f"{row['delta_scale']:.6g}", row["status"], *tail])
    header = ("eps_scale", "delta_scale", "status", "worst_bound", "worst_log10")
    _write_report(args, {"rows": rows}, csv_text(header, text_rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "field": _cmd_field,
        "table": _cmd_table,
        "threshold": _cmd_threshold,
        "sweep": _cmd_sweep,
        "params": _cmd_params,
    }[args.command]
    try:
        stream = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"argument --out: {exc.strerror}: {args.out!r}", file=sys.stderr)
        return 2
    with stream as args.stream:
        try:
            return handler(args, cfg)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
