"""thermofit command line interface.

Subcommands: fit, predict, correlate, thermal (packages|heatsinks|junction|
select), plot.  Exit codes: 0 success, 1 data or parameter error, 2 solver
non-convergence.  Every error path prints one line to stderr starting with a
machine-greppable ``E_*`` code.  Set THERMOFIT_NO_COLOR to disable ANSI
styling.

Each command imports the modules it uses: ``predict`` loads only ``errors``,
and the ``thermal`` commands also ``thermal``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .errors import _GN_MAX_ITER, MalformedRow, ThermofitError, _require_finite


class UsageError(ThermofitError):
    code = "E_USAGE"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; 2 is reserved for solver
    # non-convergence here, so downgrade to 1 with a greppable prefix.
    def error(self, message):
        self.exit(1, f"E_USAGE: {message}\n")


def _use_color() -> bool:
    return sys.stdout.isatty() and "THERMOFIT_NO_COLOR" not in os.environ


def _load_series(args):
    from .dataset import builtin_series, parse_csv

    if args.builtin and args.input:
        raise UsageError("give either an input file or --builtin, not both")
    if args.builtin:
        return builtin_series(args.builtin)
    if not args.input:
        raise UsageError("an input file or --builtin is required")
    return parse_csv(_read_text(args.input))


def _read_text(path: str) -> str:
    """The file's text, read with newline="\\n"; MalformedRow naming the file unless it is UTF-8."""
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise MalformedRow(f"{path} is not valid UTF-8: {e}")


def _load_weights(path: str) -> list[float]:
    from .dataset import _number

    weights = []
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            weights.append(_number(line))
        except ValueError:
            raise MalformedRow(f"{path} line {lineno}: not a number: {line!r}")
    return weights


def _exit_status(report, note: str = "") -> int:
    """0, or 2 after one E_NOT_CONVERGED line if the step-response fit missed tolerance."""
    nl = report.nonlinear
    if nl is None or nl.converged:
        return 0
    print(
        f"E_NOT_CONVERGED: step-response solver stopped after {nl.iterations} "
        f"iterations without meeting tolerance{note}",
        file=sys.stderr,
    )
    return 2


def cmd_fit(args) -> int:
    from .regression import Axis
    from .report import _json_blocks, _text_blocks, build_report

    series = _load_series(args)
    axis = Axis(args.axis)
    weights = None
    if args.weights is not None:
        if axis is not Axis.Y_ON_X:
            raise UsageError("--weights applies to the y-on-x fit only")
        weights = _load_weights(args.weights)
    report = build_report(
        series,
        axis=axis,
        weights=weights,
        nonlinear=args.nonlinear,
        nl_max_iter=args.max_iter,
    )
    # build_report's columns hold only finite numbers, which both writers take,
    # so a report is written a block at a time and never stops part way
    if args.as_json:
        sys.stdout.writelines(_json_blocks(report))
    else:
        sys.stdout.writelines(_text_blocks(report, color=_use_color()))
    return _exit_status(report)


def cmd_predict(args) -> int:
    if args.report is not None:
        import json

        try:
            with open(args.report, encoding="utf-8") as fh:
                obj = json.load(fh)
            slope, intercept = float(obj["slope"]), float(obj["intercept"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise UsageError(f"{args.report} is not a usable fit report: {e}")
    else:
        if args.slope is None or args.intercept is None:
            raise UsageError("give -m and -b, or --report")
        slope, intercept = args.slope, args.intercept
    if not all(map(math.isfinite, (slope, intercept, args.x))):
        raise UsageError("slope, intercept, and x must be finite")
    y = slope * args.x + intercept
    _require_finite((y,), f"y = {slope!r} * {args.x!r} + {intercept!r} overflows")
    print(f"{y:.4f}")
    return 0


def cmd_correlate(args) -> int:
    from .regression import _correlation

    series = _load_series(args)
    r = _correlation(series.times, series.temps)
    if args.as_json:
        import json

        print(json.dumps({"r": r, "n": len(series.times)}))
    else:
        print(f"{r:.4f}")
    return 0


def cmd_thermal_catalog(args) -> int:
    from dataclasses import fields

    from . import thermal

    entries = getattr(thermal, args.catalog)()
    if args.csv:
        sys.stdout.write(thermal.catalog_to_csv(entries))
        return 0
    columns = [f.name for f in fields(entries[0])][1:]
    width = max(len(e.name) for e in entries)
    print("  ".join([f"{args.title:<{width}}"] + [f"{c:>8}" for c in columns]))
    for e in entries:
        print("  ".join([f"{e.name:<{width}}"] + [f"{getattr(e, c):>8.1f}" for c in columns]))
    return 0


def cmd_thermal_junction(args) -> int:
    from .thermal import junction_temperature

    print(f"{junction_temperature(args.power, args.resistance, args.ambient):.4f}")
    return 0


def cmd_thermal_select(args) -> int:
    from .thermal import builtin_heatsinks, select_heatsink

    entry = select_heatsink(
        builtin_heatsinks(), args.power, args.t_j_max, args.ambient, args.theta_jc
    )
    print(entry.name if entry is not None else "none")
    return 0


def cmd_plot(args) -> int:
    from .report import build_report
    from .svgplot import render_plot

    series = _load_series(args)
    report = build_report(series, nonlinear=args.nonlinear, nl_max_iter=args.max_iter)
    nl_params = report.nonlinear.params if report.nonlinear is not None else None
    svg = render_plot(series, report.linear, nl_params)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return _exit_status(report, "; the plotted curve is the best iterate found")


def _positive_int(text: str) -> int:
    """argparse type for iteration caps: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_input_args(sp) -> None:
    sp.add_argument("input", nargs="?", help="CSV series file")
    # dataset.BUILTIN_NAMES, written out so that the parser loads no dataset (tests pin it)
    sp.add_argument("--builtin", choices=("idle", "full"), help="use an embedded dataset")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="thermofit", description="Least-squares fits for heat-sink temperature profiles.")
    p.add_argument("--version", action="version", version=f"thermofit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a line (optionally a step-response curve) to a series")
    _add_input_args(fit)
    fit.add_argument("--axis", choices=("y-on-x", "x-on-y"), default="y-on-x")  # the regression.Axis values
    fit.add_argument("--weights", help="file with one positive weight per line")
    fit.add_argument("--nonlinear", action="store_true", help="also run the Gauss-Newton fit")
    fit.add_argument("--max-iter", type=_positive_int, default=_GN_MAX_ITER, help="Gauss-Newton iteration cap")
    fit.add_argument("--json", dest="as_json", action="store_true")
    fit.set_defaults(func=cmd_fit)

    predict = sub.add_parser("predict", help="evaluate y = m*x + b")
    predict.add_argument("-m", "--slope", type=float)
    predict.add_argument("-b", "--intercept", type=float)
    predict.add_argument("--report", help="JSON fit report to take m and b from")
    predict.add_argument("-x", type=float, required=True)
    predict.set_defaults(func=cmd_predict)

    corr = sub.add_parser("correlate", help="correlation coefficient of a series")
    _add_input_args(corr)
    corr.add_argument("--json", dest="as_json", action="store_true")
    corr.set_defaults(func=cmd_correlate)

    thermal = sub.add_parser("thermal", help="thermal-resistance catalogs and predictions")
    tsub = thermal.add_subparsers(dest="thermal_command", required=True)
    tp = tsub.add_parser("packages", help="package thermal resistances")
    tp.add_argument("--csv", action="store_true")
    tp.set_defaults(func=cmd_thermal_catalog, catalog="builtin_packages", title="package")
    th = tsub.add_parser("heatsinks", help="surface-mount heat sink resistances")
    th.add_argument("--csv", action="store_true")
    th.set_defaults(func=cmd_thermal_catalog, catalog="builtin_heatsinks", title="heat sink")
    tj = tsub.add_parser("junction", help="predict junction temperature")
    tj.add_argument("-p", "--power", type=float, required=True, help="dissipated power, W")
    tj.add_argument("-r", "--resistance", type=float, required=True, help="total resistance, degC/W")
    tj.add_argument("-a", "--ambient", type=float, required=True, help="ambient temperature, degC")
    tj.set_defaults(func=cmd_thermal_junction)
    ts = tsub.add_parser("select", help="pick the cheapest adequate builtin heat sink")
    ts.add_argument("-p", "--power", type=float, required=True)
    ts.add_argument("--t-j-max", type=float, required=True, help="junction limit, degC")
    ts.add_argument("-a", "--ambient", type=float, required=True)
    ts.add_argument("--theta-jc", type=float, required=True, help="junction-to-case resistance, degC/W")
    ts.set_defaults(func=cmd_thermal_select)

    plot = sub.add_parser("plot", help="write an SVG of the data and fits")
    _add_input_args(plot)
    plot.add_argument("-o", "--output", required=True, help="SVG output path")
    plot.add_argument("--nonlinear", action="store_true", help="include the step-response curve")
    plot.add_argument("--max-iter", type=_positive_int, default=_GN_MAX_ITER)
    plot.set_defaults(func=cmd_plot)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ThermofitError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"E_IO: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
