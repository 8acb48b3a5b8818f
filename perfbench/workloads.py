"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, runs one op with
``op`` (the timed unit of work), checks an op's output with ``check`` (None
means correct, otherwise the reason it is wrong), runs the same op with spans
around each call into thermofit with ``traced_op``, and turns the spans of
its traced ops into per-layer metrics with ``layer_metrics``.

The inputs are generated with :mod:`random` and :mod:`math` only, so they do
not depend on thermofit or on numpy's generators.  numpy is used for one
thing: the independent ``polyfit`` reference in the logger-fit check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict, namedtuple

import numpy as np

from spans import Recorder, self_time
from thermofit import (
    Sample,
    Series,
    StepModelParams,
    build_report,
    builtin_heatsinks,
    builtin_series,
    cli,
    gauss_newton,
    gradient_descent,
    ols_fit,
    parse_csv,
    render_json,
    render_text,
    to_csv,
    validate,
)
from thermofit.svgplot import render_plot

LOGGER_N = 100_000
STEP_TIMES = tuple(float(t) for t in range(0, 65, 5))
STEP_CASES = 20
# README values for the full-load series, checked to the C7 tolerance.
PAPER_FIT = {"slope": 0.72875, "intercept": 17.505, "r": 0.9664}
C7_TOL = 1e-3
C5_TOL = 1e-6
FULL_GN_SSE = 168.494014394
REL_TOL = 1e-9


# ---------------------------------------------------------------- generators


def logger_rows(seed: int, n: int = LOGGER_N) -> list[tuple[float, float]]:
    """A 1 Hz logger series: step from 20 to 60 degC, tau = n/3, noise sigma 0.3 degC."""
    rng = random.Random(seed)
    tau = n / 3.0
    return [(float(t), 60.0 - 40.0 * math.exp(-t / tau) + rng.gauss(0.0, 0.3)) for t in range(n)]


def logger_csv(rows: list[tuple[float, float]], label: str) -> str:
    """The rows in thermofit's CSV input format, floats written with repr."""
    lines = [f"# label: {label}", "# power_w: 150.0", "time_s,temperature_c"]
    lines += [f"{t!r},{y!r}" for t, y in rows]
    return "\n".join(lines) + "\n"


def step_cases(seed: int, count: int = STEP_CASES):
    """Noiseless step responses drawn as in the test suite's nonlinear cases.

    Returns (truth, init, rows) triples: truth (t0, tinf, tau) with t0 in
    [10, 30], tinf in [40, 90], tau in [5, 30]; an init within +-50 % of each
    parameter; rows sampled at t = 0..60 s in 5 s steps.
    """
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        t0, tinf, tau = rng.uniform(10.0, 30.0), rng.uniform(40.0, 90.0), rng.uniform(5.0, 30.0)
        init = (t0 * rng.uniform(0.5, 1.5), tinf * rng.uniform(0.5, 1.5), tau * rng.uniform(0.5, 1.5))
        rows = [(t, tinf + (t0 - tinf) * math.exp(-t / tau)) for t in STEP_TIMES]
        cases.append(((t0, tinf, tau), init, rows))
    return cases


def to_series(rows, label: str, power_w: float | None = None) -> Series:
    return Series(label=label, samples=tuple(Sample(t, y) for t, y in rows), power_w=power_w)


# ------------------------------------------------------------------- helpers


class OpTrace:
    """The spans of one traced op."""

    def __init__(self, spans):
        self.spans = spans

    def named(self, name: str):
        return [s for s in self.spans if s.name == name]

    def one(self, name: str):
        (span,) = self.named(name)
        return span

    def ms(self, name: str) -> float:
        """Summed self time, in ms, of every span with this name."""
        return 1000.0 * sum(self_time(s, self.spans) for s in self.named(name))


def the_count(values, name: str):
    """A count that must repeat exactly across the ops of a run."""
    distinct = set(values)
    if len(distinct) != 1:
        raise RuntimeError(f"count {name} varied within one run: {sorted(distinct)}")
    return distinct.pop()


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def captured_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sse_rounding_floor(series: Series) -> float:
    """The SSE that rounding alone leaves at an exact fit.

    On noiseless series both solvers reach the optimum, and their SSEs are
    then rounding noise (0.0 against 5e-29, say), which a relative
    comparison cannot order.
    """
    top = max(abs(s.temperature_c) for s in series.samples)
    return len(series.samples) * (4.0 * sys.float_info.epsilon * top) ** 2


def svg_shape_error(svg: str, n: int) -> str | None:
    if not svg.endswith("</svg>\n"):
        return "SVG is truncated"
    if svg.count("<line ") != 1:
        return f"SVG has {svg.count('<line ')} <line> elements, expected 1"
    if svg.count("<circle ") != n:
        return f"SVG has {svg.count('<circle ')} <circle> elements, expected {n}"
    return None


# ----------------------------------------------------------------- paper-cli

INVOCATIONS = (
    ("fit-json", ("fit", "--builtin", "full", "--json")),
    ("fit-nonlinear", ("fit", "--builtin", "full", "--nonlinear")),
    ("correlate", ("correlate", "--builtin", "idle")),
    ("predict", ("predict", "-m", "0.7288", "-b", "17.504", "-x", "60")),
    ("thermal-select", ("thermal", "select", "-p", "0.5", "--t-j-max", "63.4", "-a", "20.2", "--theta-jc", "3")),
    ("plot", ("plot", "--builtin", "full", "--nonlinear", "-o")),
)

CliResult = namedtuple("CliResult", "name returncode stdout stderr svg")

IMPORT_PROBE = (
    "import sys; before = len(sys.modules); import thermofit.cli; "
    "print(len(sys.modules) - before, int('numpy' in sys.modules))"
)


class PaperCli:
    """One ``python -m thermofit`` subprocess per op, round-robin over six invocations."""

    name = "paper-cli"
    round_size = len(INVOCATIONS)
    samples_per_op = None
    child_rss = True

    def __init__(self, src_dir: str):
        self.env = {**os.environ, "PYTHONPATH": src_dir}
        self.svg_ref = None

    def setup(self, seed: int, workdir: str) -> None:
        # The inputs are the builtin data; the seed only rotates where the
        # round-robin starts.
        self.offset = seed % len(INVOCATIONS)
        self.workdir = workdir
        self.svg_path = os.path.join(workdir, "paper.svg")
        self.full = builtin_series("full")
        self.full_report = build_report(self.full, nonlinear=True)

    def release(self) -> None:
        pass

    def _invocation(self, i: int):
        name, argv = INVOCATIONS[(self.offset + i) % len(INVOCATIONS)]
        if name == "plot":
            argv = argv + (self.svg_path,)
        return name, argv

    def _spawn(self, argv, timeout: float = 120.0) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            env=self.env,
            cwd=self.workdir,
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def op(self, i: int) -> CliResult:
        name, argv = self._invocation(i)
        proc = self._spawn(("-m", "thermofit", *argv))
        svg = None
        if name == "plot" and proc.returncode == 0:
            with open(self.svg_path, encoding="utf-8") as fh:
                svg = fh.read()
        return CliResult(name, proc.returncode, proc.stdout, proc.stderr, svg)

    def check(self, out: CliResult) -> str | None:
        if out.returncode != 0:
            return f"{out.name}: exit code {out.returncode}: {out.stderr.strip()[:200]}"
        if out.name == "fit-json":
            obj = json.loads(out.stdout)
            for key, want in PAPER_FIT.items():
                if not abs(obj[key] - want) <= C7_TOL:
                    return f"fit-json: {key}={obj[key]!r}, expected {want} +- {C7_TOL}"
        elif out.name == "fit-nonlinear":
            if "(converged)" not in out.stdout:
                return "fit-nonlinear: the step-response fit is not reported as converged"
        elif out.name == "correlate":
            if not abs(float(out.stdout) - 0.9667) <= C7_TOL:
                return f"correlate: r={out.stdout.strip()!r}, expected 0.9667"
        elif out.name == "predict":
            want = f"{0.7288 * 60 + 17.504:.4f}"
            if out.stdout.strip() != want:
                return f"predict: {out.stdout.strip()!r}, expected {want!r}"
        elif out.name == "thermal-select":
            if out.stdout.strip() not in {e.name for e in builtin_heatsinks()}:
                return f"thermal-select: {out.stdout.strip()!r} is not a catalog heat sink"
        elif out.name == "plot":
            try:
                ET.fromstring(out.svg)
            except ET.ParseError as e:
                return f"plot: SVG does not parse: {e}"
            if self.svg_ref is None:
                self.svg_ref = out.svg
            elif out.svg != self.svg_ref:
                return "plot: SVG bytes differ from the first plot of this run"
        return None

    def traced_op(self, i: int, rec: Recorder, op_id: int) -> CliResult:
        name, argv = self._invocation(i)
        with rec.span("op", op_id, invocation=name):
            out = self.op(i)
        # The subprocess cannot be traced from outside, so its parts are
        # timed on their own: a bare interpreter, a fresh import of the CLI,
        # and a warm in-process cli.main on the same arguments.
        with rec.span("replay", op_id):
            with rec.span("import.interpreter"):
                self._spawn(("-c", "pass")).check_returncode()
            with rec.span("import.cli") as s:
                probe = self._spawn(("-c", IMPORT_PROBE))
            probe.check_returncode()
            modules, numpy_loaded = map(int, probe.stdout.split())
            s.attrs.update(modules=modules, numpy=numpy_loaded)
            with rec.span("cli.main", invocation=name):
                code, _, _ = captured_main(argv)
            if code != 0:
                raise RuntimeError(f"in-process cli.main {name} exited {code}")
            if name == "plot":
                nl = self.full_report.nonlinear
                with rec.span("svgplot.render_plot") as s:
                    svg = render_plot(self.full, self.full_report.linear, nl.params)
                s.attrs["bytes"] = len(svg.encode("utf-8"))
        return out

    def layer_metrics(self, traces: list[OpTrace]) -> dict:
        interp, import_cli, modules, numpy_loaded = [], [], [], []
        main = defaultdict(list)
        plot_ms, plot_bytes = [], []
        for tr in traces:
            interp.append(tr.ms("import.interpreter"))
            import_cli.append(tr.ms("import.cli") - tr.ms("import.interpreter"))
            probe = tr.one("import.cli")
            modules.append(probe.attrs["modules"])
            numpy_loaded.append(probe.attrs["numpy"])
            m = tr.one("cli.main")
            main[m.attrs["invocation"]].append(tr.ms("cli.main"))
            for s in tr.named("svgplot.render_plot"):
                plot_ms.append(tr.ms("svgplot.render_plot"))
                plot_bytes.append(s.attrs["bytes"])
        per_invocation = {name: statistics.median(main[name]) for name, _ in INVOCATIONS}
        out = {
            "import.interpreter_ms": (statistics.median(interp), "ms"),
            "import.cli_ms": (statistics.median(import_cli), "ms"),
            "import.numpy_loaded": (the_count(numpy_loaded, "import.numpy_loaded"), "count"),
            "import.modules_loaded": (the_count(modules, "import.modules_loaded"), "count"),
            "cli.main_ms": (statistics.fmean(per_invocation.values()), "ms"),
        }
        for name, value in per_invocation.items():
            out[f"cli.main_ms.{name}"] = (value, "ms")
        out["svgplot.render_plot_ms"] = (statistics.median(plot_ms), "ms")
        out["svgplot.render_plot_bytes"] = (the_count(plot_bytes, "svgplot.render_plot_bytes"), "count")
        return out


# ---------------------------------------------------------------- logger-fit


class LoggerFit:
    """In-process ``cli.main(["fit", <csv>, "--nonlinear", "--json"])`` on a logger CSV."""

    name = "logger-fit"
    round_size = 1
    child_rss = False

    def __init__(self, src_dir: str, n: int = LOGGER_N):
        self.n = n
        self.samples_per_op = n

    def setup(self, seed: int, workdir: str) -> None:
        self.release()
        rows = logger_rows(seed, self.n)
        self.text = logger_csv(rows, f"logger-{seed}")
        self.path = os.path.join(workdir, "logger.csv")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        t, y = np.array(rows).T
        self.ref_slope, self.ref_intercept = (float(v) for v in np.polyfit(t, y, 1))

    def release(self) -> None:
        self.text = None

    def op(self, i: int):
        return captured_main(("fit", self.path, "--nonlinear", "--json"))

    def check(self, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        obj = json.loads(stdout)
        if obj["n"] != self.n or len(obj["residuals"]) != self.n:
            return f"JSON has n={obj['n']} and {len(obj['residuals'])} rows, expected {self.n}"
        for key, ref in (("slope", self.ref_slope), ("intercept", self.ref_intercept)):
            if not rel_diff(obj[key], ref) <= REL_TOL:
                return f"{key}={obj[key]!r} differs from numpy.polyfit {ref!r} by more than {REL_TOL} relative"
        if not obj["nonlinear"]["sse"] <= obj["sse"]:
            return f"nonlinear SSE {obj['nonlinear']['sse']!r} exceeds linear SSE {obj['sse']!r}"
        return None

    def traced_op(self, i: int, rec: Recorder, op_id: int):
        with rec.span("op", op_id):
            with rec.span("cli.main"):
                out = self.op(i)
        # cli.main and build_report call other layers internally; those
        # calls are repeated on their own, on the same input, so that the
        # outer functions' self time can be taken as the difference.
        with rec.span("replay", op_id):
            with rec.span("dataset.parse_csv"):
                series = parse_csv(self.text)
            with rec.span("dataset.validate"):
                validate(series)
            with rec.span("report.build_report"):
                report = build_report(series, nonlinear=True)
            points = series.points()
            with rec.span("regression.ols_fit"):
                ols_fit(points)
            with rec.span("stepmodel.gauss_newton") as s:
                nl = gauss_newton(series)
            s.attrs.update(iterations=nl.iterations, converged=nl.converged)
            with rec.span("report.render_json") as s:
                text = render_json(report)
            s.attrs["bytes"] = len(text.encode("utf-8"))
        return out

    def layer_metrics(self, traces: list[OpTrace]) -> dict:
        def med(f):
            return statistics.median(f(tr) for tr in traces)

        gn = [tr.one("stepmodel.gauss_newton") for tr in traces]
        return {
            "cli.main_self_ms": (
                med(lambda tr: tr.ms("cli.main") - tr.ms("dataset.parse_csv") - tr.ms("report.build_report") - tr.ms("report.render_json")),
                "ms",
            ),
            "dataset.parse_csv_ms": (med(lambda tr: tr.ms("dataset.parse_csv")), "ms"),
            "dataset.validate_ms": (med(lambda tr: tr.ms("dataset.validate")), "ms"),
            "dataset.samples": (self.n, "count"),
            "regression.ols_fit_ms": (med(lambda tr: tr.ms("regression.ols_fit")), "ms"),
            "stepmodel.gauss_newton_ms": (med(lambda tr: tr.ms("stepmodel.gauss_newton")), "ms"),
            "stepmodel.gauss_newton_iterations": (the_count([s.attrs["iterations"] for s in gn], "gauss_newton_iterations"), "count"),
            "stepmodel.gauss_newton_converged_ratio": (sum(s.attrs["converged"] for s in gn) / len(gn), "ratio"),
            "report.build_report_self_ms": (
                med(lambda tr: tr.ms("report.build_report") - tr.ms("regression.ols_fit") - tr.ms("stepmodel.gauss_newton")),
                "ms",
            ),
            "report.render_json_ms": (med(lambda tr: tr.ms("report.render_json")), "ms"),
            "report.render_json_bytes": (the_count([tr.one("report.render_json").attrs["bytes"] for tr in traces], "render_json_bytes"), "count"),
        }


# ------------------------------------------------------------- logger-export

ExportResult = namedtuple("ExportResult", "csv text svg")


class LoggerExport:
    """``to_csv``, ``render_text`` and ``render_plot`` of a logger Series built in code."""

    name = "logger-export"
    round_size = 1
    child_rss = False

    def __init__(self, src_dir: str, n: int = LOGGER_N):
        self.n = n
        self.samples_per_op = n

    def setup(self, seed: int, workdir: str) -> None:
        self.release()
        self.series = to_series(logger_rows(seed, self.n), f"logger-{seed}", 150.0)
        self.report = build_report(self.series, nonlinear=True)

    def release(self) -> None:
        self.series = self.report = None

    def op(self, i: int) -> ExportResult:
        return ExportResult(
            to_csv(self.series),
            render_text(self.report),
            render_plot(self.series, self.report.linear, self.report.nonlinear.params),
        )

    def check(self, out: ExportResult) -> str | None:
        if parse_csv(out.csv) != self.series:
            return "parse_csv(to_csv(series)) differs from the series"
        if f"\nn           {self.n}\n" not in out.text:
            return f"text report does not state n = {self.n}"
        return svg_shape_error(out.svg, self.n)

    def traced_op(self, i: int, rec: Recorder, op_id: int) -> ExportResult:
        with rec.span("op", op_id):
            with rec.span("dataset.to_csv"):
                csv = to_csv(self.series)
            with rec.span("report.render_text"):
                text = render_text(self.report)
            with rec.span("svgplot.render_plot") as s:
                svg = render_plot(self.series, self.report.linear, self.report.nonlinear.params)
            s.attrs["bytes"] = len(svg.encode("utf-8"))
        with rec.span("replay", op_id):
            with rec.span("dataset.points"):
                self.series.points()
        return ExportResult(csv, text, svg)

    def layer_metrics(self, traces: list[OpTrace]) -> dict:
        def med(name):
            return statistics.median(tr.ms(name) for tr in traces)

        return {
            "dataset.points_ms": (med("dataset.points"), "ms"),
            "dataset.to_csv_ms": (med("dataset.to_csv"), "ms"),
            "dataset.samples": (self.n, "count"),
            "report.render_text_ms": (med("report.render_text"), "ms"),
            "svgplot.render_plot_ms": (med("svgplot.render_plot"), "ms"),
            "svgplot.render_plot_bytes": (the_count([tr.one("svgplot.render_plot").attrs["bytes"] for tr in traces], "render_plot_bytes"), "count"),
        }


# ---------------------------------------------------------------- step-suite

StepResult = namedtuple("StepResult", "label truth gn gd")


class StepSuite:
    """``gauss_newton`` and ``gradient_descent`` on builtin full plus 20 seeded step series."""

    name = "step-suite"
    round_size = 1
    samples_per_op = None
    child_rss = False

    def __init__(self, src_dir: str, cases: int = STEP_CASES):
        self.cases = cases

    def setup(self, seed: int, workdir: str) -> None:
        # (label, series, init, truth); the builtin full series starts from
        # the default init and has no known truth.
        self.suite = [("full", builtin_series("full"), None, None)]
        for k, (truth, init, rows) in enumerate(step_cases(seed, self.cases)):
            self.suite.append((f"synthetic-{k}", to_series(rows, "synthetic"), StepModelParams(*init), truth))

    def release(self) -> None:
        pass

    def op(self, i: int) -> list[StepResult]:
        return [
            StepResult(label, truth, gauss_newton(series, init), gradient_descent(series, init))
            for label, series, init, truth in self.suite
        ]

    def check(self, out: list[StepResult]) -> str | None:
        if len(out) != len(self.suite):
            return f"{len(out)} results for {len(self.suite)} series"
        for r, (_, series, _, _) in zip(out, self.suite):
            if r.truth is None:
                if not rel_diff(r.gn.sse, FULL_GN_SSE) <= REL_TOL:
                    return f"{r.label}: Gauss-Newton SSE {r.gn.sse!r}, expected {FULL_GN_SSE}"
            else:
                for got, want in zip(r.gn.params.as_array(), r.truth):
                    if not abs(got - want) <= C5_TOL:
                        return f"{r.label}: Gauss-Newton parameter {got!r} misses truth {want!r} by more than {C5_TOL}"
            gd = r.gd
            if not all(map(math.isfinite, (gd.sse, *gd.params.as_array()))):
                return f"{r.label}: gradient descent result is not finite"
            if not gd.sse >= r.gn.sse * (1.0 - REL_TOL) - sse_rounding_floor(series):
                return f"{r.label}: gradient descent SSE {gd.sse!r} is below Gauss-Newton SSE {r.gn.sse!r}"
        return None

    def traced_op(self, i: int, rec: Recorder, op_id: int) -> list[StepResult]:
        out = []
        with rec.span("op", op_id):
            for label, series, init, truth in self.suite:
                with rec.span("stepmodel.gauss_newton", series=label) as s:
                    gn = gauss_newton(series, init)
                s.attrs.update(iterations=gn.iterations, converged=gn.converged)
                with rec.span("stepmodel.gradient_descent", series=label) as s:
                    gd = gradient_descent(series, init)
                s.attrs.update(iterations=gd.iterations, converged=gd.converged)
                out.append(StepResult(label, truth, gn, gd))
        return out

    def layer_metrics(self, traces: list[OpTrace]) -> dict:
        out = {}
        for solver in ("gauss_newton", "gradient_descent"):
            name = f"stepmodel.{solver}"
            runs = [tr.named(name) for tr in traces]
            out[f"{name}_ms"] = (statistics.median(tr.ms(name) for tr in traces), "ms")
            out[f"{name}_iterations"] = (the_count([sum(s.attrs["iterations"] for s in r) for r in runs], f"{solver}_iterations"), "count")
            out[f"{name}_converged_ratio"] = (
                the_count([sum(s.attrs["converged"] for s in r) / len(r) for r in runs], f"{solver}_converged_ratio"),
                "ratio",
            )
        return out


WORKLOADS = {w.name: w for w in (PaperCli, LoggerFit, LoggerExport, StepSuite)}
