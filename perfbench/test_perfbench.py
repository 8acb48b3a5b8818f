"""Tests of the benchmark itself: input generators, correctness checks,
failure counting, self time, and the metric names BENCHMARK.json promises.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder, Span, self_time  # noqa: E402
from thermofit import gauss_newton, gradient_descent, parse_csv  # noqa: E402


def failed_once(w, out) -> bool:
    """The output is rejected by the check and counted as one failed op."""
    tally = run.Tally()
    ok = tally.record(w, out)
    return not ok and (tally.attempted, tally.failed) == (1, 1)


# ---------------------------------------------------------------- generators


def test_logger_rows_are_deterministic_per_seed():
    assert wl.logger_rows(7, 500) == wl.logger_rows(7, 500)
    assert wl.logger_rows(7, 500) != wl.logger_rows(8, 500)


def test_logger_csv_is_valid_program_input():
    rows = wl.logger_rows(3, 200)
    series = parse_csv(wl.logger_csv(rows, "logger-3"))
    assert series.points() == rows
    assert series.power_w == 150.0


def test_step_cases_are_deterministic_per_seed():
    assert wl.step_cases(7) == wl.step_cases(7)
    assert wl.step_cases(7) != wl.step_cases(8)
    for (t0, tinf, tau), init, rows in wl.step_cases(5):
        assert 10 <= t0 <= 30 and 40 <= tinf <= 90 and 5 <= tau <= 30
        for guess, truth in zip(init, (t0, tinf, tau)):
            assert 0.5 * truth <= guess <= 1.5 * truth
        assert [t for t, _ in rows] == [float(t) for t in range(0, 65, 5)]


# -------------------------------------------------------------------- checks


def test_failed_op_is_counted():
    tally = run.Tally()
    w = wl.StepSuite(ROOT)
    assert not tally.record(w, error=ValueError("boom"))
    assert not tally.record(w, out=None)  # the check itself raises
    assert (tally.attempted, tally.failed) == (2, 2)


def test_paper_cli_check_rejects_corrupted_output(tmp_path):
    w = wl.PaperCli(os.path.join(ROOT, "src"))
    w.setup(0, str(tmp_path))
    fit = w.op(0)
    plot = w.op(5)
    assert (fit.name, plot.name) == ("fit-json", "plot")
    assert w.check(fit) is None and w.check(plot) is None

    obj = json.loads(fit.stdout)
    obj["slope"] += 2e-3
    assert failed_once(w, fit._replace(stdout=json.dumps(obj)))
    assert failed_once(w, fit._replace(returncode=1))
    assert failed_once(w, plot._replace(svg=plot.svg[: len(plot.svg) // 2]))
    assert failed_once(w, plot._replace(svg=plot.svg.replace("r=\"3.5\"", "r=\"3.6\"", 1)))


def test_logger_fit_check_rejects_corrupted_output(tmp_path):
    w = wl.LoggerFit(ROOT, n=2000)
    w.setup(1, str(tmp_path))
    code, stdout, stderr = w.op(0)
    assert w.check((code, stdout, stderr)) is None

    def corrupt(edit):
        obj = json.loads(stdout)
        edit(obj)
        return code, json.dumps(obj), stderr

    assert failed_once(w, corrupt(lambda o: o.update(slope=o["slope"] * (1 + 1e-6))))
    assert failed_once(w, corrupt(lambda o: o.update(intercept=o["intercept"] * (1 + 1e-6))))
    assert failed_once(w, corrupt(lambda o: o["residuals"].pop()))
    assert failed_once(w, corrupt(lambda o: o["nonlinear"].update(sse=o["sse"] * 1.01)))
    assert failed_once(w, (2, stdout, "E_NOT_CONVERGED: ..."))


def test_logger_export_check_rejects_corrupted_output(tmp_path):
    w = wl.LoggerExport(ROOT, n=500)
    w.setup(1, str(tmp_path))
    out = w.op(0)
    assert w.check(out) is None

    lines = out.csv.splitlines(keepends=True)
    t, y = lines[10].strip().split(",")
    lines[10] = f"{t},{float(y) * (1 + 1e-6)!r}\n"
    assert failed_once(w, out._replace(csv="".join(lines)))
    assert failed_once(w, out._replace(svg=out.svg[:-10]))
    assert failed_once(w, out._replace(svg=out.svg.replace("<circle ", "<rect ", 1)))
    assert failed_once(w, out._replace(svg=out.svg.replace("</svg>", '<line x1="0"/>\n</svg>')))


def test_step_suite_check_rejects_corrupted_output(tmp_path):
    w = wl.StepSuite(ROOT, cases=3)
    w.setup(4, str(tmp_path))
    # A short gradient descent keeps the test fast; it stays above Gauss-Newton.
    out = [
        wl.StepResult(label, truth, gauss_newton(series, init), gradient_descent(series, init, max_iter=300))
        for label, series, init, truth in w.suite
    ]
    assert w.check(out) is None

    def with_result(k, **fields):
        return out[:k] + [out[k]._replace(**fields)] + out[k + 1:]

    full, synth = out[0], out[1]
    p = synth.gn.params
    off = dataclasses.replace(synth.gn, params=dataclasses.replace(p, tau_s=p.tau_s + 1e-5))
    assert failed_once(w, with_result(1, gn=off))
    assert failed_once(w, with_result(0, gn=dataclasses.replace(full.gn, sse=full.gn.sse * (1 + 1e-8))))
    assert failed_once(w, with_result(2, gd=dataclasses.replace(out[2].gd, sse=math.nan)))
    assert failed_once(w, with_result(0, gd=dataclasses.replace(full.gd, sse=full.gn.sse * (1 - 1e-6))))
    assert failed_once(w, out[:-1])


# ----------------------------------------------------------------- self time


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, None, 7, "root", 0.0, 10.0),
        Span(1, 0, 7, "a", 1.0, 3.0),
        Span(2, 0, 7, "b", 2.0, 5.0),  # overlaps a: counted once
        Span(3, 0, 7, "c", 8.0, 12.0),  # runs past the root: only 8..10 is covered
        Span(4, 1, 7, "a.child", 1.5, 2.5),  # a grandchild of root
        Span(5, None, 7, "replay", 20.0, 21.0),  # same op, not a child
    ]
    assert self_time(spans[0], spans) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(spans[1], spans) == pytest.approx(2.0 - 1.0)
    assert self_time(spans[2], spans) == pytest.approx(3.0)
    assert self_time(spans[5], spans) == pytest.approx(1.0)


def test_recorder_links_parents_and_op_ids():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with rec.span("op", 3):
        with rec.span("inner", layer="x") as s:
            s.attrs["count"] = 2
    with pytest.raises(ValueError):
        with rec.span("orphan"):
            pass
    op, inner = rec.spans
    assert (op.parent, op.op_id, inner.parent, inner.op_id) == (None, 3, 0, 3)
    assert inner.attrs == {"layer": "x", "count": 2}
    assert (op.start, inner.start, inner.end, op.end) == (0.0, 1.0, 2.0, 3.0)
    assert self_time(op, rec.spans) == pytest.approx(2.0)


# ------------------------------------------------------ the promised metrics


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    w = wl.LoggerExport(ROOT, n=300)
    metrics, extra, _, _ = run.timed_run(w, 1, 0.0, str(tmp_path), run.Tally())
    assert {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert {"op_ms_p50", "samples_per_s", "failed_ratio"} <= set(extra)
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    src = os.path.join(ROOT, "src")
    selected = wl.LoggerExport(src, n=300)
    others = [wl.PaperCli(src), wl.LoggerFit(src, n=300), wl.StepSuite(src, cases=2)]
    tally = run.Tally()
    metrics, _ = run.traced_run(selected, others, 1, 0.0, str(tmp_path), tally)
    assert tally.failed == 0
    assert {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    counts = {name: value for name, (value, unit) in metrics.items() if unit == "count"}
    assert counts["logger-fit.dataset.samples"] == 300
    assert counts["paper-cli.import.numpy_loaded"] in (0, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no thermofit sources" in proc.stderr
