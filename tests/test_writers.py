"""The report writers against the plain per-row writers they replaced.

``render_json`` must equal ``json.dumps(obj, indent=2) + "\\n"`` of the
report's dict, and ``render_text``'s residual rows must equal one f-string per
row, for any report whose residual table holds numbers.
"""

import dataclasses
import enum
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from thermofit import (
    Axis,
    FitClass,
    FitReport,
    LinearFit,
    NlFit,
    StepModelParams,
    build_report,
    builtin_series,
    render_json,
    render_text,
)
from thermofit import report as report_module


def reference_obj(report):
    """The dict that ``json.dumps(..., indent=2)`` wrote out before the row template."""
    obj = {
        "label": report.series_label,
        "n": report.linear.n,
        "axis": report.linear.axis.value,
        "slope": report.linear.slope,
        "intercept": report.linear.intercept,
        "r": report.linear.r,
        "sse": report.linear.sse,
        "fit_class": report.fit_class.name,
        "residuals": [
            {"x": x, "observed": y, "predicted": p, "residual": d} for x, y, p, d in report.residual_table
        ],
    }
    if report.nonlinear is not None:
        nl = report.nonlinear
        obj["nonlinear"] = {
            "t0": nl.params.t_ambient_c,
            "tinf": nl.params.t_final_c,
            "tau": nl.params.tau_s,
            "sse": nl.sse,
            "iterations": nl.iterations,
            "converged": nl.converged,
        }
    return obj


def reference_text(report, color):
    """``render_text`` with one f-string per residual row, spliced after the column header."""
    empty = render_text(dataclasses.replace(report, residual_table=()), color)
    head, header, tail = empty.rpartition("  residual\n")
    rows = "".join(f"{x:>10.4f}  {y:>10.4f}  {p:>10.4f}  {d:>10.4f}\n" for x, y, p, d in report.residual_table)
    return head + header + rows + tail


# Floats of every kind (NaN, +-inf, -0.0, subnormals), ints, bools and a float subclass.
_value = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf")])
    | st.integers(-(10**20), 10**20)
    | st.booleans()
    | st.floats().map(np.float64)
)
_row = st.tuples(_value, _value, _value, _value)
_SPLICE_LABEL = 'é\x00\n"residuals": [] '  # json escapes it, so it cannot match the splice point


@st.composite
def reports(draw):
    linear = LinearFit(
        slope=draw(_value),
        intercept=draw(_value),
        axis=draw(st.sampled_from(Axis)),
        r=draw(_value),
        sse=draw(_value),
        n=draw(st.integers(0, 50)),
    )
    nonlinear = draw(
        st.none()
        | st.builds(
            NlFit,
            st.builds(StepModelParams, _value, _value, _value),
            _value,
            st.integers(0, 100),
            st.booleans(),
            st.just(()),
        )
    )
    return FitReport(
        series_label=draw(st.text() | st.just(_SPLICE_LABEL)),
        linear=linear,
        fit_class=draw(st.sampled_from(FitClass)),
        residual_table=tuple(draw(st.lists(_row, max_size=50))),
        nonlinear=nonlinear,
    )


@given(reports())
@example(
    FitReport(_SPLICE_LABEL, LinearFit(1.0, 2.0, Axis.Y_ON_X, 0.5, 3.0, 0), FitClass.MODERATE, ())
)
def test_render_json_equals_indented_json_dumps(report):
    assert render_json(report) == json.dumps(reference_obj(report), indent=2) + "\n"


@given(reports(), st.booleans())
def test_render_text_rows_equal_one_f_string_per_row(report, color):
    assert render_text(report, color) == reference_text(report, color)


_LINE = LinearFit(1.0, 2.0, Axis.Y_ON_X, 0.5, 3.0, 2)


@pytest.mark.parametrize("entry", ["1.5", {"x": 1.5}, [1.5]], ids=["str", "dict", "list"])
def test_render_json_refuses_an_entry_that_is_not_a_number(entry):
    # json would write the entry out as a string, an object or an array
    report = FitReport("bad", _LINE, FitClass.MODERATE, ((0.0, 1.0, 1.0, 0.0), (1.0, entry, 3.0, 0.0)))
    with pytest.raises(TypeError, match="residual_table"):
        render_json(report)


@pytest.mark.parametrize("writer", [render_json, render_text])
@pytest.mark.parametrize("row", [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)], ids=["short", "long"])
def test_writers_refuse_a_row_that_is_not_four_values(writer, row):
    # the report refuses the table as it is built, so no writer is handed one
    with pytest.raises(ValueError):
        writer(FitReport("bad", _LINE, FitClass.MODERATE, ((0.0, 1.0, 1.0, 0.0), row)))


def test_a_report_keeps_its_table_as_columns():
    report = build_report(builtin_series("full"))
    assert report.residual_table[0][:2] == (1.0, 20.2)
    assert FitReport(report.series_label, report.linear, report.fit_class, report.residual_table) == report
    moved = dataclasses.replace(report, series_label="moved")
    assert moved.residual_table == report.residual_table and moved != report
    assert dataclasses.replace(moved, series_label=report.series_label) == report


@pytest.mark.parametrize(
    "table, error",
    [
        (((0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 3.0)), ValueError),
        (((0.0, 1.0, 1.0, 0.0), 3.0), TypeError),
        (((0.0, 1.0, 1.0),) * 2, ValueError),
    ],
    ids=["short", "not-iterable", "rows-of-three"],
)
def test_a_table_that_is_not_rows_of_four_is_refused(table, error):
    with pytest.raises(error):
        FitReport("bad", _LINE, FitClass.MODERATE, table)
    with pytest.raises(error):
        dataclasses.replace(build_report(builtin_series("full")), residual_table=table)


# --- the writers encode the table a block of rows at a time ---------------------------


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_the_properties_hold_across_block_boundaries(rows):
    # tables of up to 50 rows cross many boundaries of blocks this small
    with mock.patch.object(report_module, "_BLOCK_ROWS", rows):
        test_render_json_equals_indented_json_dumps()
        test_render_text_rows_equal_one_f_string_per_row()


@pytest.mark.parametrize("writer", [render_json, render_text])
def test_a_bad_entry_in_a_later_block_is_refused(writer):
    table = ((0.0, 1.0, 1.0, 0.0),) * 5 + ((1.0, "1.5", 3.0, 0.0),)
    with mock.patch.object(report_module, "_BLOCK_ROWS", 2), pytest.raises(TypeError):
        writer(FitReport("bad", _LINE, FitClass.MODERATE, table))


# --- from one block on, orjson writes the numbers -------------------------------------

# Floats over the whole exponent range, subnormals included, and ints on both
# sides of orjson's 64-bit limit.
_plain = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**70), 2**70)


def _edge(value):
    """A table of one block (four rows, as patched below) around ``value``."""
    return [(value, 1.0, -value, 0.5)] * 4


@given(st.lists(st.tuples(_plain, _plain, _plain, _plain), max_size=50))
# where orjson's notation parts from json's: 1e-4, 1e16, and the ends of its ints
@example(_edge(1e-4))
@example(_edge(math.nextafter(1e-4, 0.0)))
@example(_edge(1e-5))
@example(_edge(1e-7))
@example(_edge(1e15))
@example(_edge(math.nextafter(1e16, 0.0)))
@example(_edge(1e16))
@example(_edge(5e-324))
@example(_edge(-0.0))
@example(_edge(2.0**53))
@example(_edge(2**63))
@example(_edge(2**64))
@example(_edge(-(2**63) - 1))
# orjson's fixed notation of one kind alone in a block: the first text, a later
# one, a negative one
@example([(1e-5, 1.0, 2.0, 0.5)] + [(1.0, 1.0, 2.0, 0.5)] * 3)
@example([(1.0, 1e-5, 2.0, 0.5)] * 4)
@example([(1.0, 1.0, -1e-5, 0.5)] + [(1.0, 20.00003, 2.0, 0.5)] * 3)
@example(  # the edges in one block with a bool, a NaN and a float subclass, which go to json
    [
        (1e-4, math.nextafter(1e-4, 0.0), 1e-5, 1e-7),
        (1e15, math.nextafter(1e16, 0.0), 1e16, 5e-324),
        (-0.0, 2.0**53, 2**63, 2**64),
        (-(2**63) - 1, True, math.nan, np.float64(1e-5)),
    ]
)
def test_render_json_of_plain_numbers_equals_indented_json_dumps(table):
    report = FitReport("plain", _LINE, FitClass.GOOD, table)
    with mock.patch.object(report_module, "_BLOCK_ROWS", 4):
        assert render_json(report) == json.dumps(reference_obj(report), indent=2) + "\n"


class _Level(enum.Enum):
    LOW = 1.5


def test_a_table_of_one_block_refuses_what_json_refuses():
    # orjson writes an Enum member as its value, where json refuses it
    table = [(1.0, 2.0, 3.0, _Level.LOW)] * 4
    with mock.patch.object(report_module, "_BLOCK_ROWS", 4), pytest.raises(TypeError, match="_Level"):
        render_json(FitReport("bad", _LINE, FitClass.MODERATE, table))


def test_json_blocks_take_a_small_fraction_of_the_output_in_memory():
    n = 200_000
    xs = tuple(0.1 * i for i in range(n))
    ys = tuple(20.0 + 1e-3 * x for x in xs)
    ps = tuple(y + 1e-9 for y in ys)
    report = FitReport("big", _LINE, FitClass.GOOD, zip(xs, ys, ps, (-1e-9,) * n))
    tracemalloc.start()
    try:
        size = sum(map(len, report_module._json_blocks(report)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 9 % here; the whole-table writer peaked at over 4 times the output
    assert size > 20_000_000
    assert peak < size / 5, (peak, size)
