import dataclasses
import math
import re

import pytest
from hypothesis import given, strategies as st

from thermofit import Sample, Series, builtin_series, builtin_profiles, gauss_newton, parse_csv, to_csv, validate
from thermofit import dataset
from thermofit.errors import (
    EmptySeries,
    MalformedRow,
    NonIncreasingTime,
    OutOfRange,
    ThermofitError,
)

from oracles import FULL, IDLE, TIMES, decimal_sums


def test_parse_minimal():
    s = parse_csv("time_s,temperature_c\n0,20.2\n5,20.2")
    assert len(s.samples) == 2
    assert [x.time_s for x in s.samples] == [0.0, 5.0]
    assert s.samples[1].temperature_c == 20.2
    assert s.power_w is None
    assert s.label == ""


def test_parse_comment_metadata():
    s = parse_csv("# label: bench-a\n# power_w: 150\ntime_s,temperature_c\n0,20\n1,21\n")
    assert s.label == "bench-a"
    assert s.power_w == 150.0


def test_parse_duplicate_timestamp():
    with pytest.raises(NonIncreasingTime):
        parse_csv("time_s,temperature_c\n5,20\n5,21")


def test_parse_header_only():
    with pytest.raises(EmptySeries):
        parse_csv("time_s,temperature_c\n")


@pytest.mark.parametrize(
    "text,err",
    [
        ("time_s,temperature_c\n1,2,3\n", MalformedRow),
        ("time_s,temperature_c\nab,2\n", MalformedRow),
        ("wrong,header\n1,2\n", MalformedRow),
        ("", MalformedRow),
        ("time_s,temperature_c\n-1,20\n", OutOfRange),
        ("time_s,temperature_c\n1,20000\n", OutOfRange),
        ("time_s,temperature_c\n1,nan\n", OutOfRange),
        ("time_s,temperature_c\n1,-300\n", OutOfRange),
        ("# power_w: -5\ntime_s,temperature_c\n1,20\n", OutOfRange),
        ("# power_w: lots\ntime_s,temperature_c\n1,20\n", MalformedRow),
        # the whole file is parsed before any invariant is checked
        ("time_s,temperature_c\n5,20\n5,21\nab,2\n", MalformedRow),
        # numbers are ASCII without digit separators; lines end at \n only
        ("time_s,temperature_c\n1_0,2_0\n", MalformedRow),
        ("time_s,temperature_c\n\u0661,\u0662\u0660\n", MalformedRow),
        ("# power_w: 1_50\ntime_s,temperature_c\n1,20\n", MalformedRow),
        ("# power_w: \u0661\u0665\u0660\ntime_s,temperature_c\n1,20\n", MalformedRow),
        ("time_s,temperature_c\r1,20\r", MalformedRow),
    ],
)
def test_parse_rejections(text, err):
    with pytest.raises(err):
        parse_csv(text)


def test_parse_reports_first_violation_by_line():
    text = "time_s,temperature_c\n0,20\n0,21\n5,22\n10,20000\n"
    with pytest.raises(NonIncreasingTime, match=r"^line 3: "):
        parse_csv(text)


def test_parse_counts_lines_at_newlines_only():
    assert parse_csv("time_s,temperature_c\r\n1,20\r\n2,21\r\n").points() == [(1.0, 20.0), (2.0, 21.0)]
    for brk in ("\f", "\v", "\x1c", "\u2028"):
        with pytest.raises(MalformedRow, match=r"^line 3: "):
            parse_csv(f"time_s,temperature_c\n0,20{brk}\nab,2\n")


# The number grammar of the dataset docstring and the README, as a regex.
_PAD = "[ \t\r\x0b\x0c]*"
_NUMBER = re.compile(
    rf"{_PAD}[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan){_PAD}",
    re.IGNORECASE | re.ASCII,
)
# Digits joined by a '_' or a non-ASCII digit: float() takes these, the grammar does not.
_near_miss = st.tuples(
    st.from_regex(r"[0-9]{1,3}", fullmatch=True),
    st.sampled_from(["_", "\u0661", "\uff11", "\u0966"]),
    st.from_regex(r"[0-9]{0,3}", fullmatch=True),
).map("".join)
_any_field = (
    st.from_regex(_NUMBER, fullmatch=True)
    | _near_miss
    | st.text("0123456789+-.eEinfatyINFATY_ \t\r\x0b\x0c\x1c\u2028\u3000\u0661\uff11x", max_size=8)
)


@given(_any_field, _any_field)
def test_parse_accepts_exactly_the_number_grammar(a, b):
    # A line is stripped before it is split into fields.
    expected = all(_NUMBER.fullmatch(f) for f in f"{a},{b}".strip().split(","))
    try:
        parse_csv(f"time_s,temperature_c\n{a},{b}\n")
    except MalformedRow:
        assert not expected
    except ThermofitError:  # a number that breaks an invariant was still parsed
        assert expected
    else:
        assert expected


@given(_any_field)
def test_power_w_accepts_exactly_the_number_grammar(a):
    # The comment line is stripped, then its value is everything after ':'.
    expected = _NUMBER.fullmatch(f"# power_w:{a}".strip().partition(":")[2])
    try:
        parse_csv(f"# power_w:{a}\ntime_s,temperature_c\n1,20\n")
    except MalformedRow:
        assert not expected
    except ThermofitError:  # e.g. a negative or NaN rating, still a number
        assert expected
    else:
        assert expected


def test_builtin_shapes():
    idle, full = builtin_profiles()
    assert idle.samples[0] == Sample(1.0, 20.2)
    assert full.samples[12] == Sample(60.0, 56.8)
    assert idle.power_w == 85.0 and full.power_w == 150.0
    assert len(idle.samples) == len(full.samples) == 13
    assert [s.time_s for s in idle.samples] == [1.0] + [float(t) for t in range(5, 65, 5)]


def test_builtin_sums_match_decimal_oracle():
    idle, full = builtin_profiles()
    for series, temps in ((idle, IDLE), (full, FULL)):
        expected = decimal_sums(TIMES, temps)
        assert math.fsum(s.temperature_c for s in series.samples) == pytest.approx(
            float(expected["sum_y"]), abs=1e-9
        )
        assert math.fsum(s.time_s for s in series.samples) == 391.0


def test_builtin_lookup():
    assert builtin_series("idle").label == "idle-load-85W"
    assert builtin_series("full").label == "full-load-150W"
    with pytest.raises(KeyError, match=r"unknown builtin series 'turbo'; choose from \('idle', 'full'\)"):
        builtin_series("turbo")


def test_validate_builtin_clean():
    idle, full = builtin_profiles()
    assert validate(idle) == []
    assert validate(full) == []


def test_validate_reports_nan():
    s = Series("x", (Sample(0.0, float("nan")),))
    report = validate(s)
    assert any(v.rule == "OutOfRange" and v.index == 0 for v in report)


def test_validate_reports_time_order():
    s = Series("x", (Sample(0.0, 20.0), Sample(10.0, 20.0), Sample(5.0, 20.0)))
    report = validate(s)
    assert any(v.rule == "NonIncreasingTime" and v.index == 2 for v in report)


def test_validate_reports_empty_and_power():
    assert any(v.rule == "EmptySeries" for v in validate(Series("x", ())))
    bad_power = Series("x", (Sample(0.0, 20.0),), power_w=-3.0)
    assert any(v.rule == "OutOfRange" and v.index is None for v in validate(bad_power))


def test_validate_lists_series_level_then_by_index():
    s = Series(
        "x",
        (Sample(0.0, 20.0), Sample(0.0, 21.0), Sample(5.0, float("nan")), Sample(-1.0, 20.0)),
        power_w=-3.0,
    )
    assert [(v.rule, v.index) for v in validate(s)] == [
        ("OutOfRange", None),
        ("NonIncreasingTime", 1),
        ("OutOfRange", 2),
        ("OutOfRange", 3),
        ("NonIncreasingTime", 3),
    ]


_label_alpha = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_:.",
    max_size=30,
).map(str.strip)


@st.composite
def valid_series(draw):
    times = sorted(
        draw(
            st.lists(
                st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
                unique=True,
                min_size=1,
                max_size=20,
            )
        )
    )
    temps = draw(
        st.lists(
            st.floats(-273.15, 10000, allow_nan=False, allow_infinity=False),
            min_size=len(times),
            max_size=len(times),
        )
    )
    label = draw(_label_alpha)
    power = draw(st.one_of(st.none(), st.floats(1e-3, 1e9, allow_nan=False)))
    return Series(label, tuple(Sample(t, y) for t, y in zip(times, temps)), power)


@given(valid_series())
def test_csv_round_trip(series):
    assert parse_csv(to_csv(series)) == series


@given(st.text(max_size=300))
def test_parse_never_yields_invalid_series(text):
    try:
        series = parse_csv(text)
    except ThermofitError:
        return
    assert validate(series) == []


def _mostly(valid, odd):
    """Draw from ``valid`` four times in five, else from ``odd``."""
    return st.integers(0, 4).flatmap(lambda i: odd if i == 0 else valid)


_NAN, _INF = float("nan"), float("inf")
_HUGE = 10**400  # an int too large for a float, so neither a finite time nor a finite power
# Times come from a small set half the time, so equal and decreasing
# timestamps are common.
_any_time = _mostly(
    st.sampled_from([0.0, 1.0, 5.0, 60.0]) | st.floats(0.0, 60.0),
    st.sampled_from([-1.0, _NAN, _INF, -_INF, _HUGE]),
)
_any_temp = _mostly(
    st.floats(-273.15, 10000.0), st.sampled_from([-300.0, 10000.5, _NAN, _INF, -_INF])
)
_any_power = st.none() | _mostly(st.floats(1e-3, 1e9), st.sampled_from([0.0, -3.0, _NAN, _INF, _HUGE]))


@st.composite
def any_series(draw):
    samples = draw(st.lists(st.builds(Sample, _any_time, _any_temp), max_size=6))
    if draw(st.booleans()):
        samples.sort(key=lambda s: s.time_s)
    return Series(draw(_label_alpha), tuple(samples), draw(_any_power))


@given(any_series())
def test_parse_agrees_with_validate(series):
    report = validate(series)
    if not report:
        assert parse_csv(to_csv(series)) == series
        return
    with pytest.raises(ThermofitError) as info:
        parse_csv(to_csv(series))
    assert type(info.value).__name__ == report[0].rule


# any_series' samples, some with int times and temperatures: a series built in
# code keeps them, so to_csv writes "5", not "5.0".
_any_samples = st.lists(
    st.builds(Sample, _any_time | st.integers(-1, 60), _any_temp | st.integers(-300, 10001)), max_size=6
)


@given(_any_samples, _label_alpha, _any_power, st.sampled_from([tuple, list, iter]))
def test_series_columns_hold_the_samples(samples, label, power, container):
    series = Series(label, tuple(samples), power)
    assert len(series.samples) == len(samples)
    assert all(type(a) is Sample and a == b for a, b in zip(series.samples, samples))
    assert series.times == tuple(s.time_s for s in samples)
    assert series.temps == tuple(s.temperature_c for s in samples)
    assert series.points() == [(s.time_s, s.temperature_c) for s in samples]
    twin = Series(label=label, samples=container([tuple(s) for s in samples]), power_w=power)
    assert twin == series and hash(twin) == hash(series)
    head = [f"# label: {label}"] * bool(label) + [f"# power_w: {power!r}"] * (power is not None)
    rows = [f"{t!r},{y!r}" for t, y in samples]
    assert to_csv(series) == "\n".join(head + ["time_s,temperature_c"] + rows) + "\n"


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Series)] + ["samples"])
def test_series_is_immutable(name):
    series = builtin_series("full")
    with pytest.raises(AttributeError):
        setattr(series, name, ())
    with pytest.raises(AttributeError):
        series.samples[0].time_s = 0.0


@pytest.mark.parametrize("samples", [[(1.0, 2.0, 3.0), (4.0, 5.0)], [(1.0, 2.0, 3.0)], [(1.0,)]])
def test_series_refuses_samples_that_are_not_pairs(samples):
    with pytest.raises(ValueError):
        Series("x", samples)


def test_parsed_series_is_validated_once(monkeypatch):
    calls = []
    real = dataset._violations
    monkeypatch.setattr(dataset, "_violations", lambda series: calls.append(series) or real(series))
    series = parse_csv(to_csv(builtin_series("full")))
    gauss_newton(series)
    assert calls == [series]
    # validate is the reference: it always runs the full check
    assert validate(series) == [] and len(calls) == 2


_LONG = 10**5000  # more digits than Python writes out, so a message names it instead


def test_validate_names_an_int_too_long_to_write_out():
    # writing the value into the message raised an untyped ValueError
    s = Series("b", ((_LONG, _LONG), (1.0, 20.0)), power_w=-_LONG)
    assert validate(s) == [
        dataset.Violation("OutOfRange", None, "power_w=an int too large for a float must be positive"),
        dataset.Violation("OutOfRange", 0, "time_s=an int too large for a float must be finite and >= 0"),
        dataset.Violation("OutOfRange", 0, "temperature_c=an int too large for a float outside [-273.15, 10000.0]"),
        dataset.Violation(
            "NonIncreasingTime", 1, "time_s[1]=1.0 does not exceed time_s[0]=an int too large for a float"
        ),
    ]
    with pytest.raises(OutOfRange, match="^power_w=an int too large"):
        gauss_newton(s)
