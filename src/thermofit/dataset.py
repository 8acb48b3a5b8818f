r"""Temperature/time series ingestion and validation.

The one ingestion format is CSV:

    # label: bench-a          (optional, before the header)
    # power_w: 150            (optional, before the header)
    time_s,temperature_c
    1,20.2
    5,22.4

Lines are split at ``\n`` only and stripped of surrounding whitespace, so
``\r\n`` line ends work and line numbers match an editor's.  Blank lines are
skipped; lines starting with ``#`` are comments, and ``label`` and
``power_w`` comment keys are recognized before the header row.  A data row is
two numbers separated by a comma.  A number (a data field or the ``power_w``
value) is ASCII, optionally padded with spaces, tabs, CR, VT or FF: an
optional sign, then digits with an optional decimal point or a point and
digits, then an optional exponent (``e`` or ``E``, optional sign, digits); or
``inf``, ``infinity`` or ``nan`` in any case.  No ``_`` digit separators and
no non-ASCII digits.  Timestamps must be strictly increasing and
temperatures within the sanity bound [-273.15, 10000] degC.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, NamedTuple

from .errors import _DOUBLE_MAX, EmptySeries, MalformedRow, NonIncreasingTime, OutOfRange, _ordered, _shown

TEMP_MIN_C = -273.15
TEMP_MAX_C = 10000.0

_HEADER = "time_s,temperature_c"


class Sample(NamedTuple):
    """One temperature reading at a point in time."""

    time_s: float
    temperature_c: float


@dataclass(frozen=True, init=False)
class Series:
    """A labeled, time-ordered sequence of readings under a stated power load.

    The readings are stored as two tuples, ``times`` and ``temps``, of the
    values given in ``samples`` (Samples or (time, temperature) pairs).
    Construction does not validate; use :func:`validate` to obtain a
    violation report, or rely on :func:`parse_csv` which refuses to produce
    an invalid Series.
    """

    label: str
    times: tuple[float, ...]
    temps: tuple[float, ...]
    power_w: float | None

    def __init__(self, label: str, samples: Iterable[tuple[float, float]], power_w: float | None = None):
        times, temps = tuple(zip(*samples, strict=True)) or ((), ())
        self._fill(label, times, temps, power_w)

    def _fill(self, label: str, times: tuple, temps: tuple, power_w: float | None) -> Series:
        """Set the fields to the given columns and return the series; on
        ``Series.__new__(Series)`` it builds a Series without the transpose."""
        for name, value in zip(("label", "times", "temps", "power_w"), (label, times, temps, power_w)):
            object.__setattr__(self, name, value)
        return self

    @property
    def samples(self) -> tuple[Sample, ...]:
        """The readings as Samples, a view built from the two columns."""
        return tuple(map(Sample, self.times, self.temps))

    def points(self) -> list[tuple[float, float]]:
        """Return (time_s, temperature_c) pairs in order."""
        return list(zip(self.times, self.temps))


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate`.

    ``index`` is the offending sample position, or None for series-level
    violations (e.g. an empty series or a bad power rating).
    """

    rule: str
    index: int | None
    message: str


def _violations(series: Series):
    """Yield the violations :func:`validate` lists, in the same order."""
    if not series.times:
        yield Violation("EmptySeries", None, "series has no samples")
    if series.power_w is not None and not (0 < _ordered(series.power_w) <= _DOUBLE_MAX):
        yield Violation("OutOfRange", None, f"power_w={_shown(series.power_w)} must be positive")
    prev = None
    for i, (t, y) in enumerate(zip(series.times, series.temps)):
        try:
            t < y  # noqa: B015 -- raises where either is a Decimal NaN, which takes no order comparison
        except ArithmeticError:  # check it as a float NaN
            t, y = _ordered(t), _ordered(y)
        if not (0 <= t <= _DOUBLE_MAX):
            yield Violation("OutOfRange", i, f"time_s={_shown(t)} must be finite and >= 0")
        if not (TEMP_MIN_C <= y <= TEMP_MAX_C):
            yield Violation("OutOfRange", i, f"temperature_c={_shown(y)} outside [{TEMP_MIN_C}, {TEMP_MAX_C}]")
        if i and not (t > prev):
            yield Violation(
                "NonIncreasingTime", i, f"time_s[{i}]={_shown(t)} does not exceed time_s[{i - 1}]={_shown(prev)}"
            )
        prev = t


def validate(series: Series) -> list[Violation]:
    """Check all Series invariants; an empty report means the series is valid.

    Violations are data, not failures: invalid series are representable so
    that callers can inspect what is wrong with them.  Series-level
    violations (empty series, bad power rating) come first, then per-sample
    ones in index order; for one sample the time range is listed before the
    temperature range, and both before the order against the previous sample.
    """
    return list(_violations(series))


_ERRORS = {e.__name__: e for e in (EmptySeries, NonIncreasingTime, OutOfRange)}


def _require_valid(series: Series, lines: list[int] | None = None) -> None:
    """Raise the typed error of the first violation, if any, without looking
    further; ``lines[i]``, sample i's source line, prefixes its message.
    A series that passes is marked, so this immutable object is checked once."""
    if getattr(series, "_valid", False):
        return
    for v in _violations(series):
        where = "" if lines is None or v.index is None else f"line {lines[v.index]}: "
        raise _ERRORS[v.rule](where + v.message)
    object.__setattr__(series, "_valid", True)


def _plain(text: str) -> bool:
    """Whether ``text`` keeps to the module's number alphabet: ASCII, no ``_``."""
    return text.isascii() and "_" not in text


def _number(text: str) -> float:
    """``float(text)``, refused with ValueError unless ``text`` is :func:`_plain`."""
    if not _plain(text):
        raise ValueError(text)
    return float(text)


def parse_csv(text: str) -> Series:
    """Parse CSV text into a Series, refusing anything that breaks an invariant.

    Raises MalformedRow for a syntax error anywhere in the text, including a
    number outside the module's grammar; otherwise
    the error of the first violation :func:`validate` would list
    (NonIncreasingTime, EmptySeries, or OutOfRange), prefixed with its line
    when it belongs to a sample.  Never returns an invalid Series, and the
    one it returns is marked valid, so the step-model functions do not
    check it again.

    A body of plain ``time,temperature`` lines is read in one split; any other
    body, and every syntax error, goes through the line-by-line reader.
    """
    label, power_w, body, first = _head(text.split("\n"))
    columns = _plain_body(body)
    if columns is None:
        *columns, lines = _body_rows(body, first)
    else:
        lines = range(first, first + len(columns[0]))  # one sample per line
    series = Series.__new__(Series)._fill(label, *columns, power_w)
    _require_valid(series, lines)
    return series


def _head(lines: list[str]) -> tuple[str, float | None, list[str], int]:
    """Read the comments and the header row: (label, power_w, the lines after
    the header, the line number of the first of them)."""
    label = ""
    power_w: float | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            key = key.strip().lower()
            if key == "label":
                label = value.strip()
            elif key == "power_w":
                try:
                    power_w = _number(value)
                except ValueError:
                    raise MalformedRow(f"line {lineno}: power_w is not a number: {value.strip()!r}")
            continue
        if line != _HEADER:
            raise MalformedRow(f"line {lineno}: expected header {_HEADER!r}, got {line!r}")
        return label, power_w, lines[lineno:], lineno + 1
    raise MalformedRow(f"missing header row {_HEADER!r}")


def _plain_body(lines: list[str]) -> tuple[tuple, tuple] | None:
    """The time and temperature columns of ``lines``, read in one split, when
    every line but a blank last one is one comma between two numbers in
    :func:`_plain` text; otherwise None.  A comment has no number before its
    comma, so it is refused too."""
    if lines and not lines[-1].strip():
        lines = lines[:-1]
    if set(map(str.count, lines, repeat(","))) != {1}:
        return None
    joined = ",".join(lines)
    if not _plain(joined):
        return None
    fields = joined.split(",")
    try:
        return tuple(map(float, fields[0::2])), tuple(map(float, fields[1::2]))
    except ValueError:
        return None


def _body_rows(lines: list[str], first: int) -> tuple[tuple, tuple, list[int]]:
    """Read the lines after the header one by one: the time and temperature
    columns and each sample's line number.  Blank lines and comments are
    skipped; every syntax error in the body is raised here."""
    times: list[float] = []
    temps: list[float] = []
    numbers: list[int] = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise MalformedRow(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            if not _plain(line):  # once per row, not once per field
                raise ValueError(line)
            t, y = float(fields[0]), float(fields[1])
        except ValueError:
            raise MalformedRow(f"line {lineno}: non-numeric field in {line!r}")
        times.append(t)
        temps.append(y)
        numbers.append(lineno)
    return tuple(times), tuple(temps), numbers


# to_csv writes these as they are; any other number (a bool, Fraction or
# Decimal) as its float, which parse_csv reads back
_AS_IS = (int, float)


def to_csv(series: Series) -> str:
    """Serialize a Series to the CSV format accepted by :func:`parse_csv`.

    Floats and ints are written with repr so a round trip reproduces the
    series field-for-field; any other number (a bool, Fraction or Decimal)
    as the repr of its float.  A label that parse_csv would not read back as
    it is, one with a line break or with whitespace at either end, raises
    OutOfRange, as does a value that is not written out.
    """
    lines = []
    if series.label:
        if "\n" in series.label or series.label != series.label.strip():
            raise OutOfRange(f"cannot write the label {series.label!r}: a line break or whitespace at an end")
        lines.append(f"# label: {series.label}")
    if (p := series.power_w) is not None:
        try:
            lines.append(f"# power_w: {p if type(p) in _AS_IS else float(p)!r}")
        except (ValueError, OverflowError):  # as for a sample below
            raise OutOfRange(f"cannot write power_w={_shown(p)}") from None
    lines.append(_HEADER)
    for t, y in zip(series.times, series.temps):
        try:
            lines.append(f"{t if type(t) in _AS_IS else float(t)!r},{y if type(y) in _AS_IS else float(y)!r}")
        except (ValueError, OverflowError):  # no int of more than 4300 digits, no float of a huge Fraction
            raise OutOfRange(f"cannot write the sample ({_shown(t)}, {_shown(y)})") from None
    return "\n".join(lines) + "\n"


# Measured heat-sink temperature profile of an Intel Pentium D 915 under two
# steady loads (fan at high speed), sampled at 5 s intervals.  The first
# reading is the power-on value and is logged at t = 1 s: the summary sheet
# originally distributed with these measurements lists sum(t^2) = 16251 and
# sum(t*y) values that are only consistent with t = 1 for that row, even
# though its sum(t) = 390 implies t = 0.  We keep t = 1 and treat 390 as a
# typo for 391 (see README, "Dataset notes").
_TIMES_S = (1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)
_IDLE_TEMPS_C = (20.2, 20.2, 20.4, 20.5, 21.2, 21.8, 22.0, 23.8, 25.9, 26.4, 27.5, 28.0, 28.4)
_FULL_TEMPS_C = (20.2, 22.4, 25.0, 27.2, 29.6, 32.5, 33.8, 42.6, 54.7, 55.2, 56.0, 56.5, 56.8)
_BUILTINS = {  # name -> (label, temperatures, power_w)
    "idle": ("idle-load-85W", _IDLE_TEMPS_C, 85.0),
    "full": ("full-load-150W", _FULL_TEMPS_C, 150.0),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_profiles() -> tuple[Series, Series]:
    """Return the embedded (idle 85 W, full 150 W) temperature profiles."""
    return builtin_series("idle"), builtin_series("full")


def builtin_series(name: str) -> Series:
    """Look up one embedded series by short name ('idle' or 'full')."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin series {name!r}; choose from {BUILTIN_NAMES}")
    label, temps, power_w = _BUILTINS[name]
    return Series(label, zip(map(float, _TIMES_S), temps), power_w)
