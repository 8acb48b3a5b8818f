"""Exception hierarchy and limits shared by all thermofit modules.

Every error carries a stable machine-greppable ``code`` (``E_*``) which the
CLI prints as a one-line prefix before exiting nonzero.  The limits live
here, in the one module every other imports, so that the CLI can build its
parser without loading the modules that use them.
"""

from __future__ import annotations

import math

_DOUBLE_MAX = 1.7976931348623157e308  # sys.float_info.max; x is finite when abs(x) <= it
_GN_MAX_ITER = 100  # Gauss-Newton iteration cap: the solver's, build_report's and the CLI's default
# From this many samples the step-response solvers' sums, and the line fit of
# a build_report that also fits the curve, run on numpy arrays; below it on
# Python lists, and numpy is not imported.  A linear-only build_report fits
# its line on lists at any size.  With numpy loaded, arrays are as fast as
# lists at 13 samples and 9 times faster at 1024; loading numpy costs as much
# as a list fit of about 40 000 samples (README, "Numerical notes").
_ARRAY_MIN = 1024


class ThermofitError(Exception):
    """Base class for all thermofit errors."""

    code = "E_THERMOFIT"


class MalformedRow(ThermofitError):
    """A CSV row could not be parsed (wrong arity, non-numeric field, bad header)."""

    code = "E_MALFORMED_ROW"


class NonIncreasingTime(ThermofitError):
    """Sample timestamps are not strictly increasing."""

    code = "E_NON_INCREASING_TIME"


class EmptySeries(ThermofitError):
    """A series contains no data rows."""

    code = "E_EMPTY_SERIES"


class OutOfRange(ThermofitError):
    """A value lies outside its sanity bounds (or is not finite)."""

    code = "E_OUT_OF_RANGE"


def _shown(value, form=repr) -> str:
    """``form(value)`` for a message, or "an int too large for a float" for an int
    that no double holds, whose digits Python may refuse to write out."""
    if isinstance(value, int) and not abs(value) <= _DOUBLE_MAX:
        return "an int too large for a float"
    return form(value)


def _require_finite(values, what: str):
    """Return ``values``, or raise OutOfRange("<what>: <value>") at the first that is
    not finite (NaN, +-inf, an int too large for a float, or a value that takes no
    order comparison, such as a Decimal NaN), formatting the message only then."""
    for v in values:
        try:
            if abs(v) <= _DOUBLE_MAX:
                continue
        except ArithmeticError:  # decimal.InvalidOperation, from a Decimal NaN
            pass
        raise OutOfRange(f"{what}: {_shown(v, str)}")
    return values


def _ordered(v):
    """``v``, or a float NaN for a value that takes no order comparison (a
    Decimal NaN raises decimal.InvalidOperation), so that every order
    comparison with it is false, as with a float NaN."""
    try:
        v < 0  # noqa: B015 -- the comparison is the test
    except ArithmeticError:
        return math.nan
    return v


def _fsum(terms) -> float:
    """math.fsum of the floats ``terms``, or inf where it raises (intermediate overflow, inf + -inf)."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return math.inf


class EmptyInput(ThermofitError):
    """An operation received an empty point list."""

    code = "E_EMPTY_INPUT"


class InsufficientData(ThermofitError):
    """Too few points for the requested operation."""

    code = "E_INSUFFICIENT_DATA"


class DegenerateVariance(ThermofitError):
    """All x (or all y) values are equal; no unique line exists."""

    code = "E_DEGENERATE_VARIANCE"


class LengthMismatch(ThermofitError):
    """Weights and points differ in length."""

    code = "E_LENGTH_MISMATCH"


class NonPositiveWeight(ThermofitError):
    """A weight is zero, negative, or not finite."""

    code = "E_NON_POSITIVE_WEIGHT"


class SingularNormalMatrix(ThermofitError):
    """The step-response fit does not determine tau: flat data, or the best fit is the straight line."""

    code = "E_SINGULAR_NORMAL_MATRIX"


class InvalidInit(ThermofitError):
    """Solver initial parameters are invalid (non-finite, or tau <= 0)."""

    code = "E_INVALID_INIT"


class NonPositiveResistance(ThermofitError):
    """A thermal resistance must be strictly positive."""

    code = "E_NON_POSITIVE_RESISTANCE"


class NegativePower(ThermofitError):
    """Dissipated power cannot be negative."""

    code = "E_NEGATIVE_POWER"


class InvertedTemperatures(ThermofitError):
    """The junction temperature limit does not exceed ambient."""

    code = "E_INVERTED_TEMPERATURES"
