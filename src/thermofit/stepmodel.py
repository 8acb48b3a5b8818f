"""First-order thermal step-response model: parameters, results, evaluation.

A lumped thermal mass driven by a power step warms as

    T(t) = T_inf + (T_0 - T_inf) * exp(-t / tau)

with initial temperature T_0, steady state T_inf, and time constant tau.
This module holds what a report or a plot needs without fitting anything:
the parameter and result types, the one parameter check, the model itself
(``model_eval``, which refuses a time at which the model is not finite) and
the solvers' starting guess.  It imports no numpy.  The least-squares
solvers and the SSE live in ``stepsolve``, which imports numpy only to fit a
series of at least ``errors._ARRAY_MIN`` samples; the Jacobian and the SSE
gradient, which return arrays, live in ``stepfit``, which imports it.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .dataset import Series, _require_valid
from .errors import _DOUBLE_MAX, InvalidInit, OutOfRange, _require_finite, _shown

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class StepModelParams:
    """Parameters (T_0, T_inf, tau) of the step-response model."""

    t_ambient_c: float
    t_final_c: float
    tau_s: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.t_ambient_c, self.t_final_c, self.tau_s], dtype=float)


@dataclass(frozen=True)
class NlFit:
    """A solver result: best parameters, their SSE, and the accepted-iterate trace."""

    params: StepModelParams
    sse: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...]


class JacobianMode(enum.Enum):
    ANALYTIC = "analytic"
    FINITE_DIFF = "finite-diff"


def _valid(t0: float, tinf: float, tau: float) -> bool:
    """The one parameter check: all three finite and tau > 0."""
    return abs(t0) <= _DOUBLE_MAX and abs(tinf) <= _DOUBLE_MAX and 0 < tau <= _DOUBLE_MAX


def _checked(params: StepModelParams) -> StepModelParams:
    if not _valid(params.t_ambient_c, params.t_final_c, params.tau_s):
        shown = ", ".join(f"{f.name}={_shown(getattr(params, f.name))}" for f in fields(params))
        raise InvalidInit(f"invalid step-model parameters StepModelParams({shown})")
    return params


def model_eval(params: StepModelParams, t: float) -> float:
    """Temperature at time t: T_inf + (T_0 - T_inf) * exp(-t / tau).

    Raises OutOfRange when that is not a finite number (t NaN, or so far
    before the step that the exponential overflows); t = +inf gives T_inf.
    """
    p = _checked(params)
    try:
        value = p.t_final_c + (p.t_ambient_c - p.t_final_c) * math.exp(-t / p.tau_s)
    except OverflowError:
        value = math.inf
    return _require_finite((value,), f"t={_shown(t)} gives no finite model temperature")[0]


def _require_count(name: str, value, low: int) -> None:
    """Raise OutOfRange naming the option unless ``value`` is an integer >= ``low``."""
    try:
        ok = operator.index(value) >= low
    except TypeError:
        ok = False
    if not ok:
        raise OutOfRange(f"{name}={_shown(value)} must be an integer >= {low}")


def default_init(series: Series) -> StepModelParams:
    """Validate the series; start at its first and last temperatures and a third of its span."""
    _require_valid(series)
    times, temps = series.times, series.temps
    return StepModelParams(temps[0], temps[-1], (times[-1] - times[0]) / 3.0)
