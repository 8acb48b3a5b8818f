"""First-order thermal step-response model and its least-squares solvers.

A lumped thermal mass driven by a power step warms as

    T(t) = T_inf + (T_0 - T_inf) * exp(-t / tau)

with initial temperature T_0, steady state T_inf, and time constant tau.
This module holds the parameter and result types, the one parameter check,
the model itself (``_curve``, written once and called with ``math.exp`` on
floats or ``np.exp`` on arrays; ``model_eval`` refuses a time at which it is
not finite), the solvers' starting guess, the SSE, both solvers, and the
Jacobian and SSE gradient.  Parameters and series values are taken as
floats.  numpy is imported only where arrays are made: by ``jacobian`` and
``sse_gradient``, which return arrays, and by the array kernel of a fit of
at least ``errors._ARRAY_MIN`` samples.  So a report, a plot or a fit of a
short series never loads it.

Both solvers fit the model in its separable form (variable projection):

    T(t) = T0 + s0 * phi_k(t),   phi_k(t) = (1 - exp(-k t)) / k,   phi_0(t) = t,

with k = 1/tau >= 0 and s0 = (T_inf - T0) / tau the initial slope.  At each
k the temperatures (T0, s0) are an exact linear least-squares solve, which
leaves a one-parameter problem in k: the reduced SSE.  Both solvers are line
searches on k run by one iteration loop, ``_descend``, with one
backtracking step-halving search; they differ only in direction, starting
step and halvings.  A result maps back as tau = 1/k and T_inf = T0 + s0/k.
One rule, tested once per SSE, stops both: converged when the SSE is 0 or
its relative decrease over the last ``span`` iterations falls below ``tol``
(``span`` is 1 for Gauss-Newton, ``window`` for steepest descent), unless
the SSE is above r(0), the inner solve at k = 0 (the straight line).  One
rule refuses both a fit that does not determine tau: SingularNormalMatrix
when the fitted amplitude s0 is 0 (flat data), when the fit ends at k = 0,
or when it would converge above r(0) where k = 0 is a minimum over k >= 0
(the line is the better fit).  Only the per-sample sums come from a kernel
chosen by the series' size: ``errors._fsum``'s exact sums over Python lists
below ``_ARRAY_MIN`` samples, numpy's pairwise sums over arrays from it.
Every function here refuses an invalid series (checked once per Series
object) or parameters, the solvers refuse out-of-range options, and a result
that is not finite raises OutOfRange.  numpy's floating-point warnings are
silenced where arrays are computed on, for the same reason.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .dataset import Series, _require_valid
from .errors import (
    _ARRAY_MIN,
    _DOUBLE_MAX,
    _GN_MAX_ITER,
    InsufficientData,
    InvalidInit,
    OutOfRange,
    SingularNormalMatrix,
    _fsum,
    _ordered,
    _require_finite,
    _shown,
)

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
    t0, tinf, tau = map(_ordered, (t0, tinf, tau))
    return abs(t0) <= _DOUBLE_MAX and abs(tinf) <= _DOUBLE_MAX and 0 < tau <= _DOUBLE_MAX


def _checked(params: StepModelParams) -> StepModelParams:
    if not _valid(params.t_ambient_c, params.t_final_c, params.tau_s):
        shown = ", ".join(f"{f.name}={_shown(getattr(params, f.name))}" for f in fields(params))
        raise InvalidInit(f"invalid step-model parameters StepModelParams({shown})")
    return params


def _theta(params: StepModelParams) -> tuple[float, float, float]:
    """The checked parameters as the solvers' three floats (T_0, T_inf, tau)."""
    p = _checked(params)
    return float(p.t_ambient_c), float(p.t_final_c), float(p.tau_s)


def _curve(theta, t, exp):
    """The model at ``theta`` = (T_0, T_inf, tau) and ``t``, by math.exp on floats or np.exp on arrays."""
    t0, tinf, tau = theta
    return tinf + (t0 - tinf) * exp(-t / tau)


def model_eval(params: StepModelParams, t: float) -> float:
    """Temperature at time t: T_inf + (T_0 - T_inf) * exp(-t / tau).

    The parameters and t are taken as floats.  Raises OutOfRange when that
    is not a finite number (t NaN or too large for a float, or so far
    before the step that the exponential overflows); t = +inf gives T_inf.
    """
    try:
        value = _curve(_theta(params), float(t), math.exp)
    except (OverflowError, ValueError):  # ValueError: float() of a Decimal signaling NaN
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
    """Validate the series; start at its first and last temperatures and a third of its span.

    The values are taken as floats.  Where a third of the span rounds to 0 (a
    subnormal span), tau starts at the span itself.  Raises InsufficientData
    for a single sample, which spans no time."""
    _require_valid(series)
    times, temps = series.times, series.temps
    if len(times) < 2:
        raise InsufficientData("a starting guess needs at least 2 samples")
    span = float(times[-1]) - float(times[0])
    return StepModelParams(float(temps[0]), float(temps[-1]), span / 3.0 or span)


# --- the per-sample sums ------------------------------------------------------------
#
# A kernel holds one series and gives the solvers its sums: ``sse(theta)`` at
# parameters (T_0, T_inf, tau), and ``reduced(k)``, the inner solve at k.  Here
# the times are in units of ``unit``, the largest power of 2 up to the last
# time, and k in units of 1/unit, so that every column and sum is of order 1
# whatever the unit of time, and the scaling itself is exact; ``theta(k, fit)``
# maps back.  A subclass gives the element-wise steps on its columns.  A value
# that overflows is inf or NaN, as in floating point; the callers check what
# they use.


def _sums(series: Series):
    """The series, refused unless valid, as the kernel its size calls for."""
    _require_valid(series)
    return (_ArraySums if len(series.times) >= _ARRAY_MIN else _ListSums)(series)


class _Sums:
    """The inner solve, written once over a subclass's columns and its
    element-wise steps ``columns``, ``centered``, ``dot``, ``less`` and ``over``."""

    def __init__(self, times, temps):
        self.times, self.temps = times, temps
        self.unit = math.ldexp(1.0, math.frexp(times[-1])[1] - 1)
        self.units = self.over(times, self.unit)
        self.mean_temp, self.dev_temps = self.centered(temps)

    def theta(self, k: float, fit) -> tuple[float, float, float]:
        """(T_0, T_inf, tau) of the inner solve ``fit`` at k > 0."""
        t0, s0 = fit[0], fit[1]
        return t0, t0 + s0 / k, self.unit / k

    def reduced(self, k: float) -> tuple[float, float, float, float, float]:
        """(T0, s0, sse, g, h) at k: the least-squares (T0, s0) of
        T0 + s0 * phi_k, its SSE, and with q = d(phi_k)/dk projected off
        (1, phi_k) and r the residuals, g = q'r and h = q'q.  The SSE's
        derivative in k is -2 s0 g, and Kaufman's Gauss-Newton normal matrix
        of the reduced problem is s0^2 h.  All NaN where phi_k is constant."""
        phi, dphi = self.columns(k)
        mean_phi, dev_phi = self.centered(phi)
        s_pp = self.dot(dev_phi, dev_phi)
        if not s_pp > 0.0:
            return (math.nan,) * 5
        s0 = self.dot(dev_phi, self.dev_temps) / s_pp
        r = self.less(self.dev_temps, s0, dev_phi)
        dev_dphi = self.centered(dphi)[1]
        q = self.less(dev_dphi, self.dot(dev_phi, dev_dphi) / s_pp, dev_phi)
        return self.mean_temp - s0 * mean_phi, s0, self.dot(r, r), self.dot(q, r), self.dot(q, q)


class _ListSums(_Sums):
    """The solvers' sums on Python lists, each an exact (correctly rounded) fsum
    of the terms the array kernel sums; the terms are formed as numpy forms them."""

    def __init__(self, series: Series):
        super().__init__(list(map(float, series.times)), list(map(float, series.temps)))

    def sse(self, theta) -> float:
        r = [y - _curve(theta, t, math.exp) for t, y in zip(self.times, self.temps)]
        return self.dot(r, r)

    def columns(self, k: float):
        """phi_k and d(phi_k)/dk at each time, in the kernel's unit."""
        if not k:
            return self.units, [-0.5 * u * u for u in self.units]
        phi = [-math.expm1(-k * u) / k for u in self.units]
        return phi, [(u * math.exp(-k * u) - p) / k for u, p in zip(self.units, phi)]

    @staticmethod
    def centered(a: list) -> tuple[float, list]:
        mean = _fsum(a) / len(a)
        return mean, [v - mean for v in a]

    @staticmethod
    def dot(a: list, b: list) -> float:
        return _fsum(map(operator.mul, a, b))

    @staticmethod
    def less(a: list, c: float, b: list) -> list:
        return [u - c * v for u, v in zip(a, b)]

    @staticmethod
    def over(a: list, c: float) -> list:
        return [v / c for v in a]


# --- the model on numpy arrays; ``np`` is the numpy module, imported by the caller ---


def _jac_columns(np, theta: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three columns of the Jacobian, dT/dT_0, dT/dT_inf and dT/dtau."""
    decay = np.exp(-times / theta[2])
    d_tau = (theta[0] - theta[1]) * (times / theta[2] ** 2) * decay
    return decay, 1.0 - decay, d_tau


def _dot(np, a: np.ndarray, b: np.ndarray) -> float:
    """The sum of the products a[i] * b[i], by numpy's pairwise summation.
    Not ``a @ b``: BLAS splits that sum between its threads, so its last
    digits depend on how many it runs."""
    return float(np.add.reduce(a * b))


class _ArraySums(_Sums):
    """The solvers' sums on float64 arrays, summed by numpy."""

    def __init__(self, series: Series):
        import numpy as np  # deferred: only a fit of a long series needs numpy

        self.np = np
        super().__init__(np.array(series.times, dtype=float), np.array(series.temps, dtype=float))

    def sse(self, theta) -> float:
        np = self.np
        with np.errstate(all="ignore"):
            r = self.temps - _curve(theta, self.times, np.exp)
            return _dot(np, r, r)

    def columns(self, k: float) -> tuple[np.ndarray, np.ndarray]:
        """phi_k and d(phi_k)/dk at each time, in the kernel's unit."""
        u = self.units
        if not k:
            return u, -0.5 * u * u
        phi = -self.np.expm1(-k * u) / k
        return phi, (u * self.np.exp(-k * u) - phi) / k

    def centered(self, a: np.ndarray) -> tuple[float, np.ndarray]:
        mean = float(self.np.add.reduce(a)) / a.size
        return mean, a - mean

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        return _dot(self.np, a, b)

    @staticmethod
    def less(a: np.ndarray, c: float, b: np.ndarray) -> np.ndarray:
        return a - c * b

    @staticmethod
    def over(a: np.ndarray, c: float) -> np.ndarray:
        return a / c

    def reduced(self, k: float) -> tuple[float, float, float, float, float]:
        with self.np.errstate(all="ignore"):
            return super().reduced(k)


# --- the solvers --------------------------------------------------------------------

_UNIDENTIFIABLE = "tau and T_inf are not identifiable from this data"


def model_sse(params: StepModelParams, series: Series) -> float:
    """Sum of squared residuals of the series against the model."""
    sums = _sums(series)
    return _require_finite((sums.sse(_theta(params)),), "SSE")[0]


def _trial(sums, k: float):
    """The inner solve at k >= 0 and its SSE, or inf where k may not be an
    iterate.  The solve must be finite and, for k > 0, map to valid
    parameters; k = 0, the straight line, must be a minimum over k >= 0:
    the SSE's slope there, -2 s0 g, is not negative."""
    fit = sums.reduced(k)
    ok = all(abs(v) <= _DOUBLE_MAX for v in fit) and (_valid(*sums.theta(k, fit)) if k else fit[1] * fit[3] <= 0.0)
    return fit, fit[2] if ok else math.inf


def _descend(series, init, max_iter, tol, *, span, tries, step, restart, direction) -> NlFit:
    """The iteration loop of both solvers, on the rate k = 1/tau in the kernel's unit.

    Each iteration backtracks along ``direction(s0, g, h)`` of the inner
    solve at the current k from ``step`` (at most doubling k) with up to
    ``tries`` trials, a trial below 0 taken at 0, and accepts the first k
    whose reduced SSE is no higher than the current k's; ``restart`` maps
    the accepted step to the next start.  Where no step is taken from the
    starting k, the inner solve there is the first iterate.  Converged: the
    SSE is 0, the direction is None or 0 (a stationary point), or the
    relative SSE decrease over the last ``span`` iterations is below
    ``tol``, and the SSE is not above the straight line's, r(0).  Otherwise
    the loop stops at ``max_iter`` or when no damped step improves,
    returning the best iterate found.
    """
    _require_count("max_iter", max_iter, 0)
    if not _ordered(tol) >= 0:
        raise OutOfRange(f"tol={_shown(tol)} must be >= 0")
    sums = _sums(series)
    if len(series.times) < 4:
        raise InsufficientData("nonlinear fitting needs at least 4 samples")
    theta = _theta(default_init(series) if init is None else init)

    current = _require_finite((sums.sse(theta),), "SSE at the starting parameters")[0]
    trace = [(0, current)]
    k = sums.unit / theta[2]
    here = sums.reduced(k)
    _require_finite((*here, *sums.theta(k, here)), "inner solve at the starting tau")
    while True:
        n = len(trace) - 1
        # The one stopping rule; SSEs never increase, so past > 0 if current > 0.
        past = trace[n - span][1] if n >= span else None
        converged = current == 0.0 or (past is not None and (past - current) / past < tol)
        if converged or n >= max_iter:
            break
        _, s0, f, g, h = here
        d = direction(s0, g, h)
        # k = 0 is an iterate only where it is a minimum over k >= 0: stationary.
        stationary = not d or not k
        found = False
        if not stationary:
            if d > 0.0:  # a step at most doubles k: the model changes on the scale of log k
                step = min(step, k / d)
            for _ in range(tries):
                trial_k = max(0.0, k + step * d)
                trial, sse = _trial(sums, trial_k)
                found = sse <= f
                if found:
                    break
                step *= 0.5
        if not found:
            if not f < current:
                # No step improves.  If the smallest one moved the SSE by less than
                # tol, the iterate is a minimum to within the rounding of the SSE,
                # which meets the rule; otherwise the loop has failed.
                converged = stationary or (sse - current) / current < tol
                break
            trial_k, trial = k, here  # the inner solve at the starting k
        k, here, current, step = trial_k, trial, trial[2], restart(step)
        trace.append((n + 1, current))

    if n:
        if not here[1]:
            raise SingularNormalMatrix("the fitted amplitude is 0 (flat data); " + _UNIDENTIFIABLE)
        # k = 0 is the straight line r(0), one member of the family: a fit that
        # stops above its SSE has not found the best, and where k = 0 is a
        # minimum (line_sse is then r(0)'s SSE, else inf) the best is the line
        line, line_sse = _trial(sums, 0.0)
        if not k or (converged and current > line_sse):
            raise SingularNormalMatrix("the best fit is the straight line, at k = 1/tau = 0; " + _UNIDENTIFIABLE)
        converged = converged and not current > line[2]
        theta = sums.theta(k, here)
    return NlFit(
        params=StepModelParams(*theta),
        sse=current,
        iterations=n,
        converged=converged,
        trace=tuple(trace),
    )


def _gauss_newton_step(s0: float, g: float, h: float) -> float | None:
    """The Gauss-Newton step in k, g / (s0 h), or None where s0^2 h is 0."""
    jtj = s0 * h
    return g / jtj if jtj else None


def gauss_newton(
    series: Series,
    init: StepModelParams | None = None,
    *,
    max_iter: int = _GN_MAX_ITER,
    tol: float = 1e-10,
    max_halvings: int = 20,
    freeze_tau: bool = False,
) -> NlFit:
    """Gauss-Newton fit of the step-response model.

    Each iteration takes the Gauss-Newton step in k = 1/tau of the reduced
    problem, with Kaufman's Jacobian -s0 q, and halves it up to
    ``max_halvings`` times until the SSE does not increase; stops once the
    relative SSE decrease falls below ``tol`` or ``max_iter`` is reached.
    With ``freeze_tau`` k stays at its initial value: the fit is the inner
    linear solve for (T_0, T_inf) at the initial tau, in one iteration.
    """
    _require_count("max_halvings", max_halvings, 0)
    return _descend(
        series, init, max_iter, tol, span=1, tries=max_halvings + 1,
        step=1.0, restart=lambda step: 1.0,
        direction=(lambda s0, g, h: None) if freeze_tau else _gauss_newton_step,
    )


def gradient_descent(
    series: Series,
    init: StepModelParams | None = None,
    *,
    learning_rate: float = 1e-4,
    max_iter: int = 50000,
    tol: float = 1e-10,
    window: int = 100,
) -> NlFit:
    """Steepest-descent fit of the step-response model.

    Steps k = 1/tau against the derivative of the reduced SSE, 2 s0 g, with
    backtracking halving whenever a step would increase the SSE; the
    ``learning_rate`` is the first step length, on k in the kernel's unit,
    and the accepted step length seeds the next trial (doubled), so the
    method adapts to the local scale.
    Converged means the relative SSE decrease over a ``window``-iteration
    span fell below ``tol``.

    The result depends on the unit of temperature: the direction scales with
    the temperatures squared, while ``learning_rate`` is an absolute step in
    k, so temperatures in other units take other steps and may stop at
    another iterate.  :func:`gauss_newton` has no such dependence.
    """
    _require_count("window", window, 1)
    if not 0.0 < _ordered(learning_rate) <= _DOUBLE_MAX:
        raise OutOfRange(f"learning_rate={_shown(learning_rate)} must be positive and finite")
    return _descend(
        series, init, max_iter, tol, span=window, tries=60,
        step=float(learning_rate), restart=lambda step: step * 2.0,
        direction=lambda s0, g, h: 2.0 * s0 * g,
    )


# --- the Jacobian and the SSE gradient, which return arrays -------------------------


def jacobian(
    params: StepModelParams,
    times: list[float],
    mode: JacobianMode = JacobianMode.ANALYTIC,
) -> np.ndarray:
    """Partial derivatives of the model at each time, shape (len(times), 3).

    Columns are (dT/dT_0, dT/dT_inf, dT/dtau).  FINITE_DIFF uses central
    differences with step h_j = sqrt(machine eps) * max(1, |theta_j|) and
    serves as an independent check on the analytic formulas.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        theta = np.array(_theta(params))
        t = np.asarray(_require_finite(times, "time"), dtype=float)
        if mode is JacobianMode.ANALYTIC:
            out = np.column_stack(_jac_columns(np, theta, t))
        else:
            out = np.empty((t.size, 3))
            h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(theta))
            for j in range(3):
                plus = theta.copy()
                minus = theta.copy()
                plus[j] += h[j]
                minus[j] -= h[j]
                out[:, j] = (_curve(plus, t, np.exp) - _curve(minus, t, np.exp)) / (plus[j] - minus[j])
        _require_finite(out.flat, "Jacobian entry")
    return out


def sse_gradient(params: StepModelParams, series: Series) -> np.ndarray:
    """Gradient of the SSE objective: -2 * J' r with r = observed - model."""
    import numpy as np

    _require_valid(series)
    with np.errstate(all="ignore"):
        theta = np.array(_theta(params))
        times = np.array(series.times, dtype=float)
        r = np.array(series.temps, dtype=float) - _curve(theta, times, np.exp)
        return _require_finite(-2.0 * np.array([_dot(np, c, r) for c in _jac_columns(np, theta, times)]), "SSE gradient entry")
