"""First-order thermal step response and iterative least-squares solvers.

A lumped thermal mass driven by a power step warms as

    T(t) = T_inf + (T_0 - T_inf) * exp(-t / tau)

with initial temperature T_0, steady state T_inf, and time constant tau.
Two solvers fit the three parameters to a measured series by minimizing the
sum of squared residuals: Gauss-Newton and steepest descent.  Both are line
searches over one residual/Jacobian core and one backtracking step-halving
search; they differ only in direction, starting step, halvings and stopping.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Series, _require_valid
from .errors import InsufficientData, InvalidInit, SingularNormalMatrix

_MAX_COND = 1e12  # reciprocal of the rank tolerance on J'J


@dataclass(frozen=True)
class StepModelParams:
    """Parameters (T_0, T_inf, tau) of the step-response model."""

    t_ambient_c: float
    t_final_c: float
    tau_s: float

    def as_array(self) -> np.ndarray:
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


def model_eval(params: StepModelParams, t: float) -> float:
    """Temperature at time t: T_inf + (T_0 - T_inf) * exp(-t / tau)."""
    return params.t_final_c + (params.t_ambient_c - params.t_final_c) * math.exp(
        -t / params.tau_s
    )


def _curve(theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    t0, tinf, tau = theta
    return tinf + (t0 - tinf) * np.exp(-times / tau)


def _jac(theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    decay = np.exp(-times / theta[2])
    d_tau = (theta[0] - theta[1]) * (times / theta[2] ** 2) * decay
    return np.column_stack([decay, 1.0 - decay, d_tau])


def _valid(theta: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(theta))) and theta[2] > 0


def _checked_theta(params: StepModelParams) -> np.ndarray:
    theta = params.as_array()
    if not _valid(theta):
        raise InvalidInit(f"invalid step-model parameters {params}")
    return theta


def _arrays(series: Series) -> tuple[np.ndarray, np.ndarray]:
    """The series as (times, temperatures) arrays."""
    times = np.array([s.time_s for s in series.samples])
    ys = np.array([s.temperature_c for s in series.samples])
    return times, ys


def _sse(theta: np.ndarray, times: np.ndarray, ys: np.ndarray) -> float:
    r = ys - _curve(theta, times)
    return float(r @ r)


def _gradient(theta: np.ndarray, times: np.ndarray, ys: np.ndarray) -> np.ndarray:
    r = ys - _curve(theta, times)
    return -2.0 * (_jac(theta, times).T @ r)


def _backtrack(theta, direction, step, tries, current, times, ys):
    """Halve ``step`` until theta + step*direction is valid with SSE <= current.

    Returns (step, theta, sse) of the accepted trial, or None after ``tries``.
    """
    for _ in range(tries):
        trial = theta + step * direction
        if _valid(trial):
            s = _sse(trial, times, ys)
            if s <= current:
                return step, trial, s
        step *= 0.5
    return None


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
    theta = _checked_theta(params)
    t = np.asarray(times, dtype=float)
    if mode is JacobianMode.ANALYTIC:
        return _jac(theta, t)

    out = np.empty((t.size, 3))
    h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(theta))
    for j in range(3):
        plus = theta.copy()
        minus = theta.copy()
        plus[j] += h[j]
        minus[j] -= h[j]
        out[:, j] = (_curve(plus, t) - _curve(minus, t)) / (plus[j] - minus[j])
    return out


def sse_gradient(params: StepModelParams, series: Series) -> np.ndarray:
    """Gradient of the SSE objective: -2 * J' r with r = observed - model."""
    theta = _checked_theta(params)
    return _gradient(theta, *_arrays(series))


def model_sse(params: StepModelParams, series: Series) -> float:
    """Sum of squared residuals of the series against the model."""
    times, ys = _arrays(series)
    return _sse(params.as_array(), times, ys)


def default_init(series: Series) -> StepModelParams:
    """Heuristic start: first temperature, last temperature, a third of the span."""
    first, last = series.samples[0], series.samples[-1]
    return StepModelParams(
        first.temperature_c, last.temperature_c, (last.time_s - first.time_s) / 3.0
    )


def _prepare(series: Series, init: StepModelParams | None):
    if len(series.samples) < 4:
        raise InsufficientData("nonlinear fitting needs at least 4 samples")
    _require_valid(series)
    theta = _checked_theta(default_init(series) if init is None else init)
    return (theta, *_arrays(series))


def _result(theta: np.ndarray, sse: float, iterations: int, converged: bool, trace) -> NlFit:
    t0, tinf, tau = theta
    return NlFit(
        params=StepModelParams(float(t0), float(tinf), float(tau)),
        sse=sse,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )


def gauss_newton(
    series: Series,
    init: StepModelParams | None = None,
    *,
    max_iter: int = 100,
    tol: float = 1e-10,
    max_halvings: int = 20,
    freeze_tau: bool = False,
) -> NlFit:
    """Gauss-Newton fit of the step-response model.

    Each iteration solves (J'J) delta = J'r and applies the step with
    halving damping until the SSE does not increase; stops once the relative
    SSE decrease falls below ``tol`` or ``max_iter`` is reached.  With
    ``freeze_tau`` the time constant stays at its initial value, leaving a
    problem that is linear in (T_0, T_inf) and solved exactly in one step.
    """
    theta, times, ys = _prepare(series, init)
    active = [0, 1] if freeze_tau else [0, 1, 2]

    current = _sse(theta, times, ys)
    trace = [(0, current)]
    converged = current == 0.0
    iterations = 0

    for k in range(1, max_iter + 1):
        if converged or current == 0.0:
            converged = True
            break
        J = _jac(theta, times)[:, active]
        r = ys - _curve(theta, times)
        jtj = J.T @ J
        # Conditioning is measured on the column-equilibrated matrix so that
        # parameter units (seconds vs degrees) cannot masquerade as rank
        # deficiency; a zero diagonal means a structurally dead parameter.
        d = np.sqrt(np.diag(jtj))
        if np.any(d == 0.0):
            raise SingularNormalMatrix(
                "a model parameter has zero sensitivity everywhere; "
                "it cannot be identified from this data"
            )
        cond = np.linalg.cond(jtj / np.outer(d, d))
        if not np.isfinite(cond) or cond > _MAX_COND:
            raise SingularNormalMatrix(
                f"normal matrix condition {cond:.3e} exceeds {_MAX_COND:.0e}; "
                "parameters are not identifiable from this data"
            )
        delta = np.linalg.solve(jtj, J.T @ r)
        if freeze_tau:
            delta = np.append(delta, 0.0)

        accepted = _backtrack(theta, delta, 1.0, max_halvings + 1, current, times, ys)
        if accepted is None:
            break  # no damped step improves; return the best found
        _, theta, new = accepted
        iterations = k
        trace.append((k, new))
        if current > 0 and (current - new) / current < tol:
            converged = True
        current = new

    return _result(theta, current, iterations, converged, trace)


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

    Steps against the SSE gradient with backtracking halving whenever a step
    would increase the SSE; the accepted step length seeds the next trial
    (doubled), so the method adapts to the local scale.  Converged means the
    relative SSE decrease over a ``window``-iteration span fell below ``tol``.
    """
    theta, times, ys = _prepare(series, init)

    current = _sse(theta, times, ys)
    trace = [(0, current)]
    converged = current == 0.0
    iterations = 0
    alpha = learning_rate

    for k in range(1, max_iter + 1):
        if converged:
            break
        grad = _gradient(theta, times, ys)
        if not np.any(grad):
            converged = True
            break

        accepted = _backtrack(theta, -grad, alpha, 60, current, times, ys)
        if accepted is None:
            break  # at the numerical floor
        step, theta, current = accepted
        alpha = step * 2.0
        iterations = k
        trace.append((k, current))
        if k >= window:
            past = trace[k - window][1]
            if past == 0.0 or (past - current) / past < tol:
                converged = True

    return _result(theta, current, iterations, converged, trace)
