"""Least-squares solvers for the step-response model in ``stepmodel``.

This module holds everything that needs numpy: the model and its Jacobian
over arrays of times, the SSE and its gradient, and the two solvers that
fit (T_0, T_inf, tau) to a measured series by minimizing the sum of squared
residuals, Gauss-Newton and steepest descent.  The parameter and result
types, the parameter check and the starting guess stay in ``stepmodel``,
which imports no numpy, so that a program that only evaluates, reports or
plots a fit never loads it.

Both solvers are line searches run by one iteration loop over one
residual/Jacobian core and one backtracking step-halving search; they differ
only in direction, starting step and halvings.  One rule, tested once per
SSE, stops both: converged when the SSE is 0 or its relative decrease over
the last ``span`` iterations falls below ``tol`` (``span`` is 1 for
Gauss-Newton, ``window`` for steepest descent).  Every function here refuses
an invalid series (checked once per Series object) or parameters, the solvers
refuse out-of-range options, and a result that is not finite raises OutOfRange.
"""

from __future__ import annotations

import numpy as np

from .dataset import Series, _require_valid
from .errors import _DOUBLE_MAX, InsufficientData, OutOfRange, SingularNormalMatrix, _require_finite, _shown
from .stepmodel import JacobianMode, NlFit, StepModelParams, _GN_MAX_ITER, _checked, _require_count, _valid, default_init

_MAX_COND = 1e12  # reciprocal of the rank tolerance on J'J


def _curve(theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    t0, tinf, tau = theta
    return tinf + (t0 - tinf) * np.exp(-times / tau)


def _jac(theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    decay = np.exp(-times / theta[2])
    d_tau = (theta[0] - theta[1]) * (times / theta[2] ** 2) * decay
    return np.column_stack([decay, 1.0 - decay, d_tau])


def _arrays(series: Series) -> tuple[np.ndarray, np.ndarray]:
    """The series, refused unless valid, as (times, temperatures) arrays."""
    _require_valid(series)
    return np.array(series.times, dtype=float), np.array(series.temps, dtype=float)


def _sse(theta: np.ndarray, times: np.ndarray, ys: np.ndarray) -> float:
    r = ys - _curve(theta, times)
    return float(r @ r)


def _gradient(theta: np.ndarray, times: np.ndarray, ys: np.ndarray) -> np.ndarray:
    r = ys - _curve(theta, times)
    return -2.0 * (_jac(theta, times).T @ r)


@np.errstate(all="ignore")
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
    theta = _checked(params).as_array()
    t = np.asarray(_require_finite(times, "time"), dtype=float)
    if mode is JacobianMode.ANALYTIC:
        out = _jac(theta, t)
    else:
        out = np.empty((t.size, 3))
        h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(theta))
        for j in range(3):
            plus = theta.copy()
            minus = theta.copy()
            plus[j] += h[j]
            minus[j] -= h[j]
            out[:, j] = (_curve(plus, t) - _curve(minus, t)) / (plus[j] - minus[j])
    _require_finite(out.flat, "Jacobian entry")
    return out


@np.errstate(all="ignore")
def sse_gradient(params: StepModelParams, series: Series) -> np.ndarray:
    """Gradient of the SSE objective: -2 * J' r with r = observed - model."""
    times, ys = _arrays(series)
    return _require_finite(_gradient(_checked(params).as_array(), times, ys), "SSE gradient entry")


@np.errstate(all="ignore")
def model_sse(params: StepModelParams, series: Series) -> float:
    """Sum of squared residuals of the series against the model."""
    times, ys = _arrays(series)
    return _require_finite((_sse(_checked(params).as_array(), times, ys),), "SSE")[0]


@np.errstate(all="ignore")
def _descend(series, init, max_iter, tol, *, span, tries, step, restart, direction) -> NlFit:
    """The iteration loop of both solvers.

    Each iteration backtracks along ``direction(theta, times, ys)`` from
    ``step`` with up to ``tries`` trials; ``restart`` maps the accepted step
    to the next start.  Converged: the SSE is 0, the direction is None (a
    stationary point), or the relative SSE decrease over the last ``span``
    iterations is below ``tol``.  Otherwise the loop stops at ``max_iter``
    or when no damped step improves, returning the best iterate found.
    """
    _require_count("max_iter", max_iter, 0)
    if not tol >= 0:
        raise OutOfRange(f"tol={_shown(tol)} must be >= 0")
    times, ys = _arrays(series)
    if len(times) < 4:
        raise InsufficientData("nonlinear fitting needs at least 4 samples")
    theta = _checked(default_init(series) if init is None else init).as_array()

    current = _require_finite((_sse(theta, times, ys),), "SSE at the starting parameters")[0]
    trace = [(0, current)]
    while True:
        k = len(trace) - 1
        # The one stopping rule; SSEs never increase, so past > 0 if current > 0.
        past = trace[k - span][1] if k >= span else None
        converged = current == 0.0 or (past is not None and (past - current) / past < tol)
        if converged or k >= max_iter:
            break
        d = direction(theta, times, ys)
        converged = d is None
        if converged:
            break
        for _ in range(tries):
            trial = theta + step * d
            if _valid(*trial):
                sse = _sse(trial, times, ys)
                if sse <= current:
                    break
            step *= 0.5
        else:
            break
        theta, current, step = trial, sse, restart(step)
        trace.append((k + 1, current))

    return NlFit(
        params=StepModelParams(*map(float, theta)),
        sse=current,
        iterations=k,
        converged=converged,
        trace=tuple(trace),
    )


def _normal_step(theta, times, ys, active):
    """Gauss-Newton direction: (J'J) delta = J'r over the ``active`` parameters."""
    J = _jac(theta, times)[:, active]
    r = ys - _curve(theta, times)
    jtj = J.T @ J
    _require_finite(jtj.flat, "normal matrix entry")
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
    delta = np.zeros(3)
    delta[active] = np.linalg.solve(jtj, J.T @ r)
    return delta


def _downhill(theta, times, ys):
    """Steepest-descent direction, or None where the gradient is zero."""
    grad = _gradient(theta, times, ys)
    return -grad if np.any(grad) else None


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

    Each iteration solves (J'J) delta = J'r and applies the step with
    halving damping until the SSE does not increase; stops once the relative
    SSE decrease falls below ``tol`` or ``max_iter`` is reached.  With
    ``freeze_tau`` the time constant stays at its initial value, leaving a
    problem that is linear in (T_0, T_inf) and solved exactly in one step.
    """
    _require_count("max_halvings", max_halvings, 0)
    active = [0, 1] if freeze_tau else [0, 1, 2]
    return _descend(
        series, init, max_iter, tol, span=1, tries=max_halvings + 1,
        step=1.0, restart=lambda step: 1.0,
        direction=lambda theta, times, ys: _normal_step(theta, times, ys, active),
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

    Steps against the SSE gradient with backtracking halving whenever a step
    would increase the SSE; the accepted step length seeds the next trial
    (doubled), so the method adapts to the local scale.  Converged means the
    relative SSE decrease over a ``window``-iteration span fell below ``tol``.
    """
    _require_count("window", window, 1)
    if not 0.0 < learning_rate <= _DOUBLE_MAX:
        raise OutOfRange(f"learning_rate={_shown(learning_rate)} must be positive and finite")
    return _descend(
        series, init, max_iter, tol, span=window, tries=60,
        step=learning_rate, restart=lambda step: step * 2.0, direction=_downhill,
    )
