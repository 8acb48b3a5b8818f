"""The step-response model on numpy arrays.

This module holds everything of the step model that needs numpy: the model
and its Jacobian over arrays of times, the public ``jacobian`` and
``sse_gradient``, which return arrays, and ``_ArraySums``, the kernel that
gives ``stepsolve``'s solvers their per-sample sums on a series of at least
``errors._ARRAY_MIN`` samples: the SSE at given parameters, and the columns
and element-wise steps of the inner linear solve at a rate k = 1/tau, which
``stepsolve._Sums.reduced`` writes once for both kernels.  The solvers
themselves and ``model_sse`` live in ``stepsolve``, which imports no numpy;
they are exported here too.
numpy's floating-point warnings are silenced here: every public function
checks that its result is finite, and the solvers check what they use.
"""

from __future__ import annotations

import numpy as np

from .dataset import Series, _require_valid
from .errors import _require_finite
from .stepmodel import JacobianMode, StepModelParams
from .stepsolve import _Sums, _theta, gauss_newton, gradient_descent, model_sse  # noqa: F401  (solvers exported here too)


def _curve(theta: np.ndarray, times: np.ndarray) -> np.ndarray:
    t0, tinf, tau = theta
    return tinf + (t0 - tinf) * np.exp(-times / tau)


def _jac_columns(theta: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three columns of the Jacobian, dT/dT_0, dT/dT_inf and dT/dtau."""
    decay = np.exp(-times / theta[2])
    d_tau = (theta[0] - theta[1]) * (times / theta[2] ** 2) * decay
    return decay, 1.0 - decay, d_tau


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of the products a[i] * b[i], by numpy's pairwise summation.
    Not ``a @ b``: BLAS splits that sum between its threads, so its last
    digits depend on how many it runs."""
    return float(np.add.reduce(a * b))


class _ArraySums(_Sums):
    """``stepsolve``'s kernel of per-sample sums on float64 arrays, summed by numpy."""

    def __init__(self, series: Series):
        super().__init__(np.array(series.times, dtype=float), np.array(series.temps, dtype=float))

    @np.errstate(all="ignore")
    def sse(self, theta) -> float:
        r = self.temps - _curve(np.array(theta), self.times)
        return _dot(r, r)

    def columns(self, k: float) -> tuple[np.ndarray, np.ndarray]:
        """phi_k and d(phi_k)/dk at each time, in the kernel's unit."""
        u = self.units
        if not k:
            return u, -0.5 * u * u
        phi = -np.expm1(-k * u) / k
        return phi, (u * np.exp(-k * u) - phi) / k

    @staticmethod
    def centered(a: np.ndarray) -> tuple[float, np.ndarray]:
        mean = float(np.add.reduce(a)) / a.size
        return mean, a - mean

    dot = staticmethod(_dot)

    @staticmethod
    def less(a: np.ndarray, c: float, b: np.ndarray) -> np.ndarray:
        return a - c * b

    @staticmethod
    def over(a: np.ndarray, c: float) -> np.ndarray:
        return a / c

    reduced = np.errstate(all="ignore")(_Sums.reduced)


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
    theta = np.array(_theta(params))
    t = np.asarray(_require_finite(times, "time"), dtype=float)
    if mode is JacobianMode.ANALYTIC:
        out = np.column_stack(_jac_columns(theta, t))
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
    _require_valid(series)
    theta = np.array(_theta(params))
    times = np.array(series.times, dtype=float)
    r = np.array(series.temps, dtype=float) - _curve(theta, times)
    return _require_finite(-2.0 * np.array([_dot(c, r) for c in _jac_columns(theta, times)]), "SSE gradient entry")
