"""Least-squares solvers for the step-response model in ``stepmodel``.

``gauss_newton`` and ``gradient_descent`` fit (T_0, T_inf, tau) to a
measured series by minimizing the sum of squared residuals; ``model_sse`` is
that sum.  This module imports no numpy, and ``stepmodel``, which a report
or a plot needs without fitting anything, does not import this one.

Both solvers are line searches run by one iteration loop, ``_descend``, over
one backtracking step-halving search and one solver of the normal equations;
they differ only in direction, starting step and halvings.  One rule, tested
once per SSE, stops both: converged when the SSE is 0 or its relative
decrease over the last ``span`` iterations falls below ``tol`` (``span`` is 1
for Gauss-Newton, ``window`` for steepest descent).  The parameters are a
tuple of three floats; only the per-sample sums (the SSE, J'J and J'r) come
from a kernel chosen by the series' size: exact ``math.fsum`` sums over
Python lists below ``_ARRAY_MIN`` samples, numpy's pairwise sums over arrays
from it (``stepfit._ArraySums``).  So a fit of a short series never loads numpy.
Every function here refuses an invalid series (checked once per Series
object) or parameters, the solvers refuse out-of-range options, and a result
that is not finite raises OutOfRange.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import chain

from .dataset import Series, _require_valid
from .errors import (
    _ARRAY_MIN,
    _DOUBLE_MAX,
    _GN_MAX_ITER,
    InsufficientData,
    OutOfRange,
    SingularNormalMatrix,
    _require_finite,
    _shown,
)
from .stepmodel import NlFit, StepModelParams, _checked, _require_count, _valid, default_init

_MAX_COND = 1e12  # reciprocal of the rank tolerance on J'J


def _theta(params: StepModelParams) -> tuple[float, float, float]:
    """The checked parameters as the solvers' three floats (T_0, T_inf, tau)."""
    p = _checked(params)
    return float(p.t_ambient_c), float(p.t_final_c), float(p.tau_s)


# --- the per-sample sums ------------------------------------------------------------
#
# A kernel holds one series and gives the solvers its sums at parameters theta:
# ``sse(theta)``, ``jtr(theta)`` (J'r, r = observed - model) and
# ``normal(theta, active)`` (J'J and J'r over the active parameters, as nested
# sequences).  A value that overflows is inf or NaN, as in floating point; the
# callers check what they use.


def _sums(series: Series):
    """The series, refused unless valid, as the kernel its size calls for."""
    _require_valid(series)
    if len(series.times) >= _ARRAY_MIN:
        from .stepfit import _ArraySums  # deferred: stepfit imports numpy

        return _ArraySums(series)
    return _ListSums(series)


def _dot(a, b) -> float:
    """The exact (correctly rounded) sum of the products a[i] * b[i]; where
    math.fsum raises, the floating-point sum: +-inf on overflow, NaN for
    inf + -inf."""
    terms = list(map(operator.mul, a, b))
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class _ListSums:
    """The solvers' sums on Python lists, each an exact (correctly rounded) fsum
    of the terms the array kernel sums; the terms are formed as numpy forms them."""

    def __init__(self, series: Series):
        self.times = list(map(float, series.times))
        self.temps = list(map(float, series.temps))

    def _decays(self, tau: float) -> list[float]:
        try:
            return [math.exp(-t / tau) for t in self.times]
        except OverflowError:  # a time long before the step
            return [_exp(-t / tau) for t in self.times]

    def _residuals(self, theta, decays) -> list[float]:
        t0, tinf, _ = theta
        a = t0 - tinf
        return [y - (tinf + a * e) for y, e in zip(self.temps, decays)]

    def sse(self, theta) -> float:
        r = self._residuals(theta, self._decays(theta[2]))
        return _dot(r, r)

    def _columns(self, theta):
        """The three columns of the Jacobian at theta, and the residuals."""
        t0, tinf, tau = theta
        decays = self._decays(tau)
        tau2 = tau * tau
        # t / tau**2 as numpy divides, also by a square that underflowed to 0
        scaled = [t / tau2 for t in self.times] if tau2 else [t * math.inf for t in self.times]
        a = t0 - tinf
        columns = (decays, [1.0 - e for e in decays], [a * s * e for s, e in zip(scaled, decays)])
        return columns, self._residuals(theta, decays)

    def jtr(self, theta) -> tuple[float, ...]:
        columns, r = self._columns(theta)
        return tuple(_dot(c, r) for c in columns)

    def normal(self, theta, active):
        columns, r = self._columns(theta)
        columns = [columns[j] for j in active]
        jtj = tuple(tuple(_dot(ci, cj) for cj in columns) for ci in columns)
        return jtj, tuple(_dot(c, r) for c in columns)


# --- the normal equations -----------------------------------------------------------

_EPS = sys.float_info.epsilon
_UNIDENTIFIABLE = "parameters are not identifiable from this data"
_SWEEPS = 30  # cyclic Jacobi converges quadratically: a 3x3 takes a few sweeps


def _eigenvalues(a) -> list[float]:
    """Eigenvalues of the symmetric matrix ``a``, by cyclic Jacobi rotations.
    An off-diagonal entry is rotated away until it is below
    eps * sqrt(|a_pp| * |a_qq|), which keeps the small eigenvalues of a
    well-scaled matrix to high relative accuracy."""
    n = len(a)
    a = [list(row) for row in a]
    for _ in range(_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= _EPS * math.sqrt(abs(a[p][p])) * math.sqrt(abs(a[q][q])):
                    continue
                rotated = True
                h = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, h) / (abs(h) + math.hypot(h, 1.0))  # tan of the rotation angle
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
        if not rotated:
            break
    return [a[i][i] for i in range(n)]


def _solve_normal(jtj, jtr) -> list[float]:
    """delta with (J'J) delta = J'r, for a finite symmetric normal matrix.

    Conditioning is measured on the equilibrated matrix (unit diagonal), so
    that parameter units (seconds vs degrees) cannot masquerade as rank
    deficiency; a zero diagonal means a structurally dead parameter.  The
    2-norm condition is the ratio of the extreme eigenvalues of the
    equilibrated matrix.  The system is then solved as LAPACK's gesv solves
    it: Gaussian elimination with partial pivoting of the matrix as given.
    """
    n = len(jtj)
    d = [math.sqrt(jtj[i][i]) for i in range(n)]
    if 0.0 in d:
        raise SingularNormalMatrix(
            "a model parameter has zero sensitivity everywhere; "
            "it cannot be identified from this data"
        )
    lam = _eigenvalues([[jtj[i][j] / d[i] / d[j] for j in range(n)] for i in range(n)])
    low = min(map(abs, lam))
    cond = max(map(abs, lam)) / low if low else math.inf
    if not cond <= _MAX_COND:
        raise SingularNormalMatrix(
            f"normal matrix condition {cond:.3e} exceeds {_MAX_COND:.0e}; " + _UNIDENTIFIABLE
        )
    m = [[*row, b] for row, b in zip(jtj, jtr)]
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(m[i][k]))
        m[k], m[pivot] = m[pivot], m[k]
        if m[k][k] == 0.0:  # the elimination underflowed: tiny sensitivities
            raise SingularNormalMatrix("normal matrix is singular to working precision; " + _UNIDENTIFIABLE)
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return x


# --- the solvers --------------------------------------------------------------------


def model_sse(params: StepModelParams, series: Series) -> float:
    """Sum of squared residuals of the series against the model."""
    sums = _sums(series)
    return _require_finite((sums.sse(_theta(params)),), "SSE")[0]


def _descend(series, init, max_iter, tol, *, span, tries, step, restart, direction) -> NlFit:
    """The iteration loop of both solvers.

    Each iteration backtracks along ``direction(sums, theta)`` from ``step``
    with up to ``tries`` trials; ``restart`` maps the accepted step to the
    next start.  Converged: the SSE is 0, the direction is None (a
    stationary point), or the relative SSE decrease over the last ``span``
    iterations is below ``tol``.  Otherwise the loop stops at ``max_iter``
    or when no damped step improves, returning the best iterate found.
    """
    _require_count("max_iter", max_iter, 0)
    if not tol >= 0:
        raise OutOfRange(f"tol={_shown(tol)} must be >= 0")
    sums = _sums(series)
    if len(series.times) < 4:
        raise InsufficientData("nonlinear fitting needs at least 4 samples")
    theta = _theta(default_init(series) if init is None else init)

    current = _require_finite((sums.sse(theta),), "SSE at the starting parameters")[0]
    trace = [(0, current)]
    while True:
        k = len(trace) - 1
        # The one stopping rule; SSEs never increase, so past > 0 if current > 0.
        past = trace[k - span][1] if k >= span else None
        converged = current == 0.0 or (past is not None and (past - current) / past < tol)
        if converged or k >= max_iter:
            break
        d = direction(sums, theta)
        converged = d is None
        if converged:
            break
        for _ in range(tries):
            trial = tuple(a + step * b for a, b in zip(theta, d))
            sse = sums.sse(trial) if _valid(*trial) else math.inf
            if sse <= current:
                break
            step *= 0.5
        else:
            # No damped step improves.  If the smallest one moved the SSE by less
            # than tol, the best iterate is a minimum to within the rounding of the
            # SSE, which meets the rule; otherwise the loop has failed.
            converged = (sse - current) / current < tol
            break
        theta, current, step = trial, sse, restart(step)
        trace.append((k + 1, current))

    return NlFit(
        params=StepModelParams(*theta),
        sse=current,
        iterations=k,
        converged=converged,
        trace=tuple(trace),
    )


def _normal_step(sums, theta, active) -> list[float]:
    """Gauss-Newton direction: (J'J) delta = J'r over the ``active`` parameters."""
    jtj, jtr = sums.normal(theta, active)
    _require_finite(chain.from_iterable(jtj), "normal matrix entry")
    delta = [0.0, 0.0, 0.0]
    for j, dj in zip(active, _solve_normal(jtj, jtr)):
        delta[j] = dj
    return delta


def _downhill(sums, theta):
    """Steepest-descent direction, -grad = 2 J'r, or None where the gradient is zero."""
    d = [2.0 * g for g in sums.jtr(theta)]
    return d if any(d) else None


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
    active = (0, 1) if freeze_tau else (0, 1, 2)
    return _descend(
        series, init, max_iter, tol, span=1, tries=max_halvings + 1,
        step=1.0, restart=lambda step: 1.0,
        direction=lambda sums, theta: _normal_step(sums, theta, active),
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
