"""Reference solutions and oracles.

* Characteristics give the exact pre-shock solution of the quadratic-density
  flow u_t = 6 u u_x.
* Travelling waves u(x, t) = f(x - c t) of the cubic-density flow reduce to
  a third-order ODE in the wave frame, integrated here with an embedded
  Runge-Kutta 5(4) pair with PI step-size control and quartic dense output.

The pointwise flow generated by the density C1 u^2 + C2 u_x^2 + C3 u^3
+ C4 u_x^3 is

    u_t = (u m)_x + u m_x,    m = 2 C1 u + 3 C3 u^2 - 2 C2 u_xx - 6 C4 u_x u_xx,

which expands to

    u_t = 6 C1 u u_x + 15 C3 u^2 u_x - 2 C2 u_x u_xx - 6 C4 u_x^2 u_xx
          - 4 C2 u u_xxx - 12 C4 u (u_xx^2 + u_x u_xxx).

For the cubic coefficients (1/2, 1/2, -1/4, 1/2) this is the extended
Burgers' equation integrated by both schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import NonConvergenceError
from .hamiltonian import HamiltonianSpec

__all__ = [
    "NonConvergenceError",
    "SingularReductionError",
    "StepSizeUnderflowError",
    "MaxStepsExceededError",
    "burgers_characteristics",
    "burgers_shock_time",
    "travelling_wave_ode",
    "integrate_ode_adaptive",
    "AdaptiveSolution",
]


class SingularReductionError(ArithmeticError):
    """The wave-frame reduction hit a (near-)vanishing leading coefficient."""


class StepSizeUnderflowError(RuntimeError):
    """The adaptive controller drove the step below machine resolution."""


class MaxStepsExceededError(RuntimeError):
    """The adaptive integrator exceeded its step budget."""


# -- characteristics for the quadratic flow -------------------------------------

#: Max-residual tolerance and iteration budget of the characteristics solve.
_CHARACTERISTICS_TOL = 1e-12
_CHARACTERISTICS_MAX_ITER = 100


def burgers_characteristics(u0: Callable, x, t, advection: float = 6.0):
    """Pre-shock solution of u_t = a u u_x (a = ``advection``) at (x, t).

    Solves the implicit characteristic relation u = u0(x + a t u) by Newton
    iteration, seeded with u0(x), with a central-difference slope of u0.
    Valid strictly before the gradient catastrophe.  At or past it the
    iteration either raises NonConvergenceError or lands on one of the
    isolated roots the relation keeps there, so callers keep t below the
    breaking time (:func:`burgers_shock_time`).  Accepts scalar or array x
    and returns matching shape.

    ``t`` may also be a 1-D array of times; the result then has one row per
    time, shape ``(len(t),) + x.shape``, from one vectorised iteration.  Each
    row runs exactly the iteration of its scalar call: the same u0(x) seed,
    its own max-residual test and its own denominator check, and it is
    frozen once it converges, so every row is bitwise the scalar result.  A
    t = 0 row is u0(x).  The call raises NonConvergenceError when any row
    would; ``u0`` must act elementwise on arrays of any shape.
    """
    x_arr = np.asarray(x, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    seed = np.asarray(u0(x_arr), dtype=float)
    rows = np.broadcast_to(seed, t_arr.shape + x_arr.shape).copy()
    # the iteration runs on a (time, node) view of the rows
    flat = rows.reshape(t_arr.size, -1)
    x_flat = x_arr.reshape(1, -1)
    times = t_arr.reshape(-1, 1)
    active = np.flatnonzero(times[:, 0] != 0.0)
    fd_step = 1e-6
    for _ in range(_CHARACTERISTICS_MAX_ITER):
        if not active.size:
            break
        u = flat[active]
        at = advection * times[active]
        y = x_flat + at * u
        residual = u - np.asarray(u0(y), dtype=float)
        # a converged row keeps its value from here on
        going = ~(np.max(np.abs(residual), axis=1) < _CHARACTERISTICS_TOL)
        active, at, y = active[going], at[going], y[going]
        slope = (np.asarray(u0(y + fd_step), dtype=float)
                 - np.asarray(u0(y - fd_step), dtype=float)) / (2.0 * fd_step)
        denom = 1.0 - at * slope
        if np.any(np.abs(denom) < 1e-10) or not np.all(np.isfinite(denom)):
            raise NonConvergenceError(
                "characteristics cross at or before this time")
        flat[active] = u[going] - residual[going] / denom
    if active.size:
        raise NonConvergenceError(
            f"characteristic relation not solved to {_CHARACTERISTICS_TOL:g} "
            f"in {_CHARACTERISTICS_MAX_ITER} iterations")
    return rows if rows.ndim else float(rows)


def burgers_shock_time(u0: Callable, L: float, advection: float = 6.0,
                       n: int = 8192) -> float:
    """First gradient-catastrophe time 1/max(a u0') from a fine sample of
    the initial slope; infinite when the slope never has the breaking sign."""
    x = np.linspace(0.0, L, n, endpoint=False)
    h = 1e-6 * L
    slope = (np.asarray(u0(x + h)) - np.asarray(u0(x - h))) / (2.0 * h)
    peak = float(np.max(advection * slope))
    return math.inf if peak <= 0.0 else 1.0 / peak


# -- travelling-wave reduction of the cubic flow ---------------------------------

#: Leading wave-frame coefficient below which the reduction is singular.
_WAVE_FRAME_FLOOR = 1e-10


def travelling_wave_ode(spec: HamiltonianSpec, c: float) -> Callable:
    """Wave-frame right-hand side as an (s, y)-callable for the adaptive
    integrator, mapping the jet y = (f, f', f'') to (f', f'', f''').

    Substituting u = f(x - c t) into the flow and solving for f''' gives

        f''' = [c f' + 6 C1 f f' + 15 C3 f^2 f' - 2 C2 f' f''
                - 6 C4 f'^2 f'' - 12 C4 f f''^2] / (4 f (C2 + 3 C4 f'))

    The reduction is singular where the leading coefficient 4 f (C2+3 C4 f')
    vanishes; SingularReductionError is raised below a floor of 1e-10.
    Constant states are regular fixed points (the numerator vanishes
    identically with f' = f'' = 0) as long as f itself stays off zero.
    """

    def rhs(s, y):
        f, f1, f2 = float(y[0]), float(y[1]), float(y[2])
        denom = 4.0 * f * (spec.C2 + 3.0 * spec.C4 * f1)
        if abs(denom) < _WAVE_FRAME_FLOOR:
            raise SingularReductionError(
                f"leading wave-frame coefficient {denom:.3e} below floor "
                f"{_WAVE_FRAME_FLOOR:g}")
        numer = (c * f1
                 + 6.0 * spec.C1 * f * f1
                 + 15.0 * spec.C3 * f * f * f1
                 - 2.0 * spec.C2 * f1 * f2
                 - 6.0 * spec.C4 * f1 * f1 * f2
                 - 12.0 * spec.C4 * f * f2 * f2)
        return np.asarray((f1, f2, numer / denom))

    return rhs


# -- embedded Runge-Kutta 5(4) with PI control and dense output -------------------

_RK_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_RK_A = (
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_RK_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_RK_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])
# Quartic dense-output weights for the pair (Shampine's interpolant).
_RK_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_ORDER_EXPONENT = 1.0 / 5.0


@dataclass
class AdaptiveSolution:
    """Dense solution of an adaptive run; call it at any s inside the span.

    step_log records (s, h, scaled_error, accepted) for every attempted
    step, in order.
    """

    s: np.ndarray
    y: np.ndarray
    segments: list
    n_accepted: int
    step_log: list

    def __call__(self, s_eval):
        s_eval = np.asarray(s_eval, dtype=float)
        scalar = s_eval.ndim == 0
        pts = np.atleast_1d(s_eval)
        out = np.empty((pts.shape[0], self.y.shape[1]))
        if not self.segments:
            if np.any(np.abs(pts - self.s[0]) > 1e-12 * max(abs(self.s[0]), 1.0)):
                raise ValueError("degenerate solution only knows its start point")
            out[:] = self.y[0]
            return out[0] if scalar else out
        starts = np.array([seg[0] for seg in self.segments])
        last = len(self.segments) - 1
        lo, hi = self.s[0], self.s[-1]
        span = max(abs(lo), abs(hi), 1.0)
        for i, s in enumerate(pts):
            if s < lo - 1e-12 * span or s > hi + 1e-12 * span:
                raise ValueError(f"sample point {s} outside the solved span")
            k = min(max(np.searchsorted(starts, s, side="right") - 1, 0), last)
            s0, h, y0, Q = self.segments[k]
            theta = (s - s0) / h
            powers = np.array([theta, theta**2, theta**3, theta**4])
            out[i] = y0 + h * (Q @ powers)
        return out[0] if scalar else out


def _initial_step(rhs, s0, y0, f0, rel_tol, abs_tol, direction):
    """Standard two-sample heuristic for the first step size."""
    scale = abs_tol + np.abs(y0) * rel_tol
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(s0 + h0 * direction, y1), dtype=float)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXPONENT
    return min(100 * h0, h1)


def integrate_ode_adaptive(rhs: Callable, y0, s_span, rel_tol: float = 1e-10,
                           abs_tol: float = 1e-12,
                           max_steps: int = 100000) -> AdaptiveSolution:
    """Integrate y' = rhs(s, y) over s_span with the embedded 5(4) pair.

    Accepted steps keep the scaled local-error estimate at or below one;
    the PI controller uses the previous accepted error to smooth the step
    sequence.  Raises StepSizeUnderflowError when the controller collapses
    (typically near a singular reduction) and MaxStepsExceededError past
    the step budget.
    """
    if not (rel_tol > 0 and abs_tol > 0):
        raise ValueError("tolerances must be positive")
    s0, s_end = float(s_span[0]), float(s_span[1])
    y = np.asarray(y0, dtype=float).copy()
    if s_end == s0:
        return AdaptiveSolution(np.array([s0]), y[None, :].copy(), [], 0, [])
    direction = 1.0 if s_end > s0 else -1.0
    f = np.asarray(rhs(s0, y), dtype=float)
    h = _initial_step(rhs, s0, y, f, rel_tol, abs_tol, direction)
    h = min(h, abs(s_end - s0))

    s = s0
    nodes = [s0]
    states = [y.copy()]
    segments = []
    step_log = []
    n_accepted = 0
    err_prev = None
    k_stages = np.empty((7, y.shape[0]))
    h_floor = 16.0 * np.finfo(float).eps * max(abs(s0), abs(s_end))

    for _ in range(max_steps):
        if s == s_end or abs(s_end - s) <= h_floor:
            break
        h = min(h, abs(s_end - s))
        if h < h_floor:
            raise StepSizeUnderflowError(
                f"step size {h:.3e} underflowed at s = {s:.6g}")
        hd = h * direction
        k_stages[0] = f
        for i in range(1, 7):
            yi = y + hd * (_RK_A[i] @ k_stages[:i])
            k_stages[i] = np.asarray(rhs(s + _RK_C[i] * hd, yi), dtype=float)
        y_new = y + hd * (_RK_B @ k_stages)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_vec = hd * (_RK_E @ k_stages)
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        accepted = err <= 1.0
        step_log.append((s, h, err, accepted))
        if accepted:
            segments.append((s, hd, y.copy(), k_stages.T @ _RK_P))
            s = s_end if abs(s_end - (s + hd)) < h_floor else s + hd
            y = y_new
            f = k_stages[6].copy()
            nodes.append(s)
            states.append(y.copy())
            n_accepted += 1
            err = max(err, 1e-10)
            if err_prev is None:
                factor = 0.9 * err ** (-_ORDER_EXPONENT)
            else:
                factor = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            err_prev = err
            h *= min(5.0, max(0.2, factor))
        else:
            err_prev = None
            h *= min(1.0, max(0.2, 0.9 * err ** (-_ORDER_EXPONENT)))
    else:
        raise MaxStepsExceededError(
            f"no convergence within {max_steps} steps (reached s = {s:.6g})")

    return AdaptiveSolution(np.array(nodes), np.array(states), segments,
                            n_accepted, step_log)
