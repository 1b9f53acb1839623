"""Reference solutions: characteristics give the exact pre-shock solution of
the quadratic-density flow u_t = 6 u u_x, and its breaking time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dynamics import NonConvergenceError

__all__ = [
    "burgers_breaking",
    "burgers_characteristics",
]


#: Max-residual tolerance and iteration budget of the characteristics solve.
_CHARACTERISTICS_TOL = 1e-12
_CHARACTERISTICS_MAX_ITER = 100


def burgers_characteristics(u0: Callable, x, t, advection: float = 6.0, *,
                            bounds):
    """Pre-shock solution of u_t = a u u_x (a = ``advection``) at (x, t).

    Solves the implicit characteristic relation u = u0(x + a t u) by Newton
    iteration, seeded with u0(x), with the forward-difference slope
    (u0(y + h) - u0(y)) / h, which reuses the u0(y) of the residual.
    ``bounds`` is an interval (lo, hi) holding every value of u0 (see
    :func:`burgers_breaking`).  Before breaking g(u) = u - u0(x + a t u)
    is increasing and its root lies in it, so a point whose Newton
    iterate would leave it keeps from then on a bracket of its own, the
    interval narrowed at each iterate by the sign of its residual, and
    takes the bracket's midpoint whenever Newton's iterate falls outside
    it.  A point whose iterates stay inside never changes path, and a
    round checks the interval with one min and one max over the
    unconverged points.  Infinite bounds never bracket a point: Newton
    then runs unguarded, and near breaking it can diverge from the u0(x)
    seed.
    Valid strictly before the gradient catastrophe.  At or past it the
    iteration either raises NonConvergenceError or lands on one of the
    isolated roots the relation keeps there, so callers keep t below the
    breaking time (:func:`burgers_breaking`).  Accepts scalar or array x
    and returns matching shape.

    ``t`` may also be a 1-D array of times; the result then has one row per
    time, shape ``(len(t),) + x.shape``, from one vectorised iteration over
    the (time, node) points.  Each point runs exactly the iteration of its
    own (x, t) call: the same u0(x) seed, its own residual test and its own
    denominator check, and it is frozen once it converges, so every entry
    is bitwise the one-point result.  A round evaluates u0 twice, on the
    unconverged points only.  A t = 0 point is u0(x).  The call raises
    NonConvergenceError when any point would; ``u0`` must act elementwise
    on arrays of any shape.
    """
    x_arr = np.asarray(x, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array of times")
    seed = np.asarray(u0(x_arr), dtype=float)
    rows = np.broadcast_to(seed, t_arr.shape + x_arr.shape).copy()
    # the iteration runs on the flat (time, node) points of the rows, and
    # carries only the unconverged ones: their index, x, a t and u
    flat = rows.reshape(-1)
    nodes = x_arr.size
    at = np.repeat(advection * t_arr.reshape(-1), nodes)
    index = np.flatnonzero(np.repeat(t_arr.reshape(-1) != 0.0, nodes))
    xs = np.tile(x_arr.reshape(-1), t_arr.size)[index]
    at, u = at[index], flat[index]
    fd_step = 1e-6
    # per-point brackets, made once an iterate first leaves the bounds
    guarded = low = high = None
    for _ in range(_CHARACTERISTICS_MAX_ITER):
        if not index.size:
            break
        y = xs + at * u
        profile = np.asarray(u0(y), dtype=float)
        residual = u - profile
        # a converged point keeps its value from here on
        done = np.abs(residual) < _CHARACTERISTICS_TOL
        if done.any():
            flat[index[done]] = u[done]
            going = ~done
            index, xs, at, u = index[going], xs[going], at[going], u[going]
            y, profile, residual = y[going], profile[going], residual[going]
            if guarded is not None:
                guarded, low, high = guarded[going], low[going], high[going]
            if not index.size:
                break
        slope = (np.asarray(u0(y + fd_step), dtype=float) - profile) / fd_step
        denom = 1.0 - at * slope
        if np.any(np.abs(denom) < 1e-10) or not np.all(np.isfinite(denom)):
            raise NonConvergenceError(
                "characteristics cross at or before this time")
        newton = u - residual / denom
        if (guarded is not None or newton.min() < bounds[0]
                or newton.max() > bounds[1]):
            if guarded is None:
                guarded = np.zeros(u.shape, dtype=bool)
                low = np.full(u.shape, float(bounds[0]))
                high = np.full(u.shape, float(bounds[1]))
            guarded |= (newton < bounds[0]) | (newton > bounds[1])
            # the root lies above an iterate with a negative residual
            below = residual < 0.0
            low = np.where(guarded & below, u, low)
            high = np.where(guarded & ~below, u, high)
            outside = guarded & ~((newton > low) & (newton < high))
            newton = np.where(outside, 0.5 * (low + high), newton)
        u = newton
    if index.size:
        raise NonConvergenceError(
            f"characteristic relation not solved to {_CHARACTERISTICS_TOL:g} "
            f"in {_CHARACTERISTICS_MAX_ITER} iterations")
    return rows if rows.ndim else float(rows)


def burgers_breaking(u0: Callable, L: float, advection: float = 6.0,
                     n: int = 8192):
    """The first gradient-catastrophe time 1/max(a u0') of the L-periodic
    u0 from a fine sample of its slope, infinite when the slope never has
    the breaking sign, and an interval (lo, hi) holding every value of u0:
    the range of the same samples, widened to either side by its width.

    Newton from the u0(x) seed overshoots the range itself from about half
    the breaking time on and still converges; the margin leaves those
    paths alone, while an iterate that runs away (to 1e5 times the range
    near breaking) leaves the interval at once."""
    x = np.linspace(0.0, L, n, endpoint=False)
    h = 1e-6 * L
    ahead, behind = np.asarray(u0(x + h)), np.asarray(u0(x - h))
    slope = (ahead - behind) / (2.0 * h)
    peak = float(np.max(advection * slope))
    t_star = math.inf if peak <= 0.0 else 1.0 / peak
    lo = float(min(ahead.min(), behind.min()))
    hi = float(max(ahead.max(), behind.max()))
    return t_star, (2.0 * lo - hi, 2.0 * hi - lo)
