"""Reference solutions: characteristics give the exact pre-shock solution of
the quadratic-density flow u_t = 6 u u_x, and its breaking time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dynamics import NonConvergenceError

__all__ = [
    "burgers_characteristics",
    "burgers_shock_time",
]


#: Max-residual tolerance and iteration budget of the characteristics solve.
_CHARACTERISTICS_TOL = 1e-12
_CHARACTERISTICS_MAX_ITER = 100


def burgers_characteristics(u0: Callable, x, t, advection: float = 6.0):
    """Pre-shock solution of u_t = a u u_x (a = ``advection``) at (x, t).

    Solves the implicit characteristic relation u = u0(x + a t u) by Newton
    iteration, seeded with u0(x), with the forward-difference slope
    (u0(y + h) - u0(y)) / h, which reuses the u0(y) of the residual.
    Valid strictly before the gradient catastrophe.  At or past it the
    iteration either raises NonConvergenceError or lands on one of the
    isolated roots the relation keeps there, so callers keep t below the
    breaking time (:func:`burgers_shock_time`).  Accepts scalar or array x
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
            if not index.size:
                break
        slope = (np.asarray(u0(y + fd_step), dtype=float) - profile) / fd_step
        denom = 1.0 - at * slope
        if np.any(np.abs(denom) < 1e-10) or not np.all(np.isfinite(denom)):
            raise NonConvergenceError(
                "characteristics cross at or before this time")
        u = u - residual / denom
    if index.size:
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
