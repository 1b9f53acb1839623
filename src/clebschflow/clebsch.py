"""Lifted phase space: Clebsch pairs (q, p) and the discrete momentum map.

A lifted state is the packed vector z = (q_1..q_N, p_1..p_N) of two
full-grid sample vectors.  q holds the unwrapped covering-space lift of a
circle map (never reduced mod L), so that the staggered derivative stays
smooth along trajectories; its winding constant C, an integer multiple of
L, is not part of z because the flow never changes it.  The identity lift
made by :func:`lift` winds once, C = L.

A physical half-grid sample u is recovered from the pair by the bilinear
momentum map

    J(q, p) = (D q) . (S p)        (componentwise product)

where D is the winding-corrected staggered derivative.  The raw-array
kernel :func:`momentum_arrays` is the one implementation of J.
"""

from __future__ import annotations

import numpy as np

from .grid import PeriodicGrid, s_avg, t_diff

__all__ = [
    "lift",
    "momentum_arrays",
]


def lift(grid: PeriodicGrid, u0: np.ndarray) -> np.ndarray:
    """Lift full-grid samples u0, shape (N,), to the packed Clebsch pair
    z0 = (q, p).

    q becomes the identity circle map (winding constant L, discrete
    derivative exactly one) and p a copy of u0, so the momentum map of the
    lifted state is the half-grid average of u0.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.N,):
        raise ValueError(f"lift expects {grid.N} full-grid samples, got an "
                         f"array of shape {u0.shape}")
    return np.concatenate([grid.full_nodes, u0])


def momentum_arrays(dx: float, C: float, q: np.ndarray, p: np.ndarray):
    """Momentum map u = (D q) . (S p) on raw arrays, with its two factors.

    Axis 0 is space and trailing axes broadcast, so a column-stacked batch
    of states maps in one call.  Returns (u, D q, S p); the gradient of the
    collective sum reuses the factors.
    """
    dq = t_diff(q)
    dq[0] += C
    dq /= dx
    sp = s_avg(p)
    return dq * sp, dq, sp
