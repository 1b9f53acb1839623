"""Lifted phase space: Clebsch pairs (q, p) and the discrete momentum map.

A physical half-grid sample u is recovered from a pair of full-grid samples
by the bilinear momentum map

    J(q, p) = (D q) . (S p)        (componentwise product)

where D is the winding-corrected staggered derivative.  The raw-array
kernel :func:`momentum_arrays` is the one implementation of J: the
collective Hamiltonian and its gradient call it on packed states, and
:func:`momentum_map` wraps its result in a half-staggered Field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    PeriodicGrid,
    Staggering,
    StaggeringError,
    _require,
    s_avg,
    t_diff,
)

__all__ = [
    "ClebschState",
    "lift",
    "momentum_arrays",
    "momentum_map",
]


@dataclass(frozen=True)
class ClebschState:
    """Phase point (q, p) with its winding constant C.

    q holds the unwrapped covering-space lift of a circle map (never reduced
    mod L) so that the staggered derivative stays smooth along trajectories.
    C is an integer multiple of the circumference, frozen at construction;
    the flow never changes it.
    """

    q: Field
    p: Field
    C: float

    def __post_init__(self):
        if self.q.staggering is not Staggering.FULL:
            raise StaggeringError("q must be full-staggered")
        if self.p.staggering is not Staggering.FULL:
            raise StaggeringError("p must be full-staggered")
        if len(self.q) != len(self.p):
            raise ValueError("q and p must live on the same grid")


def lift(grid: PeriodicGrid, u0: Field) -> ClebschState:
    """Lift full-grid samples u0 to the canonical Clebsch pair.

    q becomes the identity circle map (winding constant L, discrete
    derivative exactly one) and p a copy of u0, so the momentum map of the
    lifted state is the half-grid average of u0.
    """
    v = _require(u0, Staggering.FULL, "lift")
    if len(u0) != grid.N:
        raise ValueError("initial samples do not match the grid")
    q = Field.full(grid.full_nodes)
    p = Field.full(v.copy())
    return ClebschState(q=q, p=p, C=grid.L)


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


def momentum_map(grid: PeriodicGrid, state: ClebschState) -> Field:
    """Half-grid product (D q) . (S p) recovering u from the pair."""
    u, _, _ = momentum_arrays(grid.dx, state.C, state.q.values,
                              state.p.values)
    return Field.half(u)
