"""Uniform periodic grids on the circle and the staggered stencils between them.

Two interleaved node sets discretise the circle R/LZ of circumference L:

    full nodes   x_j       = j * dx         j = 1..N
    half nodes   x_{j-1/2} = (j - 1/2) * dx j = 1..N

with dx = L/N.  Entry j of any half-staggered result always refers to
x_{j-1/2}; entry j of a full-staggered result to x_j.  All index arithmetic
wraps around, so j = 0 means j = N and j = N+1 means j = 1.

Stencils, unscaled (the kernels divide by dx where they need to):

    t_diff    full -> half    f_j - f_{j-1}            compact difference T
    s_avg     full -> half    (f_{j-1} + f_j) / 2      second-order average S
    tt_diff   half -> full    g_j - g_{j+1}            transpose of T
    st_avg    half -> full    (g_j + g_{j+1}) / 2      transpose of S

The transposes are plain matrix transposes, so  <t_diff(f), g> =
<f, tt_diff(g)>  and  <s_avg(f), g> = <f, st_avg(g)>  exactly.  They act on
raw arrays along axis 0 and broadcast over trailing axes, which lets the
time steppers evaluate whole batches of perturbed states in one call.
Samples are plain arrays throughout the package; which node set an array
lives on is fixed by the function that produces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicGrid",
    "t_diff",
    "tt_diff",
    "s_avg",
    "st_avg",
]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform N-point periodic grid on a circle of circumference L."""

    N: int
    L: float

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"node count must be an integer >= 2, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"circumference must be positive, got {self.L}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "L", float(self.L))

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def full_nodes(self) -> np.ndarray:
        return self.dx * np.arange(1, self.N + 1)

    @property
    def half_nodes(self) -> np.ndarray:
        return self.dx * (np.arange(1, self.N + 1) - 0.5)


# -- raw-array stencils (axis 0 is space, trailing axes broadcast) ------------
#
# Each stencil fills rows 1..N-1 (or 0..N-2) from two shifted slices and the
# wraparound row from the first and last rows.  Slices avoid the copies that
# np.roll makes, which dominate the cost at small N, and do the same float
# operations in the same order, so results are bitwise those of the rolled
# forms.  Inputs are float arrays; the output has the input's shape and dtype.

def t_diff(values: np.ndarray) -> np.ndarray:
    """Unscaled difference v_j - v_{j-1} with wraparound."""
    out = np.empty_like(values)
    np.subtract(values[1:], values[:-1], out=out[1:])
    np.subtract(values[:1], values[-1:], out=out[:1])
    return out


def tt_diff(values: np.ndarray) -> np.ndarray:
    """Unscaled transpose difference v_j - v_{j+1} with wraparound."""
    out = np.empty_like(values)
    np.subtract(values[:-1], values[1:], out=out[:-1])
    np.subtract(values[-1:], values[:1], out=out[-1:])
    return out


def s_avg(values: np.ndarray) -> np.ndarray:
    """Neighbour average (v_{j-1} + v_j) / 2 with wraparound."""
    out = np.empty_like(values)
    np.add(values[1:], values[:-1], out=out[1:])
    np.add(values[:1], values[-1:], out=out[:1])
    out *= 0.5
    return out


def st_avg(values: np.ndarray) -> np.ndarray:
    """Transpose average (v_j + v_{j+1}) / 2 with wraparound."""
    out = np.empty_like(values)
    np.add(values[:-1], values[1:], out=out[:-1])
    np.add(values[-1:], values[:1], out=out[-1:])
    out *= 0.5
    return out
