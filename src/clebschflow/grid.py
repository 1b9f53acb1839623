"""Uniform periodic grids on the circle and the staggered operators between them.

Two interleaved node sets discretise the circle R/LZ of circumference L:

    full nodes   x_j       = j * dx         j = 1..N
    half nodes   x_{j-1/2} = (j - 1/2) * dx j = 1..N

with dx = L/N.  Entry j of any half-staggered result always refers to
x_{j-1/2}; entry j of a full-staggered result to x_j.  All index arithmetic
wraps around, so j = 0 means j = N and j = N+1 means j = 1.

Operators:

    apply_T    full -> half    (f_j - f_{j-1}) / dx     compact difference
    apply_D    full -> half    apply_T plus C/dx added to entry 1 (winding)
    apply_S    full -> half    (f_{j-1} + f_j) / 2      second-order average
    apply_Tt   half -> full    g_j - g_{j+1}            transpose of T, no 1/dx
    apply_St   half -> full    (g_j + g_{j+1}) / 2      transpose of S

The transposes are plain matrix transposes of the unscaled stencils, so the
exact adjoint identities are  <dx*apply_T(f), g> = <f, apply_Tt(g)>  and
<apply_S(f), g> = <f, apply_St(g)>.

The low-level ``*_diff`` / ``*_avg`` helpers act on raw arrays along axis 0
and broadcast over trailing axes, which lets the time steppers evaluate
whole batches of perturbed states in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Staggering",
    "StaggeringError",
    "PeriodicGrid",
    "Field",
    "apply_T",
    "apply_D",
    "apply_S",
    "apply_Tt",
    "apply_St",
    "t_diff",
    "tt_diff",
    "s_avg",
    "st_avg",
]


class Staggering(Enum):
    FULL = "full"
    HALF = "half"


class StaggeringError(ValueError):
    """An operation received samples living on the wrong node set."""


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

    def nodes(self, staggering: Staggering) -> np.ndarray:
        return self.full_nodes if staggering is Staggering.FULL else self.half_nodes


@dataclass(frozen=True)
class Field:
    """Real samples on one node set of a periodic grid.

    The staggering tag is fixed at construction; pointwise binary operations
    between two fields require matching tags.
    """

    values: np.ndarray
    staggering: Staggering

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("a field stores a one-dimensional sample vector")
        object.__setattr__(self, "values", values)

    @classmethod
    def full(cls, values) -> "Field":
        return cls(values, Staggering.FULL)

    @classmethod
    def half(cls, values) -> "Field":
        return cls(values, Staggering.HALF)

    def __len__(self) -> int:
        return self.values.shape[0]

    def _coerce(self, other):
        if isinstance(other, Field):
            if other.staggering is not self.staggering:
                raise StaggeringError(
                    f"cannot combine {self.staggering.value}- and "
                    f"{other.staggering.value}-staggered fields pointwise"
                )
            return other.values
        return other

    def __add__(self, other):
        return Field(self.values + self._coerce(other), self.staggering)

    __radd__ = __add__

    def __sub__(self, other):
        return Field(self.values - self._coerce(other), self.staggering)

    def __rsub__(self, other):
        return Field(self._coerce(other) - self.values, self.staggering)

    def __mul__(self, other):
        return Field(self.values * self._coerce(other), self.staggering)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Field(self.values / self._coerce(other), self.staggering)

    def __neg__(self):
        return Field(-self.values, self.staggering)


def _require(f: Field, staggering: Staggering, op: str) -> np.ndarray:
    if not isinstance(f, Field):
        raise TypeError(f"{op} expects a Field, got {type(f).__name__}")
    if f.staggering is not staggering:
        raise StaggeringError(
            f"{op} expects a {staggering.value}-staggered field, "
            f"got {f.staggering.value}"
        )
    return f.values


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


# -- field-level operators ----------------------------------------------------

def apply_T(grid: PeriodicGrid, f: Field) -> Field:
    """Staggered derivative (T f)/dx: full-grid samples to half-grid slopes."""
    v = _require(f, Staggering.FULL, "apply_T")
    return Field(t_diff(v) / grid.dx, Staggering.HALF)


def apply_D(grid: PeriodicGrid, q: Field, C: float) -> Field:
    """Winding-corrected derivative (T q + C e_1)/dx of a circle-map lift.

    C must be an integer multiple of L (L times the degree of the map);
    entry 1 of the plain difference is off by exactly C because q is stored
    unwrapped on the covering space.
    """
    v = _require(q, Staggering.FULL, "apply_D")
    out = t_diff(v)
    out[0] += C
    out /= grid.dx
    return Field(out, Staggering.HALF)


def apply_S(grid: PeriodicGrid, f: Field) -> Field:
    """Second-order average of full-grid samples onto the half grid."""
    v = _require(f, Staggering.FULL, "apply_S")
    return Field(s_avg(v), Staggering.HALF)


def apply_Tt(grid: PeriodicGrid, f: Field) -> Field:
    """Plain transpose of T (no 1/dx): half-grid samples to the full grid."""
    v = _require(f, Staggering.HALF, "apply_Tt")
    return Field(tt_diff(v), Staggering.FULL)


def apply_St(grid: PeriodicGrid, f: Field) -> Field:
    """Transpose of S: second-order average back onto the full grid."""
    v = _require(f, Staggering.HALF, "apply_St")
    return Field(st_avg(v), Staggering.FULL)
