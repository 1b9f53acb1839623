"""Polynomial Hamiltonian densities in (u, u_x), their discrete sums in the
lifted and direct pictures, exact gradients, and the square-root Casimir.

The density C1 u^2 + C2 u_x^2 + C3 u^3 + C4 u_x^3 splits into an even part
(powers of u) and an odd part (powers of u_x).  The lifted sum evaluates
both on the half grid: the slope of u, which the transpose difference
produces on full nodes, is averaged back with S first.  An alternative sum
that keeps the odd part on the full nodes (skipping the averaging) is
consistent to the same order but turns out to destabilise the fibre
directions of the lifted system over long runs: the half-grid form damps
the near-Nyquist modes that the averaging matrix annihilates, and measured
growth rates of the linearised flow drop several-fold with it.  Only the
half-grid form is provided.

Scale convention: the lifted (collective) sum carries *no* dx factor (the
dx lives in the scaled symplectic form dx * sum dq^j ^ dp_j, which puts the
canonical equations in standard form), while the direct-picture sum is a
plain quadrature and does carry dx.

The kernels evaluate the odd part only when the spec has one
(:attr:`HamiltonianSpec.has_odd_part`: C2 or C4 nonzero).  Otherwise that
part is exactly +0.0 wherever the slope is finite, so leaving it out is
bitwise: the lifted gradient subtracted it, and x - (+0.0) = x; the direct
gradient and both sums added it, and keep a literal + 0.0 in its place,
which turns -0.0 into +0.0 as the addition did.  Likewise the even
monomial C3 u^3 is evaluated only when C3 is not +0.0
(:attr:`HamiltonianSpec.has_cubic_term`).  On finite u its zero term in the
derivative, 0 u u, is +0.0, and a literal + 0.0 stands in for it; its zero
term in the density, 0 u u u, carries the sign of u, and the term 0.0 * u
stands in for it.

Each sum, each gradient and the Casimir has one kernel, on raw arrays: the
lifted pair (q, p) with its winding constant C, or the direct samples u.
A sum takes one state, shape (N,), and gives a float, or a column stack
(N, m) and gives an (m,) array whose entries are bitwise the sums of the
states alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clebsch import momentum_arrays
from .grid import s_avg, st_avg, t_diff, tt_diff

__all__ = [
    "HamiltonianSpec",
    "BURGERS",
    "EXTENDED_BURGERS",
    "discrete_H_collective",
    "grad_collective",
    "discrete_H_conventional",
    "grad_conventional",
    "casimir",
]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coefficients of the density C1 u^2 + C2 u_x^2 + C3 u^3 + C4 u_x^3;
    a term left out is zero."""

    C1: float = 0.0
    C2: float = 0.0
    C3: float = 0.0
    C4: float = 0.0

    def __post_init__(self):
        for name in ("C1", "C2", "C3", "C4"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")

    @cached_property
    def has_odd_part(self) -> bool:
        """Whether the kernels evaluate the u_x terms.  A -0.0 coefficient
        counts as present, since its terms can be -0.0."""
        return any(c != 0.0 or math.copysign(1.0, c) < 0
                   for c in (self.C2, self.C4))

    @cached_property
    def has_cubic_term(self) -> bool:
        """Whether the even part evaluates C3 u^3.  A -0.0 coefficient
        counts as present, like a slope coefficient."""
        return self.C3 != 0.0 or math.copysign(1.0, self.C3) < 0

    def even_density(self, u):
        if not self.has_cubic_term:
            return self.C1 * u * u + 0.0 * u
        return self.C1 * u * u + self.C3 * u * u * u

    def even_derivative(self, u):
        if not self.has_cubic_term:
            return 2.0 * self.C1 * u + 0.0
        return 2.0 * self.C1 * u + 3.0 * self.C3 * u * u

    def odd_density(self, w):
        return self.C2 * w * w + self.C4 * w * w * w

    def odd_derivative(self, w):
        return 2.0 * self.C2 * w + 3.0 * self.C4 * w * w


#: Quadratic density generating the inviscid Burgers' flow u_t = 6 u u_x.
BURGERS = HamiltonianSpec(1.0, 0.0, 0.0, 0.0)

#: Cubic density of the extended Burgers' equation.
EXTENDED_BURGERS = HamiltonianSpec(0.5, 0.5, -0.25, 0.5)


def _space_sum(values: np.ndarray):
    """Sum over axis 0: a float for shape (N,), one sum per column for
    (N, m), each summed as a contiguous row and so bitwise the sum of that
    column alone (``values.sum(axis=0)`` is not)."""
    total = np.ascontiguousarray(values.T).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


# -- lifted (collective) picture ----------------------------------------------
#
# Both kernels take raw arrays with axis 0 as space; the gradient broadcasts
# over trailing axes, so the time steppers evaluate batches in one call.

def discrete_H_collective(spec: HamiltonianSpec, dx: float, C: float,
                          q: np.ndarray, p: np.ndarray):
    """Collective Hamiltonian sum over the half grid, without a dx factor.

    The even density takes u = J(q, p); the odd density takes the
    full-grid slope -T^t u / dx averaged back onto the half grid with S.
    """
    u, _, _ = momentum_arrays(dx, C, q, p)
    odd = 0.0
    if spec.has_odd_part:
        w = (-1.0 / dx) * tt_diff(u)
        odd = _space_sum(spec.odd_density(s_avg(w)))
    return _space_sum(spec.even_density(u)) + odd


def grad_collective(spec: HamiltonianSpec, dx: float, C: float,
                    q: np.ndarray, p: np.ndarray):
    """Exact gradient pair (g_q, g_p) of the collective sum.

    The density derivatives (the odd one routed back through S^t and the
    adjoint of the slope) give a single half-grid cotangent g_u, which then
    splits over the two factors of the momentum map:
    g_q = T^t(S p . g_u)/dx,  g_p = S^t(D q . g_u).
    """
    u, dq, sp = momentum_arrays(dx, C, q, p)
    gu = spec.even_derivative(u)
    if spec.has_odd_part:
        w = -tt_diff(u) / dx
        odd_cot = st_avg(spec.odd_derivative(s_avg(w)))
        gu = gu - t_diff(odd_cot) / dx
    gq = tt_diff(sp * gu) / dx
    gp = st_avg(dq * gu)
    return gq, gp


# -- direct picture -------------------------------------------------------------

def discrete_H_conventional(spec: HamiltonianSpec, dx: float,
                            u: np.ndarray):
    """Plain quadrature dx * sum of the density with u_x = (T u)/dx."""
    odd = 0.0
    if spec.has_odd_part:
        odd = _space_sum(spec.odd_density(t_diff(u) / dx))
    return dx * (_space_sum(spec.even_density(u)) + odd)


def grad_conventional(spec: HamiltonianSpec, dx: float,
                      u: np.ndarray) -> np.ndarray:
    """Exact gradient of the direct-picture sum with respect to the
    samples; broadcasts over trailing axes like the collective gradient."""
    odd = 0.0
    if spec.has_odd_part:
        odd = tt_diff(spec.odd_derivative(t_diff(u) / dx))
    return dx * spec.even_derivative(u) + odd


# -- Casimir --------------------------------------------------------------------

def casimir(dx: float, u: np.ndarray):
    """Quadrature dx * sum sqrt|u|, on whichever node set u lives.

    Conserved by the exact flow for every density; only ever evaluated,
    never differentiated, so the kink at u = 0 needs no regularisation.
    """
    return dx * _space_sum(np.sqrt(np.abs(u)))
