"""Semi-discrete vector fields for both pictures and the implicit midpoint
rule with a Newton solver.

Lifted picture: the packed state z = (q_1..q_N, p_1..p_N) follows the
canonical equations  qdot = g_p,  pdot = -g_q  of the collective sum.

Direct picture: the state z = (u_1..u_N) follows the skew-gradient form
udot = K(u) * gradH/dx, where K(u) is the tridiagonal periodic skew form
built from the centered-difference matrix and gradH/dx is the variational
derivative of the quadrature sum (the quadrature weight dx is divided back
out so the field is consistent with the PDE).

The midpoint equations  z+ = z + dt*F((z + z+)/2)  are solved by Newton
iteration with a finite-difference Jacobian, assembled once per step and
reused across iterations by default.  The assembly takes the field value
F(mid) that the residual has just computed and evaluates every perturbed
state in one batched call, so a step costs one field evaluation per Newton
round plus one batched evaluation; vector fields must accept column-stacked
(d, m) batches, and there is no single-state fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .clebsch import ClebschState
from .grid import Field, PeriodicGrid, Staggering, _require
from .hamiltonian import (
    HamiltonianSpec,
    collective_grad_arrays,
    conventional_grad_array,
)

__all__ = [
    "JacobianMode",
    "NewtonConfig",
    "StepReport",
    "NonConvergenceError",
    "IntegrationResult",
    "collective_field",
    "collective_flat_field",
    "conventional_field",
    "conventional_flat_field",
    "apply_K",
    "k_matrix",
    "d1_matrix",
    "pack_state",
    "unpack_state",
    "midpoint_step",
    "fd_jacobian",
    "integrate",
]


class JacobianMode(Enum):
    #: reassemble the finite-difference Jacobian at every Newton iteration
    FINITE_DIFFERENCE = "finite-difference"
    #: assemble once per step at the initial guess and reuse (default)
    FROZEN_FINITE_DIFFERENCE = "frozen-finite-difference"


@dataclass(frozen=True)
class NewtonConfig:
    """Solver settings for the implicit midpoint equations.

    tol is an absolute bound on the max-norm residual.  The attainable
    residual is limited by the roundoff of one field evaluation scaled by
    dt, which grows with grid stiffness (inverse powers of dx); tolerances
    below that floor make the step raise NonConvergenceError.
    """

    tol: float = 1e-12
    max_iter: int = 50
    jacobian_mode: JacobianMode = JacobianMode.FROZEN_FINITE_DIFFERENCE
    fd_step: float = 1e-7

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not self.fd_step > 0:
            raise ValueError("fd_step must be positive")


@dataclass(frozen=True)
class StepReport:
    """Outcome of one implicit solve.

    newton_iterations counts residual-evaluation rounds, so a state that is
    already a fixed point reports one iteration and zero linear solves.
    """

    newton_iterations: int
    final_residual: float
    converged: bool


class NonConvergenceError(RuntimeError):
    """Newton exhausted its iteration budget or produced a non-finite
    residual; carries the failing time step index when raised from a run."""

    def __init__(self, message: str, step: Optional[int] = None,
                 residual: Optional[float] = None):
        super().__init__(message)
        self.step = step
        self.residual = residual


# -- vector fields --------------------------------------------------------------

def collective_field(spec: HamiltonianSpec, grid: PeriodicGrid,
                     state: ClebschState):
    """Canonical right-hand side (qdot, pdot) = (g_p, -g_q) at a state."""
    gq, gp = collective_grad_arrays(
        spec, grid.dx, state.C, state.q.values, state.p.values)
    return Field.full(gp), Field.full(-gq)


def collective_flat_field(spec: HamiltonianSpec, grid: PeriodicGrid,
                          C: float) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side on packed states z = (q, p).

    Accepts a single state of shape (2N,) or a batch of column-stacked
    states of shape (2N, m).
    """
    N = grid.N
    dx = grid.dx

    def rhs(z: np.ndarray) -> np.ndarray:
        gq, gp = collective_grad_arrays(spec, dx, C, z[:N], z[N:])
        return np.concatenate([gp, -gq], axis=0)

    return rhs


def _k_product(u: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """(K(u) g)_i = ((u_i + u_{i+1}) g_{i+1} - (u_{i-1} + u_i) g_{i-1}) / (2 dx).

    Built from shifted slices like the grid stencils, bitwise equal to the
    rolled form.
    """
    s = np.empty_like(u)                 # s_i = u_i + u_{i+1}
    np.add(u[:-1], u[1:], out=s[:-1])
    np.add(u[-1:], u[:1], out=s[-1:])
    out = np.empty_like(s)               # s_i g_{i+1}
    np.multiply(s[:-1], g[1:], out=out[:-1])
    np.multiply(s[-1:], g[:1], out=out[-1:])
    s *= g                               # s_i g_i, taken one row back below
    out[1:] -= s[:-1]
    out[:1] -= s[-1:]
    out /= 2.0 * dx
    return out


def apply_K(grid: PeriodicGrid, u: Field, g: Field) -> Field:
    """Skew product K(u) g of the direct picture; K is exactly
    skew-symmetric, so <K(u) g, h> = -<g, K(u) h> for all g, h."""
    uv = _require(u, Staggering.FULL, "apply_K")
    gv = _require(g, Staggering.FULL, "apply_K")
    if uv.shape != gv.shape:
        raise ValueError("u and g must have equal length")
    return Field.full(_k_product(uv, gv, grid.dx))


def conventional_field(spec: HamiltonianSpec, grid: PeriodicGrid,
                       u: Field) -> Field:
    """Skew-gradient right-hand side udot = K(u) gradH/dx."""
    v = _require(u, Staggering.FULL, "conventional_field")
    grad = conventional_grad_array(spec, grid.dx, v)
    return Field.full(_k_product(v, grad / grid.dx, grid.dx))


def conventional_flat_field(spec: HamiltonianSpec,
                            grid: PeriodicGrid) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side on raw sample vectors; accepts (N,) or (N, m)."""
    dx = grid.dx

    def rhs(u: np.ndarray) -> np.ndarray:
        grad = conventional_grad_array(spec, dx, u)
        return _k_product(u, grad / dx, dx)

    return rhs


def d1_matrix(grid: PeriodicGrid) -> np.ndarray:
    """Dense centered-difference matrix with periodic corner entries."""
    N = grid.N
    D = np.zeros((N, N))
    w = 1.0 / (2.0 * grid.dx)
    for i in range(N):
        D[i, (i + 1) % N] += w
        D[i, (i - 1) % N] -= w
    return D


def k_matrix(grid: PeriodicGrid, u: Field) -> np.ndarray:
    """Dense skew form U D1 + D1 U (small-N verification only)."""
    uv = _require(u, Staggering.FULL, "k_matrix")
    U = np.diag(uv)
    D = d1_matrix(grid)
    return U @ D + D @ U


# -- state packing ---------------------------------------------------------------

def pack_state(state: ClebschState) -> np.ndarray:
    """Flatten a Clebsch pair as (q then p); the winding constant travels
    separately because the flow never changes it."""
    return np.concatenate([state.q.values, state.p.values])


def unpack_state(z: np.ndarray, C: float) -> ClebschState:
    N = z.shape[0] // 2
    return ClebschState(q=Field.full(z[:N]), p=Field.full(z[N:]), C=C)


# -- implicit midpoint ------------------------------------------------------------

def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                step: float, f0: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward-difference Jacobian of f at z from one batched evaluation.

    f must accept column-stacked states of shape (d, m) and return (d, m);
    all perturbed states go through it in one call.  f0 is f(z) when the
    caller already has it (the midpoint residual does), saving a call.
    """
    d = z.shape[0]
    if f0 is None:
        f0 = np.asarray(f(z), dtype=float)
    batch = np.asarray(f(z[:, None] + step * np.eye(d)), dtype=float)
    if batch.shape != (d, d):
        raise ValueError(f"batched field returned shape {batch.shape}, "
                         f"expected {(d, d)}")
    return (batch - f0[:, None]) / step


DEFAULT_NEWTON = NewtonConfig()


def midpoint_step(field: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                  dt: float, cfg: NewtonConfig = DEFAULT_NEWTON):
    """One implicit midpoint step: solve  z+ = z + dt * F((z + z+)/2).

    Returns (z_next, StepReport); raises NonConvergenceError when the
    iteration budget is exhausted or the residual turns non-finite.
    """
    if not dt != 0.0:
        raise ValueError("dt must be nonzero")
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    z_new = z.copy()
    J = None
    r_norm = np.inf
    for rounds in range(1, cfg.max_iter + 2):
        mid = 0.5 * (z + z_new)
        f_mid = np.asarray(field(mid), dtype=float)
        r = z_new - z - dt * f_mid
        r_norm = float(np.max(np.abs(r))) if d else 0.0
        if not np.isfinite(r_norm):
            raise NonConvergenceError(
                "non-finite midpoint residual", residual=r_norm)
        if r_norm <= cfg.tol:
            return z_new, StepReport(rounds, r_norm, True)
        if rounds > cfg.max_iter:
            break
        if J is None or cfg.jacobian_mode is JacobianMode.FINITE_DIFFERENCE:
            J = np.eye(d) - 0.5 * dt * fd_jacobian(field, mid, cfg.fd_step,
                                                    f0=f_mid)
        z_new = z_new - np.linalg.solve(J, r)
    raise NonConvergenceError(
        f"midpoint Newton stalled at residual {r_norm:.3e} "
        f"after {cfg.max_iter} updates",
        residual=r_norm,
    )


@dataclass
class IntegrationResult:
    """Final state of a fixed-step run; converged is False when Newton gave
    up, in which case z holds the last completed step and failure carries
    the failing step index."""

    z: np.ndarray
    steps_completed: int
    converged: bool
    failure: Optional[NonConvergenceError] = None


def integrate(field: Callable[[np.ndarray], np.ndarray], z0: np.ndarray,
              dt: float, n_steps: int, cfg: NewtonConfig = DEFAULT_NEWTON,
              observer=None) -> IntegrationResult:
    """Fixed-step midpoint loop.

    The observer, when given, is called as observer(step, t, z, report)
    after every completed step with t = step * dt.  On Newton failure the
    loop halts and flags the partial result instead of raising, so callers
    keep whatever the observer collected.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    z = np.asarray(z0, dtype=float).copy()
    for step in range(1, n_steps + 1):
        try:
            z_next, report = midpoint_step(field, z, dt, cfg)
        except NonConvergenceError as err:
            err.step = step
            return IntegrationResult(z, step - 1, False, failure=err)
        z = z_next
        if observer is not None:
            observer(step, step * dt, z, report)
    return IntegrationResult(z, n_steps, True)
