"""Oracles used only by the tests: the Field-typed staggered operators,
independent dense builds of the grid operators, the jet recursion at
general depth with its adjoint, the pointwise flow in jet variables with
the self-test of the wave-frame reduction built on it, the shooting
search that found the frozen travelling-wave parameters, and the
implicit midpoint step built from single field calls and a
column-by-column Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from clebschflow.clebsch import ClebschState, momentum_map
from clebschflow.dynamics import (
    FD_STEP,
    FLOOR_THETA,
    KAPPA,
    NewtonConfig,
    NonConvergenceError,
    StepReport,
)
from clebschflow.grid import (
    Field,
    PeriodicGrid,
    Staggering,
    StaggeringError,
    _require,
    s_avg,
    st_avg,
    t_diff,
    tt_diff,
)
from clebschflow.hamiltonian import HamiltonianSpec
from clebschflow.reference import (
    MaxStepsExceededError,
    SingularReductionError,
    StepSizeUnderflowError,
    integrate_ode_adaptive,
    travelling_wave_ode,
)


# -- Field-typed staggered operators ----------------------------------------------
#
#     apply_T    full -> half    (f_j - f_{j-1}) / dx     compact difference
#     apply_D    full -> half    apply_T plus C/dx added to entry 1 (winding)
#     apply_S    full -> half    (f_{j-1} + f_j) / 2      second-order average
#     apply_Tt   half -> full    g_j - g_{j+1}            transpose of T, no 1/dx
#     apply_St   half -> full    (g_j + g_{j+1}) / 2      transpose of S
#
# The exact adjoint identities are  <dx*apply_T(f), g> = <f, apply_Tt(g)>
# and  <apply_S(f), g> = <f, apply_St(g)>.

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


# -- dense operators -------------------------------------------------------------

def dense_T(N):
    """Independent dense build of the difference stencil, row by row."""
    T = np.zeros((N, N))
    for j in range(N):
        T[j, j] = 1.0
        T[j, j - 1] = -1.0
    return T


def dense_S(N):
    S = np.zeros((N, N))
    for j in range(N):
        S[j, j] += 0.5
        S[j, j - 1] += 0.5
    return S


def dense_momentum_map(g, q, p, C):
    e1 = np.zeros(g.N)
    e1[0] = 1.0
    dq = (dense_T(g.N) @ q + C * e1) / g.dx
    return dq * (dense_S(g.N) @ p)


def dense_jet_maps(g, K):
    """Dense matrices A_k mapping jet row 0 to row k."""
    maps = [np.eye(g.N)]
    for k in range(1, K + 1):
        step = (-dense_T(g.N).T / g.dx) if k % 2 == 1 else (dense_T(g.N) / g.dx)
        maps.append(step @ maps[-1])
    return maps


def dense_K(u, dx):
    """Independent dense build of the tridiagonal periodic skew form."""
    N = len(u)
    K = np.zeros((N, N))
    for i in range(N):
        K[i, (i + 1) % N] += (u[i] + u[(i + 1) % N]) / (2 * dx)
        K[i, (i - 1) % N] -= (u[(i - 1) % N] + u[i]) / (2 * dx)
    return K


# -- jet recursion ------------------------------------------------------------------
#
# Higher derivatives of u alternate between the half and full grids:
#
#     row 0:  J(q, p)                 half grid
#     row k:  -T^t(row k-1) / dx      full grid, k odd
#     row k:   T  (row k-1) / dx      half grid, k even

@dataclass(frozen=True)
class JetTable:
    """Rows k = 0..K approximating the k-th spatial derivative of u.

    Even rows are half-staggered, odd rows full-staggered, by construction
    of the recursion.
    """

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        for k, row in enumerate(self.rows):
            want = Staggering.HALF if k % 2 == 0 else Staggering.FULL
            if row.staggering is not want:
                raise StaggeringError(
                    f"jet row {k} must be {want.value}-staggered, "
                    f"got {row.staggering.value}"
                )

    @property
    def depth(self) -> int:
        return len(self.rows) - 1


def jet(grid: PeriodicGrid, state: ClebschState, K: int) -> JetTable:
    """Jet table of depth K for the state's physical field."""
    if K < 0:
        raise ValueError(f"jet depth must be nonnegative, got {K}")
    rows = [momentum_map(grid, state)]
    inv_dx = 1.0 / grid.dx
    for k in range(1, K + 1):
        if k % 2 == 1:
            rows.append(-inv_dx * apply_Tt(grid, rows[-1]))
        else:
            rows.append(apply_T(grid, rows[-1]))
    return JetTable(tuple(rows))


def jet_adjoint_accumulate(grid: PeriodicGrid, jet_gradients: JetTable) -> Field:
    """Pull per-row cotangents back to a single half-grid cotangent on row 0.

    The transpose of each recursion step is applied in reverse order (the
    adjoint of -T^t/dx is -T/dx, the adjoint of T/dx is T^t/dx), so the
    result g satisfies  <g, du0> = sum_k <g_k, d(row k)>  for every
    perturbation du0 of row 0.
    """
    rows = jet_gradients.rows
    if not rows:
        raise ValueError("need at least the row-0 cotangent")
    inv_dx = 1.0 / grid.dx
    acc = rows[-1]
    for k in range(len(rows) - 1, 0, -1):
        if k % 2 == 1:
            acc = -apply_T(grid, acc)
        else:
            acc = inv_dx * apply_Tt(grid, acc)
        acc = acc + rows[k - 1]
    return acc


def jet_H_collective(spec: HamiltonianSpec, grid: PeriodicGrid,
                     state: ClebschState) -> float:
    """Collective sum from the depth-1 jet table: the even density on row 0,
    the odd density on row 1 averaged onto the half grid."""
    table = jet(grid, state, 1)
    u = table.rows[0].values
    ux_half = s_avg(table.rows[1].values)
    return float(np.sum(spec.even_density(u))
                 + np.sum(spec.odd_density(ux_half)))


# -- pointwise flow and the wave-frame self-test -----------------------------------

def pde_rhs_jet(spec: HamiltonianSpec, u, ux, uxx, uxxx):
    """Pointwise u_t of the flow generated by the density, in jet variables.

    Accepts scalars or arrays; this is the reference form both spatial
    schemes converge to at second order.
    """
    m = (2.0 * spec.C1 * u + 3.0 * spec.C3 * u * u
         - 2.0 * spec.C2 * uxx - 6.0 * spec.C4 * ux * uxx)
    mx = (2.0 * spec.C1 * ux + 6.0 * spec.C3 * u * ux
          - 2.0 * spec.C2 * uxxx - 6.0 * spec.C4 * (uxx * uxx + ux * uxxx))
    return ux * m + 2.0 * u * mx


def check_travelling_wave_reduction(spec: HamiltonianSpec, c: float,
                                    samples: np.ndarray) -> float:
    """Self-test of the f''' formula in travelling_wave_ode.

    For each wave-frame jet sample (f, f', f''), the derived f''' must make
    the full flow residual  -c f' - u_t(f, f', f'', f''')  vanish; returns
    the worst relative residual over the samples (machine-level when the
    algebra is right).
    """
    worst = 0.0
    rhs = travelling_wave_ode(spec, c)
    for f, f1, f2 in np.atleast_2d(samples):
        _, _, f3 = rhs(0.0, (f, f1, f2))
        ut = pde_rhs_jet(spec, f, f1, f2, f3)
        scale = max(abs(ut), abs(c * f1), 1.0)
        worst = max(worst, abs(-c * f1 - ut) / scale)
    return worst


# -- periodic travelling-wave search ----------------------------------------------

def find_periodic_travelling_wave(spec: HamiltonianSpec, L: float,
                                  f0: float, f2: float, c: float,
                                  rel_tol: float = 1e-12,
                                  abs_tol: float = 1e-12,
                                  max_newton: int = 60,
                                  mismatch_tol: float = 1e-9):
    """Search for an L-periodic wave profile by shooting on (f(0), f''(0), c).

    The crest is pinned by f'(0) = 0; a damped quasi-Newton iteration drives
    the period-L mismatch y(L) - y(0) to zero.  Returns the refined
    (f0, f2, c) triple or None when the search stalls, which callers must
    treat as "no reference available".
    """
    unknowns = np.array([f0, f2, c], dtype=float)

    def mismatch(vec):
        rhs = travelling_wave_ode(spec, float(vec[2]))
        sol = integrate_ode_adaptive(rhs, [vec[0], 0.0, vec[1]], (0.0, L),
                                     rel_tol=rel_tol, abs_tol=abs_tol)
        return sol.y[-1] - sol.y[0]

    try:
        g = mismatch(unknowns)
    except (SingularReductionError, StepSizeUnderflowError,
            MaxStepsExceededError):
        return None
    for _ in range(max_newton):
        gn = float(np.max(np.abs(g)))
        if gn < mismatch_tol:
            return tuple(float(v) for v in unknowns)
        J = np.empty((3, 3))
        h = 1e-7
        try:
            for k in range(3):
                probe = unknowns.copy()
                probe[k] += h * max(1.0, abs(probe[k]))
                J[:, k] = (mismatch(probe) - g) / (probe[k] - unknowns[k])
            delta = np.linalg.solve(J, g)
        except (SingularReductionError, StepSizeUnderflowError,
                MaxStepsExceededError, np.linalg.LinAlgError):
            return None
        # backtracking damping on the mismatch norm
        lam = 1.0
        for _ in range(20):
            trial = unknowns - lam * delta
            try:
                g_trial = mismatch(trial)
            except (SingularReductionError, StepSizeUnderflowError,
                    MaxStepsExceededError):
                lam *= 0.5
                continue
            if float(np.max(np.abs(g_trial))) < gn or lam < 1e-4:
                unknowns, g = trial, g_trial
                break
            lam *= 0.5
        else:
            return None
    return None


# -- implicit midpoint from single calls -------------------------------------------

def column_jacobian(field, z, step):
    """f(z) from a single call and the forward-difference Jacobian of
    ``field`` at z, built one column at a time."""
    f0 = np.asarray(field(z), dtype=float)
    J = np.empty((z.size, z.size))
    for k in range(z.size):
        zk = z.copy()
        zk[k] += step
        J[:, k] = (field(zk) - f0) / step
    return f0, J


def midpoint_step_by_columns(field, z, dt, cfg=NewtonConfig(), guess=None,
                             theta=None):
    """The implicit midpoint step built the plain way: one single-state
    field call per Newton round, a forward-difference Jacobian assembled
    column by column at the first midpoint, and the Newton matrix
    np.eye(d) - dt/2 J.  It stops by the rule of ``dynamics.midpoint_step``
    (increments, residual, roundoff floor) and returns (z_next,
    StepReport) like it."""
    z = np.asarray(z, dtype=float)
    d = z.shape[0]
    z_new = z.copy() if guess is None else np.array(guess, dtype=float)
    M = None
    size = 1.0 + np.max(np.abs(z))
    carried = theta is not None
    increments = []
    for rounds in range(1, cfg.max_iter + 2):
        mid = 0.5 * (z + z_new)
        f_mid = np.asarray(field(mid), dtype=float)
        r = z_new - z - dt * f_mid
        r_norm = float(np.max(np.abs(r)))
        if not np.isfinite(r_norm):
            raise NonConvergenceError("non-finite midpoint residual")
        if r_norm <= cfg.tol:
            return z_new, StepReport(rounds, r_norm, "residual", theta,
                                     tuple(increments))
        if rounds > cfg.max_iter:
            break
        if M is None:
            M = np.eye(d) - 0.5 * dt * column_jacobian(field, mid, FD_STEP)[1]
        dz = np.linalg.solve(M, r)
        z_new = z_new - dz
        increments.append(float(np.max(np.abs(dz))))
        if len(increments) > 1:
            theta = increments[-1] / increments[-2]
        usable = carried or len(increments) > 2
        if usable and theta < 1.0 and (theta / (1.0 - theta) * increments[-1]
                                       <= KAPPA * cfg.tol * size):
            return z_new, StepReport(rounds, r_norm, "increments", theta,
                                     tuple(increments))
        floor = np.finfo(float).eps * np.max(np.sum(np.abs(M), axis=1)) * size
        if len(increments) > 1 and theta >= FLOOR_THETA and r_norm <= floor:
            return z_new, StepReport(rounds, r_norm, "floor", theta,
                                     tuple(increments))
    raise NonConvergenceError("midpoint Newton stalled")
