"""Oracles used only by the tests: the Field type that tags samples with
their node set and the Field-typed staggered operators, independent dense
builds of the grid operators, the jet recursion at general depth with its
adjoint, the discrete sums and gradients with every term evaluated, the
pointwise flow in jet variables, the travelling wave's wave-frame
reduction with its self-test built on that flow and its scipy DOP853
solution, the shooting search that found the frozen travelling-wave
parameters, the Newton matrix's maps built from flat d x d entry
positions and decoded into node blocks, the implicit midpoint step built
from single field calls and a column-by-column Jacobian, and a run loop
that solves every step by Newton.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp

from clebschflow.clebsch import momentum_arrays
from clebschflow.dynamics import (
    FD_STEP,
    FLOOR_THETA,
    KAPPA,
    NewtonConfig,
    NonConvergenceError,
    StepReport,
)
from clebschflow.grid import PeriodicGrid, s_avg, st_avg, t_diff, tt_diff
from clebschflow.hamiltonian import HamiltonianSpec, _space_sum


# -- samples tagged with their node set ---------------------------------------------

class Staggering(Enum):
    FULL = "full"
    HALF = "half"


class StaggeringError(ValueError):
    """An operation received samples living on the wrong node set."""


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


def jet(grid: PeriodicGrid, z: np.ndarray, K: int) -> JetTable:
    """Jet table of depth K for the physical field of the packed lifted
    state z = (q, p), winding constant grid.L."""
    if K < 0:
        raise ValueError(f"jet depth must be nonnegative, got {K}")
    N = grid.N
    rows = [Field.half(momentum_arrays(grid.dx, grid.L, z[:N], z[N:])[0])]
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
                     z: np.ndarray) -> float:
    """Collective sum from the depth-1 jet table: the even density on row 0,
    the odd density on row 1 averaged onto the half grid."""
    table = jet(grid, z, 1)
    u = table.rows[0].values
    ux_half = s_avg(table.rows[1].values)
    return float(np.sum(spec.even_density(u))
                 + np.sum(spec.odd_density(ux_half)))


# -- the discrete sums and gradients with every term evaluated ------------------------
#
# The package's kernels leave out the odd (u_x) part when C2 and C4 are
# zero; these forms always evaluate it, so the tests can hold the kernels
# to them bitwise.

def all_terms_H_collective(spec: HamiltonianSpec, dx: float, C: float,
                           q: np.ndarray, p: np.ndarray):
    u, _, _ = momentum_arrays(dx, C, q, p)
    w = (-1.0 / dx) * tt_diff(u)
    return (_space_sum(spec.even_density(u))
            + _space_sum(spec.odd_density(s_avg(w))))


def all_terms_grad_collective(spec: HamiltonianSpec, dx: float, C: float,
                              q: np.ndarray, p: np.ndarray):
    u, dq, sp = momentum_arrays(dx, C, q, p)
    w = -tt_diff(u) / dx
    odd_cot = st_avg(spec.odd_derivative(s_avg(w)))
    gu = spec.even_derivative(u) - t_diff(odd_cot) / dx
    gq = tt_diff(sp * gu) / dx
    gp = st_avg(dq * gu)
    return gq, gp


def all_terms_H_conventional(spec: HamiltonianSpec, dx: float,
                             u: np.ndarray):
    ux = t_diff(u) / dx
    return dx * (_space_sum(spec.even_density(u))
                 + _space_sum(spec.odd_density(ux)))


def all_terms_grad_conventional(spec: HamiltonianSpec, dx: float,
                                u: np.ndarray) -> np.ndarray:
    ux = t_diff(u) / dx
    return dx * spec.even_derivative(u) + tt_diff(spec.odd_derivative(ux))


# -- pointwise flow, the wave-frame reduction and its self-test --------------------
#
# The flow generated by the density C1 u^2 + C2 u_x^2 + C3 u^3 + C4 u_x^3 is
#
#     u_t = (u m)_x + u m_x,
#     m = 2 C1 u + 3 C3 u^2 - 2 C2 u_xx - 6 C4 u_x u_xx,
#
# which expands to
#
#     u_t = 6 C1 u u_x + 15 C3 u^2 u_x - 2 C2 u_x u_xx - 6 C4 u_x^2 u_xx
#           - 4 C2 u u_xxx - 12 C4 u (u_xx^2 + u_x u_xxx).
#
# For the cubic coefficients (1/2, 1/2, -1/4, 1/2) this is the extended
# Burgers' equation integrated by both schemes.

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


class SingularReductionError(ArithmeticError):
    """The wave-frame reduction hit a (near-)vanishing leading coefficient."""


#: Leading wave-frame coefficient below which the reduction is singular.
_WAVE_FRAME_FLOOR = 1e-10


def travelling_wave_ode(spec: HamiltonianSpec, c: float):
    """Wave-frame right-hand side as an (s, y)-callable for ``solve_ivp``,
    mapping the jet y = (f, f', f'') to (f', f'', f''').

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


def solve_travelling_wave(spec: HamiltonianSpec, L: float, f0: float,
                          f2: float, c: float, rtol: float = 1e-12,
                          atol: float = 1e-13):
    """DOP853 solution of the wave-frame reduction over s in [0, L] from the
    crest jet (f0, 0, f2), with dense output ``sol.sol``."""
    return solve_ivp(travelling_wave_ode(spec, c), (0.0, L), [f0, 0.0, f2],
                     method="DOP853", rtol=rtol, atol=atol,
                     dense_output=True)


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
        """y(L) - y(0), or None when the shot does not reach s = L."""
        try:
            sol = solve_travelling_wave(spec, L, vec[0], vec[1],
                                        float(vec[2]))
        except SingularReductionError:
            return None
        return sol.y[:, -1] - sol.y[:, 0] if sol.status == 0 else None

    g = mismatch(unknowns)
    if g is None:
        return None
    for _ in range(max_newton):
        gn = float(np.max(np.abs(g)))
        if gn < mismatch_tol:
            return tuple(float(v) for v in unknowns)
        J = np.empty((3, 3))
        h = 1e-7
        for k in range(3):
            probe = unknowns.copy()
            probe[k] += h * max(1.0, abs(probe[k]))
            g_probe = mismatch(probe)
            if g_probe is None:
                return None
            J[:, k] = (g_probe - g) / (probe[k] - unknowns[k])
        try:
            delta = np.linalg.solve(J, g)
        except np.linalg.LinAlgError:
            return None
        # backtracking damping on the mismatch norm
        lam = 1.0
        for _ in range(20):
            trial = unknowns - lam * delta
            g_trial = mismatch(trial)
            if g_trial is None:
                lam *= 0.5
                continue
            if float(np.max(np.abs(g_trial))) < gn or lam < 1e-4:
                unknowns, g = trial, g_trial
                break
            lam *= 0.5
        else:
            return None
    return None


# -- the Newton matrix's maps through flat entry positions ------------------------

def flat_band_entries(N, half_width, blocks=1):
    """The seed of a band's colouring and, for every entry it lists (in
    dynamics.band_colouring's order), the flat position rows * d + col of
    the entry in the d x d Jacobian and of its source, row * colours +
    colour, in the compressed difference."""
    span = 2 * half_width + 1
    segments = N // span
    nodes = np.arange(N)
    if segments <= 1:
        offset = nodes
    else:
        starts = (np.arange(segments) * N) // segments
        offset = nodes - np.repeat(starts, np.diff(starts, append=N))
    per_block = int(offset.max()) + 1
    reach = np.arange(-half_width, half_width + 1) if N >= span else nodes
    d = blocks * N
    col = np.arange(d)
    node = col % N
    col_colour = (col // N) * per_block + offset[node]
    seed = np.zeros((d, blocks * per_block))
    seed[col, col_colour] = 1.0
    band = (node[:, None] + reach) % N
    rows = (np.arange(blocks)[:, None] * N + band[:, None, :]).reshape(d, -1)
    return (seed, (rows * d + col[:, None]).reshape(-1),
            (rows * seed.shape[1] + col_colour[:, None]).reshape(-1))


def decoded_block_targets(band, entries):
    """Flat position, in the (3, n, s, s) sub-, main and super-diagonal
    blocks of the node-interleaved Newton matrix of ``band`` (cut at
    band.nodes_per_block), of each flat d x d entry position: each is
    decoded into its row and column and then into block and local
    indices."""
    d = band.d
    s = band.blocks * band.nodes_per_block
    n = d // s
    position = np.empty(d, dtype=np.intp)
    position[band.interleave(np.arange(d)).ravel()] = np.arange(d)
    rows, cols = np.divmod(entries, d)
    block, local_row = np.divmod(position[rows], s)
    col_block, local_col = np.divmod(position[cols], s)
    step = (col_block - block) % n
    side = np.where(step == 0, 1, np.where(step == 1, 2, 0))
    return ((side * n + block) * s + local_row) * s + local_col


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


def newton_steps(step, z0, dt, n_steps, cfg=NewtonConfig()):
    """Yield (z_n, report) for n = 1..n_steps of a run that solves every
    step by Newton: the first step from z0, every later one from
    2 z_n - z_{n-1} with the rate its predecessor reported.  ``step(z, dt, cfg, guess=, theta=)`` is
    a Newton step such as ``functools.partial(midpoint_step, field, band)``
    or ``functools.partial(midpoint_step_by_columns, field)``."""
    z = np.asarray(z0, dtype=float)
    guess = theta = None
    for _ in range(n_steps):
        z_next, report = step(z, dt, cfg, guess=guess, theta=theta)
        guess = 2.0 * z_next - z
        theta = report.theta
        z = z_next
        yield z, report
