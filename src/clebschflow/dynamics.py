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
iteration on the frozen matrix  M = I - (dt/2) J,  with J a forward-
difference Jacobian (step FD_STEP) assembled once per step at the first
midpoint and reused across iterations.  The first round evaluates the
field once, on a batch holding the midpoint itself and its perturbed
states, and takes its residual from the unperturbed column; every later
round makes one single-state call.  So a step costs one field call per
Newton round, the first one batched.  Vector fields must accept
column-stacked (d, m) batches whose columns are bitwise their single-state
values, and there is no single-state fallback.

Newton stops on its increments (Hairer & Wanner, Solving ODEs II, IV.8):
with the contraction rate theta = |dz_k| / |dz_{k-1}|, the distance of the
k-th iterate to the solution is about theta/(1 - theta) |dz_k|, and the
step is accepted, with no further field call, once that is at most
KAPPA * tol * (1 + |z|).  A step's first update uses the rate its
predecessor measured; a step with none (a run's first, which starts O(dt)
from its solution) waits for its second measured rate, because the first
is dominated by the quadratic term and understates the linear one.  An
iterate whose residual is already within tol is
accepted as well, and an iteration that stops contracting with its
residual at the roundoff floor of M (eps |M| (1 + |z|), all norms max
norms) is accepted with the status "floor" instead of being run out to
its budget.  The decisions read only the field's values.

Both fields are cyclic-banded: output node i reads only inputs within a
fixed grid distance of i, in every block.  A column colouring of that band
(Curtis, Powell & Reid 1974) perturbs all columns of one colour in one
batch column: 16 columns for the lifted field and 6 for the direct one at
N = 32, 64 or 512, instead of 2N and N.  Columns of one colour never share
a row, so every entry is bitwise the column-by-column difference.  Each
flat field carries its colouring as the attribute ``rhs.colouring``; any
other callable gets every column as its own colour.  A run starts each
step's Newton iteration from the extrapolation 2 z_n - z_{n-1}, which is
O(dt^2) from the solution instead of O(dt).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .clebsch import ClebschState
from .grid import Field, PeriodicGrid
from .hamiltonian import HamiltonianSpec, grad_collective, grad_conventional

__all__ = [
    "FD_STEP",
    "NewtonConfig",
    "StepReport",
    "KAPPA",
    "FLOOR_THETA",
    "NonConvergenceError",
    "IntegrationResult",
    "Colouring",
    "band_colouring",
    "collective_flat_field",
    "conventional_flat_field",
    "apply_K",
    "pack_state",
    "unpack_state",
    "midpoint_step",
    "fd_jacobian",
    "integrate",
]


@dataclass(frozen=True)
class NewtonConfig:
    """Solver settings for the implicit midpoint equations.

    tol bounds the Newton error relative to the state's size: a step is
    accepted once the increments put its iterate within KAPPA * tol *
    (1 + max|z|) of the solution, or once its max-norm residual is at most
    tol.  The attainable residual is limited by the roundoff of one field
    evaluation scaled by dt, which grows with grid stiffness (inverse
    powers of dx); an iteration stalled on that floor is accepted as
    "floor" rather than raising.  max_iter bounds the Newton updates.
    """

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


#: Forward-difference step of the Newton Jacobian.
FD_STEP = 1e-7

#: Safety factor of the increment test: accept once the estimated Newton
#: error is at most KAPPA * tol * (1 + max|z|).
KAPPA = 0.1

#: An update that shrinks the increment by less than this factor means the
#: iteration no longer contracts; at the roundoff floor, eps |M| (1 + max|z|),
#: it is accepted.
FLOOR_THETA = 0.5
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class StepReport:
    """Outcome of one implicit solve.

    newton_iterations counts field-call rounds, so a state that is already
    a fixed point reports one round and zero linear solves.  status names
    the test that ended the iteration: "increments", "residual", "floor"
    (stalled at the roundoff floor, accepted) or "diverged" (carried by
    NonConvergenceError only).  final_residual is the last residual
    evaluated; a step accepted on its increments made one more update
    after it.  increments holds the max norm of every Newton update, and
    theta the latest contraction rate: the ratio of the last two
    increments when the step made two, otherwise the one carried in from
    the previous step (None when there was none).
    """

    newton_iterations: int
    final_residual: float
    status: str
    theta: Optional[float]
    increments: tuple


class NonConvergenceError(RuntimeError):
    """Newton exhausted its iteration budget or produced a non-finite
    residual; carries the failing time step index when raised from a run,
    and the step's "diverged" StepReport."""

    def __init__(self, message: str, step: Optional[int] = None,
                 report: Optional[StepReport] = None):
        super().__init__(message)
        self.step = step
        self.report = report


# -- vector fields --------------------------------------------------------------

#: Stencil half-widths of the flat fields: output node i of every block
#: reads only inputs within cyclic grid distance w of i, in every block.
#: Read off the kernels: the lifted gradient composes two-point stencils
#: that reach three nodes to either side; the direct field applies the
#: two-point K(u) to a gradient that reaches one.
COLLECTIVE_HALF_WIDTH = 3
CONVENTIONAL_HALF_WIDTH = 2


def collective_flat_field(spec: HamiltonianSpec, grid: PeriodicGrid,
                          C: float) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side on packed states z = (q, p).

    Accepts a single state of shape (2N,) or a batch of column-stacked
    states of shape (2N, m).  ``rhs.colouring`` is its Jacobian colouring.
    """
    N = grid.N
    dx = grid.dx

    def rhs(z: np.ndarray) -> np.ndarray:
        gq, gp = grad_collective(spec, dx, C, z[:N], z[N:])
        return np.concatenate([gp, -gq], axis=0)

    rhs.colouring = band_colouring(N, COLLECTIVE_HALF_WIDTH, blocks=2)
    return rhs


def apply_K(u: np.ndarray, g: np.ndarray, dx: float) -> np.ndarray:
    """Skew product of the direct picture on raw arrays,

        (K(u) g)_i = ((u_i + u_{i+1}) g_{i+1} - (u_{i-1} + u_i) g_{i-1}) / (2 dx),

    broadcasting over trailing axes.  K(u) is exactly skew-symmetric, so
    <K(u) g, h> = -<g, K(u) h> for all g, h.  Built from shifted slices
    like the grid stencils, bitwise equal to the rolled form.
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


def conventional_flat_field(spec: HamiltonianSpec,
                            grid: PeriodicGrid) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side on raw sample vectors, (N,) or (N, m).
    ``rhs.colouring`` is its Jacobian colouring."""
    dx = grid.dx

    def rhs(u: np.ndarray) -> np.ndarray:
        grad = grad_conventional(spec, dx, u)
        return apply_K(u, grad / dx, dx)

    rhs.colouring = band_colouring(grid.N, CONVENTIONAL_HALF_WIDTH, blocks=1)
    return rhs


# -- state packing ---------------------------------------------------------------

def pack_state(state: ClebschState) -> np.ndarray:
    """Flatten a Clebsch pair as (q then p); the winding constant travels
    separately because the flow never changes it."""
    return np.concatenate([state.q.values, state.p.values])


def unpack_state(z: np.ndarray, C: float) -> ClebschState:
    N = z.shape[0] // 2
    return ClebschState(q=Field.full(z[:N]), p=Field.full(z[N:]), C=C)


# -- Jacobian colouring ------------------------------------------------------------

@dataclass(frozen=True)
class Colouring:
    """Column colouring of a sparse d x d Jacobian.

    seed[:, c] is the 0/1 indicator of the columns of colour c.  The k-th
    entry that may be nonzero sits at flat position entries[k] of the
    Jacobian and is read from flat position sources[k] of the (d, colours)
    compressed difference: its own row, its column's colour.  Columns of
    one colour share no row.  The arrays are read-only, so one colouring
    can serve every caller.
    """

    seed: np.ndarray
    entries: np.ndarray
    sources: np.ndarray

    def __post_init__(self):
        for array in (self.seed, self.entries, self.sources):
            array.flags.writeable = False

    @property
    def n_colours(self) -> int:
        return self.seed.shape[1]


@functools.lru_cache(maxsize=8)
def band_colouring(N: int, half_width: int, blocks: int = 1) -> Colouring:
    """Colouring of a field on ``blocks`` stacked copies of an N-node
    circle whose output node i reads only inputs within cyclic grid
    distance ``half_width`` of i, in every block.

    Two columns can share a row only when their nodes are at most
    2 * half_width apart, so the circle is cut into N // (2 half_width + 1)
    contiguous segments and a column's colour is its offset in its
    segment, one set of colours per block: ceil(N / segments) colours per
    block.  Fewer than two segments give every column its own colour.
    When 2 half_width < N the colouring is built in O(N) time and memory,
    with no d x d array.  Colourings are cached: :func:`fd_jacobian` asks
    for the identity at every assembly of a field that carries none.
    """
    span = 2 * half_width + 1
    segments = N // span
    nodes = np.arange(N)
    if segments <= 1:
        offset = nodes
    else:
        starts = (np.arange(segments) * N) // segments
        offset = nodes - np.repeat(starts, np.diff(starts, append=N))
    per_block = int(offset.max()) + 1
    # distinct rows a node's column reaches in one block
    reach = np.arange(-half_width, half_width + 1) if N >= span else nodes
    d = blocks * N
    col = np.arange(d)
    node = col % N
    col_colour = (col // N) * per_block + offset[node]
    seed = np.zeros((d, blocks * per_block))
    seed[col, col_colour] = 1.0
    band = (node[:, None] + reach) % N
    rows = (np.arange(blocks)[:, None] * N + band[:, None, :]).reshape(d, -1)
    return Colouring(seed, (rows * d + col[:, None]).reshape(-1),
                     (rows * seed.shape[1] + col_colour[:, None]).reshape(-1))


# -- implicit midpoint ------------------------------------------------------------

def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                h: float) -> tuple[np.ndarray, np.ndarray]:
    """f(z) and the Newton matrix I - h J, with J the forward-difference
    Jacobian of f at z (step FD_STEP), from one batched evaluation.

    f must accept column-stacked states of shape (d, m) and return (d, m).
    The batch holds z itself and then one perturbed state per colour of
    ``f.colouring``; its first column is f(z), and each entry the
    colouring lists is read off its column's colour.  A callable without
    the attribute (a lambda, or a wrapper that does not copy ``__dict__``)
    gets the dense difference, one colour per column.  The listed entries
    are scattered as 0.0 - h * (difference) into a zero matrix and 1.0 is
    added on the diagonal; (0 - y) + 1 rounds as 1 - y, so M is bitwise
    np.eye(d) - h * J without any d x d arithmetic.  Returns (f(z), M).
    """
    d = z.shape[0]
    # a half-width of d makes every row read every input
    colouring = getattr(f, "colouring", None) or band_colouring(d, d)
    states = np.empty((d, 1 + colouring.n_colours))
    states[:, 0] = z
    np.add(z[:, None], FD_STEP * colouring.seed, out=states[:, 1:])
    batch = np.asarray(f(states), dtype=float)
    if batch.shape != states.shape:
        raise ValueError(f"batched field returned shape {batch.shape}, "
                         f"expected {states.shape}")
    f0 = batch[:, 0]
    compressed = (batch[:, 1:] - batch[:, :1]) / FD_STEP
    M = np.zeros((d, d))
    M.reshape(-1)[colouring.entries] = (
        0.0 - h * compressed.ravel()[colouring.sources])
    M.reshape(-1)[::d + 1] += 1.0
    return f0, M


DEFAULT_NEWTON = NewtonConfig()


def midpoint_step(field: Callable[[np.ndarray], np.ndarray], z: np.ndarray,
                  dt: float, cfg: NewtonConfig = DEFAULT_NEWTON,
                  guess: Optional[np.ndarray] = None,
                  theta: Optional[float] = None):
    """One implicit midpoint step: solve  z+ = z + dt * F((z + z+)/2).

    Newton starts from ``guess`` (z when none is given).  The first round
    makes one batched field call that yields both its residual and the
    frozen matrix I - (dt/2) J, assembled with the field's own colouring
    (see :func:`fd_jacobian`); every later round makes one single call.
    After every update the step is accepted, with status "increments",
    when theta/(1 - theta) |dz| is at most KAPPA * cfg.tol * (1 + max|z|),
    with theta the ratio of the last two increments, or for the first
    update the ``theta`` passed in (the previous step's report.theta).
    Without one, the first measured ratio is not used (see the module
    notes).  A residual within cfg.tol accepts the iterate it was evaluated
    at with status "residual", so a state already at a fixed point stops
    in round one (and still pays for the batch).  An update that
    shrinks the increment by less than FLOOR_THETA while the residual is
    at most eps |M| (1 + max|z|) ends the step with status "floor".
    Returns (z_next, StepReport); raises NonConvergenceError when the
    update budget is exhausted or the residual turns non-finite.
    """
    if not dt != 0.0:
        raise ValueError("dt must be nonzero")
    z = np.asarray(z, dtype=float)
    z_new = z.copy() if guess is None else np.array(guess, dtype=float)
    f_mid, M = fd_jacobian(field, 0.5 * (z + z_new), 0.5 * dt)
    z_size = 1.0 + float(np.abs(z).max())
    target = KAPPA * cfg.tol * z_size
    floor = None
    # without a carried rate the first measured one is not trusted
    first_rate_usable = theta is not None
    increments = []
    rounds = 1
    while True:
        r = z_new - z
        r -= dt * f_mid
        r_norm = float(np.abs(r).max())
        if not math.isfinite(r_norm):
            break
        if r_norm <= cfg.tol:
            return z_new, StepReport(rounds, r_norm, "residual", theta,
                                     tuple(increments))
        if len(increments) == cfg.max_iter:
            break
        dz = np.linalg.solve(M, r)
        z_new -= dz
        dz_norm = float(np.abs(dz).max())
        if increments:
            theta = dz_norm / increments[-1]
        increments.append(dz_norm)
        usable = first_rate_usable or len(increments) > 2
        if usable and theta < 1.0 and (
                theta / (1.0 - theta) * dz_norm <= target):
            return z_new, StepReport(rounds, r_norm, "increments", theta,
                                     tuple(increments))
        if len(increments) > 1 and theta >= FLOOR_THETA:
            if floor is None:
                floor = EPS * float(np.abs(M).sum(axis=1).max()) * z_size
            if r_norm <= floor:
                return z_new, StepReport(rounds, r_norm, "floor", theta,
                                         tuple(increments))
        rounds += 1
        f_mid = np.asarray(field(0.5 * (z + z_new)), dtype=float)
    report = StepReport(rounds, r_norm, "diverged", theta, tuple(increments))
    if not math.isfinite(r_norm):
        raise NonConvergenceError("non-finite midpoint residual",
                                  report=report)
    raise NonConvergenceError(
        f"midpoint Newton stalled at residual {r_norm:.3e} "
        f"after {cfg.max_iter} updates", report=report)


@dataclass
class IntegrationResult:
    """Final state of a fixed-step run; converged is False when Newton gave
    up, in which case z holds the last completed step and failure carries
    the failing step index."""

    z: np.ndarray
    steps_completed: int
    failure: Optional[NonConvergenceError] = None

    @property
    def converged(self) -> bool:
        return self.failure is None


def integrate(field: Callable[[np.ndarray], np.ndarray], z0: np.ndarray,
              dt: float, n_steps: int, cfg: NewtonConfig = DEFAULT_NEWTON,
              observer=None) -> IntegrationResult:
    """Fixed-step midpoint loop.

    Every step assembles its Jacobian with ``field.colouring`` (a wrapper
    that drops ``__dict__`` gets the dense difference, see
    :func:`fd_jacobian`).  The first step starts Newton from z_0; every
    later one from the linear extrapolation 2 z_n - z_{n-1}, which equals
    z_n + dt F(mid_{n-1}) to within the Newton tolerance and so is O(dt^2)
    from the solution.  Each step after the first is handed the contraction
    rate its predecessor reported, so it can stop on its first increment
    (see :func:`midpoint_step`).  The equations and their tolerance are
    unchanged.

    The observer, when given, is called as observer(step, t, z, report)
    after every completed step with t = step * dt.  On Newton failure the
    loop halts and flags the partial result instead of raising, so callers
    keep whatever the observer collected.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    z = np.asarray(z0, dtype=float).copy()
    guess = theta = None
    for step in range(1, n_steps + 1):
        try:
            z_next, report = midpoint_step(field, z, dt, cfg, guess=guess,
                                           theta=theta)
        except NonConvergenceError as err:
            err.step = step
            return IntegrationResult(z, step - 1, err)
        guess = 2.0 * z_next - z
        theta = report.theta
        z = z_next
        if observer is not None:
            observer(step, step * dt, z, report)
    return IntegrationResult(z, n_steps)
