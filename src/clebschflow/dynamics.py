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
fixed grid distance of i, in every block.  Each flat-field builder returns
the field together with its Band, (N, half_width, blocks), and the band is
passed beside the field to integrate, midpoint_step and fd_jacobian; a
call without one is a TypeError.  Everything the Newton layer needs
derives from the band.  A column colouring (Curtis, Powell & Reid 1974)
perturbs all columns of one colour in one batch column: 16 columns for the
lifted field and 6 for the direct one at N = 32, 64 or 512, instead of 2N
and N.  Columns of one colour never share a row, so every entry is bitwise
the column-by-column difference.  Below d = BAND_CROSSOVER the entries
are scattered into a dense M, which every Newton update solves with
np.linalg.solve.  From it on, the state is interleaved by node, (q_i, p_i),
and cut into blocks of NODES_PER_BLOCK nodes (when N is not a multiple of
it, of the least divisor of N above it; a prime N stays dense), so M is
cyclic block tridiagonal (8 x 8 blocks for the lifted field, 4 x 4 for the
direct one) and is held as its three block diagonals, with no d x d
array.  A step factorises it once by block cyclic reduction, and every
update is then a sweep of batched block products around one solve of the
reduced s x s system.  A run starts each step's Newton iteration from the
extrapolation 2 z_n - z_{n-1}, which is O(dt^2) from the solution instead
of O(dt).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import PeriodicGrid
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
    "Band",
    "BAND_CROSSOVER",
    "collective_flat_field",
    "conventional_flat_field",
    "apply_K",
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


def collective_flat_field(spec: HamiltonianSpec, grid: PeriodicGrid
                          ) -> tuple[Callable[[np.ndarray], np.ndarray], Band]:
    """Right-hand side on packed states z = (q, p) of winding constant
    grid.L, the identity lift's, and its Band.

    The right-hand side accepts a single state of shape (2N,) or a batch
    of column-stacked states of shape (2N, m).
    """
    N, dx, C = grid.N, grid.dx, grid.L

    def rhs(z: np.ndarray) -> np.ndarray:
        gq, gp = grad_collective(spec, dx, C, z[:N], z[N:])
        return np.concatenate([gp, -gq], axis=0)

    return rhs, Band(N, COLLECTIVE_HALF_WIDTH, blocks=2)


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


def conventional_flat_field(spec: HamiltonianSpec, grid: PeriodicGrid
                            ) -> tuple[Callable[[np.ndarray], np.ndarray],
                                       Band]:
    """Right-hand side on raw sample vectors, (N,) or (N, m), and its
    Band."""
    dx = grid.dx

    def rhs(u: np.ndarray) -> np.ndarray:
        grad = grad_conventional(spec, dx, u)
        return apply_K(u, grad / dx, dx)

    return rhs, Band(grid.N, CONVENTIONAL_HALF_WIDTH, blocks=1)


# -- Jacobian band ----------------------------------------------------------------

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
    with no d x d array.  Colourings are cached, so the bands of every run
    on one grid share theirs.
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


#: Order d of the Newton matrix from which a step factorises it by block
#: cyclic reduction on its band instead of solving it dense.  One BLAS
#: thread, 2-CPU host: at d = 128 the dense solve takes 0.28 ms against
#: 0.38 ms to factor and 0.21 ms to solve; at d = 256, 1.06 ms against
#: 0.54 + 0.27 ms.
BAND_CROSSOVER = 256

#: Grid nodes per diagonal block of the reduction, when N allows (see
#: :attr:`Band.nodes_per_block`).
NODES_PER_BLOCK = 4


@dataclass(frozen=True)
class Band:
    """Jacobian structure of a field on ``blocks`` stacked copies of an
    N-node circle whose output node i reads only inputs within cyclic grid
    distance ``half_width`` of i, in every block.  The state is block-major,
    z[c N + i] for copy c of node i, so d = blocks * N.

    Everything the Newton layer needs is derived from these three numbers:
    the column colouring of J, and for d >= BAND_CROSSOVER the cut of the
    node-interleaved matrix (z ordered (q_0, p_0, q_1, p_1, ...)) into
    cyclic tridiagonal blocks of nodes_per_block nodes.  A half-width of at
    least N makes every output read every input: the dense difference.
    """

    N: int
    half_width: int
    blocks: int = 1

    @property
    def d(self) -> int:
        return self.blocks * self.N

    @property
    def colouring(self) -> Colouring:
        return band_colouring(self.N, self.half_width, self.blocks)

    @functools.cached_property
    def nodes_per_block(self) -> int:
        """The least divisor of N that is at least NODES_PER_BLOCK and the
        half-width, so every node's band lies in its own block and the two
        beside it; N itself when there is none, and then M stays dense."""
        low = min(max(NODES_PER_BLOCK, self.half_width), self.N)
        return next(g for g in range(low, self.N + 1) if self.N % g == 0)

    def interleave(self, v: np.ndarray) -> np.ndarray:
        """v (d,) as node blocks (n, s): s = blocks * nodes_per_block
        values each, copy index fastest."""
        return v.reshape(self.blocks, self.N).T.reshape(
            -1, self.blocks * self.nodes_per_block)

    def deinterleave(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.N, self.blocks).T.reshape(self.d)


@functools.lru_cache(maxsize=8)
def _block_targets(band: Band) -> np.ndarray:
    """Flat position, in the (3, n, s, s) array of sub-, main and
    super-diagonal blocks of the interleaved Newton matrix, of every entry
    ``band.colouring`` lists (in its order).  With n <= 2 blocks a row's
    neighbours coincide, and only the sum of its blocks matters."""
    d = band.d
    s = band.blocks * band.nodes_per_block
    n = d // s
    position = np.empty(d, dtype=np.intp)
    position[band.interleave(np.arange(d)).ravel()] = np.arange(d)
    rows, cols = np.divmod(band.colouring.entries, d)
    block, local_row = np.divmod(position[rows], s)
    col_block, local_col = np.divmod(position[cols], s)
    step = (col_block - block) % n
    side = np.where(step == 0, 1, np.where(step == 1, 2, 0))
    return ((side * n + block) * s + local_row) * s + local_col


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The products M[k] @ v[k] of a stack of blocks and vectors."""
    return (M @ v[..., None])[..., 0]


class CyclicBlockMatrix:
    """The Newton matrix of a band at d >= BAND_CROSSOVER, interleaved by
    node (see :class:`Band`) and held as its n block rows

        A_k x_{k-1} + B_k x_k + C_k x_{k+1}    (indices mod n)

    of s x s blocks, ``blocks[0, 1, 2] = (A, B, C)``, with no d x d array.
    """

    def __init__(self, band: Band, blocks: np.ndarray):
        self.band = band
        self.blocks = blocks

    def max_row_sum(self) -> float:
        """max_i sum_j |M_ij|, the max norm of M."""
        return float(np.abs(self.blocks).sum(axis=(0, 3)).max())

    def factorise(self) -> Callable[[np.ndarray], np.ndarray]:
        """Odd-even block cyclic reduction (Buzbee, Golub & Nielson, SIAM J.
        Numer. Anal. 7, 1970), unpivoted; returns r -> M^{-1} r.

        Each level inverts the odd-indexed diagonal blocks, one batched
        call, and folds their rows into the even ones: an even row k whose
        neighbour j = k +- 1 is eliminated gains -(its coupling) B_j^{-1}
        (A_j, C_j) and so couples to k +- 2.  An odd count carries its
        last even block, whose coupling to block 0 stays direct.  A level
        of one block leaves A + B + C, solved by np.linalg.solve at every
        call; the rest of a solve is batched products over the levels.
        """
        A, B, C = self.blocks
        s = B.shape[1]
        levels = []
        while len(B) > 1:
            n = len(B)
            odd = n // 2
            even = n - odd
            inverse = np.linalg.inv(B[1::2])
            # B_j^{-1} A_j and B_j^{-1} C_j side by side
            reach = inverse @ np.concatenate([A[1::2], C[1::2]], axis=2)
            # even rows k with an eliminated right neighbour j = k + 1, and
            # those with an eliminated left one j = k - 1 (mod n)
            right = C[0:2 * odd:2]
            has_left = np.arange(n % 2, even)
            left_of = (has_left - 1) % odd
            left = A[0::2][has_left]
            via_right = right @ reach
            via_left = left @ reach[left_of]
            A, B, C = A[0::2].copy(), B[0::2].copy(), C[0::2].copy()
            B[:odd] -= via_right[..., :s]
            C[:odd] = -via_right[..., s:]
            B[has_left] -= via_left[..., s:]
            A[has_left] = -via_left[..., :s]
            # the even blocks either side of odd block j = 2i + 1
            sides = np.arange(odd), (np.arange(odd) + 1) % even
            levels.append((inverse, reach, right, left, has_left, left_of,
                           sides))
        top = A[0] + B[0] + C[0]
        band = self.band

        def solve(r: np.ndarray) -> np.ndarray:
            x = band.interleave(r).copy()
            eliminated = []
            for inverse, _, right, left, has_left, left_of, _ in levels:
                g = _matvec(inverse, x[1::2])
                x = x[0::2]
                x[:len(g)] -= _matvec(right, g)
                x[has_left] -= _matvec(left, g[left_of])
                eliminated.append(g)
            x = np.linalg.solve(top, x[0])[None]
            for (_, reach, _, _, _, _, (before, after)), g in zip(
                    reversed(levels), reversed(eliminated)):
                full = np.empty((len(x) + len(g), s))
                full[0::2] = x
                full[1::2] = g - _matvec(reach, np.concatenate(
                    [x[before], x[after]], axis=1))
                x = full
            return band.deinterleave(x)

        return solve


# -- implicit midpoint ------------------------------------------------------------

def fd_jacobian(f: Callable[[np.ndarray], np.ndarray], band: Band,
                z: np.ndarray,
                h: float) -> tuple[np.ndarray, np.ndarray | CyclicBlockMatrix]:
    """f(z) and the Newton matrix I - h J, with J the forward-difference
    Jacobian of f at z (step FD_STEP), from one batched evaluation.

    f must accept column-stacked states of shape (d, m) and return (d, m).
    The batch holds z itself and then one perturbed state per colour of
    ``band.colouring``; its first column is f(z), and each entry the
    colouring lists is read off its column's colour and scattered as
    0.0 - h * (difference), after which 1.0 is added on the diagonal;
    (0 - y) + 1 rounds as 1 - y, so M is bitwise np.eye(d) - h * J without
    any d x d arithmetic.  Below BAND_CROSSOVER, and for a band whose
    nodes do not split into blocks, the entries go into a dense d x d
    array; otherwise into the blocks of a :class:`CyclicBlockMatrix`.
    Returns (f(z), M).
    """
    if not isinstance(band, Band):
        raise TypeError(f"band must be a Band, got {type(band).__name__}")
    d = band.d
    if z.shape != (d,):
        raise ValueError(f"state of shape {z.shape} for a band of order {d}")
    colouring = band.colouring
    states = np.empty((d, 1 + colouring.n_colours))
    states[:, 0] = z
    np.add(z[:, None], FD_STEP * colouring.seed, out=states[:, 1:])
    batch = np.asarray(f(states), dtype=float)
    if batch.shape != states.shape:
        raise ValueError(f"batched field returned shape {batch.shape}, "
                         f"expected {states.shape}")
    f0 = batch[:, 0]
    compressed = (batch[:, 1:] - batch[:, :1]) / FD_STEP
    values = 0.0 - h * compressed.ravel()[colouring.sources]
    # a single block of the whole circle (a prime N) would be M itself
    if d < BAND_CROSSOVER or band.nodes_per_block == band.N:
        M = np.zeros((d, d))
        M.reshape(-1)[colouring.entries] = values
        M.reshape(-1)[::d + 1] += 1.0
        return f0, M
    s = band.blocks * band.nodes_per_block
    blocks = np.zeros((3, d // s, s, s))
    blocks.reshape(-1)[_block_targets(band)] = values
    blocks[1].reshape(-1, s * s)[:, ::s + 1] += 1.0
    return f0, CyclicBlockMatrix(band, blocks)


def _factorise(M) -> Callable[[np.ndarray], np.ndarray]:
    """r -> M^{-1} r for a Newton matrix from :func:`fd_jacobian`; a dense
    one is solved afresh at every call, as np.linalg.solve."""
    if isinstance(M, CyclicBlockMatrix):
        return M.factorise()
    return lambda r: np.linalg.solve(M, r)


def _max_row_sum(M) -> float:
    if isinstance(M, CyclicBlockMatrix):
        return M.max_row_sum()
    return float(np.abs(M).sum(axis=1).max())


DEFAULT_NEWTON = NewtonConfig()


def midpoint_step(field: Callable[[np.ndarray], np.ndarray], band: Band,
                  z: np.ndarray, dt: float, cfg: NewtonConfig = DEFAULT_NEWTON,
                  guess: Optional[np.ndarray] = None,
                  theta: Optional[float] = None):
    """One implicit midpoint step: solve  z+ = z + dt * F((z + z+)/2).

    Newton starts from ``guess`` (z when none is given).  The first round
    makes one batched field call that yields both its residual and the
    frozen matrix I - (dt/2) J on the field's band (see
    :func:`fd_jacobian`), factorised once, at the first update; every later
    round makes one single call, and every update one solve with that
    factorisation.
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
    f_mid, M = fd_jacobian(field, band, 0.5 * (z + z_new), 0.5 * dt)
    solve = None
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
        if solve is None:
            solve = _factorise(M)
        dz = solve(r)
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
                floor = EPS * _max_row_sum(M) * z_size
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


def integrate(field: Callable[[np.ndarray], np.ndarray], band: Band,
              z0: np.ndarray, dt: float, n_steps: int,
              cfg: NewtonConfig = DEFAULT_NEWTON,
              observer=None) -> IntegrationResult:
    """Fixed-step midpoint loop of ``field``, whose Jacobian has the
    structure ``band``.

    Every step assembles and factorises its Newton matrix on the band (see
    :func:`midpoint_step`).  The first step starts Newton from z_0; every
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
            z_next, report = midpoint_step(field, band, z, dt, cfg,
                                           guess=guess, theta=theta)
        except NonConvergenceError as err:
            err.step = step
            return IntegrationResult(z, step - 1, err)
        guess = 2.0 * z_next - z
        theta = report.theta
        z = z_next
        if observer is not None:
            observer(step, step * dt, z, report)
    return IntegrationResult(z, n_steps)
