"""Semi-discrete vector fields for both pictures and the implicit midpoint
rule, solved by plain fixed-point iteration while it contracts fast and by
Newton otherwise.

Lifted picture: the packed state z = (q_1..q_N, p_1..p_N) follows the
canonical equations  qdot = g_p,  pdot = -g_q  of the collective sum.

Direct picture: the state z = (u_1..u_N) follows the skew-gradient form
udot = K(u) * gradH/dx, where K(u) is the tridiagonal periodic skew form
built from the centered-difference matrix and gradH/dx is the variational
derivative of the quadrature sum (the quadrature weight dx is divided back
out so the field is consistent with the PDE).

Newton solves the midpoint equations  z+ = z + dt*F((z + z+)/2)  on the
frozen matrix  M = I - (dt/2) J,  with J a forward-difference Jacobian
(step FD_STEP) assembled once per step at the first midpoint and reused
across iterations.  The first round evaluates the
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
derives from the band: the colouring, the step of each batch column, the
map that gathers each entry from the compressed difference and the map
that scatters it into M's storage, all broadcast from (node, stencil
offset, copy) terms in O(d) and built once per band shape and process.
A column colouring (Curtis, Powell & Reid 1974) perturbs all columns of
one colour in one batch column: 16 columns for the lifted field and 6 for
the direct one at N = 32, 64 or 512, instead of 2N and N.  Columns of one
colour never share a row, so every entry is bitwise the column-by-column
difference.  The entries are scattered into one storage, a
CyclicBlockMatrix: the state is cut into node blocks, each holding every
copy of its nodes, and M is held as its block diagonals, with no d x d
array.  Below d = BAND_CROSSOVER, and for a prime N, the cut is one block,
M itself, which every Newton update solves with np.linalg.solve.  From it
on, a block holds NODES_PER_BLOCK nodes (when N is not a multiple of it,
the least divisor of N above it), so M is cyclic block tridiagonal (8 x 8
blocks for the lifted field, 4 x 4 for the direct one).  A step
factorises it once by block cyclic reduction, and every update is then a
sweep of batched block products around one solve of the reduced s x s
system.  A run starts each Newton step after its first from the
extrapolation 2 z_n - z_{n-1}, which is O(dt^2) from the solution instead
of O(dt).

Many steps need no Newton matrix at all: at the Burgers settings the plain
iteration  z+ <- z + dt F((z + z+)/2)  contracts at about the spectral
radius of (dt/2) J, a few hundredths, so a round costs one single-state
field call and no assembly or solve.  After a Newton first step a run
tries it on every step (fixed_point_step): a round's rate is the ratio of
its increment to the one before, the iterate is accepted by the increment
test above with that rate, and the step declines as soon as a rate
exceeds FIXED_POINT_RATE, an iterate is non-finite or FIXED_POINT_ROUNDS
rounds pass; an increment at the roundoff floor (FIXED_POINT_FLOOR) is
accepted whatever the rate it shows.  Each round gains only a factor of
the rate, so the start decides how many rounds a step makes: a plain step
starts from the polynomial through the run's last states, the line
through two at steps 2 and 3 and the cubic through four from step 4 on,
O(dt^4) from the solution (the extrapolated starting value of Hairer &
Wanner, IV.8).  At the Burgers settings that leaves one round to measure
a rate and one to accept.  As Newton's first update does, a plain step
tests its first round with the rate its predecessor measured, when that
predecessor was a plain step of two or more rounds and the rate is at
most FIXED_POINT_RATE, and it often accepts there; a step accepted in one
round measured no rate and passes none on.  So Burgers steps mostly
alternate 1 and 2 field calls.  A declined step
is solved by Newton from 2 z_n - z_{n-1}, and the run stays on Newton to
its end (as LSODA switches between functional iteration and Newton;
Petzold, SIAM J. Sci. Stat. Comput. 4, 1983), keeping no states.
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
    "FIXED_POINT_RATE",
    "FIXED_POINT_ROUNDS",
    "fixed_point_step",
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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(
                f"tol must be positive and finite, got {self.tol!r}")
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

#: A fixed-point round whose increment shrinks by less than this factor
#: (a rate above it) makes its step decline to Newton.
FIXED_POINT_RATE = 0.125

#: Field-call rounds a fixed-point step may make before it declines.
FIXED_POINT_ROUNDS = 8

#: A fixed-point increment of at most FIXED_POINT_FLOOR * eps * (1 + max|z|)
#: is at the roundoff floor, where a measured rate is noise: it is accepted
#: whatever its rate.  Such an iterate lies within KAPPA * tol * (1 + max|z|)
#: of the solution at the default tol for any contraction up to 7/8.
#: Burgers increments reach 32 eps (1 + max|z|) at the floor (lifted, N =
#: 1024, dt = 2^-14).
FIXED_POINT_FLOOR = 64


@dataclass(frozen=True)
class StepReport:
    """Outcome of one implicit solve.

    newton_iterations counts field-call rounds of either iteration, so a
    state that is already a fixed point reports one round and zero linear
    solves.  status names the test that ended the iteration: "increments",
    "residual", "floor" (stalled at the roundoff floor, accepted),
    "fixed-point" (plain iteration, accepted on its increments) or
    "diverged" (carried by NonConvergenceError only).  final_residual is
    the last residual evaluated; a step accepted on its increments made one
    more update after it.  increments holds the max norm of every update,
    and theta the latest contraction rate: the ratio of the last two
    increments when the step made two, otherwise the one carried in from
    the previous step (None when there was none), so a plain step accepted
    in its first round reports the rate carried in.
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
    """Column colouring of a sparse d x d Jacobian, with the maps that
    assemble the Newton matrix from it.

    perturbation is FD_STEP times the 0/1 seed, 1 at (j, the colour of
    column j): the step every batch column takes.  The k-th entry that may be nonzero is read from
    flat position sources[k] of the (d, colours) compressed difference (its
    own row, its column's colour) and written to flat position targets[k]
    of an array of the given shape, the node blocks of a
    :class:`CyclicBlockMatrix`.  Columns of one colour share no row, and no
    two entries share a target.  The arrays are read-only, so one colouring
    can serve every caller.
    """

    perturbation: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    shape: tuple

    def __post_init__(self):
        for array in (self.perturbation, self.sources, self.targets):
            array.flags.writeable = False

    @property
    def n_colours(self) -> int:
        return self.perturbation.shape[1]


def _per_entry(node_term: np.ndarray, row_stride: int, col_stride: int,
               blocks: int) -> np.ndarray:
    """A flat position per listed entry, ordered by column copy, column
    node, row copy and stencil offset: ``node_term`` (N, offsets) plus
    row_stride times the row's copy plus col_stride times the column's."""
    copies = np.arange(blocks)
    return (node_term[:, None, :] + row_stride * copies[:, None]
            + col_stride * copies[:, None, None, None]).reshape(-1)


@functools.lru_cache(maxsize=8)
def band_colouring(N: int, half_width: int, blocks: int,
                   nodes_per_block: int) -> Colouring:
    """Colouring of a field on ``blocks`` stacked copies of an N-node
    circle whose output node i reads only inputs within cyclic grid
    distance ``half_width`` of i, in every block; its targets are in the
    node blocks of the cut into ``nodes_per_block`` nodes (a divisor of N,
    at least half_width unless it is N), laid out as in
    :class:`CyclicBlockMatrix`.  A cut into one block lists the dense
    positions rows * d + col.

    Two columns can share a row only when their nodes are at most
    2 * half_width apart, so the circle is cut into N // (2 half_width + 1)
    contiguous segments, segment k starting at node k N // segments, and a
    column's colour is its offset in its segment, one set of colours per
    block: ceil(N / segments) colours per block.  Fewer than two segments
    give every column its own colour.  Column c N + i lists the rows of
    node i + k (mod N), |k| <= half_width, in every copy.  Every map is
    built from (node, k) terms broadcast over the row's and the column's
    copy, and a node block's terms from (node in its block, k) tables, so
    the maps take O(d) time and memory and decode no position.  Colourings
    are cached, so the bands of every run on one grid share theirs.
    """
    span = 2 * half_width + 1
    segments = max(N // span, 1)
    nodes = np.arange(N)
    # node i lies in segment ((i + 1) segments - 1) // N
    offset = nodes - ((nodes + 1) * segments - 1) // N * N // segments
    per_block = int(offset[-1]) + 1
    colours = blocks * per_block
    # the distinct rows a node's column reaches in one block: node + reach
    reach = np.arange(-half_width, half_width + 1) if N >= span else nodes
    row = (nodes[:, None] + reach) % N
    d = blocks * N
    colour = (np.arange(blocks)[:, None] * per_block + offset).reshape(-1)
    perturbation = np.zeros((d, colours))
    perturbation[np.arange(d), colour] = FD_STEP
    sources = _per_entry(row * colours + offset[:, None], N * colours,
                         per_block, blocks)
    # copy c of node i = b g + j sits at row c g + j of node block b, and
    # its row node i + k at row c g + (j + k) % g of node block
    # b + (j + k) // g (mod n), whose column block lies step = -ahead
    # (mod n) from it: 0 main, 1 super, n - 1 sub (with n = 2 the super
    # block stands for both)
    g = nodes_per_block
    n, s = N // g, blocks * g
    local = np.arange(g)[:, None] + reach
    ahead = local // g
    side = np.minimum(-ahead % n, 2)
    table = (side * n * s + local % g) * s + np.arange(g)[:, None]
    node_term = ((np.arange(n)[:, None, None] + ahead) % n * (s * s)
                 + table).reshape(N, -1)
    targets = _per_entry(node_term, g * s, g, blocks)
    return Colouring(perturbation, sources, targets,
                     (1 if n == 1 else 3, n, s, s))


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
    the column colouring of J, and the cut of the state into node blocks
    of nodes_per_block nodes, in which M is cyclic block tridiagonal (see
    :class:`CyclicBlockMatrix`).  A half-width of at least N makes every
    output read every input: the dense difference.
    """

    N: int
    half_width: int
    blocks: int = 1

    @property
    def d(self) -> int:
        return self.blocks * self.N

    @functools.cached_property
    def colouring(self) -> Colouring:
        """The colouring of J and its maps into the node blocks."""
        return band_colouring(self.N, self.half_width, self.blocks,
                              self.nodes_per_block)

    @functools.cached_property
    def nodes_per_block(self) -> int:
        """N (one block, M itself) below d = BAND_CROSSOVER; from it on the
        least divisor of N that is at least NODES_PER_BLOCK and the
        half-width, so every node's band lies in its own block and the two
        beside it, and N itself when there is none."""
        if self.d < BAND_CROSSOVER:
            return self.N
        low = max(NODES_PER_BLOCK, self.half_width)
        return next((g for g in range(low, self.N) if self.N % g == 0),
                    self.N)

    def interleave(self, v: np.ndarray) -> np.ndarray:
        """v (d,) as node blocks (n, s): block k holds copy c of node
        k g + j at c g + j (g = nodes_per_block, s = blocks * g)."""
        g = self.nodes_per_block
        return v.reshape(self.blocks, -1, g).swapaxes(0, 1).reshape(
            -1, self.blocks * g)

    def deinterleave(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(-1, self.blocks, self.nodes_per_block).swapaxes(
            0, 1).reshape(self.d)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The products M[k] @ v[k] of a stack of blocks and vectors."""
    return (M @ v[..., None])[..., 0]


class CyclicBlockMatrix:
    """The Newton matrix of a band, cut into its n node blocks (see
    :meth:`Band.interleave`) and held as its n block rows

        B_k x_k + C_k x_{k+1} + A_k x_{k-1}    (indices mod n)

    of s x s blocks, ``blocks[0, 1, 2] = (B, C, A)``: main, super and sub
    diagonal, with no d x d array.  One block (n = 1) is M itself, in the
    state's own order, held as ``blocks`` of shape (1, 1, d, d).
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
        call; the rest of a solve is batched products over the levels.  A
        matrix of one block is that solve alone.
        """
        if len(self.blocks[0]) == 1:
            whole = self.blocks[0, 0]
            return lambda r: np.linalg.solve(whole, r)
        B, C, A = self.blocks
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
                h: float) -> tuple[np.ndarray, CyclicBlockMatrix]:
    """f(z) and the Newton matrix I - h J, with J the forward-difference
    Jacobian of f at z (step FD_STEP), from one batched evaluation.

    f must accept column-stacked states of shape (d, m) and return (d, m).
    The batch holds z itself and then z plus the stored perturbation of
    ``band.colouring``, one state per colour; its first column is f(z),
    and each entry the colouring lists is read off its column's colour and
    scattered through its target map into the blocks of a
    :class:`CyclicBlockMatrix` on the band's cut as 0.0 - h * (difference),
    after which 1.0 is added on the diagonal; (0 - y) + 1 rounds as 1 - y,
    so every block entry is bitwise that of np.eye(d) - h * J, and a band
    of one block holds exactly that matrix.  Returns (f(z), M).
    """
    if not isinstance(band, Band):
        raise TypeError(f"band must be a Band, got {type(band).__name__}")
    d = band.d
    if z.shape != (d,):
        raise ValueError(f"state of shape {z.shape} for a band of order {d}")
    colouring = band.colouring
    states = np.empty((d, 1 + colouring.n_colours))
    states[:, 0] = z
    np.add(z[:, None], colouring.perturbation, out=states[:, 1:])
    batch = np.asarray(f(states), dtype=float)
    if batch.shape != states.shape:
        raise ValueError(f"batched field returned shape {batch.shape}, "
                         f"expected {states.shape}")
    f0 = batch[:, 0]
    compressed = (batch[:, 1:] - batch[:, :1]) / FD_STEP
    M = np.zeros(colouring.shape)
    M.reshape(-1)[colouring.targets] = 0.0 - h * compressed.ravel()[
        colouring.sources]
    s = M.shape[-1]
    M[0].reshape(-1, s * s)[:, ::s + 1] += 1.0
    return f0, CyclicBlockMatrix(band, M)


DEFAULT_NEWTON = NewtonConfig()


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt != 0.0):
        raise ValueError(f"dt must be finite and nonzero, got {dt!r}")


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
    _check_dt(dt)
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
            solve = M.factorise()
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
                floor = EPS * M.max_row_sum() * z_size
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


def fixed_point_step(field: Callable[[np.ndarray], np.ndarray],
                     z: np.ndarray, dt: float, guess: np.ndarray,
                     cfg: NewtonConfig = DEFAULT_NEWTON,
                     rate: Optional[float] = None):
    """One implicit midpoint step by plain iteration, or None to decline.

    Iterates  z+ <- z + dt * F((z + z+)/2)  from ``guess``, one
    single-state field call per round.  From the second increment on, the
    rate is the ratio of the round's increment to the previous one; a
    round is accepted, with status "fixed-point", when rate/(1 - rate) |dz|
    <= KAPPA * cfg.tol * (1 + max|z|), the increment test of
    :func:`midpoint_step`.  The first round is tested with ``rate``, a
    contraction rate below 1 carried in from the previous plain step, when
    one is given, and otherwise waits for a measured one; a carried rate
    only ever accepts, never declines.  An iterate that maps to itself has
    rate 0.  A round with a rate whose increment is at the roundoff floor,
    at most FIXED_POINT_FLOOR * eps * (1 + max|z|), is accepted whatever
    that rate.  Returns (z_next, StepReport), or None as soon as a rate
    above the floor exceeds FIXED_POINT_RATE (or is not a number), an
    iterate is non-finite, or FIXED_POINT_ROUNDS rounds pass unaccepted.
    """
    _check_dt(dt)
    z = np.asarray(z, dtype=float)
    z_new = np.asarray(guess, dtype=float)
    size = 1.0 + float(np.abs(z).max())
    target = KAPPA * cfg.tol * size
    floor = FIXED_POINT_FLOOR * EPS * size
    increments = []
    for rounds in range(1, FIXED_POINT_ROUNDS + 1):
        z_next = z + dt * np.asarray(field(0.5 * (z + z_new)), dtype=float)
        # the increment is minus the residual of the previous iterate
        dz_norm = float(np.abs(z_next - z_new).max())
        if not math.isfinite(dz_norm):
            return None
        if dz_norm == 0.0:
            rate = 0.0
        elif increments:
            rate = dz_norm / increments[-1]
            if not rate <= FIXED_POINT_RATE and dz_norm > floor:
                return None
        increments.append(dz_norm)
        z_new = z_next
        if rate is not None and (
                dz_norm <= floor or rate / (1.0 - rate) * dz_norm <= target):
            return z_new, StepReport(rounds, dz_norm, "fixed-point", rate,
                                     tuple(increments))
    return None


def _extrapolate(states) -> np.ndarray:
    """At the next step, the cubic through the last four states (oldest
    first), 4 z_n - 6 z_{n-1} + 4 z_{n-2} - z_{n-3}, when there are four,
    and otherwise the line through the last two, 2 z_n - z_{n-1}."""
    if len(states) < 4:
        previous, z = states[-2:]
        return 2.0 * z - previous
    first, before, previous, z = states
    return 4.0 * (z + before) - 6.0 * previous - first


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

    The first step is a Newton step from z_0 (see :func:`midpoint_step`).
    Every later one is first tried by plain iteration (see
    :func:`fixed_point_step`), from the polynomial through the run's last
    states at the next step: the line 2 z_n - z_{n-1} at steps 2 and 3,
    O(dt^2) from the solution, and the cubic 4 z_n - 6 z_{n-1} + 4 z_{n-2}
    - z_{n-3} from step 4 on, O(dt^4).  The first step that declines is
    solved by Newton from the line, and so is every step after it; the run
    then keeps no earlier states.  A Newton step is handed the contraction rate its
    predecessor reported when that was a Newton step too, so it can stop
    on its first increment.  A plain step is handed the rate its
    predecessor measured when that was a plain step of two or more rounds
    and the rate is at most FIXED_POINT_RATE, so it can stop on its first
    round.  Each measured rate so serves one following step, and the noise
    rate of a floor-accepted step, which can be 1 or more, serves none.
    The equations and their tolerance are the same on both paths.

    The observer, when given, is called as observer(step, t, z, report)
    after every completed step with t = step * dt.  On Newton failure the
    loop halts and flags the partial result instead of raising, so callers
    keep whatever the observer collected.
    """
    _check_dt(dt)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    z = np.asarray(z0, dtype=float).copy()
    guess = theta = rate = None
    # the run's last (at most four) states, oldest first, until a step
    # declines plain iteration
    states = [z]
    for step in range(1, n_steps + 1):
        taken = None
        if states is not None and len(states) > 1:
            taken = fixed_point_step(field, z, dt, _extrapolate(states), cfg,
                                     rate=rate)
            if taken is None:
                guess = _extrapolate(states[-2:])
                states = None
        if taken is None:
            try:
                taken = midpoint_step(field, band, z, dt, cfg, guess=guess,
                                      theta=theta)
            except NonConvergenceError as err:
                err.step = step
                return IntegrationResult(z, step - 1, err)
        z_next, report = taken
        plain = report.status == "fixed-point"
        theta = None if plain else report.theta
        # a rate measured within a plain step certifies the next one; a
        # floor-accepted step can show a noise rate of 1 or more
        rate = report.theta if (plain and report.newton_iterations > 1
                                and report.theta <= FIXED_POINT_RATE) else None
        if states is None:
            guess = _extrapolate((z, z_next))
        else:
            states = states[-3:] + [z_next]
        z = z_next
        if observer is not None:
            observer(step, step * dt, z, report)
    return IntegrationResult(z, n_steps)
