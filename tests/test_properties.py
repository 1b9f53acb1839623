"""Property tests of the stencils and the kernels built on them.

Hypothesis runs derandomised with a bounded number of examples, so every
run draws the same cases.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from clebschflow.clebsch import lift, momentum_arrays
from clebschflow.dynamics import (
    FIXED_POINT_RATE,
    NewtonConfig,
    NonConvergenceError,
    apply_K,
    collective_flat_field,
    conventional_flat_field,
    fd_jacobian,
    fixed_point_step,
    integrate,
    midpoint_step,
)
from clebschflow.grid import PeriodicGrid, s_avg, st_avg, t_diff, tt_diff
from clebschflow.hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    discrete_H_collective,
    discrete_H_conventional,
    grad_collective,
    grad_conventional,
)
from clebschflow.reference import burgers_breaking, burgers_characteristics

L = 8.0
PROPERTY = settings(derandomize=True, max_examples=50, deadline=None,
                    database=None)
UNIT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw, count, max_N=48):
    """A grid size N and ``count`` sample vectors of length N in [-1, 1]."""
    N = draw(st.integers(3, max_N))
    return N, [draw(arrays(np.float64, N, elements=UNIT))
               for _ in range(count)]


specs = st.builds(HamiltonianSpec, UNIT, UNIT, UNIT, UNIT)


def close(a, b, scale, rel=1e-13):
    return abs(a - b) <= rel * (1.0 + scale)


@PROPERTY
@given(samples(2))
def test_stencil_adjointness(case):
    _, (f, g) = case
    scale = np.linalg.norm(f) * np.linalg.norm(g)
    assert close(np.dot(t_diff(f), g), np.dot(f, tt_diff(g)), scale)
    assert close(np.dot(s_avg(f), g), np.dot(f, st_avg(g)), scale)


@PROPERTY
@given(samples(3))
def test_skew_form_is_exactly_skew(case):
    N, (u, a, b) = case
    dx = L / N
    scale = np.linalg.norm(u) * np.linalg.norm(a) * np.linalg.norm(b) / dx
    assert close(np.dot(apply_K(u, a, dx), b), -np.dot(a, apply_K(u, b, dx)),
                 scale)
    assert close(np.dot(apply_K(u, a, dx), a), 0.0, scale)


@PROPERTY
@given(samples(3), UNIT, UNIT)
def test_momentum_map_is_linear_in_p(case, alpha, beta):
    N, (noise, p1, p2) = case
    g = PeriodicGrid(N, L)
    q = g.full_nodes + 0.15 * noise
    u1, _, _ = momentum_arrays(g.dx, g.L, q, p1)
    u2, _, _ = momentum_arrays(g.dx, g.L, q, p2)
    u, _, _ = momentum_arrays(g.dx, g.L, q, alpha * p1 + beta * p2)
    np.testing.assert_allclose(u, alpha * u1 + beta * u2, rtol=0,
                               atol=1e-13 * (1.0 + np.max(np.abs(u1))
                                             + np.max(np.abs(u2))))


def central_differences(H, z, h=1e-6):
    grad = np.empty_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        grad[k] = (H(zp) - H(zm)) / (2 * h)
    return grad


def assert_gradient(analytic, fd):
    scale = max(1.0, np.max(np.abs(analytic)))
    assert np.max(np.abs(analytic - fd)) / scale < 1e-6


@PROPERTY
@given(specs, samples(2, max_N=12))
def test_collective_gradient_matches_central_differences(spec, case):
    N, (q_noise, p_noise) = case
    g = PeriodicGrid(N, L)
    z = np.concatenate([g.full_nodes + 0.15 * q_noise, 1.0 + 0.4 * p_noise])
    fd = central_differences(
        lambda v: discrete_H_collective(spec, g.dx, g.L, v[:N], v[N:]), z)
    assert_gradient(np.concatenate(grad_collective(spec, g.dx, g.L,
                                                   z[:N], z[N:])), fd)


@PROPERTY
@given(specs, samples(1, max_N=12))
def test_conventional_gradient_matches_central_differences(spec, case):
    N, (noise,) = case
    dx = L / N
    u = 1.0 + 0.4 * noise
    fd = central_differences(lambda v: discrete_H_conventional(spec, dx, v),
                             u)
    assert_gradient(grad_conventional(spec, dx, u), fd)


@PROPERTY
@given(specs, samples(1))
def test_conventional_field_is_orthogonal_to_its_gradient(spec, case):
    N, (noise,) = case
    g = PeriodicGrid(N, L)
    u = 1.0 + 0.4 * noise
    grad = grad_conventional(spec, g.dx, u)
    f = conventional_flat_field(spec, g)[0](u)
    assert close(np.dot(grad, f), 0.0,
                 np.linalg.norm(grad) * np.linalg.norm(f))


@PROPERTY
@given(specs, st.integers(3, 64), st.integers(1, 9), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_batch_columns_are_bitwise_single_calls(spec, N, m, lifted, seed):
    # the Newton step takes its first residual from column 0 of the
    # Jacobian batch, so a column must be the single call to the bit
    g = PeriodicGrid(N, L)
    if lifted:
        field, band = collective_flat_field(spec, g)
    else:
        field, band = conventional_flat_field(spec, g)
    d = band.d
    X = 1.0 + 0.4 * np.random.default_rng(seed).uniform(-1.0, 1.0, (d, m))
    batch = field(X)
    assert batch.shape == (d, m)
    for k in range(m):
        single = field(X[:, k])
        assert single.shape == (d,)
        assert np.ascontiguousarray(batch[:, k]).tobytes() == single.tobytes()


@PROPERTY
@given(st.sampled_from([BURGERS, EXTENDED_BURGERS]), st.integers(4, 64),
       st.integers(5, 11), st.floats(0.1, 0.6), st.floats(0.0, L),
       st.booleans())
def test_accepted_steps_lie_within_tolerance_of_their_fixed_point(
        spec, N, log2_steps, amplitude, shift, lifted):
    # Newton accepts once its error estimate is at most
    # KAPPA tol (1 + max|z|); the estimate extrapolates the increment
    # ratios seen so far, which can understate the later rate, so each
    # accepted step is held to 1/KAPPA times that bound, tol (1 + max|z|)
    g = PeriodicGrid(N, L)
    u0 = 1.0 + amplitude * np.cos(2 * np.pi * (g.full_nodes - shift) / L)
    if lifted:
        (field, band), z0 = collective_flat_field(spec, g), lift(g, u0)
    else:
        (field, band), z0 = conventional_flat_field(spec, g), u0
    dt = 2.0 ** -log2_steps
    seen = []
    # a diverging draw is reported by its non-finite residual, as in a run
    with np.errstate(over="ignore", invalid="ignore"):
        result = integrate(
            field, band, z0, dt, 4,
            observer=lambda k, t, z, report: seen.append(z.copy()))
    event("converged" if result.converged else "diverged")
    assert len(seen) == result.steps_completed
    if result.converged:
        assert result.steps_completed == 4
    else:
        assert result.failure.report.status == "diverged"
    z = z0
    for accepted in seen:
        # the same step iterated on to its fixed point
        fixed = accepted.copy()
        _, M = fd_jacobian(field, band, 0.5 * (z + fixed), 0.5 * dt)
        for _ in range(20):
            fixed -= np.linalg.solve(
                M, fixed - z - dt * field(0.5 * (z + fixed)))
        tolerance = NewtonConfig().tol * (1.0 + np.max(np.abs(z)))
        assert np.max(np.abs(accepted - fixed)) <= tolerance
        z = accepted


@PROPERTY
@given(st.sampled_from([BURGERS, EXTENDED_BURGERS]), st.integers(4, 64),
       st.integers(5, 14), st.floats(0.1, 0.6), st.floats(0.0, L),
       st.booleans())
def test_accepted_fixed_point_steps_lie_within_tolerance_of_the_solution(
        spec, N, log2_steps, amplitude, shift, lifted):
    # a run's second step: plain iteration from 2 z_1 - z_0 after a Newton
    # first step, held to tol (1 + max|z|) like a Newton step
    g = PeriodicGrid(N, L)
    u0 = 1.0 + amplitude * np.cos(2 * np.pi * (g.full_nodes - shift) / L)
    if lifted:
        (field, band), z0 = collective_flat_field(spec, g), lift(g, u0)
    else:
        (field, band), z0 = conventional_flat_field(spec, g), u0
    dt = 2.0 ** -log2_steps
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            z, _ = midpoint_step(field, band, z0, dt)
        except NonConvergenceError:
            event("first step diverged")
            return
        taken = fixed_point_step(field, z, dt, guess=2.0 * z - z0)
    event("declined" if taken is None else "accepted")
    if taken is None:
        return
    accepted, report = taken
    assert report.status == "fixed-point"
    assert report.theta <= FIXED_POINT_RATE
    # the same step iterated on to its fixed point by Newton
    fixed = accepted.copy()
    _, M = fd_jacobian(field, band, 0.5 * (z + fixed), 0.5 * dt)
    for _ in range(20):
        fixed -= np.linalg.solve(M, fixed - z - dt * field(0.5 * (z + fixed)))
    tolerance = NewtonConfig().tol * (1.0 + np.max(np.abs(z)))
    assert np.max(np.abs(accepted - fixed)) <= tolerance


@PROPERTY
@given(st.sampled_from([BURGERS, EXTENDED_BURGERS]), st.integers(4, 64),
       st.integers(5, 14), st.floats(0.1, 0.6), st.floats(0.0, L),
       st.booleans())
def test_fixed_point_steps_from_extrapolated_starts_lie_within_tolerance(
        spec, N, log2_steps, amplitude, shift, lifted):
    # a run's first 6 steps: plain iteration from the linear and then the
    # cubic start through the last states, each accepted step held to
    # tol (1 + max|z|) of its Newton-iterated fixed point
    g = PeriodicGrid(N, L)
    u0 = 1.0 + amplitude * np.cos(2 * np.pi * (g.full_nodes - shift) / L)
    if lifted:
        (field, band), z0 = collective_flat_field(spec, g), lift(g, u0)
    else:
        (field, band), z0 = conventional_flat_field(spec, g), u0
    dt = 2.0 ** -log2_steps
    seen = []
    with np.errstate(over="ignore", invalid="ignore"):
        integrate(field, band, z0, dt, 6,
                  observer=lambda k, t, z, report: seen.append(
                      (z.copy(), report.status)))
    event(f"{sum(status == 'fixed-point' for _, status in seen)} plain steps")
    z = z0
    for accepted, status in seen:
        if status == "fixed-point":
            fixed = accepted.copy()
            _, M = fd_jacobian(field, band, 0.5 * (z + fixed), 0.5 * dt)
            for _ in range(20):
                fixed -= np.linalg.solve(
                    M, fixed - z - dt * field(0.5 * (z + fixed)))
            tolerance = NewtonConfig().tol * (1.0 + np.max(np.abs(z)))
            assert np.max(np.abs(accepted - fixed)) <= tolerance
        z = accepted


@st.composite
def cosine_bumps(draw):
    """A shifted cosine bump u0 = 1 + a cos(k (x - s)), its breaking time
    under u_t = 6 u u_x, and a node set of odd or even N."""
    a = draw(st.floats(0.05, 0.8))
    shift = draw(st.floats(0.0, L))
    N = draw(st.integers(3, 48))
    half = draw(st.booleans())
    k = 2.0 * np.pi / L

    def u0(x):
        return 1.0 + a * np.cos(k * (np.asarray(x) - shift))

    x = (L / N) * (np.arange(1, N + 1) - (0.5 if half else 0.0))
    return u0, 1.0 / (6.0 * a * k), x


@PROPERTY
@given(cosine_bumps(), st.lists(st.floats(1e-3, 0.9), min_size=1,
                                max_size=12),
       st.integers(0, 12), st.lists(st.floats(-L, 2.0 * L), max_size=6))
def test_characteristics_rows_are_the_scalar_solves(bump, fractions, zero_at,
                                                    extra_nodes):
    u0, t_star, x = bump
    x = np.concatenate([x, extra_nodes])
    bounds = burgers_breaking(u0, L)[1]

    def solve(x, t):
        return burgers_characteristics(u0, x, t, bounds=bounds)

    times = [f * t_star for f in fractions]
    times.insert(min(zero_at, len(times)), 0.0)
    try:
        singles = [solve(x, t) for t in times]
        points = [[solve(node, t) for node in x] for t in times]
    except NonConvergenceError:
        # one point the iteration cannot solve fails the whole block
        with pytest.raises(NonConvergenceError):
            solve(x, np.array(times))
        return
    rows = solve(x, np.array(times))
    assert rows.shape == (len(times), x.size)
    np.testing.assert_array_equal(rows, np.stack(singles))
    # every entry is bitwise its own (x, t) call
    np.testing.assert_array_equal(rows, np.array(points))
    np.testing.assert_array_equal(rows[times.index(0.0)], u0(x))


@PROPERTY
@given(cosine_bumps(), st.floats(1e-3, 0.9))
def test_characteristics_keep_their_return_shapes(bump, fraction):
    u0, t_star, x = bump
    bounds = burgers_breaking(u0, L)[1]

    def solve(x, t):
        return burgers_characteristics(u0, x, t, bounds=bounds)

    t = fraction * t_star
    assert isinstance(solve(float(x[0]), t), float)
    grid = x.reshape(1, -1)
    assert solve(grid, t).shape == grid.shape
    times = np.array([0.0, t])
    assert solve(float(x[0]), times).shape == (2,)
    assert solve(grid, times).shape == (2,) + grid.shape
