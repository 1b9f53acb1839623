import functools
import math

import numpy as np
import pytest

from clebschflow import dynamics
from clebschflow.clebsch import lift, momentum_arrays
from clebschflow.dynamics import (
    Band,
    NewtonConfig,
    NonConvergenceError,
    apply_K,
    band_colouring,
    collective_flat_field,
    conventional_flat_field,
    fd_jacobian,
    integrate,
    midpoint_step,
)
from clebschflow.grid import PeriodicGrid
from clebschflow.hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    discrete_H_conventional,
    grad_collective,
    grad_conventional,
)
from clebschflow.harness import (
    ExperimentConfig, convergence_study, run_experiment)

from oracles import (
    column_jacobian,
    decoded_block_targets,
    dense_K,
    flat_band_entries,
    midpoint_step_by_columns,
    newton_steps,
)

L = 8.0
W = 2 * np.pi / L


def full_band(d):
    """The band of a field on d values whose every output reads every
    input: the dense difference, one colour per column."""
    return Band(d, d)


def collective_rates(spec, g, z):
    """(qdot, pdot) of the lifted field at a packed state."""
    rhs, _ = collective_flat_field(spec, g)
    f = rhs(z)
    return f[:g.N], f[g.N:]


class TestCollectiveField:
    def test_zero_spec_is_stationary(self):
        g = PeriodicGrid(8, L)
        state = lift(g, 1.0 + 0.3 * np.sin(W * g.full_nodes))
        qd, pd = collective_rates(HamiltonianSpec(0, 0, 0, 0), g, state)
        np.testing.assert_array_equal(qd, np.zeros(8))
        np.testing.assert_array_equal(pd, np.zeros(8))

    def test_constant_state_hand_value(self):
        # for the density -u^2/6 the lifted flow is q_t = -q_x^2 p / 3,
        # p_t = -(q_x p^2)_x / 3; on a constant lift this is (-c/3, 0)
        g = PeriodicGrid(16, L)
        c = 1.3
        state = lift(g, np.full(16, c))
        qd, pd = collective_rates(HamiltonianSpec(-1 / 6, 0, 0, 0), g, state)
        np.testing.assert_allclose(qd, np.full(16, -c / 3), atol=1e-14)
        np.testing.assert_allclose(pd, np.zeros(16), atol=1e-14)

    def test_converges_to_lifted_flow_equations(self):
        spec = HamiltonianSpec(-1 / 6, 0, 0, 0)
        errs_q, errs_p = [], []
        for N in (32, 64, 128):
            g = PeriodicGrid(N, L)
            x = g.full_nodes
            q = x + 0.1 * np.sin(W * x)
            p = 1.0 + 0.3 * np.cos(W * x)
            state = np.concatenate([q, p])
            qd, pd = collective_rates(spec, g, state)
            qx = 1.0 + 0.1 * W * np.cos(W * x)
            qxx = -0.1 * W * W * np.sin(W * x)
            px = -0.3 * W * np.sin(W * x)
            qt = -qx * qx * p / 3.0
            pt = -(qxx * p * p + 2.0 * qx * p * px) / 3.0
            errs_q.append(np.max(np.abs(qd - qt)))
            errs_p.append(np.max(np.abs(pd - pt)))
        for errs in (errs_q, errs_p):
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders > 1.7) and np.all(orders < 2.3)


class TestSkewForm:
    def test_zero_velocity_annihilates(self):
        g = PeriodicGrid(8, L)
        out = apply_K(np.zeros(8), np.ones(8), g.dx)
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_exact_skewness(self):
        rng = np.random.default_rng(1)
        g = PeriodicGrid(8, L)
        u = rng.standard_normal(8)
        for _ in range(10):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            lhs = np.dot(apply_K(u, a, g.dx), b)
            rhs = np.dot(a, apply_K(u, b, g.dx))
            assert abs(lhs + rhs) <= 1e-14 * max(1.0, abs(lhs))

    def test_constant_velocity_transports(self):
        c = 0.7
        errs = []
        for N in (32, 64, 128):
            g = PeriodicGrid(N, L)
            sin = np.sin(W * g.full_nodes)
            out = apply_K(np.full(N, c), sin, g.dx)
            exact = 2.0 * c * W * np.cos(W * g.full_nodes)
            errs.append(np.max(np.abs(out - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_dense_form_matches_independent_build(self):
        rng = np.random.default_rng(2)
        g = PeriodicGrid(8, 3.0)
        u = rng.standard_normal(8)
        g2 = rng.standard_normal(8)
        np.testing.assert_allclose(apply_K(u, g2, g.dx), dense_K(u, g.dx) @ g2,
                                   rtol=0, atol=1e-13)


class TestConventionalField:
    def test_constant_state_is_equilibrium(self):
        g = PeriodicGrid(8, L)
        out = conventional_flat_field(BURGERS, g)[0](np.full(8, 2.2))
        np.testing.assert_allclose(out, np.zeros(8), atol=1e-13)

    def test_converges_to_quadratic_flow(self):
        errs = []
        for N in (32, 64, 128):
            g = PeriodicGrid(N, L)
            u = 1.0 + 0.5 * np.cos(W * g.full_nodes)
            ux = -0.5 * W * np.sin(W * g.full_nodes)
            out = conventional_flat_field(BURGERS, g)[0](u)
            errs.append(np.max(np.abs(out - 6.0 * u * ux)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_field_is_orthogonal_to_gradient(self):
        rng = np.random.default_rng(3)
        g = PeriodicGrid(8, L)
        spec = EXTENDED_BURGERS
        for _ in range(10):
            u = 1.0 + 0.4 * rng.standard_normal(8)
            grad = grad_conventional(spec, g.dx, u)
            f = conventional_flat_field(spec, g)[0](u)
            dot = np.dot(grad, f)
            scale = max(1.0, np.linalg.norm(grad) * np.linalg.norm(f))
            assert abs(dot) / scale < 1e-13


class TestMidpointStep:
    def test_zero_field_fixed_point_in_one_round(self):
        z = np.array([1.0, -2.0, 0.5])
        calls = []

        def zero(v):
            calls.append(v.shape[1:])
            return np.zeros_like(v)

        z_next, report = midpoint_step(zero, full_band(3), z, 0.1)
        np.testing.assert_array_equal(z_next, z)
        assert report.newton_iterations == 1
        assert report.status == "residual"
        # a fixed point still pays for the Jacobian batch: z and 3 columns
        assert calls == [(4,)]

    def test_harmonic_oscillator_energy_stays_bounded(self):
        rhs = lambda z: np.array([z[1], -z[0]])
        z = np.array([1.0, 0.0])
        drift = 0.0
        for _ in range(1000):
            z, _ = midpoint_step(rhs, full_band(2), z, 0.1)
            drift = max(drift, abs(0.5 * np.dot(z, z) - 0.5))
        assert drift < 1e-10

    def test_quadratic_invariant_preserved_exactly(self):
        # quadratic densities make the direct-picture sum a conserved
        # quadratic form, which the midpoint rule preserves to solver noise
        g = PeriodicGrid(32, L)
        spec = HamiltonianSpec(1.0, 1.0, 0.0, 0.0)
        u = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        H0 = discrete_H_conventional(spec, g.dx, u)
        rhs, band = conventional_flat_field(spec, g)
        worst = 0.0
        z = u.copy()
        for _ in range(1000):
            z, _ = midpoint_step(rhs, band, z, 2.0 ** -10)
            H = discrete_H_conventional(spec, g.dx, z)
            worst = max(worst, abs((H0 - H) / H0))
        assert worst < 1e-11

    def test_time_reversal(self):
        g = PeriodicGrid(16, L)
        rhs, band = conventional_flat_field(EXTENDED_BURGERS, g)
        z0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        cfg = NewtonConfig(tol=1e-13)
        z1, _ = midpoint_step(rhs, band, z0, 0.01, cfg)
        z2, _ = midpoint_step(rhs, band, z1, -0.01, cfg)
        assert np.max(np.abs(z2 - z0)) < 1e-11

    def test_frozen_step_evaluates_the_field_once_per_round_the_first_batched(self):
        g = PeriodicGrid(16, L)
        z0 = lift(g, 1.0 + 0.5 * np.cos(W * g.full_nodes))
        rhs, band = collective_flat_field(EXTENDED_BURGERS, g)
        calls = []

        def counted(z):
            calls.append(z.shape[1:])
            return rhs(z)

        _, report = midpoint_step(counted, band, z0, 2.0 ** -6)
        assert report.newton_iterations >= 2
        assert len(calls) == report.newton_iterations
        # the midpoint itself, then one state per colour
        assert calls[0] == (1 + band.colouring.n_colours,)
        assert set(calls[1:]) == {()}

    def test_extrapolated_guess_reaches_the_same_solution(self):
        g = PeriodicGrid(16, L)
        rhs, band = collective_flat_field(EXTENDED_BURGERS, g)
        cfg = NewtonConfig()
        dt = 2.0 ** -6
        z_prev = lift(g, 1.0 + 0.5 * np.cos(W * g.full_nodes))
        z, _ = midpoint_step(rhs, band, z_prev, dt, cfg)
        plain, plain_report = midpoint_step(rhs, band, z, dt, cfg)
        guessed, report = midpoint_step(rhs, band, z, dt, cfg,
                                        guess=2.0 * z - z_prev)
        assert np.max(np.abs(guessed - plain)) < 4 * cfg.tol
        assert report.newton_iterations < plain_report.newton_iterations

    def test_iteration_budget_exhaustion_raises(self):
        # z' = z^2 from z = 1 with dt = 10: the midpoint equation
        # 2.5 w^2 + 4 w + 3.5 = 0 has no real root
        rhs = lambda z: z * z
        with pytest.raises(NonConvergenceError) as caught:
            midpoint_step(rhs, full_band(1), np.array([1.0]), 10.0,
                          NewtonConfig(max_iter=5))
        assert caught.value.report.status == "diverged"
        assert len(caught.value.report.increments) == 5

    def test_non_finite_residual_raises(self):
        rhs = lambda z: z * 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergenceError):
                midpoint_step(rhs, full_band(1), np.array([1.0]), 10.0,
                              NewtonConfig(max_iter=10))

    def test_rejects_zero_step(self):
        with pytest.raises(ValueError):
            midpoint_step(lambda z: z, full_band(2), np.ones(2), 0.0)


@pytest.mark.parametrize("coloured", [True, False], ids=["coloured", "dense"])
@pytest.mark.parametrize("spec", [BURGERS, EXTENDED_BURGERS],
                         ids=["burgers", "extended"])
@pytest.mark.parametrize("scheme", ["collective", "conventional"])
class TestStepMatchesColumnReference:
    """The batched step is bitwise the step built from single field calls
    and a column-by-column Jacobian (``oracles.midpoint_step_by_columns``):
    same z, same Newton rounds, same residuals."""

    DT = 2.0 ** -8

    def field_and_state(self, scheme, spec, coloured):
        g = PeriodicGrid(32, L)
        u0 = 1.0 + 0.5 * np.cos(W * (g.full_nodes - 1.3))
        if scheme == "collective":
            (rhs, band), z0 = collective_flat_field(spec, g), lift(g, u0)
        else:
            (rhs, band), z0 = conventional_flat_field(spec, g), u0
        return rhs, (band if coloured else full_band(band.d)), z0

    def test_one_step(self, scheme, spec, coloured):
        rhs, band, z0 = self.field_and_state(scheme, spec, coloured)
        z1, report = midpoint_step(rhs, band, z0, self.DT)
        z1_ref, report_ref = midpoint_step_by_columns(rhs, z0, self.DT)
        assert report.newton_iterations >= 2
        assert report == report_ref
        np.testing.assert_array_equal(z1, z1_ref)

    def test_sixteen_steps(self, scheme, spec, coloured):
        # sixteen Newton steps, each from the extrapolated start with the
        # rate carried in, as a run makes them once it is on Newton
        rhs, band, z0 = self.field_and_state(scheme, spec, coloured)
        batched = newton_steps(functools.partial(midpoint_step, rhs, band),
                               z0, self.DT, 16)
        by_columns = newton_steps(
            functools.partial(midpoint_step_by_columns, rhs), z0, self.DT, 16)
        for (z, report), (z_ref, report_ref) in zip(batched, by_columns,
                                                    strict=True):
            assert report == report_ref
            np.testing.assert_array_equal(z, z_ref)


class TestStoppingRule:
    """Newton stops on its increments, counts a stall at the roundoff floor
    as "floor" and still raises on real divergence."""

    @staticmethod
    def bump_run(N, dt, steps):
        """The lifted periodic-bump preset at N and dt, cut to ``steps``."""
        config = ExperimentConfig(
            method="collective", spec=EXTENDED_BURGERS, N=N, L=L, dt=dt,
            t_end=steps * dt, initial_condition="periodic-bump")
        return run_experiment(config).runs[0]

    # each of these stalled on step 1 under a plain residual test against
    # tol = 1e-12, at residuals between 2.8e-12 and 9.4e-11
    @pytest.mark.parametrize("N, log2_dt", [(256, -8), (256, -10),
                                            (512, -12), (512, -9)])
    def test_fine_grid_steps_complete(self, N, log2_dt):
        run = self.bump_run(N, 2.0 ** log2_dt, 8)
        assert run.converged
        assert [rec.step for rec in run.records] == list(range(9))
        assert all(rec.newton_iters <= 6 for rec in run.records)
        assert run.accepted["increments"] + run.accepted["residual"] == 8

    def test_stall_at_the_roundoff_floor_is_accepted_as_floor(self):
        g = PeriodicGrid(64, L)
        z0 = lift(g, 1.0 + 0.5 * np.exp(-np.sin(np.pi * g.full_nodes / L) ** 2))
        rhs, band = collective_flat_field(EXTENDED_BURGERS, g)
        dt = 2.0 ** -8
        # an increment target of 0.1 * 1e-16 * (1 + 8) is below roundoff
        z1, report = midpoint_step(rhs, band, z0, dt, NewtonConfig(tol=1e-16))
        assert report.status == "floor"
        assert report.theta >= dynamics.FLOOR_THETA
        assert len(report.increments) == report.newton_iterations
        _, M = fd_jacobian(rhs, band, z0, 0.5 * dt)
        row_sums = np.abs(M.blocks[0, 0]).sum(axis=1)
        floor = np.finfo(float).eps * row_sums.max() * (1.0 + np.abs(z0).max())
        assert report.final_residual <= floor
        # the default tolerance accepts the same step on its increments,
        # within roundoff of the floor's answer
        z_default, default = midpoint_step(rhs, band, z0, dt)
        assert default.status == "increments"
        assert np.max(np.abs(z1 - z_default)) < 1e-13

    @pytest.mark.parametrize("max_iter", [3, 50])
    def test_divergence_still_raises(self, max_iter):
        # the conventional scheme at dt = 64 has no nearby solution
        g = PeriodicGrid(16, L)
        u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        rhs, band = conventional_flat_field(BURGERS, g)
        with np.errstate(all="ignore"):
            result = integrate(rhs, band, u0, 64.0, 10,
                               NewtonConfig(max_iter=max_iter))
        assert not result.converged
        assert result.failure.step == 1
        assert result.failure.report.status == "diverged"
        assert len(result.failure.report.increments) == max_iter

    def test_status_matches_the_rounds_the_step_made(self):
        # Only the residual test accepts before the update its round would
        # make; the increment and floor tests accept right after one.
        # Burgers at N = 16 ends steps on both of the first two tests, and
        # the lifted periodic bump at tol = 1e-16 stalls at the floor.
        def runs():
            g = PeriodicGrid(16, L)
            u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
            yield (*collective_flat_field(BURGERS, g),
                   lift(g, u0), 2.0 ** -6, NewtonConfig())
            yield (*conventional_flat_field(BURGERS, g), u0, 2.0 ** -6,
                   NewtonConfig())
            g = PeriodicGrid(64, L)
            z0 = lift(g, 1.0 + 0.5 * np.exp(
                -np.sin(np.pi * g.full_nodes / L) ** 2))
            yield (*collective_flat_field(EXTENDED_BURGERS, g),
                   z0, 2.0 ** -8, NewtonConfig(tol=1e-16))

        seen = set()
        for rhs, band, z0, dt, cfg in runs():
            reports = []
            result = integrate(rhs, band, z0, dt, 64, cfg,
                               observer=lambda k, t, z, rep: reports.append(
                                   rep))
            assert result.converged and len(reports) == 64
            for report in reports:
                extra = 1 if report.status == "residual" else 0
                assert report.status in ("increments", "residual", "floor")
                assert (report.newton_iterations
                        == len(report.increments) + extra)
                seen.add(report.status)
        assert seen == {"increments", "residual", "floor"}

    def test_one_batched_call_per_step_once_the_rate_is_known(self):
        # the lifted shock-every-step configuration, cut to 64 steps
        g = PeriodicGrid(64, L)
        z0 = lift(g, 1.0 + 0.5 * np.cos(W * g.full_nodes))
        rhs, band = collective_flat_field(BURGERS, g)
        batch = (1 + band.colouring.n_colours,)
        calls = []

        def counted(z):
            calls.append(z.shape[1:])
            return rhs(z)

        # solved by Newton throughout
        per_step = [(list(calls), report) for _, report in newton_steps(
            functools.partial(midpoint_step, counted, band), z0,
            2.0 ** -12, 64)]
        # the first step has no rate to carry in, so it needs a confirming call
        first_calls, first = per_step[0]
        assert first_calls[0] == batch and first.newton_iterations > 1
        for (before, _), (after, report) in zip(per_step, per_step[1:]):
            assert after[len(before):] == [batch]
            assert report.status == "increments"
            assert report.newton_iterations == len(report.increments) == 1

        # a run: the same Newton first step, then only single-state calls,
        # one per fixed-point round (one when a carried rate accepts)
        calls.clear()
        per_step.clear()
        result = integrate(counted, band, z0, 2.0 ** -12, 64,
                           observer=lambda k, t, z, rep: per_step.append(
                               (list(calls), rep)))
        assert result.converged
        assert per_step[0] == (first_calls, first)
        for (before, _), (after, report) in zip(per_step, per_step[1:]):
            assert report.status == "fixed-point"
            assert after[len(before):] == [()] * report.newton_iterations
            assert report.newton_iterations == len(report.increments) >= 1


def scheme_field(scheme, spec, g):
    """Flat field of the given scheme and its band."""
    if scheme == "collective":
        return collective_flat_field(spec, g)
    return conventional_flat_field(spec, g)


def random_state(g, d):
    return 1.0 + 0.3 * np.random.default_rng(g.N).standard_normal(d)


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert np.ascontiguousarray(actual).tobytes() == expected.tobytes()


class TestJacobianAssembly:
    @pytest.mark.parametrize("h", [2.0 ** -9, -2.0 ** -9, 0.37])
    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_batched_equals_columnwise(self, scheme, h):
        # N = 16 puts the direct field's colouring at 6 colours, not 16
        g = PeriodicGrid(16, L)
        rhs, band = scheme_field(scheme, EXTENDED_BURGERS, g)
        z = random_state(g, band.d)
        f0, J_loop = column_jacobian(rhs, z, dynamics.FD_STEP)
        M_loop = np.eye(z.size) - h * J_loop
        assert band.colouring.n_colours < z.size
        for b in (band, full_band(band.d)):
            f_z, M = fd_jacobian(rhs, b, z, h)
            assert_bitwise(f_z, f0)
            assert_bitwise(M.blocks[0, 0], M_loop)

    @pytest.mark.parametrize("N", [16, 33, 64])
    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_one_block_is_the_dense_matrix_and_its_solve(self, scheme, N):
        # below the crossover the cut is one block, M itself, solved by
        # np.linalg.solve on it
        g = PeriodicGrid(N, L)
        rhs, band = scheme_field(scheme, EXTENDED_BURGERS, g)
        z = random_state(g, band.d)
        h = 2.0 ** -9
        dense = np.eye(band.d) - h * column_jacobian(
            rhs, z, dynamics.FD_STEP)[1]
        _, M = fd_jacobian(rhs, band, z, h)
        assert M.blocks.shape == (1, 1, band.d, band.d)
        assert_bitwise(M.blocks[0, 0], dense)
        r = np.random.default_rng(N).standard_normal(band.d)
        assert_bitwise(M.factorise()(r), np.linalg.solve(dense, r))
        assert M.max_row_sum() == np.abs(dense).sum(axis=1).max()

    @pytest.mark.parametrize("N", [3, 4, 7, 8, 13, 16, 33, 64])
    @pytest.mark.parametrize("spec", [BURGERS, EXTENDED_BURGERS],
                             ids=["burgers", "extended"])
    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_coloured_equals_uncoloured(self, scheme, spec, N):
        g = PeriodicGrid(N, L)
        rhs, band = scheme_field(scheme, spec, g)
        z = random_state(g, band.d)
        f_z, M = fd_jacobian(rhs, band, z, 2.0 ** -9)
        f_dense, M_dense = fd_jacobian(rhs, full_band(band.d), z, 2.0 ** -9)
        assert_bitwise(f_z, f_dense)
        assert_bitwise(M.blocks, M_dense.blocks)

    @pytest.mark.parametrize("N", [3, 7, 14, 20, 32, 33, 64, 512])
    @pytest.mark.parametrize("scheme", ["collective", "conventional"],
                             ids=["collective_colouring",
                                  "conventional_colouring"])
    def test_columns_of_one_colour_share_no_row(self, scheme, N):
        band = scheme_field(scheme, BURGERS, PeriodicGrid(N, L))[1]
        # the maps into one block, the dense matrix, whatever cut the band
        # uses
        colouring = band_colouring(band.N, band.half_width, band.blocks,
                                   band.N)
        assert colouring.shape == (1, 1, band.d, band.d)
        d, m = colouring.perturbation.shape
        rows, cols = np.divmod(colouring.targets, d)
        source_rows, colours = np.divmod(colouring.sources, m)
        # every column is perturbed in exactly one batch column, its
        # colour's, and each entry is read from its own row and its
        # column's colour
        colour = colouring.perturbation.argmax(axis=1)
        seed = np.eye(m)[colour]
        assert_bitwise(colouring.perturbation, dynamics.FD_STEP * seed)
        np.testing.assert_array_equal(source_rows, rows)
        np.testing.assert_array_equal(colours, colour[cols])
        # all d diagonal entries of J are listed, once each
        np.testing.assert_array_equal(np.sort(rows[rows == cols]),
                                      np.arange(d))
        # a (row, colour) slot is read by one listed entry only, and no
        # entry is listed twice
        assert np.unique(colouring.sources).size == colouring.sources.size
        assert np.unique(colouring.targets).size == colouring.targets.size
        # the band's own maps (into node blocks at N = 512) colour and read
        # alike, and write each entry to a slot of its own
        own = band.colouring
        assert_bitwise(own.perturbation, colouring.perturbation)
        assert_bitwise(own.sources, colouring.sources)
        assert np.unique(own.targets).size == own.targets.size

    @pytest.mark.parametrize("N", [32, 64, 512])
    def test_colour_counts(self, N):
        g = PeriodicGrid(N, L)
        assert scheme_field("collective", BURGERS,
                            g)[1].colouring.n_colours == 16
        assert scheme_field("conventional", BURGERS,
                            g)[1].colouring.n_colours == 6

    def test_default_colouring_is_the_identity(self):
        colouring = band_colouring(5, 5, 1, 5)
        assert_bitwise(colouring.perturbation, dynamics.FD_STEP * np.eye(5))
        np.testing.assert_array_equal(np.sort(colouring.targets),
                                      np.arange(25))
        rows, cols = np.divmod(colouring.targets, 5)
        assert np.count_nonzero(rows == cols) == 5
        for array in (colouring.perturbation, colouring.sources,
                      colouring.targets):
            assert not array.flags.writeable  # shared through a cache

    def test_a_wrapped_field_assembles_on_the_band_it_is_given(self):
        g = PeriodicGrid(32, L)
        rhs, band = collective_flat_field(BURGERS, g)
        z = random_state(g, band.d)
        widths = []

        def wrapped(v):
            widths.append(v.shape[1:])
            return rhs(v)

        f_z, M = fd_jacobian(rhs, band, z, 2.0 ** -9)
        for b in (full_band(band.d), band):
            f_field, M_field = fd_jacobian(wrapped, b, z, 2.0 ** -9)
            assert_bitwise(f_field, f_z)
            assert_bitwise(M_field.blocks, M.blocks)
        # one batch each, z and then one state per colour: the identity,
        # then 16 colours
        assert widths == [(1 + 2 * g.N,), (1 + 16,)]

    def test_runs_assemble_with_the_field_colouring(self, monkeypatch):
        assemble = dynamics.fd_jacobian
        colours = []

        def recording(f, band, *args, **kwargs):
            colours.append(band.colouring.n_colours)
            return assemble(f, band, *args, **kwargs)

        monkeypatch.setattr(dynamics, "fd_jacobian", recording)
        config = ExperimentConfig(method="both", N=32, dt=2.0 ** -10,
                                  t_end=4 * 2.0 ** -10)
        assert run_experiment(config).converged
        assert sorted(set(colours)) == [6, 16]
        colours.clear()
        # the level run at N = 4 and its refined run at N = 32
        level = ExperimentConfig(method="collective", N=4, dt=2.0 ** -8,
                                 t_end=2.0 ** -8)
        convergence_study(level, [4], reference="fine-grid")
        assert sorted(set(colours)) == [8, 16]

    def test_rhs_errors_propagate(self):
        def broken(z):
            raise ZeroDivisionError("bug in the field")

        with pytest.raises(ZeroDivisionError):
            fd_jacobian(broken, full_band(3), np.ones(3), 0.5)

    def test_wrong_batch_shape_raises(self):
        def single_only(z):
            return -np.asarray(z)[..., 0]

        with pytest.raises(ValueError):
            fd_jacobian(single_only, full_band(3), np.ones(3), 0.5)

    def test_linear_field_recovered_exactly(self):
        A = np.array([[0.0, 1.0], [-2.0, 0.5]])
        z = np.array([0.3, -1.2])
        f_z, M = fd_jacobian(lambda v: A @ v, full_band(2), z, 0.25)
        np.testing.assert_allclose(f_z, A @ z, rtol=1e-15)
        np.testing.assert_allclose(M.blocks[0, 0], np.eye(2) - 0.25 * A,
                                   atol=1e-6)


#: Grid sizes of the map tests: every N below the stencil span of a field,
#: cuts into one and two node blocks, primes, and the benchmark's sizes.
MAP_SIZES = [*range(2, 10), 16, 31, 32, 64, 127, 128, 256, 257, 300, 512,
             1024]


class TestNewtonMaps:
    """The maps built from the band's geometry are the flat d x d entry
    positions in one block, and those positions decoded into node blocks
    in a cut into several."""

    @pytest.mark.parametrize("half_width, blocks", [
        (dynamics.COLLECTIVE_HALF_WIDTH, 2),
        (dynamics.CONVENTIONAL_HALF_WIDTH, 1),
        (1, 1)])
    @pytest.mark.parametrize("N", MAP_SIZES)
    def test_maps_are_the_decoded_flat_entries(self, N, half_width, blocks):
        seed, entries, sources = flat_band_entries(N, half_width, blocks)
        # the cut from the crossover on, taken at every N: the least
        # divisor of N from max(NODES_PER_BLOCK, half_width), else N
        low = max(dynamics.NODES_PER_BLOCK, half_width)
        g = next((g for g in range(low, N) if N % g == 0), N)
        whole = band_colouring(N, half_width, blocks, N)
        cut = band_colouring(N, half_width, blocks, g)
        n, s = N // g, blocks * g
        assert whole.shape == (1, 1, blocks * N, blocks * N)
        assert cut.shape == (1 if n == 1 else 3, n, s, s)
        for colouring in (whole, cut):
            assert_bitwise(colouring.perturbation, dynamics.FD_STEP * seed)
            np.testing.assert_array_equal(colouring.sources, sources)
        np.testing.assert_array_equal(whole.targets, entries)
        np.testing.assert_array_equal(
            cut.targets, decoded_block_targets(N, blocks, g, entries))
        # the band takes that cut from the crossover on, one block below it
        band = Band(N, half_width, blocks)
        chosen = cut if band.d >= dynamics.BAND_CROSSOVER else whole
        assert band.nodes_per_block == chosen.shape[-1] // blocks
        assert band.colouring.shape == chosen.shape
        assert_bitwise(band.colouring.targets, chosen.targets)


def bump_case(scheme, spec, N):
    """Flat field, band and state of the periodic bump at N nodes."""
    g = PeriodicGrid(N, L)
    u0 = 1.0 + 0.5 * np.exp(-np.sin(np.pi * g.full_nodes / L) ** 2)
    if scheme == "collective":
        return (*collective_flat_field(spec, g), lift(g, u0))
    return (*conventional_flat_field(spec, g), u0)


def expand(M):
    """The dense matrix, in the state's own order, of the blocks of a
    CyclicBlockMatrix."""
    sides, n, s, _ = M.blocks.shape
    cut = np.zeros((n * s, n * s))
    for k in range(n):
        for side, j in zip(range(sides), (k, k + 1, k - 1)):
            j %= n
            cut[k * s:(k + 1) * s, j * s:(j + 1) * s] += M.blocks[side, k]
    order = M.band.interleave(np.arange(M.band.d)).ravel()
    dense = np.empty_like(cut)
    dense[np.ix_(order, order)] = cut
    return dense


def backward_error(M, x, r):
    return np.abs(M @ x - r).max() / (np.abs(M).sum(axis=1).max()
                                      * np.abs(x).max())


class TestBandedSolve:
    """From d = BAND_CROSSOVER on, the Newton matrix is held as cyclic
    tridiagonal node blocks and solved by block cyclic reduction."""

    DT = 2.0 ** -8

    # (scheme, N, nodes per block), with the block counts of the levels
    CASES = [
        ("collective", 128, 4),    # 32 16 8 4 2 1
        ("collective", 192, 4),    # 48 24 12 6 3 2 1: an odd level
        ("collective", 384, 4),    # 96 48 24 12 6 3 2 1
        ("collective", 135, 5),    # odd N: 27 14 7 4 2 1
        ("collective", 129, 43),   # odd N: 3 2 1
        ("conventional", 384, 4),  # 96 48 24 12 6 3 2 1
        ("conventional", 320, 4),  # 80 40 20 10 5 3 2 1
        ("conventional", 259, 7),  # odd N: 37 19 10 5 3 2 1
    ]

    def newton_matrix(self, scheme, N, spec=EXTENDED_BURGERS, dt=DT):
        rhs, band, z = bump_case(scheme, spec, N)
        _, M = fd_jacobian(rhs, band, z, 0.5 * dt)
        dense = np.eye(band.d) - 0.5 * dt * column_jacobian(
            rhs, z, dynamics.FD_STEP)[1]
        return M, dense

    @pytest.mark.parametrize("scheme, N, nodes", CASES)
    def test_blocks_hold_the_column_jacobian(self, scheme, N, nodes):
        M, dense = self.newton_matrix(scheme, N)
        assert isinstance(M, dynamics.CyclicBlockMatrix)
        assert M.band.nodes_per_block == nodes
        assert_bitwise(expand(M), dense)
        assert M.max_row_sum() == pytest.approx(
            np.abs(dense).sum(axis=1).max(), rel=1e-15)

    @pytest.mark.parametrize("scheme, N, nodes", CASES)
    def test_reduction_matches_a_dense_solve(self, scheme, N, nodes):
        M, dense = self.newton_matrix(scheme, N)
        r = np.random.default_rng(N).standard_normal(dense.shape[0])
        x = M.factorise()(r)
        x_dense = np.linalg.solve(dense, r)
        assert backward_error(dense, x, r) < 1e-12
        np.testing.assert_allclose(x, x_dense, rtol=0,
                                   atol=1e-9 * np.abs(x_dense).max())

    # below the crossover, and at a prime N, the cut is one block
    @pytest.mark.parametrize("scheme, N, n", [
        ("conventional", 255, 1), ("conventional", 256, 64),
        ("conventional", 257, 1), ("collective", 127, 1),
        ("collective", 128, 32)])
    def test_the_crossover_picks_the_path(self, scheme, N, n):
        rhs, band, z = bump_case(scheme, BURGERS, N)
        M = fd_jacobian(rhs, band, z, 0.5 * self.DT)[1]
        assert isinstance(M, dynamics.CyclicBlockMatrix)
        s = band.d // n
        assert M.blocks.shape == (1 if n == 1 else 3, n, s, s)

    def test_one_factorisation_serves_many_right_hand_sides(self):
        M, dense = self.newton_matrix("collective", 192)
        blocks = M.blocks.copy()
        solve = M.factorise()
        rng = np.random.default_rng(5)
        for _ in range(4):
            r = rng.standard_normal(dense.shape[0])
            kept = r.copy()
            x = solve(r)
            assert_bitwise(r, kept)
            assert_bitwise(solve(r), x)
            assert_bitwise(M.factorise()(r), x)
            assert backward_error(dense, x, r) < 1e-12
        assert_bitwise(M.blocks, blocks)

    def test_ill_conditioned_fine_grid_step(self):
        # lifted extended Burgers at N = 512, dt = 2^-8: cond(M) ~ 3e8
        M, dense = self.newton_matrix("collective", 512)
        r = np.random.default_rng(3).standard_normal(dense.shape[0])
        assert backward_error(dense, M.factorise()(r), r) < 1e-12
        # inside Newton the solve only has to contract: the step takes the
        # rounds the dense column-by-column step takes, to the same answer
        rhs, band, z0 = bump_case("collective", EXTENDED_BURGERS, 512)
        z1, report = midpoint_step(rhs, band, z0, self.DT)
        z1_ref, report_ref = midpoint_step_by_columns(rhs, z0, self.DT)
        assert report.status == report_ref.status == "increments"
        assert report.newton_iterations == report_ref.newton_iterations
        assert np.abs(z1 - z1_ref).max() < 1e-12 * np.abs(z1_ref).max()

    def test_a_wrapped_field_runs_bitwise_the_same(self):
        # a tracer wraps the field and passes the band unchanged
        rhs, band, z0 = bump_case("collective", BURGERS, 512)
        plain = integrate(rhs, band, z0, 2.0 ** -12, 8)
        wrapped = integrate(lambda z: rhs(z), band, z0, 2.0 ** -12, 8)
        assert plain.converged and wrapped.converged
        assert_bitwise(wrapped.z, plain.z)

    def test_each_update_makes_one_dense_solve(self, monkeypatch):
        # the reduced top block, solved afresh at every update
        rhs, band, z0 = bump_case("collective", BURGERS, 512)
        solve = np.linalg.solve
        solves = []

        def counted(*args):
            solves.append(args[0].shape)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        reports = [report for _, report in newton_steps(
            functools.partial(midpoint_step, rhs, band), z0, 2.0 ** -12, 4)]
        assert solves == [(8, 8)] * sum(len(r.increments) for r in reports)
        # a run solves only its Newton first step; the rest are fixed-point
        solves.clear()
        reports.clear()
        result = integrate(rhs, band, z0, 2.0 ** -12, 4,
                           observer=lambda k, t, z, rep: reports.append(rep))
        assert result.converged
        assert [r.status for r in reports[1:]] == ["fixed-point"] * 3
        assert solves == [(8, 8)] * len(reports[0].increments)

    def test_a_call_without_a_band_is_a_type_error(self):
        rhs, band, z0 = bump_case("collective", BURGERS, 16)
        with pytest.raises(TypeError):
            midpoint_step(rhs, z0, self.DT)
        with pytest.raises(TypeError):
            integrate(rhs, z0, self.DT, 4)
        with pytest.raises(TypeError):
            fd_jacobian(rhs, z0, 0.5 * self.DT)
        with pytest.raises(TypeError):
            fd_jacobian(rhs, None, z0, 0.5 * self.DT)
        assert not hasattr(rhs, "colouring")


def cosine_case(scheme, spec, N):
    """Flat field, band and state of the cosine bump at N nodes."""
    g = PeriodicGrid(N, L)
    u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
    if scheme == "collective":
        return (*collective_flat_field(spec, g), lift(g, u0))
    return (*conventional_flat_field(spec, g), u0)


class TestFixedPoint:
    """After a Newton first step a run tries plain iteration on every step,
    and stays on Newton from the first step that declines it."""

    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_a_burgers_run_assembles_only_on_its_first_step(
            self, scheme, monkeypatch):
        # the shock-every-step configuration, cut to 64 steps
        rhs, band, z0 = cosine_case(scheme, BURGERS, 64)
        assemble = dynamics.fd_jacobian
        steps = []
        assembled_at = []

        def counted(*args, **kwargs):
            assembled_at.append(len(steps) + 1)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(dynamics, "fd_jacobian", counted)
        result = integrate(rhs, band, z0, 2.0 ** -12, 64,
                           observer=lambda k, t, z, rep: steps.append(rep))
        assert result.converged
        assert assembled_at == [1]
        assert steps[0].status != "fixed-point"
        for report in steps[1:]:
            assert report.status == "fixed-point"
            assert report.theta <= dynamics.FIXED_POINT_RATE
            assert (report.newton_iterations == len(report.increments)
                    <= dynamics.FIXED_POINT_ROUNDS)

    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_a_cubic_run_falls_back_at_step_two(self, scheme, monkeypatch):
        # the periodic bump of bump-long: plain iteration is tried once and
        # declined, and the run is then bitwise a Newton run
        rhs, band, z0 = bump_case(scheme, EXTENDED_BURGERS, 32)
        dt = 2.0 ** -8
        plain = dynamics.fixed_point_step
        tried = []

        def recorded(*args, **kwargs):
            tried.append(plain(*args, **kwargs))
            return tried[-1]

        monkeypatch.setattr(dynamics, "fixed_point_step", recorded)
        seen = []
        result = integrate(rhs, band, z0, dt, 64,
                           observer=lambda k, t, z, rep: seen.append(
                               (z.copy(), rep)))
        assert result.converged
        assert tried == [None]
        newton = newton_steps(functools.partial(midpoint_step, rhs, band),
                              z0, dt, 64)
        for (z, report), (z_ref, report_ref) in zip(seen, newton,
                                                    strict=True):
            assert report == report_ref
            assert_bitwise(z, z_ref)

    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_burgers_steps_alternate_one_and_two_rounds_from_a_cubic_start(
            self, scheme):
        # the shock-every-step configuration, cut to 64 steps: from step 4
        # on the start is the cubic through the last four states, close
        # enough that the second round, the first with a measured rate,
        # accepts; the rate it measured accepts the next step's first
        # round, and that step, with no rate of its own, passes none on
        rhs, band, z0 = cosine_case(scheme, BURGERS, 64)
        rounds = []
        result = integrate(rhs, band, z0, 2.0 ** -12, 64,
                           observer=lambda k, t, z, rep: rounds.append(
                               rep.newton_iterations))
        assert result.converged
        assert rounds == [3, 3, 3] + [1, 2] * 30 + [1]

    def test_a_carried_rate_accepts_the_first_round_when_its_test_passes(
            self):
        # z' = -z at dt = 0.1 contracts at exactly 0.05 per round; from
        # 1e-12 off the solution the first increment, about 1.05e-12, is
        # above the floor (4.3e-14) and 0.05/0.95 of it is within the
        # target KAPPA tol (1 + max|z|) = 3e-13
        z = np.array([1.0, -2.0, 0.5])
        exact = z * (1.0 - 0.05) / (1.0 + 0.05)
        guess = exact + 1e-12
        z1, report = dynamics.fixed_point_step(lambda v: -v, z, 0.1, guess,
                                               rate=0.05)
        assert report.status == "fixed-point"
        assert report.newton_iterations == len(report.increments) == 1
        assert report.increments[0] > dynamics.FIXED_POINT_FLOOR * (
            dynamics.EPS * 3.0)
        assert report.theta == 0.05
        assert np.abs(z1 - exact).max() <= 1e-12 * (1.0 + 2.0)
        # without the rate the same step waits for a measured one
        _, measured = dynamics.fixed_point_step(lambda v: -v, z, 0.1, guess)
        assert measured.newton_iterations == 2
        assert measured.increments[0] == report.increments[0]

    def test_a_carried_rate_that_fails_leaves_the_rounds_unchanged(self):
        # from 1e-4 off, 0.05/0.95 of the first increment misses the
        # target, and the step makes the rounds it makes without the rate
        z = np.array([1.0, -2.0, 0.5])
        guess = z * (1.0 - 0.05) / (1.0 + 0.05) + 1e-4
        carried = dynamics.fixed_point_step(lambda v: -v, z, 0.1, guess,
                                            rate=0.05)
        plain = dynamics.fixed_point_step(lambda v: -v, z, 0.1, guess)
        assert carried[1] == plain[1]
        assert plain[1].newton_iterations > 1
        assert_bitwise(carried[0], plain[0])

    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.05, 0.125, 0.5, 0.9])
    @pytest.mark.parametrize("offset", [1e-4, 1e-8, 1e-12, 1e-14])
    def test_a_carried_rate_never_makes_a_step_decline(self, rate, offset):
        # a carried rate can only accept the first round; every later
        # round is tested with its own measured rate, as without one
        z = np.array([1.0, -2.0, 0.5])
        guess = z * (1.0 - 0.05) / (1.0 + 0.05) + offset
        plain = dynamics.fixed_point_step(lambda v: -v, z, 0.1, guess)
        carried = dynamics.fixed_point_step(lambda v: -v, z, 0.1, guess,
                                            rate=rate)
        assert plain is not None and carried is not None
        assert (carried[1].newton_iterations
                <= plain[1].newton_iterations)

    def test_a_run_carries_only_a_rate_measured_in_a_plain_step(
            self, monkeypatch):
        # integrate hands a plain step the rate its predecessor measured
        # in two or more rounds, when at most FIXED_POINT_RATE, and
        # nothing after a Newton step or a step accepted in one round
        plain = dynamics.fixed_point_step
        calls = []

        def recorded(*args, rate=None, **kwargs):
            calls.append(rate)
            return plain(*args, rate=rate, **kwargs)

        monkeypatch.setattr(dynamics, "fixed_point_step", recorded)

        def run(rhs, band, z0, dt, n_steps):
            calls.clear()
            reports = []
            result = integrate(rhs, band, z0, dt, n_steps,
                               observer=lambda k, t, z, rep: reports.append(
                                   rep))
            assert result.converged
            assert len(calls) == n_steps - 1
            # calls[k] was made for step k + 2, after reports[k]
            return list(zip(reports, calls))

        rhs, band, z0 = cosine_case("collective", BURGERS, 64)
        pairs = run(rhs, band, z0, 2.0 ** -12, 64)
        assert pairs[0][0].status != "fixed-point" and pairs[0][1] is None
        kinds = set()
        for before, rate in pairs[1:]:
            assert before.status == "fixed-point"
            if before.newton_iterations == 1:
                assert rate is None
            else:
                assert rate == before.theta <= dynamics.FIXED_POINT_RATE
            kinds.add(before.newton_iterations > 1)
        assert kinds == {False, True}

        # z' = -z at dt = 0.3 contracts at 0.15; from a state of size
        # 1e-14 every increment is at the floor, so each plain step is
        # accepted in its second round with a rate above FIXED_POINT_RATE,
        # and none is carried
        pairs = run(lambda v: -v, full_band(3),
                    1e-14 * np.array([1.0, -2.0, 0.5]), 0.3, 8)
        for before, rate in pairs[1:]:
            assert before.status == "fixed-point"
            assert before.newton_iterations == 2
            assert before.theta > dynamics.FIXED_POINT_RATE
            assert rate is None

    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_every_step_of_the_shock_setting_lies_within_tolerance(
            self, scheme):
        # the full shock-every-step setting: N = 64, dt = 2^-12, 1280
        # steps; each accepted step, plain in one round or more, lies within
        # tol (1 + max|z|) of its Newton-iterated fixed point, the check of
        # the property tests (worst seen: 0.10 tol in one round, 0.02 tol
        # in two).  Each Newton update from the accepted step gains a
        # factor of about 1e-3, so four reach the roundoff floor.
        rhs, band, z0 = cosine_case(scheme, BURGERS, 64)
        dt = 2.0 ** -12
        seen = []
        result = integrate(rhs, band, z0, dt, 1280,
                           observer=lambda k, t, z, rep: seen.append(
                               (z.copy(), rep.newton_iterations)))
        assert result.converged
        assert 1 in {rounds for _, rounds in seen}
        tol = NewtonConfig().tol
        z = z0
        for accepted, _ in seen:
            fixed = accepted.copy()
            _, M = fd_jacobian(rhs, band, 0.5 * (z + fixed), 0.5 * dt)
            solve = M.factorise()
            for _ in range(4):
                fixed -= solve(fixed - z - dt * rhs(0.5 * (z + fixed)))
            assert np.abs(accepted - fixed).max() <= tol * (
                1.0 + np.abs(z).max())
            z = accepted

    @pytest.mark.parametrize("scheme, log2_dt, n_steps, fallback", [
        ("collective", 8, 141, 62), ("conventional", 8, 141, 63),
        ("collective", 9, 282, None), ("conventional", 9, 282, None)])
    def test_a_rising_rate_falls_back_within_tolerance(
            self, scheme, log2_dt, n_steps, fallback):
        # the burgers-shock preset to t = 0.55: the rate rises as the front
        # steepens; at dt = 2^-8 it passes FIXED_POINT_RATE and the run
        # falls back for good, while at dt = 2^-9 it stays below and every
        # step after the first is plain, some of them in 8 rounds
        rhs, band, z0 = cosine_case(scheme, BURGERS, 64)
        dt = 2.0 ** -log2_dt
        seen = []
        result = integrate(rhs, band, z0, dt, n_steps,
                           observer=lambda k, t, z, rep: seen.append(
                               (z.copy(), rep)))
        assert result.converged
        statuses = [report.status for _, report in seen]
        assert statuses[0] != "fixed-point"
        # steps 2 to last_plain are plain, and none after
        last_plain = n_steps if fallback is None else fallback - 1
        assert statuses[1:last_plain] == ["fixed-point"] * (last_plain - 1)
        assert "fixed-point" not in statuses[last_plain:]
        tol = NewtonConfig().tol
        z = z0
        for z_next, _ in seen:
            z_ref, _ = midpoint_step_by_columns(rhs, z, dt)
            assert np.abs(z_next - z_ref).max() <= tol * (1.0 + np.abs(z).max())
            z = z_next

    @pytest.mark.parametrize("scheme, N, log2_dt, n_steps", [
        ("collective", 64, 14, 400), ("conventional", 64, 14, 400),
        ("collective", 64, 16, 400), ("conventional", 64, 16, 400),
        ("collective", 256, 14, 480), ("collective", 512, 14, 16)])
    def test_roundoff_sized_increments_keep_a_run_plain(
            self, scheme, N, log2_dt, n_steps):
        # at small dt the cubic start leaves the increments at the roundoff
        # floor, where the rate between two of them is noise and can pass
        # FIXED_POINT_RATE; without the floor rule the dt = 2^-16 runs fell
        # back at steps 391 and 213, and the lifted fine-grid references
        # of convergence studies at the default dt (N = 8 * 32 and 8 * 64
        # at dt / 4 = 2^-14) at steps 462 and 4
        rhs, band, z0 = cosine_case(scheme, BURGERS, N)
        dt = 2.0 ** -log2_dt
        seen = []
        result = integrate(rhs, band, z0, dt, n_steps,
                           observer=lambda k, t, z, rep: seen.append(
                               (z.copy(), rep)))
        assert result.converged
        assert [rep.status for _, rep in seen[1:]] == (
            ["fixed-point"] * (n_steps - 1))
        tol = NewtonConfig().tol
        z = z0
        for z_next, _ in seen:
            z_ref, _ = midpoint_step(rhs, band, z, dt)
            assert np.abs(z_next - z_ref).max() <= tol * (1.0 + np.abs(z).max())
            z = z_next

    @pytest.mark.parametrize("offset, accepted", [(1e-14, True),
                                                  (1e-11, False)])
    def test_a_rate_above_the_limit_is_accepted_only_at_the_floor(
            self, offset, accepted):
        # z' = -z at dt = 0.3 contracts at 0.15, above FIXED_POINT_RATE:
        # from 1e-14 off the solution every increment is within the floor,
        # FIXED_POINT_FLOOR * eps * (1 + max|z|) = 4.3e-14, and the second
        # round accepts; from 1e-11 off the rate declines the step
        z = np.array([1.0, -2.0, 0.5])
        exact = z * (1.0 - 0.15) / (1.0 + 0.15)
        taken = dynamics.fixed_point_step(lambda v: -v, z, 0.3,
                                          guess=exact + offset)
        if not accepted:
            assert taken is None
            return
        z1, report = taken
        assert report.status == "fixed-point"
        assert report.newton_iterations == 2
        assert report.theta > dynamics.FIXED_POINT_RATE
        assert np.abs(z1 - exact).max() <= 1e-13

    def test_a_contracting_linear_field_is_accepted(self):
        # z' = -z: the rate is exactly dt/2 per round
        z = np.array([1.0, -2.0, 0.5])
        exact = z * (1.0 - 0.05) / (1.0 + 0.05)
        z1, report = dynamics.fixed_point_step(lambda v: -v, z, 0.1,
                                               guess=exact + 1e-4)
        assert report.status == "fixed-point"
        assert report.theta == pytest.approx(0.05, rel=1e-3)
        assert report.newton_iterations == len(report.increments) >= 2
        assert np.abs(z1 - exact).max() <= 1e-12 * (1.0 + 2.0)

    def test_a_state_that_maps_to_itself_is_accepted_in_one_round(self):
        z = np.array([1.0, 2.0])
        z1, report = dynamics.fixed_point_step(np.zeros_like, z, 0.25, z)
        assert_bitwise(z1, z)
        assert (report.newton_iterations, report.theta) == (1, 0.0)

    @pytest.mark.parametrize("field, dt", [
        (lambda v: -v, 0.3),            # rate 0.15, above FIXED_POINT_RATE
        (lambda v: -v, 0.24),           # rate 0.12: 8 rounds are not enough
        (lambda v: v * np.nan, 0.1),    # a non-finite iterate
        (lambda v: v * np.inf, 0.1),
    ])
    def test_declines(self, field, dt):
        with np.errstate(invalid="ignore"):
            z = np.ones(4)
            assert dynamics.fixed_point_step(field, z, dt, z) is None


class TestTimeStepValidation:
    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0])
    def test_a_step_that_is_not_finite_and_nonzero_is_refused(self, dt):
        rhs, band, z0 = cosine_case("conventional", BURGERS, 8)
        with pytest.raises(ValueError, match="dt"):
            midpoint_step(rhs, band, z0, dt)
        with pytest.raises(ValueError, match="dt"):
            dynamics.fixed_point_step(rhs, z0, dt, z0)
        # checked before the loop, so also for a run of no steps
        for n_steps in (0, 4):
            with pytest.raises(ValueError, match="dt"):
                integrate(rhs, band, z0, dt, n_steps)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            NewtonConfig(tol=tol)


class TestIntegrate:
    def test_zero_steps_returns_initial_state(self):
        z0 = np.array([1.0, 2.0])
        result = integrate(lambda z: -z, full_band(2), z0, 0.1, 0)
        np.testing.assert_array_equal(result.z, z0)
        assert result.converged and result.steps_completed == 0

    def test_observer_sees_every_step_with_exact_times(self):
        seen = []
        integrate(lambda z: -z, full_band(1), np.array([1.0]), 0.125, 8,
                  observer=lambda k, t, z, rep: seen.append((k, t)))
        assert [k for k, _ in seen] == list(range(1, 9))
        assert all(t == k * 0.125 for k, t in seen)

    def test_failure_keeps_partial_results(self):
        calls = []
        rhs = lambda z: 1e6 * np.sin(1e6 * z) + z
        result = integrate(rhs, full_band(1), np.array([0.5]), 1.0, 10,
                           NewtonConfig(max_iter=4),
                           observer=lambda k, t, z, rep: calls.append(k))
        assert not result.converged
        assert result.failure is not None
        assert result.failure.step == result.steps_completed + 1
        assert len(calls) == result.steps_completed

    def test_first_step_starts_from_the_initial_state(self):
        g = PeriodicGrid(16, L)
        z0 = lift(g, 1.0 + 0.5 * np.cos(W * g.full_nodes))
        rhs, band = collective_flat_field(EXTENDED_BURGERS, g)
        result = integrate(rhs, band, z0, 2.0 ** -6, 1)
        z1, _ = midpoint_step(rhs, band, z0, 2.0 ** -6)
        np.testing.assert_array_equal(result.z, z1)

    @pytest.mark.parametrize("scheme", ["collective", "conventional"])
    def test_one_solve_per_step_after_the_first(self, scheme, monkeypatch):
        # the shock-every-step benchmark configuration, cut to 64 steps
        g = PeriodicGrid(64, L)
        u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        if scheme == "collective":
            rhs, band = collective_flat_field(BURGERS, g)
            z0 = lift(g, u0)
        else:
            rhs, band = conventional_flat_field(BURGERS, g)
            z0 = u0
        solve = np.linalg.solve
        solves = []

        def counted(*args):
            solves.append(None)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        per_step = []
        result = integrate(rhs, band, z0, 2.0 ** -12, 64,
                           observer=lambda k, t, z, rep: per_step.append(
                               len(solves)))
        assert result.converged
        assert max(np.diff(per_step)) <= 1

    def test_lifted_field_winds_once_around_the_grid(self):
        # the identity lift's winding constant is the circumference
        g = PeriodicGrid(16, L)
        rng = np.random.default_rng(3)
        z = lift(g, 1.0 + 0.5 * np.cos(W * g.full_nodes))
        z = z + 0.05 * rng.standard_normal(z.shape)
        rhs, _ = collective_flat_field(EXTENDED_BURGERS, g)
        gq, gp = grad_collective(EXTENDED_BURGERS, g.dx, g.L, z[:16], z[16:])
        assert np.array_equal(rhs(z), np.concatenate([gp, -gq]))

    def test_cross_method_agreement_before_breaking(self):
        g = PeriodicGrid(32, L)
        dt = 2.0 ** -10
        n = 103  # t ~ 0.1, well before the gradient catastrophe
        u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        conv = integrate(*conventional_flat_field(BURGERS, g), u0, dt,
                         n)
        coll = integrate(*collective_flat_field(BURGERS, g), lift(g, u0), dt,
                         n)
        u_coll = momentum_arrays(g.dx, g.L, coll.z[:32], coll.z[32:])[0]
        # compare on the half grid via the lift of the direct solution
        lifted = lift(g, conv.z)
        u_conv_half = momentum_arrays(g.dx, g.L, lifted[:32], lifted[32:])[0]
        rel = (np.linalg.norm(u_coll - u_conv_half)
               / np.linalg.norm(u_conv_half))
        assert rel < 0.01
