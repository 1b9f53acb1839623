import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp

from clebschflow.dynamics import NonConvergenceError, conventional_flat_field
from clebschflow.grid import Field, PeriodicGrid, Staggering
from clebschflow.hamiltonian import BURGERS, EXTENDED_BURGERS, HamiltonianSpec
from clebschflow.harness import TRAVELLING_WAVE_PARAMS
from clebschflow.reference import (
    AdaptiveSolution,
    MaxStepsExceededError,
    SingularReductionError,
    StepSizeUnderflowError,
    TravellingWaveState,
    burgers_characteristics,
    burgers_shock_time,
    check_travelling_wave_reduction,
    fine_grid_reference,
    integrate_ode_adaptive,
    pde_rhs_jet,
    travelling_wave_ode,
    travelling_wave_rhs,
)

from oracles import find_periodic_travelling_wave

L = 8.0
W = 2 * np.pi / L


def cosine_profile(y):
    return 1.0 + 0.5 * np.cos(W * np.asarray(y))


class TestCharacteristics:
    def test_time_zero_returns_profile(self):
        x = np.linspace(0, L, 9)
        np.testing.assert_array_equal(
            burgers_characteristics(cosine_profile, x, 0.0), cosine_profile(x))

    def test_constants_are_exact_solutions(self):
        const = lambda y: np.full_like(np.asarray(y, dtype=float), 1.4)
        for t in (0.1, 1.0, 10.0):
            assert burgers_characteristics(const, 2.0, t) == pytest.approx(1.4, abs=1e-12)

    def test_implicit_relation_satisfied(self):
        x = np.linspace(0, L, 33)
        t = 0.25
        u = burgers_characteristics(cosine_profile, x, t)
        residual = np.max(np.abs(u - cosine_profile(x + 6 * t * u)))
        assert residual < 1e-12

    def test_shock_time_of_cosine_profile(self):
        # max slope of 1 + cos(2 pi x / 8)/2 is pi/8, so breaking happens
        # near 1/(6 pi/8) ~ 0.4244
        t_star = burgers_shock_time(cosine_profile, L)
        assert t_star == pytest.approx(8 / (6 * np.pi), rel=1e-4)

    def test_fails_at_or_past_breaking(self):
        t_star = burgers_shock_time(cosine_profile, L)
        for t in (t_star, 1.05 * t_star, 2.0 * t_star):
            with pytest.raises(NonConvergenceError):
                burgers_characteristics(cosine_profile, np.linspace(0, L, 65),
                                        t, domain_length=L)

    def test_solves_the_advection_form(self):
        # u_t + (-6u) u_x = 0, differentiated numerically
        x, t, h = 3.1, 0.2, 1e-5
        u = burgers_characteristics(cosine_profile, x, t)
        ut = (burgers_characteristics(cosine_profile, x, t + h)
              - burgers_characteristics(cosine_profile, x, t - h)) / (2 * h)
        ux = (burgers_characteristics(cosine_profile, x + h, t)
              - burgers_characteristics(cosine_profile, x - h, t)) / (2 * h)
        assert abs(ut - 6 * u * ux) < 1e-6

    def test_analytic_slope_callback(self):
        slope = lambda y: -0.5 * W * np.sin(W * np.asarray(y))
        x = np.linspace(0, L, 17)
        a = burgers_characteristics(cosine_profile, x, 0.3)
        b = burgers_characteristics(cosine_profile, x, 0.3, u0_prime=slope)
        np.testing.assert_allclose(a, b, atol=1e-11)


class TestWaveFrameReduction:
    def test_nonzero_constant_is_a_regular_fixed_point(self):
        y = TravellingWaveState(1.2, 0.0, 0.0, c=-0.5)
        assert travelling_wave_rhs(EXTENDED_BURGERS, y) == (0.0, 0.0, 0.0)

    def test_vanishing_leading_coefficient_is_singular(self):
        with pytest.raises(SingularReductionError):
            travelling_wave_rhs(EXTENDED_BURGERS,
                                TravellingWaveState(0.0, 0.0, 0.3, c=-0.5))
        with pytest.raises(SingularReductionError):
            # f' = -C2/(3 C4) = -1/3 kills the leading coefficient
            travelling_wave_rhs(EXTENDED_BURGERS,
                                TravellingWaveState(1.0, -1.0 / 3.0, 0.3, c=-0.5))

    def test_derived_third_derivative_satisfies_the_flow(self):
        rng = np.random.default_rng(0)
        samples = np.column_stack([
            1.0 + 0.3 * rng.standard_normal(100),
            0.2 * rng.standard_normal(100),
            0.4 * rng.standard_normal(100),
        ])
        worst = check_travelling_wave_reduction(EXTENDED_BURGERS, -0.48, samples)
        assert worst < 1e-12

    def test_matches_independent_symbolic_derivation(self):
        # re-derive f''' with a computer algebra system straight from the
        # density, with no shared algebra with the implementation
        C1s, C2s, C3s, C4s = sp.Rational(1, 2), sp.Rational(1, 2), \
            sp.Rational(-1, 4), sp.Rational(1, 2)
        f, f1, f2, f3, c = sp.symbols("f f1 f2 f3 c")
        m = 2 * C1s * f + 3 * C3s * f**2 - 2 * C2s * f2 - 6 * C4s * f1 * f2
        # chain rule along the wave frame: s-derivative of m(f, f', f'')
        mx = (sp.diff(m, f) * f1 + sp.diff(m, f1) * f2 + sp.diff(m, f2) * f3)
        u_t = f1 * m + 2 * f * mx
        f3_sym = sp.solve(sp.Eq(-c * f1, u_t), f3)[0]
        f3_fn = sp.lambdify((f, f1, f2, c), f3_sym, "numpy")

        rng = np.random.default_rng(1)
        spec = EXTENDED_BURGERS
        for _ in range(100):
            y = TravellingWaveState(1.0 + 0.4 * rng.standard_normal(),
                                    0.25 * rng.standard_normal(),
                                    0.5 * rng.standard_normal(),
                                    c=float(rng.standard_normal()))
            _, _, got = travelling_wave_rhs(spec, y)
            want = float(f3_fn(y.f, y.f1, y.f2, y.c))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_jet_rhs_reduces_to_quadratic_flow(self):
        rng = np.random.default_rng(2)
        u, ux = rng.standard_normal(5), rng.standard_normal(5)
        np.testing.assert_allclose(pde_rhs_jet(BURGERS, u, ux, 0.0, 0.0),
                                   6.0 * u * ux, atol=1e-14)


class TestAdaptiveIntegrator:
    def test_polynomial_exactness_and_dense_output(self):
        rhs = lambda s, y: np.array([y[1], y[2], 0.0])
        sol = integrate_ode_adaptive(rhs, [1.0, 2.0, -1.0], (0.0, 4.0),
                                     rel_tol=1e-8, abs_tol=1e-10)
        s = np.linspace(0.0, 4.0, 21)
        exact = 1.0 + 2.0 * s - 0.5 * s**2
        np.testing.assert_allclose(sol(s)[:, 0], exact, rtol=0, atol=1e-10)

    def test_exponential_global_error(self):
        for rtol in (1e-6, 1e-8, 1e-10):
            sol = integrate_ode_adaptive(lambda s, y: y, [1.0], (0.0, 1.0),
                                         rel_tol=rtol, abs_tol=1e-14)
            err = abs(sol.y[-1, 0] - np.e)
            assert err < 10 * rtol * np.e

    def test_tolerance_proportionality(self):
        errors = []
        for rtol in (1e-5, 1e-7, 1e-9):
            sol = integrate_ode_adaptive(lambda s, y: y, [1.0], (0.0, 1.0),
                                         rel_tol=rtol, abs_tol=1e-15)
            errors.append(abs(sol.y[-1, 0] - np.e))
        assert errors[0] > errors[1] > errors[2]
        total_drop = errors[0] / errors[2]
        assert 1e2 < total_drop < 1e6  # roughly proportional over 4 decades

    def test_step_log_contract(self):
        # accepted steps keep the scaled error estimate at or below one,
        # rejected attempts do not advance the abscissa
        rhs = lambda s, y: np.array([np.cos(8 * s) * y[0]])
        sol = integrate_ode_adaptive(rhs, [1.0], (0.0, 6.0),
                                     rel_tol=1e-9, abs_tol=1e-12)
        assert sol.n_accepted > 0
        accepted_s = [entry[0] for entry in sol.step_log if entry[3]]
        assert np.all(np.diff(accepted_s) > 0)
        for s, h, err, accepted in sol.step_log:
            if accepted:
                assert err <= 1.0
        rejected = [entry for entry in sol.step_log if not entry[3]]
        for s, h, err, accepted in rejected:
            assert any(a == s for a in accepted_s + [sol.s[-1]])

    def test_dense_output_hits_nodes(self):
        rhs = lambda s, y: np.array([-y[0]])
        sol = integrate_ode_adaptive(rhs, [1.0], (0.0, 2.0),
                                     rel_tol=1e-9, abs_tol=1e-12)
        for s_node, y_node in zip(sol.s, sol.y):
            assert sol(s_node)[0] == pytest.approx(y_node[0], abs=1e-12)
        with pytest.raises(ValueError):
            sol(2.5)

    def test_max_steps_exceeded(self):
        with pytest.raises(MaxStepsExceededError):
            integrate_ode_adaptive(lambda s, y: y, [1.0], (0.0, 50.0),
                                   rel_tol=1e-12, abs_tol=1e-14, max_steps=10)

    def test_underflow_near_blowup(self):
        rhs = lambda s, y: np.array([y[0] ** 2])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((StepSizeUnderflowError, MaxStepsExceededError)):
                integrate_ode_adaptive(rhs, [1.0], (0.0, 2.0),
                                       rel_tol=1e-10, abs_tol=1e-12)

    def test_degenerate_span(self):
        sol = integrate_ode_adaptive(lambda s, y: y, [2.0], (1.0, 1.0))
        assert sol(1.0)[0] == 2.0

    def test_agrees_with_scipy_on_wave_frame_ode(self):
        f0, f2, c = TRAVELLING_WAVE_PARAMS
        rhs = travelling_wave_ode(EXTENDED_BURGERS, c)
        mine = integrate_ode_adaptive(rhs, [f0, 0.0, f2], (0.0, L),
                                      rel_tol=1e-11, abs_tol=1e-12)
        scipy_sol = solve_ivp(rhs, (0.0, L), [f0, 0.0, f2], method="RK45",
                              rtol=1e-11, atol=1e-12, dense_output=True)
        s = np.linspace(0, L, 41)
        np.testing.assert_allclose(mine(s), scipy_sol.sol(s).T,
                                   rtol=0, atol=5e-9)


class TestFrozenTravellingWave:
    def test_profile_closes_over_one_period(self):
        f0, f2, c = TRAVELLING_WAVE_PARAMS
        rhs = travelling_wave_ode(EXTENDED_BURGERS, c)
        sol = integrate_ode_adaptive(rhs, [f0, 0.0, f2], (0.0, L),
                                     rel_tol=1e-12, abs_tol=1e-13)
        assert np.max(np.abs(sol.y[-1] - sol.y[0])) < 1e-10

    def test_sampled_profile_satisfies_semi_discrete_flow(self):
        # wave profiles fed to the spatial scheme reproduce -c f' at
        # second order in dx
        f0, f2, c = TRAVELLING_WAVE_PARAMS
        rhs = travelling_wave_ode(EXTENDED_BURGERS, c)
        sol = integrate_ode_adaptive(rhs, [f0, 0.0, f2], (0.0, L),
                                     rel_tol=1e-12, abs_tol=1e-13)
        errs = []
        for N in (16, 32, 64, 128):
            g = PeriodicGrid(N, L)
            jets = sol(np.mod(g.full_nodes, L))
            ut = conventional_flat_field(EXTENDED_BURGERS, g)(jets[:, 0])
            errs.append(np.max(np.abs(ut - (-c) * jets[:, 1])))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.5) and np.all(orders < 2.5)
        assert orders[-1] == pytest.approx(2.0, abs=0.3)

    def test_shooting_confirms_frozen_parameters(self):
        f0, f2, c = TRAVELLING_WAVE_PARAMS
        found = find_periodic_travelling_wave(EXTENDED_BURGERS, L, f0, f2, c,
                                              mismatch_tol=1e-8)
        assert found is not None
        assert found[0] == pytest.approx(f0, abs=1e-6)
        assert found[1] == pytest.approx(f2, abs=1e-6)
        assert found[2] == pytest.approx(c, abs=1e-6)


class TestFineGridReference:
    def test_constant_profile_is_exact(self):
        g = PeriodicGrid(8, L)
        out = fine_grid_reference(BURGERS, g, lambda x: np.full_like(x, 1.5),
                                  dt=2.0 ** -6, t_end=0.125)
        assert set(out) == {Staggering.HALF, Staggering.FULL}
        for staggering, field in out.items():
            np.testing.assert_allclose(field.values, np.full(8, 1.5),
                                       atol=1e-10)
            assert field.staggering is staggering

    def test_matches_characteristics_before_breaking(self):
        # the reference carries the fine scheme's own O(dx_fine^2) error
        g = PeriodicGrid(16, L)
        t_end = 0.0625
        dt = 2.0 ** -8
        refs = fine_grid_reference(BURGERS, g, cosine_profile, dt, t_end)
        for staggering in (Staggering.HALF, Staggering.FULL):
            exact = burgers_characteristics(cosine_profile,
                                            g.nodes(staggering), t_end)
            assert np.max(np.abs(refs[staggering].values - exact)) < 1e-3

    def test_refinement_self_consistency(self):
        # switching 8x -> 16x refinement must move the reference far less
        # than the coarse-grid error it is used to measure
        from clebschflow.clebsch import lift, momentum_map
        from clebschflow.dynamics import (collective_flat_field, integrate,
                                          pack_state, unpack_state)
        g = PeriodicGrid(16, L)
        t_end = 0.0625
        dt = 2.0 ** -8
        ref8 = fine_grid_reference(BURGERS, g, cosine_profile, dt, t_end,
                                   refine=8)[Staggering.HALF]
        ref16 = fine_grid_reference(BURGERS, g, cosine_profile, dt, t_end,
                                    refine=16)[Staggering.HALF]
        state = lift(g, Field.full(cosine_profile(g.full_nodes)))
        run = integrate(collective_flat_field(BURGERS, g, state.C),
                        pack_state(state), dt, round(t_end / dt))
        u_coarse = momentum_map(g, unpack_state(run.z, state.C)).values
        coarse_err = np.max(np.abs(u_coarse - ref16.values))
        assert np.max(np.abs(ref8.values - ref16.values)) < 0.2 * coarse_err

    def test_odd_refinement_rejected(self):
        g = PeriodicGrid(8, L)
        with pytest.raises(ValueError):
            fine_grid_reference(BURGERS, g, cosine_profile, 2.0 ** -6, 0.1,
                                refine=3)
