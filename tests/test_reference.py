import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp

from clebschflow.dynamics import conventional_flat_field
from clebschflow.grid import PeriodicGrid
from clebschflow.hamiltonian import BURGERS, EXTENDED_BURGERS, HamiltonianSpec
from clebschflow.harness import TRAVELLING_WAVE_PARAMS
from clebschflow.reference import (
    AdaptiveSolution,
    MaxStepsExceededError,
    SingularReductionError,
    StepSizeUnderflowError,
    burgers_characteristics,
    burgers_shock_time,
    integrate_ode_adaptive,
    travelling_wave_ode,
)

from oracles import (
    check_travelling_wave_reduction,
    find_periodic_travelling_wave,
    pde_rhs_jet,
)

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

    def test_solves_the_advection_form(self):
        # u_t + (-6u) u_x = 0, differentiated numerically
        x, t, h = 3.1, 0.2, 1e-5
        u = burgers_characteristics(cosine_profile, x, t)
        ut = (burgers_characteristics(cosine_profile, x, t + h)
              - burgers_characteristics(cosine_profile, x, t - h)) / (2 * h)
        ux = (burgers_characteristics(cosine_profile, x + h, t)
              - burgers_characteristics(cosine_profile, x - h, t)) / (2 * h)
        assert abs(ut - 6 * u * ux) < 1e-6


class TestWaveFrameReduction:
    def test_nonzero_constant_is_a_regular_fixed_point(self):
        rhs = travelling_wave_ode(EXTENDED_BURGERS, -0.5)
        assert tuple(rhs(0.0, (1.2, 0.0, 0.0))) == (0.0, 0.0, 0.0)

    def test_vanishing_leading_coefficient_is_singular(self):
        rhs = travelling_wave_ode(EXTENDED_BURGERS, -0.5)
        with pytest.raises(SingularReductionError):
            rhs(0.0, (0.0, 0.0, 0.3))
        with pytest.raises(SingularReductionError):
            # f' = -C2/(3 C4) = -1/3 kills the leading coefficient
            rhs(0.0, (1.0, -1.0 / 3.0, 0.3))

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
            y = (1.0 + 0.4 * rng.standard_normal(),
                 0.25 * rng.standard_normal(),
                 0.5 * rng.standard_normal())
            c = float(rng.standard_normal())
            _, _, got = travelling_wave_ode(spec, c)(0.0, y)
            want = float(f3_fn(*y, c))
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
            ut = conventional_flat_field(EXTENDED_BURGERS, g)[0](jets[:, 0])
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
