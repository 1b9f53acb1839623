import numpy as np
import pytest
import sympy as sp
from scipy.optimize import brentq

from clebschflow.dynamics import NonConvergenceError, conventional_flat_field
from clebschflow.grid import PeriodicGrid
from clebschflow.hamiltonian import BURGERS, EXTENDED_BURGERS
from clebschflow.harness import (
    TRAVELLING_WAVE_COSINES,
    TRAVELLING_WAVE_PARAMS,
    TRAVELLING_WAVE_SINES,
    preset_config,
    resolve_initial_condition,
)
from clebschflow.reference import burgers_breaking, burgers_characteristics

from oracles import (
    SingularReductionError,
    check_travelling_wave_reduction,
    find_periodic_travelling_wave,
    pde_rhs_jet,
    solve_travelling_wave,
    travelling_wave_ode,
)

L = 8.0
W = 2 * np.pi / L


def cosine_profile(y):
    return 1.0 + 0.5 * np.cos(W * np.asarray(y))


#: bounds that never bracket a point: the characteristics solve as plain
#: Newton from the u0(x) seed
UNBOUNDED = (-np.inf, np.inf)

T_STAR, BOUNDS = burgers_breaking(cosine_profile, L)


def counted(profile):
    """The profile and the list of the sizes of the arrays it was called
    on, in call order."""
    sizes = []

    def counting(y):
        sizes.append(np.size(y))
        return profile(y)

    return counting, sizes


class TestCharacteristics:
    def test_time_zero_returns_profile(self):
        x = np.linspace(0, L, 9)
        np.testing.assert_array_equal(
            burgers_characteristics(cosine_profile, x, 0.0, bounds=UNBOUNDED),
            cosine_profile(x))

    def test_constants_are_exact_solutions(self):
        const = lambda y: np.full_like(np.asarray(y, dtype=float), 1.4)
        for t in (0.1, 1.0, 10.0):
            u = burgers_characteristics(const, 2.0, t, bounds=UNBOUNDED)
            assert u == pytest.approx(1.4, abs=1e-12)

    def test_implicit_relation_satisfied(self):
        x = np.linspace(0, L, 33)
        t = 0.25
        u = burgers_characteristics(cosine_profile, x, t, bounds=BOUNDS)
        residual = np.max(np.abs(u - cosine_profile(x + 6 * t * u)))
        assert residual < 1e-12

    def test_shock_time_of_cosine_profile(self):
        # max slope of 1 + cos(2 pi x / 8)/2 is pi/8, so breaking happens
        # near 1/(6 pi/8) ~ 0.4244
        assert T_STAR == pytest.approx(8 / (6 * np.pi), rel=1e-4)

    def test_a_round_evaluates_the_profile_on_unconverged_points_only(self):
        # a point's own call evaluates u0 once for its seed, then once for
        # the residual and once for the slope in every round but its last,
        # which only finds the residual converged: 2 k calls in k rounds
        x = np.linspace(0.0, L, 16, endpoint=False)
        times = np.array([0.05, 0.0, 0.2, 0.35, 0.41])
        rounds = []
        for t in times:
            for node in x:
                profile, sizes = counted(cosine_profile)
                burgers_characteristics(profile, node, t, bounds=UNBOUNDED)
                rounds.append(len(sizes) // 2)
        assert rounds.count(0) == x.size  # the t = 0 points
        assert len(set(rounds)) > 3
        profile, sizes = counted(cosine_profile)
        burgers_characteristics(profile, x, times, bounds=UNBOUNDED)
        # after the seed, round r evaluates the residual at the points that
        # take r rounds or more and the slope at those that take more
        want = [x.size]
        for r in range(1, max(rounds) + 1):
            want.append(sum(k >= r for k in rounds))
            if r < max(rounds):
                want.append(sum(k > r for k in rounds))
        assert sizes == want

    def test_solves_the_advection_form(self):
        # u_t + (-6u) u_x = 0, differentiated numerically
        x, t, h = 3.1, 0.2, 1e-5
        def u(x, t):
            return burgers_characteristics(cosine_profile, x, t,
                                           bounds=BOUNDS)

        ut = (u(x, t + h) - u(x, t - h)) / (2 * h)
        ux = (u(x + h, t) - u(x - h, t)) / (2 * h)
        assert abs(ut - 6 * u(x, t) * ux) < 1e-6


class TestBracketedCharacteristics:
    """Near breaking, Newton from the u0(x) seed can run away; with the
    profile's bounds each point that would leave them is bracketed."""

    # a burgers-shock observation: the half node x = 4.3125 at step 1684
    X, T = 4.3125, 1684 * 2.0 ** -12

    def test_bounds_hold_the_profile(self):
        lo, hi = BOUNDS
        assert lo == pytest.approx(-0.5) and hi == pytest.approx(2.5)
        y = np.linspace(-L, 2 * L, 10001)
        assert lo < cosine_profile(y).min() and cosine_profile(y).max() < hi

    def test_the_runaway_point_is_the_brentq_root(self):
        assert 0.96 < self.T / T_STAR < 0.97
        with pytest.raises(NonConvergenceError):
            burgers_characteristics(cosine_profile, self.X, self.T,
                                    bounds=UNBOUNDED)
        u = burgers_characteristics(cosine_profile, self.X, self.T,
                                    bounds=BOUNDS)

        def g(v):
            return v - cosine_profile(self.X + 6.0 * self.T * v)

        # g is increasing before breaking and its root lies in the range
        root = brentq(g, 0.5, 1.5, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        assert abs(g(u)) < 1e-12
        assert u == pytest.approx(root, abs=1e-10)

    def test_the_preset_records_the_point(self):
        ic = resolve_initial_condition(preset_config("burgers-shock"))
        row = ic.reference([self.T], np.array([self.X]))[0]
        assert row is not None
        assert row[0] == pytest.approx(burgers_characteristics(
            ic.profile, self.X, self.T,
            bounds=burgers_breaking(ic.profile, L)[1]), abs=1e-12)

    def test_points_that_stay_inside_keep_their_path(self):
        # up to 3/4 of the breaking time no iterate leaves the bounds: the
        # same values from the same profile calls
        x = np.linspace(0.0, L, 64, endpoint=False) + L / 128
        times = np.linspace(0.01, 0.75, 40) * T_STAR
        plain, plain_sizes = counted(cosine_profile)
        guarded, guarded_sizes = counted(cosine_profile)
        expected = burgers_characteristics(plain, x, times, bounds=UNBOUNDED)
        got = burgers_characteristics(guarded, x, times, bounds=BOUNDS)
        assert got.tobytes() == expected.tobytes()
        assert guarded_sizes == plain_sizes

    def test_each_point_is_its_own_call_near_breaking(self):
        x = np.linspace(0.0, L, 32, endpoint=False) + L / 64
        times = np.linspace(0.95, 0.98, 7) * T_STAR
        block = burgers_characteristics(cosine_profile, x, times,
                                        bounds=BOUNDS)
        bracketed = 0
        for k, t in enumerate(times):
            for i, node in enumerate(x):
                one = burgers_characteristics(cosine_profile, node, t,
                                              bounds=BOUNDS)
                assert np.float64(one).tobytes() == block[k, i].tobytes()
                try:
                    bracketed += burgers_characteristics(
                        cosine_profile, node, t, bounds=UNBOUNDED) != one
                except NonConvergenceError:
                    bracketed += 1
        assert bracketed > 0
        residual = block - cosine_profile(x + 6.0 * times[:, None] * block)
        assert np.abs(residual).max() < 1e-12


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


class TestFrozenTravellingWave:
    def test_profile_closes_over_one_period(self):
        sol = solve_travelling_wave(EXTENDED_BURGERS, L,
                                    *TRAVELLING_WAVE_PARAMS)
        assert sol.status == 0
        assert np.max(np.abs(sol.y[:, -1] - sol.y[:, 0])) < 1e-10

    def test_sampled_profile_satisfies_semi_discrete_flow(self):
        # wave profiles fed to the spatial scheme reproduce -c f' at
        # second order in dx
        f0, f2, c = TRAVELLING_WAVE_PARAMS
        sol = solve_travelling_wave(EXTENDED_BURGERS, L, f0, f2, c)
        errs = []
        for N in (16, 32, 64, 128):
            g = PeriodicGrid(N, L)
            jets = sol.sol(g.full_nodes).T
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

    def test_stored_fourier_series_regenerates_from_the_wave_frame(self):
        # the stored coefficients are the 256-point FFT of the wave-frame
        # solution, and their series is the profile at any x
        sol = solve_travelling_wave(EXTENDED_BURGERS, L,
                                    *TRAVELLING_WAVE_PARAMS,
                                    rtol=1e-13, atol=1e-14)
        n = 256
        modes = np.fft.rfft(sol.sol(np.arange(n) * L / n)[0]) / n
        K = len(TRAVELLING_WAVE_COSINES)
        cosines = np.concatenate([[modes[0].real], 2.0 * modes[1:K].real])
        sines = -2.0 * modes[1:K].imag
        np.testing.assert_allclose(TRAVELLING_WAVE_COSINES, cosines,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(TRAVELLING_WAVE_SINES, sines,
                                   rtol=0, atol=1e-12)

        profile = resolve_initial_condition(
            preset_config("travelling-wave")).profile
        x = np.random.default_rng(3).uniform(-3 * L, 4 * L, 500)
        assert np.any(x < 0) and np.any(x > L)
        np.testing.assert_allclose(profile(x), sol.sol(np.mod(x, L))[0],
                                   rtol=0, atol=1e-12)

    def test_series_satisfies_the_wave_frame_reduction(self):
        # the series, differentiated term by term, is a wave of the flow on
        # its own: its f''' is the reduction's f''' of its (f, f', f'')
        x = np.random.default_rng(4).uniform(-2 * L, 3 * L, 400)
        f, f1, f2, f3 = (series_derivative(x, n) for n in range(4))
        rhs = travelling_wave_ode(EXTENDED_BURGERS, TRAVELLING_WAVE_PARAMS[2])
        reduced = np.array([rhs(0.0, jet)[2] for jet in zip(f, f1, f2)])
        assert np.max(np.abs(reduced - f3)) < 1e-9

    def test_series_starts_from_the_crest_jet(self):
        f0, f2, _ = TRAVELLING_WAVE_PARAMS
        crest = np.zeros(1)
        assert series_derivative(crest, 0)[0] == pytest.approx(f0, abs=1e-11)
        assert series_derivative(crest, 1)[0] == pytest.approx(0.0, abs=1e-11)
        assert series_derivative(crest, 2)[0] == pytest.approx(f2, abs=1e-11)

    def test_profile_is_uneven_about_its_crest(self):
        # the C4 u_x^3 term breaks the reflection s -> -s, so a cosine
        # series alone cannot hold the wave
        s = np.linspace(0.0, L, 401)
        sol = solve_travelling_wave(EXTENDED_BURGERS, L,
                                    *TRAVELLING_WAVE_PARAMS)
        assert np.max(np.abs(sol.sol(s)[0] - sol.sol(L - s)[0])) > 1e-2
        assert np.max(np.abs(TRAVELLING_WAVE_SINES)) > 1e-2

    def test_modes_past_the_stored_series_are_at_the_noise_floor(self):
        sol = solve_travelling_wave(EXTENDED_BURGERS, L,
                                    *TRAVELLING_WAVE_PARAMS,
                                    rtol=1e-13, atol=1e-14)
        n = 256
        modes = np.fft.rfft(sol.sol(np.arange(n) * L / n)[0]) / n
        assert np.max(np.abs(modes[len(TRAVELLING_WAVE_COSINES):])) < 1e-13

    def test_shooting_gives_up_on_a_singular_start(self):
        # f(0) = 0 zeroes the leading coefficient at the first evaluation
        _, f2, c = TRAVELLING_WAVE_PARAMS
        assert find_periodic_travelling_wave(EXTENDED_BURGERS, L,
                                             0.0, f2, c) is None


def series_derivative(x, n):
    """n-th x-derivative of the stored travelling-wave series at x."""
    k = W * np.arange(len(TRAVELLING_WAVE_COSINES))
    phase = np.multiply.outer(x, k) + n * np.pi / 2
    sines = np.concatenate([[0.0], TRAVELLING_WAVE_SINES])
    return (np.cos(phase) * k**n) @ np.array(TRAVELLING_WAVE_COSINES) \
        + (np.sin(phase) * k**n) @ sines
