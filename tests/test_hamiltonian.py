import numpy as np
import pytest
from scipy.integrate import quad

from clebschflow.clebsch import ClebschState, lift
from clebschflow.grid import Field, PeriodicGrid
from clebschflow.hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    casimir,
    discrete_H_collective,
    discrete_H_conventional,
    grad_collective,
    grad_conventional,
)
from clebschflow.harness import fourier_modes

L = 8.0
W = 2 * np.pi / L


def cosine_profile(x):
    return 1.0 + 0.5 * np.cos(W * x)


def cosine_slope(x):
    return -0.5 * W * np.sin(W * x)


def random_state(g, rng):
    q = g.full_nodes + 0.15 * rng.standard_normal(g.N)
    p = 1.0 + 0.4 * rng.standard_normal(g.N)
    return ClebschState(Field.full(q), Field.full(p), g.L)


def H_coll(spec, g, state):
    return discrete_H_collective(spec, g.dx, state.C, state.q.values,
                                 state.p.values)


def grad_coll(spec, g, state):
    return grad_collective(spec, g.dx, state.C, state.q.values,
                           state.p.values)


def central_fd_gradient(fun, z, h=1e-6):
    grad = np.empty_like(z)
    for k in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        grad[k] = (fun(zp) - fun(zm)) / (2 * h)
    return grad


class TestCollectiveSum:
    def test_constant_quadratic_density(self):
        g = PeriodicGrid(12, L)
        c = 1.7
        state = lift(g, Field.full(np.full(12, c)))
        spec = HamiltonianSpec(1, 0, 0, 0)
        assert H_coll(spec, g, state) == pytest.approx(
            12 * c * c, rel=1e-14)

    def test_constant_has_no_slope_energy(self):
        g = PeriodicGrid(12, L)
        state = lift(g, Field.full(np.full(12, 2.0)))
        spec = HamiltonianSpec(0, 1, 0, 0)
        assert H_coll(spec, g, state) == pytest.approx(0, abs=1e-12)

    def test_scaled_sum_converges_to_density_integral(self):
        spec = HamiltonianSpec(1.0, 0.5, -0.25, 0.5)
        density = lambda x: (spec.C1 * cosine_profile(x) ** 2
                             + spec.C2 * cosine_slope(x) ** 2
                             + spec.C3 * cosine_profile(x) ** 3
                             + spec.C4 * cosine_slope(x) ** 3)
        exact, _ = quad(density, 0.0, L, limit=200)
        errs = []
        for N in (32, 64, 128):
            g = PeriodicGrid(N, L)
            state = lift(g, Field.full(cosine_profile(g.full_nodes)))
            errs.append(abs(g.dx * H_coll(spec, g, state) - exact))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_degree_two_in_p_for_quadratic_densities(self):
        rng = np.random.default_rng(1)
        g = PeriodicGrid(8, L)
        state = random_state(g, rng)
        spec = HamiltonianSpec(1.0, 0.5, 0.0, 0.0)
        doubled = ClebschState(state.q, 2.0 * state.p, state.C)
        assert H_coll(spec, g, doubled) == pytest.approx(
            4.0 * H_coll(spec, g, state), rel=1e-13)


class TestCollectiveGradient:
    def test_zero_spec_gives_zero_gradients(self):
        rng = np.random.default_rng(2)
        g = PeriodicGrid(8, L)
        gq, gp = grad_coll(HamiltonianSpec(0, 0, 0, 0), g, random_state(g, rng))
        np.testing.assert_array_equal(gq, np.zeros(8))
        np.testing.assert_array_equal(gp, np.zeros(8))

    def test_constant_state_hand_values(self):
        g = PeriodicGrid(10, L)
        c = 1.3
        state = lift(g, Field.full(np.full(10, c)))
        gq, gp = grad_coll(HamiltonianSpec(1, 0, 0, 0), g, state)
        np.testing.assert_allclose(gp, np.full(10, 2 * c), atol=1e-13)
        np.testing.assert_allclose(gq, np.zeros(10), atol=1e-13)

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_matches_central_finite_differences(self, N):
        rng = np.random.default_rng(N)
        g = PeriodicGrid(N, L)
        spec = HamiltonianSpec(1.0, 0.5, -0.25, 0.5)
        state = random_state(g, rng)

        def H(z):
            return discrete_H_collective(spec, g.dx, g.L, z[:N], z[N:])

        z = np.concatenate([state.q.values, state.p.values])
        fd = central_fd_gradient(H, z)
        analytic = np.concatenate(grad_coll(spec, g, state))
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - fd)) / scale < 1e-6


class TestConventionalSum:
    def test_constant_values(self):
        g = PeriodicGrid(16, L)
        c = 0.8
        u = np.full(16, c)
        assert discrete_H_conventional(HamiltonianSpec(1, 0, 0, 0), g.dx, u) == (
            pytest.approx(L * c * c, rel=1e-14))
        assert discrete_H_conventional(HamiltonianSpec(0, 1, 0, 0), g.dx, u) == (
            pytest.approx(0.0, abs=1e-13))

    def test_converges_to_analytic_integral(self):
        # integral of (1 + cos(w x)/2)^2 over one period of length 8 is 9;
        # the equispaced sum of a trigonometric polynomial is exact, so the
        # limit is reached at roundoff already on coarse grids
        spec = HamiltonianSpec(1, 0, 0, 0)
        for N in (16, 32, 64):
            g = PeriodicGrid(N, L)
            u = cosine_profile(g.full_nodes)
            assert abs(discrete_H_conventional(spec, g.dx, u) - 9.0) < 1e-12

    def test_degree_two_homogeneity(self):
        rng = np.random.default_rng(3)
        g = PeriodicGrid(8, L)
        u = rng.standard_normal(8)
        spec = HamiltonianSpec(1.0, 0.5, 0.0, 0.0)
        a = discrete_H_conventional(spec, g.dx, 3.0 * u)
        b = discrete_H_conventional(spec, g.dx, u)
        assert a == pytest.approx(9.0 * b, rel=1e-13)


class TestConventionalGradient:
    def test_zero_spec(self):
        g = PeriodicGrid(8, L)
        out = grad_conventional(HamiltonianSpec(0, 0, 0, 0), g.dx, np.ones(8))
        np.testing.assert_array_equal(out, np.zeros(8))

    def test_constant_quadratic(self):
        g = PeriodicGrid(8, L)
        c = 1.1
        out = grad_conventional(HamiltonianSpec(1, 0, 0, 0), g.dx,
                                np.full(8, c))
        np.testing.assert_allclose(out, np.full(8, 2 * c * g.dx),
                                   atol=1e-14)

    @pytest.mark.parametrize("N", [4, 8, 16])
    def test_matches_central_finite_differences(self, N):
        rng = np.random.default_rng(N + 100)
        g = PeriodicGrid(N, L)
        spec = HamiltonianSpec(1.0, 0.5, -0.25, 0.5)
        u = 1.0 + 0.4 * rng.standard_normal(N)

        def H(v):
            return discrete_H_conventional(spec, g.dx, v)

        fd = central_fd_gradient(H, u)
        analytic = grad_conventional(spec, g.dx, u)
        scale = max(1.0, np.max(np.abs(analytic)))
        assert np.max(np.abs(analytic - fd)) / scale < 1e-6


class TestPictureConsistency:
    def test_scaled_collective_approaches_conventional(self):
        spec = EXTENDED_BURGERS
        errs = []
        for N in (16, 32, 64):
            g = PeriodicGrid(N, L)
            u0 = Field.full(cosine_profile(g.full_nodes))
            coll = g.dx * H_coll(spec, g, lift(g, u0))
            conv = discrete_H_conventional(spec, g.dx, u0.values)
            errs.append(abs(coll - conv))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)


class TestCasimir:
    def test_constant_one_gives_circumference(self):
        g = PeriodicGrid(32, L)
        assert casimir(g.dx, np.ones(32)) == pytest.approx(8.0, rel=1e-14)

    def test_zero_field(self):
        g = PeriodicGrid(8, L)
        assert casimir(g.dx, np.zeros(8)) == 0.0

    def test_converges_to_quadrature(self):
        # smooth positive periodic integrand: the equispaced sum converges
        # spectrally, so moderate grids already agree with adaptive
        # quadrature far beyond second order
        exact, _ = quad(lambda x: np.sqrt(cosine_profile(x)), 0.0, L, limit=200)
        errs = []
        for N in (8, 16, 32):
            g = PeriodicGrid(N, L)
            errs.append(abs(casimir(g.dx, cosine_profile(g.full_nodes))
                            - exact))
        assert errs[0] < 1e-4
        assert errs[1] < 1e-9
        assert errs[2] < 1e-11

    def test_square_root_homogeneity(self):
        rng = np.random.default_rng(4)
        g = PeriodicGrid(8, L)
        u = rng.standard_normal(8)
        for c in (2.0, -3.0, 0.5):
            got = casimir(g.dx, (c * c) * u)
            assert got == pytest.approx(abs(c) * casimir(g.dx, u), rel=1e-13)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        g = PeriodicGrid(8, L)
        assert casimir(g.dx, rng.standard_normal(8)) >= 0.0


class TestColumnStacks:
    """A kernel given m states as the columns of an (N, m) array returns m
    values, each bitwise what the kernel gives for that state alone.  A
    plain sum over axis 0 would add the rows in another order."""

    @pytest.fixture(params=["C", "F"])
    def stack(self, request):
        """The columns as a C-ordered array or as the transpose of a
        row stack, the layout the harness observes in."""
        def build(columns):
            stacked = np.stack(columns).T
            if request.param == "C":
                return np.ascontiguousarray(stacked)
            return stacked
        return build

    @pytest.mark.parametrize("N", [3, 7, 8, 15, 64, 512])
    @pytest.mark.parametrize("spec", [BURGERS, EXTENDED_BURGERS],
                             ids=["burgers", "extended"])
    def test_batched_kernels_equal_their_per_column_calls(self, stack, N,
                                                          spec):
        g = PeriodicGrid(N, L)
        rng = np.random.default_rng(N)
        states = [random_state(g, rng) for _ in range(5)]
        qs = [s.q.values for s in states]
        ps = [s.p.values for s in states]
        us = [1.0 + 0.4 * rng.standard_normal(N) for _ in range(5)]
        Q, P, U = stack(qs), stack(ps), stack(us)
        cases = [
            (discrete_H_collective(spec, g.dx, g.L, Q, P),
             [discrete_H_collective(spec, g.dx, g.L, q, p)
              for q, p in zip(qs, ps)]),
            (discrete_H_conventional(spec, g.dx, U),
             [discrete_H_conventional(spec, g.dx, u) for u in us]),
            (casimir(g.dx, U), [casimir(g.dx, u) for u in us]),
            (fourier_modes(U).T, [fourier_modes(u) for u in us]),
        ]
        for batched, alone in cases:
            assert batched.shape[0] == 5
            for got, want in zip(batched, alone):
                assert np.array_equal(got, want)
        assert all(isinstance(v, float) for _, alone in cases[:3]
                   for v in alone)


class TestSpecValidation:
    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(np.nan, 0, 0, 0)
        with pytest.raises(ValueError):
            HamiltonianSpec(0, np.inf, 0, 0)

    def test_burgers_constants(self):
        assert BURGERS == HamiltonianSpec(1.0, 0.0, 0.0, 0.0)
        assert EXTENDED_BURGERS == HamiltonianSpec(0.5, 0.5, -0.25, 0.5)
