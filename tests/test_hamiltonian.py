import itertools

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from clebschflow import dynamics
from clebschflow.clebsch import lift
from clebschflow.grid import PeriodicGrid
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
from clebschflow.dynamics import collective_flat_field, conventional_flat_field
from clebschflow.harness import fourier_modes

L = 8.0
W = 2 * np.pi / L


def cosine_profile(x):
    return 1.0 + 0.5 * np.cos(W * x)


def cosine_slope(x):
    return -0.5 * W * np.sin(W * x)


def random_state(g, rng):
    """A packed lifted state z = (q, p) near the identity lift."""
    q = g.full_nodes + 0.15 * rng.standard_normal(g.N)
    p = 1.0 + 0.4 * rng.standard_normal(g.N)
    return np.concatenate([q, p])


def H_coll(spec, g, z):
    return discrete_H_collective(spec, g.dx, g.L, z[:g.N], z[g.N:])


def grad_coll(spec, g, z):
    return grad_collective(spec, g.dx, g.L, z[:g.N], z[g.N:])


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
        state = lift(g, np.full(12, c))
        spec = HamiltonianSpec(1, 0, 0, 0)
        assert H_coll(spec, g, state) == pytest.approx(
            12 * c * c, rel=1e-14)

    def test_constant_has_no_slope_energy(self):
        g = PeriodicGrid(12, L)
        state = lift(g, np.full(12, 2.0))
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
            state = lift(g, cosine_profile(g.full_nodes))
            errs.append(abs(g.dx * H_coll(spec, g, state) - exact))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_degree_two_in_p_for_quadratic_densities(self):
        rng = np.random.default_rng(1)
        g = PeriodicGrid(8, L)
        state = random_state(g, rng)
        spec = HamiltonianSpec(1.0, 0.5, 0.0, 0.0)
        doubled = np.concatenate([state[:8], 2.0 * state[8:]])
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
        state = lift(g, np.full(10, c))
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

        fd = central_fd_gradient(H, state)
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
            u0 = cosine_profile(g.full_nodes)
            coll = g.dx * H_coll(spec, g, lift(g, u0))
            conv = discrete_H_conventional(spec, g.dx, u0)
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
        qs = [z[:N] for z in states]
        ps = [z[N:] for z in states]
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


def signed_zero_states(g, rng, stacked):
    """Lifted states z and direct samples u holding +0.0 and -0.0: five
    pairs of shapes (2N,) and (N,), or the pair of their column stacks.
    In three, about half the rows of p and of u are zeros, and neighbouring
    zeros in p give zero momenta; in the last two, p and u are all -0.0 or
    all +0.0, so the even sums are signed zeros too."""
    z = np.stack([random_state(g, rng) for _ in range(5)], axis=1)
    u = 1.0 + 0.4 * rng.standard_normal((g.N, 5))
    for rows in (z[g.N:, :3], u[:, :3]):
        for row in rows:
            pick = rng.integers(4)
            if pick < 2:
                row[:] = (0.0, -0.0)[pick]
    for zero, col in ((-0.0, 3), (0.0, 4)):
        z[g.N:, col] = u[:, col] = zero
    if stacked:
        return [(z, u)]
    return [(z[:, k].copy(), u[:, k].copy()) for k in range(5)]


def kernel_values(spec, g, z, u, grad_c, grad_d, H_c, H_d):
    """The four kernels and both flat fields at (z, u), each as bytes with
    its type; the fields call the gradients that are live in dynamics."""
    N = g.N
    fields = (collective_flat_field(spec, g)[0](z),
              conventional_flat_field(spec, g)[0](u))
    values = (*grad_c(spec, g.dx, g.L, z[:N], z[N:]),
              grad_d(spec, g.dx, u),
              H_c(spec, g.dx, g.L, z[:N], z[N:]),
              H_d(spec, g.dx, u), *fields)
    return [(type(v), np.asarray(v).tobytes()) for v in values]


class TestOddPartSkip:
    """The kernels leave out the u_x part when C2 and C4 are zero; every
    result stays bitwise that of the all-terms forms."""

    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["single", "stack"])
    @pytest.mark.parametrize("N", [3, 8, 64])
    def test_kernels_equal_all_terms_forms_bitwise(self, monkeypatch, N,
                                                   stacked):
        g = PeriodicGrid(N, L)
        rng = np.random.default_rng(2 * N + stacked)
        states = signed_zero_states(g, rng, stacked)
        for coeffs, (z, u) in itertools.product(
                itertools.product((0.0, -0.0, 1.0, -0.7), repeat=4), states):
            spec = HamiltonianSpec(*coeffs)
            got = kernel_values(spec, g, z, u, grad_collective,
                                grad_conventional, discrete_H_collective,
                                discrete_H_conventional)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "grad_collective",
                          oracles.all_terms_grad_collective)
                m.setattr(dynamics, "grad_conventional",
                          oracles.all_terms_grad_conventional)
                want = kernel_values(
                    spec, g, z, u, oracles.all_terms_grad_collective,
                    oracles.all_terms_grad_conventional,
                    oracles.all_terms_H_collective,
                    oracles.all_terms_H_conventional)
            assert got == want, coeffs

    def test_burgers_never_evaluates_the_odd_part(self, monkeypatch):
        class OddCalled(Exception):
            pass

        def odd(self, w):
            raise OddCalled

        monkeypatch.setattr(HamiltonianSpec, "odd_derivative", odd)
        monkeypatch.setattr(HamiltonianSpec, "odd_density", odd)
        g = PeriodicGrid(8, L)
        rng = np.random.default_rng(0)
        for stacked in (False, True):
            z, u = signed_zero_states(g, rng, stacked)[0]
            args = (z, u, grad_collective, grad_conventional,
                    discrete_H_collective, discrete_H_conventional)
            kernel_values(BURGERS, g, *args)
            with pytest.raises(OddCalled):
                kernel_values(EXTENDED_BURGERS, g, *args)

    def test_odd_part_present_iff_a_slope_coefficient_is_not_plus_zero(self):
        assert not BURGERS.has_odd_part
        assert not HamiltonianSpec(1.0, 0.0, -0.7, 0.0).has_odd_part
        assert EXTENDED_BURGERS.has_odd_part
        assert HamiltonianSpec(0.0, 0.0, 0.0, 1.0).has_odd_part
        assert HamiltonianSpec(0.0, -0.0, 0.0, 0.0).has_odd_part


class TestSpecValidation:
    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            HamiltonianSpec(np.nan, 0, 0, 0)
        with pytest.raises(ValueError):
            HamiltonianSpec(0, np.inf, 0, 0)

    def test_burgers_constants(self):
        assert BURGERS == HamiltonianSpec(1.0, 0.0, 0.0, 0.0)
        assert EXTENDED_BURGERS == HamiltonianSpec(0.5, 0.5, -0.25, 0.5)
