import numpy as np
import pytest

from clebschflow.clebsch import ClebschState, lift, momentum_arrays, momentum_map
from clebschflow.grid import Field, PeriodicGrid, Staggering, StaggeringError, apply_S

from oracles import dense_momentum_map


class TestLift:
    def test_constant_momentum(self):
        g = PeriodicGrid(6, 3.0)
        state = lift(g, Field.full(np.ones(6)))
        np.testing.assert_allclose(momentum_map(g, state).values, np.ones(6),
                                   atol=1e-14)

    def test_momentum_is_average_of_samples(self):
        g = PeriodicGrid(16, 8.0)
        u0 = Field.full(1.0 + 0.5 * np.cos(2 * np.pi * g.full_nodes / g.L))
        state = lift(g, u0)
        np.testing.assert_array_equal(momentum_map(g, state).values,
                                      apply_S(g, u0).values)

    def test_winding_and_unit_derivative(self):
        g = PeriodicGrid(10, 4.0)
        rng = np.random.default_rng(0)
        state = lift(g, Field.full(rng.standard_normal(10)))
        assert state.C == g.L
        from clebschflow.grid import apply_D
        np.testing.assert_allclose(apply_D(g, state.q, state.C).values,
                                   np.ones(10), atol=1e-13)

    def test_lift_consistency_order(self):
        L = 8.0
        errs = []
        for N in (16, 32, 64):
            g = PeriodicGrid(N, L)
            u0 = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x / L)
            state = lift(g, Field.full(u0(g.full_nodes)))
            errs.append(np.max(np.abs(momentum_map(g, state).values
                                      - u0(g.half_nodes))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_rejects_half_staggered_input(self):
        g = PeriodicGrid(4, 1.0)
        with pytest.raises(StaggeringError):
            lift(g, Field.half(np.ones(4)))


class TestMomentumMap:
    def test_constant_p_with_identity_lift(self):
        g = PeriodicGrid(7, 2.0)
        state = ClebschState(Field.full(g.full_nodes),
                             Field.full(np.full(7, 1.5)), g.L)
        np.testing.assert_allclose(momentum_map(g, state).values,
                                   np.full(7, 1.5), atol=1e-14)

    def test_linearity_in_p(self):
        rng = np.random.default_rng(4)
        g = PeriodicGrid(8, 8.0)
        q = Field.full(g.full_nodes + 0.1 * rng.standard_normal(8))
        p = rng.standard_normal(8)
        one = momentum_map(g, ClebschState(q, Field.full(p), g.L)).values
        two = momentum_map(g, ClebschState(q, Field.full(2 * p), g.L)).values
        np.testing.assert_allclose(two, 2 * one, atol=1e-14)

    def test_linearity_in_q_and_winding(self):
        rng = np.random.default_rng(9)
        g = PeriodicGrid(8, 8.0)
        q = g.full_nodes + 0.1 * rng.standard_normal(8)
        p = Field.full(1.0 + 0.2 * rng.standard_normal(8))
        base = momentum_map(g, ClebschState(Field.full(q), p, g.L)).values
        scaled = momentum_map(
            g, ClebschState(Field.full(3.0 * q), p, 3.0 * g.L)).values
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-13)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(2)
        g = PeriodicGrid(8, 5.0)
        q = g.full_nodes + 0.2 * rng.standard_normal(8)
        p = rng.standard_normal(8)
        state = ClebschState(Field.full(q), Field.full(p), g.L)
        got = momentum_map(g, state).values
        want = dense_momentum_map(g, q, p, g.L)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert momentum_map(g, state).staggering is Staggering.HALF

    def test_raw_kernel_maps_a_batch_columnwise(self):
        rng = np.random.default_rng(5)
        g = PeriodicGrid(8, 5.0)
        q = g.full_nodes[:, None] + 0.1 * rng.standard_normal((8, 3))
        p = rng.standard_normal((8, 3))
        u, dq, sp = momentum_arrays(g.dx, g.L, q, p)
        assert np.array_equal(u, dq * sp)
        for k in range(3):
            state = ClebschState(Field.full(q[:, k]), Field.full(p[:, k]), g.L)
            assert np.array_equal(u[:, k], momentum_map(g, state).values)
