import numpy as np
import pytest

from clebschflow.clebsch import lift, momentum_arrays
from clebschflow.grid import PeriodicGrid

from oracles import Field, apply_D, apply_S, dense_momentum_map


def recover(g, z):
    """Momentum map of a packed lifted state of winding constant g.L."""
    return momentum_arrays(g.dx, g.L, z[:g.N], z[g.N:])[0]


class TestLift:
    def test_constant_momentum(self):
        g = PeriodicGrid(6, 3.0)
        z = lift(g, np.ones(6))
        np.testing.assert_allclose(recover(g, z), np.ones(6), atol=1e-14)

    def test_momentum_is_average_of_samples(self):
        g = PeriodicGrid(16, 8.0)
        u0 = 1.0 + 0.5 * np.cos(2 * np.pi * g.full_nodes / g.L)
        z = lift(g, u0)
        np.testing.assert_array_equal(recover(g, z),
                                      apply_S(g, Field.full(u0)).values)

    def test_winding_and_unit_derivative(self):
        g = PeriodicGrid(10, 4.0)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(10)
        z = lift(g, u0)
        assert z.shape == (20,)
        assert np.array_equal(z[:10], g.full_nodes)
        assert np.array_equal(z[10:], u0)
        np.testing.assert_allclose(apply_D(g, Field.full(z[:10]), g.L).values,
                                   np.ones(10), atol=1e-13)

    def test_lift_consistency_order(self):
        L = 8.0
        errs = []
        for N in (16, 32, 64):
            g = PeriodicGrid(N, L)
            u0 = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x / L)
            z = lift(g, u0(g.full_nodes))
            errs.append(np.max(np.abs(recover(g, z) - u0(g.half_nodes))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)

    @pytest.mark.parametrize("shape", [(5,), (4, 2), ()])
    def test_rejects_samples_of_another_shape(self, shape):
        g = PeriodicGrid(4, 1.0)
        with pytest.raises(ValueError, match="4 full-grid samples"):
            lift(g, np.ones(shape))


class TestMomentumMap:
    def test_constant_p_with_identity_lift(self):
        g = PeriodicGrid(7, 2.0)
        z = np.concatenate([g.full_nodes, np.full(7, 1.5)])
        np.testing.assert_allclose(recover(g, z), np.full(7, 1.5), atol=1e-14)

    def test_linearity_in_p(self):
        rng = np.random.default_rng(4)
        g = PeriodicGrid(8, 8.0)
        q = g.full_nodes + 0.1 * rng.standard_normal(8)
        p = rng.standard_normal(8)
        one = momentum_arrays(g.dx, g.L, q, p)[0]
        two = momentum_arrays(g.dx, g.L, q, 2 * p)[0]
        np.testing.assert_allclose(two, 2 * one, atol=1e-14)

    def test_linearity_in_q_and_winding(self):
        rng = np.random.default_rng(9)
        g = PeriodicGrid(8, 8.0)
        q = g.full_nodes + 0.1 * rng.standard_normal(8)
        p = 1.0 + 0.2 * rng.standard_normal(8)
        base = momentum_arrays(g.dx, g.L, q, p)[0]
        scaled = momentum_arrays(g.dx, 3.0 * g.L, 3.0 * q, p)[0]
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-13)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(2)
        g = PeriodicGrid(8, 5.0)
        q = g.full_nodes + 0.2 * rng.standard_normal(8)
        p = rng.standard_normal(8)
        got = momentum_arrays(g.dx, g.L, q, p)[0]
        want = dense_momentum_map(g, q, p, g.L)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_raw_kernel_maps_a_batch_columnwise(self):
        rng = np.random.default_rng(5)
        g = PeriodicGrid(8, 5.0)
        q = g.full_nodes[:, None] + 0.1 * rng.standard_normal((8, 3))
        p = rng.standard_normal((8, 3))
        u, dq, sp = momentum_arrays(g.dx, g.L, q, p)
        assert np.array_equal(u, dq * sp)
        for k in range(3):
            alone = momentum_arrays(g.dx, g.L, q[:, k].copy(), p[:, k].copy())
            for batched, column in zip((u, dq, sp), alone):
                assert np.array_equal(batched[:, k], column)
