import numpy as np
import pytest

from clebschflow.dynamics import apply_K
from clebschflow.grid import (
    Field,
    PeriodicGrid,
    Staggering,
    StaggeringError,
    apply_D,
    apply_S,
    apply_St,
    apply_T,
    apply_Tt,
    s_avg,
    st_avg,
    t_diff,
    tt_diff,
)

from oracles import dense_S, dense_T


class TestGridGeometry:
    def test_spacing_closes_the_circle(self):
        for N, L in [(3, 1.0), (7, 8.0), (64, 8.0), (10, 0.3)]:
            g = PeriodicGrid(N, L)
            assert g.dx * g.N == pytest.approx(L, rel=1e-15)
            assert len(g.full_nodes) == N
            assert len(g.half_nodes) == N
            np.testing.assert_allclose(g.half_nodes, g.full_nodes - g.dx / 2,
                                       rtol=0, atol=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PeriodicGrid(1, 1.0)
        with pytest.raises(ValueError):
            PeriodicGrid(8, 0.0)


class TestFieldAlgebra:
    def test_binary_ops_demand_matching_staggering(self):
        a = Field.full([1.0, 2.0, 3.0])
        b = Field.half([1.0, 1.0, 1.0])
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(StaggeringError):
                op()

    def test_scalar_ops_keep_staggering(self):
        a = Field.half([1.0, 2.0])
        assert (2.0 * a).staggering is Staggering.HALF
        np.testing.assert_array_equal((a + 1.0).values, [2.0, 3.0])
        np.testing.assert_array_equal((-a).values, [-1.0, -2.0])


class TestStencils:
    def test_difference_of_constant_vanishes(self):
        g = PeriodicGrid(5, 2.0)
        out = apply_T(g, Field.full(np.full(5, 3.7)))
        np.testing.assert_array_equal(out.values, np.zeros(5))
        assert out.staggering is Staggering.HALF

    def test_difference_known_values(self):
        g = PeriodicGrid(4, 4.0)
        out = apply_T(g, Field.full([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out.values, [-3.0, 1.0, 1.0, 1.0])

    def test_average_of_constant_is_constant(self):
        g = PeriodicGrid(6, 3.0)
        out = apply_S(g, Field.full(np.full(6, -1.25)))
        np.testing.assert_allclose(out.values, np.full(6, -1.25))

    def test_average_known_values(self):
        g = PeriodicGrid(4, 4.0)
        out = apply_S(g, Field.full([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(out.values, [2.5, 1.5, 2.5, 3.5])

    def test_winding_corrected_derivative_of_identity_is_one(self):
        g = PeriodicGrid(9, 5.0)
        q = Field.full(g.full_nodes)
        out = apply_D(g, q, g.L)
        np.testing.assert_allclose(out.values, np.ones(9), rtol=0, atol=1e-14)

    def test_zero_winding_matches_plain_difference(self):
        rng = np.random.default_rng(3)
        g = PeriodicGrid(8, 2.0)
        f = Field.full(rng.standard_normal(8))
        np.testing.assert_array_equal(apply_D(g, f, 0.0).values,
                                      apply_T(g, f).values)

    def test_transpose_difference_of_constant_vanishes(self):
        g = PeriodicGrid(5, 1.0)
        out = apply_Tt(g, Field.half(np.full(5, 2.0)))
        np.testing.assert_array_equal(out.values, np.zeros(5))
        assert out.staggering is Staggering.FULL

    def test_transpose_average_preserves_constants(self):
        g = PeriodicGrid(5, 1.0)
        out = apply_St(g, Field.half(np.full(5, 2.0)))
        np.testing.assert_allclose(out.values, np.full(5, 2.0))

    @pytest.mark.parametrize("op", [apply_T, apply_S, apply_D])
    def test_full_grid_ops_reject_half_input(self, op):
        g = PeriodicGrid(4, 1.0)
        f = Field.half(np.ones(4))
        with pytest.raises(StaggeringError):
            op(g, f, g.L) if op is apply_D else op(g, f)

    @pytest.mark.parametrize("op", [apply_Tt, apply_St])
    def test_half_grid_ops_reject_full_input(self, op):
        g = PeriodicGrid(4, 1.0)
        with pytest.raises(StaggeringError):
            op(g, Field.full(np.ones(4)))


# np.roll forms of the slice-based stencils: the oracle for bitwise equality.
ROLLED = {
    t_diff: lambda v: v - np.roll(v, 1, axis=0),
    tt_diff: lambda v: v - np.roll(v, -1, axis=0),
    s_avg: lambda v: 0.5 * (v + np.roll(v, 1, axis=0)),
    st_avg: lambda v: 0.5 * (v + np.roll(v, -1, axis=0)),
}


def rolled_k_product(u, g, dx):
    u_next, u_prev = np.roll(u, -1, axis=0), np.roll(u, 1, axis=0)
    g_next, g_prev = np.roll(g, -1, axis=0), np.roll(g, 1, axis=0)
    return ((u + u_next) * g_next - (u_prev + u) * g_prev) / (2.0 * dx)


class TestSliceStencilsMatchRolledForms:
    @pytest.mark.parametrize("N", [2, 3, 32])
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_stencils_bitwise(self, N, shape):
        rng = np.random.default_rng(N)
        v = rng.standard_normal((N,) + shape)
        before = v.copy()
        for stencil, rolled in ROLLED.items():
            out = stencil(v)
            assert out.shape == v.shape
            assert np.array_equal(out, rolled(v)), stencil.__name__
        assert np.array_equal(v, before)

    @pytest.mark.parametrize("N", [2, 3, 32])
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_k_product_bitwise(self, N, shape):
        rng = np.random.default_rng(100 + N)
        u = 1.0 + rng.standard_normal((N,) + shape)
        g = rng.standard_normal((N,) + shape)
        dx = 8.0 / N
        assert np.array_equal(apply_K(u, g, dx), rolled_k_product(u, g, dx))


class TestOperatorProperties:
    @pytest.mark.parametrize("N", [3, 4, 8])
    def test_exact_adjointness(self, N):
        rng = np.random.default_rng(N)
        g = PeriodicGrid(N, 2.5)
        for _ in range(10):
            f = rng.standard_normal(N)
            h = rng.standard_normal(N)
            lhs = np.dot(g.dx * apply_T(g, Field.full(f)).values, h)
            rhs = np.dot(f, apply_Tt(g, Field.half(h)).values)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))
            lhs = np.dot(apply_S(g, Field.full(f)).values, h)
            rhs = np.dot(f, apply_St(g, Field.half(h)).values)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        g = PeriodicGrid(8, 3.0)
        f1, f2 = rng.standard_normal(8), rng.standard_normal(8)
        a, b = 1.7, -0.4
        combo = Field.full(a * f1 + b * f2)
        for op in (apply_T, apply_S):
            direct = op(g, combo).values
            split = a * op(g, Field.full(f1)).values + b * op(g, Field.full(f2)).values
            np.testing.assert_allclose(direct, split, rtol=0, atol=1e-14)
        for op in (apply_Tt, apply_St):
            direct = op(g, Field.half(a * f1 + b * f2)).values
            split = a * op(g, Field.half(f1)).values + b * op(g, Field.half(f2)).values
            np.testing.assert_allclose(direct, split, rtol=0, atol=1e-14)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        g = PeriodicGrid(12, 4.0)
        f = rng.standard_normal(12)
        for op in (apply_T, apply_S):
            shifted_in = op(g, Field.full(np.roll(f, 1))).values
            shifted_out = np.roll(op(g, Field.full(f)).values, 1)
            np.testing.assert_array_equal(shifted_in, shifted_out)

    @pytest.mark.parametrize("k", [1, 2])
    def test_second_order_consistency(self, k):
        L = 8.0
        errs_T, errs_S = [], []
        for N in (16, 32, 64, 128):
            g = PeriodicGrid(N, L)
            w = 2 * np.pi * k / L
            f = Field.full(np.sin(w * g.full_nodes))
            d_exact = w * np.cos(w * g.half_nodes)
            errs_T.append(np.max(np.abs(apply_T(g, f).values - d_exact)))
            s_exact = np.sin(w * g.half_nodes)
            errs_S.append(np.max(np.abs(apply_S(g, f).values - s_exact)))
        for errs in (errs_T, errs_S):
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_winding_derivative_analytic_oracle(self):
        L = 8.0
        errs = []
        for N in (16, 32, 64):
            g = PeriodicGrid(N, L)
            w = 2 * np.pi / L
            q = Field.full(g.full_nodes + 0.1 * np.sin(w * g.full_nodes))
            exact = 1.0 + 0.1 * w * np.cos(w * g.half_nodes)
            errs.append(np.max(np.abs(apply_D(g, q, L).values - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.7) and np.all(orders < 2.3)


class TestDenseMaterialisation:
    def test_operators_agree_with_dense_action(self):
        rng = np.random.default_rng(8)
        g = PeriodicGrid(8, 2.0)
        f = rng.standard_normal(8)
        np.testing.assert_allclose(apply_T(g, Field.full(f)).values,
                                   dense_T(8) @ f / g.dx, atol=1e-14)
        np.testing.assert_allclose(apply_S(g, Field.full(f)).values,
                                   dense_S(8) @ f, atol=1e-14)
        np.testing.assert_allclose(apply_Tt(g, Field.half(f)).values,
                                   dense_T(8).T @ f, atol=1e-14)
        np.testing.assert_allclose(apply_St(g, Field.half(f)).values,
                                   dense_S(8).T @ f, atol=1e-14)
