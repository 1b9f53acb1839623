"""The test-only oracles, and the kernels checked against them."""

import numpy as np
import pytest

from clebschflow.clebsch import lift
from clebschflow.grid import PeriodicGrid
from clebschflow.hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    discrete_H_collective,
)

from oracles import (
    Field,
    JetTable,
    Staggering,
    StaggeringError,
    dense_jet_maps,
    dense_momentum_map,
    dense_T,
    jet,
    jet_adjoint_accumulate,
    jet_H_collective,
)


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


class TestJet:
    def test_constant_state_has_vanishing_derivatives(self):
        g = PeriodicGrid(8, 4.0)
        state = lift(g, np.full(8, 2.5))
        table = jet(g, state, 4)
        np.testing.assert_allclose(table.rows[0].values, np.full(8, 2.5),
                                   atol=1e-14)
        for row in table.rows[1:]:
            np.testing.assert_allclose(row.values, np.zeros(8), atol=1e-12)

    def test_staggering_alternates(self):
        g = PeriodicGrid(8, 4.0)
        table = jet(g, lift(g, np.ones(8)), 3)
        kinds = [row.staggering for row in table.rows]
        assert kinds == [Staggering.HALF, Staggering.FULL,
                         Staggering.HALF, Staggering.FULL]
        assert table.depth == 3

    def test_first_two_rows_against_analytic_oracle(self):
        L = 8.0
        w = 2 * np.pi / L
        errs1, errs2 = [], []
        for N in (16, 32, 64):
            g = PeriodicGrid(N, L)
            state = lift(g, np.sin(w * g.full_nodes))
            table = jet(g, state, 2)
            errs1.append(np.max(np.abs(table.rows[1].values
                                       - w * np.cos(w * g.full_nodes))))
            errs2.append(np.max(np.abs(table.rows[2].values
                                       + w * w * np.sin(w * g.half_nodes))))
        for errs in (errs1, errs2):
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders > 1.7) and np.all(orders < 2.3)

    def test_rows_are_linear_in_p(self):
        rng = np.random.default_rng(21)
        g = PeriodicGrid(8, 5.0)
        q = g.full_nodes + 0.1 * rng.standard_normal(8)
        p = rng.standard_normal(8)
        one = jet(g, np.concatenate([q, p]), 3)
        two = jet(g, np.concatenate([q, 2.0 * p]), 3)
        for a, b in zip(one.rows, two.rows):
            np.testing.assert_allclose(b.values, 2.0 * a.values,
                                       rtol=0, atol=1e-13)

    def test_rows_match_dense_composition(self):
        rng = np.random.default_rng(6)
        g = PeriodicGrid(8, 3.0)
        q = g.full_nodes + 0.1 * rng.standard_normal(8)
        p = 1.0 + 0.3 * rng.standard_normal(8)
        table = jet(g, np.concatenate([q, p]), 3)
        u0 = dense_momentum_map(g, q, p, g.L)
        for k, A in enumerate(dense_jet_maps(g, 3)):
            np.testing.assert_allclose(table.rows[k].values, A @ u0,
                                       rtol=0, atol=1e-12)

    def test_negative_depth_rejected(self):
        g = PeriodicGrid(4, 1.0)
        with pytest.raises(ValueError):
            jet(g, lift(g, np.ones(4)), -1)

    def test_jet_table_validates_staggering_pattern(self):
        with pytest.raises(StaggeringError):
            JetTable((Field.full(np.ones(4)),))
        with pytest.raises(StaggeringError):
            JetTable((Field.half(np.ones(4)), Field.half(np.ones(4))))


class TestJetAdjoint:
    def test_row0_only_is_identity(self):
        g = PeriodicGrid(5, 2.0)
        grad = Field.half(np.array([1.0, -2.0, 0.5, 0.0, 3.0]))
        out = jet_adjoint_accumulate(g, JetTable((grad,)))
        np.testing.assert_array_equal(out.values, grad.values)

    def test_row1_only_matches_single_step_adjoint(self):
        rng = np.random.default_rng(7)
        g = PeriodicGrid(6, 3.0)
        g1 = rng.standard_normal(6)
        table = JetTable((Field.half(np.zeros(6)), Field.full(g1)))
        out = jet_adjoint_accumulate(g, table)
        want = -(dense_T(6) @ g1) / g.dx
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_directional_derivative_identity(self, K):
        rng = np.random.default_rng(K)
        g = PeriodicGrid(8, 5.0)
        rows = []
        for k in range(K + 1):
            kind = Staggering.HALF if k % 2 == 0 else Staggering.FULL
            rows.append(Field(rng.standard_normal(8), kind))
        out = jet_adjoint_accumulate(g, JetTable(tuple(rows)))
        maps = dense_jet_maps(g, K)
        for _ in range(5):
            du0 = rng.standard_normal(8)
            lhs = np.dot(out.values, du0)
            rhs = sum(np.dot(rows[k].values, maps[k] @ du0)
                      for k in range(K + 1))
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_adjoint_matches_dense_composition(self):
        rng = np.random.default_rng(13)
        g = PeriodicGrid(8, 5.0)
        K = 3
        rows = []
        for k in range(K + 1):
            kind = Staggering.HALF if k % 2 == 0 else Staggering.FULL
            rows.append(Field(rng.standard_normal(8), kind))
        out = jet_adjoint_accumulate(g, JetTable(tuple(rows)))
        want = sum(dense_jet_maps(g, K)[k].T @ rows[k].values
                   for k in range(K + 1))
        np.testing.assert_allclose(out.values, want, rtol=0, atol=1e-13)


class TestCollectiveSumAgainstJet:
    @pytest.mark.parametrize("N", [3, 4, 5, 8, 17, 64, 512])
    @pytest.mark.parametrize("spec", [BURGERS, EXTENDED_BURGERS],
                             ids=["burgers", "extended"])
    def test_raw_sum_is_bitwise_the_jet_table_sum(self, spec, N):
        rng = np.random.default_rng(N)
        g = PeriodicGrid(N, 8.0)
        for _ in range(10):
            q = g.full_nodes + 0.15 * rng.standard_normal(N)
            p = 1.0 + 0.4 * rng.standard_normal(N)
            assert (discrete_H_collective(spec, g.dx, g.L, q, p)
                    == jet_H_collective(spec, g, np.concatenate([q, p])))
