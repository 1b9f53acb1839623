"""Acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a one-line verdict.  The heavy shock-experiment run is shared
between criteria 3 and 8 through a module-scoped fixture.
"""

import numpy as np
import pytest

from clebschflow.clebsch import lift
from clebschflow.dynamics import (
    NewtonConfig,
    collective_flat_field,
    conventional_flat_field,
    integrate,
    midpoint_step,
)
from clebschflow.grid import PeriodicGrid
from clebschflow.hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    discrete_H_collective,
    discrete_H_conventional,
    grad_collective,
    grad_conventional,
)
from clebschflow.harness import (
    COLLECTIVE,
    CONVENTIONAL,
    TRAVELLING_WAVE_PARAMS,
    ExperimentConfig,
    convergence_study,
    records_to_csv,
    run_experiment,
)

from oracles import (
    Field,
    apply_D,
    apply_S,
    apply_St,
    apply_T,
    apply_Tt,
    check_travelling_wave_reduction,
    solve_travelling_wave,
)

L = 8.0
W = 2 * np.pi / L
GRID_SIZES = (8, 16, 32, 64)


def announce(number, label):
    print(f"\nACCEPTANCE {number} [{label}]: PASS")


@pytest.fixture(scope="module")
def burgers_shock_result():
    config = ExperimentConfig(method="both", spec=BURGERS, N=64, L=L,
                              dt=2.0 ** -12, t_end=1.37,
                              initial_condition="cosine-bump",
                              observe_every=4)
    return config, run_experiment(config)


class TestCriterion1OperatorAndGradientOracles:
    def test_operator_and_gradient_suite(self):
        rng = np.random.default_rng(2024)

        # exact adjointness of the unscaled stencils
        for N in GRID_SIZES:
            g = PeriodicGrid(N, L)
            for _ in range(5):
                f = rng.standard_normal(N)
                h = rng.standard_normal(N)
                lhs = np.dot(g.dx * apply_T(g, Field.full(f)).values, h)
                rhs = np.dot(f, apply_Tt(g, Field.half(h)).values)
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))
                lhs = np.dot(apply_S(g, Field.full(f)).values, h)
                rhs = np.dot(f, apply_St(g, Field.half(h)).values)
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs), abs(rhs))

        # order-two consistency of the staggered derivative, the average
        # and the winding-corrected derivative under grid doubling
        errs_T, errs_S, errs_D = [], [], []
        for N in GRID_SIZES:
            g = PeriodicGrid(N, L)
            f = Field.full(np.sin(W * g.full_nodes))
            errs_T.append(np.max(np.abs(apply_T(g, f).values
                                        - W * np.cos(W * g.half_nodes))))
            errs_S.append(np.max(np.abs(apply_S(g, f).values
                                        - np.sin(W * g.half_nodes))))
            q = Field.full(g.full_nodes + 0.1 * np.sin(W * g.full_nodes))
            errs_D.append(np.max(np.abs(apply_D(g, q, L).values - 1.0
                                        - 0.1 * W * np.cos(W * g.half_nodes))))
        for errs in (errs_T, errs_S, errs_D):
            orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
            assert np.all(orders >= 1.7) and np.all(orders <= 2.3)

        # exact gradients against central finite differences
        spec = HamiltonianSpec(1.0, 0.5, -0.25, 0.5)
        step = 1e-6
        checked_coll = checked_conv = 0
        for N in (4, 8, 16):
            g = PeriodicGrid(N, L)
            for _ in range(7):
                q = g.full_nodes + 0.15 * rng.standard_normal(N)
                p = 1.0 + 0.4 * rng.standard_normal(N)

                def H_coll(z):
                    return discrete_H_collective(spec, g.dx, g.L, z[:N], z[N:])

                z = np.concatenate([q, p])
                fd = np.array([
                    (H_coll(z + step * e) - H_coll(z - step * e)) / (2 * step)
                    for e in np.eye(2 * N)])
                analytic = np.concatenate(
                    grad_collective(spec, g.dx, g.L, q, p))
                scale = max(1.0, np.max(np.abs(analytic)))
                assert np.max(np.abs(analytic - fd)) / scale < 1e-6
                checked_coll += 1

                u = 1.0 + 0.4 * rng.standard_normal(N)

                def H_conv(v):
                    return discrete_H_conventional(spec, g.dx, v)

                fd = np.array([
                    (H_conv(u + step * e) - H_conv(u - step * e)) / (2 * step)
                    for e in np.eye(N)])
                analytic = grad_conventional(spec, g.dx, u)
                scale = max(1.0, np.max(np.abs(analytic)))
                assert np.max(np.abs(analytic - fd)) / scale < 1e-6
                checked_conv += 1
        assert checked_coll >= 20 and checked_conv >= 20
        announce(1, "operator and gradient oracle suite")


class TestCriterion2QuadraticInvariantExactness:
    def test_conventional_method_preserves_quadratic_energy(self):
        g = PeriodicGrid(64, L)
        spec = HamiltonianSpec(1.0, 0.5, 0.0, 0.0)
        u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        H0 = discrete_H_conventional(spec, g.dx, u0)
        rhs, band = conventional_flat_field(spec, g)
        worst = [0.0]

        def watch(step, t, z, report):
            H = discrete_H_conventional(spec, g.dx, z)
            worst[0] = max(worst[0], abs((H0 - H) / H0))

        result = integrate(rhs, band, u0, 2.0 ** -10, 10_000, observer=watch)
        assert result.converged
        assert worst[0] < 1e-10
        announce(2, f"quadratic invariant, max relative drift {worst[0]:.2e}")


class TestCriterion3BurgersShockExperiment:
    def test_pre_shock_accuracy_and_post_shock_robustness(self,
                                                          burgers_shock_result):
        config, result = burgers_shock_result
        # both schemes stayed Newton-convergent through the steepening
        for run in result.runs:
            assert run.converged, f"{run.method} diverged at {run.failed_step}"
            assert run.records[-1].t >= 1.37

        # agreement with the characteristics oracle at t ~ 0.3
        for method in (COLLECTIVE, CONVENTIONAL):
            records = result.run_for(method).records
            probe = [r for r in records if r.t <= 0.3 + 1e-9][-1]
            assert probe.t > 0.29
            assert probe.solution_rel_err is not None
            assert probe.solution_rel_err < 5e-3

        # the quadratic density makes the direct-picture energy a conserved
        # quadratic form: machine-level drift through the whole run
        conv_drift = max(abs(r.H_rel_err)
                         for r in result.run_for(CONVENTIONAL).records)
        assert conv_drift < 1e-11
        announce(3, "inviscid shock experiment")


class TestCriterion4OrderTwoConvergence:
    def test_grid_refinement_orders_and_energy(self):
        # dx = L / 2^k; the two coarsest spacings (k = 1, 2) are excluded:
        # two points make the centered skew form vanish identically and
        # four are outside the asymptotic range, so k = 3..6 is used
        base = ExperimentConfig(method="both", spec=BURGERS, N=8, L=L,
                                dt=2.0 ** -14, t_end=512 * 2.0 ** -14,
                                initial_condition="cosine-bump",
                                observe_every=512)
        table = convergence_study(base, list(GRID_SIZES))
        by_method = {}
        for row in table:
            by_method.setdefault(row.method, []).append(row)
        assert set(by_method) == {COLLECTIVE, CONVENTIONAL}
        for method, rows in by_method.items():
            orders = [r.observed_order for r in rows if r.observed_order
                      is not None]
            assert len(orders) == len(GRID_SIZES) - 1
            assert all(1.7 <= o <= 2.3 for o in orders), (method, orders)
        for row in by_method[COLLECTIVE]:
            assert row.H_err < 1e-10
        announce(4, "order-two convergence with machine-level lifted energy")


class TestCriterion5PeriodicBumpLongRun:
    def test_bounded_errors_over_long_horizon(self):
        config = ExperimentConfig(method="collective", spec=EXTENDED_BURGERS,
                                  N=32, L=L, dt=2.0 ** -8, t_end=1000.0,
                                  initial_condition="periodic-bump",
                                  observe_every=64)
        result = run_experiment(config)
        run = result.runs[0]
        assert run.converged
        records = run.records
        t_cut = 0.1 * config.t_end
        early = [r for r in records if r.t <= t_cut]
        assert len(early) > 10

        def bounded(getter, label):
            early_max = max(abs(getter(r)) for r in early)
            late_max = max(abs(getter(r)) for r in records)
            assert late_max < 10.0 * early_max, (
                f"{label}: {late_max:.3e} vs early {early_max:.3e}")
            return late_max

        h_max = bounded(lambda r: r.H_rel_err, "energy error")
        c_max = bounded(lambda r: r.casimir_rel_err, "casimir error")
        # the lifted field's half-grid average kills the Nyquist mode at
        # t = 0 exactly, so the early-window maximum is the usable anchor
        bounded(lambda r: r.nyquist_amp, "nyquist amplitude")
        announce(5, f"bump run to t=1000, |dH|<{h_max:.1e}, |dC|<{c_max:.1e}")

    def test_energy_error_is_second_order_in_dt(self):
        # a symplectic midpoint rule conserves a modified energy to O(dt^2)
        # over long times, so the energy error falls as dt^2
        errors = []
        for k in range(3, 7):
            config = ExperimentConfig(
                method="collective", spec=EXTENDED_BURGERS, N=16, L=L,
                dt=2.0 ** -k, t_end=50.0, initial_condition="periodic-bump",
                observe_every=1)
            run = run_experiment(config).runs[0]
            assert run.converged
            errors.append(max(abs(r.H_rel_err) for r in run.records))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse >= 2.5 * fine
        scaled = [err / 2.0 ** (-2 * k) for k, err in zip(range(3, 7), errors)]
        assert max(scaled) <= 2.0 * min(scaled)


class TestCriterion6Symplecticity:
    def test_one_step_jacobian_preserves_the_scaled_form(self):
        N = 4
        g = PeriodicGrid(N, L)
        spec = EXTENDED_BURGERS
        rng = np.random.default_rng(7)
        u0 = (1.0 + 0.4 * np.cos(W * g.full_nodes)
              + 0.05 * rng.standard_normal(N))
        z0 = lift(g, u0)
        rhs, band = collective_flat_field(spec, g)
        cfg = NewtonConfig(tol=1e-14, max_iter=100)
        dt = 0.05
        h = 1e-6
        d = 2 * N
        M = np.empty((d, d))
        for k in range(d):
            zp, zm = z0.copy(), z0.copy()
            zp[k] += h
            zm[k] -= h
            M[:, k] = (midpoint_step(rhs, band, zp, dt, cfg)[0]
                       - midpoint_step(rhs, band, zm, dt, cfg)[0]) / (2 * h)
        J_omega = g.dx * np.block([
            [np.zeros((N, N)), np.eye(N)],
            [-np.eye(N), np.zeros((N, N))]])
        defect = np.max(np.abs(M.T @ J_omega @ M - J_omega))
        assert defect < 1e-6
        announce(6, f"symplecticity defect {defect:.2e}")


class TestCriterion7TravellingWaveSelfTest:
    def test_reduction_residual_on_integrated_profiles(self):
        f0, f2, c = TRAVELLING_WAVE_PARAMS
        sol = solve_travelling_wave(EXTENDED_BURGERS, L, f0, f2, c)
        jets = sol.sol(np.linspace(0.0, L, 257)).T
        worst = check_travelling_wave_reduction(EXTENDED_BURGERS, c, jets)
        assert worst < 1e-8
        announce(7, f"wave-frame reduction residual {worst:.2e}")


class TestCriterion8Determinism:
    def test_shock_run_is_bit_reproducible(self, burgers_shock_result):
        config, first = burgers_shock_result
        again = run_experiment(config)
        csv_a = records_to_csv(first)
        csv_b = records_to_csv(again)
        assert csv_a == csv_b
        announce(8, "bit-identical diagnostics across repeated runs")
