import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from clebschflow.dynamics import NewtonConfig
from clebschflow.grid import Field, PeriodicGrid, StaggeringError
from clebschflow.hamiltonian import BURGERS, EXTENDED_BURGERS, HamiltonianSpec
from clebschflow import harness
from clebschflow import reference as ref_mod
from clebschflow.harness import (
    COLLECTIVE,
    CONVENTIONAL,
    MAX_STEPS,
    ConfigError,
    ExperimentConfig,
    PRESETS,
    TRAVELLING_WAVE_PARAMS,
    config_from_dict,
    config_to_dict,
    convergence_study,
    emit_gnuplot_script,
    finals_to_csv,
    fourier_modes,
    preset_config,
    records_to_csv,
    resolve_initial_condition,
    run_experiment,
    solution_error,
)

L = 8.0
W = 2 * np.pi / L


def quick_config(**overrides):
    base = ExperimentConfig(method="both", spec=BURGERS, N=16, L=L,
                            dt=2.0 ** -8, t_end=0.125,
                            initial_condition="cosine-bump", observe_every=8)
    return replace(base, **overrides)


class TestFourierModes:
    def test_constant_is_pure_dc(self):
        amps = fourier_modes(Field.full(np.full(8, 2.5)))
        assert amps[0] == pytest.approx(2.5, abs=1e-14)
        np.testing.assert_allclose(amps[1:], np.zeros(4), atol=1e-14)

    def test_single_cosine_mode(self):
        g = PeriodicGrid(16, L)
        amps = fourier_modes(Field.full(np.cos(W * g.full_nodes)))
        assert amps[1] == pytest.approx(0.5, abs=1e-13)
        mask = np.ones(9, dtype=bool)
        mask[1] = False
        np.testing.assert_allclose(amps[mask], np.zeros(8), atol=1e-13)

    def test_alternating_samples_sit_at_nyquist(self):
        u = Field.full(np.array([1.0, -1.0] * 4))
        amps = fourier_modes(u)
        assert amps[-1] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(amps[:-1], np.zeros(4), atol=1e-14)

    def test_odd_sample_count_has_no_nyquist_entry(self):
        amps = fourier_modes(Field.full(np.ones(7)))
        assert len(amps) == 4  # modes 0..3 only


class TestSolutionError:
    def test_identical_fields(self):
        u = Field.full(np.linspace(0, 1, 8))
        assert solution_error(u, u) == 0.0

    def test_constant_offset(self):
        a = Field.full(np.full(8, 1.01))
        b = Field.full(np.ones(8))
        assert solution_error(a, b) == pytest.approx(0.01, rel=1e-12)

    def test_matches_direct_norm_ratio(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(16), rng.standard_normal(16)
        got = solution_error(Field.half(x), Field.half(y))
        want = math.sqrt(np.sum((x - y) ** 2)) / math.sqrt(np.sum(y ** 2))
        assert got == pytest.approx(want, rel=1e-14)

    def test_staggering_mismatch_rejected(self):
        with pytest.raises(StaggeringError):
            solution_error(Field.full(np.ones(4)), Field.half(np.ones(4)))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(method="spectral"),
        dict(N=2),
        dict(dt=0.0),
        dict(t_end=-1.0),
        dict(observe_every=0),
        dict(L=-8.0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), **bad).validate()

    def test_json_round_trip(self):
        cfg = quick_config(spec=EXTENDED_BURGERS,
                           newton=NewtonConfig(tol=1e-11, max_iter=30))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_dict({"method": "both", "grid_size": 64})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"spec": {"C1": 1.0, "C5": 2.0}})

    def test_unknown_newton_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"newton": {"tol": 1e-12, "damping": 0.5}})

    def test_missing_spec_coefficients_are_zero(self):
        cfg = config_from_dict({"spec": {"C1": 2, "C3": -0.5}})
        assert cfg.spec == HamiltonianSpec(2.0, 0.0, -0.5, 0.0)
        assert isinstance(cfg.spec.C1, float)

    def test_integral_numbers_are_accepted_for_integer_fields(self):
        cfg = config_from_dict({"N": 64.0, "newton": {"max_iter": 7}})
        assert cfg.N == 64 and isinstance(cfg.N, int)
        assert cfg.newton == NewtonConfig(max_iter=7)

    @pytest.mark.parametrize("data, message", [
        ({"N": 64.7}, "N must be an integer"),
        ({"newton": {"max_iter": 2.9}}, "newton.max_iter must be an integer"),
        ({"N": True}, "N must be a number"),
        ({"N": "abc"}, "N must be a number"),
        ({"N": [1]}, "N must be a number"),
        ({"dt": "0.1"}, "dt must be a number"),
        ({"t_end": float("nan")}, "t_end must be finite"),
        ({"L": 10 ** 400}, "L must be finite"),
        ({"spec": {"C1": "x"}}, "spec.C1 must be a number"),
        ({"spec": {"C1": float("nan")}}, "spec.C1 must be finite"),
        ({"spec": [1.0]}, "spec must be a JSON object"),
        ({"method": 3}, "method must be a string"),
        ({"output_path": 5}, "output_path must be a string"),
        ({"newton": {"tol": -1.0}}, "tol must be positive"),
        ({"newton": {"max_iter": 0}}, "max_iter must be at least 1"),
        ({"newton": {"jacobian_mode": "finite-difference"}},
         "unknown newton keys"),
        ({"newton": {"fd_step": 1e-7}}, "unknown newton keys"),
    ])
    def test_mistyped_or_retired_values_rejected(self, data, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)

    @pytest.mark.parametrize("data", [{"t_end": 1e300, "dt": 1e-300},
                                      {"t_end": 1e10, "dt": 1e-10}])
    def test_step_count_above_the_cap_rejected(self, data):
        with pytest.raises(ConfigError, match=f"at most {MAX_STEPS}"):
            config_from_dict(data)

    def test_step_cap_admits_every_preset(self):
        longest = max(cfg.n_steps for cfg in PRESETS.values())
        assert 100 * longest < MAX_STEPS
        config_from_dict({"t_end": float(MAX_STEPS), "dt": 1.0})


class TestInitialConditions:
    def test_cosine_bump_profile(self):
        ic = resolve_initial_condition(quick_config())
        x = np.linspace(0, L, 5)
        np.testing.assert_allclose(ic.profile(x), 1 + 0.5 * np.cos(W * x),
                                   atol=1e-15)
        assert ic.reference is not None  # characteristics for quadratic densities

    def test_periodic_bump_profile(self):
        cfg = quick_config(spec=EXTENDED_BURGERS,
                           initial_condition="periodic-bump")
        ic = resolve_initial_condition(cfg)
        x = np.linspace(0, L, 5)
        np.testing.assert_allclose(
            ic.profile(x), 1 + 0.5 * np.exp(-np.sin(np.pi * x / L) ** 2),
            atol=1e-15)
        assert ic.reference is None  # no closed form for the cubic flow

    def test_custom_expression(self):
        cfg = quick_config(initial_condition="custom:2 + sin(2*pi*x/L)")
        ic = resolve_initial_condition(cfg)
        x = np.linspace(0, L, 7)
        np.testing.assert_allclose(ic.profile(x), 2 + np.sin(W * x), atol=1e-14)

    def test_custom_constant_broadcasts(self):
        cfg = quick_config(initial_condition="custom:1.5")
        ic = resolve_initial_condition(cfg)
        np.testing.assert_array_equal(ic.profile(np.zeros(4)), np.full(4, 1.5))

    def test_bad_custom_expression_rejected(self):
        cfg = quick_config(initial_condition="custom:nope(x)")
        with pytest.raises(ConfigError):
            ic = resolve_initial_condition(cfg)
            ic.profile(np.zeros(3))

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__[1].__subclasses__().__len__()",
        "x.real",
        "x[0]",
        "(lambda: 1)()",
        "[t for t in (1, 2)]",
        "np.sin(x)",
        "__import__('os')",
        "sin(x=1)",
        "x % 2",
        "'1'",
        "True",
        "1 +",
    ])
    def test_custom_expression_outside_the_grammar_rejected(self, expr):
        with pytest.raises(ConfigError):
            resolve_initial_condition(
                quick_config(initial_condition="custom:" + expr))

    @pytest.mark.parametrize("shift", [0.0, 3.141592653589793, 7.25])
    def test_custom_benchmark_profiles_match_numpy(self, shift):
        x = np.linspace(0, L, 64, endpoint=False)
        expected = {
            f"1 + 0.5*cos(2*pi*(x - {shift!r})/L)":
                1 + 0.5 * np.cos(2 * np.pi * (x - shift) / L),
            f"1 + 0.5*exp(-sin(pi*(x - {shift!r})/L)**2)":
                1 + 0.5 * np.exp(-np.sin(np.pi * (x - shift) / L) ** 2),
        }
        for expr, values in expected.items():
            ic = resolve_initial_condition(
                quick_config(initial_condition="custom:" + expr))
            assert np.array_equal(ic.profile(x), values)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_initial_condition(quick_config(initial_condition="step"))

    def test_travelling_wave_profile_is_periodic(self):
        cfg = quick_config(spec=EXTENDED_BURGERS,
                           initial_condition="travelling-wave")
        ic = resolve_initial_condition(cfg)
        x = np.linspace(0, L, 9)
        np.testing.assert_allclose(ic.profile(x), ic.profile(x + L), atol=1e-9)
        assert ic.profile(np.array([0.0]))[0] == pytest.approx(
            TRAVELLING_WAVE_PARAMS[0], abs=1e-10)
        assert ic.reference is not None

    def test_travelling_wave_demands_matching_density(self):
        cfg = quick_config(spec=BURGERS, initial_condition="travelling-wave")
        with pytest.raises(ConfigError):
            resolve_initial_condition(cfg)


class TestRunExperiment:
    def test_both_methods_run_and_interleave(self):
        result = run_experiment(quick_config())
        assert {run.method for run in result.runs} == {COLLECTIVE, CONVENTIONAL}
        merged = result.records_interleaved()
        steps = [rec.step for rec in merged]
        assert steps == sorted(steps)
        pairs = [(rec.step, rec.method) for rec in merged]
        for k in range(0, len(pairs), 2):
            assert pairs[k][0] == pairs[k + 1][0]
            assert pairs[k][1] == COLLECTIVE
            assert pairs[k + 1][1] == CONVENTIONAL

    def test_initial_record_has_zero_errors(self):
        result = run_experiment(quick_config())
        for run in result.runs:
            first = run.records[0]
            assert first.step == 0 and first.t == 0.0
            assert first.H_rel_err == 0.0
            assert first.casimir_rel_err == 0.0
            assert first.newton_iters == 0
        conv = result.run_for(CONVENTIONAL)
        assert conv.records[0].solution_rel_err == 0.0

    def test_zero_length_run_single_record(self):
        result = run_experiment(quick_config(t_end=0.0, method="conventional"))
        records = result.runs[0].records
        assert len(records) == 1
        rec = records[0]
        assert rec.H_rel_err == 0.0
        assert rec.casimir_rel_err == 0.0
        assert rec.solution_rel_err == 0.0

    def test_solution_error_present_before_breaking_absent_after(self):
        # breaking near t ~ 0.42: records straddling it flip to None
        cfg = quick_config(method="conventional", t_end=0.5, observe_every=16)
        result = run_experiment(cfg)
        records = result.runs[0].records
        early = [r for r in records if r.t < 0.35]
        late = [r for r in records if r.t > 0.45]
        assert all(r.solution_rel_err is not None for r in early)
        assert late and all(r.solution_rel_err is None for r in late)

    def test_final_step_always_recorded(self):
        cfg = quick_config(method="conventional", observe_every=7)
        result = run_experiment(cfg)
        assert result.runs[0].records[-1].step == cfg.n_steps

    def test_finals_expose_lifted_pair(self):
        result = run_experiment(quick_config(method="collective"))
        finals = result.runs[0].finals
        assert set(finals) == {"u", "q", "p"}
        assert finals["u"].staggering.value == "half"
        assert len(finals["q"]) == 16

    @pytest.mark.parametrize("expr", ["1/(x-x)", "sqrt(x-10)"])
    def test_non_finite_initial_profile_rejected(self, expr):
        cfg = quick_config(initial_condition="custom:" + expr)
        with pytest.raises(ConfigError, match=r"custom:.* is not finite"):
            run_experiment(cfg)

    def test_newton_failure_is_flagged_not_raised(self):
        cfg = quick_config(method="conventional", dt=64.0, t_end=640.0,
                           observe_every=1,
                           newton=NewtonConfig(max_iter=3))
        with np.errstate(all="ignore"):
            result = run_experiment(cfg)
        run = result.runs[0]
        assert not run.converged
        assert run.failed_step is not None
        assert len(run.records) >= 1
        assert not result.converged


def solution_errors(result):
    return [(r.method, r.step, r.solution_rel_err)
            for r in result.records_interleaved()]


class TestReferenceBlocks:
    """Observation times are solved in blocks; every record must carry
    what one oracle call per observation time gives."""

    @pytest.fixture
    def per_time(self, monkeypatch):
        """Make the oracle answer a block by one scalar call per time."""
        solve = ref_mod.burgers_characteristics

        def one_at_a_time(u0, x, t, **options):
            if np.ndim(t) == 0:
                return solve(u0, x, t, **options)
            return np.stack([solve(u0, x, s, **options) for s in t])

        def run(config):
            with monkeypatch.context() as patch:
                patch.setattr(ref_mod, "burgers_characteristics",
                              one_at_a_time)
                return run_experiment(config)

        return run

    @pytest.mark.parametrize("block", [harness.REFERENCE_BLOCK, 5])
    @pytest.mark.parametrize("overrides", [
        dict(observe_every=1, t_end=70 * 2.0 ** -8),
        dict(observe_every=3, t_end=71 * 2.0 ** -8, N=15),
        # 0.98 t* = 0.4159 falls between observations
        dict(observe_every=4, t_end=0.5),
    ], ids=["every-step", "off-stride-end", "straddles-breaking"])
    def test_blocks_match_one_call_per_time(self, per_time, monkeypatch,
                                            overrides, block):
        config = quick_config(**overrides)
        expected = solution_errors(per_time(config))
        asked = []
        solve = ref_mod.burgers_characteristics

        def counted(u0, x, t, **options):
            asked.append(np.atleast_1d(t).tolist())
            return solve(u0, x, t, **options)

        monkeypatch.setattr(harness, "REFERENCE_BLOCK", block)
        monkeypatch.setattr(ref_mod, "burgers_characteristics", counted)
        result = run_experiment(config)
        got = solution_errors(result)
        assert got == expected
        # every valid observation time is asked for once per scheme, at the
        # t the record carries: step 0 alone, then blocks of later times
        late = 0.98 * 8.0 / (6.0 * np.pi)
        valid = [r.t for r in result.records_interleaved() if r.t < late]
        assert sorted(t for call in asked for t in call) == sorted(valid)
        assert [err is None for _, _, err in got] == [
            r.t >= late for r in result.records_interleaved()]
        blocks = -(-(len(valid) // 2 - 1) // block)
        assert len(asked) == 2 * (1 + blocks)

    def test_a_failing_time_empties_only_its_own_cell(self, monkeypatch):
        config = quick_config(observe_every=2, t_end=40 * 2.0 ** -8)
        expected = solution_errors(run_experiment(config))
        failing = 14 * config.dt
        solve = ref_mod.burgers_characteristics

        def fails_once(u0, x, t, **options):
            if failing in np.atleast_1d(t):
                raise ref_mod.NonConvergenceError("chosen to fail")
            return solve(u0, x, t, **options)

        monkeypatch.setattr(ref_mod, "burgers_characteristics", fails_once)
        got = solution_errors(run_experiment(config))
        assert got == [(method, step, None if step == 14 else err)
                       for method, step, err in expected]
        assert all(err is not None for _, _, err in expected)

    def test_no_reference_asks_for_nothing(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("the cubic flow has no characteristics")

        monkeypatch.setattr(ref_mod, "burgers_characteristics", unused)
        config = quick_config(spec=EXTENDED_BURGERS,
                              initial_condition="periodic-bump")
        result = run_experiment(config)
        assert all(err is None for _, _, err in solution_errors(result))


class TestCsvOutput:
    def test_header_and_shape(self):
        result = run_experiment(quick_config())
        text = records_to_csv(result)
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        assert header[:10] == ["method", "step", "t", "H_hat", "casimir",
                               "H_rel_err", "casimir_rel_err",
                               "solution_rel_err", "newton_iters",
                               "nyquist_amp"]
        assert header[10:] == [f"amp_{k}" for k in range(9)]
        assert all(len(r) == len(header) for r in rows[1:])

    @pytest.mark.parametrize("overrides, shows", [
        (dict(N=7), "nan"),
        (dict(t_end=0.5), ""),
        (dict(dt=64.0, t_end=640.0, observe_every=1,
              newton=NewtonConfig(max_iter=3)), "diverged"),
        (dict(method="conventional"), "one scheme"),
    ], ids=["odd-N", "straddles-0.98-t-star", "diverged", "single-scheme"])
    def test_values_round_trip_at_full_precision(self, overrides, shows):
        def check(cell, value):
            if value is None:
                assert cell == ""
            elif math.isnan(value):
                assert cell == "nan"
            else:
                assert float(cell) == value

        with np.errstate(all="ignore"):
            result = run_experiment(quick_config(**overrides))
        rows = list(csv.reader(io.StringIO(records_to_csv(result))))[1:]
        records = result.records_interleaved()
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert len(row) == 10 + len(rec.fourier_amp)
            assert row[:2] == [rec.method, str(rec.step)]
            assert row[8] == str(rec.newton_iters)
            values = [rec.t, rec.H_hat, rec.casimir, rec.H_rel_err,
                      rec.casimir_rel_err, rec.solution_rel_err]
            for cell, value in zip(row[2:8] + row[9:],
                                   values + [rec.nyquist_amp,
                                             *rec.fourier_amp.tolist()]):
                check(cell, value)
        finals = list(csv.reader(io.StringIO(finals_to_csv(result))))[1:]
        expected = [(run.method, name, j, x, v)
                    for run in result.runs
                    for name, f in run.finals.items()
                    for j, (x, v) in enumerate(
                        zip(result.grid.nodes(f.staggering), f.values), 1)]
        assert len(finals) == len(expected)
        for row, (method, name, j, x, v) in zip(finals, expected):
            assert row[:3] == [method, name, str(j)]
            check(row[3], float(x))
            check(row[4], float(v))
        # each case reaches the cells it is named for
        cells = {cell for row in rows for cell in row}
        if shows == "nan":
            assert "nan" in cells
        elif shows == "":
            assert "" in cells and any(r[7] for r in rows)
        elif shows == "diverged":
            assert not any(run.converged for run in result.runs)
        else:
            assert len(result.runs) == 1

    def test_bit_identical_across_reruns(self):
        cfg = quick_config()
        a = records_to_csv(run_experiment(cfg))
        b = records_to_csv(run_experiment(cfg))
        assert a == b

    def test_finals_sidecar_lists_all_fields(self):
        result = run_experiment(quick_config())
        rows = list(csv.reader(io.StringIO(finals_to_csv(result))))
        assert rows[0] == ["method", "field", "index", "x", "value"]
        names = {(r[0], r[1]) for r in rows[1:]}
        assert names == {("collective", "u"), ("collective", "q"),
                         ("collective", "p"), ("conventional", "u")}

    def test_gnuplot_script_references_csv(self, tmp_path):
        script = tmp_path / "plot.gp"
        text = emit_gnuplot_script("diag.csv", str(script))
        assert script.exists()
        assert "diag.csv" in text
        assert "using 3:6" in text


class TestConvergenceStudy:
    def test_single_level_has_no_order(self):
        base = quick_config(dt=2.0 ** -10, t_end=32 * 2.0 ** -10,
                            method="conventional")
        table = convergence_study(base, [16])
        assert len(table) == 1
        assert table[0].observed_order is None

    def test_orders_near_two(self):
        base = quick_config(dt=2.0 ** -10, t_end=64 * 2.0 ** -10, method="both")
        table = convergence_study(base, [8, 16, 32])
        for row in table:
            if row.observed_order is not None:
                assert 1.6 < row.observed_order < 2.4

    def test_needs_reference(self):
        base = quick_config(spec=EXTENDED_BURGERS,
                            initial_condition="periodic-bump",
                            dt=2.0 ** -8, t_end=0.25)
        with pytest.raises(ConfigError):
            convergence_study(base, [8, 16])

    def test_initial_condition_is_resolved_once_per_study(self,
                                                          monkeypatch):
        resolve = harness.resolve_initial_condition
        calls = []

        def counted(config):
            calls.append(config.N)
            return resolve(config)

        monkeypatch.setattr(harness, "resolve_initial_condition", counted)
        base = quick_config(dt=2.0 ** -10, t_end=8 * 2.0 ** -10)
        table = convergence_study(base, [8, 16])
        assert len(table) == 4
        # once for the study, once inside each level's run
        assert len(calls) == 3

    def test_fine_grid_reference_source(self, monkeypatch):
        base = quick_config(spec=EXTENDED_BURGERS,
                            initial_condition="periodic-bump",
                            dt=2.0 ** -9, t_end=32 * 2.0 ** -9, method="both")
        fine_grid_reference = ref_mod.fine_grid_reference
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].N)
            return fine_grid_reference(*args, **kwargs)

        monkeypatch.setattr(ref_mod, "fine_grid_reference", counted)
        table = convergence_study(base, [16, 32], reference="fine-grid")
        # one refined run per level serves both schemes
        assert calls == [16, 32]
        by_method = {}
        for row in table:
            by_method.setdefault(row.method, []).append(row)
        assert set(by_method) == {COLLECTIVE, CONVENTIONAL}
        for rows in by_method.values():
            order = rows[1].observed_order
            assert order is not None and 1.5 < order < 2.5


class TestSchemeContracts:
    def test_collective_energy_error_scales_quadratically_in_dt(self):
        maxes = []
        for dt in (2.0 ** -7, 2.0 ** -8):
            cfg = ExperimentConfig(method="collective", spec=BURGERS, N=16,
                                   L=L, dt=dt, t_end=0.25,
                                   initial_condition="cosine-bump",
                                   observe_every=4)
            records = run_experiment(cfg).runs[0].records
            maxes.append(max(abs(r.H_rel_err) for r in records))
        ratio = maxes[0] / maxes[1]
        assert 3.0 <= ratio <= 5.0

    def test_shock_steepening_near_the_breaking_time(self):
        # slopes of the quadratic-density flow steepen hard by t ~ 0.45
        from oracles import apply_T
        from clebschflow.dynamics import conventional_flat_field, integrate
        g = PeriodicGrid(64, L)
        u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        slope0 = np.max(np.abs(apply_T(g, Field.full(u0)).values))
        run = integrate(conventional_flat_field(BURGERS, g), u0,
                        2.0 ** -10, round(0.45 * 2 ** 10))
        assert run.converged
        slope1 = np.max(np.abs(apply_T(g, Field.full(run.z)).values))
        assert slope1 > 3.0 * slope0

    def test_travelling_wave_long_run_contrast(self):
        # the lifted scheme keeps the grid-scale mode bounded over the full
        # wave run while the direct scheme's grows well past ten times its
        # early level
        cfg = replace(preset_config("travelling-wave"), observe_every=32)
        result = run_experiment(cfg)
        window = 0.1 * cfg.t_end
        levels = {}
        for run in result.runs:
            assert run.converged
            early = max(r.nyquist_amp for r in run.records if r.t <= window)
            late = max(r.nyquist_amp for r in run.records)
            levels[run.method] = late / early
        assert levels[COLLECTIVE] <= 10.0
        assert levels[CONVENTIONAL] > 10.0


class TestPresets:
    def test_known_names(self):
        assert set(PRESETS) == {"burgers-shock", "periodic-bump",
                                "travelling-wave"}
        for name in PRESETS:
            PRESETS[name].validate()

    def test_burgers_preset_parameters(self):
        cfg = preset_config("burgers-shock")
        assert cfg.N == 64 and cfg.L == 8.0
        assert cfg.dt == 2.0 ** -12 and cfg.t_end == 1.3701171875
        assert cfg.n_steps == 5612 and cfg.n_steps * cfg.dt == cfg.t_end
        assert cfg.spec == HamiltonianSpec(1, 0, 0, 0)

    def test_bump_preset_parameters(self):
        cfg = preset_config("periodic-bump")
        assert cfg.N == 32 and cfg.dt == 2.0 ** -8 and cfg.t_end == 1000.0
        assert cfg.spec == EXTENDED_BURGERS

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("kdv")
