import csv
import io
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from clebschflow import dynamics
from clebschflow.clebsch import momentum_arrays
from clebschflow.dynamics import NewtonConfig
from clebschflow.grid import PeriodicGrid, st_avg
from clebschflow.hamiltonian import BURGERS, EXTENDED_BURGERS, HamiltonianSpec
from clebschflow import harness
from clebschflow import reference as ref_mod
from clebschflow.harness import (
    COLLECTIVE,
    CONVENTIONAL,
    FINE_GRID_REFINE,
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

from oracles import Field, apply_T

L = 8.0
W = 2 * np.pi / L


def quick_config(**overrides):
    base = ExperimentConfig(method="both", spec=BURGERS, N=16, L=L,
                            dt=2.0 ** -8, t_end=0.125,
                            initial_condition="cosine-bump", observe_every=8)
    return replace(base, **overrides)


class TestFourierModes:
    def test_constant_is_pure_dc(self):
        amps = fourier_modes(np.full(8, 2.5))
        assert amps[0] == pytest.approx(2.5, abs=1e-14)
        np.testing.assert_allclose(amps[1:], np.zeros(4), atol=1e-14)

    def test_single_cosine_mode(self):
        g = PeriodicGrid(16, L)
        amps = fourier_modes(np.cos(W * g.full_nodes))
        assert amps[1] == pytest.approx(0.5, abs=1e-13)
        mask = np.ones(9, dtype=bool)
        mask[1] = False
        np.testing.assert_allclose(amps[mask], np.zeros(8), atol=1e-13)

    def test_alternating_samples_sit_at_nyquist(self):
        u = np.array([1.0, -1.0] * 4)
        amps = fourier_modes(u)
        assert amps[-1] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(amps[:-1], np.zeros(4), atol=1e-14)

    def test_odd_sample_count_has_no_nyquist_entry(self):
        amps = fourier_modes(np.ones(7))
        assert len(amps) == 4  # modes 0..3 only


class TestSolutionError:
    def test_identical_fields(self):
        u = np.linspace(0, 1, 8)
        assert solution_error(u, u) == 0.0

    def test_constant_offset(self):
        a = np.full(8, 1.01)
        b = np.ones(8)
        assert solution_error(a, b) == pytest.approx(0.01, rel=1e-12)

    def test_matches_direct_norm_ratio(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(16), rng.standard_normal(16)
        got = solution_error(x, y)
        want = math.sqrt(np.sum((x - y) ** 2)) / math.sqrt(np.sum(y ** 2))
        assert got == pytest.approx(want, rel=1e-14)

    def test_columns_are_their_one_column_calls_bitwise(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((64, 16))
        num = ref + 1e-6 * rng.standard_normal((64, 16))
        num[:, 1] = ref[:, 1]  # exact: 0
        ref[:, 2] = num[:, 2] = 0.0  # zero against zero: 0
        ref[:, 3] = -0.0  # anything against zero: inf
        num[5, 4] = np.nan
        ref[2, 5] = np.inf
        num[:, 6] = 1e200 * np.sign(num[:, 6])  # squares overflow
        with np.errstate(over="ignore", invalid="ignore"):
            block = solution_error(num, ref)
            alone = [solution_error(num[:, k], ref[:, k]) for k in range(16)]
            fortran = solution_error(np.asfortranarray(num),
                                     np.asfortranarray(ref))
        assert block.shape == (16,)
        assert all(isinstance(err, float) for err in alone)
        assert block.tobytes() == np.array(alone).tobytes()
        assert block.tobytes() == fortran.tobytes()
        assert alone[1:4] == [0.0, 0.0, math.inf]


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("bad", [
        dict(method="spectral"),
        dict(N=2),
        dict(dt=0.0),
        dict(t_end=-1.0),
        dict(t_end=math.nan),
        dict(t_end=math.inf),
        dict(t_end=-math.inf),
        dict(observe_every=0),
        dict(L=-8.0),
        dict(L=math.inf),
        dict(L=math.nan),
        dict(dt=math.inf),
        dict(dt=math.nan),
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

    def test_travelling_wave_demands_its_period(self):
        cfg = quick_config(spec=EXTENDED_BURGERS, L=2.0 * L,
                           initial_condition="travelling-wave")
        with pytest.raises(ConfigError):
            resolve_initial_condition(cfg)

    def test_travelling_wave_reference_translates_the_profile(self):
        # the reference is the profile moved by c t, whichever period the
        # translated nodes fall in
        ic = resolve_initial_condition(preset_config("travelling-wave"))
        c = TRAVELLING_WAVE_PARAMS[2]
        nodes = PeriodicGrid(64, L).full_nodes
        times = [0.0, 3.5, 437.0]
        for t, values in zip(times, ic.reference(times, nodes)):
            np.testing.assert_allclose(
                values, ic.profile(np.mod(nodes - c * t, L)),
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("period", [L, 2.0 * np.pi])
    def test_characteristics_wrap_is_np_mod_bitwise(self, monkeypatch,
                                                    period):
        # the reference wraps each characteristics point onto the circle
        # only off (0, L); taken off that interval it is bitwise np.mod
        wraps = []

        def breaking(u0, L, advection):
            wraps.append(u0)
            return math.inf, (-math.inf, math.inf)

        monkeypatch.setattr(ref_mod, "burgers_breaking", breaking)
        identity = lambda y: np.array(y, dtype=float)
        cosine = lambda y: 1.0 + 0.5 * np.cos(2.0 * np.pi * y / period)
        for profile in (identity, cosine):
            harness._characteristics_reference(profile, BURGERS, period)
        points = np.array([
            0.0, -0.0, 5e-324, -5e-324, period, np.nextafter(period, 0.0),
            -period, 2.0 * period, -3.5 * period, 1e300, np.inf, -np.inf,
            np.nan, 0.5 * period])
        given = points.tobytes()
        with np.errstate(invalid="ignore"):
            for wrapped, profile in zip(wraps, (identity, cosine)):
                want = profile(np.mod(points, period))
                assert wrapped(points).tobytes() == want.tobytes()
                for k, y in enumerate(points):
                    assert (np.asarray(wrapped(y)).tobytes()
                            == want[k].tobytes())
        assert points.tobytes() == given  # the caller's points stay put


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
        assert np.array_equal(finals["u"][0], result.grid.half_nodes)
        assert len(finals["q"][1]) == 16

    def test_finals_carry_the_nodes_of_each_field(self):
        result = run_experiment(quick_config())
        g = result.grid
        lifted = result.run_for(COLLECTIVE).finals
        direct = result.run_for(CONVENTIONAL).finals
        assert set(direct) == {"u"}
        for finals, name, nodes in ((lifted, "u", g.half_nodes),
                                    (lifted, "q", g.full_nodes),
                                    (lifted, "p", g.full_nodes),
                                    (direct, "u", g.full_nodes)):
            x, values = finals[name]
            assert np.array_equal(x, nodes)
            assert values.shape == (16,)
        # u is the momentum map of the final (q, p)
        x, u = lifted["u"]
        q, p = lifted["q"][1], lifted["p"][1]
        assert np.array_equal(
            u, momentum_arrays(g.dx, g.L, q, p)[0])

    @pytest.mark.parametrize("expr", ["1/(x-x)", "sqrt(x-10)"])
    def test_non_finite_initial_profile_rejected(self, expr):
        cfg = quick_config(initial_condition="custom:" + expr)
        with pytest.raises(ConfigError, match=r"custom:.* is not finite"):
            run_experiment(cfg)

    # numbers are floats: no Python big integer is built, and a result
    # out of float range is a configuration error, not an OverflowError
    @pytest.mark.parametrize("expr", ["10**400", "9**9**7"])
    def test_out_of_range_profile_arithmetic_rejected(self, expr):
        cfg = quick_config(initial_condition="custom:" + expr)
        with pytest.raises(ConfigError, match=r"cannot evaluate custom"):
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
        # one record per step before the failing one
        assert [r.step for r in run.records] == list(range(run.failed_step))
        assert not result.converged


def solution_errors(result):
    return [(r.method, r.step, r.solution_rel_err)
            for r in result.records_interleaved()]


def record_stream(result):
    """Every field of every record, each float as its exact hex string, so
    that equal streams compare equal bit for bit, nan included."""
    def exact(value):
        if isinstance(value, np.ndarray):
            return [v.hex() for v in value.tolist()]
        return value.hex() if isinstance(value, float) else value

    return [tuple(exact(getattr(r, f.name)) for f in fields(r))
            for r in result.records_interleaved()]


class TestReferenceBlocks:
    """Observations are evaluated in blocks and their times solved in
    blocks; every record must carry what one observation per block and one
    oracle call per observation time give."""

    @pytest.fixture
    def per_time(self, monkeypatch):
        """Evaluate one observation per block and make the oracle answer
        by one scalar call per time."""
        solve = ref_mod.burgers_characteristics

        def one_at_a_time(u0, x, t, **options):
            if np.ndim(t) == 0:
                return solve(u0, x, t, **options)
            return np.stack([solve(u0, x, s, **options) for s in t])

        def run(config):
            with monkeypatch.context() as patch:
                patch.setattr(ref_mod, "burgers_characteristics",
                              one_at_a_time)
                patch.setattr(harness, "OBSERVE_BLOCK", 1)
                return run_experiment(config)

        return run

    @pytest.mark.parametrize("block", [1, 5, harness.OBSERVE_BLOCK])
    @pytest.mark.parametrize("overrides", [
        dict(observe_every=1, t_end=70 * 2.0 ** -8),
        # odd N: no Nyquist mode; 25 observations per scheme
        dict(observe_every=3, t_end=71 * 2.0 ** -8, N=15),
        # 0.98 t* = 0.4159 falls between observations
        dict(observe_every=4, t_end=0.5),
        dict(method="conventional", dt=64.0, t_end=640.0, observe_every=1,
             newton=NewtonConfig(max_iter=3)),
    ], ids=["every-step", "off-stride-end", "straddles-breaking",
            "diverging"])
    def test_blocks_match_one_call_per_time(self, per_time, monkeypatch,
                                            overrides, block):
        config = quick_config(**overrides)
        expected = per_time(config)
        asked = []
        solve = ref_mod.burgers_characteristics

        def counted(u0, x, t, **options):
            asked.append(np.atleast_1d(t).tolist())
            return solve(u0, x, t, **options)

        monkeypatch.setattr(harness, "OBSERVE_BLOCK", block)
        monkeypatch.setattr(ref_mod, "burgers_characteristics", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_experiment(config)
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert record_stream(result) == record_stream(expected)
        assert ([run.failed_step for run in result.runs]
                == [run.failed_step for run in expected.runs])
        # every valid observation time is asked for once per scheme, at the
        # t the record carries, in one call per block of observations
        late = 0.98 * 8.0 / (6.0 * np.pi)
        valid = [r.t for r in result.records_interleaved() if r.t < late]
        assert sorted(t for call in asked for t in call) == sorted(valid)
        assert [r.solution_rel_err is None
                for r in result.records_interleaved()] == [
            r.t >= late for r in result.records_interleaved()]
        assert len(asked) == len(result.runs) * -(
            -(len(valid) // len(result.runs)) // block)

    def test_a_stopped_run_asks_only_for_its_recorded_times(self,
                                                           monkeypatch):
        config = quick_config(observe_every=1, t_end=80 * 2.0 ** -8)
        full = solution_errors(run_experiment(config))
        integrate = harness.integrate

        def fails_at_step_ten(field, band, z0, dt, n_steps, cfg, observer):
            # the field turns non-finite once nine steps are done, so step
            # 10 declines plain iteration and Newton fails on it
            done = []

            def poisoned(z):
                f = field(z)
                return f * np.nan if len(done) == 9 else f

            def counting(step, t, z, report):
                done.append(step)
                observer(step, t, z, report)

            return integrate(poisoned, band, z0, dt, n_steps, cfg, counting)

        asked = []
        solve = ref_mod.burgers_characteristics

        def counted(u0, x, t, **options):
            asked.append(np.atleast_1d(t).tolist())
            return solve(u0, x, t, **options)

        monkeypatch.setattr(harness, "integrate", fails_at_step_ten)
        monkeypatch.setattr(ref_mod, "burgers_characteristics", counted)
        result = run_experiment(config)
        assert [run.failed_step for run in result.runs] == [10, 10]
        recorded = [r.t for run in result.runs for r in run.records]
        assert len(recorded) == 20
        assert [t for call in asked for t in call] == recorded
        got = solution_errors(result)
        assert got == [entry for entry in full if entry[1] < 10]
        assert all(err is not None for _, _, err in got)

    def test_a_failing_time_empties_only_its_own_cell(self, monkeypatch):
        config = quick_config(observe_every=2, t_end=40 * 2.0 ** -8)
        expected = solution_errors(run_experiment(config))
        failing = 14 * config.dt
        solve = ref_mod.burgers_characteristics

        def fails_once(u0, x, t, **options):
            if failing in np.atleast_1d(t):
                raise dynamics.NonConvergenceError("chosen to fail")
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
                    for name, (xs, values) in run.finals.items()
                    for j, (x, v) in enumerate(zip(xs, values), 1)]
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
        text = emit_gnuplot_script("diag.csv", str(script), [COLLECTIVE])
        assert script.exists()
        assert "diag.csv" in text
        assert 'using 3:(strcol(1) eq "collective" ? $6 : 1/0)' in text

    def test_gnuplot_script_draws_one_curve_per_scheme(self, tmp_path):
        text = emit_gnuplot_script("diag.csv", str(tmp_path / "plot.gp"),
                                   [COLLECTIVE, CONVENTIONAL])
        plots = [line for line in text.splitlines()
                 if line.startswith("plot ")]
        assert len(plots) == 3
        for plot, column in zip(plots, (6, 7, 10)):
            curves = plot[len("plot "):].split(", ")
            assert curves == [
                f'"diag.csv" using 3:(strcol(1) eq "{method}" ? ${column} '
                f': 1/0) with lines title "{method}"'
                for method in (COLLECTIVE, CONVENTIONAL)]


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

    def test_auto_reference_makes_no_call_of_its_own(self, monkeypatch):
        base = quick_config(dt=2.0 ** -10, t_end=40 * 2.0 ** -10)
        run = harness._run_experiment
        solve = ref_mod.burgers_characteristics
        inside_runs = []
        outside_runs = []

        def counted_run(config, exact):
            inside_runs.append(True)
            try:
                return run(config, exact)
            finally:
                inside_runs.pop()

        def counted_solve(u0, x, t, **options):
            if not inside_runs:
                outside_runs.append(t)
            return solve(u0, x, t, **options)

        monkeypatch.setattr(harness, "_run_experiment", counted_run)
        monkeypatch.setattr(ref_mod, "burgers_characteristics", counted_solve)
        table = convergence_study(base, [8, 16])
        assert outside_runs == []
        # the final record's error is the one a separate final-time call
        # to the reference gives
        monkeypatch.undo()
        ic = resolve_initial_condition(base)
        for row in table:
            result = run_experiment(replace(base, N=row.N))
            nodes, u = result.run_for(row.method).finals["u"]
            exact = ic.reference([base.n_steps * base.dt], nodes)[0]
            assert row.solution_err == solution_error(u, exact)

    def test_one_oracle_call_per_scheme_per_level(self, monkeypatch):
        # several reference blocks' worth of steps, all of them observed by
        # the base configuration: each level records only its endpoints
        base = quick_config(dt=2.0 ** -10, t_end=200 * 2.0 ** -10,
                            observe_every=1)
        solve = ref_mod.burgers_characteristics
        calls = []

        def counted(u0, x, t, **options):
            calls.append(np.size(t))
            return solve(u0, x, t, **options)

        monkeypatch.setattr(ref_mod, "burgers_characteristics", counted)
        table = convergence_study(base, [8, 16])
        assert len(table) == 4 and calls == [2, 2, 2, 2]
        # the table read off runs that observe every step
        monkeypatch.undo()
        for row in table:
            run = run_experiment(replace(base, N=row.N)).run_for(row.method)
            assert len(run.records) == base.n_steps + 1
            final = run.records[-1]
            assert (row.solution_err, row.H_err, row.casimir_err) == (
                final.solution_rel_err, abs(final.H_rel_err),
                abs(final.casimir_rel_err))

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
        run = harness._run_experiment
        refined = []

        def counted(config, exact):
            if config.N > 32:
                refined.append((config.method, config.N, config.dt,
                                config.n_steps, config.observe_every))
            return run(config, exact)

        monkeypatch.setattr(harness, "_run_experiment", counted)
        table = convergence_study(base, [16, 32], reference="fine-grid")
        # one refined lifted run per level serves both schemes and records
        # only its endpoints
        assert refined == [(COLLECTIVE, 8 * N, 2.0 ** -11, 128, 128)
                           for N in (16, 32)]
        by_method = {}
        for row in table:
            by_method.setdefault(row.method, []).append(row)
        assert set(by_method) == {COLLECTIVE, CONVENTIONAL}
        for rows in by_method.values():
            order = rows[1].observed_order
            assert order is not None and 1.5 < order < 2.5


    def test_fine_grid_study_makes_no_oracle_call(self, monkeypatch):
        # Burgers has an exact reference, which a fine-grid study never reads
        base = quick_config(dt=2.0 ** -10, t_end=64 * 2.0 ** -10,
                            method="both")
        solve = ref_mod.burgers_characteristics
        calls = []

        def counted(u0, x, t, **options):
            calls.append(np.size(t))
            return solve(u0, x, t, **options)

        monkeypatch.setattr(ref_mod, "burgers_characteristics", counted)
        table = convergence_study(base, [8, 16], reference="fine-grid")
        assert len(table) == 4 and calls == []
        # the same study with every run calling the reference: six calls
        # of two times each, and the same table
        run = harness._run_experiment
        monkeypatch.setattr(harness, "_run_experiment",
                            lambda config, exact: run(config, True))
        assert convergence_study(base, [8, 16],
                                 reference="fine-grid") == table
        assert calls == [2] * 6


def fine_grid_comparison(monkeypatch, base, N, refine=FINE_GRID_REFINE):
    """({method: (final u, fine-grid reference)}, fine full-node u) as a
    one-level study compares them."""
    methods = ([COLLECTIVE, CONVENTIONAL] if base.method == "both"
               else [base.method])
    compared, fine = [], []
    converged_run = harness._converged_run

    def recording(u, exact):
        compared.append((u, exact))
        return solution_error(u, exact)

    def keeping_fine(config, level, exact, label=""):
        result = converged_run(config, level, exact, label)
        if config.N == refine * N:
            fine.append(st_avg(result.runs[0].finals["u"][1]))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(harness, "solution_error", recording)
        patch.setattr(harness, "_converged_run", keeping_fine)
        patch.setattr(harness, "FINE_GRID_REFINE", refine)
        convergence_study(replace(base, N=N), [N], reference="fine-grid")
    return dict(zip(methods, compared, strict=True)), fine[0]


class TestFineGridReference:
    def test_constant_profile_is_exact(self, monkeypatch):
        base = quick_config(initial_condition="custom:1.5", dt=2.0 ** -6)
        compared, _ = fine_grid_comparison(monkeypatch, base, 8)
        assert set(compared) == {COLLECTIVE, CONVENTIONAL}
        for _, exact in compared.values():
            np.testing.assert_allclose(exact, np.full(8, 1.5), atol=1e-10)

    @pytest.mark.parametrize("refine", [8, 16])
    def test_restriction_by_position_picks_the_shifted_fine_nodes(
            self, monkeypatch, refine):
        # coarse node k (from 0) is fine full node refine k + refine - 1 on
        # the full grid, and refine / 2 nodes earlier on the half grid
        base = quick_config(dt=2.0 ** -8, t_end=0.0625)
        compared, u_fine = fine_grid_comparison(monkeypatch, base, 16, refine)
        for method, (_, exact) in compared.items():
            shift = refine - 1
            if method == COLLECTIVE:
                shift -= refine // 2
            assert np.array_equal(exact,
                                  u_fine[refine * np.arange(16) + shift])

    def test_matches_characteristics_before_breaking(self, monkeypatch):
        # the reference carries the fine scheme's own O(dx_fine^2) error
        base = quick_config(dt=2.0 ** -8, t_end=0.0625)
        compared, _ = fine_grid_comparison(monkeypatch, base, 16)
        g = PeriodicGrid(16, L)
        profile = lambda y: 1.0 + 0.5 * np.cos(W * np.asarray(y))
        nodes = {COLLECTIVE: g.half_nodes, CONVENTIONAL: g.full_nodes}
        for method, (_, exact) in compared.items():
            oracle = ref_mod.burgers_characteristics(
                profile, nodes[method], 0.0625,
                bounds=ref_mod.burgers_breaking(profile, L)[1])
            assert np.max(np.abs(exact - oracle)) < 1e-3

    def test_refinement_self_consistency(self, monkeypatch):
        # switching 8x -> 16x refinement must move the reference far less
        # than the coarse-grid error it is used to measure
        base = quick_config(method=COLLECTIVE, dt=2.0 ** -8, t_end=0.0625)
        _, ref8 = fine_grid_comparison(monkeypatch, base, 16)[0][COLLECTIVE]
        u_coarse, ref16 = fine_grid_comparison(
            monkeypatch, base, 16, refine=16)[0][COLLECTIVE]
        coarse_err = np.max(np.abs(u_coarse - ref16))
        assert np.any(ref8 != ref16)
        assert np.max(np.abs(ref8 - ref16)) < 0.2 * coarse_err


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
        from clebschflow.dynamics import conventional_flat_field, integrate
        g = PeriodicGrid(64, L)
        u0 = 1.0 + 0.5 * np.cos(W * g.full_nodes)
        slope0 = np.max(np.abs(apply_T(g, Field.full(u0)).values))
        run = integrate(*conventional_flat_field(BURGERS, g), u0,
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
