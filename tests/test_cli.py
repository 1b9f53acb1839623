import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clebschflow import cli, harness
from clebschflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_step(*args, **kwargs):
    raise AssertionError("a step was started")


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "presets")
        assert code == 0
        for name in ("burgers-shock", "periodic-bump", "travelling-wave"):
            assert name in out

    def test_prints_json_config(self, capsys):
        code, out, _ = run_cli(capsys, "presets", "burgers-shock")
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 64
        assert data["spec"] == {"C1": 1.0, "C2": 0.0, "C3": 0.0, "C4": 0.0}

    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "presets", "kdv")
        assert code == 1
        assert "configuration error" in err


class TestRunCommand:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--dt", "0.00390625", "--t-end", "0.0625",
            "--observe-every", "4", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "diag_final.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("method,step,t,H_hat,casimir")

    def test_summary_reports_the_reached_time(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--dt", "0.1", "--t-end", "0.25", "--out", str(out))
        assert code == 0
        assert "conventional: completed 2 steps to t = 0.2\n" in stdout
        assert ("conventional: Newton accepted 2 steps on increments, 0 on "
                "the residual, 0 at the roundoff floor\n") in stdout
        assert ("t_end = 0.25 is not a multiple of dt = 0.1; rounded to "
                "the step grid, t = 0.2") in stdout
        assert len(out.read_text().splitlines()) == 1 + 3

    def test_summary_has_no_rounding_note_on_the_step_grid(self, tmp_path,
                                                           capsys):
        code, stdout, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--dt", "0.1", "--t-end", "0.3", "--out",
            str(tmp_path / "diag.csv"))
        assert code == 0
        assert "completed 3 steps to t = 0.3" in stdout
        assert "rounded" not in stdout

    def test_summary_counts_the_test_that_accepted_each_step(self, tmp_path,
                                                             capsys):
        # both schemes; then an increment target below roundoff, so every
        # lifted step stops at the floor
        code, stdout, _ = run_cli(
            capsys, "run", "--N", "16", "--dt", "0.00390625", "--t-end",
            "0.0625", "--out", str(tmp_path / "both.csv"))
        assert code == 0

        def counts(line):
            return [int(word) for word in line.replace(",", "").split()
                    if word.isdigit()]

        lines = stdout.splitlines()
        for method, rounds in (("collective", 64), ("conventional", 77)):
            newton = next(counts(line) for line in lines
                          if line.startswith(f"{method}: Newton accepted"))
            plain = next(counts(line) for line in lines if line.startswith(
                f"{method}: fixed-point iteration accepted"))
            # a Newton first step, then plain iteration throughout, with
            # the field-call rounds those steps made
            assert len(newton) == 3 and sum(newton) == 1
            assert plain == [15, rounds]
        cfg = {"method": "collective", "spec": {"C1": 0.5, "C2": 0.5,
                                                "C3": -0.25, "C4": 0.5},
               "N": 64, "dt": 0.00390625, "t_end": 0.015625,
               "initial_condition": "periodic-bump",
               "newton": {"tol": 1e-16}}
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(cfg))
        code, stdout, _ = run_cli(capsys, "run", "--config", str(path),
                                  "--out", str(tmp_path / "floor.csv"))
        assert code == 0
        assert ("collective: Newton accepted 0 steps on increments, 0 on the "
                "residual, 4 at the roundoff floor\n"
                "collective: fixed-point iteration accepted 0 steps in 0 "
                "rounds\n"
                ) in stdout

    def test_emit_plots_writes_script(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--dt", "0.00390625", "--t-end", "0.03125",
            "--out", str(out), "--emit-plots")
        assert code == 0
        script = (tmp_path / "d.gp").read_text()
        assert str(out) in script
        # one curve per plot, on the scheme the run made
        assert script.count('strcol(1) eq "conventional"') == 3
        assert "collective" not in script

    def test_outdir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CLEBSCHFLOW_OUTDIR", str(tmp_path / "results"))
        code, _, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--dt", "0.00390625", "--t-end", "0.03125")
        assert code == 0
        assert (tmp_path / "results" / "run.csv").exists()

    def test_config_file_with_flag_overrides(self, tmp_path, capsys):
        cfg = {"method": "conventional", "N": 16, "L": 8.0,
               "dt": 0.00390625, "t_end": 0.03125,
               "initial_condition": "cosine-bump", "observe_every": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "run", "--config", str(path),
                             "--N", "8", "--out", str(out))
        assert code == 0
        # the CLI override wins: 8 nodes means amp columns up to amp_4
        header = out.read_text().splitlines()[0]
        assert header.endswith("amp_4")

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mesh": 64}))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert "unknown configuration keys" in err

    def test_mistyped_config_value_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"spec": {"C1": "x"}}))
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert err == ("configuration error: spec.C1 must be a number, "
                       "got 'x'\n")

    def test_non_finite_initial_profile_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--ic", "custom:1/(x-x)", "--out", str(tmp_path / "d.csv"))
        assert code == 1
        assert "configuration error: initial condition 'custom:1/(x-x)'" in err
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("t_end, dt", [(1e300, 1e-300), (1e10, 1e-10)])
    def test_step_count_above_the_cap_exits_one(self, tmp_path, capsys,
                                                monkeypatch, t_end, dt):
        monkeypatch.setattr(harness, "integrate", no_step)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"t_end": t_end, "dt": dt}))
        for argv in (["--config", str(path)],
                     ["--t-end", repr(t_end), "--dt", repr(dt)]):
            code, _, err = run_cli(capsys, "run", *argv,
                                   "--out", str(tmp_path / "d.csv"))
            assert code == 1
            assert err.startswith("configuration error: t_end / dt")
        assert not (tmp_path / "d.csv").exists()

    def test_grid_above_the_cap_exits_one(self, tmp_path, capsys):
        # unchecked, building the grid's nodes fails in numpy's allocator
        N = 10 ** 15
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"N": N, "t_end": 0.0}))
        for argv in (["--config", str(path)],
                     ["--N", str(N), "--t-end", "0"]):
            code, out, err = run_cli(capsys, "run", *argv,
                                     "--out", str(tmp_path / "d.csv"))
            assert code == 1
            assert err == (f"configuration error: need 3 <= N <= "
                           f"{harness.MAX_N}, got {N}\n")
            assert out == ""
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("text", ["{not json", "[" * 100000],
                             ids=["syntax", "nested-too-deep"])
    def test_malformed_json_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 1
        assert err.startswith(f"configuration error: cannot parse {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["missing-file", "directory",
                                      "not-utf-8"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, case):
        path = {"missing-file": tmp_path / "missing.json",
                "directory": tmp_path,
                "not-utf-8": tmp_path / "latin1.json"}[case]
        if case == "not-utf-8":
            path.write_bytes(b'{"initial_condition": "caf\xe9"}')
        code, out, err = run_cli(capsys, "run", "--config", str(path),
                                 "--out", str(tmp_path / "d.csv"))
        assert code == 1
        assert err.startswith(f"configuration error: cannot read {path}: ")
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("blocked", ["d.csv", "d_final.csv", "d.gp",
                                         "parent-is-a-file"])
    def test_unwritable_output_exits_one_before_any_step(
            self, tmp_path, capsys, monkeypatch, blocked):
        monkeypatch.setattr(harness, "integrate", no_step)
        if blocked == "parent-is-a-file":
            (tmp_path / "sub").write_text("")
            out = tmp_path / "sub" / "d.csv"
            blocked_path = out
        else:
            out = tmp_path / "d.csv"
            blocked_path = tmp_path / blocked
            blocked_path.mkdir()
        code, stdout, err = run_cli(
            capsys, "run", "--N", "8", "--dt", "0.0009765625",
            "--t-end", "0.001", "--out", str(out), "--emit-plots")
        assert code == 1
        assert err.startswith(f"configuration error: cannot write "
                              f"{blocked_path}: ")
        assert err.count("\n") == 1
        assert stdout == ""
        # the check leaves no file behind
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sub" if blocked == "parent-is-a-file" else blocked]

    def test_write_error_after_the_run_exits_one(self, tmp_path, capsys,
                                                 monkeypatch):
        out = tmp_path / "d.csv"
        render = cli.records_to_csv

        def render_then_block(result):
            out.mkdir()  # the path turns unwritable during the run
            return render(result)

        monkeypatch.setattr(cli, "records_to_csv", render_then_block)
        code, stdout, err = run_cli(
            capsys, "run", "--method", "conventional", "--N", "8",
            "--dt", "0.0009765625", "--t-end", "0.001", "--out", str(out))
        assert code == 1
        assert err.startswith(f"configuration error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_failed_run_leaves_an_existing_output_alone(self, tmp_path,
                                                        capsys):
        out = tmp_path / "d.csv"
        out.write_text("earlier results\n")
        code, _, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--ic", "custom:1/(x-x)", "--out", str(out))
        assert code == 1
        assert out.read_text() == "earlier results\n"
        assert not (tmp_path / "d_final.csv").exists()

    def test_bad_flag_value_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "run", "--method", "spectral")
        assert code == 1
        assert "configuration error" in err

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize("flag, value", [("--dt", "inf"), ("--L", "inf"),
                                             ("--dt", "nan")])
    def test_non_finite_flag_exits_one(self, tmp_path, capsys, monkeypatch,
                                       command, flag, value):
        # the JSON path rejects non-finite numbers; a flag must as well
        monkeypatch.setattr(harness, "integrate", no_step)
        out = tmp_path / "d.csv"
        code, stdout, err = run_cli(capsys, command, "--N", "8", "--t-end",
                                    "0.001", flag, value, "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err == (f"configuration error: {flag[2:]} must be positive "
                       f"and finite, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "converge"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_end_time_exits_one(self, tmp_path, capsys,
                                           monkeypatch, command, value):
        # named as t_end, not blamed on the step cap
        monkeypatch.setattr(harness, "integrate", no_step)
        out = tmp_path / "d.csv"
        code, stdout, err = run_cli(capsys, command, "--N", "8",
                                    f"--t-end={value}", "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err == ("configuration error: t_end must be nonnegative "
                       f"and finite, got {value}\n")
        assert not out.exists()

    def test_solver_divergence_exits_two_with_partial_data(self, tmp_path,
                                                           capsys):
        import numpy as np
        cfg = {"method": "conventional", "N": 16, "L": 8.0, "dt": 64.0,
               "t_end": 640.0, "initial_condition": "cosine-bump",
               "observe_every": 1, "newton": {"max_iter": 3}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "part.csv"
        with np.errstate(all="ignore"):
            code, stdout, _ = run_cli(capsys, "run", "--config", str(path),
                                      "--out", str(out))
        assert code == 2
        assert out.exists()
        assert "diverged" in stdout
        assert ("conventional: Newton accepted 0 steps on increments, 0 on "
                "the residual, 0 at the roundoff floor\n") in stdout
        assert len(out.read_text().splitlines()) >= 2  # header + t=0 record


class TestConvergeCommand:
    def test_prints_order_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--method", "conventional", "--dt",
            "0.0009765625", "--t-end", "0.0625", "--levels", "8,16")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "conventional" in ln]
        assert len(lines) == 2
        order = float(lines[1].split()[-1])
        assert 1.5 < order < 2.5

    @pytest.mark.parametrize("levels", ["8,x", "8.5", "eight"])
    def test_malformed_levels_exit_one(self, capsys, monkeypatch, levels):
        def no_study(*args, **kwargs):
            raise AssertionError("a study was started")

        monkeypatch.setattr(cli, "convergence_study", no_study)
        code, out, err = run_cli(capsys, "converge", "--levels", levels)
        assert code == 1
        assert err == (f"configuration error: argument --levels: expected "
                       f"comma-separated integers, got {levels!r}\n")
        assert out == ""

    def test_unwritable_output_exits_one_before_the_study(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        monkeypatch.setattr(harness, "integrate", no_step)
        code, out, err = run_cli(
            capsys, "converge", "--method", "conventional", "--dt",
            "0.0009765625", "--t-end", "0.03125", "--levels", "8,16",
            "--out", str(tmp_path))
        assert code == 1
        assert err.startswith(f"configuration error: cannot write "
                              f"{tmp_path}: ")
        assert err.count("\n") == 1
        assert out == ""

    def test_diverging_level_exits_two_without_a_table(self, tmp_path,
                                                       capsys):
        import numpy as np
        out = tmp_path / "orders.csv"
        with np.errstate(all="ignore"):
            code, stdout, err = run_cli(
                capsys, "converge", "--method", "conventional", "--dt", "64",
                "--t-end", "640", "--levels", "8,16", "--out", str(out))
        assert code == 2
        assert err == ("converge: conventional run diverged at step 2 of "
                       "level N=8; no table written\n")
        assert stdout == ""
        assert not out.exists()

    def test_diverging_refined_run_exits_two(self, capsys, monkeypatch):
        from clebschflow.dynamics import IntegrationResult, NonConvergenceError
        integrate = harness.integrate

        def fine_grid_diverges(rhs, band, z0, dt, n_steps, *args):
            if z0.size == 2 * 64:
                return IntegrationResult(z0, 4, NonConvergenceError(
                    "Newton diverged", step=5))
            return integrate(rhs, band, z0, dt, n_steps, *args)

        monkeypatch.setattr(harness, "integrate", fine_grid_diverges)
        code, stdout, err = run_cli(
            capsys, "converge", "--method", "conventional", "--dt",
            "0.0009765625", "--t-end", "0.03125", "--levels", "8",
            "--reference", "fine-grid")
        assert code == 2
        assert err == ("converge: refined (N=64, dt/4) collective run "
                       "diverged at step 5 of level N=8; no table written\n")
        assert stdout == ""

    def test_diverging_level_writes_one_stderr_line(self, tmp_path):
        # a fresh interpreter, so numpy's warnings reach stderr as they
        # would from the command line
        env = dict(os.environ,
                   PYTHONPATH=str(Path(harness.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "clebschflow.cli", "converge", "--method",
             "conventional", "--dt", "64", "--t-end", "640", "--levels",
             "8,16"], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 2
        assert done.stderr == ("converge: conventional run diverged at step "
                               "2 of level N=8; no table written\n")

    def test_writes_table_csv(self, tmp_path, capsys):
        out = tmp_path / "orders.csv"
        code, _, _ = run_cli(
            capsys, "converge", "--method", "conventional", "--dt",
            "0.0009765625", "--t-end", "0.03125", "--levels", "8,16",
            "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("method,N,dx")
        assert len(rows) == 3
