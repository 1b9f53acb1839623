import json

import pytest

from clebschflow import cli, harness
from clebschflow.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_emit_plots_writes_script(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, _ = run_cli(
            capsys, "run", "--method", "conventional", "--N", "16",
            "--dt", "0.00390625", "--t-end", "0.03125",
            "--out", str(out), "--emit-plots")
        assert code == 0
        script = (tmp_path / "d.gp").read_text()
        assert str(out) in script

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
        def no_step(*args, **kwargs):
            raise AssertionError("a step was started")

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

    def test_bad_flag_value_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "run", "--method", "spectral")
        assert code == 1
        assert "configuration error" in err

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
