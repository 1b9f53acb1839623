"""Checks of the benchmark itself: run with ``python3 -m pytest perfbench``.

The traced per-step counts of a tiny cut of each workload must repeat
exactly across two fresh workers, so that a later change can rest a
claim on them.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_STEPS = {"shock-every-step": 8, "bump-long": 64, "burgers-n512": 2}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    config = workloads.make_config(workloads.WORKLOADS[name], seed=3,
                                   n_steps=TINY_STEPS[name])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    job = {"src": str(run.ROOT / "src"), "workload": name,
           "config_path": str(config_path)}
    counts = []
    for index in range(2):
        result = run.run_worker(tmp_path, index, True, job)
        assert result["completed"] == {s: TINY_STEPS[name]
                                       for s in tracing.SCHEMES}
        assert result["absent"] == []
        layers = result["layers"]
        counts.append({k: v for k, v in layers.items()
                       if k.endswith(tracing.COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    for scheme in tracing.SCHEMES:
        assert counts[0][f"{scheme}.hamiltonian.rhs.per_step"] > 0
        assert counts[0][f"{scheme}.linalg.solve.per_step"] > 0
        assert counts[0][f"{scheme}.dynamics.newton.iters_per_step"] >= 1


def test_missing_name_is_reported_absent():
    tracer = tracing.Tracer()
    module = types.ModuleType("retired")
    tracer.patch(module, "fd_jacobian", "dynamics.jacobian")
    assert tracer.absent == ["retired.fd_jacobian"]
    assert not hasattr(module, "fd_jacobian")
    assert tracing.layer_metrics(tracer.spans, 0, 0)[
        "collective.dynamics.jacobian.per_step"] == 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.per_layer_names()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bump-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_takes_out_and_scales():
    host = hostspeed.HostSpeed("interpreter")
    reference = host.reference
    # Three samples inside [0, 10): the kernel ran at half speed and the
    # handler spent 1 s in all.
    host.samples = [(1.0, 2 * reference), (4.0, 2 * reference),
                    (7.0, 2 * reference)]
    host.spent = [(1.0, 0.25), (4.0, 0.25), (7.0, 0.5)]
    assert host.busy(0.0, 10.0) == 9.0
    assert host.normalized(0.0, 10.0) == pytest.approx(4.5)
    # Too few samples inside: the nearest ones stand in.
    assert host.normalized(4.5, 5.5) == pytest.approx(0.5)


def test_phases_are_evenly_spaced():
    workload = workloads.WORKLOADS["burgers-n512"]
    shifts = [workloads.phase_shift(7, k, workload.phases)
              for k in range(workload.phases)]
    gaps = [b - a for a, b in zip(shifts, shifts[1:])]
    assert all(abs(g - workloads.L / workload.phases) < 1e-12 for g in gaps)
    assert 0.0 <= shifts[0] < workloads.L / workload.phases
    assert workloads.phase_shift(7) == workloads.phase_shift(7, 0, 1)
