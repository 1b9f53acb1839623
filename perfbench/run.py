"""clebschflow benchmark: time to solution and per-scheme step time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat is a fresh worker process (BLAS pinned to one thread) that
runs ``clebschflow run`` once per scheme on the seeded config.  Repeats
follow one another, one at a time, until the next would end after
``--seconds``; at least three run.  A workload with several phases
cycles through its phase shifts, in whole cycles, at least two.  With
``--trace 0`` each end-to-end metric is the mean over phases of the
median over that phase's repeats.  With ``--trace 1`` only the first
phase runs, and traced and untraced repeats alternate: the traced ones
give the per-layer metrics and the untraced ones the tracing overhead.
Every repeat's diagnostics are checked, and all repeats of one seed and
phase must write byte-identical CSVs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts planned midpoint steps and ``failed`` those not completed or
belonging to a repeat that failed a check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "collective.step_ms": "ms",
    "conventional.step_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = (("p50_ms", "ms"), ("p99_ms", "ms"), ("_us", "us"),
                   ("_ns_per_column", "ns"), (".mb", "MB"),
                   ("mb_computed", "MB"), ("_s", "s"), (".s", "s"),
                   ("overhead_frac", "1"))
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
MIN_UNTRACED, MIN_TRACED = 3, 2
WORKER_LIMIT_S = 170.0


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list:
    names = list(tracing.layer_metrics([], 0, 0))
    return names + ["trace.overhead_frac"]


def tail(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p < 1:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def manifest(args, configs) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            revision = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "phase_shifts": [workloads.phase_shift(args.seed, k, len(configs))
                         for k in range(len(configs))],
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "blas_threads": BLAS_PIN,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_revision": revision,
        "configs": configs,
    }


def run_worker(work: Path, index: int, traced: bool, job: dict) -> dict:
    out_dir = work / f"repeat{index}"
    out_dir.mkdir()
    job = dict(job, trace=traced, out_dir=str(out_dir),
               result_path=str(out_dir / "result.json"))
    job_path = out_dir / "job.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **BLAS_PIN)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                               str(job_path)], cwd=out_dir, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker exceeded {WORKER_LIMIT_S:.0f} s"]}
    if proc.returncode != 0:
        return {"failures": ["worker crashed: " + proc.stderr.strip()[-2000:]]}
    return json.loads(Path(job["result_path"]).read_text())


def counts(rep):
    return {name: value for name, value in rep.get("layers", {}).items()
            if name.endswith(tracing.COUNT_SUFFIXES)}


def median_of(repeats, get):
    """Mean over phases of the median over each phase's repeats, and all
    the values."""
    by_phase = {}
    for rep in repeats:
        value = get(rep)
        if value is not None:
            by_phase.setdefault(rep["phase"], []).append(value)
    values = [v for phase in sorted(by_phase) for v in by_phase[phase]]
    if not values:
        return None, values
    return statistics.fmean(statistics.median(v)
                            for v in by_phase.values()), values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "clebschflow" / "__init__.py").is_file():
        print(f"perfbench: no clebschflow sources under {src}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    phases = 1 if args.trace else workload.phases
    configs = [workloads.make_config(workload, args.seed, phase=k)
               for k in range(phases)]
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=workroot) as tmp:
        work = Path(tmp)
        jobs = []
        for k, config in enumerate(configs):
            config_path = work / f"config{k}.json"
            config_path.write_text(json.dumps(config, indent=2))
            jobs.append({"src": str(src), "workload": workload.name,
                         "config_path": str(config_path)})
        untraced, traced, durations = [], [], []
        while True:
            elapsed = time.perf_counter() - start
            estimate = statistics.median(durations) if durations else 0.0
            short = (len(untraced) < max(MIN_UNTRACED, 2 * phases)
                     if not args.trace else
                     len(untraced) < 1 or len(traced) < MIN_TRACED)
            cycle_left = phases - len(untraced) % phases
            if (not short and cycle_left == phases
                    and elapsed + phases * estimate > args.seconds):
                break
            if elapsed + estimate > WORKER_LIMIT_S - 10:
                break
            tracing_now = bool(args.trace) and len(traced) <= len(untraced)
            phase = 0 if tracing_now else len(untraced) % phases
            began = time.perf_counter()
            result = run_worker(work, len(durations), tracing_now, jobs[phase])
            durations.append(time.perf_counter() - began)
            result["phase"] = phase
            (traced if tracing_now else untraced).append(result)
    try:
        workroot.rmdir()
    except OSError:
        pass

    repeats = untraced + traced
    planned = round(configs[0]["t_end"] / configs[0]["dt"])
    first = {}
    for rep in repeats:
        if "digests" in rep:
            first.setdefault(rep["phase"], rep["digests"])
    first_counts = counts(traced[0]) if traced else None
    attempted = failed = 0
    failures = []
    for i, rep in enumerate(repeats):
        problems = list(rep["failures"])
        if rep.get("digests") != first.get(rep["phase"]):
            problems.append("CSV output differs from the first repeat of "
                            "its phase")
        if rep in traced and counts(rep) != first_counts:
            problems.append("per-step counts differ from the first traced "
                            "repeat")
        attempted += 2 * planned
        if problems:
            failed += 2 * planned
            failures += [f"repeat {i}: {p}" for p in problems]
        else:
            failed += sum(planned - (c or 0) for c in rep["completed"].values())

    e2e = {
        "wall_s": median_of(untraced, lambda r: r.get("wall_s")),
        "setup_s": median_of(untraced, lambda r: r.get("setup_s")),
        "peak_rss_mb": median_of(untraced, lambda r: r.get("peak_rss_mb")),
    }
    for scheme in tracing.SCHEMES:
        e2e[f"{scheme}.step_ms"] = median_of(
            untraced, lambda r, s=scheme: r.get("step_ms", {}).get(s))

    if args.trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        if not layers:
            print("perfbench: no traced repeat finished", file=sys.stderr)
            return 1
        values = {name: statistics.median(lay[name] for lay in layers)
                  for name in layers[0]}
        traced_wall = statistics.median(r["raw"]["wall_s"] for r in traced
                                        if "raw" in r)
        untraced_wall = median_of(untraced,
                                  lambda r: r.get("raw", {}).get("wall_s"))[0]
        values["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0
                                         if untraced_wall else 0.0)
        metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                   for name in per_layer_names()}
    else:
        if any(med is None for med, _ in e2e.values()):
            print("perfbench: no repeat produced timings: "
                  + "; ".join(failures), file=sys.stderr)
            return 1
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(f"{'metric':44} {'unit':>6} {'median':>14}  samples")
    for name, unit in END_TO_END.items():
        med, values = e2e[name]
        spread = tail(values)
        extra = f"  p{spread[0]}={spread[1]:.6g}" if spread else ""
        shown = "n/a" if med is None else f"{med:.6g}"
        print(f"{name:44} {unit:>6} {shown:>14}  n={len(values)}{extra}")
    print(f"{'failed_step_frac':44} {'1':>6} {failed / attempted:>14.6g}  "
          f"n={len(repeats)}")
    if args.trace:
        for name, entry in metrics.items():
            print(f"{name:44} {entry['unit']:>6} {entry['value']:>14.6g}")
    for line in failures:
        print(f"FAILED {line}")
    info = manifest(args, configs)
    info["numpy"] = next((r["numpy"] for r in repeats if "numpy" in r), None)
    info["repeats"] = {"untraced": len(untraced), "traced": len(traced)}
    info["samples"] = {name: values for name, (_, values) in e2e.items()}
    info["raw_samples"] = {
        name: [raw.get(name) for raw in (r.get("raw", {}) for r in untraced)]
        for name in ("wall_s", "setup_s")}
    for scheme in tracing.SCHEMES:
        info["raw_samples"][f"{scheme}.step_ms"] = [
            r.get("raw", {}).get("step_ms", {}).get(scheme) for r in untraced]
    info["host_kernel_ms"] = [r.get("host_kernel_ms") for r in untraced]
    info["absent_spans"] = sorted({a for r in repeats for a in r.get("absent", [])})
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
