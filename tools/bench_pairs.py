"""Alternating parent/change pairs of the benchmark, summarised per metric.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        --workload NAME --seeds 1 2 3 4 5 [--seconds 40] [--out FILE]

For each seed, ``perfbench/run.py --trace 0`` runs once in each checkout,
the parent first in even pairs and the change first in odd ones, so a
slow drift of the host falls on both sides alike.  The two checkout paths
must have the same length: the same tree has timed differently from
directories whose names differ in length, so the tool refuses such a pair
with one line and exit status 2.

It prints, per end-to-end metric, the parent's median, the change's
median, the distance between the parent's quartiles and in how many pairs
the change read lower (every metric is better lower), then per side the
runs whose repeats all passed the benchmark's checks, and every check a
repeat failed.  ``--out`` writes the same summary with both sides'
quartiles, every pair's metrics, ``correct`` flags and failed checks, and
the host (CPU, CPU count, Python, numpy and the BLAS thread pin, from the
benchmark's manifest) to a JSON file, keyed by workload: an existing file
keeps its other workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import END_TO_END  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
HOST_KEYS = ("cpu", "nproc", "python", "numpy", "blas_threads")


def run_bench(checkout: str, workload: str, seed: int,
              seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` in ``checkout``: its result
    object with the manifest beside it and the checks its repeats failed
    (``failures``, when any did), or an ``error`` when it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "metrics": {},
                "error": proc.stderr.strip()[-2000:]}
    manifest = next((json.loads(line[len("manifest "):]) for line in lines
                     if line.startswith("manifest ")), {})
    result["host"] = {key: manifest.get(key) for key in HOST_KEYS}
    failures = [line[len("FAILED "):] for line in lines
                if line.startswith("FAILED ")]
    if failures:
        result["failures"] = failures
    return result


def run_pairs(parent: str, change: str, workload: str, seeds, seconds,
              runner=run_bench) -> list:
    """One pair per seed, the order flipped every pair."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = parent if side == "parent" else change
            pair[side] = runner(checkout, workload, seed, seconds)
            print(f"pair {i + 1}/{len(seeds)} seed {seed}: {side} done",
                  file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


def value(run: dict, metric: str):
    entry = run.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def quartiles(values: list):
    """[first, third] quartile; one value is both, and none gives None."""
    if len(values) < 2:
        return values * 2 or None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(pairs: list) -> dict:
    """Per metric: the unit, each side's median and quartiles, the pairs in
    which both sides read it, and how many of those the change read
    lower."""
    summary = {}
    for metric, unit in END_TO_END.items():
        medians, spread = {}, {}
        for side in SIDES:
            values = [v for p in pairs
                      if (v := value(p[side], metric)) is not None]
            medians[side] = statistics.median(values) if values else None
            spread[side] = quartiles(values)
        both = [(value(p["parent"], metric), value(p["change"], metric))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        summary[metric] = {
            "unit": unit,
            "parent_median": medians["parent"],
            "change_median": medians["change"],
            "parent_quartiles": spread["parent"],
            "change_quartiles": spread["change"],
            "pairs": len(both),
            "change_lower": sum(b < a for a, b in both),
        }
    return summary


def summary_lines(summary: dict, pairs: list) -> list:
    lines = [f"{'metric':24} {'unit':>4} {'parent':>12} {'change':>12} "
             f"{'diff':>8} {'parent IQR':>12}  change lower"]
    for metric, s in summary.items():
        parent, change = s["parent_median"], s["change_median"]
        if parent is None or change is None:
            shown = f"{'n/a':>12} {'n/a':>12} {'':>8} {'':>12}"
        else:
            diff = f"{100.0 * (change / parent - 1.0):+.1f} %"
            q1, q3 = s["parent_quartiles"]
            shown = (f"{parent:>12.6g} {change:>12.6g} {diff:>8} "
                     f"{q3 - q1:>12.3g}")
        lines.append(f"{metric:24} {s['unit']:>4} {shown}  "
                     f"{s['change_lower']}/{s['pairs']}")
    for side in SIDES:
        wrong = sum(not p[side].get("correct") for p in pairs)
        lines.append(f"{side}: {len(pairs) - wrong} of {len(pairs)} runs "
                     f"correct")
        lines += [f"  seed {p['seed']}: {failure}" for p in pairs
                  for failure in p[side].get("failures", [])]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR")
    parser.add_argument("--change", required=True, metavar="DIR")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if len(parent) != len(change):
        print(f"bench_pairs: {parent} and {change} differ in length "
              f"({len(parent)} against {len(change)} characters); clone "
              f"both under names of equal length", file=sys.stderr)
        return 2

    pairs = run_pairs(parent, change, args.workload, args.seeds, args.seconds)
    summary = summarise(pairs)
    print("\n".join(summary_lines(summary, pairs)))
    if args.out is not None:
        record = (json.loads(args.out.read_text()) if args.out.is_file()
                  else {})
        host = next((p[side]["host"] for p in pairs for side in SIDES
                     if "host" in p[side]), None)
        record[args.workload] = {
            "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}",
            "parent": Path(parent).name, "change": Path(change).name,
            "seeds": args.seeds,
            "host": host, "summary": summary, "pairs": pairs}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
