"""Print the sha256 of every CSV a fixed set of runs writes, to check that
a change leaves the program's output byte-identical.

Usage, from the root of a checkout:

    python3 tools/output_digests.py [--seeds 1 7] [--full burgers-shock]

The runs go through ``clebschflow.cli.main(["run", ...])`` of the
checkout's ``src`` and write a diagnostics CSV and its ``_final.csv``
each:

- every benchmark workload (configs from ``perfbench/workloads.py``) at
  each seed and, for ``burgers-n512``, each of its phases, run as
  ``collective``, ``conventional`` and ``both``;
- every preset cut to 64 steps, or in full when named by ``--full``;
- an odd-N run (the ``burgers-shock`` preset at N = 15, 64 steps) and a
  diverged run (the conventional scheme at dt = 64 with a Newton budget
  of 3).

One line per file gives its digest and name; the last line is the digest
of all the lines before it.  Run it in two checkouts and compare the last
lines, or diff the whole outputs to find the file that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from clebschflow import cli  # noqa: E402
from clebschflow.harness import PRESETS, config_to_dict  # noqa: E402
import workloads  # noqa: E402

METHODS = ("collective", "conventional", "both")
PRESET_STEPS = 64


def cases(seeds, full):
    """(name, config dict, methods) of every run, in a fixed order."""
    for workload in workloads.WORKLOADS.values():
        for seed in seeds:
            for phase in range(workload.phases):
                config = workloads.make_config(workload, seed, phase=phase)
                yield f"{workload.name}-s{seed}-p{phase}", config, METHODS
    for name, preset in PRESETS.items():
        config = config_to_dict(preset)
        if name not in full:
            config["t_end"] = PRESET_STEPS * config["dt"]
        yield name, config, ("both",)
    odd = config_to_dict(PRESETS["burgers-shock"])
    odd.update(N=15, t_end=PRESET_STEPS * odd["dt"], observe_every=3)
    yield "odd-N15", odd, ("both",)
    yield "diverged", {"method": "conventional", "N": 16, "dt": 64.0,
                       "t_end": 640.0, "initial_condition": "cosine-bump",
                       "observe_every": 1, "newton": {"max_iter": 3}}, \
        ("conventional",)


def digests(seeds, full, work: Path):
    """Yield one ``digest  name`` line per CSV written."""
    for name, config, methods in cases(seeds, full):
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        for method in methods:
            csv_path = work / f"{name}-{method}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", str(config_path),
                                 "--method", method, "--out", str(csv_path)])
            if code == 1:
                raise SystemExit(f"{name} ({method}): configuration error")
            for path in (csv_path,
                         csv_path.with_name(csv_path.stem + "_final.csv")):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                yield f"{digest}  {path.name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print the sha256 of every CSV a fixed set of runs "
                    "writes.")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7],
                        help="benchmark workload seeds (default: 1 7)")
    parser.add_argument("--full", nargs="*", default=[],
                        choices=sorted(PRESETS),
                        help="presets to run in full rather than cut to "
                             f"{PRESET_STEPS} steps")
    args = parser.parse_args(argv)
    lines = []
    with tempfile.TemporaryDirectory() as work:
        for line in digests(args.seeds, set(args.full), Path(work)):
            print(line, flush=True)
            lines.append(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  all {len(lines)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
