"""Print the sha256 of every CSV a fixed set of runs writes, to check that
a change leaves the program's output byte-identical, and where it does
not, how far the numbers moved.

Usage, from the root of a checkout:

    python3 tools/output_digests.py [--seeds 1 7] [--full burgers-shock]
                                    [--keep DIR] [--against DIR]

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

Then ``clebschflow converge --method both --levels 8,16`` writes four
error tables, each of a preset cut to 64 steps: ``burgers-shock`` once
with each ``--reference`` (``auto`` and ``fine-grid``), ``periodic-bump``
with ``fine-grid`` (the cubic density, which has no closed-form solution)
and ``travelling-wave`` with ``auto`` (the translated wave profile).

One line per file gives its digest and name; the last line is the digest
of all the digest lines.  Run it in two checkouts and compare the last
lines, or diff the whole outputs to find the file that changed.

``--keep DIR`` writes the CSVs into DIR and leaves them there.
``--against DIR`` compares every CSV with the file of the same name in DIR
(kept by an earlier ``--keep`` run, typically of another checkout): under
the digest line of each file that differs it prints, per column, how many
rows differ and the largest absolute and relative difference.  Numbered
columns such as ``amp_0``, ``amp_1``, ... are folded into ``amp_*``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
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
CONVERGE_LEVELS = "8,16"
#: (preset, --reference) of every convergence table, in order.
CONVERGE_TABLES = (("burgers-shock", "auto"), ("burgers-shock", "fine-grid"),
                   ("periodic-bump", "fine-grid"), ("travelling-wave", "auto"))


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


def differences(path: Path, other: Path):
    """Lines that say, per column, how many rows of ``path`` differ from
    ``other`` and by how much; none when the files are equal."""
    if not other.is_file():
        yield f"    missing from {other.parent}"
        return
    ours, theirs = path.read_text().splitlines(), other.read_text().splitlines()
    if ours == theirs:
        return
    header = ours[0].split(",")
    if theirs[0].split(",") != header or len(theirs) != len(ours):
        yield (f"    shape differs: {len(ours) - 1} rows against "
               f"{len(theirs) - 1}, or another header")
        return
    columns = {}  # folded name -> [rows differing, max abs, max rel]
    for mine, their in zip(ours[1:], theirs[1:]):
        seen = set()
        for name, x, y in zip(header, mine.split(","), their.split(",")):
            if x == y:
                continue
            key = re.sub(r"_\d+$", "_*", name)
            entry = columns.setdefault(key, [0, 0.0, 0.0])
            if key not in seen:
                seen.add(key)
                entry[0] += 1
            try:
                a, b = float(x), float(y)
            except ValueError:  # an empty or text cell
                continue
            gap = abs(a - b)
            scale = max(abs(a), abs(b))
            entry[1] = max(entry[1], gap)
            entry[2] = max(entry[2], gap / scale if scale else 0.0)
    for key, (rows, gap, rel) in columns.items():
        yield (f"    {key}: {rows} of {len(ours) - 1} rows differ, "
               f"max abs {gap:.3g}, max rel {rel:.3g}")


def _clebschflow(argv, label: str) -> None:
    """Run the command line quietly; a configuration error ends the tool."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code == 1:
        raise SystemExit(f"{label}: configuration error")


def _digest(path: Path, against):
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    yield f"{digest}  {path.name}"
    if against is not None:
        yield from differences(path, against / path.name)


def converge_digests(work: Path, against=None):
    """Digest lines of the convergence tables (see the module docstring)."""
    for preset, reference in CONVERGE_TABLES:
        config = config_to_dict(PRESETS[preset])
        config["t_end"] = PRESET_STEPS * config["dt"]
        config_path = work / f"converge-{preset}.json"
        config_path.write_text(json.dumps(config))
        name = f"converge-{preset}-{reference}"
        csv_path = work / f"{name}.csv"
        _clebschflow(["converge", "--config", str(config_path),
                      "--method", "both", "--levels", CONVERGE_LEVELS,
                      "--reference", reference, "--out", str(csv_path)], name)
        yield from _digest(csv_path, against)


def digests(seeds, full, work: Path, against=None):
    """Yield one ``digest  name`` line per CSV written, each followed by
    its differences from the same file in ``against`` when given."""
    for name, config, methods in cases(seeds, full):
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        for method in methods:
            csv_path = work / f"{name}-{method}.csv"
            _clebschflow(["run", "--config", str(config_path),
                          "--method", method, "--out", str(csv_path)],
                         f"{name} ({method})")
            for path in (csv_path,
                         csv_path.with_name(csv_path.stem + "_final.csv")):
                yield from _digest(path, against)
    yield from converge_digests(work, against)


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
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write the CSVs into DIR and keep them")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="report per-column differences from the CSVs "
                             "of the same names in DIR")
    args = parser.parse_args(argv)
    if args.against is not None and not args.against.is_dir():
        parser.error(f"--against {args.against}: not a directory")
    lines = []
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            work = args.keep
            work.mkdir(parents=True, exist_ok=True)
        for line in digests(args.seeds, set(args.full), work, args.against):
            print(line, flush=True)
            if not line.startswith(" "):
                lines.append(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{total}  all {len(lines)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
