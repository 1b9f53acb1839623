"""Command line front end.

Subcommands:

    run       integrate one experiment and write its diagnostics CSV
    converge  run a grid sweep and print the error/order table
    presets   list the built-in experiment presets, or print one as JSON

Flags given on the command line override values from ``--config``.  The
environment variable ``CLEBSCHFLOW_OUTDIR`` sets the default output
directory.  Output paths are checked before any step runs.  Exit status:
0 on success, 1 on configuration errors (an output path that cannot be
written included), 2 when a scheme's Newton iterations failed to converge
(``run`` still writes the partial data, ``converge`` writes no table).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .dynamics import NonConvergenceError
from .harness import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    config_from_dict,
    config_to_dict,
    convergence_study,
    emit_gnuplot_script,
    finals_to_csv,
    preset_config,
    records_to_csv,
    run_experiment,
)

OUTDIR_ENV = "CLEBSCHFLOW_OUTDIR"


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit status 1), keeping
    exit status 2 reserved for solver non-convergence."""

    def error(self, message):
        raise ConfigError(message)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON experiment configuration file")
    parser.add_argument("--method",
                        choices=["collective", "conventional", "both"])
    parser.add_argument("--N", type=int, help="grid node count")
    parser.add_argument("--L", type=float, help="circle circumference")
    parser.add_argument("--dt", type=float, help="time step")
    parser.add_argument("--t-end", type=float, dest="t_end",
                        help="final time (steps = round(t_end/dt))")
    parser.add_argument("--ic", dest="initial_condition",
                        help="initial condition name or custom:<expression>")
    parser.add_argument("--observe-every", type=int, dest="observe_every",
                        help="record diagnostics every this many steps")
    parser.add_argument("--out", help="output CSV path")


def _levels(text: str) -> list:
    """Grid sizes from a comma-separated list such as ``8,16,32``."""
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _load_base_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"cannot parse {args.config}: {exc}")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}")
        return config_from_dict(data)
    return ExperimentConfig()


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    for key in ("method", "N", "L", "dt", "t_end", "initial_condition",
                "observe_every"):
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    if getattr(args, "out", None) is not None:
        updates["output_path"] = args.out
    if updates:
        config = replace(config, **updates)
    config.validate()
    return config


def _output_path(config: ExperimentConfig, default_name: str) -> Path:
    if config.output_path:
        return Path(config.output_path)
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    return outdir / default_name


@contextlib.contextmanager
def _writing(path: Path):
    """Turn an OSError raised inside the block into a configuration error
    naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _check_writable(path: Path) -> None:
    """Create the directory of ``path`` and open the file for appending,
    so an unwritable path fails before the run; a file the check creates
    is removed again."""
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        with open(path, "a"):
            pass
        if not existed:
            path.unlink()


def _cmd_run(args) -> int:
    config = _apply_overrides(_load_base_config(args), args)
    csv_path = _output_path(config, "run.csv")
    final_path = csv_path.with_name(csv_path.stem + "_final.csv")
    script_path = csv_path.with_suffix(".gp") if args.emit_plots else None
    for path in (csv_path, final_path, script_path):
        if path is not None:
            _check_writable(path)
    result = run_experiment(config)
    with _writing(csv_path):
        csv_path.write_text(records_to_csv(result))
    with _writing(final_path):
        final_path.write_text(finals_to_csv(result))
    print(f"wrote {csv_path} and {final_path}")
    if script_path is not None:
        with _writing(script_path):
            emit_gnuplot_script(str(csv_path), str(script_path),
                                [run.method for run in result.runs])
        print(f"wrote {script_path}")
    reached = config.n_steps * config.dt
    if abs(reached - config.t_end) > 1e-12 * max(1.0, abs(config.t_end)):
        print(f"t_end = {config.t_end:.12g} is not a multiple of dt = "
              f"{config.dt:.12g}; rounded to the step grid, "
              f"t = {reached:.12g}")
    for run in result.runs:
        if run.converged:
            print(f"{run.method}: completed {config.n_steps} steps "
                  f"to t = {reached:.12g}")
        else:
            print(f"{run.method}: Newton diverged at step {run.failed_step}; "
                  f"partial records written")
        print(f"{run.method}: Newton accepted "
              f"{run.accepted['increments']} steps on increments, "
              f"{run.accepted['residual']} on the residual, "
              f"{run.accepted['floor']} at the roundoff floor")
        print(f"{run.method}: fixed-point iteration accepted "
              f"{run.accepted['fixed-point']} steps in "
              f"{run.fixed_point_rounds} rounds")
    return 0 if result.converged else 2


def _cmd_converge(args) -> int:
    config = _apply_overrides(_load_base_config(args), args)
    if args.out:
        _check_writable(Path(args.out))
    try:
        table = convergence_study(config, args.levels,
                                  reference=args.reference)
    except NonConvergenceError as exc:
        print(f"converge: {exc}; no table written", file=sys.stderr)
        return 2
    header = (f"{'method':>12} {'N':>6} {'dx':>10} {'solution':>12} "
              f"{'H':>12} {'casimir':>12} {'order':>7}")
    lines = [header]
    for row in table:
        order = "" if row.observed_order is None else f"{row.observed_order:7.3f}"
        lines.append(f"{row.method:>12} {row.N:>6} {row.dx:>10.5g} "
                     f"{row.solution_err:>12.5g} {row.H_err:>12.5g} "
                     f"{row.casimir_err:>12.5g} {order:>7}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = Path(args.out)
        rows = ["method,N,dx,solution_err,H_err,casimir_err,observed_order"]
        for row in table:
            order = "" if row.observed_order is None else repr(row.observed_order)
            rows.append(f"{row.method},{row.N},{row.dx!r},{row.solution_err!r},"
                        f"{row.H_err!r},{row.casimir_err!r},{order}")
        with _writing(out):
            out.write_text("\n".join(rows) + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_presets(args) -> int:
    if args.name is None:
        for name in sorted(PRESETS):
            cfg = PRESETS[name]
            print(f"{name}: method={cfg.method} N={cfg.N} L={cfg.L} "
                  f"dt={cfg.dt} t_end={cfg.t_end} ic={cfg.initial_condition}")
        return 0
    print(json.dumps(config_to_dict(preset_config(args.name)), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clebschflow",
        description="Integrate Burgers'-type Hamiltonian PDEs on the circle "
                    "with the lifted symplectic scheme and a skew-gradient "
                    "comparison scheme.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_override_flags(run_p)
    run_p.add_argument("--emit-plots", action="store_true",
                       help="also write a gnuplot script for the CSV")
    run_p.set_defaults(func=_cmd_run)

    conv_p = sub.add_parser("converge", help="grid-refinement error table")
    _add_override_flags(conv_p)
    conv_p.add_argument("--levels", default="4,8,16,32", type=_levels,
                        help="comma-separated grid sizes")
    conv_p.add_argument("--reference", default="auto",
                        choices=["auto", "fine-grid"],
                        help="exact-solution source for the comparison")
    conv_p.set_defaults(func=_cmd_converge)

    preset_p = sub.add_parser("presets", help="list or print presets")
    preset_p.add_argument("name", nargs="?", help="print this preset as JSON")
    preset_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
