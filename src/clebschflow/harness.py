"""Experiment orchestration: presets, diagnostics, convergence tables and
CSV export.

A run samples the initial profile on the full grid, integrates one or both
schemes from identical data, and emits one diagnostics record per
observation interval.  Relative errors are signed, (value(0) - value(t)) /
value(0).  Solution errors compare against an exact reference when one is
known for the configuration (characteristics for quadratic densities, the
translated wave profile for the travelling-wave preset) and are omitted
otherwise.

Comparison conventions: the lifted method is compared on the half grid
(where its recovered field lives) and its Casimir is evaluated there; the
direct method uses the full grid for both.  A convergence study against
the fine-grid reference makes one refined run per level and restricts it
to both node sets.

Each CSV is rendered from one header line and one ``str.format`` row
template: numbers carry 17 significant digits, a missing solution error is
an empty cell and the absent Nyquist mode of an odd grid reads ``nan``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import (
    asdict, dataclass, field as dataclass_field, fields, is_dataclass, replace)
from typing import Callable, Optional, get_type_hints

import numpy as np

from .clebsch import lift, momentum_arrays
from .dynamics import (
    NewtonConfig,
    collective_flat_field,
    conventional_flat_field,
    integrate,
    pack_state,
    unpack_state,
)
from .grid import Field, PeriodicGrid, Staggering, StaggeringError
from .hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    casimir,
    discrete_H_collective,
    discrete_H_conventional,
)
from . import reference as ref_mod

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "DiagnosticsRecord",
    "MethodRun",
    "ExperimentResult",
    "ConvergenceLevel",
    "COLLECTIVE",
    "CONVENTIONAL",
    "MAX_STEPS",
    "PRESETS",
    "TRAVELLING_WAVE_PARAMS",
    "preset_config",
    "fourier_modes",
    "solution_error",
    "resolve_initial_condition",
    "run_experiment",
    "convergence_study",
    "records_to_csv",
    "finals_to_csv",
    "emit_gnuplot_script",
    "config_from_dict",
    "config_to_dict",
]

COLLECTIVE = "collective"
CONVENTIONAL = "conventional"
_METHODS = (COLLECTIVE, CONVENTIONAL, "both")

#: Largest step count a run may ask for, about 390 times the longest preset.
MAX_STEPS = 10 ** 8


class ConfigError(ValueError):
    """A configuration value or key is not usable."""


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "both"
    spec: HamiltonianSpec = BURGERS
    N: int = 64
    L: float = 8.0
    dt: float = 2.0 ** -12
    t_end: float = 1.3701171875  # 5612 steps of dt
    initial_condition: str = "cosine-bump"
    observe_every: int = 1
    newton: NewtonConfig = dataclass_field(default_factory=NewtonConfig)
    output_path: Optional[str] = None

    def validate(self) -> None:
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, "
                              f"got {self.method!r}")
        if self.N < 3:
            raise ConfigError(f"need N >= 3, got {self.N}")
        if not self.L > 0:
            raise ConfigError("L must be positive")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ConfigError(f"t_end / dt = {self.t_end / self.dt:.3g} "
                              f"steps; at most {MAX_STEPS} are allowed")
        if self.observe_every < 1:
            raise ConfigError("observe_every must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass(frozen=True)
class DiagnosticsRecord:
    method: str
    step: int
    t: float
    H_hat: float
    casimir: float
    H_rel_err: float
    casimir_rel_err: float
    solution_rel_err: Optional[float]
    fourier_amp: np.ndarray
    nyquist_amp: float
    newton_iters: int


@dataclass
class MethodRun:
    method: str
    records: list
    finals: dict
    converged: bool
    failed_step: Optional[int] = None


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    grid: PeriodicGrid
    runs: list

    @property
    def converged(self) -> bool:
        return all(run.converged for run in self.runs)

    def run_for(self, method: str) -> MethodRun:
        for run in self.runs:
            if run.method == method:
                return run
        raise KeyError(f"no {method} run in this result")

    def records_interleaved(self) -> list:
        """All records ordered by step, lifted method first within a step."""
        order = {COLLECTIVE: 0, CONVENTIONAL: 1}
        merged = [rec for run in self.runs for rec in run.records]
        merged.sort(key=lambda r: (r.step, order[r.method]))
        return merged


# -- diagnostics ------------------------------------------------------------------

def fourier_modes(u: Field) -> np.ndarray:
    """Nonnegative amplitudes |DFT(u)_k| / N for k = 0 .. N//2.

    For odd N the Nyquist mode does not exist and the table simply stops at
    (N-1)//2; callers flag that case via the record's nyquist column.
    """
    v = u.values
    return np.abs(np.fft.rfft(v)) / v.shape[0]


def solution_error(u_num: Field, u_ref: Field) -> float:
    """Relative discrete L2 distance ||u_num - u_ref|| / ||u_ref||."""
    if u_num.staggering is not u_ref.staggering:
        raise StaggeringError("numerical and reference fields must live on "
                              "the same node set")
    diff = float(np.linalg.norm(u_num.values - u_ref.values))
    denom = float(np.linalg.norm(u_ref.values))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / denom


def _rel_err(v0: float, v: float) -> float:
    return (v0 - v) / (v0 if v0 != 0.0 else 1.0)


# -- initial conditions -------------------------------------------------------------

#: Frozen wave-frame parameters (f(0), f''(0), c) of an L = 8 periodic
#: travelling wave of the extended Burgers' flow, crest pinned at s = 0 by
#: f'(0) = 0.  Found by period-tuning the closed orbits of the wave-frame
#: reduction; the profile closes up to ~1e-14 over one period.
TRAVELLING_WAVE_PARAMS = (1.15, -0.1073784320582456, -0.4796968369753656)
TRAVELLING_WAVE_L = 8.0

#: The grammar of ``custom:`` profiles: numbers, these names, these
#: functions called with positional arguments, + - * / ** and unary +/-.
_PROFILE_NAMES = ("x", "L", "pi")
_PROFILE_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "tan": np.tan,
                      "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs}
_PROFILE_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_PROFILE_UNARYOPS = (ast.UAdd, ast.USub)


def _check_profile_node(node: ast.AST, expr: str) -> None:
    """Raise ConfigError unless the tree is inside the profile grammar."""
    if isinstance(node, ast.Expression):
        children = [node.body]
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        children = []
    elif isinstance(node, ast.Name) and node.id in _PROFILE_NAMES:
        children = []
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _PROFILE_BINOPS):
        children = [node.left, node.right]
    elif (isinstance(node, ast.UnaryOp)
          and isinstance(node.op, _PROFILE_UNARYOPS)):
        children = [node.operand]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _PROFILE_FUNCTIONS and not node.keywords):
        children = node.args
    else:
        what = (node.id if isinstance(node, ast.Name)
                else type(node).__name__)
        raise ConfigError(
            f"custom profile {expr!r}: {what} is not allowed; use numbers, "
            f"x, L, pi, + - * / **, and calls to "
            f"{', '.join(_PROFILE_FUNCTIONS)}")
    for child in children:
        _check_profile_node(child, expr)


def _custom_profile(expr: str, L: float) -> Callable:
    """Compile a ``custom:`` expression in x once, after checking it
    against the profile grammar."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
        _check_profile_node(tree, expr)
        code = compile(tree, "<custom profile>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ConfigError(f"cannot parse custom profile {expr!r}: "
                          f"{str(exc) or type(exc).__name__}")
    namespace = dict(_PROFILE_FUNCTIONS, pi=np.pi, L=L)
    no_builtins = {"__builtins__": {}}

    def profile(x):
        x = np.asarray(x, dtype=float)
        try:
            value = eval(code, no_builtins, dict(namespace, x=x))  # noqa: S307
        except Exception as exc:
            raise ConfigError(f"cannot evaluate custom profile {expr!r}: {exc}")
        arr = np.asarray(value, dtype=float)
        if arr.shape != x.shape:
            arr = np.broadcast_to(arr, x.shape).copy()
        return arr

    return profile


def _travelling_wave_profile(spec: HamiltonianSpec, L: float) -> Callable:
    if spec != EXTENDED_BURGERS:
        raise ConfigError(
            "the frozen travelling wave solves the extended Burgers' flow; "
            "use spec (1/2, 1/2, -1/4, 1/2) with this initial condition")
    if abs(L - TRAVELLING_WAVE_L) > 1e-12:
        raise ConfigError(
            f"frozen travelling wave has period {TRAVELLING_WAVE_L}, "
            f"requested L = {L}")
    f0, f2, c = TRAVELLING_WAVE_PARAMS
    rhs = ref_mod.travelling_wave_ode(spec, c)
    sol = ref_mod.integrate_ode_adaptive(rhs, [f0, 0.0, f2], (0.0, L),
                                         rel_tol=1e-12, abs_tol=1e-13)

    def profile(x):
        return sol(np.mod(x, L))[..., 0]

    return profile


@dataclass
class InitialCondition:
    name: str
    profile: Callable
    #: exact solution sampler (times, nodes) -> one entry per time: the
    #: values at the nodes, or None where the reference is not valid
    reference: Optional[Callable] = None


def _characteristics_reference(profile: Callable, spec: HamiltonianSpec,
                               L: float) -> Callable:
    advection = 6.0 * spec.C1

    def wrapped(y):
        return profile(np.mod(y, L))

    t_star = ref_mod.burgers_shock_time(wrapped, L, advection=advection)

    def solve(t, nodes):
        try:
            return ref_mod.burgers_characteristics(wrapped, nodes, t,
                                                   advection=advection)
        except ref_mod.NonConvergenceError:
            return None

    def sample(times, nodes):
        exact = [None] * len(times)
        valid = [k for k, t in enumerate(times) if t < 0.98 * t_star]
        if not valid:
            return exact
        rows = solve(np.array([times[k] for k in valid]), nodes)
        if rows is None:
            # one time that fails fails its block: solve the block again one
            # time at a time, so only the failing times lose their values
            rows = [solve(times[k], nodes) for k in valid]
        for k, row in zip(valid, rows):
            exact[k] = row
        return exact

    return sample


def _travelling_wave_reference(profile: Callable, c: float,
                               L: float) -> Callable:
    def sample(times, nodes):
        return [profile(np.mod(nodes - c * t, L)) for t in times]

    return sample


def resolve_initial_condition(config: ExperimentConfig) -> InitialCondition:
    """Profile callable plus an exact-solution sampler where one is known."""
    name = config.initial_condition
    L = config.L
    spec = config.spec
    if name == "cosine-bump":
        profile = lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * np.asarray(x) / L)
    elif name == "periodic-bump":
        profile = lambda x: 1.0 + 0.5 * np.exp(
            -np.sin(np.pi * np.asarray(x) / L) ** 2)
    elif name == "travelling-wave":
        profile = _travelling_wave_profile(spec, L)
    elif name.startswith("custom:"):
        profile = _custom_profile(name[len("custom:"):], L)
    else:
        raise ConfigError(f"unknown initial condition {name!r}")

    reference = None
    quadratic = spec.C2 == 0.0 and spec.C3 == 0.0 and spec.C4 == 0.0
    if quadratic and spec.C1 != 0.0:
        reference = _characteristics_reference(profile, spec, L)
    elif name == "travelling-wave":
        reference = _travelling_wave_reference(
            profile, TRAVELLING_WAVE_PARAMS[2], L)
    return InitialCondition(name, profile, reference)


# -- experiment drivers --------------------------------------------------------------

#: Observation times the exact reference is asked for in one call.  The
#: characteristics oracle solves a block in one vectorised Newton iteration
#: for a fraction of the cost of separate calls; 64 rows of N values stay
#: small next to the run.
REFERENCE_BLOCK = 64


def _observation_steps(first: int, every: int, n_steps: int,
                       count: int) -> list:
    """Up to ``count`` planned observation steps from ``first`` (itself a
    planned step) on: the multiples of ``every`` up to ``n_steps``, and
    ``n_steps``."""
    steps = list(range(first, n_steps + 1, every)[:count])
    if len(steps) < count and steps[-1:] != [n_steps]:
        steps.append(n_steps)
    return steps


def _run_one_method(method: str, config: ExperimentConfig,
                    grid: PeriodicGrid, u0: Field,
                    reference: Optional[Callable]) -> MethodRun:
    spec = config.spec
    N, dx = grid.N, grid.dx
    nyquist_ok = N % 2 == 0

    if method == COLLECTIVE:
        state0 = lift(grid, u0)
        winding = state0.C
        z0 = pack_state(state0)
        rhs = collective_flat_field(spec, grid, winding)
        compare = Staggering.HALF

        def recover(z):
            return Field.half(momentum_arrays(dx, winding, z[:N], z[N:])[0])

        def energy(z):
            return discrete_H_collective(spec, dx, winding, z[:N], z[N:])
    else:
        z0 = u0.values.copy()
        rhs = conventional_flat_field(spec, grid)
        compare = Staggering.FULL

        def recover(z):
            return Field.full(z)

        def energy(z):
            return discrete_H_conventional(spec, dx, z)

    nodes = grid.nodes(compare)
    H0 = energy(z0)
    cas0 = casimir(grid, recover(z0))
    records = []
    n_steps = config.n_steps
    # Exact values by step for the block of observations being worked
    # through.  A miss solves the next REFERENCE_BLOCK planned observations
    # at once, at the same t = step * dt that integrate passes; step 0 is
    # observed before the loop starts and is solved alone, so no block solve
    # falls into the set-up.
    exact_by_step = {}

    def exact_at(step):
        if step not in exact_by_step:
            steps = _observation_steps(step, config.observe_every, n_steps,
                                       REFERENCE_BLOCK if step else 1)
            exact_by_step.update(zip(
                steps, reference([s * config.dt for s in steps], nodes)))
        return exact_by_step.pop(step)

    def observe(step, t, z, newton_iters):
        u = recover(z)
        H = energy(z)
        cas = casimir(grid, u)
        amps = fourier_modes(u)
        sol_err = None
        if reference is not None:
            exact = exact_at(step)
            if exact is not None:
                sol_err = solution_error(u, Field(exact, compare))
        records.append(DiagnosticsRecord(
            method=method,
            step=step,
            t=t,
            H_hat=H,
            casimir=cas,
            H_rel_err=_rel_err(H0, H),
            casimir_rel_err=_rel_err(cas0, cas),
            solution_rel_err=sol_err,
            fourier_amp=amps,
            nyquist_amp=float(amps[-1]) if nyquist_ok else math.nan,
            newton_iters=newton_iters,
        ))

    observe(0, 0.0, z0, 0)

    def observer(step, t, z, report):
        if step % config.observe_every == 0 or step == n_steps:
            observe(step, t, z, report.newton_iterations)

    result = integrate(rhs, z0, config.dt, n_steps, config.newton, observer)
    finals = {"u": recover(result.z)}
    if method == COLLECTIVE:
        final_state = unpack_state(result.z, winding)
        finals["q"] = final_state.q
        finals["p"] = final_state.p
    failed_step = result.failure.step if result.failure is not None else None
    return MethodRun(method, records, finals, result.converged, failed_step)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment and collect diagnostics records.

    Newton failure in either scheme does not raise: the affected run is
    flagged and keeps every record collected before the failing step, which
    is the honest endpoint of a diverging scheme.  An initial profile that
    is not finite at every node raises ConfigError.
    """
    config.validate()
    grid = PeriodicGrid(config.N, config.L)
    # a profile that is not finite everywhere is reported once, below
    with np.errstate(all="ignore"):
        ic = resolve_initial_condition(config)
        u0 = Field.full(np.asarray(ic.profile(grid.full_nodes), dtype=float))
    if not np.all(np.isfinite(u0.values)):
        raise ConfigError(f"initial condition {ic.name!r} is not finite at "
                          f"every grid node")
    methods = ([COLLECTIVE, CONVENTIONAL] if config.method == "both"
               else [config.method])
    runs = [_run_one_method(m, config, grid, u0, ic.reference)
            for m in methods]
    return ExperimentResult(config, grid, runs)


@dataclass(frozen=True)
class ConvergenceLevel:
    method: str
    N: int
    dx: float
    casimir_err: float
    H_err: float
    solution_err: float
    observed_order: Optional[float]


def convergence_study(base_config: ExperimentConfig, levels,
                      reference: str = "auto") -> list:
    """Fixed-dt grid sweep; errors taken at the final step of each run.

    ``reference`` picks the exact-solution source for the final-time
    comparison: "auto" uses the configuration's own reference (it must have
    one), "fine-grid" substitutes a refined run of the lifted scheme, one
    per level, restricted to the node sets of both schemes.
    Observed order between consecutive levels is log2(err_k / err_{k+1}),
    attached to the finer level.
    """
    levels = list(levels)
    if not levels:
        raise ConfigError("need at least one grid level")
    if reference not in ("auto", "fine-grid"):
        raise ConfigError(f"unknown reference source {reference!r}")
    rows = {}
    # the profile and its reference do not depend on N
    ic = resolve_initial_condition(base_config)
    if reference == "auto" and ic.reference is None:
        raise ConfigError("configuration has no exact reference; use "
                          "reference='fine-grid'")
    for N in levels:
        config = replace(base_config, N=N, output_path=None)
        result = run_experiment(config)
        t_final = config.n_steps * config.dt
        for run in result.runs:
            if not run.converged:
                raise ref_mod.NonConvergenceError(
                    f"{run.method} run diverged at level N={N}",
                    step=run.failed_step)
        if reference == "fine-grid":
            exact = ref_mod.fine_grid_reference(
                config.spec, result.grid, ic.profile, config.dt, t_final)
        for run in result.runs:
            u = run.finals["u"]
            if reference == "auto":
                values = ic.reference([t_final],
                                      result.grid.nodes(u.staggering))[0]
                if values is None:
                    raise ConfigError(
                        "exact reference invalid at the final time; use "
                        "reference='fine-grid'")
                exact = {u.staggering: Field(values, u.staggering)}
            final = run.records[-1]
            rows.setdefault(run.method, []).append(ConvergenceLevel(
                method=run.method,
                N=N,
                dx=result.grid.dx,
                casimir_err=abs(final.casimir_rel_err),
                H_err=abs(final.H_rel_err),
                solution_err=solution_error(u, exact[u.staggering]),
                observed_order=None,
            ))
    table = []
    for method in rows:
        seq = rows[method]
        for k, row in enumerate(seq):
            if k > 0 and row.solution_err > 0 and seq[k - 1].solution_err > 0:
                order = math.log2(seq[k - 1].solution_err / row.solution_err)
                row = replace(row, observed_order=order)
            table.append(row)
    return table


# -- CSV / plotting output --------------------------------------------------------------

def records_to_csv(result: ExperimentResult) -> str:
    """Render the interleaved record stream as CSV text (17 significant
    digits, bit-stable across identical runs).  Every record carries the
    N//2+1 amplitudes of the shared grid; a missing solution error is an
    empty cell and an absent Nyquist mode reads ``nan``."""
    n_amp = result.grid.N // 2 + 1
    header = ("method,step,t,H_hat,casimir,H_rel_err,casimir_rel_err,"
              "solution_rel_err,newton_iters,nyquist_amp"
              + "".join(f",amp_{k}" for k in range(n_amp)) + "\n")
    row = ("{},{},{:.17g},{:.17g},{:.17g},{:.17g},{:.17g},{},{},{:.17g}"
           + ",{:.17g}" * n_amp + "\n")
    return header + "".join(
        row.format(rec.method, rec.step, rec.t, rec.H_hat, rec.casimir,
                   rec.H_rel_err, rec.casimir_rel_err,
                   "" if rec.solution_rel_err is None
                   else format(rec.solution_rel_err, ".17g"),
                   rec.newton_iters, rec.nyquist_amp,
                   *rec.fourier_amp.tolist())
        for rec in result.records_interleaved())


def finals_to_csv(result: ExperimentResult) -> str:
    """Sidecar CSV with the final fields (u, plus q and p when lifted)."""
    row = "{},{},{},{:.17g},{:.17g}\n"
    lines = ["method,field,index,x,value\n"]
    for run in result.runs:
        for name, f in run.finals.items():
            xs = result.grid.nodes(f.staggering).tolist()
            lines += [row.format(run.method, name, j, x, v) for j, (x, v)
                      in enumerate(zip(xs, f.values.tolist()), start=1)]
    return "".join(lines)


def emit_gnuplot_script(csv_path: str, script_path: str) -> str:
    """gnuplot commands plotting the headline diagnostics from a run CSV."""
    text = f"""# gnuplot script generated alongside {csv_path}
set datafile separator ","
set key autotitle columnhead
set xlabel "t"
set terminal pngcairo size 900,600

set output "energy_error.png"
set ylabel "relative energy error"
plot "{csv_path}" using 3:6 with lines

set output "casimir_error.png"
set ylabel "relative Casimir error"
plot "{csv_path}" using 3:7 with lines

set output "nyquist.png"
set ylabel "highest-mode amplitude"
set logscale y
plot "{csv_path}" using 3:10 with lines
"""
    with open(script_path, "w") as handle:
        handle.write(text)
    return text


# -- JSON config ---------------------------------------------------------------------

def _config_value(kind, value, key: str):
    """Check one parsed JSON value against its field's annotated type."""
    if is_dataclass(kind):
        return _config_object(kind, value, key)
    if kind == Optional[str] and value is None:
        return None
    if kind in (str, Optional[str]):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _config_object(cls, data, path: str):
    """Build the dataclass ``cls`` from a JSON object found at ``path`` ("" at
    the top level).  Fields left out take their defaults; unknown keys,
    mistyped values and values the class rejects are ConfigErrors."""
    label = path or "configuration"
    names = [f.name for f in fields(cls)]
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be a JSON object with keys {names}")
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown)}")
    kinds = get_type_hints(cls)
    values = {name: _config_value(kinds[name], data[name],
                                  f"{path}.{name}" if path else name)
              for name in names if name in data}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from parsed JSON; unknown keys, values of the
    wrong type and out-of-range values are errors."""
    config = _config_object(ExperimentConfig, data, "")
    config.validate()
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


# -- presets ------------------------------------------------------------------------

PRESETS = {
    "burgers-shock": ExperimentConfig(
        method="both", spec=BURGERS, N=64, L=8.0, dt=2.0 ** -12,
        t_end=1.3701171875, initial_condition="cosine-bump", observe_every=4),
    "periodic-bump": ExperimentConfig(
        method="both", spec=EXTENDED_BURGERS, N=32, L=8.0, dt=2.0 ** -8,
        t_end=1000.0, initial_condition="periodic-bump", observe_every=64),
    "travelling-wave": ExperimentConfig(
        method="both", spec=EXTENDED_BURGERS, N=16, L=8.0, dt=2.0 ** -6,
        t_end=437.0, initial_condition="travelling-wave", observe_every=16),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; "
                          f"available: {sorted(PRESETS)}")
