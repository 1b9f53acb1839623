"""Experiment orchestration: presets, diagnostics, convergence tables and
CSV export.

A run samples the initial profile on the full grid, integrates one or both
schemes from identical data, and emits one diagnostics record per
observation interval.  Relative errors are signed, (value(0) - value(t)) /
value(0).  Solution errors compare against an exact reference when one is
known for the configuration (characteristics for quadratic densities, the
translated wave profile for the travelling-wave preset) and are omitted
otherwise.  The wave profile is a stored Fourier series, so resolving it
solves no ODE.

Diagnostics are evaluated per block of OBSERVE_BLOCK observed states (64 d
floats per scheme, 4 MB for a lifted N = 4096 run), when it is full and
after the loop: one call per kernel, and one to the exact reference, serve
the block, bitwise as one state at a time would.

Comparison conventions: the lifted method is compared on the half grid
(where its recovered field lives) and its Casimir is evaluated there; the
direct method uses the full grid for both.  Samples are plain arrays, and
the run of each scheme is the one place that says which nodes its u lives
on: each final field is kept with its nodes.  A convergence study is made
of ordinary runs that record only their endpoints; its fine-grid reference
is one more lifted run per level, on a FINE_GRID_REFINE times finer grid
at dt/4, restricted by position to the nodes of each scheme.

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
    NonConvergenceError,
    collective_flat_field,
    conventional_flat_field,
    integrate,
)
from .grid import PeriodicGrid, st_avg
from .hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    _space_sum,
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
    "MAX_N",
    "MAX_STEPS",
    "PRESETS",
    "TRAVELLING_WAVE_PARAMS",
    "TRAVELLING_WAVE_COSINES",
    "TRAVELLING_WAVE_SINES",
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

#: Largest grid a run may ask for: a lifted run keeps 64 observed states of
#: 2N floats each in its observation block (OBSERVE_BLOCK), 1 GiB at this N.
MAX_N = 2 ** 20


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
        if not 3 <= self.N <= MAX_N:
            raise ConfigError(f"need 3 <= N <= {MAX_N}, got {self.N}")
        if not 0 < self.L < math.inf:
            raise ConfigError(f"L must be positive and finite, got {self.L}")
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ConfigError("t_end must be nonnegative and finite, "
                              f"got {self.t_end}")
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
    """One scheme's run.  finals maps each final field's name ("u", and "q"
    and "p" when lifted) to its (nodes, values) pair.  accepted counts the
    completed steps by the test that ended their iteration
    (``StepReport.status``): "increments", "residual" or "floor" for
    Newton, "fixed-point" for plain iteration; fixed_point_rounds is the
    total of the field-call rounds those plain steps made."""

    method: str
    records: list
    finals: dict
    failed_step: Optional[int] = None
    accepted: dict = dataclass_field(default_factory=dict)
    fixed_point_rounds: int = 0

    @property
    def converged(self) -> bool:
        return self.failed_step is None


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

def fourier_modes(u: np.ndarray) -> np.ndarray:
    """Nonnegative amplitudes |DFT(u)_k| / N for k = 0 .. N//2 along axis
    0, one column of amplitudes per column of u.

    For odd N the Nyquist mode does not exist and the table simply stops at
    (N-1)//2; callers flag that case via the record's nyquist column.
    """
    return np.abs(np.fft.rfft(u, axis=0)) / u.shape[0]


def solution_error(u_num: np.ndarray, u_ref: np.ndarray):
    """Relative discrete L2 distance ||u_num - u_ref|| / ||u_ref|| of two
    sample vectors on the same nodes: a float for shape (N,), one distance
    per column for (N, m), each bitwise that of its column alone."""
    diff = np.sqrt(_space_sum(np.square(u_num - u_ref)))
    denom = np.sqrt(_space_sum(np.square(u_ref)))
    # a zero reference gives 0 against itself and inf against anything else
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(denom == 0.0, np.where(diff == 0.0, 0.0, math.inf),
                       diff / denom)
    return float(err) if err.ndim == 0 else err


def _rel_err(v0: float, v: float) -> float:
    return (v0 - v) / (v0 if v0 != 0.0 else 1.0)


# -- initial conditions -------------------------------------------------------------

#: Frozen wave-frame parameters (f(0), f''(0), c) of an L = 8 periodic
#: travelling wave of the extended Burgers' flow, crest pinned at s = 0 by
#: f'(0) = 0.  Found by period-tuning the closed orbits of the wave-frame
#: reduction; the profile closes up to ~1e-14 over one period.
TRAVELLING_WAVE_PARAMS = (1.15, -0.1073784320582456, -0.4796968369753656)
TRAVELLING_WAVE_L = 8.0

#: That wave's profile as a Fourier series,
#: f(x) = sum_k a_k cos(k w x) + b_k sin(k w x), w = 2 pi / L, k = 0..32:
#: the a_k, then the b_k from k = 1.  They are the 256-point FFT of the
#: wave-frame solution from TRAVELLING_WAVE_PARAMS, which
#: tests/test_reference.py solves again to check them; every mode past
#: k = 32 is below 2e-15.  The C4 u_x^3 term makes the profile uneven about
#: its crest, so the sine terms are needed.
TRAVELLING_WAVE_COSINES = (
    0.98611049476591606, 0.15781722615355886, 0.0073432505935135308,
    -0.00095461631908527256, -0.00034576550971783212, 2.8309228320155753e-06,
    2.4943332782218484e-05, 3.9537432450135635e-06, -1.7280759149002413e-06,
    -7.4826407743718782e-07, 5.5525035194747774e-08, 1.0314134574000009e-07,
    1.3848304166364261e-08, -1.0989653101128881e-08, -4.2465523581238586e-09,
    6.6357080649416589e-10, 7.669730890521417e-10, 6.8498301346561526e-11,
    -1.0209497836533681e-10, -3.3411683112578118e-11, 8.6111965927037201e-12,
    7.2934892233877687e-12, 2.6485467170285141e-13, -1.1337160037993309e-12,
    -3.0459517958031991e-13, 1.1936892170777129e-13, 7.9161290812593068e-14,
    -2.3508337722156994e-15, -1.4219162131369639e-14, -2.9951204770529777e-15,
    1.1348953298984089e-15, 1.1458428110234936e-15, 8.4555879226364711e-16,
)
TRAVELLING_WAVE_SINES = (
    -0.021145696607664292, 0.0088576527036439284, 0.0014368597272905737,
    -0.00011032251216593579, -9.1349054073147824e-05, -6.3356844743425041e-06,
    6.7484245177058397e-06, 1.8235871114359079e-06, -3.8520416449952074e-07,
    -2.8602462561224956e-07, -9.5536381796657114e-09, 3.4996477528472446e-08,
    8.5554441098276374e-09, -3.0599762009609097e-09, -1.8798312730470536e-09,
    4.1566302544586702e-11, 2.9101514098644282e-10, 5.7992926652969746e-11,
    -3.2315960674567126e-11, -1.6411838603016882e-11, 1.4603472717163436e-12,
    2.9912155572713757e-12, 4.4616769963179223e-13, -3.9164666576317314e-13,
    -1.6450409421917236e-13, 2.894954467041657e-14, 3.5524384368193194e-14,
    3.5357557235562028e-15, -4.8034450939746399e-15, -1.8115133774329787e-15,
    -3.4765496561702504e-16, 4.4711809351449485e-16,
)

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
    against the profile grammar.  Every number is made a float, so the
    arithmetic never builds a Python big integer."""
    try:
        tree = ast.parse(expr.strip(), mode="eval")
        _check_profile_node(tree, expr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
        code = compile(tree, "<custom profile>", "eval")
    except (SyntaxError, RecursionError, MemoryError, OverflowError) as exc:
        raise ConfigError(f"cannot parse custom profile {expr!r}: "
                          f"{str(exc) or type(exc).__name__}")
    namespace = dict(_PROFILE_FUNCTIONS, pi=np.pi, L=L)
    no_builtins = {"__builtins__": {}}

    def profile(x):
        x = np.asarray(x, dtype=float)
        try:
            value = eval(code, no_builtins, dict(namespace, x=x))  # noqa: S307
            arr = np.asarray(value, dtype=float)
        except Exception as exc:
            raise ConfigError(f"cannot evaluate custom profile {expr!r}: {exc}")
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
    wavenumbers = 2.0 * np.pi / L * np.arange(len(TRAVELLING_WAVE_COSINES))
    cosines = np.array(TRAVELLING_WAVE_COSINES)
    sines = np.array(TRAVELLING_WAVE_SINES)

    def profile(x):
        phase = np.multiply.outer(np.asarray(x, dtype=float), wavenumbers)
        return np.cos(phase) @ cosines + np.sin(phase[..., 1:]) @ sines

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
        # np.mod is the identity on the open interval (0, L), so only the
        # points outside it go through it
        y = np.asarray(y, dtype=float)
        outside = ~((y > 0.0) & (y < L))
        if outside.any():
            y = y.copy()
            y[outside] = np.mod(y[outside], L)
        return profile(y)

    t_star, bounds = ref_mod.burgers_breaking(wrapped, L, advection=advection)

    def solve(t, nodes):
        try:
            return ref_mod.burgers_characteristics(wrapped, nodes, t,
                                                   advection=advection,
                                                   bounds=bounds)
        except NonConvergenceError:
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


def _travelling_wave_reference(profile: Callable, c: float) -> Callable:
    def sample(times, nodes):
        return [profile(nodes - c * t) for t in times]

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
        reference = _travelling_wave_reference(profile,
                                               TRAVELLING_WAVE_PARAMS[2])
    return InitialCondition(name, profile, reference)


# -- experiment drivers --------------------------------------------------------------

#: Observations evaluated together; the characteristics oracle solves a
#: block's times in one vectorised Newton iteration.
OBSERVE_BLOCK = 64


def _run_one_method(method: str, config: ExperimentConfig,
                    grid: PeriodicGrid, u0: np.ndarray,
                    reference: Optional[Callable]) -> MethodRun:
    spec = config.spec
    N, dx, winding = grid.N, grid.dx, grid.L

    # recover and energy take one packed state (d,) or a stack (d, m); the
    # lifted u lives on the half nodes, the direct one on the full nodes
    if method == COLLECTIVE:
        z0 = lift(grid, u0)
        rhs, band = collective_flat_field(spec, grid)
        nodes = grid.half_nodes

        def recover(z):
            return momentum_arrays(dx, winding, z[:N], z[N:])[0]

        def energy(z):
            return discrete_H_collective(spec, dx, winding, z[:N], z[N:])
    else:
        z0 = u0.copy()
        rhs, band = conventional_flat_field(spec, grid)
        nodes = grid.full_nodes

        def recover(z):
            return z

        def energy(z):
            return discrete_H_conventional(spec, dx, z)

    H0 = energy(z0)
    cas0 = casimir(dx, recover(z0))
    records = []
    n_steps = config.n_steps
    # the observations waiting for their diagnostics, as
    # (step, t, newton_iters, state)
    block = []

    def flush():
        steps, times, iterations, states = zip(*block)
        z = np.stack(states).T
        u = recover(z)
        H = energy(z).tolist()
        cas = casimir(dx, u).tolist()
        amps = fourier_modes(u).T
        exact = (reference(list(times), nodes) if reference is not None
                 else [None] * len(block))
        valid = [k for k, values in enumerate(exact) if values is not None]
        errors = {}
        if valid:
            found = solution_error(u[:, valid],
                                   np.stack([exact[k] for k in valid], 1))
            errors = dict(zip(valid, found.tolist()))
        for k in range(len(block)):
            records.append(DiagnosticsRecord(
                method=method,
                step=steps[k],
                t=times[k],
                H_hat=H[k],
                casimir=cas[k],
                H_rel_err=_rel_err(H0, H[k]),
                casimir_rel_err=_rel_err(cas0, cas[k]),
                solution_rel_err=errors.get(k),
                fourier_amp=amps[k],
                nyquist_amp=float(amps[k, -1]) if N % 2 == 0 else math.nan,
                newton_iters=iterations[k],
            ))
        block.clear()

    def observe(step, t, z, newton_iters):
        block.append((step, t, newton_iters, z.copy()))
        if len(block) == OBSERVE_BLOCK:
            flush()

    observe(0, 0.0, z0, 0)
    accepted = dict.fromkeys(
        ("increments", "residual", "floor", "fixed-point"), 0)
    fixed_point_rounds = 0

    def observer(step, t, z, report):
        nonlocal fixed_point_rounds
        accepted[report.status] += 1
        if report.status == "fixed-point":
            fixed_point_rounds += report.newton_iterations
        if step % config.observe_every == 0 or step == n_steps:
            observe(step, t, z, report.newton_iterations)

    # a diverging scheme is reported by its non-finite residual, once
    with np.errstate(over="ignore", invalid="ignore"):
        result = integrate(rhs, band, z0, config.dt, n_steps,
                           config.newton, observer)
        if block:
            flush()
    finals = {"u": (nodes, recover(result.z))}
    if method == COLLECTIVE:
        finals["q"] = (grid.full_nodes, result.z[:N])
        finals["p"] = (grid.full_nodes, result.z[N:])
    failed_step = result.failure.step if result.failure is not None else None
    return MethodRun(method, records, finals, failed_step, accepted,
                     fixed_point_rounds)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured experiment and collect diagnostics records.

    Newton failure in either scheme does not raise: the affected run is
    flagged and keeps every record collected before the failing step, which
    is the honest endpoint of a diverging scheme.  An initial profile that
    is not finite at every node raises ConfigError.
    """
    return _run_experiment(config, exact=True)


def _run_experiment(config: ExperimentConfig,
                    exact: bool) -> ExperimentResult:
    """run_experiment; the records' solution errors are left empty unless
    ``exact``, and the configuration's exact reference is then not
    called."""
    config.validate()
    grid = PeriodicGrid(config.N, config.L)
    # a profile that is not finite everywhere is reported once, below
    with np.errstate(all="ignore"):
        ic = resolve_initial_condition(config)
        u0 = np.asarray(ic.profile(grid.full_nodes), dtype=float)
    if not np.all(np.isfinite(u0)):
        raise ConfigError(f"initial condition {ic.name!r} is not finite at "
                          f"every grid node")
    methods = ([COLLECTIVE, CONVENTIONAL] if config.method == "both"
               else [config.method])
    reference = ic.reference if exact else None
    runs = [_run_one_method(m, config, grid, u0, reference)
            for m in methods]
    return ExperimentResult(config, grid, runs)


#: Grid refinement of a convergence study's fine-grid reference (at dt/4);
#: an even factor puts every coarse half and full node on a fine full node.
FINE_GRID_REFINE = 8


@dataclass(frozen=True)
class ConvergenceLevel:
    method: str
    N: int
    dx: float
    casimir_err: float
    H_err: float
    solution_err: float
    observed_order: Optional[float]


def _converged_run(config: ExperimentConfig, level: int, exact: bool,
                   label: str = "") -> ExperimentResult:
    """_run_experiment, raising NonConvergenceError that names the scheme,
    the level and the step when a scheme diverged."""
    result = _run_experiment(config, exact)
    for run in result.runs:
        if not run.converged:
            raise NonConvergenceError(
                f"{label}{run.method} run diverged at step "
                f"{run.failed_step} of level N={level}",
                step=run.failed_step)
    return result


def convergence_study(base_config: ExperimentConfig, levels,
                      reference: str = "auto") -> list:
    """Fixed-dt grid sweep; errors taken at the final step of each run.

    Each level is an ordinary run recording only step 0 and its final
    step.  ``reference`` picks the exact-solution source for the final-time
    comparison: "auto" takes the solution error of each run's final record,
    measured against the configuration's own reference (it must have one);
    "fine-grid" substitutes a lifted run per level at FINE_GRID_REFINE
    times the nodes and dt/4, restricted to the node set of each scheme,
    and then no run calls the configuration's own reference.
    Every level and its refined run are checked before the first run
    starts; an invalid one raises ConfigError naming the level.  A
    diverged run, refined or not, raises NonConvergenceError.
    Observed order between consecutive levels is log2(err_k / err_{k+1}),
    attached to the finer level.
    """
    levels = list(levels)
    if not levels:
        raise ConfigError("need at least one grid level")
    if reference not in ("auto", "fine-grid"):
        raise ConfigError(f"unknown reference source {reference!r}")
    if (reference == "auto"
            and resolve_initial_condition(base_config).reference is None):
        raise ConfigError("configuration has no exact reference; use "
                          "reference='fine-grid'")
    # every level's runs, checked before the first of them starts
    plans = []
    for N in levels:
        config = replace(base_config, N=N, output_path=None,
                         observe_every=max(base_config.n_steps, 1))
        fine = None
        if reference == "fine-grid":
            # 4 n_steps steps, also when t_end is not a multiple of dt
            fine = replace(config, method=COLLECTIVE, N=FINE_GRID_REFINE * N,
                           dt=config.dt / 4, t_end=config.n_steps * config.dt,
                           observe_every=max(4 * config.n_steps, 1))
        try:
            config.validate()
        except ConfigError as exc:
            raise ConfigError(f"level N={N}: {exc}") from None
        if fine is not None:
            try:
                fine.validate()
            except ConfigError as exc:
                raise ConfigError(
                    f"level N={N}: its fine-grid reference (N={fine.N}, "
                    f"dt/4): {exc}") from None
        plans.append((N, config, fine))
    rows = {}
    for N, config, fine in plans:
        result = _converged_run(config, N, exact=reference == "auto")
        if fine is not None:
            refined = _converged_run(
                fine, N, exact=False,
                label=f"refined (N={fine.N}, dt/4) ").runs[0]
            u_fine = st_avg(refined.finals["u"][1])
            dx_fine = fine.L / fine.N
        for run in result.runs:
            final = run.records[-1]
            if reference == "auto":
                solution_err = final.solution_rel_err
                if solution_err is None:
                    raise ConfigError(
                        "exact reference invalid at the final time; use "
                        "reference='fine-grid'")
            else:
                # the fine full node at x has index rint(x / dx_fine) - 1
                x, u = run.finals["u"]
                j = np.rint(x / dx_fine).astype(int) - 1
                solution_err = solution_error(u, u_fine[j])
            rows.setdefault(run.method, []).append(ConvergenceLevel(
                method=run.method,
                N=N,
                dx=result.grid.dx,
                casimir_err=abs(final.casimir_rel_err),
                H_err=abs(final.H_rel_err),
                solution_err=solution_err,
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
    """Sidecar CSV with the final fields (u, plus q and p when lifted), each
    at its nodes."""
    row = "{},{},{},{:.17g},{:.17g}\n"
    lines = ["method,field,index,x,value\n"]
    for run in result.runs:
        for name, (xs, values) in run.finals.items():
            lines += [row.format(run.method, name, j, x, v) for j, (x, v)
                      in enumerate(zip(xs.tolist(), values.tolist()), start=1)]
    return "".join(lines)


def emit_gnuplot_script(csv_path: str, script_path: str, methods) -> str:
    """gnuplot commands plotting the headline diagnostics from a run CSV,
    one curve per scheme in ``methods``: the rows of the schemes are
    interleaved, so each curve keeps the rows whose first column names
    its scheme."""

    def plot(column):
        curves = ", ".join(
            f'"{csv_path}" using 3:(strcol(1) eq "{method}" ? ${column} '
            f': 1/0) with lines title "{method}"' for method in methods)
        return f"plot {curves}"

    text = f"""# gnuplot script generated alongside {csv_path}
set datafile separator ","
set key autotitle columnhead
set xlabel "t"
set terminal pngcairo size 900,600

set output "energy_error.png"
set ylabel "relative energy error"
{plot(6)}

set output "casimir_error.png"
set ylabel "relative Casimir error"
{plot(7)}

set output "nyquist.png"
set ylabel "highest-mode amplitude"
set logscale y
{plot(10)}
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
