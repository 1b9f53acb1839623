"""The benchmark's workloads: seeded experiment configs and the checks
every run of them must pass.

The seed sets only the phase shifts of the initial profile; the program
receives the resulting ``custom:`` profile string inside an ordinary
``clebschflow run`` config.  Each workload is dominated by a different
layer (see README.md).
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

L = 8.0
BURGERS = {"C1": 1.0, "C2": 0.0, "C3": 0.0, "C4": 0.0}
EXTENDED_BURGERS = {"C1": 0.5, "C2": 0.5, "C3": -0.25, "C4": 0.5}
COSINE_BUMP = "1 + 0.5*cos(2*pi*(x - {shift!r})/L)"
PERIODIC_BUMP = "1 + 0.5*exp(-sin(pi*(x - {shift!r})/L)**2)"

#: Quadratic energies are conserved exactly by the conventional scheme.
ENERGY_DRIFT_BOUND = 1e-11
#: Acceptance criterion 3: agreement with characteristics near t = 0.3.
PRE_SHOCK_BOUND = 5e-3
PRE_SHOCK_T = 0.3
#: Acceptance criterion 5: late errors within 10x the early window's.
GROWTH_FACTOR = 10.0
EARLY_WINDOW = 0.1
#: burgers-n512 solution error against characteristics.  Seeds 0-3, all
#: eight phases, give at most 6.3e-6 (lifted) and 9.7e-8 (conventional)
#: at t = 2^-9; the bound leaves a factor 15.
N512_SOLUTION_BOUND = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    N: int
    dt: float
    n_steps: int
    observe_every: int
    profile: str
    #: reference kernel for the host's speed (hostspeed.KERNELS)
    host_kernel: str
    #: evenly spaced phase shifts a run cycles through, for workloads
    #: whose cost depends on the phase
    phases: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("shock-every-step",
             "N=64 Burgers to t=0.3125 with observation, the characteristics "
             "reference and a CSV row every step: harness, reference and cli "
             "output layers",
             BURGERS, 64, 2.0 ** -12, 1280, 1, COSINE_BUMP, "interpreter"),
    Workload("bump-long",
             "N=32 cubic density, sparse observation: stencil kernels and "
             "the rhs dominate, Newton takes extra iterations",
             EXTENDED_BURGERS, 32, 2.0 ** -8, 2048, 64, PERIODIC_BUMP,
             "interpreter"),
    Workload("burgers-n512",
             "N=512 Burgers, 8 steps at each of 8 evenly spaced phases: dense "
             "Jacobian assembly and linear solves dominate the lifted step",
             BURGERS, 512, 2.0 ** -12, 8, 4, COSINE_BUMP, "dense", phases=8),
)}


def phase_shift(seed: int, phase: int = 0, phases: int = 1) -> float:
    """Shift number ``phase`` of ``phases`` evenly spaced ones over the
    period, the first drawn uniformly from [0, L/phases) by the seed."""
    return L * (random.Random(seed).random() + phase) / phases


def make_config(workload: Workload, seed: int, n_steps=None,
                phase: int = 0) -> dict:
    """The ``clebschflow run`` config for one seed and phase; both
    schemes."""
    steps = workload.n_steps if n_steps is None else n_steps
    shift = phase_shift(seed, phase, workload.phases)
    return {
        "method": "both",
        "spec": dict(workload.spec),
        "N": workload.N,
        "L": L,
        "dt": workload.dt,
        "t_end": steps * workload.dt,
        "initial_condition": "custom:" + workload.profile.format(shift=shift),
        "observe_every": workload.observe_every,
    }


def read_rows(path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _floats(rows, key):
    return [abs(float(r[key])) for r in rows if r[key] != ""]


def check(workload: Workload, config: dict, rows: dict) -> list:
    """Failed checks for one worker's diagnostics, keyed by scheme."""
    failures = []
    planned = round(config["t_end"] / config["dt"])
    for scheme, table in rows.items():
        if not table or int(table[-1]["step"]) != planned:
            failures.append(f"{scheme}: did not complete {planned} steps")
    if failures:
        return failures

    conventional = rows["conventional"]
    if workload.spec == BURGERS:
        drift = max(_floats(conventional, "H_rel_err"))
        if not drift < ENERGY_DRIFT_BOUND:
            failures.append(f"conventional energy drift {drift:.3e}")

    if workload.name == "shock-every-step" and config["t_end"] >= PRE_SHOCK_T:
        for scheme, table in rows.items():
            probe = [r for r in table if float(r["t"]) <= PRE_SHOCK_T + 1e-9][-1]
            err = probe["solution_rel_err"]
            if float(probe["t"]) <= 0.29 or err == "" or not float(err) < PRE_SHOCK_BOUND:
                failures.append(f"{scheme}: pre-shock error {err!r} "
                                f"at t={probe['t']}")

    if workload.name == "bump-long":
        table = rows["collective"]
        t_cut = EARLY_WINDOW * config["t_end"]
        early = [r for r in table if float(r["t"]) <= t_cut]
        for key in ("H_rel_err", "casimir_rel_err"):
            early_max = max(_floats(early, key))
            run_max = max(_floats(table, key))
            if not run_max < GROWTH_FACTOR * early_max:
                failures.append(f"collective {key}: {run_max:.3e} against "
                                f"early {early_max:.3e}")

    if workload.name == "burgers-n512":
        for scheme, table in rows.items():
            errors = _floats(table, "solution_rel_err")
            worst = max(errors) if errors else float("inf")
            if not worst < N512_SOLUTION_BOUND:
                failures.append(f"{scheme}: solution error {worst:.3e}")
    return failures
