"""Structure-preserving integration of Burgers'-type Hamiltonian PDEs on the
circle.

The flow of a density C1 u^2 + C2 u_x^2 + C3 u^3 + C4 u_x^3 is integrated
two ways from the same initial data:

* lifted to canonical variables (q, p) with u = q_x p recovered through a
  staggered-grid momentum map, stepped with the symplectic implicit
  midpoint rule;
* directly on the samples of u in skew-gradient form, with the same
  midpoint rule, as the conventional baseline.

See the grid, clebsch, hamiltonian, dynamics, reference and harness modules
for the pieces, and the ``clebschflow`` command line tool for the packaged
experiments.
"""

from .grid import PeriodicGrid
from .clebsch import lift, momentum_arrays
from .hamiltonian import (
    BURGERS,
    EXTENDED_BURGERS,
    HamiltonianSpec,
    casimir,
    discrete_H_collective,
    discrete_H_conventional,
    grad_collective,
    grad_conventional,
)
from .dynamics import (
    Band,
    IntegrationResult,
    NewtonConfig,
    NonConvergenceError,
    StepReport,
    apply_K,
    collective_flat_field,
    conventional_flat_field,
    integrate,
    midpoint_step,
)
from .harness import (
    ConfigError,
    ConvergenceLevel,
    DiagnosticsRecord,
    ExperimentConfig,
    ExperimentResult,
    PRESETS,
    convergence_study,
    fourier_modes,
    preset_config,
    run_experiment,
    solution_error,
)

__version__ = "0.1.0"
