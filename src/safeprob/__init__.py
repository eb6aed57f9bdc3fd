"""Probability distributions of safety invariance and recovery for
stochastic barrier-function-controlled systems.

The package solves the deterministic convection-diffusion problems whose
solutions are the distributions of the running barrier extrema and of the
first exit/entry times of barrier level sets, and cross-validates them
against Euler-Maruyama simulation and closed-form first-passage
references.
"""

__version__ = "0.1.0"

from .system_model import (  # noqa: F401
    BarrierProblem,
    ControlSystem,
    Policy,
    check_cbf_constraint,
    linear_rate,
    validate_barrier,
)
from .pde_engine import (  # noqa: F401
    FieldSeries,
    GridSpec,
    IbvpSpec,
    build_mask,
    solve_ibvp,
)
from .distributions import (  # noqa: F401
    DistributionResult,
    NumericsConfig,
    QuerySpec,
    convergence_cdf,
    entry_time_cdf,
    exit_time_cdf,
    invariance_ccdf,
    solve_distribution,
    summary_stats,
)
from .mc_oracle import (  # noqa: F401
    CdfTable,
    EmpiricalDistribution,
    PathConfig,
    PathEnsemble,
    analytic_first_passage,
    empirical_ccdf_min,
    empirical_cdf_entry,
    empirical_cdf_exit,
    empirical_cdf_max,
    ks_distance,
    simulate_paths,
)
from .library import ExampleBundle, example_names, make_example  # noqa: F401
