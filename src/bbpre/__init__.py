"""Critical two-sex branching processes in i.i.d. random environments.

Monte Carlo simulation of the process, its associated random walk and
hitting time, the first-passage limit law of the scaled extinction
time, executable condition audits, and experiment orchestration with
Kolmogorov-Smirnov verification at desk scale.
"""

from .errors import (
    BbpreError,
    ConfigurationError,
    DegenerateModelError,
    ExcessCensoringError,
    OverflowGuardError,
)
from .limit_law import FirstPassageLaw
from .model import (
    ConditionCheck,
    ConditionReport,
    ConstantMap,
    EnvironmentModel,
    ExpMeanMap,
    MatingRule,
    OffspringModel,
    TableMap,
    analytic_sigma_xi,
    asexual,
    audit_conditions,
    check_approximation,
    check_homogeneity,
    check_lipschitz,
    check_superadditivity,
    mate_array,
    monogamous,
    noise_scales,
    polygamous,
    walk_increments,
)
from .rng import derive_stream
from .simulator import run_frozen_bundle
from .stats import (
    ExperimentConfig,
    LemmaSweep,
    LemmaSweepConfig,
    SummaryReport,
    SummaryRow,
    ks_statistic,
    lemma_bound_sweep,
    loglog_slope,
    run_experiment,
    run_extinction_records,
    run_replicates,
)
from .walk import default_max_steps, hitting_threshold, window_steps

__version__ = "0.1.0"
