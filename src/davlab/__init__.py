"""Workbench for weighted zero-sum problems in finite abelian groups.

Exact weighted Davenport constants, minimum weight-set sizes for a target
constant, explicit constructions with built-in verification, and Monte Carlo
threshold experiments.
"""

__version__ = "0.1.0"

from .groups import (
    GroupOrderError,
    GroupSpec,
    cyclic,
    normalize_group,
    parse_group,
)
from .engine import (
    GSequence,
    ResidueSet,
    WeightSet,
    dilation_orbit_reps,
    has_weighted_zero_sum,
    negate,
    quotient_set,
    reachable_sums,
    sumset,
)
from .solver import (
    Budget,
    BoundedCheckResult,
    BudgetExceededError,
    CapExceededError,
    DavenportResult,
    MaxDavenportResult,
    certify_dav_value,
    check_dav_at_most,
    davenport,
    max_davenport_over_size,
)
from .fdsolver import (
    FdResult,
    FdStatus,
    fd,
    fd_fast_k2,
    fd_lower_bound,
    ratio_covers,
)
from .constructions import (
    ConstructionError,
    ConstructionReport,
    GFCubicField,
    PerfectDifferenceSet,
    complement_weight_set,
    interval_weight_set,
    quartic_weight_set,
    quartic_weight_set_auto,
    singer_difference_set,
    singer_weight_set,
    symmetric_range_weight_set,
)
from .randomlab import (
    Classification,
    SweepConfig,
    SweepResult,
    SweepRow,
    classify_dav,
    sample_theta_random,
    theoretical_window,
    threshold_sweep,
)
from .verify import SUITES, Check, SuiteReport

__all__ = [
    "__version__",
    "GroupOrderError",
    "GroupSpec",
    "cyclic",
    "normalize_group",
    "parse_group",
    "GSequence",
    "ResidueSet",
    "WeightSet",
    "dilation_orbit_reps",
    "has_weighted_zero_sum",
    "negate",
    "quotient_set",
    "reachable_sums",
    "sumset",
    "Budget",
    "BoundedCheckResult",
    "BudgetExceededError",
    "CapExceededError",
    "DavenportResult",
    "MaxDavenportResult",
    "certify_dav_value",
    "check_dav_at_most",
    "davenport",
    "max_davenport_over_size",
    "FdResult",
    "FdStatus",
    "fd",
    "fd_fast_k2",
    "fd_lower_bound",
    "ratio_covers",
    "ConstructionError",
    "ConstructionReport",
    "GFCubicField",
    "PerfectDifferenceSet",
    "complement_weight_set",
    "interval_weight_set",
    "quartic_weight_set",
    "quartic_weight_set_auto",
    "singer_difference_set",
    "singer_weight_set",
    "symmetric_range_weight_set",
    "Classification",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "classify_dav",
    "sample_theta_random",
    "theoretical_window",
    "threshold_sweep",
    "SUITES",
    "Check",
    "SuiteReport",
]
