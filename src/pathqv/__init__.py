"""Pathwise quadratic variation along partition sequences.

Numerical kernels for quadratic variation along partition sequences,
balanced-partition diagnostics, cross-product roughness statistics, pathwise
(left Riemann sum) integration with its change-of-variable residual, and
discrete local time, together with Monte Carlo harnesses exercising the
invariance of these objects across balanced partition sequences.
"""

__version__ = "0.1.0"

from .calculus import (
    FunctionTriple,
    ItoResidual,
    LocalTimeField,
    follmer_integral,
    follmer_path,
    function_catalogue,
    ito_residual,
    ito_residual_level,
    isometry_check,
    local_time_discrete,
    occupation_check,
    tanaka_residual,
    weak_l2_convergence,
)
from .errors import (
    ExhaustionError,
    GridMismatchError,
    GroupingError,
    IdentityCheckError,
    PairingError,
    ParameterError,
    PQVError,
    ResolutionError,
    StatisticalPowerError,
)
from .partitions import (
    BalanceReport,
    ComparabilityReport,
    Partition,
    PartitionSequence,
    adjust_subsequence,
    balance_report,
    comparability,
    gen_dyadic,
    gen_kadic,
    gen_lebesgue,
    gen_random_balanced,
    map_partition,
    stop_partition,
)
from .paths import (
    HolderEstimate,
    PathMeta,
    SampledPath,
    derive_subseed,
    estimate_holder,
    gen_brownian,
    gen_deterministic,
    gen_fbm,
    gen_mixed,
)
from .quadvar import (
    QVConvergence,
    QVCurve,
    invariance_check,
    qv_level,
    qv_limit_diagnostic,
    qv_matrix,
)
from .roughness import (
    CoarseningSelection,
    GroupingIndex,
    RoughnessStat,
    averaging_statistic,
    grouping,
    hw_tail_check,
    roughness_double_loop,
    roughness_statistic,
    select_dyadic_subsequence,
)
