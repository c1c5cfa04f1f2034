"""False discovery rate control with e-values: threshold procedures, pooling
of evidence across groups and across procedures, and covariate-adaptive
rejection curves."""

from .adaptive import (
    LfdrModel,
    cross_fit,
    fbc_group_threshold,
    fit_lfdr_em,
    run_structure_adaptive,
    structure_weights,
)
from .errors import ConfigurationError, InputError, InvariantError
from .groups import (
    GroupPartition,
    GroupReport,
    assemble_weights,
    group_evalues,
    groupwise_bc_thresholds,
    run_grouped_ebh,
)
from .hybrid import (
    HybridConfig,
    LooThresholds,
    adaptive_weights,
    bc_evalues,
    bh_evalues,
    compute_loo_thresholds,
    fast_adaptive_weights,
    run_hybrid,
)
from .knockoffs import combine_and_select, knockoff_evalues, knockoff_threshold
from .procedures import (
    ProcedureSpec,
    RejectionCurves,
    ThresholdResult,
    as_evalues,
    as_pvalues,
    ebh_select,
    fdp_power,
    procedure_to_evalues,
    solve_threshold,
    storey_pi0,
)
from .simulate import (
    MetricsReport,
    SimInstance,
    SimulationConfig,
    default_parameters,
    generate,
    run_campaign,
    toy_two_group,
)

__version__ = "0.1.0"
