"""Bayes-factor false discovery rate control.

Estimate the proportion of true nulls conservatively from Bayes factors
(EBF prefix-mean scan or QBF quantile census), turn Bayes factors into
conservative posterior probabilities, and reject at a target Bayesian
FDR, alongside the classical p-value baselines, a permutation engine for
gene-level statistics, and two synthetic study generators.
"""
from .bayes_factor import (
    DEFAULT_OMEGA_GRID,
    GeneDesign,
    OmegaGrid,
    bf_null_quantiles,
    log_bf_averaged_many,
)
from .fdr_control import (
    PvalueDecision,
    apply_auto_reject,
    bfdr_decide,
    bh_decide,
    posterior_table,
    storey_decide,
    two_sided_normal_p,
)
from .model import (
    Batch,
    DecisionReport,
    EvalReport,
    GeneData,
    Pi0Estimate,
    Pi0Method,
    RowError,
    exp_saturated,
)
from .permutation import (
    PermutationPlan,
    permutation_pvalue,
    permute_null_quantile,
)
from .pi0_estimation import auto_reject_threshold, ebf_pi0, fixed_pi0, qbf_pi0, storey_pi0
from .simulation import SimIConfig, SimIIConfig, score, simulate_I, simulate_II

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_OMEGA_GRID",
    "GeneDesign",
    "OmegaGrid",
    "bf_null_quantiles",
    "log_bf_averaged_many",
    "PvalueDecision",
    "apply_auto_reject",
    "bfdr_decide",
    "bh_decide",
    "posterior_table",
    "storey_decide",
    "two_sided_normal_p",
    "Batch",
    "DecisionReport",
    "EvalReport",
    "GeneData",
    "Pi0Estimate",
    "Pi0Method",
    "RowError",
    "exp_saturated",
    "PermutationPlan",
    "permutation_pvalue",
    "permute_null_quantile",
    "auto_reject_threshold",
    "ebf_pi0",
    "fixed_pi0",
    "qbf_pi0",
    "storey_pi0",
    "SimIConfig",
    "SimIIConfig",
    "score",
    "simulate_I",
    "simulate_II",
    "__version__",
]
