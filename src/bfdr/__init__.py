"""Bayes-factor false discovery rate control.

Estimate the proportion of true nulls conservatively from Bayes factors
(EBF prefix-mean scan or QBF quantile census), turn Bayes factors into
conservative posterior probabilities, and reject at a target Bayesian
FDR, alongside the classical p-value baselines, a permutation engine for
gene-level statistics, and two synthetic study generators. Each name is
imported from the submodule that defines it (``bfdr.bayes_factor``,
``bfdr.studies``, ...).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
