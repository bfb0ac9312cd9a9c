"""Permutation nulls for gene-level association statistics.

Permuting the phenotype vector breaks every genotype-phenotype link at
once while preserving the genotype correlation inside a gene, so the
permuted statistics sample the complete null of a gene-level scan. Each
test owns a substream keyed by (plan.seed, test id); the permutations for
a test are therefore bit-identical however the tests are scheduled across
workers.

Conventions, fixed here once:

* p-values use the add-one estimator (1 + #more-extreme) / (n_perms + 1),
  which is never zero and is itself a valid p-value;
* the empirical gamma-quantile of n values is the ceil(gamma * n)-th
  order statistic, counting from 1;
* the gene Bayes factor counts larger values as more extreme, the min-p
  statistic smaller ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .bayes_factor import GeneDesign, OmegaGrid
from .fdr_control import two_sided_normal_p
from .rng import substream

__all__ = [
    "Statistic",
    "PermutationPlan",
    "empirical_quantile",
    "min_p_statistic",
    "permuted_statistics",
    "permute_null_quantile",
    "permutation_pvalue",
]


class Statistic(str, Enum):
    """Which scan statistic a permutation plan resamples."""

    GENE_BF = "gene_bf"
    MIN_P = "min_p"


@dataclass(frozen=True)
class PermutationPlan:
    """How many permutations, from what seed, for which statistic."""

    n_perms: int
    seed: int
    statistic: Statistic = Statistic.GENE_BF

    def __post_init__(self):
        if not (isinstance(self.n_perms, int) and self.n_perms >= 1):
            raise ValueError("n_perms must be a positive integer")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not isinstance(self.statistic, Statistic):
            raise ValueError("statistic must be a Statistic")


def empirical_quantile(values: Sequence[float] | np.ndarray, gamma: float) -> float:
    """The ceil(gamma * n)-th smallest value (1-based order statistic)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a non-empty 1-d sequence")
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    rank = max(1, math.ceil(g * arr.size))
    return float(np.sort(arr)[rank - 1])


def min_p_statistic(y: np.ndarray, G: np.ndarray, sigma: float) -> float:
    """Smallest two-sided association p-value across a gene's variants."""
    design = GeneDesign(G, sigma, grid=None)
    z = design.z_batch(np.asarray(y, dtype=float))
    return float(two_sided_normal_p(z).min())


def _permutation_matrix(rng: np.random.Generator, n: int, n_perms: int) -> np.ndarray:
    # Shuffles each row in turn with the same draws as one rng.permutation(n)
    # per row, so the matrix and the generator's state afterwards are the same.
    return rng.permuted(np.tile(np.arange(n), (n_perms, 1)), axis=1)


def permuted_statistics(
    y: np.ndarray,
    G: np.ndarray,
    sigma: float,
    grid: OmegaGrid | Iterable[float],
    plan: PermutationPlan,
    test_id: str,
) -> np.ndarray:
    """The plan's statistic on each permuted phenotype.

    Returns log gene Bayes factors for GENE_BF and min-p values for MIN_P,
    in permutation order. Deterministic in (plan.seed, test_id, n_perms).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a 1-d phenotype vector")
    rng = substream(plan.seed, "perm", str(test_id))
    perms = _permutation_matrix(rng, y.size, plan.n_perms)
    Y = y[perms].T  # one permuted phenotype per column
    if plan.statistic is Statistic.GENE_BF:
        design = GeneDesign(G, sigma, grid)
        return design.log_gene_bf(Y)
    design = GeneDesign(G, sigma, grid=None)
    return two_sided_normal_p(design.z_batch(Y)).min(axis=0)


def permute_null_quantile(
    y: np.ndarray,
    G: np.ndarray,
    sigma: float,
    grid: OmegaGrid | Iterable[float],
    gamma: float,
    plan: PermutationPlan,
    test_id: str = "",
) -> float:
    """gamma-quantile of the gene Bayes factor's permutation null.

    Requires gamma * (n_perms + 1) >= 1 so the quantile is actually
    resolvable at this permutation count. Only defined for GENE_BF plans;
    quantile estimation is what feeds the QBF null-proportion estimator.
    """
    if plan.statistic is not Statistic.GENE_BF:
        raise ValueError("null quantiles are defined for the gene Bayes factor statistic")
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if g * (plan.n_perms + 1) < 1.0:
        raise ValueError("gamma * (n_perms + 1) must be at least 1")
    log_stats = permuted_statistics(y, G, sigma, grid, plan, test_id)
    log_q = empirical_quantile(log_stats, g)
    return float(np.exp(np.minimum(log_q, 709.0)))


def permutation_pvalue(
    observed: float,
    y: np.ndarray,
    G: np.ndarray,
    sigma: float,
    grid: OmegaGrid | Iterable[float],
    plan: PermutationPlan,
    test_id: str = "",
) -> float:
    """Add-one permutation p-value of an observed statistic.

    ``observed`` is a natural-scale gene Bayes factor for GENE_BF plans
    (larger is more extreme) or a min-p value for MIN_P plans (smaller is
    more extreme).
    """
    obs = float(observed)
    stats = permuted_statistics(y, G, sigma, grid, plan, test_id)
    if plan.statistic is Statistic.GENE_BF:
        if not obs > 0.0:
            raise ValueError("observed gene Bayes factor must be positive")
        count = int(np.sum(stats >= math.log(obs)))
    else:
        if not 0.0 <= obs <= 1.0:
            raise ValueError("observed min-p must lie in [0, 1]")
        count = int(np.sum(stats <= obs))
    return (1 + count) / (plan.n_perms + 1)
