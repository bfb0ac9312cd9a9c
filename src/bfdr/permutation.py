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
* larger gene Bayes factors are more extreme, and they are compared on
  log scale;
* the permutation matrix of a test is prefix-stable: its first B rows are
  the matrix a B-permutation plan with the same seed draws, so one draw at
  the largest count serves every smaller plan of the same test.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bayes_factor import GeneDesign, OmegaGrid
from .rng import substream

__all__ = [
    "PermutationPlan",
    "empirical_quantile",
    "permuted_statistics",
    "permute_null_quantile",
    "permutation_pvalue",
    "GeneScan",
    "scan_gene",
]


@dataclass(frozen=True)
class PermutationPlan:
    """How many permutations of the gene Bayes factor, from what seed."""

    n_perms: int
    seed: int

    def __post_init__(self):
        if not (isinstance(self.n_perms, int) and self.n_perms >= 1):
            raise ValueError("n_perms must be a positive integer")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


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


def _permutation_matrix(rng: np.random.Generator, n: int, n_perms: int) -> np.ndarray:
    # Shuffles each row in turn with the same draws as one rng.permutation(n)
    # per row, so the matrix and the generator's state afterwards are the same,
    # and the first rows do not depend on how many rows follow them.
    return rng.permuted(np.tile(np.arange(n), (n_perms, 1)), axis=1)


def _draw_permutations(seed: int, test_id: str, n: int, n_perms: int) -> np.ndarray:
    """The test's permutation matrix, one permutation of range(n) per row."""
    return _permutation_matrix(substream(seed, "perm", str(test_id)), n, n_perms)


def _phenotype_vector(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a 1-d phenotype vector")
    return y


def _check_quantile_plan(gamma: float, plan: PermutationPlan) -> float:
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if g * (plan.n_perms + 1) < 1.0:
        raise ValueError("gamma * (n_perms + 1) must be at least 1")
    return g


def _null_quantile(log_stats: np.ndarray, gamma: float) -> float:
    log_q = empirical_quantile(log_stats, gamma)
    return float(np.exp(np.minimum(log_q, 709.0)))


def _add_one_pvalue(n_extreme, n_perms: int) -> float:
    return (1 + int(n_extreme)) / (n_perms + 1)


def permuted_statistics(
    y: np.ndarray,
    G: np.ndarray,
    sigma: float,
    grid: OmegaGrid | Iterable[float],
    plan: PermutationPlan,
    test_id: str,
) -> np.ndarray:
    """The log gene Bayes factor of each permuted phenotype, in permutation order.

    Deterministic in (plan.seed, test_id, n_perms).
    """
    y = _phenotype_vector(y)
    perms = _draw_permutations(plan.seed, test_id, y.size, plan.n_perms)
    Y = y[perms].T  # one permuted phenotype per column
    return GeneDesign(G, sigma, grid).log_gene_bf(Y)


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
    resolvable at this permutation count. Quantile estimation is what feeds
    the QBF null-proportion estimator.
    """
    g = _check_quantile_plan(gamma, plan)
    return _null_quantile(permuted_statistics(y, G, sigma, grid, plan, test_id), g)


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

    ``observed`` is a gene Bayes factor on log scale (larger is more
    extreme), compared with the permuted log statistics directly so that
    evidence beyond the float range keeps its rank.
    """
    obs = float(observed)
    if not math.isfinite(obs):
        raise ValueError("observed log gene Bayes factor must be finite")
    stats = permuted_statistics(y, G, sigma, grid, plan, test_id)
    return _add_one_pvalue(np.sum(stats >= obs), plan.n_perms)


class GeneScan(NamedTuple):
    """One gene's observed statistic and permutation products.

    ``seconds`` holds the time of each stage: the observed scan, drawing
    the permutations, the quantile scan and the p-value scan.
    """

    log_bf: float
    null_q: float
    pvalue: float | None
    seconds: tuple[float, float, float, float]


def scan_gene(
    y: np.ndarray,
    G: np.ndarray,
    sigma: float,
    grid: OmegaGrid | Iterable[float],
    gamma: float,
    plan: PermutationPlan,
    perm_p: int = 0,
    test_id: str = "",
) -> GeneScan:
    """Observed log gene Bayes factor, null quantile and p-value of one gene.

    The results equal ``GeneDesign(G, sigma, grid).log_gene_bf(y)``,
    :func:`permute_null_quantile` with ``plan`` and, for ``perm_p`` > 0,
    :func:`permutation_pvalue` of the observed log Bayes factor with a
    ``perm_p``-permutation plan of the same seed, bit for bit. The design is built once and the permutations are
    drawn once, at the larger count; each plan scans its own prefix of them
    in a product of its own width, because BLAS results depend on the
    column count of the product.
    """
    g = _check_quantile_plan(gamma, plan)
    y = _phenotype_vector(y)
    t0 = time.perf_counter()
    try:
        design = GeneDesign(G, sigma, grid)
    except ValueError as exc:
        raise ValueError(f"gene {test_id!r}: {exc}") from None
    log_bf = float(design.log_gene_bf(y)[0])
    t1 = time.perf_counter()
    perms = _draw_permutations(plan.seed, test_id, y.size, max(plan.n_perms, perm_p))
    t2 = time.perf_counter()
    null_q = _null_quantile(design.log_gene_bf(y[perms[: plan.n_perms]].T), g)
    t3 = time.perf_counter()
    pvalue = None
    if perm_p > 0:
        stats = design.log_gene_bf(y[perms[:perm_p]].T)
        pvalue = _add_one_pvalue(np.sum(stats >= log_bf), perm_p)
    t4 = time.perf_counter()
    return GeneScan(log_bf, null_q, pvalue, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))
