"""Permutation nulls for gene-level association statistics.

Permuting the phenotype vector breaks every genotype-phenotype link at
once while preserving the genotype correlation inside a gene, so the
permuted statistics sample the complete null of a gene-level scan. Each
test owns a substream keyed by (plan.seed, test id); the permutations for
a test are therefore bit-identical however the tests are scheduled across
workers, and they can be drawn before the test's data exist: study II's
workers draw each gene's matrix while the LD calibration runs, keep it
in the smallest unsigned integer type that holds its indices
(:func:`compact_permutations`), and pass it to :func:`scan_gene`.

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

Both stages compute the Wald statistics of a plan's permuted phenotypes in
one product of the plan's width, because BLAS results depend on the column
count, and then decide column by column. The fused
``GeneDesign.fast_log_gene_bf`` gives every column's statistic to within
``GeneDesign.fast_error_bound``; only the columns whose fast value is too
close to the stage's threshold (the quantile or the observed statistic)
to tell which side the exact one lies on, and any non-finite fast value,
are recomputed with ``GeneDesign.exact_log_gene_bf``. That is about one
column per gene for a quantile and usually none for a p-value, and the
results are those of evaluating every column exactly, bit for bit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bayes_factor import GeneDesign, OmegaGrid, ScaleError, checked_gene_design
from .model import GeneData, RowError
from .rng import substream

__all__ = [
    "PermutationPlan",
    "permute_null_quantile",
    "permutation_pvalue",
    "GeneScan",
    "scan_gene",
    "compact_permutations",
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


def _empirical_quantile(values: np.ndarray, gamma: float) -> float:
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
    # and the first rows do not depend on how many rows follow them. Shuffling
    # the tiled int64 array in place (out=) takes about half the time of
    # shuffling a copy; a narrower dtype shuffles more slowly.
    perms = np.tile(np.arange(n), (n_perms, 1))
    return rng.permuted(perms, axis=1, out=perms)


def _draw_permutations(seed: int, test_id: str, n: int, n_perms: int) -> np.ndarray:
    """The test's permutation matrix, one permutation of range(n) per row."""
    return _permutation_matrix(substream(seed, "perm", str(test_id)), n, n_perms)


def compact_permutations(seed: int, test_id: str, n: int, n_perms: int) -> np.ndarray:
    """The test's permutation matrix, stored in the smallest unsigned integer type that holds n - 1.

    It is drawn as :func:`_draw_permutations` draws it and then narrowed,
    because shuffling a narrow array is slower. At n = 85 a 500-row matrix
    takes 42.5 kB instead of 340 kB; the scans widen it again before their
    gather.
    """
    return _draw_permutations(seed, test_id, n, n_perms).astype(np.min_scalar_type(max(n - 1, 0)))


def _check_quantile_plan(gamma: float, plan: PermutationPlan) -> float:
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if g * (plan.n_perms + 1) < 1.0:
        raise ValueError("gamma * (n_perms + 1) must be at least 1")
    return g


def _scan(design: GeneDesign, y: np.ndarray, perms: np.ndarray, plan: PermutationPlan) -> tuple[np.ndarray, np.ndarray]:
    """Wald statistics and fast log gene Bayes factors of the first ``plan.n_perms`` permuted phenotypes."""
    if len(perms) < plan.n_perms:
        raise ValueError(f"the plan needs {plan.n_perms} permutations, but {len(perms)} were drawn")
    # A gather through an intp index is about 3x faster than through a narrow one.
    Z = design.z_batch(y[np.asarray(perms[: plan.n_perms], dtype=np.intp)].T)
    return Z, design.fast_log_gene_bf(Z)


def _certified_order_statistic(design: GeneDesign, Z: np.ndarray, fast: np.ndarray, rank: int) -> float | None:
    """The rank-th smallest exact log gene Bayes factor of the columns of ``Z``, or None.

    An order statistic moves by at most as much as the values it is taken
    of, so the exact one lies within the error bound d of the fast rank-th
    value q. A column whose fast value plus its own bound stays below
    q - d is certainly below it, one whose fast value minus its bound
    stays above q + d certainly above. The rest are recomputed exactly,
    and the answer is the one among them at the rank left after the
    columns certainly below. None means the fast values could not certify
    it: q is not finite, or the recomputed value falls outside q +- d,
    which a valid bound rules out unless some fast value is not finite.
    """
    q = float(np.partition(fast, rank - 1)[rank - 1])
    if not math.isfinite(q):
        return None
    bound, d = design.fast_error_bound(fast), design.fast_error_bound(q)
    below = fast + bound < q - d
    band = ~below & ~(fast - bound > q + d)
    exact = np.sort(design.exact_log_gene_bf(Z, band))
    c = rank - int(np.count_nonzero(below))
    if 1 <= c <= exact.size and q - d <= exact[c - 1] <= q + d:
        return float(exact[c - 1])
    return None


def permute_null_quantile(
    design: GeneDesign,
    y: np.ndarray,
    perms: np.ndarray,
    gamma: float,
    plan: PermutationPlan,
) -> float:
    """gamma-quantile of the gene Bayes factor's permutation null.

    ``y`` is the gene's phenotype vector and ``perms`` its permutation
    matrix (one permutation of the individuals per row); the null is the
    gene Bayes factor of the first ``plan.n_perms`` permuted phenotypes.
    Requires gamma * (n_perms + 1) >= 1 so the quantile is actually
    resolvable at this permutation count. Quantile estimation is what feeds
    the QBF null-proportion estimator. The order statistic is found from
    the fast values (:func:`_certified_order_statistic`); where they cannot
    certify it, every column is recomputed exactly.
    """
    g = _check_quantile_plan(gamma, plan)
    Z, fast = _scan(design, y, perms, plan)
    log_q = _certified_order_statistic(design, Z, fast, max(1, math.ceil(g * fast.size)))
    if log_q is None:
        log_q = _empirical_quantile(design.exact_log_gene_bf(Z, slice(None)), g)
    return float(np.exp(np.minimum(log_q, 709.0)))


def permutation_pvalue(
    observed: float,
    design: GeneDesign,
    y: np.ndarray,
    perms: np.ndarray,
    plan: PermutationPlan,
) -> float:
    """Add-one permutation p-value of an observed statistic.

    ``observed`` is a gene Bayes factor on log scale (larger is more
    extreme), compared with the log statistics of the first
    ``plan.n_perms`` permuted phenotypes directly, so that evidence beyond
    the float range keeps its rank. A permuted statistic whose fast value
    exceeds ``observed`` by more than its error bound counts as at least
    as extreme, one below it by more than its bound does not, and only
    the columns in between, or with a non-finite fast value, are
    recomputed exactly and compared.
    """
    obs = float(observed)
    if not math.isfinite(obs):
        raise ValueError("observed log gene Bayes factor must be finite")
    Z, fast = _scan(design, y, perms, plan)
    bound = design.fast_error_bound(fast)
    above = fast - bound > obs
    band = ~above & ~(fast + bound < obs)
    n_extreme = int(np.count_nonzero(above))
    if band.any():
        n_extreme += int(np.count_nonzero(design.exact_log_gene_bf(Z, band) >= obs))
    return (1 + n_extreme) / (plan.n_perms + 1)


class GeneScan(NamedTuple):
    """One gene's observed statistic and permutation products.

    ``seconds`` maps each stage that ran to its time: the design and
    observed scan (``permutation.observed_scan``), drawing the permutations
    (``permutation.draw_permutations``, when :func:`scan_gene` drew them),
    the quantile scan
    (``permutation.permute_null_quantile``) and, for ``perm_p`` > 0, the
    p-value scan (``permutation.permutation_pvalue``).
    """

    log_bf: float
    null_q: float
    pvalue: float | None
    seconds: dict[str, float]


def scan_gene(
    gene: GeneData,
    sigma: float,
    grid: OmegaGrid,
    gamma: float,
    plan: PermutationPlan,
    perm_p: int = 0,
    perms: np.ndarray | None = None,
) -> GeneScan:
    """Observed log gene Bayes factor, null quantile and p-value of one gene.

    The design is built and scale-checked once, by
    :func:`~bfdr.bayes_factor.checked_gene_design`, which also gives the
    observed statistic. A failing scale raises its ``ScaleError``, and a
    design that cannot be built a ``RowError``, named ``gene '<id>'`` at
    index 0; ``studies.map_parallel`` raises the first failing gene's in
    gene order. The permutations are drawn once, at the larger of
    ``plan.n_perms`` and ``perm_p``, from the substream of the gene's id;
    ``perms`` passes that matrix in when it was drawn beforehand (as
    :func:`compact_permutations` draws it), and then no draw stage is
    timed here. :func:`permute_null_quantile` then scans the first
    ``plan.n_perms`` of them and, for ``perm_p`` > 0,
    :func:`permutation_pvalue` scans the first ``perm_p`` under a
    ``perm_p``-permutation plan of the same seed.
    """
    y = np.asarray(gene.y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a 1-d phenotype vector")
    t0 = time.perf_counter()
    try:
        design, log_bf = checked_gene_design(gene.G, y, sigma, grid)
    except ScaleError as exc:
        raise ScaleError(0, exc.reason, f"gene {gene.id!r}") from None
    except ValueError as exc:
        raise RowError(0, str(exc), f"gene {gene.id!r}") from None
    t1 = time.perf_counter()
    seconds = {"permutation.observed_scan": t1 - t0}
    if perms is None:
        perms = _draw_permutations(plan.seed, gene.id, y.size, max(plan.n_perms, perm_p))
        seconds["permutation.draw_permutations"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    null_q = permute_null_quantile(design, y, perms, gamma, plan)
    t3 = time.perf_counter()
    seconds["permutation.permute_null_quantile"] = t3 - t2
    pvalue = None
    if perm_p > 0:
        pvalue = permutation_pvalue(log_bf, design, y, perms, PermutationPlan(perm_p, plan.seed))
        seconds["permutation.permutation_pvalue"] = time.perf_counter() - t3
    return GeneScan(log_bf, null_q, pvalue, seconds)
