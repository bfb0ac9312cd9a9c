"""Permutation nulls for gene-level association statistics.

Permuting the phenotype vector breaks every genotype-phenotype link at
once while preserving the genotype correlation inside a gene, so the
permuted statistics sample the complete null of a gene-level scan. Each
test owns a substream keyed by (plan.seed, test id), from which
:func:`compact_permutations` draws its matrix and keeps it in the smallest
unsigned integer type that holds its indices. The permutations for a test
are therefore bit-identical however the tests are scheduled across
workers, and they can be drawn before the test's data exist: study II's
workers draw each gene's matrix while the LD calibration runs and pass it
to :func:`scan_gene`.

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

A gene's stages share one fused float32 pass, in which each column's fast
value (``GeneDesign.fast_log_gene_bf``) is computed once, by the first
stage whose plan covers it. Only the columns whose fast value is too close
to the stage's threshold (the quantile or the observed statistic) to tell
its side within ``GeneDesign.fast_error_bound``, and any non-finite fast
value, are recomputed with ``GeneDesign.exact_log_gene_bf`` from a product
of the stage's own width, because BLAS results depend on the column count:
about one column per gene for a quantile, fewer for a p-value. The
results are those of evaluating every column exactly, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _trace
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


def compact_permutations(seed: int, test_id: str, n: int, n_perms: int) -> np.ndarray:
    """The test's permutation matrix, in the smallest unsigned integer type that holds n - 1.

    Each row is one permutation of range(n), drawn from the test's
    substream as int64 and then narrowed, because shuffling a narrow array
    is slower. At n = 85 a 500-row matrix takes 42.5 kB instead of
    340 kB; the scans widen it again before their gather.
    """
    perms = _permutation_matrix(substream(seed, "perm", str(test_id)), n, n_perms)
    return perms.astype(np.min_scalar_type(max(n - 1, 0)))


class _FastPass:
    """The fast values of a gene's permuted phenotypes (the same columns in every plan), each computed once.

    A stage computes the columns no earlier stage did, from its own product.
    A stage reading an earlier one's columns gets a bound that covers the
    products' last-bit gap, since BLAS results depend on the product's width.
    """

    def __init__(self, design: GeneDesign, y: np.ndarray, perms: np.ndarray):
        self.design, self.y, self.perms = design, y, perms
        self._products: dict[int, np.ndarray] = {}
        self._fast = np.empty(0)

    def product(self, n_perms: int) -> np.ndarray:
        """The Wald statistics of the first ``n_perms`` permuted phenotypes, in a product of that width."""
        if len(self.perms) < n_perms:
            raise ValueError(f"the plan needs {n_perms} permutations, but {len(self.perms)} were drawn")
        if n_perms not in self._products:
            # A gather through an intp index is about 3x faster than through a narrow one.
            self._products[n_perms] = self.design.z_batch(self.y[np.asarray(self.perms[:n_perms], dtype=np.intp)].T)
        return self._products[n_perms]

    def filter(self, plan: PermutationPlan) -> tuple[np.ndarray, Callable]:
        """The plan's fast values and the function giving a fast value's error bound."""
        n, done = plan.n_perms, self._fast.size
        if n > done:
            self._fast = np.concatenate([self._fast, self.design.fast_log_gene_bf(self.product(n)[:, done:])])
        y = self.y if done else None
        return self._fast[:n], lambda v: self.design.fast_error_bound(v, y)


def _certified_order_statistic(scan: _FastPass, plan: PermutationPlan, rank: int) -> float | None:
    """The rank-th smallest exact log gene Bayes factor of the plan's columns, or None.

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
    fast, bound_of = scan.filter(plan)
    q = float(np.partition(fast, rank - 1)[rank - 1])
    if not math.isfinite(q):
        return None
    d = bound_of(q)
    diff, width = fast - q, bound_of(fast) + d
    below = diff < -width
    band = ~below & ~(diff > width)
    exact = np.sort(scan.design.exact_log_gene_bf(scan.product(plan.n_perms), band))
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
    *,
    shared: _FastPass | None = None,
) -> float:
    """gamma-quantile of the gene Bayes factor's permutation null.

    ``y`` is the gene's phenotype vector and ``perms`` its permutation
    matrix (one permutation of the individuals per row); the null is the
    gene Bayes factor of the first ``plan.n_perms`` permuted phenotypes.
    Requires gamma * (n_perms + 1) >= 1 so the quantile is actually
    resolvable at this permutation count. Quantile estimation is what feeds
    the QBF null-proportion estimator. The order statistic is found from
    the fast values (:func:`_certified_order_statistic`); where they cannot
    certify it, every column is recomputed exactly. ``shared`` is the fast
    pass :func:`scan_gene` shares between its stages; by default the stage
    makes its own.
    """
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if g * (plan.n_perms + 1) < 1.0:
        raise ValueError("gamma * (n_perms + 1) must be at least 1")
    scan = shared or _FastPass(design, y, perms)
    log_q = _certified_order_statistic(scan, plan, max(1, math.ceil(g * plan.n_perms)))
    if log_q is None:
        log_q = _empirical_quantile(design.exact_log_gene_bf(scan.product(plan.n_perms), slice(None)), g)
    return float(np.exp(np.minimum(log_q, 709.0)))


def permutation_pvalue(
    observed: float,
    design: GeneDesign,
    y: np.ndarray,
    perms: np.ndarray,
    plan: PermutationPlan,
    *,
    shared: _FastPass | None = None,
) -> float:
    """Add-one permutation p-value of an observed statistic.

    ``observed`` is a gene Bayes factor on log scale (larger is more
    extreme), compared with the log statistics of the first
    ``plan.n_perms`` permuted phenotypes directly, so that evidence beyond
    the float range keeps its rank. A permuted statistic whose fast value
    exceeds ``observed`` by more than its error bound counts as at least
    as extreme, one below it by more than its bound does not, and only
    the columns in between, or with a non-finite fast value, are
    recomputed exactly and compared. ``shared``: as for the quantile.
    """
    obs = float(observed)
    if not math.isfinite(obs):
        raise ValueError("observed log gene Bayes factor must be finite")
    scan = shared or _FastPass(design, y, perms)
    fast, bound_of = scan.filter(plan)
    diff, bound = fast - obs, bound_of(fast)
    above = diff > bound
    band = ~above & ~(diff < -bound)
    n_extreme = int(np.count_nonzero(above))
    if band.any():
        n_extreme += int(np.count_nonzero(design.exact_log_gene_bf(scan.product(plan.n_perms), band) >= obs))
    return (1 + n_extreme) / (plan.n_perms + 1)


class GeneScan(NamedTuple):
    """One gene's observed statistic and permutation products."""

    log_bf: float
    null_q: float
    pvalue: float | None


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
    ``plan.n_perms`` and ``perm_p``, by :func:`compact_permutations`;
    ``perms`` passes that matrix in when it was drawn beforehand.
    :func:`permute_null_quantile` then scans the first ``plan.n_perms`` of
    them and, for ``perm_p`` > 0, :func:`permutation_pvalue` the first
    ``perm_p`` under a ``perm_p``-permutation plan of the same seed, both
    reading one fast pass (:class:`_FastPass`). Each step that runs is a
    ``bfdr._trace`` stage; building the design is ``observed_scan``'s.
    """
    y = np.asarray(gene.y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a 1-d phenotype vector")
    with _trace.span("permutation.observed_scan"):
        try:
            design, log_bf = checked_gene_design(gene.G, y, sigma, grid)
        except ScaleError as exc:
            raise ScaleError(0, exc.reason, f"gene {gene.id!r}") from None
        except ValueError as exc:
            raise RowError(0, str(exc), f"gene {gene.id!r}") from None
    if perms is None:
        with _trace.span("permutation.draw_permutations"):
            perms = compact_permutations(plan.seed, gene.id, y.size, max(plan.n_perms, perm_p))
    shared = _FastPass(design, y, perms)
    with _trace.span("permutation.permute_null_quantile"):
        null_q = permute_null_quantile(design, y, perms, gamma, plan, shared=shared)
    pvalue = None
    if perm_p > 0:
        with _trace.span("permutation.permutation_pvalue"):
            pvalue = permutation_pvalue(log_bf, design, y, perms, PermutationPlan(perm_p, plan.seed), shared=shared)
    return GeneScan(log_bf, null_q, pvalue)
