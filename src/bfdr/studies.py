"""End-to-end study runners shared by the command line and the test rig.

A study runs one batch of tests through every competing procedure and
scores each against the generating truth; ``fdr_control.decide`` runs
each procedure. Study I tests are independent, so the quantile side of
QBF is available in closed form; study II works at gene level, where
QBF's null quantiles come from the permutation engine. Each gene is one
task: its observed Bayes factor, its null quantile and, when asked, its
permutation p-value come from one design, built and scale-checked in the
gene's own scan, and one permutation draw (see ``permutation.scan_gene``).
A failing gene raises in gene order, as ``map_parallel`` returns, so the
first one is named at any worker count. All genes of a dataset go through
one process pool when more than one worker is requested and more than one
core is usable (the pool is capped at the usable cores). Each worker runs
single-threaded BLAS, so the workers do not compete for the cores with
BLAS threads of their own. All pool work is per-test and
substream-seeded, so the worker count never changes any result, only the
wall clock.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bayes_factor import DEFAULT_OMEGA_GRID, OmegaGrid, bf_null_quantiles
from .fdr_control import decide, two_sided_normal_p
from .model import Batch, EvalReport, GeneData
from .permutation import PermutationPlan, scan_gene
from .simulation import score

__all__ = [
    "MethodResult",
    "StudyResult",
    "map_parallel",
    "analyze_study_i",
    "analyze_genes",
    "run_study_ii",
]

@dataclass(frozen=True, eq=False)
class MethodResult:
    """One procedure's outcome on one dataset.

    ``rejected`` is a boolean mask aligned with the study's batch.
    """

    method: str
    pi0_hat: float
    rejected: np.ndarray
    eval: EvalReport


@dataclass(frozen=True, eq=False)
class StudyResult:
    """A batch of tests, the per-test inputs of every procedure, and their outcomes.

    ``quantiles`` are the null Bayes-factor quantiles QBF needs and
    ``pvalues`` the p-values of the step-up and q-value arms (None when
    those arms are not run), both aligned with ``batch``. ``gene_seconds``
    maps each stage of ``permutation.scan_gene`` to its time summed over
    genes, which is work and not wall clock when the genes run on several
    workers; it is empty for a study of independent tests. ``results``
    holds each procedure's outcome once it has been decided and scored,
    and is empty before.
    """

    batch: Batch
    quantiles: np.ndarray
    pvalues: np.ndarray | None
    gene_seconds: dict[str, float]
    results: dict[str, MethodResult] = field(default_factory=dict)


def _decide_all(study: StudyResult, alternative: np.ndarray, alpha: float, gamma: float) -> StudyResult:
    """Decide every procedure whose inputs the study holds, and score it against the truth mask."""
    p_value_arms = ("bh", "storey") if study.pvalues is not None else ()
    results = {}
    for method in ("ebf", "qbf", *p_value_arms):
        est, decision = decide(method, alpha, gamma, study.batch, study.quantiles, study.pvalues)
        results[method] = MethodResult(method, est.pi0_hat, decision.rejected, score(decision.rejected, alternative))
    return replace(study, results=results)


def _single_threaded_blas() -> None:
    """Pool initializer: one BLAS thread per worker, so workers do not oversubscribe the cores.

    A ``bfdr`` command's workers have one already, because ``cli`` sets
    ``OPENBLAS_NUM_THREADS`` before numpy loads; this serves library
    callers whose numpy started more.

    dlsym on numpy's extension module also searches the libraries it links,
    so this finds the BLAS numpy actually calls, under the symbol names of
    the OpenBLAS builds numpy ships with. Without such a symbol it does nothing.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return
    for template in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        set_threads = getattr(lib, template.format("set_num_threads"), None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return


def _pool_workers(threads: int, n_items: int) -> int:
    """Workers for a pool over ``n_items``: ``threads``, capped at the usable cores and the items.

    More single-threaded workers than cores only time-slice the same
    cores, and more workers than items would sit idle.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cores = 0
    return min(threads, cores or os.cpu_count() or 1, n_items)


def map_parallel(fn: Callable, items: Sequence, threads: int) -> list:
    """Map a picklable function over items, optionally on a process pool.

    Results come back in input order whatever the worker count, and the
    first failing item in that order raises its exception. The pool has
    ``threads`` workers at most, and no more than the cores this
    process may run on or the items; when that leaves one worker, the
    items are mapped in this process without a pool, which produces
    identical output. Pool workers run single-threaded BLAS; the calling
    process keeps its own BLAS thread count.
    """
    workers = _pool_workers(threads, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    # Imported here, so that a process that starts no pool does not pay
    # for importing multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_single_threaded_blas) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def analyze_study_i(
    batch: Batch,
    alternative: np.ndarray,
    alpha: float = 0.05,
    gamma: float = 0.5,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
) -> StudyResult:
    """Run all four procedures on a batch of independent tests.

    The batch must carry z and se (study-I batches do); QBF's null
    quantiles come from the known-null-law closed form and the p-value
    baselines from the two-sided normal law of z.
    """
    if batch.z is None or batch.se is None:
        raise ValueError("study-I analysis needs z and se on every test")
    pvalues = two_sided_normal_p(batch.z)
    quantiles = bf_null_quantiles(batch.se, gamma, grid)
    return _decide_all(StudyResult(batch, quantiles, pvalues, {}), alternative, alpha, gamma)


def analyze_genes(
    genes: Sequence[GeneData],
    sigma: float,
    grid: OmegaGrid,
    gamma: float,
    plan: PermutationPlan,
    threads: int = 1,
    perm_p: int = 0,
) -> StudyResult:
    """Observed gene Bayes factors, permutation null quantiles and, for
    ``perm_p`` > 0, permutation p-values at that count from the same seed.

    One task per gene, all in one ``map_parallel`` call. The result holds
    no decisions yet; its ``gene_seconds`` are the stage times of
    ``scan_gene`` summed over genes.

    Each gene is checked in its own scan, and the error of the first
    failing gene in gene order is raised at any worker count, when the
    genes before it and, on a pool, some after it have been scanned.
    """
    task = partial(scan_gene, sigma=sigma, grid=grid, gamma=gamma, plan=plan, perm_p=perm_p)
    scans = map_parallel(task, genes, threads)
    batch = Batch(tuple(g.id for g in genes), log_bf=np.array([s.log_bf for s in scans]))
    pvalues = np.array([s.pvalue for s in scans]) if perm_p > 0 else None
    stages = scans[0].seconds if scans else ()
    gene_seconds = {stage: math.fsum(s.seconds[stage] for s in scans) for stage in stages}
    return StudyResult(batch, np.array([s.null_q for s in scans]), pvalues, gene_seconds)


def run_study_ii(
    genes: Sequence[GeneData],
    alternative: np.ndarray,
    sigma: float,
    alpha: float = 0.05,
    gamma: float = 0.5,
    n_perms: int = 100,
    perm_seed: int = 0,
    threads: int = 1,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    perm_p: int = 0,
) -> StudyResult:
    """Analyze generated study-II genes with EBF and permutation-backed QBF.

    ``perm_p`` > 0 adds the frequentist arm: permutation p-values at that
    permutation count, fed to the step-up and q-value procedures. Its
    permutations are drawn from the same seed as QBF's, so the first
    ``n_perms`` of them are QBF's. A failing gene raises as in :func:`analyze_genes`.
    """
    plan = PermutationPlan(n_perms=n_perms, seed=perm_seed)
    analysis = analyze_genes(genes, sigma, grid, gamma, plan, threads, perm_p)
    return _decide_all(analysis, alternative, alpha, gamma)
