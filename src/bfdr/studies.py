"""End-to-end study runners shared by the command line and the test rig.

A study runs one simulated dataset through every competing procedure and
scores each against the generating truth. Study I tests are independent,
so the quantile side of QBF is available in closed form; study II works
at gene level, where QBF's null quantiles come from the permutation
engine. Each gene is one task: its observed Bayes factor, its null
quantile and, when asked, its permutation p-value come from one design
and one permutation draw (see ``permutation.scan_gene``), and all genes
of a dataset go through one process pool when more than one worker is
requested and more than one core is usable (the pool is capped at the
usable cores). Each worker runs single-threaded BLAS, so the workers do not
compete for the cores with BLAS threads of their own. All pool work is
per-test and substream-seeded, so the worker count never changes any
result, only the wall clock.
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bayes_factor import DEFAULT_OMEGA_GRID, OmegaGrid, bf_null_quantiles
from .fdr_control import (
    apply_auto_reject,
    bfdr_decide,
    bh_decide,
    posterior_table,
    storey_decide,
    two_sided_normal_p,
)
from .model import EvalReport, SimTruth, TestRecord
from .permutation import GeneScan, PermutationPlan, Statistic, scan_gene
from .pi0_estimation import ebf_pi0, qbf_pi0
from .simulation import GeneData, SimIConfig, score, simulate_I

__all__ = [
    "MethodResult",
    "StudyResult",
    "map_parallel",
    "analyze_study_i",
    "run_study_i",
    "analyze_genes",
    "run_study_ii",
]


@dataclass(frozen=True)
class MethodResult:
    """One procedure's outcome on one dataset.

    ``seconds`` is the time of the stages the procedure needs, shared
    stages included in every procedure that needs them. In study II these
    are per-gene stage times summed over genes (the observed scan for
    every arm; the permutation draw and the quantile scan for QBF; the
    draw and the p-value scan for the p-value arms), so they measure work
    and not wall clock when the genes run on several workers.
    """

    method: str
    pi0_hat: float
    rejected: frozenset[str]
    eval: EvalReport
    seconds: float


@dataclass(frozen=True)
class StudyResult:
    """All procedures' outcomes on one dataset."""

    results: dict[str, MethodResult]
    n_tests: int

    def __getitem__(self, method: str) -> MethodResult:
        return self.results[method]


def _openblas_function(kind: str):
    """numpy's OpenBLAS ``<kind>_num_threads`` function ("set" or "get"), or None.

    dlsym on numpy's extension module also searches the libraries it links,
    so this finds the BLAS numpy actually calls, under the symbol names of
    the OpenBLAS builds numpy ships with.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    argtypes, restype = {"set": ([ctypes.c_int], None), "get": ([], ctypes.c_int)}[kind]
    for template in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        fn = getattr(lib, template.format(f"{kind}_num_threads"), None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


def _single_threaded_blas() -> None:
    """Pool initializer: one BLAS thread per worker, so workers do not oversubscribe the cores."""
    set_threads = _openblas_function("set")
    if set_threads is not None:
        set_threads(1)


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

    Results come back in input order whatever the worker count. The pool
    has ``threads`` workers at most, and no more than the cores this
    process may run on or the items; when that leaves one worker, the
    items are mapped in this process without a pool, which produces
    identical output. Pool workers run single-threaded BLAS; the calling
    process keeps its own BLAS thread count.
    """
    workers = _pool_workers(threads, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_single_threaded_blas) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def run_study_i(
    config: SimIConfig,
    alpha: float = 0.05,
    gamma: float = 0.5,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
) -> StudyResult:
    """Generate one study-I dataset and run all four procedures on it."""
    records, truth = simulate_I(config, grid)
    return analyze_study_i(records, truth, alpha, gamma, grid)


def analyze_study_i(
    records: Sequence[TestRecord],
    truth: SimTruth,
    alpha: float = 0.05,
    gamma: float = 0.5,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
) -> StudyResult:
    """Run all four procedures on independent per-test records.

    The records must carry z and se (study-I records do); QBF's null
    quantiles come from the known-null-law closed form and the p-value
    baselines from the two-sided normal law of z.
    """
    if any(r.z is None or r.se is None for r in records):
        raise ValueError("study-I analysis needs z and se on every record")
    bfs = np.array([r.bf for r in records])
    ses = np.array([r.se for r in records])
    zs = np.array([r.z for r in records])
    pvals = list(zip((r.id for r in records), two_sided_normal_p(zs).tolist()))
    results: dict[str, MethodResult] = {}

    t0 = time.perf_counter()
    est = ebf_pi0(bfs)
    report = apply_auto_reject(bfdr_decide(posterior_table(records, est), alpha), records)
    results["ebf"] = MethodResult(
        "ebf", est.pi0_hat, report.rejected, score(report, truth), time.perf_counter() - t0
    )

    t0 = time.perf_counter()
    quantiles = bf_null_quantiles(ses, gamma, grid)
    est = qbf_pi0(bfs, quantiles, gamma)
    report = bfdr_decide(posterior_table(records, est), alpha)
    results["qbf"] = MethodResult(
        "qbf", est.pi0_hat, report.rejected, score(report, truth), time.perf_counter() - t0
    )

    t0 = time.perf_counter()
    decision = bh_decide(pvals, alpha)
    results["bh"] = MethodResult(
        "bh", 1.0, decision.rejected, score(decision, truth), time.perf_counter() - t0
    )

    t0 = time.perf_counter()
    decision = storey_decide(pvals, gamma, alpha)
    results["storey"] = MethodResult(
        "storey",
        decision.pi0.pi0_hat,
        decision.rejected,
        score(decision, truth),
        time.perf_counter() - t0,
    )
    return StudyResult(results=results, n_tests=len(records))


def _gene_task(
    gene: GeneData,
    sigma: float,
    grid: OmegaGrid,
    gamma: float,
    plan: PermutationPlan,
    perm_p: int,
) -> GeneScan:
    return scan_gene(gene.y, gene.G, sigma, grid, gamma, plan, perm_p, gene.id)


@dataclass(frozen=True)
class GeneAnalysis:
    """Observed gene records plus the permutation products behind them.

    The ``seconds_*`` fields are per-gene stage times summed over genes.
    """

    records: tuple[TestRecord, ...]
    quantiles: np.ndarray
    pvalues: tuple[tuple[str, float], ...] | None
    seconds_records: float
    seconds_draws: float
    seconds_quantiles: float
    seconds_pvalues: float


def analyze_genes(
    genes: Sequence[GeneData],
    sigma: float,
    grid: OmegaGrid,
    gamma: float,
    plan: PermutationPlan,
    threads: int = 1,
    perm_p: int = 0,
) -> GeneAnalysis:
    """Observed gene Bayes factors, permutation null quantiles and, for
    ``perm_p`` > 0, permutation p-values at that count from the same seed.

    One task per gene, all in one ``map_parallel`` call.
    """
    task = partial(_gene_task, sigma=sigma, grid=grid, gamma=gamma, plan=plan, perm_p=perm_p)
    scans = map_parallel(task, genes, threads)
    records = tuple(TestRecord.from_log_bf(g.id, s.log_bf) for g, s in zip(genes, scans))
    pvalues = tuple((g.id, s.pvalue) for g, s in zip(genes, scans)) if perm_p > 0 else None
    observed, draws, quantiles, pvalue_scans = (
        math.fsum(s.seconds[stage] for s in scans) for stage in range(4)
    )
    return GeneAnalysis(
        records=records,
        quantiles=np.array([s.null_q for s in scans]),
        pvalues=pvalues,
        seconds_records=observed,
        seconds_draws=draws,
        seconds_quantiles=quantiles,
        seconds_pvalues=pvalue_scans,
    )


@dataclass(frozen=True)
class StudyIIResult:
    """Study-II outcomes plus the intermediate products needed to audit them."""

    results: dict[str, MethodResult]
    records: tuple[TestRecord, ...]
    quantiles: np.ndarray
    perm_pvalues: tuple[tuple[str, float], ...] | None
    n_tests: int

    def __getitem__(self, method: str) -> MethodResult:
        return self.results[method]


def run_study_ii(
    genes: Sequence[GeneData],
    truth: SimTruth,
    sigma: float,
    alpha: float = 0.05,
    gamma: float = 0.5,
    n_perms: int = 100,
    perm_seed: int = 0,
    threads: int = 1,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    perm_p: int = 0,
) -> StudyIIResult:
    """Analyze generated study-II genes with EBF and permutation-backed QBF.

    ``perm_p`` > 0 adds the frequentist arm: permutation p-values at that
    permutation count, fed to the step-up and q-value procedures. Its
    permutations are drawn from the same seed as QBF's, so the first
    ``n_perms`` of them are QBF's. Each arm's ``seconds`` counts the shared
    observed-Bayes-factor scan, since no arm can run without it.
    """
    plan = PermutationPlan(n_perms=n_perms, seed=perm_seed, statistic=Statistic.GENE_BF)
    analysis = analyze_genes(genes, sigma, grid, gamma, plan, threads, perm_p)
    records = list(analysis.records)
    bfs = np.array([r.bf for r in records])
    results: dict[str, MethodResult] = {}

    t0 = time.perf_counter()
    est = ebf_pi0(bfs)
    report = apply_auto_reject(bfdr_decide(posterior_table(records, est), alpha), records)
    results["ebf"] = MethodResult(
        "ebf",
        est.pi0_hat,
        report.rejected,
        score(report, truth),
        analysis.seconds_records + (time.perf_counter() - t0),
    )

    t0 = time.perf_counter()
    est = qbf_pi0(bfs, analysis.quantiles, gamma)
    report = bfdr_decide(posterior_table(records, est), alpha)
    results["qbf"] = MethodResult(
        "qbf",
        est.pi0_hat,
        report.rejected,
        score(report, truth),
        analysis.seconds_records
        + analysis.seconds_draws
        + analysis.seconds_quantiles
        + (time.perf_counter() - t0),
    )

    perm_pvalues = analysis.pvalues
    if perm_pvalues is not None:
        t_perm = analysis.seconds_records + analysis.seconds_draws + analysis.seconds_pvalues
        t0 = time.perf_counter()
        decision = bh_decide(perm_pvalues, alpha)
        results["bh"] = MethodResult(
            "bh",
            1.0,
            decision.rejected,
            score(decision, truth),
            t_perm + (time.perf_counter() - t0),
        )
        t0 = time.perf_counter()
        decision = storey_decide(perm_pvalues, gamma, alpha)
        results["storey"] = MethodResult(
            "storey",
            decision.pi0.pi0_hat,
            decision.rejected,
            score(decision, truth),
            t_perm + (time.perf_counter() - t0),
        )

    return StudyIIResult(
        results=results,
        records=analysis.records,
        quantiles=analysis.quantiles,
        perm_pvalues=perm_pvalues,
        n_tests=len(records),
    )
