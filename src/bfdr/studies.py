"""End-to-end study runners shared by the command line and the test rig.

A study runs one batch of tests through every competing procedure and
scores each against the generating truth; ``fdr_control.decide`` runs
each procedure. Study I tests are independent, so the quantile side of
QBF is available in closed form; study II works at gene level, where
QBF's null quantiles come from the permutation engine. Each gene is one
task: its observed Bayes factor, its null quantile and, when asked, its
permutation p-value come from one design, built and scale-checked in the
gene's own scan, and one permutation draw (see ``permutation.scan_gene``).

Gene tasks go through :func:`map_parallel`, which runs them on forked
worker processes when more than one worker is requested and more than
one core is usable (the workers are capped at the usable cores), and in
this process otherwise or where ``os.fork`` does not exist. A failing
gene raises in gene order, as ``map_parallel`` returns, so the first one
is named at any worker count. :func:`imap_parallel` is the same map
handing each result on as soon as it is due, which ``bfdr sim
--scenario 1`` runs over the test ranges of all its datasets.
:func:`simulate_study_ii` runs a simulated study II as one pipeline: the
workers are forked before the dataset's LD calibration and draw their
genes' permutations while this process calibrates; then each generates
its own genes from their substreams and scans them, and only each gene's
statistics come back. Each worker runs
single-threaded BLAS, so the workers do not compete for the cores with
BLAS threads of their own. All work is per gene and substream-seeded, so
the worker count never changes any result, only the wall clock.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .bayes_factor import DEFAULT_OMEGA_GRID, OmegaGrid, bf_null_quantiles
from .fdr_control import decide, two_sided_normal_p
from .model import Batch, EvalReport, GeneData
from .permutation import GeneScan, PermutationPlan, compact_permutations, scan_gene
from .simulation import _SIM_II_BLOCK, SimIIConfig, calibrate_ld, gene_id, score, simulate_II

__all__ = [
    "MethodResult",
    "StudyResult",
    "map_parallel",
    "imap_parallel",
    "analyze_study_i",
    "analyze_genes",
    "simulate_study_ii",
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
    maps each per-gene stage (those of ``permutation.scan_gene``, and for
    :func:`simulate_study_ii` the generation) to its time summed over
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


def _pool_workers(threads: int | None, n_items: int) -> int:
    """Workers for a map over ``n_items``: ``threads``, capped at the usable cores and the items.

    ``threads`` None asks for one worker per usable core. More
    single-threaded workers than cores only time-slice the same cores, and
    more workers than items would sit idle.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        cores = 0
    cores = cores or os.cpu_count() or 1
    return min(cores if threads is None else threads, cores, n_items)


def map_parallel(
    fn: Callable,
    items: Sequence,
    threads: int | None,
    *,
    prepare: Callable | None = None,
    setup: Callable[[], object] | None = None,
    block: int = 1,
) -> list:
    """Map a function over items, on forked worker processes when more than one can run.

    Plainly, this returns ``[fn(x) for x in items]``; it is
    :func:`imap_parallel`'s results as a list.
    """
    return list(imap_parallel(fn, items, threads, prepare=prepare, setup=setup, block=block))


def imap_parallel(
    fn: Callable,
    items: Sequence,
    threads: int | None,
    *,
    prepare: Callable | None = None,
    setup: Callable[[], object] | None = None,
    block: int = 1,
) -> Iterator:
    """Yield ``fn(x)`` for each of the items, in input order, on forked worker processes when more than one can run.

    With ``setup``, the map runs in two stages around a value that this
    process computes meanwhile: ``prepare(x)`` runs on each item before the
    value exists, and then ``fn(value, xs, prepared)`` runs on blocks of at
    most ``block`` items and their prepared values, yielding one result
    per item, in order.

    Results come in input order whatever the worker count, each as soon as
    it and every result before it are done, so a consumer can work on the
    first results while the workers compute later ones. The first failing
    item in that order raises its exception, once every item before it
    has been yielded; a failing ``setup`` raises before any item does.
    There are ``threads`` workers at most (None: as many as there are
    usable cores), and no more than the cores this process may run on or
    the items. When that leaves one worker, or ``os.fork`` does not exist,
    the items are mapped in this process, one block at a time as results
    are asked for, with identical output: ``setup`` first, then each
    block's items prepared and run.

    Workers are forked from this process when the first result is asked
    for, so they read ``items`` and the functions as they are here and
    nothing is pickled on the way in; each result comes back pickled.
    Each worker runs single-threaded BLAS and takes chunks of items from
    one shared queue. Under ``setup``, a worker prepares items until it
    holds its even share of them or ``block``, waits for the value, runs
    what it holds as one block, and then one block per chunk it takes. A
    worker that dies before its items are done raises
    :class:`ChildProcessError`. Every worker has ended and been reaped
    when the generator is exhausted, raises or is closed; a consumer that
    may stop early closes it (``contextlib.closing``), and the workers
    are then killed unless every result is in.
    """
    run = fn if setup is not None else partial(_run_plain, fn)
    prepare = prepare or _unprepared
    workers = _pool_workers(threads, len(items)) if hasattr(os, "fork") else 1
    if workers > 1:
        # Loaded here, so that a command that maps in this process does not compile it.
        from ._fork import forked_imap

        yield from forked_imap(run, prepare, setup, items, workers, block)
        return
    value = setup() if setup is not None else None
    for start in range(0, len(items), block):
        xs = items[start : start + block]
        for ok, out in _outcomes(run, value, xs, *_prepared(prepare, xs)):
            if not ok:
                raise out
            yield out


def _unprepared(x):
    return x


def _run_plain(fn: Callable, value, xs: Sequence, prepared: list) -> Iterator:
    return map(fn, xs)


def _prepared(prepare: Callable, xs: Sequence) -> tuple[list, Exception | None]:
    """The prepared values of the leading items of ``xs`` that prepare, and the error of the next one."""
    values = []
    for x in xs:
        try:
            values.append(prepare(x))
        except Exception as exc:
            return values, exc
    return values, None


def _outcomes(run: Callable, value, xs: Sequence, prepared: list, error: Exception | None) -> Iterator[tuple[bool, object]]:
    """``(True, result)`` for each item of a block in order, up to ``(False, error)`` for the first that fails.

    Only the items that were prepared are run; ``error``, when not None,
    is the preparing error of the item after them.
    """
    try:
        for result in run(value, xs[: len(prepared)], prepared):
            yield True, result
    except Exception as exc:
        yield False, exc
        return
    if error is not None:
        yield False, error


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

    One task per gene, all in one ``map_parallel`` call; forked workers
    read the genes as this process holds them. The result holds no
    decisions yet; its ``gene_seconds`` are the stage times of
    ``scan_gene`` summed over genes.

    Each gene is checked in its own scan, and the error of the first
    failing gene in gene order is raised at any worker count, when the
    genes before it and, on several workers, some after it have been
    scanned.
    """
    task = partial(scan_gene, sigma=sigma, grid=grid, gamma=gamma, plan=plan, perm_p=perm_p)
    return _gene_study([g.id for g in genes], map_parallel(task, genes, threads), perm_p)


def _gene_study(ids: Sequence[str], scans: Sequence[GeneScan], perm_p: int) -> StudyResult:
    """The undecided study of the genes ``ids`` from their scans, with the stage times summed over genes."""
    batch = Batch(tuple(ids), log_bf=np.array([s.log_bf for s in scans]))
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
    """Analyze study-II genes already in memory with EBF and permutation-backed QBF.

    ``perm_p`` > 0 adds the frequentist arm: permutation p-values at that
    permutation count, fed to the step-up and q-value procedures. Its
    permutations are drawn from the same seed as QBF's, so the first
    ``n_perms`` of them are QBF's. A failing gene raises as in
    :func:`analyze_genes`. This is the library form for genes a caller
    holds; ``bfdr sim`` runs :func:`simulate_study_ii`, which gives the
    same study without holding the genes.
    """
    plan = PermutationPlan(n_perms=n_perms, seed=perm_seed)
    analysis = analyze_genes(genes, sigma, grid, gamma, plan, threads, perm_p)
    return _decide_all(analysis, alternative, alpha, gamma)


def simulate_study_ii(
    config: SimIIConfig,
    alpha: float = 0.05,
    gamma: float = 0.5,
    n_perms: int = 100,
    perm_seed: int = 0,
    threads: int = 1,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    perm_p: int = 0,
) -> tuple[StudyResult, np.ndarray]:
    """Generate a study-II dataset and analyze it in one pipeline; returns the study and its truth mask.

    The study is bit for bit ``run_study_ii(*simulate_II(config),
    sigma=config.sigma, ...)`` with the same settings, at any worker
    count. Each gene is an item of :func:`map_parallel`: its permutations
    are drawn and stored compactly
    (:func:`~bfdr.permutation.compact_permutations`) while this process
    runs the LD calibration (:func:`~bfdr.simulation.calibrate_ld`); each
    block of genes is then generated by ``simulate_II`` at the calibrated
    coefficient, and each gene scanned with its drawn permutations. Only
    each gene's scan and truth flag come back, never its data.
    ``gene_seconds`` holds ``scan_gene``'s stages plus the draws and the
    generation (``simulation.simulate_II``, each block's time shared
    evenly among its genes), summed over genes.
    """
    plan = PermutationPlan(n_perms=n_perms, seed=perm_seed)
    draw = partial(_draw_gene, plan.seed, config.n, max(n_perms, perm_p))
    scan = partial(_scan_new_genes, config, grid, gamma, plan, perm_p)
    setup = partial(calibrate_ld, config)
    outcomes = map_parallel(scan, range(config.m), threads, prepare=draw, setup=setup, block=_SIM_II_BLOCK)
    scans, alternative = zip(*outcomes)
    analysis = _gene_study([gene_id(i) for i in range(config.m)], scans, perm_p)
    alternative = np.array(alternative, dtype=bool)
    return _decide_all(analysis, alternative, alpha, gamma), alternative


def _draw_gene(seed: int, n: int, n_perms: int, i: int) -> tuple[np.ndarray, float]:
    """Simulated gene ``i``'s compact permutation matrix and the seconds its draw took."""
    t0 = time.perf_counter()
    perms = compact_permutations(seed, gene_id(i), n, n_perms)
    return perms, time.perf_counter() - t0


def _scan_new_genes(
    config: SimIIConfig,
    grid: OmegaGrid,
    gamma: float,
    plan: PermutationPlan,
    perm_p: int,
    rho: float,
    indices: Sequence[int],
    drawn: list[tuple[np.ndarray, float]],
) -> Iterator[tuple[GeneScan, bool]]:
    """Generate a block of genes at the latent coefficient ``rho``; yield each one's scan and truth flag."""
    t0 = time.perf_counter()
    genes, alternative = simulate_II(config, indices, rho)
    share = (time.perf_counter() - t0) / len(genes)
    for gene, is_alt, (perms, draw_seconds) in zip(genes, alternative.tolist(), drawn):
        scan = scan_gene(gene, config.sigma, grid, gamma, plan, perm_p, perms)
        seconds = {"simulation.simulate_II": share, "permutation.draw_permutations": draw_seconds, **scan.seconds}
        yield scan._replace(seconds=seconds), is_alt
