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
handing each result on as soon as it is due.
:func:`simulate_study_i`, the one study-I runner of ``bfdr sim`` and the
acceptance suite, runs it over the test ranges of all its datasets: the
workers generate later datasets' ranges while this process joins each
dataset and runs :func:`analyze_study_i` on it, bit for bit the study of
the whole dataset generated at once.
:func:`simulate_study_ii`, the study-II runner of ``bfdr sim`` and the
acceptance suite, gives :func:`analyze_genes` of the simulated genes
plus ``decide``, bit for bit, as one pipeline over ranges of genes, through
the map's ``setup`` form: the workers are forked before the dataset's LD
calibration and draw their ranges' permutations while this process
calibrates; then each generates its range from the genes' substreams and
scans it, and only each gene's statistics come back. Each worker runs
single-threaded BLAS, so the workers do not compete for the cores with
BLAS threads of their own. All work is per gene and substream-seeded, so
the worker count never changes any result, only the wall clock.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _trace
from .bayes_factor import DEFAULT_OMEGA_GRID, OmegaGrid, bf_null_quantiles
from .fdr_control import decide, two_sided_normal_p
from .model import Batch, EvalReport, GeneData
from .permutation import GeneScan, PermutationPlan, compact_permutations, scan_gene
from .rng import derive_seed
from .simulation import _SIM_II_BLOCK, SimIConfig, SimIIConfig, calibrate_ld, gene_id, score, simulate_I, simulate_II

__all__ = [
    "MethodResult",
    "StudyResult",
    "map_parallel",
    "imap_parallel",
    "analyze_study_i",
    "simulate_study_i",
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
    those arms are not run), both aligned with ``batch``. ``results`` holds
    each procedure's outcome once it has been decided and scored.
    """

    batch: Batch
    quantiles: np.ndarray
    pvalues: np.ndarray | None
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


def map_parallel(fn: Callable, items: Sequence, threads: int | None, *, setup: Callable[[], object] | None = None) -> list:
    """Map a function over items, on forked worker processes when more than one can run.

    Plainly, this returns ``[fn(x) for x in items]``; it is
    :func:`imap_parallel`'s results as a list.
    """
    return list(imap_parallel(fn, items, threads, setup=setup))


def imap_parallel(
    fn: Callable, items: Sequence, threads: int | None, *, setup: Callable[[], object] | None = None
) -> Iterator:
    """Yield ``fn(x)`` for each of the items, in input order, on forked worker processes when more than one can run.

    With ``setup``, each item runs as ``fn(value, x)`` around a value that
    this process computes meanwhile: ``value()`` returns ``setup()``'s
    result, so an item can do its first stage of work before it asks for
    the value, while ``setup`` still runs.

    Results come in input order whatever the worker count, each as soon as
    it and every result before it are done, so a consumer can work on the
    first results while the workers compute later ones. The first failing
    item in that order raises its exception, once every item before it
    has been yielded; a failing ``setup`` raises before any item does.
    There are ``threads`` workers at most (None: as many as there are
    usable cores), and no more than the cores this process may run on or
    the items. When that leaves one worker, or ``os.fork`` does not exist,
    the items are mapped in this process, one as each result is asked
    for, with identical output; ``setup`` runs once, before the first
    item.

    Workers are forked from this process when the first result is asked
    for, so they read ``items`` and the functions as they are here and
    nothing is pickled on the way in; each result comes back pickled.
    Each worker runs single-threaded BLAS and takes chunks of items from
    one shared queue. Under ``setup``, a worker reads the value the first
    time one of its items asks for it; the value's pickle may take at most
    ``select.PIPE_BUF`` bytes, or the map raises ``ValueError``. A worker
    that dies before its items are done raises
    :class:`ChildProcessError`. Every worker has ended and been reaped
    when the generator is exhausted, raises or is closed; a consumer that
    may stop early closes it (``contextlib.closing``), and the workers
    are then killed unless every result is in.
    """
    workers = _pool_workers(threads, len(items)) if hasattr(os, "fork") else 1
    if workers > 1:
        # Loaded here, so that a command that maps in this process does not compile it.
        from ._fork import forked_imap

        yield from forked_imap(fn, setup, items, workers)
        return
    if setup is not None:
        value = setup()
        fn = partial(fn, lambda: value)
    yield from map(fn, items)


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
    return _decide_all(StudyResult(batch, quantiles, pvalues), alternative, alpha, gamma)


# Tests per item of study I's map: whole blocks of ``simulate_I``, so that
# a dataset of 10^4 tests makes five items and the workers of a call end
# close together, and a range's formatted rows stay near 0.2 MB.
_SIM_I_RANGE = 2048


def simulate_study_i(
    configs: Sequence[SimIConfig], alpha: float = 0.05, gamma: float = 0.5, grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    threads: int | None = 1, per_range: Callable[[Batch, np.ndarray], object] | None = None,
) -> Iterator[tuple[StudyResult, np.ndarray, list | None]]:
    """Generate and analyze study-I datasets; yields each config's study, truth mask and parts, in order.

    Each study is bit for bit ``analyze_study_i(*simulate_I(config, grid),
    alpha, gamma, grid)`` at any worker count. Every dataset's tests are
    items of one :func:`imap_parallel` map, ranges of ``_SIM_I_RANGE``
    tests cut from the dataset's own ``m``, so the workers are forked once
    per call and simulate later datasets while this process joins and
    analyzes earlier ones, one dataset at a time. ``per_range(batch,
    alternative)``, when given, runs where each range was simulated, and
    ``parts`` is the list of its results for the dataset's ranges (None
    without it). The generation of each range and the analysis of each
    dataset are ``bfdr._trace`` stages. A failing range raises in range
    order; a consumer that may stop early closes the generator, which
    ends the workers.
    """
    items = [(config, start) for config in configs for start in range(0, config.m, _SIM_I_RANGE)]
    with contextlib.closing(imap_parallel(partial(_simulate_test_range, grid, per_range), items, threads)) as ranges:
        for config in configs:
            batches, alternatives, parts = zip(*islice(ranges, -(-config.m // _SIM_I_RANGE)))
            columns = {name: np.concatenate([getattr(b, name) for b in batches]) for name in ("log_bf", "z", "se")}
            batch = Batch(tuple(chain.from_iterable(b.ids for b in batches)), **columns)
            alternative = np.concatenate(alternatives)
            with _trace.span("studies.analyze_study_i"):
                study = analyze_study_i(batch, alternative, alpha, gamma, grid)
            yield study, alternative, per_range and list(parts)


def _simulate_test_range(grid: OmegaGrid, per_range: Callable | None, item: tuple) -> tuple:
    """The batch, truth mask and ``per_range`` result (None without it) of the ``_SIM_I_RANGE`` tests
    from ``start`` on (fewer at the end) of the study-I dataset ``config``, for ``item = (config, start)``."""
    config, start = item
    with _trace.span("simulation.simulate_I"):
        batch, alternative = simulate_I(config, grid, start, min(start + _SIM_I_RANGE, config.m))
    return batch, alternative, per_range and per_range(batch, alternative)


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
    read the genes as this process holds them. No procedure is decided.

    Each gene is checked in its own scan, and the error of the first
    failing gene in gene order is raised at any worker count, when the
    genes before it and, on several workers, some after it have been
    scanned.
    """
    task = partial(scan_gene, sigma=sigma, grid=grid, gamma=gamma, plan=plan, perm_p=perm_p)
    return _gene_study([g.id for g in genes], map_parallel(task, genes, threads), perm_p)


def _gene_study(ids: Sequence[str], scans: Sequence[GeneScan], perm_p: int) -> StudyResult:
    """The undecided study of the genes ``ids`` from their scans."""
    batch = Batch(tuple(ids), log_bf=np.array([s.log_bf for s in scans]))
    pvalues = np.array([s.pvalue for s in scans]) if perm_p > 0 else None
    return StudyResult(batch, np.array([s.null_q for s in scans]), pvalues)


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
    :func:`analyze_genes`. This is the form for genes a caller holds;
    :func:`simulate_study_ii` gives the same study without holding the
    genes, at ``perm_seed=derive_seed(config.seed, "perm")``.
    """
    plan = PermutationPlan(n_perms=n_perms, seed=perm_seed)
    analysis = analyze_genes(genes, sigma, grid, gamma, plan, threads, perm_p)
    return _decide_all(analysis, alternative, alpha, gamma)


def simulate_study_ii(
    config: SimIIConfig,
    alpha: float = 0.05,
    gamma: float = 0.5,
    n_perms: int = 100,
    threads: int = 1,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    perm_p: int = 0,
) -> tuple[StudyResult, np.ndarray]:
    """Generate a study-II dataset and analyze it in one pipeline; returns the study and its truth mask.

    At any worker count the study is bit for bit :func:`analyze_genes` of
    ``simulate_II(config)``'s genes at ``config.sigma``, under ``n_perms``
    permutations from ``derive_seed(config.seed, "perm")``, then ``decide``
    for each procedure, scored. The items of :func:`map_parallel` are
    ranges of ``min(_SIM_II_BLOCK, ceil(m / workers))`` genes, so that each
    worker has a range while this process runs the LD calibration
    (:func:`~bfdr.simulation.calibrate_ld`) and every range is one block of
    ``simulate_II``. A range's permutations are drawn and stored
    compactly (:func:`~bfdr.permutation.compact_permutations`) first;
    then its genes are generated at the calibrated coefficient, and each
    is scanned with its drawn permutations. Only each gene's scan and
    truth flag come back, never its data. The draws and the generation
    are ``bfdr._trace`` stages, as are those of each gene's scan.
    """
    plan = PermutationPlan(n_perms=n_perms, seed=derive_seed(config.seed, "perm"))
    size = min(_SIM_II_BLOCK, -(-config.m // max(1, _pool_workers(threads, config.m))))
    ranges = [range(start, min(start + size, config.m)) for start in range(0, config.m, size)]
    task = partial(_simulate_gene_range, config, grid, gamma, plan, perm_p)
    outcomes = map_parallel(task, ranges, threads, setup=partial(calibrate_ld, config))
    scans, alternative = zip(*chain.from_iterable(outcomes))
    analysis = _gene_study([gene_id(i) for i in range(config.m)], scans, perm_p)
    alternative = np.array(alternative, dtype=bool)
    return _decide_all(analysis, alternative, alpha, gamma), alternative


def _simulate_gene_range(
    config: SimIIConfig, grid: OmegaGrid, gamma: float, plan: PermutationPlan, perm_p: int, value: Callable, genes: range
) -> list[tuple[GeneScan, bool]]:
    """Each gene's scan and truth flag for a range of simulated genes.

    The range's permutations are drawn before ``value()``, the latent
    coefficient, is asked for; then the range is generated in one
    ``simulate_II`` call and each gene scanned.
    """
    with _trace.span("permutation.draw_permutations"):
        drawn = [compact_permutations(plan.seed, gene_id(i), config.n, max(plan.n_perms, perm_p)) for i in genes]
    rho = value()
    with _trace.span("simulation.simulate_II"):
        data, alternative = simulate_II(config, genes, rho)
    return [
        (scan_gene(gene, config.sigma, grid, gamma, plan, perm_p, perms), is_alt)
        for gene, is_alt, perms in zip(data, alternative.tolist(), drawn)
    ]
