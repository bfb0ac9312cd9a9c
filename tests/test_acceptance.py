"""Acceptance suite: end-to-end statistical and operational guarantees.

Each test pins a target value with an explicit tolerance, or an exact
property. The two simulated workloads (the independent-test study and the
correlated gene-block study) are generated once per session and shared by
every test that scores them. All randomness is seeded; reruns are
deterministic.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from bfdr.bayes_factor import DEFAULT_OMEGA_GRID
from bfdr.fdr_control import bfdr_decide, decide, posterior_table
from bfdr.model import Batch
from bfdr.permutation import PermutationPlan
from bfdr.pi0_estimation import auto_reject_threshold, ebf_pi0, qbf_pi0, storey_pi0
from bfdr.rng import derive_seed
from bfdr.simulation import SimIConfig, SimIIConfig, simulate_I, simulate_II
from bfdr.studies import analyze_genes, analyze_study_i, run_study_ii

ACC_SEED = 20260821

# Study-I grid: 20 replicates of m=10,000 tests at three null proportions.
STUDY_I_PI0 = (0.95, 0.55, 0.15)
STUDY_I_REPS = 20

# Pinned mean null-proportion estimates for the study-I generator at its
# default settings, with tolerances.
EBF_PI0_TARGETS = {0.95: 0.976, 0.55: 0.738, 0.15: 0.470}
EBF_PI0_TOL = 0.02
QBF_PI0_TARGETS = {0.95: 0.961, 0.55: 0.644, 0.15: 0.325}
QBF_PI0_TOL = 0.03

# Pinned mean false-non-discovery proportions at pi0 = 0.55, alpha = 0.05.
FNP_TARGETS_AT_055 = {"bh": 0.227, "storey": 0.216, "ebf": 0.230, "qbf": 0.220}
FNP_TOL = 0.02

ALPHA = 0.05

# Study-II grid: 5 replicates of m=2,000 gene blocks at two null proportions.
STUDY_II_PI0 = (0.9, 0.5)
STUDY_II_REPS = 5
STUDY_II_THREADS = 4


@pytest.fixture(scope="session")
def study_i_runs():
    """All study-I datasets analyzed by all four procedures, plus wall time."""
    rows = []
    start = time.perf_counter()
    for pi0 in STUDY_I_PI0:
        for rep in range(STUDY_I_REPS):
            seed = derive_seed(ACC_SEED, "study-i", repr(pi0), rep)
            config = SimIConfig(m=10_000, n=100, pi0=pi0, seed=seed)
            result = analyze_study_i(*simulate_I(config), alpha=ALPHA, gamma=0.5)
            for method, mr in result.results.items():
                rows.append(
                    {
                        "pi0": pi0,
                        "rep": rep,
                        "method": method,
                        "pi0_hat": mr.pi0_hat,
                        "fdp": mr.eval.fdp,
                        "fnp": mr.eval.fnp,
                    }
                )
    elapsed = time.perf_counter() - start
    return rows, elapsed


def _mean(rows, pi0, method, field):
    sel = [r[field] for r in rows if r["pi0"] == pi0 and r["method"] == method]
    assert len(sel) == STUDY_I_REPS
    return float(np.mean(sel))


@pytest.fixture(scope="session")
def study_ii_runs():
    """Study-II datasets analyzed at 100 and 500 permutations, plus one kept
    dataset for the timing and determinism checks."""
    rows = []
    kept = None
    start = time.perf_counter()
    for pi0 in STUDY_II_PI0:
        for rep in range(STUDY_II_REPS):
            seed = derive_seed(ACC_SEED, "study-ii", repr(pi0), rep)
            config = SimIIConfig(m=2000, pi0=pi0, seed=seed)
            genes, truth = simulate_II(config)
            perm_seed = derive_seed(seed, "perm")
            res100 = run_study_ii(
                genes, truth, sigma=1.0, alpha=ALPHA, n_perms=100,
                perm_seed=perm_seed, threads=STUDY_II_THREADS,
            )
            res500 = run_study_ii(
                genes, truth, sigma=1.0, alpha=ALPHA, n_perms=500,
                perm_seed=perm_seed, threads=STUDY_II_THREADS,
            )
            rows.append(
                {
                    "pi0": pi0,
                    "rep": rep,
                    "ebf_fdp": res100.results["ebf"].eval.fdp,
                    "qbf_fdp": res100.results["qbf"].eval.fdp,
                    "ebf_pi0_hat": res100.results["ebf"].pi0_hat,
                    "qbf_pi0_100": res100.results["qbf"].pi0_hat,
                    "qbf_pi0_500": res500.results["qbf"].pi0_hat,
                }
            )
            if kept is None:
                kept = (genes, truth, perm_seed)
    elapsed = time.perf_counter() - start
    return rows, elapsed, kept


@pytest.mark.slow
class TestStudyINullProportion:
    """Criterion 1: mean estimated null proportions land on their pinned
    targets, and the whole 60-dataset study stays under two minutes."""

    def test_ebf_means(self, study_i_runs):
        rows, _ = study_i_runs
        for pi0, target in EBF_PI0_TARGETS.items():
            mean = _mean(rows, pi0, "ebf", "pi0_hat")
            assert mean == pytest.approx(target, abs=EBF_PI0_TOL), f"pi0={pi0}"

    def test_qbf_means(self, study_i_runs):
        rows, _ = study_i_runs
        for pi0, target in QBF_PI0_TARGETS.items():
            mean = _mean(rows, pi0, "qbf", "pi0_hat")
            assert mean == pytest.approx(target, abs=QBF_PI0_TOL), f"pi0={pi0}"

    def test_runtime_under_two_minutes(self, study_i_runs):
        _, elapsed = study_i_runs
        assert elapsed < 120.0, f"study I took {elapsed:.1f}s"


@pytest.mark.slow
class TestStudyIFdrControl:
    """Criterion 2: realized FDR control and the error-rate ordering of the
    four procedures, plus pinned mean FNPs at pi0 = 0.55."""

    @pytest.mark.parametrize("method", ["ebf", "qbf", "bh", "storey"])
    def test_mean_fdp_at_most_six_percent(self, study_i_runs, method):
        rows, _ = study_i_runs
        for pi0 in STUDY_I_PI0:
            mean_fdp = _mean(rows, pi0, method, "fdp")
            assert mean_fdp <= 0.06, f"{method} at pi0={pi0}: mean FDP {mean_fdp:.4f}"

    def test_fdp_ordering(self, study_i_runs):
        rows, _ = study_i_runs
        for pi0 in STUDY_I_PI0:
            ebf = _mean(rows, pi0, "ebf", "fdp")
            qbf = _mean(rows, pi0, "qbf", "fdp")
            storey = _mean(rows, pi0, "storey", "fdp")
            assert ebf <= qbf, f"pi0={pi0}: EBF {ebf:.4f} > QBF {qbf:.4f}"
            assert qbf <= storey + 0.01, f"pi0={pi0}: QBF {qbf:.4f} > Storey {storey:.4f} + 0.01"

    def test_fnp_at_middling_pi0(self, study_i_runs):
        rows, _ = study_i_runs
        for method, target in FNP_TARGETS_AT_055.items():
            mean_fnp = _mean(rows, 0.55, method, "fnp")
            assert mean_fnp == pytest.approx(target, abs=FNP_TOL), f"{method}"


@pytest.mark.slow
class TestUpperBoundCoverage:
    """Criterion 3: the null-proportion estimators sit at or above the true
    value in at least 90% of (replicate, method) pairs."""

    def test_coverage(self, study_i_runs):
        rows, _ = study_i_runs
        pairs = [r for r in rows if r["method"] in ("ebf", "qbf")]
        assert len(pairs) == 2 * STUDY_I_REPS * len(STUDY_I_PI0)
        hits = sum(1 for r in pairs if r["pi0_hat"] >= r["pi0"])
        assert hits >= 0.9 * len(pairs), f"{hits}/{len(pairs)} covered"


class TestPureNull:
    """Criterion 4: on pure-null data the EBF estimate is near 1 almost
    always, and the check itself runs in seconds."""

    def test_twenty_seeds(self):
        start = time.perf_counter()
        hits = 0
        for s in range(20):
            seed = derive_seed(ACC_SEED, "pure-null", s)
            batch, _ = simulate_I(SimIConfig(m=5000, n=100, pi0=1.0, seed=seed))
            if ebf_pi0(batch.bf).pi0_hat >= 0.95:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits >= 19, f"only {hits}/20 seeds reached 0.95"
        assert elapsed < 60.0, f"pure-null check took {elapsed:.1f}s"


class TestCensusIdentity:
    """Criterion 5: the Bayes-factor quantile census and the p-value census
    count the same tails, so the two estimates agree exactly."""

    def test_exact_agreement(self):
        rng = np.random.default_rng(derive_seed(ACC_SEED, "census"))
        gammas = [round(0.1 * k, 1) for k in range(1, 10)]
        for _ in range(100):
            m = int(rng.integers(5, 500))
            p = rng.random(m)
            bf = 1.0 / p  # strictly decreasing in p
            for gamma in gammas:
                q = np.full(m, 1.0 / (1.0 - gamma))
                a = qbf_pi0(bf, q, gamma=gamma).pi0_hat
                b = storey_pi0(p, gamma=gamma).pi0_hat
                assert a == b, f"gamma={gamma}: {a!r} != {b!r}"


def _enumerate_upper_level_sets(vhats, alpha):
    """Largest { v > t } whose mean of (1 - v) is at most alpha."""
    best = frozenset()
    best_size = 0
    for cut in sorted({v for _, v in vhats if v > 0.0}, reverse=True):
        members = [(i, v) for i, v in vhats if v >= cut]
        if sum(1.0 - v for _, v in members) / len(members) <= alpha:
            if len(members) > best_size:
                best = frozenset(i for i, _ in members)
                best_size = len(members)
    return best


class TestDecisionRuleOracle:
    """Criterion 6: the prefix-walk decision rule equals brute-force
    enumeration over every candidate rejection set, exactly."""

    def test_thousand_instances(self):
        rng = np.random.default_rng(derive_seed(ACC_SEED, "oracle"))
        for _ in range(1000):
            m = int(rng.integers(1, 101))
            vals = rng.random(m)
            k = int(rng.integers(0, m + 1))
            vals[:k] = np.round(vals[:k], 1)  # force tied blocks
            vhats = [(f"t{i}", float(v)) for i, v in enumerate(vals)]
            alpha = float(rng.uniform(0.01, 0.4))
            rejected = {i for (i, _), r in zip(vhats, bfdr_decide(vals, alpha).rejected) if r}
            assert rejected == _enumerate_upper_level_sets(vhats, alpha)


class TestAutomaticRejection:
    """Criterion 7: under the EBF estimate, any test whose Bayes factor
    reaches m / alpha is always rejected at level alpha."""

    def test_thousand_instances(self):
        rng = np.random.default_rng(derive_seed(ACC_SEED, "auto"))
        for _ in range(1000):
            m = int(rng.integers(5, 400))
            bfs = rng.lognormal(0.0, 1.2, size=m)
            n_big = int(rng.integers(1, 4))
            bound = auto_reject_threshold(m, ALPHA)
            bfs[:n_big] = bound * rng.uniform(1.0, 50.0, size=n_big)
            batch = Batch([f"t{i}" for i in range(m)], bf=bfs)
            est = ebf_pi0(bfs)
            report = bfdr_decide(posterior_table(batch, est), ALPHA)
            assert report.rejected[:n_big].all()


@pytest.mark.slow
class TestStudyII:
    """Criterion 8: on correlated gene blocks, both Bayesian procedures keep
    the realized FDR under control, the quantile-backed estimate barely
    moves between 100 and 500 permutations, and the whole study fits in
    ten minutes with a process pool."""

    def test_mean_fdp_controlled(self, study_ii_runs):
        rows, _, _ = study_ii_runs
        for pi0 in STUDY_II_PI0:
            sel = [r for r in rows if r["pi0"] == pi0]
            assert len(sel) == STUDY_II_REPS
            ebf = float(np.mean([r["ebf_fdp"] for r in sel]))
            qbf = float(np.mean([r["qbf_fdp"] for r in sel]))
            assert ebf <= 0.06, f"pi0={pi0}: EBF mean FDP {ebf:.4f}"
            assert qbf <= 0.06, f"pi0={pi0}: QBF mean FDP {qbf:.4f}"

    def test_quantile_count_stability(self, study_ii_runs):
        """The permutation count barely moves the estimate. The study-level
        estimate (mean over replicates, the unit every other pi0 check here
        uses) shifts by < 0.02; single datasets get a looser rail because
        the fixed-rank empirical quantile targets slightly different points
        of the null law at 100 and at 500 draws (rank 50 of 100 sits at the
        50/101 point, rank 250 of 500 at 250/501), which alone moves a few
        near-median tests per thousand."""
        rows, _, _ = study_ii_runs
        for pi0 in STUDY_II_PI0:
            sel = [r for r in rows if r["pi0"] == pi0]
            mean_100 = float(np.mean([r["qbf_pi0_100"] for r in sel]))
            mean_500 = float(np.mean([r["qbf_pi0_500"] for r in sel]))
            assert abs(mean_100 - mean_500) < 0.02, (
                f"pi0={pi0}: mean {mean_100:.4f} at 100 perms vs "
                f"{mean_500:.4f} at 500"
            )
        for r in rows:
            delta = abs(r["qbf_pi0_100"] - r["qbf_pi0_500"])
            assert delta < 0.05, (
                f"pi0={r['pi0']} rep={r['rep']}: "
                f"{r['qbf_pi0_100']:.4f} vs {r['qbf_pi0_500']:.4f}"
            )

    def test_runtime_under_ten_minutes(self, study_ii_runs):
        _, elapsed, _ = study_ii_runs
        assert elapsed < 600.0, f"study II took {elapsed:.1f}s"


@pytest.mark.slow
class TestPipelineCostOrdering:
    """Criterion 9: on the study-II workload, the prefix-scan pipeline is
    cheaper than quantile calibration at 100 permutations, which is cheaper
    than permutation p-values at 500. Each arm's cost is the gene stages it
    needs, summed over genes, plus the time of its own decision."""

    def test_wall_clock_ordering(self, study_ii_runs):
        _, _, kept = study_ii_runs
        genes, _, perm_seed = kept
        plan = PermutationPlan(n_perms=100, seed=perm_seed)
        analysis = analyze_genes(genes, 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, STUDY_II_THREADS, perm_p=500)
        stages = analysis.gene_seconds

        def decision_seconds(method):
            t0 = time.perf_counter()
            decide(method, ALPHA, 0.5, analysis.batch, analysis.quantiles, analysis.pvalues)
            return time.perf_counter() - t0

        shared = stages["permutation.observed_scan"]
        permuted = shared + stages["permutation.draw_permutations"]
        t_ebf = shared + decision_seconds("ebf")
        t_qbf = permuted + stages["permutation.permute_null_quantile"] + decision_seconds("qbf")
        t_perm_p = permuted + stages["permutation.permutation_pvalue"] + decision_seconds("bh")
        assert t_ebf < t_qbf < t_perm_p, (
            f"ebf {t_ebf:.2f}s, qbf {t_qbf:.2f}s, perm-p {t_perm_p:.2f}s"
        )


@pytest.mark.slow
class TestThreadDeterminism:
    """Criterion 10: the study-II outputs are bit-identical whatever the
    worker count."""

    def test_one_four_eight_workers(self, study_ii_runs):
        _, _, kept = study_ii_runs
        genes, truth, perm_seed = kept
        outputs = [
            run_study_ii(
                genes, truth, sigma=1.0, alpha=ALPHA, n_perms=100,
                perm_seed=perm_seed, threads=threads,
            )
            for threads in (1, 4, 8)
        ]
        ref = outputs[0]
        for other in outputs[1:]:
            assert other.batch.ids == ref.batch.ids
            np.testing.assert_array_equal(other.batch.log_bf, ref.batch.log_bf)
            np.testing.assert_array_equal(other.quantiles, ref.quantiles)
            assert set(other.results) == set(ref.results)
            for method in ref.results:
                assert other.results[method].pi0_hat == ref.results[method].pi0_hat
                np.testing.assert_array_equal(other.results[method].rejected, ref.results[method].rejected)
                assert other.results[method].eval == ref.results[method].eval
