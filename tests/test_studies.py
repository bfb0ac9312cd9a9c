"""Study runners: all arms present, scores consistent with their parts,
and worker-count independence of every reported result."""
from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfdr import studies
from bfdr.bayes_factor import DEFAULT_OMEGA_GRID, gene_log_bf
from bfdr.fdr_control import bfdr_decide, posterior_table
from bfdr.model import SimTruth
from bfdr.permutation import (
    PermutationPlan,
    permutation_pvalue,
    permute_null_quantile,
    permuted_statistics,
)
from bfdr.pi0_estimation import ebf_pi0
from bfdr.simulation import GeneData, SimIConfig, SimIIConfig, simulate_I, simulate_II
from bfdr.studies import (
    _openblas_function,
    _pool_workers,
    analyze_genes,
    analyze_study_i,
    map_parallel,
    run_study_i,
    run_study_ii,
)


def _square(x):
    return x * x


def _blas_threads(_):
    return _openblas_function("get")()


def _pid(_):
    return os.getpid()


class TestMapParallel:
    def test_preserves_order_and_values(self):
        items = list(range(37))
        seq = map_parallel(_square, items, threads=1)
        par = map_parallel(_square, items, threads=3)
        assert seq == par == [x * x for x in items]

    def test_single_item_stays_sequential(self):
        assert map_parallel(_square, [4], threads=8) == [16]

    @pytest.mark.parametrize(
        "threads, n_items, usable, expected",
        [(8, 100, 2, 2), (2, 100, 8, 2), (8, 3, 16, 3), (1, 100, 4, 1), (8, 100, 0, 6), (3, 0, 4, 0)],
    )
    def test_pool_capped_at_usable_cores_and_items(self, monkeypatch, threads, n_items, usable, expected):
        """An empty affinity set falls back to os.cpu_count (6 here)."""
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)
        monkeypatch.setattr(studies.os, "cpu_count", lambda: 6)
        assert _pool_workers(threads, n_items) == expected

    def test_pool_size_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(studies.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(studies.os, "cpu_count", lambda: 3)
        assert _pool_workers(8, 100) == 3

    def test_one_usable_core_maps_in_process(self, monkeypatch):
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert map_parallel(_pid, list(range(5)), threads=8) == [os.getpid()] * 5

    def test_workers_run_single_threaded_blas(self, monkeypatch):
        get_threads = _openblas_function("get")
        if get_threads is None:
            pytest.skip("numpy's BLAS exposes no thread-count symbol")
        # Two usable cores, so the pool runs on a one-core machine too.
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        before = get_threads()
        assert map_parallel(_blas_threads, list(range(6)), threads=2) == [1] * 6
        assert get_threads() == before


class TestStudyI:
    def test_all_arms_present_and_consistent(self):
        result = run_study_i(SimIConfig(m=400, n=60, pi0=0.5, seed=14))
        assert set(result.results) == {"ebf", "qbf", "bh", "storey"}
        assert result.n_tests == 400
        for arm in result.results.values():
            assert 0.0 <= arm.pi0_hat <= 1.0
            assert arm.eval.n_rejected == len(arm.rejected)
            assert arm.seconds >= 0.0
        assert result["bh"].pi0_hat == 1.0

    def test_ebf_arm_matches_manual_pipeline(self):
        records, truth = simulate_I(SimIConfig(m=300, n=50, pi0=0.4, seed=3))
        result = analyze_study_i(records, truth)
        est = ebf_pi0([r.bf for r in records])
        report = bfdr_decide(posterior_table(records, est), alpha=0.05)
        assert result["ebf"].pi0_hat == est.pi0_hat
        assert result["ebf"].rejected == report.rejected

    def test_requires_z_and_se(self):
        records, truth = simulate_I(SimIConfig(m=10, n=20, seed=0))
        stripped = [r.__class__(r.id, r.bf) for r in records]
        try:
            analyze_study_i(stripped, truth)
        except ValueError as err:
            assert "z and se" in str(err)
        else:
            raise AssertionError("expected ValueError")


class TestStudyII:
    @staticmethod
    def _tiny_study(threads, perm_p=0, n_perms=30):
        genes, truth = simulate_II(SimIIConfig(m=40, n=45, k_range=(5, 12), pi0=0.6, seed=20))
        return run_study_ii(
            genes,
            truth,
            sigma=1.0,
            n_perms=n_perms,
            perm_seed=77,
            threads=threads,
            perm_p=perm_p,
        )

    def test_default_arms(self):
        result = self._tiny_study(threads=1)
        assert set(result.results) == {"ebf", "qbf"}
        assert result.perm_pvalues is None
        assert len(result.records) == 40
        assert result.quantiles.shape == (40,)
        assert np.all(result.quantiles > 0)

    def test_perm_p_adds_frequentist_arms(self):
        result = self._tiny_study(threads=1, perm_p=19)
        assert set(result.results) == {"ebf", "qbf", "bh", "storey"}
        pvals = dict(result.perm_pvalues)
        assert len(pvals) == 40
        assert all(1 / 20 <= p <= 1.0 for p in pvals.values())

    def test_worker_count_never_changes_results(self):
        a = self._tiny_study(threads=1, perm_p=19)
        b = self._tiny_study(threads=3, perm_p=19)
        assert a.records == b.records
        np.testing.assert_array_equal(a.quantiles, b.quantiles)
        assert a.perm_pvalues == b.perm_pvalues
        for method in a.results:
            assert a[method].pi0_hat == b[method].pi0_hat
            assert a[method].rejected == b[method].rejected
            assert a[method].eval == b[method].eval

    @settings(max_examples=30, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n_perms=st.integers(2, 45),
        perm_p_case=st.sampled_from(["zero", "below", "equal", "above"]),
        threads=st.sampled_from([1, 2]),
    )
    def test_analyze_genes_matches_direct_permutation_calls(
        self, data_seed, n_perms, perm_p_case, threads
    ):
        rng = np.random.default_rng(data_seed)
        genes = []
        for i, k in enumerate((1, 3, 6)):
            G = np.hstack([rng.binomial(2, 0.4, size=(40, k)), np.ones((40, 1))]).astype(float)
            G[0, :k], G[1, :k] = 0.0, 2.0  # the drawn columns stay polymorphic
            genes.append(GeneData(f"g{i}", rng.normal(size=40) + 0.3 * G[:, 0], G))
        perm_p = {"zero": 0, "below": n_perms - 1, "equal": n_perms, "above": n_perms + 11}[perm_p_case]
        plan = PermutationPlan(n_perms=n_perms, seed=data_seed)
        analysis = analyze_genes(genes, 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, threads, perm_p)
        assert (analysis.pvalues is None) == (perm_p == 0)
        for i, gene in enumerate(genes):
            log_bf = gene_log_bf(gene.y, gene.G, 1.0)
            assert analysis.records[i].log_bf == log_bf
            assert analysis.quantiles[i] == permute_null_quantile(
                gene.y, gene.G, 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, gene.id
            )
            if perm_p:
                p_plan = PermutationPlan(n_perms=perm_p, seed=data_seed)
                assert analysis.pvalues[i] == (
                    gene.id,
                    permutation_pvalue(log_bf, gene.y, gene.G, 1.0, DEFAULT_OMEGA_GRID, p_plan, gene.id),
                )

    def test_saturated_gene_bf_pvalue_compares_logs(self):
        # The strong gene's observed log BF (about 1765) saturates at 709.78
        # on the natural scale. Permuted statistics between the two must not
        # count as at least as extreme.
        rng = np.random.default_rng(0)
        G = rng.binomial(2, 0.4, size=(30, 1)).astype(float)
        y = 2.0 * (5.0 * G[:, 0] + 12.0 * rng.normal(size=30))
        null_y = np.random.default_rng(1).normal(size=30)
        genes = [GeneData("strong", y, G), GeneData("null", null_y, G)]
        truth = SimTruth(ids=("strong", "null"), z=(1, 0), params={})
        result = run_study_ii(genes, truth, sigma=1.0, n_perms=19, perm_seed=3, perm_p=49)
        obs = result.records[0].log_bf
        saturated = math.log(sys.float_info.max)
        stats = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, PermutationPlan(49, 3), "strong")
        assert obs > saturated
        assert np.any((stats > saturated) & (stats < obs))
        assert dict(result.perm_pvalues)["strong"] == (1 + int(np.sum(stats >= obs))) / 50
