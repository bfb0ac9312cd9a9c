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
from bfdr.bayes_factor import DEFAULT_OMEGA_GRID, GeneDesign, ScaleError
from bfdr.fdr_control import apply_auto_reject, bfdr_decide, bh_decide, decide, posterior_table, storey_decide
from bfdr.model import Batch, GeneData, RowError
from bfdr.permutation import PermutationPlan, _draw_permutations, scan_gene
from bfdr.pi0_estimation import ebf_pi0, qbf_pi0
from bfdr.simulation import SimIConfig, SimIIConfig, simulate_I, simulate_II
from bfdr.studies import (
    _pool_workers,
    analyze_genes,
    analyze_study_i,
    map_parallel,
    run_study_ii,
)


def _square(x):
    return x * x


def _openblas_get_num_threads():
    """numpy's OpenBLAS thread-count getter, found as the pool initializer finds the setter, or None."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for template in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        fn = getattr(lib, template.format("get_num_threads"), None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn
    return None


def _blas_threads(_):
    return _openblas_get_num_threads()()


def _pid(_):
    return os.getpid()


_ITEM_ERRORS = {2: ScaleError(1, "standard error 1e-170 squares to 0.0", "gene 'b'"), 4: RowError(3, "duplicate id 'x'")}


def _raise_at(i):
    if i in _ITEM_ERRORS:
        raise _ITEM_ERRORS[i]
    return i


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
        get_threads = _openblas_get_num_threads()
        if get_threads is None:
            pytest.skip("numpy's BLAS exposes no thread-count symbol")
        # Two usable cores, so the pool runs on a one-core machine too.
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        before = get_threads()
        assert map_parallel(_blas_threads, list(range(6)), threads=2) == [1] * 6
        assert get_threads() == before

    @pytest.mark.parametrize("first", [2, 4])
    def test_a_named_error_crosses_the_pool_whole(self, monkeypatch, first):
        """A ScaleError or RowError raised in a worker reaches the caller with its type and fields,
        the first failing item's in input order."""
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        sent = _ITEM_ERRORS[first]
        with pytest.raises(type(sent)) as got:
            map_parallel(_raise_at, list(range(first, 7)), threads=2)
        assert type(got.value) is type(sent)
        assert (got.value.index, got.value.reason, got.value.name, str(got.value)) == (
            sent.index, sent.reason, sent.name, str(sent)
        )


class TestStudyI:
    def test_all_arms_present_and_consistent(self):
        result = analyze_study_i(*simulate_I(SimIConfig(m=400, n=60, pi0=0.5, seed=14)))
        assert set(result.results) == {"ebf", "qbf", "bh", "storey"}
        assert len(result.batch) == 400
        for arm in result.results.values():
            assert 0.0 <= arm.pi0_hat <= 1.0
            assert arm.rejected.shape == (400,)
            assert arm.eval.n_rejected == np.count_nonzero(arm.rejected)
        assert result.gene_seconds == {}
        assert result.results["bh"].pi0_hat == 1.0

    def test_ebf_arm_matches_manual_pipeline(self):
        batch, truth = simulate_I(SimIConfig(m=300, n=50, pi0=0.4, seed=3))
        result = analyze_study_i(batch, truth)
        est = ebf_pi0(batch.bf)
        report = bfdr_decide(posterior_table(batch, est), alpha=0.05)
        assert result.results["ebf"].pi0_hat == est.pi0_hat
        assert np.array_equal(result.results["ebf"].rejected, report.rejected)

    def test_requires_z_and_se(self):
        batch, truth = simulate_I(SimIConfig(m=10, n=20, seed=0))
        stripped = Batch(batch.ids, bf=batch.bf)
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
        assert result.pvalues is None
        assert len(result.batch) == 40
        assert result.quantiles.shape == (40,)
        assert np.all(result.quantiles > 0)

    def test_perm_p_adds_frequentist_arms(self):
        result = self._tiny_study(threads=1, perm_p=19)
        assert set(result.results) == {"ebf", "qbf", "bh", "storey"}
        assert result.pvalues.shape == (40,)
        assert np.all((1 / 20 <= result.pvalues) & (result.pvalues <= 1.0))

    def test_each_design_is_built_once(self, monkeypatch):
        """The scan's scale check builds the one design each gene's statistics come from."""
        built = []
        init = GeneDesign.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneDesign, "__init__", counting)
        self._tiny_study(threads=1, perm_p=19)
        assert len(built) == 40

    def test_first_failing_gene_is_named_at_any_worker_count(self, monkeypatch):
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        genes, truth = simulate_II(SimIIConfig(m=12, n=45, k_range=(3, 5), pi0=0.5, seed=21))
        genes[5] = genes[5]._replace(G=np.ones_like(genes[5].G))
        genes[9] = genes[9]._replace(y=genes[9].y * 1e160)
        for threads in (1, 2):
            with pytest.raises(RowError) as got:
                run_study_ii(genes, truth, sigma=1.0, n_perms=9, threads=threads)
            assert type(got.value) is RowError
            assert str(got.value) == f"gene {genes[5].id!r}: all variant columns are constant"
            genes_b = genes[:5] + genes[6:]
            with pytest.raises(ScaleError, match=f"^gene {genes[9].id!r}: Wald statistic "):
                run_study_ii(genes_b, np.delete(truth, 5), sigma=1.0, n_perms=9, threads=threads)

    def test_worker_count_never_changes_results(self):
        a = self._tiny_study(threads=1, perm_p=19)
        b = self._tiny_study(threads=3, perm_p=19)
        assert a.batch.ids == b.batch.ids
        np.testing.assert_array_equal(a.batch.log_bf, b.batch.log_bf)
        np.testing.assert_array_equal(a.quantiles, b.quantiles)
        np.testing.assert_array_equal(a.pvalues, b.pvalues)
        for method, arm in a.results.items():
            assert arm.pi0_hat == b.results[method].pi0_hat
            assert np.array_equal(arm.rejected, b.results[method].rejected)
            assert arm.eval == b.results[method].eval

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
        assert analysis.batch.ids == tuple(g.id for g in genes)
        assert analysis.results == {}
        for i, gene in enumerate(genes):
            scan = scan_gene(gene, 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, perm_p)
            assert analysis.batch.log_bf[i] == scan.log_bf
            assert analysis.quantiles[i] == scan.null_q
            if perm_p:
                assert analysis.pvalues[i] == scan.pvalue

    def test_saturated_gene_bf_pvalue_compares_logs(self):
        # The strong gene's observed log BF (about 1765) saturates at 709.78
        # on the natural scale. Permuted statistics between the two must not
        # count as at least as extreme.
        rng = np.random.default_rng(0)
        G = rng.binomial(2, 0.4, size=(30, 1)).astype(float)
        y = 2.0 * (5.0 * G[:, 0] + 12.0 * rng.normal(size=30))
        null_y = np.random.default_rng(1).normal(size=30)
        genes = [GeneData("strong", y, G), GeneData("null", null_y, G)]
        result = run_study_ii(genes, np.array([True, False]), sigma=1.0, n_perms=19, perm_seed=3, perm_p=49)
        obs = result.batch.log_bf[0]
        saturated = math.log(sys.float_info.max)
        stats = GeneDesign(G, 1.0).log_gene_bf(y[_draw_permutations(3, "strong", 30, 49)].T)
        assert obs > saturated
        assert np.any((stats > saturated) & (stats < obs))
        assert result.pvalues[0] == (1 + int(np.sum(stats >= obs))) / 50


class TestDecide:
    """The one implementation of each procedure, shared by the studies and ``bfdr fdr``."""

    def test_each_method_is_its_building_blocks(self):
        rng = np.random.default_rng(3)
        batch = Batch([f"t{i}" for i in range(50)], log_bf=rng.normal(0.0, 3.0, size=50))
        null_q = rng.uniform(0.5, 2.0, size=50)
        p = rng.random(50) ** 2
        alpha, gamma = 0.1, 0.4

        est, report = decide("ebf", alpha, gamma, batch)
        assert est == ebf_pi0(batch.bf)
        expected = apply_auto_reject(bfdr_decide(posterior_table(batch, est), alpha), batch, est)
        assert np.array_equal(report.rejected, expected.rejected)
        assert np.array_equal(report.auto_rejected, expected.auto_rejected)

        est, report = decide("qbf", alpha, gamma, batch, null_q)
        assert est == qbf_pi0(batch.bf, null_q, gamma)
        assert np.array_equal(report.v_hat, posterior_table(batch, est))
        assert not report.auto_rejected.any()

        est, decision = decide("bh", alpha, gamma, pvalues=p)
        assert est.pi0_hat == 1.0
        assert np.array_equal(decision.qvalues, bh_decide(p, alpha).qvalues)

        est, decision = decide("storey", alpha, gamma, pvalues=p)
        expected = storey_decide(p, gamma, alpha)
        assert est == expected.pi0
        assert np.array_equal(decision.rejected, expected.rejected)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            decide("lfdr", 0.05)
