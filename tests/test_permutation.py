"""Permutation nulls: determinism, the add-one p-value, quantile
conventions, and distributional sanity on null data."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from bfdr import _trace, bayes_factor, permutation
from bfdr.bayes_factor import DEFAULT_OMEGA_GRID, GeneDesign, OmegaGrid, ScaleError
from bfdr.model import GeneData
from bfdr.permutation import (
    PermutationPlan,
    _empirical_quantile,
    _permutation_matrix,
    compact_permutations,
    permutation_pvalue,
    permute_null_quantile,
    scan_gene,
)
from bfdr.rng import substream
from bfdr.simulation import SimIIConfig, simulate_II


def _gene_log_bf(y, G) -> float:
    return float(GeneDesign(G, sigma=1.0).log_gene_bf(y)[0])


# Reference forms: each builds its own design and draws its own
# permutations for one plan, with no shared draw and no prefix slicing.


def permuted_statistics(y, G, sigma, grid, plan, test_id):
    """The log gene Bayes factor of each permuted phenotype, in permutation order."""
    y = np.asarray(y, dtype=float)
    perms = compact_permutations(plan.seed, test_id, y.size, plan.n_perms)
    return GeneDesign(G, sigma, grid).log_gene_bf(y[perms].T)


def standalone_null_quantile(y, G, sigma, grid, gamma, plan, test_id=""):
    """The ceil(gamma * n)-th smallest permuted statistic, on natural scale."""
    log_stats = np.sort(permuted_statistics(y, G, sigma, grid, plan, test_id))
    log_q = float(log_stats[max(1, math.ceil(gamma * log_stats.size)) - 1])
    return float(np.exp(np.minimum(log_q, 709.0)))


def standalone_pvalue(observed, y, G, sigma, grid, plan, test_id=""):
    """(1 + #{permuted log statistics >= observed}) / (n_perms + 1)."""
    stats = permuted_statistics(y, G, sigma, grid, plan, test_id)
    return (1 + int(np.sum(stats >= observed))) / (plan.n_perms + 1)


def _stage_inputs(y, G, plan, test_id="g"):
    """The design and permutation matrix that scan_gene hands to its stages."""
    return GeneDesign(G, 1.0), compact_permutations(plan.seed, test_id, len(y), plan.n_perms)


def _quantile(y, G, gamma, plan, test_id="g"):
    design, perms = _stage_inputs(y, G, plan, test_id)
    return permute_null_quantile(design, y, perms, gamma, plan)


def _pvalue(observed, y, G, plan, test_id="g"):
    design, perms = _stage_inputs(y, G, plan, test_id)
    return permutation_pvalue(observed, design, y, perms, plan)


def _null_gene(seed=0, n=40, k=4):
    rng = np.random.default_rng(seed)
    G = rng.binomial(2, 0.3, size=(n, k)).astype(np.int8)
    y = rng.normal(size=n)
    return y, G


class TestPlan:
    def test_valid(self):
        plan = PermutationPlan(n_perms=10, seed=3)
        assert (plan.n_perms, plan.seed) == (10, 3)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_n_perms_validation(self, bad):
        with pytest.raises(ValueError):
            PermutationPlan(n_perms=bad, seed=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            PermutationPlan(n_perms=1, seed=2**64)

class TestEmpiricalQuantile:
    def test_odd_count_median(self):
        assert _empirical_quantile(np.arange(1.0, 102.0), 0.5) == 51.0

    def test_even_count_median(self):
        # ceil(0.5 * 100) = 50: the lower middle value.
        assert _empirical_quantile(np.arange(1.0, 101.0), 0.5) == 50.0

    def test_small_gamma_clamps_to_minimum(self):
        vals = np.arange(10.0, 0.0, -1.0)
        assert _empirical_quantile(vals, 0.01) == 1.0

    def test_near_one_gamma(self):
        assert _empirical_quantile([3.0, 1.0, 2.0], 0.99) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            _empirical_quantile([1.0], 1.0)


class TestDeterminism:
    def test_same_inputs_bit_identical(self):
        y, G = _null_gene()
        plan = PermutationPlan(n_perms=25, seed=11)
        a = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "gene7")
        b = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "gene7")
        np.testing.assert_array_equal(a, b)

    def test_different_test_id_different_draws(self):
        y, G = _null_gene()
        plan = PermutationPlan(n_perms=25, seed=11)
        a = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "gene7")
        b = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "gene8")
        assert not np.array_equal(a, b)

    def test_different_seed_different_draws(self):
        y, G = _null_gene()
        a = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, PermutationPlan(10, 1), "g")
        b = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, PermutationPlan(10, 2), "g")
        assert not np.array_equal(a, b)

    def test_per_test_streams_do_not_depend_on_visit_order(self):
        y, G = _null_gene()
        plan = PermutationPlan(n_perms=10, seed=4)
        forward = {
            tid: permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, tid)
            for tid in ("a", "b", "c")
        }
        backward = {
            tid: permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, tid)
            for tid in ("c", "b", "a")
        }
        for tid in ("a", "b", "c"):
            np.testing.assert_array_equal(forward[tid], backward[tid])

    def test_quantile_consistent_with_statistics(self):
        y, G = _null_gene(seed=3)
        plan = PermutationPlan(n_perms=39, seed=21)
        log_stats = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "g")
        q = _quantile(y, G, 0.5, plan)
        assert q == pytest.approx(math.exp(_empirical_quantile(log_stats, 0.5)), rel=1e-14)


def _plain(state):
    """A bit-generator state with its arrays as lists, so it compares with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class TestPermutationMatrix:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 300),
        n_perms=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_permutation_loop(self, n, n_perms, seed):
        """One vectorized shuffle per row draws exactly what a rng.permutation loop drew."""
        loop_rng = substream(seed, "perm", "g")
        expected = np.empty((n_perms, n), dtype=np.intp)
        for b in range(n_perms):
            expected[b] = loop_rng.permutation(n)
        rng = substream(seed, "perm", "g")
        got = _permutation_matrix(rng, n, n_perms)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert _plain(rng.bit_generator.state) == _plain(loop_rng.bit_generator.state)


    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 200),
        n_small=st.integers(1, 40),
        extra=st.integers(0, 40),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_rows_are_prefix_stable(self, n, n_small, extra, seed):
        """A smaller plan of the same test draws the first rows of a larger plan."""
        small = _permutation_matrix(substream(seed, "perm", "g"), n, n_small)
        large = _permutation_matrix(substream(seed, "perm", "g"), n, n_small + extra)
        assert np.array_equal(large[:n_small], small)

    @pytest.mark.parametrize("n, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65_537, np.uint32)])
    def test_compact_matrix_is_the_substream_matrix_narrowed(self, n, dtype):
        compact = compact_permutations(9, "g", n, 3)
        assert compact.dtype == dtype
        assert np.array_equal(compact, _permutation_matrix(substream(9, "perm", "g"), n, 3))


class TestPvalue:
    def test_observed_beats_all_permutations(self):
        y, G = _null_gene(seed=9)
        plan = PermutationPlan(n_perms=99, seed=5)
        p = _pvalue(math.log(1e12), y, G, plan)
        assert p == pytest.approx(1 / 100, abs=0)

    def test_observed_weaker_than_all(self):
        y, G = _null_gene(seed=9)
        plan = PermutationPlan(n_perms=99, seed=5)
        p = _pvalue(math.log(1e-12), y, G, plan)
        assert p == 1.0

    def test_bounds(self):
        y, G = _null_gene(seed=2)
        plan = PermutationPlan(n_perms=19, seed=8)
        obs = _gene_log_bf(y, G)
        p = _pvalue(obs, y, G, plan)
        assert 1 / 20 <= p <= 1.0

    def test_saturated_observed_bf_keeps_its_log_rank(self):
        # The observed log BF (about 1765) lies beyond the float range of the
        # natural scale, where it would saturate at log(float max) = 709.78;
        # six permuted statistics lie between the two, so comparing against
        # the saturated value would count them as at least as extreme.
        rng = np.random.default_rng(0)
        G = rng.binomial(2, 0.4, size=(30, 1)).astype(float)
        y = 2.0 * (5.0 * G[:, 0] + 12.0 * rng.normal(size=30))
        obs = _gene_log_bf(y, G)
        plan = PermutationPlan(n_perms=49, seed=3)
        stats = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "g")
        saturated = math.log(sys.float_info.max)
        assert obs > saturated
        assert np.any((stats > saturated) & (stats < obs))
        p = _pvalue(obs, y, G, plan)
        assert p == (1 + int(np.sum(stats >= obs))) / 50 == 3 / 50

    def test_gene_bf_observed_must_be_finite(self):
        y, G = _null_gene(seed=9)
        plan = PermutationPlan(n_perms=9, seed=5)
        with pytest.raises(ValueError, match="finite"):
            _pvalue(math.inf, y, G, plan)

    def test_null_pvalues_roughly_uniform(self):
        # On null data with 19 permutations the add-one p-value lives on the
        # lattice {1/20, ..., 20/20} and should be close to uniform on it.
        plan = PermutationPlan(n_perms=19, seed=17)
        counts = np.zeros(20, dtype=int)
        n_genes = 300
        rng = np.random.default_rng(23)
        for i in range(n_genes):
            G = rng.binomial(2, 0.3, size=(30, 3)).astype(np.int8)
            if not np.any(G.std(axis=0) > 0):
                continue
            y = rng.normal(size=30)
            obs = _gene_log_bf(y, G)
            p = _pvalue(obs, y, G, plan, f"g{i}")
            counts[round(p * 20) - 1] += 1
        gof = stats.chisquare(counts)
        assert gof.pvalue > 0.001


class TestQuantile:
    def test_quantile_needs_enough_permutations(self):
        y, G = _null_gene()
        plan = PermutationPlan(n_perms=9, seed=0)
        with pytest.raises(ValueError, match="n_perms"):
            _quantile(y, G, 0.05, plan)

    def test_median_quantile_more_stable_than_tail_pvalue(self):
        # The point of quantile-based null calibration: with a fixed budget
        # of 100 permutations, the median of the permutation null varies far
        # less across reruns than a p-value pinned near 0.01.
        y, G = _null_gene(seed=31, n=60, k=5)
        ref_plan = PermutationPlan(n_perms=4999, seed=999)
        ref = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, ref_plan, "ref")
        obs = float(np.quantile(ref, 0.99))  # a true p near 0.01

        quantiles = []
        pvalues = []
        for seed in range(20):
            plan = PermutationPlan(n_perms=100, seed=seed)
            quantiles.append(_quantile(y, G, 0.5, plan))
            pvalues.append(_pvalue(obs, y, G, plan))
        cv_q = np.std(quantiles) / np.mean(quantiles)
        cv_p = np.std(pvalues) / np.mean(pvalues)
        assert cv_q < cv_p


class TestDegenerateInputs:
    def test_constant_gene_rejected(self):
        y = np.random.default_rng(0).normal(size=20)
        G = np.ones((20, 2), dtype=np.int8)
        plan = PermutationPlan(n_perms=5, seed=0)
        with pytest.raises(ValueError, match="constant"):
            scan_gene(GeneData("g", y, G), 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, 0)

    def test_y_must_be_1d(self):
        G = np.random.default_rng(1).binomial(2, 0.4, size=(10, 2)).astype(np.int8)
        plan = PermutationPlan(n_perms=5, seed=0)
        with pytest.raises(ValueError, match="1-d"):
            scan_gene(GeneData("g", np.zeros((10, 2)), G), 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, 0)

    @pytest.mark.parametrize("stage", ["quantile", "pvalue"])
    def test_plan_longer_than_the_draw_is_rejected(self, stage):
        y, G = _null_gene()
        design, perms = _stage_inputs(y, G, PermutationPlan(n_perms=9, seed=0))
        plan = PermutationPlan(n_perms=10, seed=0)
        with pytest.raises(ValueError, match="needs 10 permutations, but 9 were drawn"):
            if stage == "quantile":
                permute_null_quantile(design, y, perms, 0.5, plan)
            else:
                permutation_pvalue(0.0, design, y, perms, plan)


class TestScanGene:
    @settings(max_examples=60, deadline=None)
    @example(data_seed=0, n=85, k=1, n_constant=2, n_perms=7, perm_p_case="above", seed=0)
    @example(data_seed=1, n=26, k=1, n_constant=0, n_perms=3, perm_p_case="above", seed=1)
    @example(data_seed=2, n=60, k=1, n_constant=1, n_perms=7, perm_p_case="above", seed=0)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 90),
        k=st.integers(1, 6),
        n_constant=st.integers(0, 5),
        n_perms=st.integers(2, 60),
        perm_p_case=st.sampled_from(["zero", "below", "equal", "above"]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_separate_scans_bit_for_bit(
        self, data_seed, n, k, n_constant, n_perms, perm_p_case, seed
    ):
        """One design and one draw give what separate designs and draws per plan give.

        ``n_constant`` monomorphic columns are appended, so k=1 covers a
        single kept column among dropped ones. With one kept column, the
        first columns of a wider product often differ from a narrower
        product in the last bit, which the explicit examples exercise.
        """
        rng = np.random.default_rng(data_seed)
        G = rng.binomial(2, 0.4, size=(n, k)).astype(float)
        G[0, :] = 0.0
        G[1, :] = 2.0  # every drawn column is polymorphic
        G = np.hstack([G, np.ones((n, n_constant))])
        y = rng.normal(size=n) + G[:, 0]
        perm_p = {"zero": 0, "below": n_perms - 1, "equal": n_perms, "above": 5 * n_perms}[perm_p_case]
        plan = PermutationPlan(n_perms=n_perms, seed=seed)
        _trace.take()
        scan = scan_gene(GeneData("g", y, G), 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, perm_p)
        seconds = _trace.take()
        assert scan.log_bf == _gene_log_bf(y, G)
        assert scan.null_q == standalone_null_quantile(y, G, 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, "g")
        if perm_p == 0:
            assert scan.pvalue is None
        else:
            p_plan = PermutationPlan(n_perms=perm_p, seed=seed)
            assert scan.pvalue == standalone_pvalue(scan.log_bf, y, G, 1.0, DEFAULT_OMEGA_GRID, p_plan, "g")
        stages = ["observed_scan", "draw_permutations", "permute_null_quantile"]
        stages += ["permutation_pvalue"] if perm_p > 0 else []
        assert list(seconds) == [f"permutation.{stage}" for stage in stages]
        assert all(t >= 0.0 for t in seconds.values())

    def test_monomorphic_gene_is_named(self):
        y = np.random.default_rng(0).normal(size=20)
        G = np.ones((20, 2))
        plan = PermutationPlan(n_perms=5, seed=0)
        with pytest.raises(ValueError, match="gene 'g7': all variant columns are constant"):
            scan_gene(GeneData("g7", y, G), 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, 0)

    def test_quantile_plan_is_checked(self):
        y, G = _null_gene()
        with pytest.raises(ValueError, match="n_perms"):
            scan_gene(GeneData("g", y, G), 1.0, DEFAULT_OMEGA_GRID, 0.05, PermutationPlan(n_perms=9, seed=0))

    @pytest.mark.parametrize("perm_p", [0, 7, 30])
    def test_runs_the_public_stages_once_per_gene(self, monkeypatch, perm_p):
        """Each gene's quantile and p-value come from the module-level stage functions.

        They are looked up through the module at call time, so a wrapper
        installed on ``bfdr.permutation`` sees every stage scan_gene runs.
        Both stages of a gene share one fast pass, so no column's fast
        value is computed twice.
        """
        calls, passes = [], []

        def quantile_spy(design, y, perms, gamma, plan, **shared):
            calls.append(("quantile", plan.n_perms, len(perms)))
            passes.append(shared["shared"])
            return permute_null_quantile(design, y, perms, gamma, plan, **shared)

        def pvalue_spy(observed, design, y, perms, plan, **shared):
            calls.append(("pvalue", plan.n_perms, len(perms)))
            passes.append(shared["shared"])
            return permutation_pvalue(observed, design, y, perms, plan, **shared)

        fast_columns = []
        fast = GeneDesign.fast_log_gene_bf

        def fast_spy(design, Z):
            fast_columns.append(Z.shape[1])
            return fast(design, Z)

        monkeypatch.setattr(permutation, "permute_null_quantile", quantile_spy)
        monkeypatch.setattr(permutation, "permutation_pvalue", pvalue_spy)
        monkeypatch.setattr(GeneDesign, "fast_log_gene_bf", fast_spy)
        plan = PermutationPlan(n_perms=15, seed=4)
        drawn = max(15, perm_p)
        for i in range(3):
            y, G = _null_gene(seed=i)
            scan = scan_gene(GeneData(f"g{i}", y, G), 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, perm_p)
            assert scan.null_q == standalone_null_quantile(y, G, 1.0, DEFAULT_OMEGA_GRID, 0.5, plan, f"g{i}")
        expected = [("quantile", 15, drawn)] + ([("pvalue", perm_p, drawn)] if perm_p else [])
        assert calls == expected * 3
        # both stages of a gene read one fast pass, which computes each drawn column once
        per_gene = len(expected)
        assert all(passes[i] is passes[i - i % per_gene] for i in range(len(passes)))
        assert sum(fast_columns) == 3 * drawn


def _gene_with_constant_columns(rng, n, k, n_constant, y_scale):
    """A gene of k polymorphic columns and n_constant monomorphic ones, and a phenotype."""
    G = rng.binomial(2, rng.uniform(0.05, 0.5), size=(n, k)).astype(float)
    G[0, :] = 0.0
    G[1, :] = 2.0  # every drawn column is polymorphic
    G = np.hstack([np.full((n, n_constant), 1.0), G])
    y = y_scale * (rng.normal(size=n) + rng.uniform(0.0, 2.0) * G[:, n_constant])
    return y, G


def _smallest_gamma(n_perms):
    """The smallest gamma a plan of n_perms permutations resolves: gamma * (n_perms + 1) >= 1 as computed."""
    gamma = 1.0 / (n_perms + 1)
    return gamma if gamma * (n_perms + 1) >= 1.0 else math.nextafter(gamma, 1.0)


def _design_with_band(G, grid, per_entry):
    """A design whose fast-kernel error bound is ``per_entry`` per log-BF entry (None: the module's)."""
    with pytest.MonkeyPatch.context() as patch:
        if per_entry is not None:
            patch.setattr(bayes_factor, "_FAST_ERROR_PER_ENTRY", per_entry)
        return GeneDesign(G, 1.0, grid)


class TestCertifiedStages:
    """The fast-filtered stages against log_gene_bf at full plan width, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @example(data_seed=0, n=3, k=1, n_constant=1, n_perms=1, gamma_case="top", y_scale=1.0, obs_case="stat", band="default")
    @example(data_seed=1, n=85, k=120, n_constant=0, n_perms=600, gamma_case="lowest", y_scale=1e3, obs_case="stat", band="default")
    @example(data_seed=2, n=40, k=30, n_constant=2, n_perms=500, gamma_case="half", y_scale=1e2, obs_case="below", band="infinite")
    @example(data_seed=3, n=20, k=3, n_constant=0, n_perms=48, gamma_case="lowest", y_scale=1.0, obs_case="above", band="default")
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 90),
        k=st.integers(1, 40),
        n_constant=st.integers(0, 3),
        n_perms=st.one_of(st.integers(1, 40), st.integers(1, 600)),
        gamma_case=st.sampled_from(["lowest", "low", "half", "high", "top"]),
        y_scale=st.sampled_from([0.3, 1.0, 30.0, 1e3]),
        obs_case=st.sampled_from(["stat", "below", "above", "observed"]),
        band=st.sampled_from(["default", "infinite"]),
    )
    def test_matches_full_width_oracle(self, data_seed, n, k, n_constant, n_perms, gamma_case, y_scale, obs_case, band):
        """Quantile and p-value equal the oracle's.

        Plans run from 1 to 600 permutations and gamma from the smallest
        resolvable value to just below 1. A phenotype scale of 1e3 puts
        the permuted log Bayes factors far above 709, and small n gives
        repeated permutations, hence tied statistics. The observed
        statistic is set exactly to a permuted one, or one ulp off it.
        An infinite band recomputes every column exactly.
        """
        rng = np.random.default_rng(data_seed)
        y, G = _gene_with_constant_columns(rng, n, k, n_constant, y_scale)
        design = _design_with_band(G, DEFAULT_OMEGA_GRID, math.inf if band == "infinite" else None)
        plan = PermutationPlan(n_perms=n_perms, seed=data_seed)
        perms = compact_permutations(plan.seed, "g", n, n_perms)
        stats = permuted_statistics(y, G, 1.0, DEFAULT_OMEGA_GRID, plan, "g")

        lowest = _smallest_gamma(n_perms)
        gamma = {
            "lowest": lowest,
            "low": min(0.5, 2.0 * lowest),
            "half": max(0.5, lowest),
            "high": 1.0 - lowest / 2.0,
            "top": math.nextafter(1.0, 0.0),
        }[gamma_case]
        log_q = _empirical_quantile(stats, gamma)
        assert permute_null_quantile(design, y, perms, gamma, plan) == float(np.exp(np.minimum(log_q, 709.0)))

        stat = float(stats[rng.integers(n_perms)])
        obs = {
            "stat": stat,
            "below": math.nextafter(stat, -math.inf),
            "above": math.nextafter(stat, math.inf),
            "observed": float(design.log_gene_bf(y)[0]),
        }[obs_case]
        expected = (1 + int(np.sum(stats >= obs))) / (n_perms + 1)
        assert permutation_pvalue(obs, design, y, perms, plan) == expected

    @settings(max_examples=100, deadline=None)
    @example(data_seed=0, n=3, n_perms=186, gamma=0.00390625, y_scale=0.1)  # 1/187 * 187 < 1
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 30),
        n_perms=st.integers(1, 200),
        gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        y_scale=st.sampled_from([0.1, 1.0, 1e3]),
    )
    def test_zero_band_on_a_kernel_without_rounding(self, data_seed, n, n_perms, gamma, y_scale):
        """With the exact evaluator as the filter, the fast value is the exact one, bit for bit.

        A zero band then leaves nothing to the recomputation but ties, so
        the stages' counting of the columns below, above and at their
        threshold must alone give the oracle's answer.
        """
        gamma = max(gamma, _smallest_gamma(n_perms))
        rng = np.random.default_rng(data_seed)
        y, G = _gene_with_constant_columns(rng, n, 1, 1, y_scale)
        design = _design_with_band(G, OmegaGrid((0.4,)), 0.0)
        design.fast_log_gene_bf = lambda Z: design.exact_log_gene_bf(Z, slice(None))
        plan = PermutationPlan(n_perms=n_perms, seed=data_seed)
        perms = compact_permutations(plan.seed, "g", n, n_perms)
        stats = permuted_statistics(y, G, 1.0, OmegaGrid((0.4,)), plan, "g")
        Z = design.z_batch(y[perms].T)
        assert design.fast_log_gene_bf(Z).tobytes() == stats.tobytes()
        log_q = _empirical_quantile(stats, gamma)
        assert permute_null_quantile(design, y, perms, gamma, plan) == float(np.exp(np.minimum(log_q, 709.0)))
        for obs in (float(stats[0]), float(np.median(stats))):
            assert permutation_pvalue(obs, design, y, perms, plan) == (1 + int(np.sum(stats >= obs))) / (n_perms + 1)

    def test_exact_evaluator_sees_few_columns_on_default_genes(self, monkeypatch):
        """Structural: on default study-II genes each stage recomputes at most a few columns.

        Every quantile stage recomputes at least the column of its rank,
        so a count of 0 would mean the counter no longer sees the
        evaluator. A broken bound that widened the band would show here
        long before it showed in a timing.
        """
        seen = []
        evaluate = GeneDesign.exact_log_gene_bf

        def counting(design, Z, columns):
            out = evaluate(design, Z, columns)
            seen.append(out.size)
            return out

        monkeypatch.setattr(GeneDesign, "exact_log_gene_bf", counting)
        genes, _ = simulate_II(SimIIConfig(m=20, pi0=0.5, seed=501))
        for gene in genes:
            seen.clear()
            scan_gene(gene, 1.0, DEFAULT_OMEGA_GRID, 0.5, PermutationPlan(100, 7), 500)
            assert 1 <= seen[0] <= 4  # the quantile stage
            assert sum(seen[1:]) <= 4  # the p-value stage, which skips an empty band


class TestOverflowingDesign:
    """A sigma so small that Z * Z overflows: the stages stay exact, and scan_gene's scale check names the gene."""

    @pytest.mark.parametrize("sigma", [1e-155, 1e-170, 1e-300, 5e-324])
    @pytest.mark.filterwarnings("error")
    def test_scan_gene_raises_the_same_error(self, sigma):
        """The error of the shared scale check, as study II and raw-data qbf name the gene."""
        y, G = _null_gene(seed=4, n=40, k=6)
        plan = PermutationPlan(n_perms=20, seed=3)
        with pytest.raises(ScaleError, match="^gene 'g': standard error .* below the smallest normal float$") as got:
            scan_gene(GeneData("g", y, G), sigma, DEFAULT_OMEGA_GRID, 0.5, plan, 30)
        assert (got.value.index, got.value.name) == (0, "gene 'g'")

    @pytest.mark.filterwarnings("error")
    def test_a_float32_overflow_alone_is_recomputed_exactly(self):
        """At sigma 1e-25 every Wald statistic squares past float32's range but not float64's.

        Every fast value is then non-finite, and scan_gene still gives the
        oracle's quantile and p-value, without a numpy warning.
        """
        y, G = _null_gene(seed=4, n=40, k=6)
        plan, p_plan = PermutationPlan(n_perms=30, seed=3), PermutationPlan(n_perms=40, seed=3)
        design = GeneDesign(G, 1e-25)
        perms = compact_permutations(plan.seed, "g", len(y), 40)
        assert not np.isfinite(design.fast_log_gene_bf(design.z_batch(y[perms].T))).any()
        scan = scan_gene(GeneData("g", y, G), 1e-25, DEFAULT_OMEGA_GRID, 0.5, plan, 40)
        assert scan.null_q == standalone_null_quantile(y, G, 1e-25, DEFAULT_OMEGA_GRID, 0.5, plan, "g")
        assert scan.pvalue == standalone_pvalue(scan.log_bf, y, G, 1e-25, DEFAULT_OMEGA_GRID, p_plan, "g")

    @pytest.mark.parametrize("sigma", [1e-150, 1e-155, 1e-170, 1e-300])
    def test_non_finite_fast_values_are_never_counted(self, sigma):
        """Stages given a finite observed value count and rank as the full-width oracle, NaN and inf included."""
        y, G = _null_gene(seed=4, n=40, k=6)
        plan = PermutationPlan(n_perms=30, seed=3)
        with np.errstate(all="ignore"):
            design = GeneDesign(G, sigma)
            perms = compact_permutations(plan.seed, "g", len(y), plan.n_perms)
            stats = permuted_statistics(y, G, sigma, DEFAULT_OMEGA_GRID, plan, "g")
            fast = design.fast_log_gene_bf(design.z_batch(y[perms].T))
            assert not np.isfinite(fast).all() or sigma == 1e-150
            q = permute_null_quantile(design, y, perms, 0.5, plan)
            expected_q = float(np.exp(np.minimum(_empirical_quantile(stats, 0.5), 709.0)))
            assert q == expected_q or (math.isnan(q) and math.isnan(expected_q))
            for obs in (0.0, 1e300):
                expected = (1 + int(np.sum(stats >= obs))) / (plan.n_perms + 1)
                assert permutation_pvalue(obs, design, y, perms, plan) == expected
        if sigma == 1e-150:
            scan = scan_gene(GeneData("g", y, G), sigma, DEFAULT_OMEGA_GRID, 0.5, plan, 0)
            assert scan.pvalue is None
            assert scan.null_q == q
        else:
            with pytest.raises(ScaleError, match="^gene 'g': standard error "):
                scan_gene(GeneData("g", y, G), sigma, DEFAULT_OMEGA_GRID, 0.5, plan, 0)
