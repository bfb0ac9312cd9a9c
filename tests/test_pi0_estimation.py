"""Null-proportion estimators: exact small cases, brute-force oracles,
and conservative-coverage properties on synthetic mixtures."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bfdr.bayes_factor import bf_null_quantiles, log_bf_averaged_many
from bfdr.model import Pi0Method
from bfdr.pi0_estimation import (
    auto_reject_threshold,
    ebf_pi0,
    fixed_pi0,
    qbf_pi0,
    storey_pi0,
)


def _neumaier_sum(values) -> tuple[float, float]:
    """Neumaier-compensated sum of ``values`` in order, as (running sum, compensation)."""
    total = carry = 0.0
    for x in values:
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total, carry


def _naive_ebf_d0(bfs) -> int:
    """EBF's d0 with every prefix of the sorted Bayes factors re-summed from scratch.

    The scan stops at the first prefix whose sum overflows or whose mean
    reaches 1.
    """
    s = sorted(bfs)
    for d in range(1, len(s) + 1):
        total, carry = _neumaier_sum(s[:d])
        if math.isinf(total) or not (total + carry) / d < 1.0:
            return d - 1
    return len(s)


def _ulps_from(x: float, k: int) -> float:
    """The float ``k`` steps above the positive float ``x`` (below it for negative ``k``)."""
    return float((np.array([x]).view(np.int64) + k).view(np.float64)[0])


def _ulps_from_one(k: int) -> float:
    """The float ``k`` steps above 1 (below it for negative ``k``)."""
    return _ulps_from(1.0, k)


@st.composite
def _prefix_means_near_one(draw) -> list[float]:
    """Bayes factors whose sorted prefix means come within a few ulps of 1: pairs ``x`` and ``2 - x``,
    each moved a few ulps, and values a few ulps from 1."""
    values = []
    for x in draw(st.lists(st.floats(0.01, 0.99), max_size=25)):
        values += [_ulps_from(x, draw(st.integers(-3, 3))), _ulps_from(2.0 - x, draw(st.integers(-3, 3)))]
    values += draw(st.lists(st.integers(-4, 4).map(_ulps_from_one), max_size=25))
    return values or [1.0]


# Bayes factors that stress the scan: subnormals, ordinary values, values
# within a few ulps of 1 (so that prefix means land within an ulp of 1),
# and values whose sums overflow to inf.
_EBF_ELEMENTS = st.one_of(
    st.floats(5e-324, 2.2250738585072014e-308),
    st.floats(1e-3, 1e3),
    st.integers(-6, 6).map(_ulps_from_one),
    st.floats(1e300, 1.7976931348623157e308),
    st.just(math.inf),
)


def _mixture_bfs(rng, m, pi0, shift=2.5):
    """Bayes factors from a two-groups z mixture with known null fraction."""
    null = rng.random(m) < pi0
    z = rng.standard_normal(m)
    z[~null] += shift * rng.choice([-1.0, 1.0], size=(~null).sum())
    se = np.full(m, 0.2)
    return np.exp(log_bf_averaged_many(z, se)), se


class TestEbf:
    def test_worked_example(self):
        est = ebf_pi0([0.5, 0.8, 2.0])
        assert est.pi0_hat == 2 / 3
        assert est.d0 == 2
        assert est.method is Pi0Method.EBF

    def test_prefix_mean_exactly_one_does_not_extend(self):
        # Sorted: [0.5, 1.5]; the two-term prefix mean is exactly 1.0.
        est = ebf_pi0([1.5, 0.5])
        assert est.d0 == 1
        assert est.pi0_hat == 0.5
        # A lone Bayes factor of exactly 1 gives d0 = 0.
        assert ebf_pi0([1.0]).d0 == 0

    def test_all_below_one(self):
        est = ebf_pi0([0.1, 0.9, 0.3])
        assert est.pi0_hat == 1.0
        assert est.d0 == 3

    def test_no_null_signal(self):
        est = ebf_pi0([2.0, 3.0])
        assert est.pi0_hat == 0.0
        assert est.d0 == 0

    def test_reorder_invariant(self):
        rng = np.random.default_rng(2)
        bfs = rng.lognormal(0.0, 1.5, size=200)
        ref = ebf_pi0(bfs)
        for _ in range(5):
            rng.shuffle(bfs)
            est = ebf_pi0(bfs)
            assert est.pi0_hat == ref.pi0_hat and est.d0 == ref.d0

    def test_huge_values_cannot_inflate_d0(self):
        bfs = [0.1] * 5 + [1e308, 1e308, float("inf")]
        est = ebf_pi0(bfs)
        assert est.d0 == 5
        assert est.pi0_hat == 5 / 8

    def test_matches_naive_prefix_scan(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            m = int(rng.integers(1, 50))
            bfs = rng.lognormal(rng.normal(0.0, 0.5), rng.uniform(0.2, 2.0), size=m)
            s = np.sort(bfs)
            d0 = 0
            for d in range(1, m + 1):
                if math.fsum(s[:d]) / d < 1.0:
                    d0 = d
            est = ebf_pi0(bfs)
            assert est.d0 == d0
            assert est.pi0_hat == d0 / m

    @settings(max_examples=500, deadline=None)
    @given(bfs=st.lists(_EBF_ELEMENTS, min_size=1, max_size=40))
    @example(bfs=[_ulps_from_one(-1), _ulps_from_one(1)])
    @example(bfs=[_ulps_from_one(-1)] * 3 + [_ulps_from_one(3)])
    @example(bfs=[5e-324] * 4 + [1e308, 1e308, 1e308])
    @example(bfs=[0.5, 1.5, _ulps_from_one(-1), _ulps_from_one(1)])
    def test_matches_per_prefix_neumaier_resum(self, bfs):
        """Oracle for the running scan: each prefix re-summed from scratch gives the same d0."""
        d0 = _naive_ebf_d0(bfs)
        est = ebf_pi0(bfs)
        assert est.d0 == d0
        assert est.pi0_hat == d0 / len(bfs)

    @settings(max_examples=400, deadline=None)
    @given(bfs=_prefix_means_near_one())
    def test_prefix_means_within_ulps_of_one(self, bfs):
        """The vectorized scan decides a prefix whose mean rounds to 1 +- a few ulps as the running scan does."""
        assert ebf_pi0(bfs).d0 == _naive_ebf_d0(bfs)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ebf_pi0([])
        with pytest.raises(ValueError):
            ebf_pi0([1.0, -2.0])
        with pytest.raises(ValueError):
            ebf_pi0([1.0, float("nan")])

    def test_upper_bounds_true_pi0_on_mixtures(self):
        rng = np.random.default_rng(101)
        hits = 0
        reps = 20
        for _ in range(reps):
            bfs, _ = _mixture_bfs(rng, m=2000, pi0=0.6)
            if ebf_pi0(bfs).pi0_hat >= 0.6:
                hits += 1
        assert hits >= 0.9 * reps

    def test_pure_null_estimates_near_one(self):
        for seed in range(5):
            rng = np.random.default_rng(1000 + seed)
            bfs, _ = _mixture_bfs(rng, m=5000, pi0=1.0)
            assert ebf_pi0(bfs).pi0_hat >= 0.95


class TestQbf:
    def test_worked_example(self):
        est = qbf_pi0([0.2, 0.3, 1.5, 9.0], [1.0, 1.0, 1.0, 1.0], gamma=0.5)
        assert est.pi0_hat == 1.0
        assert est.gamma == 0.5

    def test_count_arithmetic(self):
        # Two of four at or below their quantiles, gamma=0.8: 2 / 3.2.
        est = qbf_pi0([0.5, 1.0, 2.0, 3.0], [0.9, 1.0, 1.5, 2.0], gamma=0.8)
        assert est.pi0_hat == pytest.approx(2 / 3.2, abs=0)

    def test_boundary_counts_as_below(self):
        est = qbf_pi0([1.0], [1.0], gamma=0.5)
        assert est.pi0_hat == 1.0

    def test_clamped_at_one(self):
        est = qbf_pi0([0.1, 0.2], [1.0, 1.0], gamma=0.25)
        assert est.pi0_hat == 1.0

    def test_alignment_required(self):
        with pytest.raises(ValueError, match="align"):
            qbf_pi0([1.0, 2.0], [1.0])

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            qbf_pi0([1.0], [1.0], gamma=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_quantiles_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            qbf_pi0([1.0, 2.0], [1.0, bad])

    def test_upper_bounds_true_pi0_on_mixtures(self):
        rng = np.random.default_rng(303)
        hits = 0
        reps = 20
        for _ in range(reps):
            bfs, se = _mixture_bfs(rng, m=2000, pi0=0.6)
            q = bf_null_quantiles(se, 0.5)
            if qbf_pi0(bfs, q, gamma=0.5).pi0_hat >= 0.6:
                hits += 1
        assert hits >= 0.9 * reps


class TestStorey:
    def test_worked_example(self):
        est = storey_pi0([0.9, 0.95, 0.2, 0.4], gamma=0.5)
        assert est.pi0_hat == 1.0
        assert est.method is Pi0Method.STOREY

    def test_strictly_above_cut(self):
        # p equal to 1 - gamma is not counted.
        assert storey_pi0([0.5, 0.5], gamma=0.5).pi0_hat == 0.0

    def test_count_arithmetic(self):
        est = storey_pi0([0.95, 0.75, 0.1, 0.2, 0.3], gamma=0.2)
        assert est.pi0_hat == pytest.approx(1 / (5 * 0.2), abs=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            storey_pi0([0.5, 1.2])
        with pytest.raises(ValueError):
            storey_pi0([-0.1])


class TestQbfStoreyIdentity:
    @settings(max_examples=500, deadline=None)
    @given(
        gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        p=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=400),
    )
    @example(gamma=0.1, p=[0.05, 0.5, 0.95])
    @example(gamma=0.9, p=[0.05, 0.5, 0.95])
    @example(gamma=5e-324, p=[1e-300, 0.999999])
    @example(gamma=1.0 - 2**-53, p=[1e-300, 2**-52, 1.0])
    def test_tail_for_tail_identity(self, gamma, p):
        """When p_i is the null upper-tail probability of bf_i, the QBF count
        at gamma equals Storey's count at the same gamma, for every gamma in
        (0, 1), so the two estimates agree bit for bit.

        bf = 1/p is a strictly decreasing map: under the null bf is 1/U for
        U uniform, so P(BF >= b) = 1/b and the null gamma-quantile of bf is
        1/(1 - gamma). The two censuses differ only at a tie p_i = 1 - gamma
        (QBF counts bf_i at its quantile, Storey needs p_i above 1 - gamma),
        and within a few ulps of the tie rounding 1/p can make one. Both have
        probability zero under a continuous null law, so those p are dropped.
        """
        t = 1.0 - gamma
        p = np.asarray(p)
        p = p[np.abs(p - t) > 1e-12 * t]
        assume(p.size > 0)
        bf = 1.0 / p
        q = np.full(p.size, 1.0 / t)
        assert qbf_pi0(bf, q, gamma=gamma).pi0_hat == storey_pi0(p, gamma=gamma).pi0_hat


class TestEbfQbfOrdering:
    def test_ebf_at_least_qbf_most_of_the_time(self):
        rng = np.random.default_rng(404)
        hits = 0
        reps = 10
        for _ in range(reps):
            bfs, se = _mixture_bfs(rng, m=2000, pi0=0.5)
            q = bf_null_quantiles(se, 0.5)
            if ebf_pi0(bfs).pi0_hat >= qbf_pi0(bfs, q, gamma=0.5).pi0_hat:
                hits += 1
        assert hits >= 0.8 * reps


class TestFixedAndAuto:
    def test_fixed(self):
        est = fixed_pi0(1.0, 10)
        assert est.pi0_hat == 1.0
        assert est.method is Pi0Method.FIXED

    def test_auto_threshold_value(self):
        assert auto_reject_threshold(100, 0.05) == 2000.0
        assert auto_reject_threshold(1, 0.5) == 2.0

    def test_auto_threshold_validation(self):
        with pytest.raises(ValueError):
            auto_reject_threshold(0, 0.05)
        with pytest.raises(ValueError):
            auto_reject_threshold(10, 1.0)
