"""Decision rules: exact worked cases, brute-force oracles over candidate
rejection sets, and the step-up / q-value baselines."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from bfdr._normal import erfc
from bfdr.fdr_control import (
    apply_auto_reject,
    bfdr_decide,
    bh_decide,
    posterior_table,
    storey_decide,
    two_sided_normal_p,
)
from bfdr.model import Batch, Pi0Estimate, Pi0Method
from bfdr.pi0_estimation import auto_reject_threshold, ebf_pi0, fixed_pi0, qbf_pi0


def _fixed(pi0: float, m: int) -> Pi0Estimate:
    return Pi0Estimate(pi0_hat=pi0, method=Pi0Method.FIXED, m=m)


def _decide(vhats: dict[str, float], alpha: float):
    """Decide on the v_hat values of a dict; the report and its rejected ids."""
    report = bfdr_decide(np.array(list(vhats.values())), alpha)
    return report, {i for i, r in zip(vhats, report.rejected) if r}


def _ids(batch: Batch, mask) -> set[str]:
    return {i for i, r in zip(batch.ids, mask) if r}


class TestTwoSidedNormalP:
    def test_reference_value(self):
        assert two_sided_normal_p(1.96) == pytest.approx(0.04999579029644087, rel=1e-12)

    def test_matches_survival_function(self):
        for z in (0.0, 0.5, 1.0, 2.5, 6.0):
            assert two_sided_normal_p(z) == pytest.approx(2.0 * stats.norm.sf(abs(z)), rel=1e-12)

    def test_z_zero_gives_one(self):
        assert two_sided_normal_p(0.0) == 1.0

    def test_vectorized(self):
        z = np.array([0.0, 1.96, -1.96])
        p = two_sided_normal_p(z)
        assert p.shape == (3,)
        assert p[1] == p[2]

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf, np.array([0.5, math.nan])):
            with pytest.raises(ValueError, match="finite"):
                two_sided_normal_p(bad)

    def test_zero_dim_input_gives_a_zero_dim_array(self):
        for z in (1.5, np.float64(-2.0), np.array(0.25)):
            p = two_sided_normal_p(z)
            assert isinstance(p, np.ndarray) and p.shape == ()
            assert p == special.erfc(abs(float(z)) / math.sqrt(2.0))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestErfcPort:
    """The numpy port of cephes' erfc equals scipy.special.erfc bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_matches_scipy_on_non_negative_floats(self, xs):
        x = np.array(xs)
        assert _same_bits(erfc(x), special.erfc(x))

    @staticmethod
    def _around(point: float, steps: int = 64) -> np.ndarray:
        below = [point]
        above = [point]
        for _ in range(steps):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        return np.array(below[::-1] + above[1:])

    @pytest.mark.parametrize(
        "point",
        [1.0, 8.0, math.sqrt(7.09782712893383996843e2), 26.6],
        ids=["erf-branch", "tail-branch", "sqrt-maxlog", "subnormal-output"],
    )
    def test_matches_scipy_at_branch_edges(self, point):
        x = np.concatenate([self._around(point), point + np.linspace(-1e-6, 1e-6, 2001)])
        assert _same_bits(erfc(x), special.erfc(x))

    def test_matches_scipy_at_extremes(self):
        x = np.concatenate(
            [
                [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-8, 1e6, np.finfo(float).max],
                10.0 ** np.linspace(155.0, 300.0, 400),
            ]
        )
        with np.errstate(over="ignore"):
            want = special.erfc(x)
        assert _same_bits(erfc(x), want)
        assert erfc(np.array([0.0]))[0] == 1.0
        assert not erfc(10.0 ** np.linspace(155.0, 300.0, 50)).any()

    def test_matches_scipy_on_a_dense_grid(self):
        x = np.concatenate([np.linspace(0.0, 40.0, 200_001), np.abs(np.random.default_rng(3).normal(0, 4, 100_000))])
        assert _same_bits(erfc(x), special.erfc(x))


class TestPosteriorTable:
    def test_worked_example(self):
        v = posterior_table(Batch(["a"], bf=[3.0]), _fixed(0.5, 1))
        assert v.tolist() == [0.75]

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        bfs = rng.lognormal(0.0, 2.0, size=50)
        batch = Batch([f"t{i}" for i in range(50)], bf=bfs)
        for pi0 in (0.1, 0.5, 0.9):
            v = posterior_table(batch, _fixed(pi0, 50))
            for vi, bf in zip(v, bfs):
                direct = (1 - pi0) * bf / (pi0 + (1 - pi0) * bf)
                assert vi == pytest.approx(direct, rel=1e-12)

    def test_pi0_one_gives_all_zero(self):
        v = posterior_table(Batch(["a", "b"], bf=[1e300, 2.0]), _fixed(1.0, 2))
        assert v.tolist() == [0.0, 0.0]

    def test_pi0_zero_gives_all_one(self):
        v = posterior_table(Batch(["a"], bf=[1e-300]), _fixed(0.0, 1))
        assert v.tolist() == [1.0]

    def test_extreme_bfs_saturate(self):
        v = posterior_table(Batch(["huge", "tiny"], log_bf=[5000.0, -5000.0]), _fixed(0.99, 2))
        assert v.tolist() == [1.0, 0.0]

    def test_strictly_increasing_in_bf(self):
        bfs = np.geomspace(1e-6, 1e6, 40)
        v = posterior_table(Batch([f"t{i}" for i in range(40)], bf=bfs), _fixed(0.3, 40))
        assert np.all(np.diff(v) > 0.0)

    def test_preserves_input_order(self):
        v = posterior_table(Batch(["z9", "a1"], bf=[1.0, 2.0]), _fixed(0.5, 2))
        assert v.tolist() == [0.5, 2.0 / 3.0]


def _brute_force_decision(vhats, alpha):
    """Enumerate every upper level set { v > t } and keep the largest one
    whose mean of (1 - v) is at most alpha."""
    values = sorted({v for _, v in vhats if v > 0.0}, reverse=True)
    best = frozenset()
    best_size = 0
    for cut in values:
        members = [(i, v) for i, v in vhats if v >= cut]
        mean = sum(1.0 - v for _, v in members) / len(members)
        if mean <= alpha and len(members) > best_size:
            best = frozenset(i for i, _ in members)
            best_size = len(members)
    return best


class TestBfdrDecide:
    def test_worked_example(self):
        report, rejected = _decide({"a": 0.99, "b": 0.97, "c": 0.80}, alpha=0.05)
        assert rejected == {"a", "b"}
        assert report.estimated_bfdr == pytest.approx(0.02, abs=1e-12)
        assert report.threshold == 0.80

    def test_rejected_set_is_upper_level_set_of_threshold(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(1, 40))
            vh = {f"t{i}": round(float(rng.random()), 2) for i in range(m)}
            report, rejected = _decide(vh, alpha=float(rng.uniform(0.02, 0.4)))
            assert rejected == {i for i, v in vh.items() if v > report.threshold}

    def test_tied_block_enters_whole_or_not_at_all(self):
        vh = {"a": 0.99, "b": 0.90, "c": 0.90, "d": 0.10}
        # Prefix means of (1 - v): 0.01, then (0.01 + 0.1 + 0.1) / 3 = 0.07.
        assert _decide(vh, alpha=0.06)[1] == {"a"}
        assert _decide(vh, alpha=0.08)[1] == {"a", "b", "c"}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            vals = rng.random(m)
            # Round a slice to one decimal so tied blocks actually occur.
            k = int(rng.integers(0, m + 1))
            vals[:k] = np.round(vals[:k], 1)
            vh = [(f"t{i}", float(v)) for i, v in enumerate(vals)]
            alpha = float(rng.uniform(0.01, 0.5))
            assert _decide(dict(vh), alpha=alpha)[1] == _brute_force_decision(vh, alpha)

    def test_empty_rejection(self):
        report, rejected = _decide({"a": 0.5, "b": 0.4}, alpha=0.05)
        assert rejected == set()
        assert report.estimated_bfdr == 0.0
        assert report.threshold == 0.5  # the largest v_hat

    def test_reject_everything(self):
        report, rejected = _decide({"a": 0.999, "b": 0.999, "c": 0.998}, alpha=0.05)
        assert rejected == {"a", "b", "c"}
        assert report.threshold == 0.0

    def test_zero_vhat_never_rejected(self):
        report, rejected = _decide({"a": 1.0, "b": 1.0, "c": 0.0}, alpha=0.9)
        assert rejected == {"a", "b"}
        assert report.threshold == 0.0

    def test_nested_in_alpha(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = int(rng.integers(2, 50))
            v = rng.random(m)
            masks = [bfdr_decide(v, a).rejected for a in (0.01, 0.05, 0.2, 0.5)]
            for small, big in zip(masks, masks[1:]):
                assert not np.any(small & ~big)

    def test_estimated_bfdr_is_mean_complement(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(0.9, 1.0, size=20)
        report = bfdr_decide(v, alpha=0.1)
        assert report.rejected.any()
        assert report.estimated_bfdr == pytest.approx(np.mean(1.0 - v[report.rejected]), rel=1e-12)
        assert report.estimated_bfdr <= 0.1

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bfdr_decide(np.array([]), alpha=0.05)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            bfdr_decide(np.array([0.5]), alpha=1.0)


def _stepup_oracle(pvalues, alpha):
    """Direct step-up rule: largest i with p_(i) <= i * alpha / m."""
    m = len(pvalues)
    by_p = sorted(pvalues, key=lambda t: t[1])
    cut = 0
    for i, (_, p) in enumerate(by_p, start=1):
        if p <= i * alpha / m:
            cut = i
    return frozenset(i for i, _ in by_p[:cut])


def _qvalue_oracle(pvalues, pi0_hat):
    """q(p_(i)) = min over j >= i of pi0 * m * p_(j) / j by double loop."""
    m = len(pvalues)
    by_p = sorted(pvalues, key=lambda t: t[1])
    out = {}
    for i in range(m):
        out[by_p[i][0]] = min(pi0_hat * m * by_p[j][1] / (j + 1) for j in range(i, m))
    return out


def _pvalue_ids(pvalues, decision) -> frozenset[str]:
    return frozenset(i for (i, _), r in zip(pvalues, decision.rejected) if r)


def _p(pvalues) -> np.ndarray:
    return np.array([p for _, p in pvalues])


class TestBhDecide:
    def test_worked_example(self):
        dec = bh_decide(np.array([0.001, 0.02, 0.9]), alpha=0.05)
        assert dec.rejected.tolist() == [True, True, False]
        assert dec.p_cutoff == 0.02

    def test_matches_stepup_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            m = int(rng.integers(1, 80))
            # Mix uniform nulls with small alternatives so rejections happen.
            p = np.concatenate([rng.random(m), rng.random(max(1, m // 5)) * 0.01])
            pv = [(f"t{i}", float(x)) for i, x in enumerate(p)]
            alpha = float(rng.uniform(0.01, 0.3))
            assert _pvalue_ids(pv, bh_decide(p, alpha)) == _stepup_oracle(pv, alpha)

    def test_no_rejections(self):
        dec = bh_decide(np.array([0.9, 0.8]), alpha=0.05)
        assert not dec.rejected.any()
        assert dec.p_cutoff == 0.0

    def test_qvalues_in_input_order(self):
        dec = bh_decide(np.array([0.04, 0.01]), alpha=0.05)
        assert dec.qvalues.tolist() == [0.04, 0.02]

    def test_pvalue_range_checked(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            bh_decide(np.array([1.5]), alpha=0.05)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            bh_decide(np.array([math.nan]), alpha=0.05)

    def test_null_proportion_is_fixed_at_one(self):
        dec = bh_decide(np.array([0.9, 0.95]), alpha=0.05)
        assert dec.pi0.method is Pi0Method.FIXED and dec.pi0.pi0_hat == 1.0


class TestStoreyDecide:
    def test_unit_pi0_reproduces_stepup_exactly(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            m = int(rng.integers(1, 60))
            p = rng.random(m)
            pv = [(f"t{i}", float(x)) for i, x in enumerate(p)]
            alpha = float(rng.uniform(0.01, 0.3))
            st = storey_decide(p, alpha=alpha, pi0=fixed_pi0(1.0, m))
            assert _pvalue_ids(pv, st) == _stepup_oracle(pv, alpha)
            assert np.array_equal(st.qvalues, bh_decide(p, alpha).qvalues)  # bit-for-bit, shared route

    def test_qvalues_match_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = int(rng.integers(1, 40))
            pv = [(f"t{i}", float(x)) for i, x in enumerate(rng.random(m))]
            dec = storey_decide(_p(pv), gamma=0.5, alpha=0.05)
            oracle = _qvalue_oracle(pv, dec.pi0.pi0_hat)
            for (tid, _), q in zip(pv, dec.qvalues):
                assert q == pytest.approx(oracle[tid], rel=1e-12)

    def test_smaller_pi0_rejects_superset(self):
        rng = np.random.default_rng(25)
        p = rng.random(60) ** 2
        full = storey_decide(p, alpha=0.05, pi0=fixed_pi0(1.0, 60)).rejected
        half = storey_decide(p, alpha=0.05, pi0=fixed_pi0(0.5, 60)).rejected
        assert not np.any(full & ~half)

    def test_estimates_pi0_when_not_given(self):
        dec = storey_decide(np.array([0.9, 0.95, 0.2, 0.4]), gamma=0.5, alpha=0.05)
        assert dec.pi0.method is Pi0Method.STOREY
        assert dec.pi0.pi0_hat == 1.0

    def test_shuffled_input_same_qvalues(self):
        rng = np.random.default_rng(58)
        p = rng.random(30)
        order = rng.permutation(30)
        a = storey_decide(p, alpha=0.05).qvalues
        b = storey_decide(p[order], alpha=0.05).qvalues
        assert np.array_equal(a[order], b)


class TestAutoReject:
    def test_boundary_cases(self):
        # m / alpha = 3 / 0.05 = 60.
        batch = Batch(["over", "exact", "under"], bf=[61.0, 60.0, 59.99])
        est = ebf_pi0(batch.bf)
        report = bfdr_decide(posterior_table(batch, est), alpha=0.05)
        marked = apply_auto_reject(report, batch, est)
        assert _ids(batch, marked.auto_rejected) == {"over", "exact"}
        assert not np.any(marked.auto_rejected & ~marked.rejected)

    def test_defaults_to_record_count_and_report_alpha(self):
        batch = Batch(["a", "b"], bf=[50.0, 1.0])
        est = ebf_pi0(batch.bf)
        report = bfdr_decide(posterior_table(batch, est), alpha=0.1)
        marked = apply_auto_reject(report, batch, est)  # bound = 2 / 0.1 = 20
        assert _ids(batch, marked.auto_rejected) == {"a"}

    def test_extreme_bf_always_rejected_under_ebf(self):
        # Under the EBF estimate, a Bayes factor of at least m / alpha caps
        # pi0_hat so that the test's posterior complement (1 - v_hat) is
        # below alpha, which makes it a member of every feasible prefix.
        rng = np.random.default_rng(70)
        alpha = 0.05
        for _ in range(100):
            m = int(rng.integers(5, 200))
            bfs = rng.lognormal(0.0, 1.0, size=m)
            n_big = int(rng.integers(1, 4))
            bound = auto_reject_threshold(m, alpha)
            bfs[:n_big] = bound * rng.uniform(1.0, 10.0, size=n_big)
            batch = Batch([f"t{i}" for i in range(m)], bf=bfs)
            est = ebf_pi0(batch.bf)
            report = bfdr_decide(posterior_table(batch, est), alpha=alpha)
            assert report.rejected[:n_big].all()

    @settings(max_examples=200, deadline=None)
    @given(
        log_bfs=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40),
        n_big=st.integers(0, 3),
        alpha=st.floats(0.01, 0.5),
    )
    def test_marking_keeps_the_report_invariants(self, log_bfs, n_big, alpha):
        """rejected stays { v_hat > threshold } and estimated_bfdr its mean complement."""
        m = len(log_bfs)
        lb = np.array(log_bfs)
        lb[: min(n_big, m)] = math.log(auto_reject_threshold(m, alpha)) + 1.0
        batch = Batch([f"t{i}" for i in range(m)], log_bf=lb)
        est = ebf_pi0(batch.bf)
        v = posterior_table(batch, est)
        report = bfdr_decide(v, alpha)
        marked = apply_auto_reject(report, batch, est)
        assert np.array_equal(marked.rejected, v > marked.threshold)
        assert np.array_equal(marked.rejected, report.rejected)
        assert marked.threshold == report.threshold
        assert marked.estimated_bfdr == report.estimated_bfdr
        if marked.rejected.any():
            assert marked.estimated_bfdr == pytest.approx(np.mean(1.0 - v[marked.rejected]), abs=1e-15)
        assert np.array_equal(marked.auto_rejected, batch.bf >= auto_reject_threshold(m, alpha))
        assert not np.any(marked.auto_rejected & ~marked.rejected)

    def test_only_ebf_reports_are_marked(self):
        # Under a QBF estimate of 1 every v_hat is 0, so nothing is rejected;
        # marking the huge Bayes factor would break rejected = { v_hat > t }.
        bfs = np.ones(10)
        bfs[0] = 1e6
        batch = Batch([f"t{i}" for i in range(10)], bf=bfs)
        est = qbf_pi0(batch.bf, np.full(10, 2.0), 0.5)
        assert est.pi0_hat == 1.0
        report = bfdr_decide(posterior_table(batch, est), alpha=0.05)
        assert not report.rejected.any() and report.estimated_bfdr == 0.0
        with pytest.raises(ValueError, match="EBF"):
            apply_auto_reject(report, batch, est)


def _loop_posterior_table(log_bfs, pi0_hat):
    """The per-test loop the vectorized posterior replaced, kept as its oracle."""
    if pi0_hat >= 1.0:
        return [0.0 for _ in log_bfs]
    if pi0_hat <= 0.0:
        return [1.0 for _ in log_bfs]
    logit0 = math.log(pi0_hat) - math.log1p(-pi0_hat)
    vals = []
    for lb in log_bfs:
        x = logit0 - lb
        if x >= 709.0:
            v = 0.0
        elif x <= -709.0:
            v = 1.0
        else:
            v = 1.0 / (1.0 + math.exp(x))
        vals.append(v)
    return vals


def _loop_bfdr_decide(entries, alpha):
    """The prefix walk over tied blocks the vectorized rule replaced, kept as
    its oracle: (rejected ids, threshold, estimated_bfdr)."""
    entries = sorted(entries, key=lambda e: (-e[1], e[0]))
    m = len(entries)
    n_rejected = 0
    best_sum = 0.0
    run_sum = 0.0
    count = 0
    i = 0
    while i < m:
        v = entries[i][1]
        if v <= 0.0:
            break
        j = i
        while j < m and entries[j][1] == v:
            run_sum += 1.0 - v
            count += 1
            j += 1
        if run_sum / count <= alpha:
            n_rejected = count
            best_sum = run_sum
            i = j
        else:
            break
    rejected = frozenset(e[0] for e in entries[:n_rejected])
    threshold = entries[n_rejected][1] if n_rejected < m else 0.0
    estimated_bfdr = best_sum / n_rejected if n_rejected else 0.0
    return rejected, threshold, estimated_bfdr


def _ulps(x: float, k: int) -> float:
    """x moved by k units in the last place."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@st.composite
def _pi0_and_log_bfs(draw):
    """A null proportion (0 and 1 included) and log Bayes factors with ties,
    saturated values and values at and around logit(pi0) -/+ 709, where the
    posterior switches between its saturated and its computed branches."""
    pi0 = draw(st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(1e-9, 1.0 - 1e-9)))
    logit0 = math.log(pi0) - math.log1p(-pi0) if 0.0 < pi0 < 1.0 else 0.0
    edge = st.builds(
        lambda side, ulps, offset: _ulps(logit0 + side, ulps) + offset,
        st.sampled_from([-709.0, 709.0]),
        st.integers(-3, 3),
        st.sampled_from([0.0, 0.0, 1e-9, -1e-9, 0.5, -0.5]),
    )
    value = st.one_of(st.floats(-60.0, 60.0), st.floats(-2000.0, 2000.0), edge, st.sampled_from([0.0, 800.0]))
    pool = draw(st.lists(value, min_size=1, max_size=8))
    log_bfs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return pi0, np.array(log_bfs, dtype=float)


class TestVectorizedDecisionPath:
    """The array posterior and decision rule reproduce the former loops bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(case=_pi0_and_log_bfs())
    def test_posterior_matches_loop(self, case):
        pi0, log_bfs = case
        batch = Batch([f"t{i}" for i in range(log_bfs.size)], log_bf=log_bfs)
        v = posterior_table(batch, _fixed(pi0, log_bfs.size))
        assert np.array_equal(v, _loop_posterior_table(log_bfs.tolist(), pi0))

    @settings(max_examples=400, deadline=None)
    @given(case=_pi0_and_log_bfs(), alpha=st.floats(0.01, 0.5))
    @example(case=(0.5, np.array([800.0, 800.0, 0.0])), alpha=0.05)
    @example(case=(0.0, np.array([-5.0, 3.0])), alpha=0.01)
    @example(case=(1.0, np.array([900.0])), alpha=0.5)
    def test_decision_matches_loop(self, case, alpha):
        pi0, log_bfs = case
        ids = [f"t{i}" for i in range(log_bfs.size)]
        v = posterior_table(Batch(ids, log_bf=log_bfs), _fixed(pi0, log_bfs.size))
        report = bfdr_decide(v, alpha)
        rejected, threshold, estimated_bfdr = _loop_bfdr_decide(list(zip(ids, v.tolist())), alpha)
        assert {i for i, r in zip(ids, report.rejected) if r} == rejected
        assert report.threshold == threshold
        assert report.estimated_bfdr == estimated_bfdr

    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=40),
        alpha=st.floats(0.01, 0.5),
    )
    def test_decision_matches_brute_force_enumeration(self, pool, picks, alpha):
        vh = [(f"t{i}", pool[k % len(pool)]) for i, k in enumerate(picks)]
        assert _decide(dict(vh), alpha)[1] == _brute_force_decision(vh, alpha)

    @settings(max_examples=300, deadline=None)
    @given(case=_pi0_and_log_bfs())
    def test_posterior_is_non_decreasing_in_log_bf(self, case):
        pi0, log_bfs = case
        batch = Batch([f"t{i}" for i in range(log_bfs.size)], log_bf=log_bfs)
        v = posterior_table(batch, _fixed(pi0, log_bfs.size))
        order = np.argsort(log_bfs, kind="stable")
        assert np.all(np.diff(v[order]) >= 0.0)
