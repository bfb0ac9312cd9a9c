"""Construction-time validation of the shared domain types."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from bfdr.model import (
    Batch,
    DecisionReport,
    EvalReport,
    Pi0Estimate,
    Pi0Method,
    RowError,
)
from bfdr.simulation import score


class TestTestRecord:
    """Per-test checks of a one-row batch: the rules a test's entry must meet."""

    def test_basic_construction(self):
        batch = Batch(["snp1"], bf=[2.5], z=[1.3], se=[0.2])
        assert batch.ids == ("snp1",)
        assert batch.bf[0] == 2.5
        assert batch.log_bf[0] == pytest.approx(math.log(2.5), rel=1e-15)
        assert len(batch) == 1

    def test_log_bf_defaults_to_log_of_bf(self):
        assert Batch(["a"], bf=[7.0]).log_bf[0] == math.log(7.0)

    @pytest.mark.parametrize("bad_bf", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_bf_must_be_positive_finite(self, bad_bf):
        with pytest.raises(ValueError, match="bf"):
            Batch(["a"], bf=[bad_bf])

    @pytest.mark.parametrize("bad_se", [0.0, -0.5, math.inf, math.nan])
    def test_se_must_be_positive(self, bad_se):
        with pytest.raises(ValueError, match="se"):
            Batch(["a"], bf=[1.0], se=[bad_se])

    def test_z_must_be_finite(self):
        with pytest.raises(ValueError, match="z"):
            Batch(["a"], bf=[1.0], z=[math.inf])

    def test_id_must_be_nonempty(self):
        with pytest.raises(ValueError, match="id"):
            Batch([""], bf=[1.0])

    def test_optional_fields_default_to_none(self):
        batch = Batch(["a"], bf=[1.0])
        assert batch.z is None and batch.se is None

    def test_from_log_bf_moderate_value(self):
        batch = Batch(["a"], log_bf=[3.0])
        assert batch.bf[0] == pytest.approx(math.exp(3.0), rel=1e-15)
        assert batch.log_bf[0] == 3.0

    def test_from_log_bf_saturates_instead_of_overflowing(self):
        batch = Batch(["a"], log_bf=[800.0])
        assert batch.log_bf[0] == 800.0
        assert batch.bf[0] == sys.float_info.max
        assert math.isfinite(batch.bf[0])

    def test_from_log_bf_underflow_stays_positive(self):
        batch = Batch(["a"], log_bf=[-800.0])
        assert batch.bf[0] == 5e-324
        assert batch.log_bf[0] == -800.0


class TestValidateRecords:
    """Whole-batch checks: every column at once, errors at the first bad row."""

    def test_accepts_mappings(self):
        batch = Batch(**{"ids": ["a", "b"], "bf": [2.0, 0.5], "z": [0.3, 1.0]})
        assert batch.ids == ("a", "b")
        assert np.array_equal(batch.log_bf, [math.log(2.0), math.log(0.5)])

    def test_accepts_existing_records(self):
        batch = Batch(["a", "b"], log_bf=[800.0, -1.5], z=[40.0, 0.1], se=[0.01, 1.0])
        again = Batch(batch.ids, log_bf=batch.log_bf, bf=batch.bf, z=batch.z, se=batch.se)
        for name in ("log_bf", "bf", "z", "se"):
            assert np.array_equal(getattr(again, name), getattr(batch, name))

    def test_reports_index_and_field_of_first_violation(self):
        with pytest.raises(RowError) as err:
            Batch(["a", "b", "c"], bf=[2.0, -1.0, -3.0])
        assert err.value.index == 1
        assert err.value.reason.startswith("bf")
        assert "row 1" in str(err.value)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(RowError, match="duplicate") as err:
            Batch(["a", "b", "a", "b"], bf=[1.0, 2.0, 3.0, 4.0])
        assert err.value.index == 2

    def test_columns_must_align_with_ids(self):
        with pytest.raises(ValueError, match="aligned"):
            Batch(["a", "b"], bf=[1.0])
        with pytest.raises(ValueError, match="bf or a log_bf"):
            Batch(["a"], z=[1.0])

    @pytest.mark.parametrize(
        "bf, log_bf",
        [
            (2.5, math.log(2.5)),
            (math.exp(700.0), 700.0),
            (sys.float_info.max, 709.0),  # saturated by exp_saturated
            (sys.float_info.max, 12_460.0),
            (5e-324, -800.0),  # the underflow floor
            (math.exp(-740.0), -740.0),  # subnormal
        ],
    )
    def test_bf_and_log_bf_may_both_be_given_when_they_agree(self, bf, log_bf):
        batch = Batch(["a"], bf=[bf], log_bf=[log_bf])
        assert batch.bf[0] == bf and batch.log_bf[0] == log_bf

    @pytest.mark.parametrize(
        "bf, log_bf",
        [(1e9, 0.0), (2.5, math.log(2.5) + 1e-6), (sys.float_info.max, 700.0), (5e-324, 0.0), (1.0, -800.0)],
    )
    def test_bf_and_log_bf_that_disagree_are_rejected(self, bf, log_bf):
        with pytest.raises(RowError, match="disagree") as err:
            Batch(["a", "b"], bf=[1.0, bf], log_bf=[0.0, log_bf])
        assert err.value.index == 1


class TestPosteriorTable:
    """A report's v_hat array is the posterior table it was decided on."""

    def test_preserves_order(self):
        rep = DecisionReport(v_hat=[0.2, 0.9, 0.5], alpha=0.5, threshold=0.5, estimated_bfdr=0.1)
        assert np.array_equal(rep.v_hat, [0.2, 0.9, 0.5])
        assert rep.rejected.tolist() == [False, True, False]

    def test_vhat_range_enforced(self):
        with pytest.raises(ValueError, match="v_hat"):
            DecisionReport(v_hat=[1.2], alpha=0.05, threshold=0.5, estimated_bfdr=0.0)
        with pytest.raises(ValueError, match="v_hat"):
            DecisionReport(v_hat=[math.nan], alpha=0.05, threshold=0.5, estimated_bfdr=0.0)


class TestPi0Estimate:
    def test_basic(self):
        est = Pi0Estimate(0.5, Pi0Method.QBF, m=10, gamma=0.5)
        assert est.pi0_hat == 0.5
        assert est.method is Pi0Method.QBF

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_pi0_range(self, bad):
        with pytest.raises(ValueError, match="pi0_hat"):
            Pi0Estimate(bad, Pi0Method.FIXED, m=3)

    def test_ebf_requires_d0(self):
        with pytest.raises(ValueError, match="d0"):
            Pi0Estimate(0.5, Pi0Method.EBF, m=10)

    def test_ebf_pi0_must_be_d0_over_m_exactly(self):
        est = Pi0Estimate(2 / 3, Pi0Method.EBF, m=3, d0=2)
        assert est.pi0_hat == 2 / 3
        with pytest.raises(ValueError, match="d0 / m"):
            Pi0Estimate(0.67, Pi0Method.EBF, m=3, d0=2)

    def test_d0_range(self):
        with pytest.raises(ValueError, match="d0"):
            Pi0Estimate(1.0, Pi0Method.EBF, m=3, d0=4)

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            Pi0Estimate(0.5, Pi0Method.QBF, m=4, gamma=1.0)


class TestDecisionReport:
    def test_valid(self):
        rep = DecisionReport(
            v_hat=[0.99, 0.97, 0.8],
            alpha=0.05,
            threshold=0.8,
            estimated_bfdr=0.02,
            auto_rejected=[True, False, False],
        )
        assert rep.n_rejected == 2
        assert rep.rejected.tolist() == [True, True, False]

    def test_bfdr_cannot_exceed_alpha_when_nonempty(self):
        with pytest.raises(ValueError, match="estimated_bfdr"):
            DecisionReport([0.9], 0.05, 0.5, estimated_bfdr=0.06)

    def test_empty_rejection_needs_zero_bfdr(self):
        with pytest.raises(ValueError, match="estimated_bfdr"):
            DecisionReport([0.4], 0.05, 0.5, estimated_bfdr=0.01)
        rep = DecisionReport([0.4], 0.05, 0.5, estimated_bfdr=0.0)
        assert rep.n_rejected == 0

    def test_auto_must_be_subset(self):
        with pytest.raises(ValueError, match="auto_rejected"):
            DecisionReport([0.99, 0.4], 0.05, 0.5, 0.01, auto_rejected=[False, True])

    @pytest.mark.parametrize("bad_alpha", [0.0, 1.0, -0.1])
    def test_alpha_range(self, bad_alpha):
        with pytest.raises(ValueError, match="alpha"):
            DecisionReport([0.4], bad_alpha, 0.5, 0.0)

    def test_threshold_range(self):
        with pytest.raises(ValueError, match="threshold"):
            DecisionReport([0.4], 0.05, 1.5, 0.0)


class TestSimTruth:
    """A study's truth is a mask aligned with its batch, checked where ``score`` reads it."""

    def test_basic(self):
        rejected = np.array([True, True])
        for truth in ((1, 0), np.array([True, False])):
            rep = score(rejected, truth)
            assert (rep.n_true_alt, rep.n_rejected, rep.fdp) == (1, 2, 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not align"):
            score(np.array([True]), (1, 0))

    def test_z_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            score(np.array([True]), (2,))


class TestEvalReport:
    def test_basic(self):
        rep = EvalReport(fdp=0.1, fnp=0.2, n_rejected=5, n_true_alt=10)
        assert rep.fdp == 0.1

    def test_zero_rejections_forces_zero_fdp(self):
        with pytest.raises(ValueError, match="fdp"):
            EvalReport(fdp=0.5, fnp=0.0, n_rejected=0, n_true_alt=3)

    @pytest.mark.parametrize("fdp,fnp", [(-0.1, 0.0), (0.0, 1.5)])
    def test_rates_in_unit_interval(self, fdp, fnp):
        with pytest.raises(ValueError):
            EvalReport(fdp=fdp, fnp=fnp, n_rejected=1, n_true_alt=1)
