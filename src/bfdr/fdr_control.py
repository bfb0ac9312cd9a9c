"""Decision rules that control the false discovery rate.

The Bayesian path: combine each test's Bayes factor with a conservative
null-proportion estimate into a posterior alternative probability

    v_hat = (1 - pi0_hat) * bf / (pi0_hat + (1 - pi0_hat) * bf),

then reject the tests with the largest v_hat, growing the rejection set
while the running mean of (1 - v_hat) stays at or below alpha. Because
pi0_hat over-counts the nulls, that running mean over-counts the expected
false discoveries, so stopping at alpha is conservative.

The frequentist baselines (step-up p-value adjustment and its q-value
generalization) are included for comparison studies; the step-up rule is
the q-value rule with the null proportion fixed at 1. Their normal
p-values come from ``_normal.erfc``, the numpy port of cephes' ``erfc``
that equals ``scipy.special.erfc`` bit for bit, so no p-value path
imports scipy.

Everything here works on whole arrays aligned with a ``model.Batch``:
``posterior_table`` returns the v_hat array, the decision rules take
aligned arrays and return boolean rejection masks, and the decision rule
is a sort and a cumulative sum over tied blocks. :func:`decide` is the one
implementation of each procedure, from its null-proportion estimate to
its decision; ``bfdr fdr`` and both studies call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._normal import _elementwise, erfc
from .model import Batch, DecisionReport, Pi0Estimate, Pi0Method
from .pi0_estimation import auto_reject_threshold, ebf_pi0, fixed_pi0, qbf_pi0, storey_pi0

__all__ = [
    "decide",
    "two_sided_normal_p",
    "posterior_table",
    "bfdr_decide",
    "PvalueDecision",
    "bh_decide",
    "storey_decide",
    "apply_auto_reject",
]


def two_sided_normal_p(z: np.ndarray) -> np.ndarray:
    """Two-sided standard-normal p-values for Wald statistics, ``erfc(|z| / sqrt 2)``."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    return erfc(np.abs(z) / math.sqrt(2.0))


def posterior_table(batch: Batch, pi0: Pi0Estimate) -> np.ndarray:
    """Conservative posterior alternative probability of each test, in batch order.

    Evaluated through logs as 1 / (1 + exp(log pi0 - log(1 - pi0) - log bf))
    so that extreme Bayes factors saturate cleanly instead of overflowing.
    pi0_hat = 1 forces every v_hat to 0 (everything looks null); pi0_hat = 0
    forces every v_hat to 1. v_hat is strictly increasing in the Bayes
    factor until it saturates at the float boundary. Each element goes
    through ``math.exp``, whose results the output files are written from.
    """
    p0 = pi0.pi0_hat
    m = len(batch)
    if p0 >= 1.0:
        return np.zeros(m)
    if p0 <= 0.0:
        return np.ones(m)
    x = (math.log(p0) - math.log1p(-p0)) - batch.log_bf
    v_hat = 1.0 / (1.0 + _elementwise(math.exp, np.clip(x, -709.0, 709.0)))
    v_hat[x >= 709.0] = 0.0
    v_hat[x <= -709.0] = 1.0
    return v_hat


def bfdr_decide(v_hat: np.ndarray, alpha: float) -> DecisionReport:
    """Largest rejection set whose estimated Bayesian FDR is at most alpha.

    Candidate rejection sets are the upper level sets { v_hat > t } for
    t in [0, 1]: sort v_hat descending and consider prefixes that do not
    split ties (a tied block enters or stays out whole). The running mean
    of (1 - v_hat) over a prefix estimates the FDR of rejecting it, and is
    non-decreasing as the prefix grows, so the rule takes the longest
    feasible prefix. Entries with v_hat = 0 are never rejectable (no
    threshold in [0, 1] admits them).

    The reported threshold is the v_hat of the first non-rejected entry,
    or 0 when everything with positive v_hat is rejected; the rejection
    set is exactly { v_hat > threshold }. The running sum is a sequential
    cumulative sum, and the order inside a tied block cannot change its
    value at the block's end, so the outcome does not depend on how ties
    are sorted.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    v = np.asarray(v_hat, dtype=float)
    m = v.size
    if m == 0:
        raise ValueError("cannot decide on an empty table")
    s = -np.sort(-v)
    run = np.cumsum(1.0 - s)
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))  # last index of each tied block
    feasible = (s[ends] > 0.0) & (run[ends] / (ends + 1) <= a)
    # Prefix means only grow, so the first infeasible block ends the scan.
    n_blocks = int(feasible.argmin()) if not feasible.all() else ends.size
    n_rejected = int(ends[n_blocks - 1]) + 1 if n_blocks else 0
    threshold = float(s[n_rejected]) if n_rejected < m else 0.0
    estimated_bfdr = float(run[n_rejected - 1]) / n_rejected if n_rejected else 0.0
    return DecisionReport(v_hat=v, alpha=a, threshold=threshold, estimated_bfdr=estimated_bfdr)


@dataclass(frozen=True, eq=False)
class PvalueDecision:
    """Rejection mask from a p-value procedure, with its adjusted values.

    ``rejected`` and ``qvalues`` are aligned with the input p-values.
    """

    alpha: float
    rejected: np.ndarray
    p_cutoff: float
    qvalues: np.ndarray
    pi0: Pi0Estimate

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.rejected))


def _adjusted_qvalues(p: np.ndarray, pi0_hat: float) -> np.ndarray:
    """q(p_(i)) = min over j >= i of pi0_hat * m * p_(j) / j, in input order."""
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = pi0_hat * m * p[order] / np.arange(1, m + 1, dtype=float)
    tail_min = np.minimum.accumulate(scaled[::-1])[::-1]
    q = np.empty(m, dtype=float)
    q[order] = tail_min
    return q


def bh_decide(pvalues: np.ndarray, alpha: float) -> PvalueDecision:
    """Step-up p-value procedure at level alpha.

    Rejects the i smallest p-values for the largest i with
    p_(i) <= i * alpha / m. This is the q-value procedure with the null
    proportion fixed at 1, literally the same computation.
    """
    return storey_decide(pvalues, alpha=alpha, pi0=fixed_pi0(1.0, np.size(pvalues)))


def storey_decide(
    pvalues: np.ndarray,
    gamma: float = 0.5,
    alpha: float = 0.05,
    pi0: Pi0Estimate | None = None,
) -> PvalueDecision:
    """q-value procedure with an estimated null proportion.

    The null proportion defaults to the p-value census at the given gamma;
    passing a precomputed estimate (e.g. a fixed 1.0) overrides it. Each
    test's q-value is its smallest achievable estimated FDR, and the rule
    rejects q <= alpha.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a non-empty 1-d array of p-values")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    if pi0 is None:
        pi0 = storey_pi0(p, gamma)
    q = _adjusted_qvalues(p, pi0.pi0_hat)
    rej = q <= a
    p_cutoff = float(p[rej].max()) if rej.any() else 0.0
    return PvalueDecision(alpha=a, rejected=rej, p_cutoff=p_cutoff, qvalues=q, pi0=pi0)


def apply_auto_reject(report: DecisionReport, batch: Batch, pi0: Pi0Estimate) -> DecisionReport:
    """Mark the automatic rejections implied by extreme Bayes factors.

    Defined for a report decided under the EBF estimate ``pi0`` of this
    batch: there a Bayes factor of at least m / alpha already forces
    rejection, so the marking adds no test to the rejection set and the
    report keeps rejected = { v_hat > threshold } and its estimated_bfdr.
    Under any other estimate that guarantee does not hold, and the call
    raises ``ValueError``.
    """
    if pi0.method is not Pi0Method.EBF:
        raise ValueError("automatic rejection is defined for reports under the EBF estimate only")
    auto = batch.bf >= auto_reject_threshold(len(batch), report.alpha)
    return replace(report, auto_rejected=auto)


def decide(
    method: str,
    alpha: float,
    gamma: float = 0.5,
    batch: Batch | None = None,
    null_q: np.ndarray | None = None,
    pvalues: np.ndarray | None = None,
) -> tuple[Pi0Estimate, DecisionReport | PvalueDecision]:
    """Run one procedure: its null-proportion estimate and its decision.

    ``ebf`` and ``qbf`` decide on the posteriors of ``batch`` (QBF with
    the aligned null quantiles ``null_q``), EBF marking its automatic
    rejections; ``bh`` and ``storey`` decide on ``pvalues``.
    """
    if method == "ebf":
        est = ebf_pi0(batch.bf)
        return est, apply_auto_reject(bfdr_decide(posterior_table(batch, est), alpha), batch, est)
    if method == "qbf":
        est = qbf_pi0(batch.bf, null_q, gamma)
        return est, bfdr_decide(posterior_table(batch, est), alpha)
    if method == "bh":
        decision = bh_decide(pvalues, alpha)
    elif method == "storey":
        decision = storey_decide(pvalues, gamma, alpha)
    else:
        raise ValueError(f"unknown method {method!r}")
    return decision.pi0, decision
