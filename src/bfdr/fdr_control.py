"""Decision rules that control the false discovery rate.

The Bayesian path: combine each test's Bayes factor with a conservative
null-proportion estimate into a posterior alternative probability

    v_hat = (1 - pi0_hat) * bf / (pi0_hat + (1 - pi0_hat) * bf),

then reject the tests with the largest v_hat, growing the rejection set
while the running mean of (1 - v_hat) stays at or below alpha. Because
pi0_hat over-counts the nulls, that running mean over-counts the expected
false discoveries, so stopping at alpha is conservative.

The frequentist baselines (step-up p-value adjustment and its q-value
generalization) are included for comparison studies and share one
adjusted-value implementation, so fixing the null proportion to 1 in the
q-value route reproduces the step-up rule bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .model import DecisionReport, Pi0Estimate, PosteriorTable, TestRecord
from .pi0_estimation import auto_reject_threshold, storey_pi0

__all__ = [
    "two_sided_normal_p",
    "posterior_table",
    "bfdr_decide",
    "PvalueDecision",
    "bh_decide",
    "storey_decide",
    "apply_auto_reject",
]


def two_sided_normal_p(z: float | np.ndarray) -> float | np.ndarray:
    """Two-sided standard-normal p-value(s) for Wald statistic(s)."""
    arr = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(arr)):
        raise ValueError("z must be finite")
    # Deferred: importing scipy.special at module load would cost every
    # command its import time, and only the p-value paths need it.
    from scipy.special import erfc

    p = erfc(np.abs(arr) / math.sqrt(2.0))
    return float(p) if np.ndim(z) == 0 else p


def posterior_table(records: Sequence[TestRecord], pi0: Pi0Estimate) -> PosteriorTable:
    """Conservative posterior alternative probability for each record.

    Evaluated through logs as 1 / (1 + exp(log pi0 - log(1 - pi0) - log bf))
    so that extreme Bayes factors saturate cleanly instead of overflowing.
    pi0_hat = 1 forces every v_hat to 0 (everything looks null); pi0_hat = 0
    forces every v_hat to 1. v_hat is strictly increasing in the Bayes
    factor until it saturates at the float boundary.
    """
    p0 = pi0.pi0_hat
    if p0 >= 1.0:
        entries = tuple((r.id, 0.0) for r in records)
    elif p0 <= 0.0:
        entries = tuple((r.id, 1.0) for r in records)
    else:
        logit0 = math.log(p0) - math.log1p(-p0)
        vals = []
        for r in records:
            x = logit0 - r.log_bf
            if x >= 709.0:
                v = 0.0
            elif x <= -709.0:
                v = 1.0
            else:
                v = 1.0 / (1.0 + math.exp(x))
            vals.append((r.id, v))
        entries = tuple(vals)
    return PosteriorTable(entries=entries, pi0=pi0)


def bfdr_decide(table: PosteriorTable, alpha: float) -> DecisionReport:
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
    set is exactly { v_hat > threshold }.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    entries = sorted(table.entries, key=lambda e: (-e[1], e[0]))
    m = len(entries)
    if m == 0:
        raise ValueError("cannot decide on an empty table")

    # Walk tied blocks in descending v_hat, tracking the running sum of
    # (1 - v_hat); stop at the first block whose inclusion pushes the
    # prefix mean over alpha (later prefixes only have larger means).
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
        if run_sum / count <= a:
            n_rejected = count
            best_sum = run_sum
            i = j
        else:
            break

    rejected = frozenset(e[0] for e in entries[:n_rejected])
    if n_rejected < m:
        threshold = entries[n_rejected][1]
    else:
        threshold = 0.0
    estimated_bfdr = best_sum / n_rejected if n_rejected else 0.0
    return DecisionReport(
        alpha=a,
        threshold=threshold,
        rejected=rejected,
        estimated_bfdr=estimated_bfdr,
        auto_rejected=frozenset(),
    )


@dataclass(frozen=True)
class PvalueDecision:
    """Rejection set from a p-value procedure, with its adjusted values."""

    alpha: float
    rejected: frozenset[str]
    p_cutoff: float
    qvalues: tuple[tuple[str, float], ...]
    pi0: Pi0Estimate | None = None

    @property
    def n_rejected(self) -> int:
        return len(self.rejected)


def _checked_pvalue_list(pvalues: Sequence[tuple[str, float]]) -> tuple[list[str], np.ndarray]:
    ids = []
    vals = []
    seen = set()
    for item in pvalues:
        i, p = item
        i = str(i)
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value for {i!r} must lie in [0, 1]")
        if i in seen:
            raise ValueError(f"duplicate id {i!r}")
        seen.add(i)
        ids.append(i)
        vals.append(p)
    if not ids:
        raise ValueError("need at least one p-value")
    return ids, np.asarray(vals, dtype=float)


def _adjusted_qvalues(p: np.ndarray, pi0_hat: float) -> np.ndarray:
    """q(p_(i)) = min over j >= i of pi0_hat * m * p_(j) / j, in input order."""
    m = p.size
    order = np.argsort(p, kind="stable")
    scaled = pi0_hat * m * p[order] / np.arange(1, m + 1, dtype=float)
    tail_min = np.minimum.accumulate(scaled[::-1])[::-1]
    q = np.empty(m, dtype=float)
    q[order] = tail_min
    return q


def bh_decide(pvalues: Sequence[tuple[str, float]], alpha: float) -> PvalueDecision:
    """Step-up p-value procedure at level alpha.

    Rejects the i smallest p-values for the largest i with
    p_(i) <= i * alpha / m, implemented through adjusted values
    min_{j >= i} m * p_(j) / j so that the q-value route with a unit null
    proportion is literally the same computation.
    """
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ids, p = _checked_pvalue_list(pvalues)
    q = _adjusted_qvalues(p, 1.0)
    rej = q <= a
    rejected = frozenset(i for i, r in zip(ids, rej) if r)
    p_cutoff = float(p[rej].max()) if rejected else 0.0
    return PvalueDecision(
        alpha=a,
        rejected=rejected,
        p_cutoff=p_cutoff,
        qvalues=tuple(zip(ids, q.tolist())),
        pi0=None,
    )


def storey_decide(
    pvalues: Sequence[tuple[str, float]],
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
    ids, p = _checked_pvalue_list(pvalues)
    if pi0 is None:
        pi0 = storey_pi0(p, gamma)
    q = _adjusted_qvalues(p, pi0.pi0_hat)
    rej = q <= a
    rejected = frozenset(i for i, r in zip(ids, rej) if r)
    p_cutoff = float(p[rej].max()) if rejected else 0.0
    return PvalueDecision(
        alpha=a,
        rejected=rejected,
        p_cutoff=p_cutoff,
        qvalues=tuple(zip(ids, q.tolist())),
        pi0=pi0,
    )


def apply_auto_reject(
    report: DecisionReport,
    records: Sequence[TestRecord],
    m: int | None = None,
    alpha: float | None = None,
) -> DecisionReport:
    """Mark the automatic rejections implied by extreme Bayes factors.

    Any record with bf >= m / alpha is added to the rejection set and
    listed in ``auto_rejected``. For a report produced from these records
    under the EBF estimate this adds nothing new (such a Bayes factor
    already forces rejection); the marking makes the guarantee visible.
    """
    if m is None:
        m = len(records)
    if alpha is None:
        alpha = report.alpha
    bound = auto_reject_threshold(m, alpha)
    auto = frozenset(r.id for r in records if r.bf >= bound)
    return replace(report, rejected=report.rejected | auto, auto_rejected=auto)
