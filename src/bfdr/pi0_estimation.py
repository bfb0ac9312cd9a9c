"""Conservative estimation of the null proportion pi0.

Three estimators, all biased upward by construction:

* EBF: sort the Bayes factors ascending and find the longest prefix whose
  running mean stays strictly below 1. Under the null a Bayes factor has
  unit expectation, so the smallest d0 of them look like a pure-null
  sample; pi0_hat = d0 / m. No tuning parameter.
* QBF: count the tests whose Bayes factor falls at or below its own null
  gamma-quantile. Under the null that happens with probability gamma, so
  the count divided by (m * gamma) over-counts pi0 on average.
* Storey: the classical p-value analogue of QBF, counting p-values above
  1 - gamma. When p_i is the null upper-tail probability of the Bayes
  factor the two are the same decision, tail for tail.

The EBF scan uses compensated (Neumaier) summation. If the running sum
overflows the float range, the prefix mean is treated as >= 1 from that
point on, which can only stop the scan early; an astronomically large
Bayes factor therefore never inflates d0.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import Pi0Estimate, Pi0Method

__all__ = [
    "ebf_pi0",
    "qbf_pi0",
    "storey_pi0",
    "fixed_pi0",
    "auto_reject_threshold",
]


def _check_bfs(bfs: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(bfs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a non-empty 1-d sequence of Bayes factors")
    if np.any(np.isnan(arr)) or np.any(arr <= 0.0):
        raise ValueError("Bayes factors must be positive (inf allowed as overflow)")
    return arr


def ebf_pi0(bfs: Sequence[float] | np.ndarray) -> Pi0Estimate:
    """Empirical-Bayes-factor upper bound on the null proportion.

    d0 is the largest prefix length of the ascending-sorted Bayes factors
    whose arithmetic mean is strictly below 1; a prefix mean of exactly 1
    does not extend d0. Prefix means of sorted values are non-decreasing,
    so the scan stops at the first prefix whose mean reaches 1. The result
    is d0 / m, exactly, with d0 recorded alongside.

    d0 = 0 (the smallest Bayes factor is already >= 1) yields pi0_hat = 0;
    callers should treat that as "no null signal visible", not as a
    precise estimate.
    """
    arr = _check_bfs(bfs)
    m = arr.size
    s = np.sort(arr)
    # The running Neumaier scan, one array operation per step for all
    # prefixes at once, bit for bit: the running sum is the sequential
    # np.cumsum, each addition's error term is the same two float operations
    # (both operands are non-negative, so the larger one is the larger in
    # absolute value), and the carry is their sequential cumsum.
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float range, where the scan stops
        total = np.cumsum(s)
        before = np.concatenate(([0.0], total[:-1]))
        carry = np.cumsum(np.where(before >= s, (before - total) + s, (s - total) + before))
        # An overflowed sum makes every further prefix mean >= 1, and prefix means of sorted values only grow.
        stops = np.isinf(total) | ~((total + carry) / np.arange(1, m + 1) < 1.0)
    d0 = int(stops.argmax()) if stops.any() else m
    return Pi0Estimate(pi0_hat=d0 / m, method=Pi0Method.EBF, m=m, d0=d0)


def qbf_pi0(
    bfs: Sequence[float] | np.ndarray,
    null_quantiles: Sequence[float] | np.ndarray,
    gamma: float = 0.5,
) -> Pi0Estimate:
    """Quantile-based upper bound on the null proportion.

    ``null_quantiles[i]`` must be the gamma-quantile of test i's Bayes
    factor under the null (analytic when the null law of z is known,
    otherwise from permutations). The estimate is

        min(1, #{ bf_i <= q_i } / (m * gamma)).
    """
    arr = _check_bfs(bfs)
    q = np.asarray(null_quantiles, dtype=float)
    if q.shape != arr.shape:
        raise ValueError("null_quantiles must align with bfs")
    if not (np.isfinite(q) & (q > 0.0)).all():
        raise ValueError("null quantiles must be positive and finite")
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    count = int(np.sum(arr <= q))
    pi0_hat = min(1.0, count / (arr.size * g))
    return Pi0Estimate(pi0_hat=pi0_hat, method=Pi0Method.QBF, m=arr.size, gamma=g)


def storey_pi0(pvalues: Sequence[float] | np.ndarray, gamma: float = 0.5) -> Pi0Estimate:
    """Storey's p-value census of the null proportion.

        min(1, #{ p_i > 1 - gamma } / (m * gamma))

    With p_i the null upper-tail probability of test i's Bayes factor this
    counts exactly the same tests as :func:`qbf_pi0`, since bf_i at or
    below its null gamma-quantile is the same event as p_i above 1 - gamma.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("need a non-empty 1-d sequence of p-values")
    if np.any(np.isnan(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    count = int(np.sum(p > 1.0 - g))
    pi0_hat = min(1.0, count / (p.size * g))
    return Pi0Estimate(pi0_hat=pi0_hat, method=Pi0Method.STOREY, m=p.size, gamma=g)


def fixed_pi0(pi0: float, m: int) -> Pi0Estimate:
    """Wrap an externally chosen null proportion (e.g. 1 for a pure-null prior)."""
    return Pi0Estimate(pi0_hat=float(pi0), method=Pi0Method.FIXED, m=int(m))


def auto_reject_threshold(m: int, alpha: float) -> float:
    """Bayes-factor bound above which rejection is automatic.

    A single Bayes factor of at least m / alpha caps the EBF null-proportion
    estimate strongly enough that the test's conservative posterior always
    clears an alpha-level decision, whatever the other m - 1 tests look like.
    """
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("m must be a positive integer")
    a = float(alpha)
    if not 0.0 < a < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return m / a
