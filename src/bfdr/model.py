"""Shared domain types for the Bayes-factor FDR toolkit.

Pure data definitions plus construction-time validation. No algorithms
live here; estimation and decision logic imports these types.

A batch of tests is one :class:`Batch` of aligned per-test arrays, never
one object per test. Decisions refer to tests by position in their batch:
rejection sets are boolean masks aligned with it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Batch",
    "RowError",
    "check_ids",
    "exp_saturated",
    "Pi0Method",
    "Pi0Estimate",
    "DecisionReport",
    "GeneData",
    "EvalReport",
]

_FLOAT_MAX = sys.float_info.max
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
# Largest |log(bf) - log_bf| a batch accepts when both columns are given:
# a relative disagreement of about 1e-9 between bf and exp(log_bf).
_BF_LOG_TOLERANCE = 1e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def exp_saturated(log_values) -> np.ndarray:
    """exp() of each value, saturating at the float max instead of overflowing.

    Values at or above 709 give the largest finite float, and a result that
    underflows to zero is raised to the smallest subnormal, so every output
    is a positive finite Bayes factor. Each element goes through
    ``math.exp``, whose results the output files are written from.
    """
    return np.array(
        [_FLOAT_MAX if x >= 709.0 else (math.exp(x) or 5e-324) for x in np.ravel(log_values).tolist()],
        dtype=float,
    )


class RowError(ValueError):
    """A test failed a check: ``index`` is its position among those checked, ``reason`` the cause.

    The message is ``"<name>: <reason>"``, the name defaulting to ``"row <index>"``. The
    fields are the ``args``, so the error pickles and comes back from a worker process whole.
    """

    _unit = "row"

    def __init__(self, index: int, reason: str, name: str | None = None):
        super().__init__(index, reason, name)
        self.index, self.reason, self.name = index, reason, name

    def __str__(self) -> str:
        return f"{self.name or f'{self._unit} {self.index}'}: {self.reason}"


def check_ids(ids: Sequence[str]) -> tuple[str, ...]:
    """The ids as a tuple of strings; :class:`RowError` at the first empty or repeated one."""
    ids = tuple(map(str, ids))
    if "" in ids:
        raise RowError(ids.index(""), "id must be a non-empty string")
    if len(set(ids)) < len(ids):
        first = {x: i for i, x in reversed(list(enumerate(ids)))}
        i = next(i for i, x in enumerate(ids) if first[x] != i)
        raise RowError(i, f"duplicate id {ids[i]!r}")
    return ids


def _column(values, m: int, name: str) -> np.ndarray | None:
    if values is None:
        return None
    arr = np.asarray(values, dtype=float)
    _require(arr.shape == (m,), f"{name} must be a 1-d column aligned with ids")
    return arr


@dataclass(frozen=True, eq=False)
class Batch:
    """A batch of hypothesis tests as aligned columns, one entry per test.

    ``ids`` are unique non-empty strings. ``bf`` is the null-based Bayes
    factor on natural scale (positive and finite) and ``log_bf`` its
    logarithm (finite). Give either column or both: a missing ``bf`` is
    ``exp_saturated(log_bf)``, which saturates at the float max for
    evidence beyond the float range, and a missing ``log_bf`` is
    ``math.log`` of each ``bf``. When both are given they must agree to a
    relative 1e-9, except that a saturated ``bf`` (the float max with
    ``log_bf`` >= 709) and a subnormal ``bf`` with ``log_bf`` below the
    normal range are accepted. Downstream code that cares about extreme
    values (posteriors, sorting) reads ``log_bf``; EBF and the automatic
    rejection bound read ``bf``. ``z`` (finite) and ``se`` (positive and
    finite) are optional whole columns.

    Each check runs over a whole column; a failure raises :class:`RowError`
    naming the first row that fails it.
    """

    ids: Sequence[str]
    log_bf: np.ndarray | None = None
    bf: np.ndarray | None = None
    z: np.ndarray | None = None
    se: np.ndarray | None = None

    def __post_init__(self):
        ids = check_ids(self.ids)
        m = len(ids)
        bf, log_bf, z, se = (_column(getattr(self, name), m, name) for name in ("bf", "log_bf", "z", "se"))
        _require(bf is not None or log_bf is not None, "a batch needs a bf or a log_bf column")
        for col, positive, reason in (
            (bf, True, "bf must be a positive finite number"),
            (z, False, "z must be finite"),
            (se, True, "se must be positive"),
            (log_bf, False, "log_bf must be finite"),
        ):
            if col is None:
                continue
            ok = np.isfinite(col) & (col > 0.0) if positive else np.isfinite(col)
            if not ok.all():
                raise RowError(int(ok.argmin()), reason)
        if bf is None:
            bf = exp_saturated(log_bf)
        elif log_bf is None:
            log_bf = np.array([math.log(x) for x in bf.tolist()], dtype=float)
        else:
            agree = (
                (np.abs(np.log(bf) - log_bf) <= _BF_LOG_TOLERANCE)
                | ((bf == _FLOAT_MAX) & (log_bf >= 709.0))
                | ((bf < sys.float_info.min) & (log_bf < _LOG_FLOAT_MIN))
            )
            if not agree.all():
                i = int(agree.argmin())
                raise RowError(i, f"bf {float(bf[i])!r} and log_bf {float(log_bf[i])!r} disagree")
        object.__setattr__(self, "ids", ids)
        for name, col in (("log_bf", log_bf), ("bf", bf), ("z", z), ("se", se)):
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.ids)


class Pi0Method(str, Enum):
    """How a null-proportion estimate was obtained."""

    EBF = "ebf"
    QBF = "qbf"
    STOREY = "storey"
    FIXED = "fixed"


@dataclass(frozen=True)
class Pi0Estimate:
    """An estimated proportion of true nulls among m tests."""

    pi0_hat: float
    method: Pi0Method
    m: int
    gamma: float | None = None
    d0: int | None = None

    def __post_init__(self):
        _require(isinstance(self.m, int) and self.m >= 1, "m must be a positive integer")
        p = float(self.pi0_hat)
        _require(0.0 <= p <= 1.0, "pi0_hat must lie in [0, 1]")
        object.__setattr__(self, "pi0_hat", p)
        _require(isinstance(self.method, Pi0Method), "method must be a Pi0Method")
        if self.gamma is not None:
            g = float(self.gamma)
            _require(0.0 < g < 1.0, "gamma must lie in (0, 1)")
            object.__setattr__(self, "gamma", g)
        if self.method is Pi0Method.EBF:
            _require(self.d0 is not None, "EBF estimates must carry d0")
        if self.d0 is not None:
            _require(isinstance(self.d0, int) and 0 <= self.d0 <= self.m, "d0 must lie in [0, m]")
            if self.method is Pi0Method.EBF:
                _require(p == self.d0 / self.m, "EBF pi0_hat must equal d0 / m exactly")


@dataclass(frozen=True, eq=False)
class DecisionReport:
    """Outcome of thresholding posterior probabilities at level alpha.

    ``v_hat`` holds the posterior alternative probabilities of a batch, in
    batch order. ``rejected`` is the boolean mask { v_hat > threshold },
    derived here so that it cannot disagree with the threshold;
    ``estimated_bfdr`` is the mean of (1 - v_hat) over the rejected tests,
    zero when nothing is rejected. ``auto_rejected`` marks the tests whose
    Bayes factor cleared the automatic-rejection bound and must lie inside
    ``rejected``.
    """

    v_hat: np.ndarray
    alpha: float
    threshold: float
    estimated_bfdr: float
    auto_rejected: np.ndarray | None = None
    rejected: np.ndarray = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.v_hat, dtype=float)
        _require(v.ndim == 1, "v_hat must be a 1-d array")
        _require(bool(np.all((v >= 0.0) & (v <= 1.0))), "v_hat must lie in [0, 1]")
        object.__setattr__(self, "v_hat", v)
        a = float(self.alpha)
        _require(0.0 < a < 1.0, "alpha must lie in (0, 1)")
        object.__setattr__(self, "alpha", a)
        t = float(self.threshold)
        _require(0.0 <= t <= 1.0, "threshold must lie in [0, 1]")
        object.__setattr__(self, "threshold", t)
        rejected = v > t
        object.__setattr__(self, "rejected", rejected)
        b = float(self.estimated_bfdr)
        if rejected.any():
            _require(b <= a, "estimated_bfdr must not exceed alpha when anything is rejected")
        else:
            _require(b == 0.0, "estimated_bfdr must be 0 for an empty rejection set")
        object.__setattr__(self, "estimated_bfdr", b)
        auto = np.zeros(v.shape, dtype=bool) if self.auto_rejected is None else self.auto_rejected
        auto = np.asarray(auto, dtype=bool)
        _require(auto.shape == v.shape, "auto_rejected must align with v_hat")
        _require(not np.any(auto & ~rejected), "auto_rejected must be a subset of rejected")
        object.__setattr__(self, "auto_rejected", auto)

    @property
    def n_rejected(self) -> int:
        return int(np.count_nonzero(self.rejected))


class GeneData(NamedTuple):
    """Raw data of one gene: its id, phenotype vector and dosage matrix."""

    id: str
    y: np.ndarray
    G: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Realized error rates of a decision against simulation truth."""

    fdp: float
    fnp: float
    n_rejected: int
    n_true_alt: int

    def __post_init__(self):
        _require(0.0 <= self.fdp <= 1.0, "fdp must lie in [0, 1]")
        _require(0.0 <= self.fnp <= 1.0, "fnp must lie in [0, 1]")
        _require(self.n_rejected >= 0, "n_rejected must be non-negative")
        _require(self.n_true_alt >= 0, "n_true_alt must be non-negative")
        if self.n_rejected == 0:
            _require(self.fdp == 0.0, "fdp must be 0 when nothing is rejected")
