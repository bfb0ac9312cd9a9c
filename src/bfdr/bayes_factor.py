"""Bayes factors for linear-model association tests.

The single-variant Bayes factor compares a normal effect prior against a
point null for an estimated coefficient with standard error ``u``. With a
prior scale ``omega`` and Wald statistic ``z`` it has the closed form

    BF(z, u, omega) = sqrt(u^2 / (omega^2 + u^2))
                      * exp((z^2 / 2) * omega^2 / (omega^2 + u^2))

which this module always evaluates through its logarithm, one vectorized
kernel per formula. Natural-scale values come from
``model.exp_saturated``, which saturates at the largest finite float
instead of overflowing. Every kernel is numpy; the normal quantile behind
the closed-form null quantiles comes from the ``_normal`` port of ndtri.

Averaging over a grid of prior scales and over the variants of a gene is
arithmetic-mean averaging, done in log space with log-sum-exp.

A gene's permutation scans evaluate the gene Bayes factor for hundreds of
permuted phenotypes. ``GeneDesign.fast_log_gene_bf`` does that with one
fused log-sum-exp per column in float32, within a derived bound
(``GeneDesign.fast_error_bound``) of ``log_gene_bf``'s value but not
bit-identical to it. ``GeneDesign.exact_log_gene_bf`` recomputes chosen
columns with ``log_gene_bf``'s bits, so a scan can decide almost every
column from the fast values and recompute only those near its threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtri
from .model import RowError

__all__ = [
    "OmegaGrid",
    "DEFAULT_OMEGA_GRID",
    "ScaleError",
    "check_scales",
    "log_bf_averaged_many",
    "wald_rows",
    "bf_null_quantiles",
    "GeneDesign",
    "checked_gene_design",
]


@dataclass(frozen=True)
class OmegaGrid:
    """A non-empty grid of positive prior standard deviations.

    Each omega must square to a finite float (omega at most about
    1.34e154): the kernels take omega**2 + se**2, and an infinite square
    would turn every Bayes factor into NaN.
    """

    omegas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        if not self.omegas:
            raise ValueError("omega grid must be non-empty")
        for w in self.omegas:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError("omega values must be positive and finite")
            if not math.isfinite(w * w):
                raise ValueError(f"omega value {w!r} is too large: its square overflows (the largest is about 1.34e154)")


DEFAULT_OMEGA_GRID = OmegaGrid((0.1, 0.2, 0.4, 0.8, 1.6))

_TINY = np.finfo(float).tiny


class ScaleError(RowError):
    """A test whose standard error or Wald statistic the Bayes factor cannot take, named ``test <index>`` by default."""

    _unit = "test"


def check_scales(z, se, grid: OmegaGrid | None = None) -> None:
    """Raise :class:`ScaleError` for the first test whose ``se`` or ``z`` the log Bayes factor cannot take.

    The log Bayes factor needs se**2 to be a finite normal float: below
    ``np.finfo(float).tiny`` the ratio se**2 / (omega**2 + se**2) first
    loses bits and then underflows to 0, which sends log BF to -inf, and
    an infinite se**2 makes it NaN. It needs z**2 to be finite too. With
    ``grid``, that ratio must not underflow to 0 at any omega of the grid,
    which an se far below a large omega does even when se**2 is normal (se
    1e-150 against omega 1e154). The ratio is smallest at the largest
    omega, so that one is checked, with the kernel's own arithmetic. The
    arrays are flattened in C order to find the first test; the check
    prints no numpy warning.
    """
    z, se = (np.ravel(a) for a in np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(se, dtype=float)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        u2, z2 = se * se, z * z
        w = max(grid.omegas) if grid is not None else 0.0
        ratio = u2 / (w * w + u2)
    bad_se = ~(np.isfinite(u2) & (u2 >= _TINY))
    bad_ratio = ~(ratio > 0.0) & ~bad_se
    bad = bad_se | bad_ratio | ~np.isfinite(z2)
    if not bad.any():
        return
    i = int(bad.argmax())
    if bad_ratio[i]:
        raise ScaleError(
            i,
            f"standard error {float(se[i])!r} is too small against omega {w!r}: "
            "se**2 / (omega**2 + se**2) underflows to 0",
        )
    name, value, square = ("standard error", se[i], u2[i]) if bad_se[i] else ("Wald statistic", z[i], z2[i])
    below = ", below the smallest normal float" if square < _TINY else ""
    raise ScaleError(i, f"{name} {float(value)!r} squares to {float(square)!r}{below}")


def _logsumexp(a, axis=None, in_order=False):
    """``log(sum(exp(a), axis))`` for real input, bit for bit as scipy computes it.

    These are the real-input steps of ``scipy.special.logsumexp`` (scipy
    1.17): the maximal entries are taken out of the shifted sum and counted,
    and a non-finite result falls back to the direct formula. Keeping scipy's
    exact operation order keeps every Bayes factor, and so every output
    file, unchanged while sparing each ``bfdr`` command the scipy import.

    ``in_order=True`` (an int ``axis`` only) adds the terms along ``axis``
    first to last, one at a time, as numpy reduces an outer axis. Without
    it a reduction over a contiguous innermost axis may sum pairwise, so
    the two agree bit for bit only where numpy would reduce in order.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis

    def total(x):
        if in_order:
            return np.take(np.add.accumulate(x, axis=axis), [-1], axis=axis)
        return np.sum(x, axis=axis, keepdims=True)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        s = total(np.exp(np.where(is_max, -np.inf, a) - a_max))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(total(np.exp(a))))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def log_bf_averaged_many(
    z: np.ndarray,
    se: np.ndarray,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
) -> np.ndarray:
    """Vectorized grid-averaged log Bayes factors.

    ``z`` and ``se`` are broadcast against each other; the result has their
    broadcast shape. This is the hot path used by the simulation and
    permutation engines. A pair that fails :func:`check_scales` raises
    its :class:`ScaleError`, numbered in the broadcast shape's C order.
    """
    omegas = np.asarray(grid.omegas, dtype=float)
    z = np.asarray(z, dtype=float)
    se = np.asarray(se, dtype=float)
    if np.any(~np.isfinite(z)):
        raise ValueError("z must be finite")
    if np.any(~np.isfinite(se)) or np.any(se <= 0.0):
        raise ValueError("se must be positive and finite")
    check_scales(z, se, grid)
    u2 = (se * se)[..., None]
    w2 = omegas * omegas
    shrink = w2 / (w2 + u2)
    lb = 0.5 * np.log(u2 / (w2 + u2)) + 0.5 * (z * z)[..., None] * shrink
    return _logsumexp(lb, axis=-1) - math.log(len(omegas))


def _row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's dot product of ``a`` with ``b``: stacked (1 x n)(n x 1) products, the same BLAS dot as ``a[i] @ b[i]``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def wald_rows(g: np.ndarray, y: np.ndarray, sigma: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Wald statistic and standard error of the slope of each row of ``y`` on the same row of ``g``.

    ``g`` and ``y`` are (tests, n) arrays. The residual standard deviation
    is ``sigma`` when given; ``None`` estimates each row's from its
    residual sum of squares with n - 2 degrees of freedom.

    Every step repeats the one-test arithmetic bit for bit: the row means
    reduce each contiguous row pairwise, as a 1-d mean does, and the row
    products are the same BLAS dot as ``gc @ yc``. Raises ``ValueError``
    on malformed input, a constant row of ``g`` or residuals that are all
    zero, and :class:`ScaleError` naming the first row whose standard
    error or Wald statistic fails :func:`check_scales`, without a numpy
    warning.
    """
    g = np.asarray(g, dtype=float)
    y = np.asarray(y, dtype=float)
    if g.ndim != 2 or g.shape != y.shape:
        raise ValueError("g and y must be 2-d arrays of equal shape")
    n = g.shape[1]
    if n < 3:
        raise ValueError("need at least 3 observations")
    if not (np.isfinite(g).all() and np.isfinite(y).all()):
        raise ValueError("y and g must be finite")
    if sigma is not None:
        sigma = float(sigma)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
    gc = g - g.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    sxx = _row_products(gc, gc)
    if not (sxx > 0.0).all():
        raise ValueError("g must not be constant")
    beta = _row_products(gc, yc) / sxx
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        if sigma is None:
            resid = yc - beta[:, None] * gc
            sigma = np.sqrt(_row_products(resid, resid) / (n - 2))
            if not (sigma > 0.0).all():
                raise ValueError("residuals are degenerate; cannot estimate sigma")
        se = sigma / np.sqrt(sxx)
        z = beta / se
    check_scales(z, se)
    return z, se


def bf_null_quantiles(
    se: np.ndarray,
    gamma: float,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
) -> np.ndarray:
    """The null gamma-quantile of the averaged Bayes factor at each standard error.

    Under the null the Wald statistic is standard normal, so z^2 is
    chi-squared with one degree of freedom, and the averaged Bayes factor
    is strictly increasing in z^2 for a fixed standard error. Its null
    gamma-quantile is therefore the Bayes factor evaluated at the
    chi-squared gamma-quantile of z^2; no resampling is needed when the
    null distribution of z is known.

    That quantile's |z| is the normal (1 + gamma) / 2 quantile, taken as
    ``-ndtri((1 - gamma) / 2)`` through the ``_normal`` port. It differs
    from ``sqrt(scipy.stats.chi2.ppf(gamma, df=1))`` in the last bits
    only: on a dense gamma grid the Bayes-factor quantiles lie within
    2.5e-14 (relative) of the ones that value gives.
    """
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    zq = -ndtri((1.0 - g) / 2.0)
    se = np.asarray(se, dtype=float)
    log_q = log_bf_averaged_many(np.full(se.shape, zq), se, grid)
    return np.exp(np.minimum(log_q, 709.0))


# How far a finite fast_log_gene_bf value v may lie from log_gene_bf's. Both
# give v = log(sum(exp(lb)) / N) over a column's N = k * omegas entries
# lb = s Z**2 + p (shrink s in (0, 1/2], prefactor p <= 0, P = max |p|). The
# fast kernel rounds to float32, u = 2**-24. Weighting entry i by its share
# w_i of the sum, sum w_i |lb_i| <= |v| + 2 log N, and:
# * the casts of Z, s and p and forming s Z**2 + p (six roundings, and
#   2**-150 Z**2 <= 4u from an s below float32's normal range) put
#   u (6 |lb| + 6 |p| + 4) on an entry, u (6 |v| + 12 log N + 6 P + 4) on v;
# * the shift by the largest entry (so the sum is at least 1) is damped by
#   the exp to u log N in all; numpy's float32 exp is off by at most 2.54 ulp
#   (measured on this AVX-512 CPU over 10^8 arguments in [-87.3, 0]), 5.1 u;
#   the sum, over variants in order and then over scales, by (N - 1) u;
# * the float64 log and add-back, and log_gene_bf's own float64 error (under
#   8 N 2**-53 (1 + |v|)), add under 2**-25 of that. (numpy's float32 log,
#   3.10 ulp here, is not used.)
# So |fast - exact| <= u (N + 6 |v| + 6 P + 13 log N + 10). The bound, 4u
# (N + 16) (1 + P + |v|), is over twice that in N and 10 times in |v| and P.
# Over 100 default genes at 500 permuted columns the largest error was 1/230.
# A stage may read fast values that another stage computed from a product of
# another width, and BLAS bits depend on the width. Either product's Wald
# statistics are within about n 2**-53 ||y - mean(y)|| / sigma of the exact
# dot products, so they differ by under a = n 2**-51 ||y - mean(y)|| / sigma:
# an entry moves by a (1/2 + s Z**2) + a**2 / 2 at most, and v by under
# a (1 + a) (N + 16) (1 + P + |v|), which ``fast_error_bound``'s ``y`` adds.
# On default genes a is under 10^-5 of 4u.
_FAST_ERROR_PER_ENTRY = 2.0**-22


class GeneDesign:
    """Precomputed design for repeated association scans of one gene.

    Centers the genotype matrix once, drops monomorphic (constant) columns,
    and caches the per-variant pieces of the Bayes-factor formula so that
    scanning many phenotype vectors (observed plus permuted) reduces to one
    matrix product and vectorized elementwise math.
    """

    def __init__(
        self,
        G: np.ndarray,
        sigma: float,
        grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    ):
        G = np.asarray(G, dtype=float)
        if G.ndim != 2:
            raise ValueError("G must be a 2-d matrix (individuals x variants)")
        n, k = G.shape
        if n < 3:
            raise ValueError("need at least 3 individuals")
        if k < 1:
            raise ValueError("G must have at least one variant column")
        if not np.isfinite(G).all():
            raise ValueError("G must be finite")
        sigma = float(sigma)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        Gc = G - G.mean(axis=0, keepdims=True)
        sxx = np.einsum("ij,ij->j", Gc, Gc)
        keep = sxx > 0.0
        if not np.any(keep):
            raise ValueError("all variant columns are constant")
        self.n = n
        self.kept_columns = np.nonzero(keep)[0]
        self._Gc = np.ascontiguousarray(Gc[:, keep])
        sxx = sxx[keep]
        self._z_scale = 1.0 / (sigma * np.sqrt(sxx))
        self.se = sigma / np.sqrt(sxx)
        omegas = np.asarray(grid.omegas, dtype=float)
        w2 = omegas * omegas
        U2 = (self.se * self.se)[:, None]
        self._log_prefactor = 0.5 * np.log(U2 / (w2 + U2))
        self._shrink = 0.5 * w2 / (w2 + U2)
        self._n_omegas = omegas.size
        self._sigma = sigma
        # The fast kernel's float32 terms, (omegas, k, 1) against a scan's (k, columns) squares.
        self._fast_terms = [np.ascontiguousarray(a.T, dtype=np.float32)[:, :, None] for a in (self._shrink, self._log_prefactor)]
        self._fast_error_unit = _FAST_ERROR_PER_ENTRY

    @property
    def n_variants(self) -> int:
        return self._Gc.shape[1]

    def _as_batch(self, Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        squeeze = Y.ndim == 1
        if squeeze:
            Y = Y[:, None]
        if Y.ndim != 2 or Y.shape[0] != self.n:
            raise ValueError("phenotype batch must have one row per individual")
        return Y

    def z_batch(self, Y: np.ndarray) -> np.ndarray:
        """Wald statistics, one row per kept variant, one column per phenotype."""
        Y = self._as_batch(Y)
        Yc = Y - Y.mean(axis=0, keepdims=True)
        sxy = self._Gc.T @ Yc
        return sxy * self._z_scale[:, None]

    def _nested_log_gene_bf(self, Z: np.ndarray, in_order: bool = False) -> np.ndarray:
        lb = self._shrink[:, :, None] * (Z * Z)[:, None, :]  # (variant, prior scale, column) log BFs
        lb += self._log_prefactor[:, :, None]  # in place: the same sum, without a second array
        per_variant = _logsumexp(lb, axis=1, in_order=in_order) - math.log(self._n_omegas)
        out = _logsumexp(per_variant, axis=0, in_order=in_order) - math.log(self.n_variants)
        return np.atleast_1d(out)

    def log_gene_bf(self, Y: np.ndarray) -> np.ndarray:
        """Gene-level log Bayes factor for each phenotype column.

        Per variant the Bayes factor is averaged over the prior-scale grid;
        the gene statistic is the arithmetic mean over kept variants. Both
        means are taken with log-sum-exp.
        """
        return self._nested_log_gene_bf(self.z_batch(Y))

    def fast_log_gene_bf(self, Z: np.ndarray) -> np.ndarray:
        """The gene log Bayes factor of each column of Wald statistics ``Z``, fused, in float32.

        The gene Bayes factor is the mean of all k x omegas per-variant,
        per-scale Bayes factors, so one shift by the column's largest log
        entry, an exp in place, one sum and one log give it, several times
        faster than :meth:`log_gene_bf`'s two nested log-sum-exps. It rounds
        differently: a finite value v lies within ``fast_error_bound(v)``
        of log_gene_bf's value. A column with a NaN or +inf entry, or with
        every entry -inf, gives a non-finite value, which bounds nothing;
        so does a Wald statistic whose float32 square overflows.
        """
        shrink, log_prefactor = self._fast_terms
        with np.errstate(over="ignore", invalid="ignore"):
            Z = np.asarray(Z, dtype=np.float32)
            lb = shrink * (Z * Z)
            lb += log_prefactor
            top = lb.max(axis=(0, 1))
            lb -= top
            np.exp(lb, out=lb)
            return np.log(lb.sum(axis=1).sum(axis=0), dtype=float) + top - math.log(lb.shape[0] * lb.shape[1])

    def fast_error_bound(self, v, y=None):
        """How far log_gene_bf's value can lie from a finite fast value ``v``.

        That is 2**-22 (N + 16) (1 + P + |v|), for N log-BF entries per column
        and P the largest |log prefactor|; with ``y``, the phenotype the
        columns permute, plus the gap to a product of another width.
        """
        unit = self._fast_error_unit
        if y is not None:
            with np.errstate(over="ignore"):
                a = 2.0**-51 * self.n * float(np.linalg.norm(y - y.mean())) / self._sigma
            unit += a * (1.0 + a)
        p = self._log_prefactor
        return unit * (p.size + 16.0) * (1.0 - p.min() + np.abs(v))

    def exact_log_gene_bf(self, Z: np.ndarray, columns) -> np.ndarray:
        """log_gene_bf's values of the chosen columns of a scan's Wald statistics ``Z``.

        ``Z`` is :meth:`z_batch` of the whole scan and ``columns`` any index
        or mask of its columns. The values carry the bits that
        :meth:`log_gene_bf` gives those columns in the whole scan, however
        few are chosen. In a scan wider than one column numpy reduces the
        prior-scale and the variant axis as outer axes, adding the terms
        first to last, and so does this evaluation; a one-column selection
        left to numpy would be reduced as contiguous rows, pairwise, and
        could differ in the last bits. A one-column scan is itself reduced
        that way, and is evaluated so.
        """
        return self._nested_log_gene_bf(Z[:, columns], in_order=Z.shape[1] > 1)


def checked_gene_design(
    G: np.ndarray, y: np.ndarray, sigma: float, grid: OmegaGrid = DEFAULT_OMEGA_GRID
) -> tuple[GeneDesign, float]:
    """The design of genotypes ``G`` and the log gene Bayes factor of ``y``, once both pass :func:`check_scales`.

    The check takes the design's standard errors and the Wald statistics of
    ``y``, and the log Bayes factor, ``design.log_gene_bf(y)[0]`` bit for
    bit, comes from those statistics. Raises :class:`ScaleError` for the
    first kept variant that fails, and ``GeneDesign``'s ``ValueError`` for
    a design that cannot be built. numpy's warnings on a degenerate scale
    are silenced, because the check reports it.
    """
    with np.errstate(all="ignore"):
        design = GeneDesign(G, sigma, grid)
        Z = design.z_batch(y)
    check_scales(Z[:, 0], design.se, grid)
    return design, float(design._nested_log_gene_bf(Z)[0])
