"""Bayes factors for linear-model association tests.

The single-variant Bayes factor compares a normal effect prior against a
point null for an estimated coefficient with standard error ``u``. With a
prior scale ``omega`` and Wald statistic ``z`` it has the closed form

    BF(z, u, omega) = sqrt(u^2 / (omega^2 + u^2))
                      * exp((z^2 / 2) * omega^2 / (omega^2 + u^2))

which this module always evaluates through its logarithm, one vectorized
kernel per formula. Natural-scale values come from
``model.exp_saturated``, which saturates at the largest finite float
instead of overflowing.

Averaging over a grid of prior scales and over the variants of a gene is
arithmetic-mean averaging, done in log space with log-sum-exp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


__all__ = [
    "OmegaGrid",
    "DEFAULT_OMEGA_GRID",
    "log_bf_averaged_many",
    "wald_from_regression",
    "bf_null_quantiles",
    "GeneDesign",
]


@dataclass(frozen=True)
class OmegaGrid:
    """A non-empty grid of positive prior standard deviations."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(float(w) for w in self.omegas))
        if not self.omegas:
            raise ValueError("omega grid must be non-empty")
        for w in self.omegas:
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError("omega values must be positive and finite")


DEFAULT_OMEGA_GRID = OmegaGrid((0.1, 0.2, 0.4, 0.8, 1.6))


def _logsumexp(a, axis=None):
    """``log(sum(exp(a), axis))`` for real input, bit for bit as scipy computes it.

    These are the real-input steps of ``scipy.special.logsumexp`` (scipy
    1.17): the maximal entries are taken out of the shifted sum and counted,
    and a non-finite result falls back to the direct formula. Keeping scipy's
    exact operation order keeps every Bayes factor, and so every output
    file, unchanged while sparing each ``bfdr`` command the scipy import.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


# The chi-squared(1) median, 2 * gammaincinv(0.5, 0.5), bit for bit as
# scipy.stats.chi2.ppf(0.5, df=1) returns it. 0.5 is the default gamma of
# every command, so the default commands need no scipy for it.
_CHI2_1_MEDIAN = np.float64(0.454936423119572)


def _chi2_1_ppf(gamma: float) -> float:
    """The gamma-quantile of the chi-squared distribution with one degree of freedom.

    This is the expression ``scipy.stats.chi2.ppf(gamma, df=1)`` evaluates.
    A scalar gamma of 0.5 returns ``_CHI2_1_MEDIAN``; any other gamma
    imports ``scipy.special`` for ``gammaincinv``. The simple closed forms
    (``ndtri((1 + gamma) / 2) ** 2``, ``2 * erfinv(gamma) ** 2``) differ from
    it in the last bits.
    """
    if np.ndim(gamma) == 0 and gamma == 0.5:
        return _CHI2_1_MEDIAN
    # Deferred: importing scipy.special at module load would cost every
    # command its import time, and only a non-default gamma needs it.
    from scipy.special import gammaincinv

    return 2.0 * gammaincinv(0.5, gamma)


def log_bf_averaged_many(
    z: np.ndarray,
    se: np.ndarray,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
) -> np.ndarray:
    """Vectorized grid-averaged log Bayes factors.

    ``z`` and ``se`` are broadcast against each other; the result has their
    broadcast shape. This is the hot path used by the simulation and
    permutation engines.
    """
    omegas = np.asarray(grid.omegas, dtype=float)
    z = np.asarray(z, dtype=float)
    se = np.asarray(se, dtype=float)
    if np.any(~np.isfinite(z)):
        raise ValueError("z must be finite")
    if np.any(~np.isfinite(se)) or np.any(se <= 0.0):
        raise ValueError("se must be positive and finite")
    u2 = (se * se)[..., None]
    w2 = omegas * omegas
    shrink = w2 / (w2 + u2)
    lb = 0.5 * np.log(u2 / (w2 + u2)) + 0.5 * (z * z)[..., None] * shrink
    return _logsumexp(lb, axis=-1) - math.log(len(omegas))


def wald_from_regression(
    y: Sequence[float] | np.ndarray,
    g: Sequence[float] | np.ndarray,
    sigma: float | None,
) -> tuple[float, float]:
    """Wald statistic and standard error of the slope of ``y`` on ``g``.

    The residual standard deviation is ``sigma`` when given; ``None``
    estimates it from the residual sum of squares with n - 2 degrees of
    freedom.
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    if y.ndim != 1 or g.ndim != 1 or y.shape != g.shape:
        raise ValueError("y and g must be 1-d arrays of equal length")
    n = y.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if not np.all(np.isfinite(y)) or not np.all(np.isfinite(g)):
        raise ValueError("y and g must be finite")
    gc = g - g.mean()
    sxx = float(gc @ gc)
    if sxx <= 0.0:
        raise ValueError("g must not be constant")
    yc = y - y.mean()
    beta = float(gc @ yc) / sxx
    if sigma is None:
        resid = yc - beta * gc
        sigma = math.sqrt(float(resid @ resid) / (n - 2))
        if sigma <= 0.0:
            raise ValueError("residuals are degenerate; cannot estimate sigma")
    else:
        sigma = float(sigma)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
    se = sigma / math.sqrt(sxx)
    return beta / se, se


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
    """
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    zq = math.sqrt(_chi2_1_ppf(g))
    se = np.asarray(se, dtype=float)
    log_q = log_bf_averaged_many(np.full(se.shape, zq), se, grid)
    return np.exp(np.minimum(log_q, 709.0))


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

    def log_gene_bf(self, Y: np.ndarray) -> np.ndarray:
        """Gene-level log Bayes factor for each phenotype column.

        Per variant the Bayes factor is averaged over the prior-scale grid;
        the gene statistic is the arithmetic mean over kept variants. Both
        means are taken with log-sum-exp.
        """
        Z = self.z_batch(Y)
        lb = self._log_prefactor[:, :, None] + self._shrink[:, :, None] * (Z * Z)[:, None, :]
        per_variant = _logsumexp(lb, axis=1) - math.log(self._n_omegas)
        out = _logsumexp(per_variant, axis=0) - math.log(self.n_variants)
        return np.atleast_1d(out)

