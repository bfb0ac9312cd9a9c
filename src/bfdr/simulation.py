"""Synthetic association studies for validating the FDR machinery.

Study I draws independent single-variant tests: each test has a genotype
of binomial allele counts, a phenotype that is null with probability pi0
and otherwise carries a normal effect whose scale is itself uniform, and
known residual noise. Study II draws gene-sized blocks of correlated
variants (a latent AR(1) Gaussian copula mapped through each variant's
binomial quantile function) with one to a few causal variants per
non-null gene, exercising the gene-level Bayes factor and the permutation
machinery under linkage-style dependence.

Every random draw comes from a per-gene substream keyed by the study
seed, so datasets are reproducible bit for bit and can be generated or
analyzed gene by gene in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._normal import ndtr, ndtri
from .bayes_factor import DEFAULT_OMEGA_GRID, OmegaGrid, ScaleError, log_bf_averaged_many, wald_rows
from .model import Batch, EvalReport, GeneData
from .rng import substream, substreams

__all__ = [
    "SimIConfig",
    "SimIIConfig",
    "simulate_I",
    "simulate_II",
    "gene_id",
    "calibrate_ld",
    "score",
]


def _check_range(name: str, rng_pair: tuple[float, float], lo_ok: float, hi_ok: float) -> tuple[float, float]:
    lo, hi = float(rng_pair[0]), float(rng_pair[1])
    if not (lo_ok <= lo <= hi <= hi_ok and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite and satisfy {lo_ok} <= low <= high <= {hi_ok}")
    return lo, hi


# The largest float spacing at mu, relative to sigma, that a phenotype
# y = mu + signal + noise may have, so that the noise keeps about 20 bits
# below sigma once mu is added; |mu| may reach 2**32 to 2**33 times sigma.
# At mu = 1e17 the spacing is 16, so a standard-normal noise vanishes from
# y altogether. A sigma with sigma**2 below n * _TINY is left to the Bayes
# factor's scale check: dosages in {0, 1, 2} give sxx <= n, so a standard
# error sigma / sqrt(sxx) may square below the smallest normal float, and
# that check names the first such test.
_MU_SPACING_PER_SIGMA = 2.0**-20
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SimIConfig:
    """Independent single-variant study settings."""

    m: int = 10000
    n: int = 100
    pi0: float = 0.5
    mu: float = 1.0
    sigma: float = 1.0
    phi_range: tuple[float, float] = (0.5, 1.5)
    maf_range: tuple[float, float] = (0.05, 0.50)
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError("m must be a positive integer")
        if not (isinstance(self.n, int) and self.n >= 3):
            raise ValueError("n must be an integer >= 3")
        if not 0.0 <= float(self.pi0) <= 1.0:
            raise ValueError("pi0 must lie in [0, 1]")
        if not math.isfinite(float(self.mu)):
            raise ValueError("mu must be finite")
        if not (math.isfinite(float(self.sigma)) and float(self.sigma) > 0.0):
            raise ValueError("sigma must be positive and finite")
        sigma = float(self.sigma)
        if sigma * sigma >= self.n * _TINY and math.ulp(float(self.mu)) > sigma * _MU_SPACING_PER_SIGMA:
            raise ValueError(
                f"mu={self.mu!r} swamps the noise: floats near it are {math.ulp(float(self.mu))!r} apart, more than "
                f"sigma={self.sigma!r} times 2**-20"
            )
        object.__setattr__(self, "phi_range", _check_range("phi_range", self.phi_range, 0.0, math.inf))
        object.__setattr__(self, "maf_range", _check_range("maf_range", self.maf_range, 1e-6, 0.5))
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SimIIConfig(SimIConfig):
    """Correlated gene-block study settings: study I's, at n = 85, plus the gene shape."""

    n: int = 85
    k_range: tuple[int, int] = (40, 120)
    n_causal_range: tuple[int, int] = (1, 5)
    ld_decay: float = 0.4

    def __post_init__(self):
        super().__post_init__()
        k_lo, k_hi = int(self.k_range[0]), int(self.k_range[1])
        if not 1 <= k_lo <= k_hi:
            raise ValueError("k_range must satisfy 1 <= low <= high")
        object.__setattr__(self, "k_range", (k_lo, k_hi))
        c_lo, c_hi = int(self.n_causal_range[0]), int(self.n_causal_range[1])
        if not 1 <= c_lo <= c_hi:
            raise ValueError("n_causal_range must satisfy 1 <= low <= high")
        object.__setattr__(self, "n_causal_range", (c_lo, c_hi))
        if not 0.0 <= float(self.ld_decay) <= 1.0:
            raise ValueError("ld_decay must lie in [0, 1]")


# Redraws allowed for a constant study-I genotype. At f >= 0.05 a constant
# draw has probability below 0.74 even at n = 3, so 1,000 redraws in a row
# do not happen; at f = 1e-6 and n = 3 a varying one takes about 170,000
# draws on average.
_MAX_GENOTYPE_REDRAWS = 1000

# Tests per block of study-I decoding and regression arithmetic: at n = 100
# the two draw buffers take about 0.4 MB and a block's float temporaries
# stay under about 1 MB.
_SIM_I_BLOCK = 256


def _exact_test(config: SimIConfig, i: int) -> tuple[bool, np.ndarray, float, np.ndarray]:
    """Test i's alternative flag, genotype, effect and noise, drawn one numpy call at a time.

    This is the study-I test as its substream defines it: three uniforms,
    a ``Binomial(2, f)`` genotype redrawn while it is constant, then the
    effect (zero under the null) and the noise. Raises ``ValueError`` when
    the genotype is still constant after ``_MAX_GENOTYPE_REDRAWS`` redraws.
    """
    n = config.n
    rng = substream(config.seed, "sim-i", i)
    u_alt, u_f, u_phi = rng.random(3).tolist()
    is_alt = u_alt < 1.0 - config.pi0
    f = config.maf_range[0] + (config.maf_range[1] - config.maf_range[0]) * u_f
    phi = config.phi_range[0] + (config.phi_range[1] - config.phi_range[0]) * u_phi
    g = rng.binomial(2, f, n)
    redraws = 0
    while g.min() == g.max():
        if redraws == _MAX_GENOTYPE_REDRAWS:
            raise ValueError(
                f"test {i}: genotype constant after {_MAX_GENOTYPE_REDRAWS} redraws at allele "
                f"frequency f={f:.6g} (n={n}); raise the low end of maf_range or n"
            )
        redraws += 1
        g = rng.binomial(2, f, n)
    beta = phi * rng.standard_normal() if is_alt else 0.0
    return is_alt, g, beta, rng.standard_normal(n)


def _decode_genotypes(u: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Binomial(2, f)`` genotypes decoded from the uniforms ``u`` (one row per test) as numpy draws them.

    Returns the allele counts (as floats) and a mask of the rows that must
    be drawn test by test instead. For p = f <= 0.5 numpy's
    ``random_binomial_inversion`` (its path when n p <= 30, here n = 2)
    takes one uniform U per count and returns the first X at which U,
    less the probabilities of the counts below X, is at most P(X). These
    are its steps, each rounded as it rounds them: q = 1 - p, P(0) =
    exp(2 log q) (through ``math``: ``np.exp`` differs from the C library
    in the last bit on some machines), P(1) = (2 p P(0)) / q and P(2) =
    (p P(1)) / (2 q). A row is masked when it holds a count of 3, a
    uniform above P(0) + P(1) + P(2) at which numpy restarts the draw
    with a fresh uniform; when f is 0 (numpy draws nothing) or above 0.5
    (numpy inverts 1 - f); or when its genotype is constant, which the
    study redraws.
    """
    q = 1.0 - f
    qn = np.array([math.exp(2 * math.log(x)) for x in q.tolist()])
    px1 = (2.0 * f * qn) / q
    px2 = (1.0 * f * px1) / (2.0 * q)
    qn, px1, px2 = qn[:, None], px1[:, None], px2[:, None]
    rest = u - qn
    g = (u > qn).astype(float)
    g += rest > px1
    rest -= px1
    restart = rest > px2
    g += restart
    exact = restart.any(axis=1) | (f > 0.5) | (f == 0.0) | (g == g[:, :1]).all(axis=1)
    return g, exact


def simulate_I(
    config: SimIConfig,
    grid: OmegaGrid = DEFAULT_OMEGA_GRID,
    start: int = 0,
    stop: int | None = None,
) -> tuple[Batch, np.ndarray]:
    """Generate a study-I batch and its truth mask (true for a true alternative).

    The batch holds tests ``start`` to ``stop - 1`` (by default all
    ``config.m``), under their global ids and from their own substreams,
    so the batches of consecutive ranges, concatenated, are the whole
    study's bit for bit, wherever the cuts fall. A test named in an error
    is named by its global index.

    Per test i (its own substream): draw the alternative indicator, the
    allele frequency, and the effect scale from one uniform block; draw
    allele counts Binomial(2, f) per individual, redrawing in the rare
    event the genotype is constant in sample; draw the effect (zero under
    the null) and the noise; then keep the Wald statistic, its standard
    error, and the grid-averaged Bayes factor. Raises ``ValueError`` when a
    test's genotype is still constant after ``_MAX_GENOTYPE_REDRAWS``
    redraws, which only allele frequencies near zero with a small ``n``
    reach, and :class:`~bfdr.bayes_factor.ScaleError` naming the first
    test whose standard error or Wald statistic the Bayes factor cannot
    take (a ``sigma`` near 1e-154 or below).

    Each test makes two draw calls on its substream, re-keyed in one
    generator (:func:`substreams`): ``random`` of n + 3 uniforms, the same
    stream positions as the three uniforms above followed by the n that
    numpy's binomial takes, and ``standard_normal`` of n + 1 normals. An
    alternative takes normal 0 as its effect draw and normals 1 to n as
    its noise; a null takes normals 0 to n - 1, and its last normal is
    never read. Both calls write into row views of two buffers of
    ``_SIM_I_BLOCK`` tests. Each full block, and the last partial one,
    then decodes its genotypes with numpy's own inversion arithmetic
    (:func:`_decode_genotypes`) and goes through
    :func:`~bfdr.bayes_factor.wald_rows` at once.

    A row is recomputed test by test from a fresh substream
    (:func:`_exact_test`) when numpy's binomial would have drawn
    otherwise: a uniform past the three counts' total (numpy restarts the
    draw), f above 0.5 or equal to 0, or a constant genotype, which is
    redrawn. At the default settings no row is. Every test gets the draws
    and the bits of the test-by-test loop.
    """
    stop = config.m if stop is None else stop
    if not 0 <= start < stop <= config.m:
        raise ValueError(f"test range {start}..{stop} must be non-empty and lie within 0..{config.m}")
    m, n = stop - start, config.n
    f_lo, f_hi = config.maf_range
    p_lo, p_hi = config.phi_range
    z_stats = np.empty(m)
    se_stats = np.empty(m)
    alternative = np.empty(m, dtype=bool)
    block = min(m, _SIM_I_BLOCK)
    uniforms = np.empty((block, n + 3))
    normals = np.empty((block, n + 1))
    uniform_rows, normal_rows = list(uniforms), list(normals)
    streams = substreams(config.seed, "sim-i", count=m, start=start)
    for row in range(0, m, block):
        rows = min(block, m - row)
        for u_row, z_row, rng in zip(uniform_rows[:rows], normal_rows[:rows], streams):
            rng.random(out=u_row)
            rng.standard_normal(out=z_row)
        u, z = uniforms[:rows], normals[:rows]
        is_alt = u[:, 0] < 1.0 - config.pi0
        f = f_lo + (f_hi - f_lo) * u[:, 1]
        phi = p_lo + (p_hi - p_lo) * u[:, 2]
        g, exact = _decode_genotypes(u[:, 3:], f)
        beta = np.where(is_alt, phi * z[:, 0], 0.0)
        noise = np.where(is_alt[:, None], z[:, 1:], z[:, :-1])
        for j in np.flatnonzero(exact).tolist():
            is_alt[j], g[j], beta[j], noise[j] = _exact_test(config, start + row + j)
        alternative[row : row + rows] = is_alt
        y = config.mu + beta[:, None] * g + config.sigma * noise
        try:
            z_stats[row : row + rows], se_stats[row : row + rows] = wald_rows(g, y, config.sigma)
        except ScaleError as exc:
            raise ScaleError(start + row + exc.index, exc.reason) from None
    try:
        log_bf = log_bf_averaged_many(z_stats, se_stats, grid)
    except ScaleError as exc:
        raise ScaleError(start + exc.index, exc.reason) from None
    ids = tuple(f"t{i:05d}" for i in range(start, stop))
    return Batch(ids, log_bf=log_bf, z=z_stats, se=se_stats), alternative


# Half-width, on the CDF scale, of the band around each dosage cut point
# inside which a latent is compared through ndtr. The ndtr and ndtri ports
# equal scipy's bit for bit, and cephes' routines are accurate to a few
# ulps, far inside this width, so outside the band the latent-scale
# comparison gives the same dosage as the CDF-scale one.
_CUT_GUARD = 1e-12


def _latent_cuts(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dosage cut points of allele frequencies ``f`` and their guard bands on the latent scale.

    Returns ``(c, lo, hi)``, each stacked over the two cuts c0 = (1-f)^2
    and c1 = 1 - f^2 along a new leading axis: ``lo = ndtri(c - d)`` and
    ``hi = ndtri(min(c + d, 1))`` with d = ``_CUT_GUARD``. They depend on
    ``f`` alone, so a caller that thresholds many latents against the same
    frequencies computes them once.
    """
    c = np.array([(1.0 - f) ** 2, 1.0 - f**2])
    lo, hi = ndtri(np.array([c - _CUT_GUARD, np.minimum(c + _CUT_GUARD, 1.0)]))
    return c, lo, hi


def _dosage_from_cuts(x: np.ndarray, cuts: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Binomial(2, f) allele counts of standard-normal latents ``x`` against the cut points ``cuts`` of :func:`_latent_cuts`.

    A latent whose CDF value ``ndtr(x)`` is at most c0 = (1-f)^2 is
    dosage 0, above c1 = 1 - f^2 dosage 2. ``x`` is certainly above a cut
    c when it exceeds ``hi`` and certainly not above when it is at most
    ``lo``; only latents inside that guard band go through ``ndtr(x) > c``,
    so the codes equal ``(ndtr(x) > c0) + (ndtr(x) > c1)`` bit for bit at
    a fraction of its cost. The band is set on the CDF scale, not the
    latent scale, because at f = 1e-6 the cut c1 sits at Phi(7.03), where
    a fixed latent-scale width is far too narrow.
    """
    c, lo, hi = cuts
    codes = np.zeros(np.broadcast_shapes(np.shape(x), c.shape[1:]), dtype=np.int8)
    for c_k, lo_k, hi_k in zip(c, lo, hi):
        above = x > lo_k
        band = above & (x <= hi_k)
        if band.any():
            xb = np.broadcast_to(x, band.shape)[band]
            above[band] = ndtr(xb) > np.broadcast_to(c_k, band.shape)[band]
        codes += above
    return codes


def _ar1_columns(X: np.ndarray, rho: float) -> np.ndarray:
    """Make standard-normal columns a stationary AR(1) across columns, in place.

    Column 0 is kept; then x_j = rho * x_{j-1} + sqrt(1 - rho^2) * w_j, so
    every column keeps unit variance. Each step is the same product and sum,
    rounded the same way, as the zero-state filter
    ``scipy.signal.lfilter([1], [1, -rho])`` over the scaled innovations.
    Columns run along axis 1; further axes ride along, so one step can
    serve a block of genes.
    """
    X[:, 1:] *= math.sqrt(1.0 - rho * rho)
    for j in range(1, X.shape[1]):
        X[:, j] += rho * X[:, j - 1]
    return X


# Pairs per block in one calibration step: a float temporary of 250 x 400
# latents is 0.8 MB, against 4.8 MB for all 1500 pairs; at full width the
# step's temporaries set the peak RSS of a study-II command.
_CALIBRATION_BLOCK = 250

# Bisection interval width from which the calibration keeps only the
# latents whose dosage can still change. About 8% of the default latents
# are still undecided at this width; at 1/2 and 1/4 about 50% and 16% are,
# and gathering those costs more than evaluating every latent.
_NARROW_WIDTH = 0.125

# How far the calibration's exact-sum mean correlation may lie from
# _mean_dosage_correlation's float one, per pair and per latent of a pair:
# the bound is this times (n_pairs + n_per_pair). With u = 2**-53, n
# latents per pair and N pairs kept:
# * from exact integer sums, a pair's (nC - S1 S2) / sqrt((nQ1 - S1^2)
#   (nQ2 - S2^2)) rounds only in the sqrt and the division, so it is off
#   by at most 2u |r| <= 2u from the pair's true correlation r;
# * the float measure centres each dosage on a mean off by u relative,
#   which moves the centred sums by n (mean error)^2 only, below 4 n u^2;
#   each centred entry rounds once, each product once, and the n-term
#   sums by at most (n - 1) u relative. Since sum |d1c d2c| <= s1 s2,
#   the cross sum is off by (n + 3) u s1 s2, and s1, s2 by (n + 3) u / 2
#   relative each, so with the division a pair's value is off by at most
#   (2n + 8) u from r;
# * both means sum N values in [-1, 1] in the same order, each off by at
#   most (N + 1) u, and divide by N once.
# Together |fast - float| <= (2n + 2N + 12) u, about 3,800 u = 4.2e-13 at
# the default 400 x 1500. Over about 1,000 comparisons, 20 default
# calibrations and 6 at other targets, sizes or frequencies, the largest gap
# measured 7e-4 of that. The bound takes 2**9 u = 2**-44 per pair and per
# latent, 1.1e-10 at the defaults: a comparison with the target falls back
# to the float measure only inside 250 times the derived error.
_MEAN_CORRELATION_ERROR_PER_TERM = 2.0**-44


def _undecided(x1: np.ndarray, w: np.ndarray, cuts, rho_lo: float, rho_hi: float) -> np.ndarray:
    """Which latents ``rho * x1 + sqrt(1 - rho * rho) * w`` may change dosage for rho in [rho_lo, rho_hi].

    For 0 <= rho_lo <= rho <= rho_hi each rounded step is monotone in rho:
    ``rho * x1`` lies between its values at the two ends, the scale
    ``sqrt(1 - rho * rho)`` between its own, and so ``scale * w`` between
    its values at the two scales. Round-to-nearest addition is monotone in
    each operand, so the latent as computed lies between the same
    expression with each operand at its smaller end and with each at its
    larger end. A latent whose range lies at or below a cut's lower band
    edge (``cuts`` are :func:`_latent_cuts`'s) has that dosage bit 0
    throughout, one whose range lies above the upper edge has it 1; a
    latent is undecided while either bit is not fixed.

    Each operand's larger end is the larger of its values at the two
    ends, and its smaller end the smaller, so no sign test is needed:
    ``np.where`` on a random sign pattern costs several times a product.
    The two ends are built one after the other in three reused float
    buffers.
    """
    _, lo, hi = cuts
    s_lo, s_hi = math.sqrt(1.0 - rho_lo * rho_lo), math.sqrt(1.0 - rho_hi * rho_hi)
    x, t, w_hi = rho_hi * x1, rho_lo * x1, s_hi * w
    np.maximum(x, t, out=x)
    x += np.maximum(np.multiply(s_lo, w, out=t), w_hi, out=t)
    reaches = [x > lo_k for lo_k in lo]
    np.minimum(np.multiply(rho_hi, x1, out=x), np.multiply(rho_lo, x1, out=t), out=x)
    x += np.minimum(np.multiply(s_lo, w, out=t), w_hi, out=t)
    return (reaches[0] & (x <= hi[0])) | (reaches[1] & (x <= hi[1]))


def _mean_dosage_correlation(codes1: np.ndarray, codes2: np.ndarray) -> float:
    """Mean over rows of the Pearson correlation of two dosage matrices, in floats.

    Each row is centred on its own mean; a row pair where either row is
    constant is left out. This is the calibration's measure of record. It
    runs in blocks of ``_CALIBRATION_BLOCK`` rows, so its temporaries stay
    small, and every row-wise sum is taken over a C-contiguous row, as over
    the full array.
    """

    def centred(codes: np.ndarray) -> np.ndarray:
        d = codes.astype(float)
        return d - d.mean(axis=1, keepdims=True)

    n_pairs = codes1.shape[0]
    s1, s2, cross = np.empty(n_pairs), np.empty(n_pairs), np.empty(n_pairs)
    for i in range(0, n_pairs, _CALIBRATION_BLOCK):
        rows = slice(i, i + _CALIBRATION_BLOCK)
        d1c, d2c = centred(codes1[rows]), centred(codes2[rows])
        s1[rows] = np.sqrt((d1c * d1c).sum(axis=1))
        s2[rows] = np.sqrt((d2c * d2c).sum(axis=1))
        cross[rows] = (d1c * d2c).sum(axis=1)
    ok = (s1 > 0.0) & (s2 > 0.0)
    return float((cross[ok] / (s1[ok] * s2[ok])).mean())


def _dosage_sums(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of dosage codes and of their squares, exact (int16 holds 4 n for n < 8192)."""
    return d.sum(axis=1, dtype=np.int16), (d * d).sum(axis=1, dtype=np.int16)


def _latent_rho_for_target(
    target: float,
    maf_range: tuple[float, float],
    rng: np.random.Generator,
    n_pairs: int = 1500,
    n_per_pair: int = 400,
) -> float:
    """Latent AR(1) coefficient whose dosage-scale correlation hits ``target``.

    Thresholding attenuates correlation, so the latent coefficient must
    exceed the desired dosage-scale value. The calibrated quantity mirrors
    how correlation is checked on generated data: draw many variant pairs
    with their own allele frequencies, compute the Pearson correlation of
    the two dosage columns within each pair, and average over pairs
    (:func:`_mean_dosage_correlation`). The attenuation curve is estimated
    once by Monte Carlo with common random numbers (monotone in the latent
    coefficient) and inverted by bisection. Raises if the target exceeds
    what thresholding can deliver for this allele-frequency range (about
    0.6 for frequencies spread over [0.05, 0.5]), or if at some step no
    pair has two varying dosage columns, where the mean is undefined.

    Each bisection step thresholds the second variant's latents through
    :func:`_dosage_from_cuts`, which compares them with latent-scale cut
    points and calls ``ndtr`` only inside its guard band. The cut points
    depend only on the allele frequencies, so they are computed once,
    before the bisection. Until the interval is ``_NARROW_WIDTH`` wide a
    step thresholds every latent, in blocks of ``_CALIBRATION_BLOCK``
    pairs so that its temporaries stay small.

    Every later step evaluates the latents at a coefficient inside the
    current bisection interval. A latent whose whole range over that
    interval (:func:`_undecided`) lies at or below a cut's lower band
    edge, or above its upper one, has that cut's dosage bit fixed for the
    rest of the bisection; once both bits are fixed the latent leaves the
    active set for good, and its last code stands. From the first interval
    at most ``_NARROW_WIDTH`` wide, each step thresholds only the active
    latents, gathered into one flat set: about 8% of them at that width,
    and half as many at each later step. The full latent arrays are then
    no longer needed and are dropped.

    Each pair's dosage sums S1, S2, sums of squares Q1, Q2 and cross sum
    C are kept as exact integers; a narrowed step adds in only the codes
    that flipped. The pair's correlation (nC - S1 S2) / sqrt((nQ1 - S1^2)
    (nQ2 - S2^2)) has every factor exact below 2^53 (each is at most n^2
    in size, and ``n_per_pair`` is below 8192), so the mean differs from the float measure by rounding only,
    within the bound ``_MEAN_CORRELATION_ERROR_PER_TERM`` derives. Where it
    lies that close to the target, the float measure is computed from the
    kept codes and compared instead, so every comparison, the error text
    and the result are bit-identical to thresholding and re-summing every
    pair in floats at every step.
    """
    if target <= 0.0:
        return 0.0
    n = n_per_pair
    x1 = rng.standard_normal((n_pairs, n))
    w = rng.standard_normal((n_pairs, n))
    f1 = rng.uniform(maf_range[0], maf_range[1], (n_pairs, 1))
    f2 = rng.uniform(maf_range[0], maf_range[1], (n_pairs, 1))
    blocks = [slice(i, i + _CALIBRATION_BLOCK) for i in range(0, n_pairs, _CALIBRATION_BLOCK)]
    cuts2 = _latent_cuts(f2)
    codes1 = np.empty((n_pairs, n), dtype=np.int8)
    codes2 = np.empty((n_pairs, n), dtype=np.int8)
    s1, q1, s2, q2, c12 = (np.empty(n_pairs, dtype=np.int64) for _ in range(5))
    for rows in blocks:
        codes1[rows] = _dosage_from_cuts(x1[rows], _latent_cuts(f1[rows]))
        s1[rows], q1[rows] = _dosage_sums(codes1[rows])
    v1 = n * q1 - s1 * s1
    tolerance = _MEAN_CORRELATION_ERROR_PER_TERM * (n_pairs + n)

    def threshold_all(rho: float) -> None:
        for rows in blocks:
            # The same two products and one sum as rho * x1 + s * w, with one
            # block temporary fewer at the calibration's peak memory.
            latent = rho * x1[rows]
            latent += math.sqrt(1.0 - rho * rho) * w[rows]
            d2 = codes2[rows] = _dosage_from_cuts(latent, tuple(c[:, rows] for c in cuts2))
            s2[rows], q2[rows] = _dosage_sums(d2)
            c12[rows] = (codes1[rows] * d2).sum(axis=1, dtype=np.int16)

    def below(rho: float) -> bool:
        """Whether the float measure of the current codes is below the target."""
        v2 = n * q2 - s2 * s2
        ok = (v1 > 0) & (v2 > 0)
        if not ok.any():
            raise ValueError(
                f"ld_decay={target} cannot be calibrated: none of the calibration's {n_pairs} variant "
                f"pairs has two varying dosage columns at latent coefficient {rho} for allele "
                f"frequencies in {maf_range}"
            )
        fast = float(((n * c12 - s1 * s2)[ok] / np.sqrt((v1 * v2)[ok])).mean())
        if abs(fast - target) > tolerance:
            return fast < target
        return _mean_dosage_correlation(codes1, codes2) < target

    hi = 0.99999
    threshold_all(hi)
    if below(hi):
        raise ValueError(
            f"ld_decay={target} is not achievable: dosage-scale adjacent correlation tops out near "
            f"{_mean_dosage_correlation(codes1, codes2):.3f} for allele frequencies in {maf_range}"
        )
    flat1, flat2 = codes1.reshape(-1), codes2.reshape(-1)
    # Once narrowed: the flat indices of the latents whose dosage can still
    # change, and their x1, w and cut points c, lo and hi (two rows each)
    # packed as the rows of one array, compressed together at every step.
    active = None
    lo = 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if hi - lo > _NARROW_WIDTH:
            threshold_all(mid)
        else:
            if active is None:
                keeps = (_undecided(x1[rows], w[rows], tuple(c[:, rows] for c in cuts2), lo, hi) for rows in blocks)
                active = np.concatenate([rows.start * n + np.flatnonzero(keep) for rows, keep in zip(blocks, keeps)])
                x1a, wa = x1.reshape(-1)[active], w.reshape(-1)[active]
                del x1, w  # the interval only narrows, so threshold_all is not called again
                cut_rows = np.concatenate([c[..., 0] for c in cuts2])
                packed = np.vstack([x1a, wa, cut_rows.take(active // n, axis=1)])
            else:
                keep = _undecided(x1a, wa, cuts, lo, hi)
                active, packed = np.compress(keep, active), np.compress(keep, packed, axis=1)
            x1a, wa, cuts = packed[0], packed[1], (packed[2:4], packed[4:6], packed[6:8])
            new = _dosage_from_cuts(mid * x1a + math.sqrt(1.0 - mid * mid) * wa, cuts)
            old = flat2[active]
            flip = np.flatnonzero(new != old)
            if flip.size:
                at, d_new, d_old = active[flip], new[flip].astype(np.int64), old[flip].astype(np.int64)
                pair = at // n
                np.add.at(s2, pair, d_new - d_old)
                np.add.at(q2, pair, d_new * d_new - d_old * d_old)
                np.add.at(c12, pair, flat1[at] * (d_new - d_old))
                flat2[at] = d_new
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Genes per block of study-II generation: their cut points come from one
# _latent_cuts call and their latents go through one AR(1) pass. One
# _latent_cuts call per gene costs about 0.19 ms of numpy overhead, against
# about 0.09 ms per gene in a call over 64 genes; the block's padded latent
# buffer is at most 64 x 120 x 85 floats (5.2 MB) at the default shape.
_SIM_II_BLOCK = 64


def gene_id(i: int) -> str:
    """The id of study-II gene ``i``."""
    return f"gene{i:05d}"


def calibrate_ld(config: SimIIConfig) -> float:
    """The latent AR(1) coefficient of a study-II dataset, calibrated on the dataset's own substream."""
    return _latent_rho_for_target(config.ld_decay, config.maf_range, substream(config.seed, "sim-ii-ld"))


def _ar1_latents(rngs: list[np.random.Generator], n: int, ks: list[int], rho: float) -> np.ndarray:
    """Each generator's (n, k) standard-normal latents, made AR(1) across their columns in one pass.

    Returns a zero-padded (max k, genes, n) buffer whose ``[:k, g].T`` is
    gene g's latent matrix. Each column step of :func:`_ar1_columns` runs
    once over the whole block, on one contiguous (genes, n) slab, and
    gives every element the product and sum it gets gene by gene, so the
    bits are those of the per-gene loop; the padding is never read. With
    n innermost, a gene's (k, n) latents are k contiguous rows, which its
    thresholding reads about 3.5 times faster than the n-strided columns
    of a (max k, n, genes) layout.
    """
    X = np.zeros((max(ks), len(ks), n))
    for g, (rng, k) in enumerate(zip(rngs, ks)):
        X[:k, g] = rng.standard_normal((n, k)).T
    _ar1_columns(X.transpose(1, 0, 2), rho)
    return X


def simulate_II(
    config: SimIIConfig,
    indices: Sequence[int] | None = None,
    rho: float | None = None,
) -> tuple[list[GeneData], np.ndarray]:
    """Generate study-II gene blocks with correlated variants, and their truth mask.

    Per gene (its own substream): draw the variant count, per-variant
    allele frequencies, and a latent AR(1) Gaussian matrix whose adjacent
    columns correlate at the calibrated latent coefficient; threshold the
    latents to allele counts. Non-null genes get one to a few causal
    variants with effects drawn like study I's.

    ``indices`` are the genes to generate, all ``config.m`` by default;
    the mask is aligned with them. ``rho`` is the latent coefficient of
    :func:`calibrate_ld`, which is run here when it is not given. Each
    gene's draws come from its own substream, so a gene is the same
    whichever genes are generated with it.

    Genes are generated in blocks of ``_SIM_II_BLOCK``: each gene's
    generator draws its variant count and frequencies and is kept, the
    block's cut points are computed in one :func:`_latent_cuts` call, its
    latents made AR(1) in one pass (:func:`_ar1_latents`), and then each
    generator goes on with its gene's phenotype. Every gene gets the draws
    and the bits it would get on its own.
    """
    n = config.n
    f_lo, f_hi = config.maf_range
    p_lo, p_hi = config.phi_range
    k_lo, k_hi = config.k_range
    c_lo, c_hi = config.n_causal_range
    if rho is None:
        rho = calibrate_ld(config)
    if indices is None:
        indices = range(config.m)
    genes: list[GeneData] = []
    alternative = np.empty(len(indices), dtype=bool)
    for start in range(0, len(indices), _SIM_II_BLOCK):
        block = indices[start : start + _SIM_II_BLOCK]
        rngs = [substream(config.seed, "sim-ii", i) for i in block]
        freqs = [rng.uniform(f_lo, f_hi, int(rng.integers(k_lo, k_hi + 1))) for rng in rngs]
        cuts = _latent_cuts(np.concatenate(freqs))
        latents = _ar1_latents(rngs, n, [f.size for f in freqs], rho)
        stop = 0
        for g, (i, rng, f) in enumerate(zip(block, rngs, freqs)):
            k = f.size
            cols = slice(stop, stop + k)
            stop += k
            G = _dosage_from_cuts(latents[:k, g].T, tuple(cut[:, cols] for cut in cuts))
            is_alt = rng.random() < 1.0 - config.pi0
            signal = 0.0
            if is_alt:
                n_causal = int(rng.integers(c_lo, min(c_hi, k) + 1))
                causal = rng.choice(k, size=n_causal, replace=False)
                phi = rng.uniform(p_lo, p_hi, n_causal)
                beta = phi * rng.standard_normal(n_causal)
                signal = G[:, causal].astype(float) @ beta
            e = config.sigma * rng.standard_normal(n)
            y = config.mu + signal + e
            alternative[start + g] = is_alt
            genes.append(GeneData(id=gene_id(i), y=y, G=G))
    return genes, alternative


def score(rejected, alternative) -> EvalReport:
    """Realized false discovery and false non-discovery proportions.

    ``rejected`` is a boolean mask, or anything with such a ``rejected``
    mask (a decision report), and ``alternative`` the aligned truth mask,
    true (or 1) for a true alternative and false (or 0) for a true null.
    Both error proportions use the max(1, denominator) convention so they
    are defined for empty rejection or retention sets.
    """
    rej = np.asarray(getattr(rejected, "rejected", rejected), dtype=bool)
    alt = np.asarray(alternative)
    if rej.shape != alt.shape:
        raise ValueError(f"rejection mask of shape {rej.shape} does not align with truth of shape {alt.shape}")
    if not np.isin(alt, (0, 1)).all():
        raise ValueError("truth entries must be 0 or 1")
    alt = alt.astype(bool)
    n_rej = int(np.count_nonzero(rej))
    n_alt = int(np.count_nonzero(alt))
    false_disc = int(np.count_nonzero(rej & ~alt))
    missed = int(np.count_nonzero(alt & ~rej))
    return EvalReport(
        fdp=false_disc / max(1, n_rej),
        fnp=missed / max(1, len(alt) - n_rej),
        n_rejected=n_rej,
        n_true_alt=n_alt,
    )
