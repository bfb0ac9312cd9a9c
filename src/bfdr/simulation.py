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
    "score",
]


def _check_range(name: str, rng_pair: tuple[float, float], lo_ok: float, hi_ok: float) -> tuple[float, float]:
    lo, hi = float(rng_pair[0]), float(rng_pair[1])
    if not (lo_ok <= lo <= hi <= hi_ok and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite and satisfy {lo_ok} <= low <= high <= {hi_ok}")
    return lo, hi


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
) -> tuple[Batch, np.ndarray]:
    """Generate a study-I batch and its truth mask (true for a true alternative).

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
    m, n = config.m, config.n
    f_lo, f_hi = config.maf_range
    p_lo, p_hi = config.phi_range
    z_stats = np.empty(m)
    se_stats = np.empty(m)
    alternative = np.empty(m, dtype=bool)
    block = min(m, _SIM_I_BLOCK)
    uniforms = np.empty((block, n + 3))
    normals = np.empty((block, n + 1))
    uniform_rows, normal_rows = list(uniforms), list(normals)
    streams = substreams(config.seed, "sim-i", count=m)
    for start in range(0, m, block):
        rows = min(block, m - start)
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
            is_alt[j], g[j], beta[j], noise[j] = _exact_test(config, start + j)
        alternative[start : start + rows] = is_alt
        y = config.mu + beta[:, None] * g + config.sigma * noise
        try:
            z_stats[start : start + rows], se_stats[start : start + rows] = wald_rows(g, y, config.sigma)
        except ScaleError as exc:
            raise ScaleError(start + exc.index, exc.reason) from None
    ids = tuple(f"t{i:05d}" for i in range(m))
    batch = Batch(ids, log_bf=log_bf_averaged_many(z_stats, se_stats, grid), z=z_stats, se=se_stats)
    return batch, alternative


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
    latent is undecided while either bit is not fixed. The two ends are
    built one after the other, so a block needs two float temporaries.
    """
    _, lo, hi = cuts
    s_lo, s_hi = math.sqrt(1.0 - rho_lo * rho_lo), math.sqrt(1.0 - rho_hi * rho_hi)
    x1_up, w_up = x1 >= 0.0, w >= 0.0
    x_max = np.where(x1_up, rho_hi, rho_lo) * x1 + np.where(w_up, s_lo, s_hi) * w
    reaches = [x_max > lo_k for lo_k in lo]
    del x_max
    x_min = np.where(x1_up, rho_lo, rho_hi) * x1 + np.where(w_up, s_hi, s_lo) * w
    return (reaches[0] & (x_min <= hi[0])) | (reaches[1] & (x_min <= hi[1]))


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
    the two dosage columns within each pair, and average over pairs. The
    attenuation curve is estimated once by Monte Carlo with common random
    numbers (monotone in the latent coefficient) and inverted by
    bisection. Raises if the target exceeds what thresholding can deliver
    for this allele-frequency range (about 0.6 for frequencies spread over
    [0.05, 0.5]).

    Each bisection step thresholds the second variant's latents through
    :func:`_dosage_from_cuts`, which compares them with latent-scale cut
    points and calls ``ndtr`` only inside its guard band. The cut points
    depend only on the allele frequencies, so each block's are computed
    once, before the bisection. The step runs in blocks of
    ``_CALIBRATION_BLOCK`` pairs, so its temporaries stay small and every
    row-wise sum is taken over a C-contiguous row, as over the full
    array.

    Every later step evaluates the latents at a coefficient inside the
    current bisection interval. A latent whose whole range over that
    interval (:func:`_undecided`) lies at or below a cut's lower band
    edge, or above its upper one, has that cut's dosage bit fixed for the
    rest of the bisection; once both bits are fixed the latent leaves its
    block's active set for good, and its last code stands. From the first
    interval at most ``_NARROW_WIDTH`` wide, each step thresholds only
    the active latents: about 8% of them at that width, and half as many
    at each later step. The second variant's dosage codes are kept and
    updated in place, and a pair's centred sums are recomputed only when
    its codes changed. The result is bit-identical to recomputing every
    pair at every step.
    """
    if target <= 0.0:
        return 0.0
    x1 = rng.standard_normal((n_pairs, n_per_pair))
    w = rng.standard_normal((n_pairs, n_per_pair))
    f1 = rng.uniform(maf_range[0], maf_range[1], (n_pairs, 1))
    f2 = rng.uniform(maf_range[0], maf_range[1], (n_pairs, 1))
    blocks = [slice(i, i + _CALIBRATION_BLOCK) for i in range(0, n_pairs, _CALIBRATION_BLOCK)]

    def centred(codes: np.ndarray) -> np.ndarray:
        d = codes.astype(float)
        return d - d.mean(axis=1, keepdims=True)

    codes1 = np.empty((n_pairs, n_per_pair), dtype=np.int8)
    s1 = np.empty(n_pairs)
    for rows in blocks:
        codes1[rows] = _dosage_from_cuts(x1[rows], _latent_cuts(f1[rows]))
        d1c = centred(codes1[rows])
        s1[rows] = np.sqrt((d1c * d1c).sum(axis=1))
    # -1 is no dosage, so the first step computes every pair.
    codes2 = np.full((n_pairs, n_per_pair), -1, dtype=np.int8)
    s2 = np.empty(n_pairs)
    cross = np.empty(n_pairs)
    cuts2 = [_latent_cuts(f2[rows]) for rows in blocks]
    # Each block's active latents as flat indices into the block; None
    # while every latent is evaluated.
    active: list[np.ndarray | None] = [None] * len(blocks)

    def latents(b: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """x1, w and the cut points of block b's active latents: 2-d and per pair while all are."""
        rows, idx = blocks[b], active[b]
        if idx is None:
            return x1[rows], w[rows], cuts2[b]
        pair = idx // n_per_pair
        cuts = tuple(np.take(c[..., 0], pair, axis=1) for c in cuts2[b])
        return np.take(x1[rows].reshape(-1), idx), np.take(w[rows].reshape(-1), idx), cuts

    def step(b: int, rho: float, interval: tuple[float, float] | None) -> None:
        """Threshold block b's active latents at rho and re-sum the pairs whose codes changed."""
        rows = blocks[b]
        x1a, wa, cuts = latents(b)
        if interval is not None and interval[1] - interval[0] <= _NARROW_WIDTH:
            keep = _undecided(x1a, wa, cuts, *interval)
            active[b] = np.flatnonzero(keep) if active[b] is None else active[b][keep]
            x1a, wa, cuts = latents(b)
        new = _dosage_from_cuts(rho * x1a + math.sqrt(1.0 - rho * rho) * wa, cuts)
        idx = active[b]
        if idx is None:
            hit = np.flatnonzero((new != codes2[rows]).any(axis=1))
            changed = rows.start + hit
            codes2[changed] = new[hit]
        else:
            codes = codes2[rows].reshape(-1)
            flip = np.flatnonzero(new != codes[idx])
            codes[idx[flip]] = new[flip]
            hit = np.zeros(codes.size // n_per_pair, dtype=bool)
            hit[idx[flip] // n_per_pair] = True
            changed = rows.start + np.flatnonzero(hit)
        if changed.size:
            d2c = centred(codes2[changed])
            s2[changed] = np.sqrt((d2c * d2c).sum(axis=1))
            cross[changed] = (centred(codes1[changed]) * d2c).sum(axis=1)

    def measured(rho: float, interval: tuple[float, float] | None = None) -> float:
        for b in range(len(blocks)):
            step(b, rho, interval)
        ok = (s1 > 0.0) & (s2 > 0.0)
        corr = cross[ok] / (s1[ok] * s2[ok])
        return float(corr.mean())

    hi = 0.99999
    top = measured(hi)
    if top < target:
        raise ValueError(
            f"ld_decay={target} is not achievable: dosage-scale adjacent correlation "
            f"tops out near {top:.3f} for allele frequencies in {maf_range}"
        )
    lo = 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if measured(mid, (lo, hi)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Genes per block of study-II generation: their cut points come from one
# _latent_cuts call. One call per gene costs about 0.19 ms of numpy
# overhead, against about 0.085 ms per gene in a call over 2,000 genes.
_SIM_II_BLOCK = 256


def simulate_II(config: SimIIConfig) -> tuple[list[GeneData], np.ndarray]:
    """Generate study-II gene blocks with correlated variants, and their truth mask.

    Per gene (its own substream): draw the variant count, per-variant
    allele frequencies, and a latent AR(1) Gaussian matrix whose adjacent
    columns correlate at the calibrated latent coefficient; threshold the
    latents to allele counts. Non-null genes get one to a few causal
    variants with effects drawn like study I's.

    Genes are generated in blocks of ``_SIM_II_BLOCK``: each gene's
    generator draws its variant count and frequencies and is kept, the
    block's cut points are computed in one :func:`_latent_cuts` call, and
    then each generator goes on with its gene's latents and phenotype.
    Every gene gets the draws and the bits it would get on its own.
    """
    m, n = config.m, config.n
    f_lo, f_hi = config.maf_range
    p_lo, p_hi = config.phi_range
    k_lo, k_hi = config.k_range
    c_lo, c_hi = config.n_causal_range
    cal_rng = substream(config.seed, "sim-ii-ld")
    rho = _latent_rho_for_target(config.ld_decay, config.maf_range, cal_rng)
    genes: list[GeneData] = []
    alternative = np.empty(m, dtype=bool)
    for start in range(0, m, _SIM_II_BLOCK):
        block = range(start, min(m, start + _SIM_II_BLOCK))
        rngs = [substream(config.seed, "sim-ii", i) for i in block]
        freqs = []
        for rng in rngs:
            k = int(rng.integers(k_lo, k_hi + 1))
            freqs.append(rng.uniform(f_lo, f_hi, k))
        cuts = _latent_cuts(np.concatenate(freqs))
        stop = 0
        for i, rng, f in zip(block, rngs, freqs):
            k = f.size
            cols = slice(stop, stop + k)
            stop += k
            X = _ar1_columns(rng.standard_normal((n, k)), rho)
            G = _dosage_from_cuts(X, tuple(cut[:, cols] for cut in cuts))
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
            alternative[i] = is_alt
            genes.append(GeneData(id=f"gene{i:05d}", y=y, G=G))
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
