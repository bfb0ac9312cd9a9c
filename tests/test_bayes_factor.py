"""Bayes factor kernels, grid averaging, and regression front ends.

High-precision reference values in this module were computed independently
with mpmath at 40 decimal digits and frozen here.
"""
from __future__ import annotations

import math
import re
import sys

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats
from scipy.special import logsumexp

from bfdr.bayes_factor import (
    DEFAULT_OMEGA_GRID,
    GeneDesign,
    OmegaGrid,
    ScaleError,
    _logsumexp,
    bf_null_quantiles,
    check_scales,
    checked_gene_design,
    log_bf_averaged_many,
    wald_rows,
)
from bfdr.model import exp_saturated
from bfdr.pi0_estimation import qbf_pi0
from bfdr.simulation import SimIConfig, simulate_I

# mpmath mp.dps=40: bf for z=5, se=0.1, omega=1.
BF_Z5_SE01_W1 = 23592.34007751287
# mpmath mp.dps=40: mean of bf over the default grid at z=2, se=0.5.
BF_AVG_Z2_SE05 = 1.6128690220698968


def _closed_form_log_bf(z: float, se: float, omega: float) -> float:
    """log BF(z, se, omega) = 0.5 log(u^2 / (w^2 + u^2)) + (z^2 / 2) w^2 / (w^2 + u^2)."""
    u2, w2 = se * se, omega * omega
    return 0.5 * math.log(u2 / (w2 + u2)) + 0.5 * z * z * w2 / (w2 + u2)


def _one_scale_log_bf(z: float, se: float, omega: float) -> float:
    return float(log_bf_averaged_many(z, se, OmegaGrid((omega,))))


def _averaged_bf(z: float, se: float, grid=DEFAULT_OMEGA_GRID) -> float:
    return float(exp_saturated(log_bf_averaged_many(z, se, grid))[0])


def wald_from_regression(y, g, sigma: float | None) -> tuple[float, float]:
    """Wald statistic and standard error of the slope of ``y`` on ``g``, one test at a time.

    The one-test regression that ``wald_rows`` repeats over rows bit for
    bit: ``sigma=None`` estimates the residual standard deviation from the
    residual sum of squares with n - 2 degrees of freedom.
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


class TestOmegaGrid:
    def test_default_grid(self):
        assert DEFAULT_OMEGA_GRID.omegas == (0.1, 0.2, 0.4, 0.8, 1.6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            OmegaGrid(())

    @pytest.mark.parametrize("bad", [(0.0,), (-1.0,), (math.inf,), (math.nan,)])
    def test_rejects_nonpositive_scales(self, bad):
        with pytest.raises(ValueError):
            OmegaGrid(bad)

    @pytest.mark.filterwarnings("error")
    def test_the_largest_scale_squares_to_a_finite_float(self):
        """The largest accepted omega gives finite Bayes factors; the next float up is rejected by name."""
        largest = math.sqrt(sys.float_info.max)
        assert math.isfinite(largest * largest)
        assert np.isfinite(log_bf_averaged_many(np.array([0.0, 3.0]), np.array([0.2, 2.0]), OmegaGrid((largest,)))).all()
        above = math.nextafter(largest, math.inf)
        with pytest.raises(ValueError, match="^" + re.escape(f"omega value {above!r} is too large: its square overflows")):
            OmegaGrid((0.5, above))


class TestScaleRatio:
    """se**2 / (omega**2 + se**2) that underflows to 0 would send log BF to -inf: a ScaleError, no warning."""

    _GRID = OmegaGrid((0.5, 1e154))

    @pytest.mark.filterwarnings("error")
    def test_the_first_such_test_is_named(self):
        with pytest.raises(ScaleError) as got:
            log_bf_averaged_many(np.array([1.0, 1.0, 1.0]), np.array([1.0, 1e-150, 1e-160]), self._GRID)
        assert str(got.value) == (
            "test 1: standard error 1e-150 is too small against omega 1e+154: se**2 / (omega**2 + se**2) underflows to 0"
        )

    @pytest.mark.filterwarnings("error")
    def test_a_ratio_just_above_zero_keeps_its_bits(self):
        """At se 1e-6 the ratio is subnormal but positive: accepted, with the kernel's arithmetic."""
        z, se = np.array([1.0, 2.0]), np.array([1e-6, 3e-7])
        omegas = np.array(self._GRID.omegas)
        u2, w2 = (se * se)[:, None], omegas * omegas
        lb = 0.5 * np.log(u2 / (w2 + u2)) + 0.5 * (z * z)[:, None] * (w2 / (w2 + u2))
        want = _logsumexp(lb, axis=-1) - math.log(2)
        assert np.isfinite(want).all()
        assert log_bf_averaged_many(z, se, self._GRID).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_a_gene_design_names_its_variant(self):
        G = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 0.0]])
        y = np.array([0.3, -0.2, 1.1, 0.4, -0.5])
        assert math.isfinite(checked_gene_design(G, y, 1e-150, OmegaGrid((0.5,)))[1])
        with pytest.raises(ScaleError, match=r"^test 0: standard error .* is too small against omega 1e\+154: "):
            checked_gene_design(G, y, 1e-150, self._GRID)


class TestSingleScaleBf:
    """The kernel on a one-point grid is the single-scale Bayes factor."""

    def test_null_z_unit_scale(self):
        # z=0, se=1, omega=1: pure shrinkage factor sqrt(1/2).
        assert math.exp(_one_scale_log_bf(0.0, 1.0, 1.0)) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_moderate_z(self):
        # z=2, se=1, omega=1: sqrt(1/2) * exp(1).
        bf = math.exp(_one_scale_log_bf(2.0, 1.0, 1.0))
        assert bf == pytest.approx(math.sqrt(0.5) * math.exp(1.0), rel=1e-14)
        assert bf == pytest.approx(1.9221155140795583, rel=1e-14)

    def test_high_precision_reference(self):
        assert math.exp(_one_scale_log_bf(5.0, 0.1, 1.0)) == pytest.approx(BF_Z5_SE01_W1, rel=1e-12)

    def test_symmetric_in_z(self):
        assert _one_scale_log_bf(3.2, 0.7, 0.4) == _one_scale_log_bf(-3.2, 0.7, 0.4)

    def test_log_twin_agrees(self):
        for z, se, w in [(0.3, 1.0, 0.2), (4.0, 0.5, 1.6), (-2.0, 0.1, 0.8)]:
            assert _one_scale_log_bf(z, se, w) == pytest.approx(_closed_form_log_bf(z, se, w), rel=1e-14)

    def test_increasing_in_abs_z(self):
        zs = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
        vals = log_bf_averaged_many(zs, np.full(zs.size, 0.3), OmegaGrid((0.8,)))
        assert np.all(np.diff(vals) > 0.0)

    def test_below_one_at_z_zero(self):
        for w in (0.01, 0.5, 2.0, 50.0):
            assert _one_scale_log_bf(0.0, 1.0, w) < 0.0

    @pytest.mark.parametrize("bad_se", [0.0, -1.0, math.nan])
    def test_se_validation(self, bad_se):
        with pytest.raises(ValueError):
            log_bf_averaged_many(1.0, bad_se, OmegaGrid((1.0,)))


class TestAveragedBf:
    def test_matches_mean_over_grid(self):
        z, se = 1.7, 0.4
        expected = np.mean([math.exp(_closed_form_log_bf(z, se, w)) for w in DEFAULT_OMEGA_GRID.omegas])
        assert _averaged_bf(z, se) == pytest.approx(expected, rel=1e-13)

    def test_high_precision_reference(self):
        assert _averaged_bf(2.0, 0.5) == pytest.approx(BF_AVG_Z2_SE05, rel=1e-12)

    def test_single_point_grid_reduces_to_kernel(self):
        grid = OmegaGrid((0.7,))
        assert _averaged_bf(1.2, 0.9, grid) == pytest.approx(math.exp(_closed_form_log_bf(1.2, 0.9, 0.7)), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=40)
        se = rng.uniform(0.05, 2.0, size=40)
        batch = log_bf_averaged_many(z, se)
        omegas = DEFAULT_OMEGA_GRID.omegas
        scalars = [
            math.log(math.fsum(math.exp(_closed_form_log_bf(zi, si, w)) for w in omegas) / len(omegas))
            for zi, si in zip(z, se)
        ]
        np.testing.assert_allclose(batch, scalars, rtol=1e-13)

    def test_extreme_z_saturates_finite(self):
        lb = log_bf_averaged_many(60.0, 0.1)
        assert lb > 709.0
        nat = exp_saturated(lb)[0]
        assert nat == sys.float_info.max
        assert math.isfinite(nat)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            log_bf_averaged_many(np.zeros(3), np.ones(4))


class TestNullExpectation:
    """E_H0[BF] = 1: under z ~ N(0, 1) each prior scale's Bayes factor integrates to one.

    Both EBF's conservative null proportion and the m/alpha automatic
    rejection bound rest on this identity (Wakefield 2009). The expectation
    is taken by mpmath quadrature of ``exp(log_bf - z^2/2) / sqrt(2 pi)``,
    with the library's float log Bayes factor inside the integrand.
    """

    @staticmethod
    def _null_expectation(se: float, grid: OmegaGrid) -> mpmath.mpf:
        # The slowest-decaying integrand term has standard deviation
        # sqrt(se^2 + w^2) / se in z; break the half line at multiples of it.
        width = max(math.sqrt(se * se + w * w) / se for w in grid.omegas)

        def density(z):
            log_bf = float(log_bf_averaged_many(float(z), se, grid))
            return mpmath.exp(log_bf - z * z / 2) / mpmath.sqrt(2 * mpmath.pi)

        points = [0] + [width * k for k in (1, 2, 4, 8)] + [mpmath.inf]
        return 2 * mpmath.quad(density, points)

    @pytest.mark.parametrize("se", [0.05, 0.2, 1.0, 4.0])
    @pytest.mark.parametrize("grid", [DEFAULT_OMEGA_GRID, OmegaGrid((0.5,))], ids=["default-grid", "one-omega"])
    def test_integrates_to_one(self, se, grid):
        assert abs(self._null_expectation(se, grid) - 1) < 1e-12


class TestGeneLevelBf:
    """The gene statistic is the arithmetic mean of its variants' averaged Bayes factors."""

    @staticmethod
    def _variant_log_bfs(design: GeneDesign, y: np.ndarray) -> np.ndarray:
        return log_bf_averaged_many(design.z_batch(y)[:, 0], design.se)

    @staticmethod
    def _two_variant_gene(effect: float, seed: int = 4):
        rng = np.random.default_rng(seed)
        G = rng.binomial(2, 0.4, size=(40, 2)).astype(float)
        y = effect * G[:, 0] + rng.normal(size=40)
        return y, G

    def test_plain_mean(self):
        y, G = self._two_variant_gene(0.5)
        design = GeneDesign(G, sigma=1.0)
        bfs = np.exp(self._variant_log_bfs(design, y))
        assert math.exp(design.log_gene_bf(y)[0]) == pytest.approx(bfs.mean(), rel=1e-13)

    def test_log_twin(self):
        y, G = self._two_variant_gene(0.5)
        design = GeneDesign(G, sigma=1.0)
        lbs = self._variant_log_bfs(design, y)
        assert design.log_gene_bf(y)[0] == pytest.approx(math.log(np.exp(lbs).mean()), rel=1e-14)

    def test_log_form_survives_huge_components(self):
        # The strong variant's Bayes factor overflows the natural scale, so
        # the mean does too; the log form must not.
        y, G = self._two_variant_gene(40.0)
        design = GeneDesign(G, sigma=1.0)
        top, other = sorted(self._variant_log_bfs(design, y), reverse=True)
        assert top > 800.0
        expected = top + math.log1p(math.exp(other - top)) - math.log(2.0)
        assert design.log_gene_bf(y)[0] == pytest.approx(expected, rel=1e-13)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError, match="at least one variant"):
            GeneDesign(np.empty((10, 0)), sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            GeneDesign(np.eye(10, 2), sigma=math.nan)


def _wald(y, g, sigma):
    """``wald_rows`` on one test, as Python floats."""
    z, se = wald_rows(np.asarray(g, dtype=float)[None, :], np.asarray(y, dtype=float)[None, :], sigma)
    return float(z[0]), float(se[0])


class TestRegression:
    @staticmethod
    def _simulate(n=60, seed=3, beta=0.7, sigma=1.2):
        rng = np.random.default_rng(seed)
        g = rng.binomial(2, 0.3, size=n).astype(float)
        y = 0.5 + beta * g + rng.normal(0.0, sigma, size=n)
        return y, g

    def test_matches_least_squares_oracle(self):
        y, g = self._simulate()
        sigma = 1.2
        z, se = _wald(y, g, sigma)
        # Independent slope fit.
        slope, intercept = np.polyfit(g, y, 1)
        gc = g - g.mean()
        sxx = float(gc @ gc)
        se_expected = sigma / math.sqrt(sxx)
        beta_hat = float(gc @ (y - y.mean())) / sxx
        assert beta_hat == pytest.approx(slope, rel=1e-10)
        assert se == pytest.approx(se_expected, rel=1e-12)
        assert z == pytest.approx(beta_hat / se_expected, rel=1e-12)

    def test_estimated_sigma_matches_residual_formula(self):
        y, g = self._simulate(seed=11)
        _, se = _wald(y, g, None)
        slope, intercept = np.polyfit(g, y, 1)
        resid = y - (intercept + slope * g)
        sigma_hat = math.sqrt(float(resid @ resid) / (len(y) - 2))
        gc = g - g.mean()
        assert se == pytest.approx(sigma_hat / math.sqrt(float(gc @ gc)), rel=1e-10)

    def test_constant_genotype_rejected(self):
        y = np.arange(10.0)
        with pytest.raises(ValueError, match="constant"):
            _wald(y, np.ones(10), 1.0)

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 3"):
            _wald([1.0, 2.0], [0.0, 1.0], 1.0)

    def test_degenerate_residuals_rejected(self):
        g = np.array([0.0, 1.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="^residuals are degenerate; cannot estimate sigma$"):
            _wald(3.0 * g - 1.0, g, None)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 300),
        rows=st.integers(1, 5),
        y_scale=st.sampled_from([1e-3, 1.0, 1e3]),
        sigma=st.one_of(st.none(), st.floats(1e-3, 1e3)),
        binary=st.booleans(),
    )
    def test_rows_match_the_one_test_regression_bit_for_bit(self, seed, n, rows, y_scale, sigma, binary):
        """Each row of wald_rows is wald_from_regression's one-test result, for allele counts and for real-valued g."""
        rng = np.random.default_rng(seed)
        g = rng.binomial(2, 0.3, size=(rows, n)).astype(float) if binary else rng.normal(size=(rows, n))
        g[:, :2] = [0.0, 1.0]  # no constant row
        y = rng.uniform(-5, 5) + 0.7 * g + y_scale * rng.normal(size=(rows, n))
        z, se = wald_rows(g, y, sigma)
        expected = [wald_from_regression(y[i], g[i], sigma) for i in range(rows)]
        assert z.tolist() == [e[0] for e in expected]
        assert se.tolist() == [e[1] for e in expected]


@pytest.mark.filterwarnings("error")
class TestScaleChecks:
    """A scale the Bayes factor cannot take raises a ScaleError naming the first bad test, with no numpy warning."""

    def test_log_bf_of_a_tiny_standard_error(self):
        with pytest.raises(ScaleError, match="^test 0: standard error 1e-170 squares to 0.0, below the smallest normal float$"):
            log_bf_averaged_many(2.0, 1e-170)

    def test_log_bf_names_the_first_bad_pair_of_the_broadcast(self):
        z = np.array([[1.0], [1e155]])
        se = np.array([0.5, 1e-170, 0.2])
        with pytest.raises(ScaleError) as got:
            log_bf_averaged_many(z, se)
        assert (got.value.index, got.value.reason) == (1, "standard error 1e-170 squares to 0.0, below the smallest normal float")

    def test_wald_rows_with_a_subnormal_sigma(self):
        """The one-test regression gave (inf, 5e-324) here, with a numpy warning."""
        with pytest.raises(ScaleError, match="^test 0: standard error 5e-324 squares to 0.0, below the smallest normal float$"):
            wald_rows([[0.0, 1.0, 2.0, 1.0]], [[1.0, 2.0, 3.5, 4.0]], 5e-324)

    def test_wald_rows_names_its_row(self):
        g = np.array([[0.0, 1.0, 2.0, 1.0], [0.0, 2.0, 2.0, 1.0]])
        y = np.array([[1.0, 2.0, 3.5, 4.0], [0.0, 1e155, 1e155, 0.0]])
        with pytest.raises(ScaleError) as got:
            wald_rows(g, y, 1.0)
        assert got.value.index == 1 and got.value.reason.startswith("Wald statistic ")
        assert got.value.reason.endswith(" squares to inf")

    def test_edges_pass(self):
        root_tiny = math.sqrt(sys.float_info.min)
        check_scales(np.array([0.0, math.sqrt(sys.float_info.max)]), np.array([root_tiny, 1.0]))


def _null_q(se: float, gamma: float) -> float:
    return float(bf_null_quantiles(np.array([se]), gamma)[0])


class TestNullQuantiles:
    def test_median_via_chi_square(self):
        se = 0.37
        z_med = math.sqrt(stats.chi2.ppf(0.5, df=1))
        assert _null_q(se, 0.5) == pytest.approx(_averaged_bf(z_med, se), rel=1e-13)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(19)
        se = 0.25
        z = rng.standard_normal(200_000)
        sample = np.exp(log_bf_averaged_many(z, np.full_like(z, se)))
        for gamma in (0.25, 0.5, 0.9):
            emp = np.quantile(sample, gamma)
            assert _null_q(se, gamma) == pytest.approx(emp, rel=0.02)

    def test_monotone_in_gamma(self):
        qs = [_null_q(0.2, g) for g in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_batch_matches_scalar(self):
        ses = np.array([0.1, 0.4, 1.0])
        batch = bf_null_quantiles(ses, 0.5)
        z_med = math.sqrt(stats.chi2.ppf(0.5, df=1))
        np.testing.assert_allclose(batch, [_averaged_bf(z_med, s) for s in ses], rtol=1e-13)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_gamma_range(self, bad):
        with pytest.raises(ValueError, match="gamma"):
            bf_null_quantiles(np.array([0.5]), bad)


class TestGeneDesign:
    @staticmethod
    def _gene(n=50, k=6, seed=23):
        rng = np.random.default_rng(seed)
        G = rng.binomial(2, 0.3, size=(n, k)).astype(np.int8)
        y = rng.normal(size=n)
        return y, G

    def test_z_batch_matches_per_variant_regression(self):
        y, G = self._gene()
        design = GeneDesign(G, sigma=1.0)
        z = design.z_batch(y)[:, 0]
        for j, col in enumerate(design.kept_columns):
            z_j, _ = wald_from_regression(y, G[:, col].astype(float), 1.0)
            assert z[j] == pytest.approx(z_j, rel=1e-10)

    def test_drops_constant_columns(self):
        y, G = self._gene()
        G = G.copy()
        G[:, 2] = 1
        design = GeneDesign(G, sigma=1.0)
        assert 2 not in design.kept_columns
        assert len(design.kept_columns) == G.shape[1] - 1

    def test_all_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            GeneDesign(np.ones((20, 3), dtype=np.int8), sigma=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        """A NaN column would have NaN variance and be dropped as if constant."""
        _, G = self._gene(n=20, k=3)
        G = G.astype(float)
        G[4, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GeneDesign(G, sigma=1.0)

    def test_gene_log_bf_is_log_mean_of_variant_bfs(self):
        y, G = self._gene(seed=5)
        sigma = 0.9
        out = GeneDesign(G, sigma=sigma).log_gene_bf(y)[0]
        per_variant = []
        for j in range(G.shape[1]):
            z, se = wald_from_regression(y, G[:, j].astype(float), sigma)
            per_variant.append(math.exp(float(log_bf_averaged_many(z, se))))
        assert out == pytest.approx(math.log(np.mean(per_variant)), rel=1e-10)

    def test_batched_phenotypes_match_single(self):
        y, G = self._gene(seed=9)
        rng = np.random.default_rng(31)
        Y = rng.normal(size=(len(y), 4))  # one column per phenotype
        design = GeneDesign(G, sigma=1.0)
        batch = design.log_gene_bf(Y)
        singles = [design.log_gene_bf(Y[:, i])[0] for i in range(4)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestGeneKernels:
    """The fused kernel stays within its bound; the exact one keeps log_gene_bf's bits at any width."""

    @staticmethod
    def _scan(seed, n, k, n_constant, width, y_scale, grid):
        rng = np.random.default_rng(seed)
        G = rng.binomial(2, rng.uniform(0.05, 0.5), size=(n, k)).astype(float)
        G[0, :], G[1, :] = 0.0, 2.0
        G = np.hstack([G, np.ones((n, n_constant))])
        Y = y_scale * rng.normal(size=(n, width)) + rng.uniform(0.0, 3.0) * G[:, :1]
        return rng, GeneDesign(G, sigma=float(rng.uniform(0.2, 2.0)), grid=grid), Y

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 90),
        k=st.integers(1, 130),
        n_constant=st.integers(0, 2),
        width=st.one_of(st.integers(1, 9), st.integers(1, 600)),
        y_scale=st.sampled_from([0.2, 1.0, 40.0, 1e4]),
        grid=st.sampled_from([DEFAULT_OMEGA_GRID, OmegaGrid((0.4,)), OmegaGrid((0.01, 0.3, 1.0, 5.0, 30.0, 300.0))]),
    )
    def test_exact_columns_carry_full_width_bits(self, seed, n, k, n_constant, width, y_scale, grid):
        """Any selection of columns (1, 2 or many, as a mask or indices) gets the full-width scan's bits."""
        rng, design, Y = self._scan(seed, n, k, n_constant, width, y_scale, grid)
        full = design.log_gene_bf(Y)
        Z = design.z_batch(Y)
        assert design.exact_log_gene_bf(Z, slice(None)).tobytes() == full.tobytes()
        for size in {1, 2, max(1, width // 3), width}:
            cols = np.sort(rng.choice(width, size=min(size, width), replace=False))
            assert design.exact_log_gene_bf(Z, cols).tobytes() == full[cols].tobytes()
            mask = np.zeros(width, dtype=bool)
            mask[cols] = True
            assert design.exact_log_gene_bf(Z, mask).tobytes() == full[mask].tobytes()
        fast = design.fast_log_gene_bf(Z)
        assert np.all(np.abs(fast - full) <= design.fast_error_bound(fast))

    def test_one_column_scan_is_reduced_pairwise(self):
        """A one-column scan is log_gene_bf's own contiguous, pairwise reduction, which in-order sums can miss."""
        rng = np.random.default_rng(0)
        design = GeneDesign(rng.binomial(2, 0.3, size=(50, 80)).astype(float), sigma=1.0)
        differs = 0
        for _ in range(300):
            y = 3.0 * rng.normal(size=(50, 1))
            Z = design.z_batch(y)
            assert design.exact_log_gene_bf(Z, [0]).tobytes() == design.log_gene_bf(y).tobytes()
            differs += design._nested_log_gene_bf(Z, in_order=True)[0] != design.log_gene_bf(y)[0]
        assert differs > 0  # otherwise this test shows nothing

    def test_fast_error_is_far_inside_its_bound_on_default_genes(self):
        """The measured error is a small fraction of the derived bound, and the float32 bound is small."""
        from bfdr.simulation import SimIIConfig, simulate_II

        genes, _ = simulate_II(SimIIConfig(m=10, pi0=0.5, seed=77))
        rng = np.random.default_rng(8)
        for gene in genes:
            design = GeneDesign(gene.G, 1.0)
            Y = gene.y[np.argsort(rng.random((500, gene.y.size)), axis=1)].T
            Z = design.z_batch(Y)
            fast, exact = design.fast_log_gene_bf(Z), design.exact_log_gene_bf(Z, slice(None))
            bound = design.fast_error_bound(fast)
            assert np.all(np.abs(fast - exact) <= bound / 100)
            assert np.all(bound <= 1e-3 * (1.0 + np.abs(fast)))

    @settings(max_examples=200, deadline=None)
    @example(seed=0, n=400, k=240, width=40, extra=40, sigma=1.0, z_scale=1e3, grid_size=8)
    @example(seed=1, n=3, k=1, width=1, extra=0, sigma=1e-150, z_scale=30.0, grid_size=1)
    @example(seed=2, n=50, k=1, width=20, extra=7, sigma=1e150, z_scale=1e-3, grid_size=1)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 400),
        k=st.integers(1, 240),
        width=st.integers(1, 40),
        extra=st.integers(0, 40),
        sigma=st.sampled_from([1e-150, 1e-40, 1e-6, 1.0, 1e6, 1e40, 1e150]),
        z_scale=st.sampled_from([1e-3, 0.1, 1.0, 30.0, 1e3]),
        grid_size=st.sampled_from([1, 8]),
    )
    def test_fast_error_stays_within_an_eighth_of_its_bound(self, seed, n, k, width, extra, sigma, z_scale, grid_size):
        """Each finite fast value lies within bound / 8 of the exact one, from a product of its own width or a wider one.

        The phenotype's scale is ``z_scale`` times ``sigma``, so extreme
        standard errors come with Wald statistics from 10^-3 to 10^3: a
        tiny standard error against the prior scales gives log prefactors
        near -345 that the quadratic term cancels. The fast values of the
        first ``width`` columns come from a product ``extra`` columns wider
        than the exact ones'.
        """
        rng = np.random.default_rng(seed)
        G = rng.binomial(2, rng.uniform(0.05, 0.5), size=(n, k)).astype(float)
        G[0, :], G[1, :] = 0.0, 2.0
        grid = OmegaGrid((0.4,)) if grid_size == 1 else OmegaGrid(tuple(0.01 * 3.0**i for i in range(8)))
        design = GeneDesign(G, sigma=sigma, grid=grid)
        y = sigma * z_scale * (rng.normal(size=n) + rng.uniform(0.0, 2.0) * G[:, 0])
        Y = y[np.argsort(rng.random((width + extra, n)), axis=1)].T
        Z = design.z_batch(Y)
        for fast, own in ((design.fast_log_gene_bf(Z), Z), (design.fast_log_gene_bf(Z)[:width], design.z_batch(Y[:, :width]))):
            exact = design.exact_log_gene_bf(own, slice(None))
            finite = np.isfinite(fast)
            assert np.isfinite(exact[finite]).all()
            bound = design.fast_error_bound(fast[finite], y if own is not Z else None)
            assert np.all(np.abs(fast[finite] - exact[finite]) <= bound / 8)

    def test_checked_design_gives_log_gene_bf_bits(self):
        """The observed statistic taken from the scale check's Wald statistics is log_gene_bf's, bit for bit."""
        from bfdr.simulation import SimIIConfig, simulate_II

        genes, _ = simulate_II(SimIIConfig(m=20, pi0=0.5, seed=3))
        for gene in genes:
            design, log_bf = checked_gene_design(gene.G, gene.y, 1.0)
            assert log_bf == float(GeneDesign(gene.G, 1.0).log_gene_bf(gene.y)[0])
            assert log_bf == float(design.log_gene_bf(gene.y)[0])

    def test_non_finite_entries_give_non_finite_fast_values(self):
        G = np.random.default_rng(1).binomial(2, 0.3, size=(30, 4)).astype(float)
        design = GeneDesign(G, 1.0)
        Z = np.array([[1.0, np.inf, np.nan, 1e200], [0.5, 0.5, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        with np.errstate(over="ignore"):
            fast = design.fast_log_gene_bf(Z)
        assert np.isfinite(fast[0])
        assert not np.isfinite(fast[1:]).any()


# Entries that exercise every branch of scipy's logsumexp: ordinary values,
# exact ties (so the maximum is counted more than once), values whose exp
# overflows or underflows, and infinities.
_LSE_ELEMENTS = st.one_of(
    st.floats(-800.0, 800.0),
    st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e308, -1e308, -math.inf, math.inf]),
)


class TestScipyFreeKernels:
    """The numpy kernels reproduce the scipy calls they replaced.

    ``_logsumexp`` is scipy's bit for bit. The null quantiles, from the
    ndtri port, differ from scipy's chi-squared quantile in the last bits
    only, and the QBF census counts the same tests with either.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=6), elements=_LSE_ELEMENTS),
        transpose=st.booleans(),
    )
    def test_logsumexp_matches_scipy(self, a, transpose):
        if transpose:
            a = a.T  # a non-contiguous layout changes numpy's summation order
        for axis in [None, *range(-max(a.ndim, 1), max(a.ndim, 1))]:
            with np.errstate(over="ignore", invalid="ignore"):  # scipy's own warnings on infinite entries
                expected = logsumexp(a, axis=axis)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _logsumexp(a, axis=axis)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(got, expected, equal_nan=True)

    def test_logsumexp_matches_scipy_on_gene_kernel_shape(self):
        rng = np.random.default_rng(5)
        lb = rng.normal(scale=30.0, size=(80, 5, 500))
        lb[3, :, 7] = lb[3, 0, 7]  # a five-way tie
        per_variant = _logsumexp(lb, axis=1)
        assert np.array_equal(per_variant, logsumexp(lb, axis=1))
        assert np.array_equal(_logsumexp(per_variant, axis=0), logsumexp(per_variant, axis=0))

    def test_null_quantiles_within_1e_12_of_scipys_chi2_quantile(self):
        """The ndtri-port quantiles change only last bits: at most 2.5e-14 relative was measured."""
        gammas = np.concatenate([
            np.linspace(0.0, 1.0, 20_001)[1:-1],
            [1e-300, 5e-324, 1e-16, 1e-8, 1.0 - 1e-8, np.nextafter(1.0, 0.0)],
        ])
        se = np.array([1e-3, 0.05, 0.2, 1.0, 5.0])
        got = np.array([bf_null_quantiles(se, g) for g in gammas])
        zq = np.sqrt(stats.chi2.ppf(gammas, df=1))
        want = np.exp(np.minimum(log_bf_averaged_many(zq[:, None], se[None, :]), 709.0))
        assert np.abs(got / want - 1.0).max() <= 1e-12

    def test_study_i_census_matches_scipys_chi2_quantile(self):
        """The QBF census counts the same tests with either quantile, gamma = 0.5 included."""
        for seed, pi0 in enumerate((0.95, 0.55, 0.15) * 2):
            batch, _ = simulate_I(SimIConfig(m=5_000, pi0=pi0, seed=seed))
            for gamma in np.round(np.arange(0.1, 1.0, 0.1), 1):
                zq = math.sqrt(stats.chi2.ppf(gamma, df=1))
                scipy_q = np.exp(np.minimum(log_bf_averaged_many(np.full(len(batch), zq), batch.se), 709.0))
                got = qbf_pi0(batch.bf, bf_null_quantiles(batch.se, gamma), gamma)
                assert got == qbf_pi0(batch.bf, scipy_q, gamma), f"seed {seed}, gamma {gamma}"
