"""The numpy ports of cephes' ndtr and ndtri equal scipy.special's bit for bit.

scipy is the oracle: the study-II genotype copula thresholds latents with
these ports, and its dosages must stay those of the scipy kernels. Each
branch edge of the ports gets a grid of neighbouring floats. The erfc
port is checked in test_fdr_control, next to the p-values it serves.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from bfdr._normal import ndtr, ndtri

_MAXLOG = 7.09782712893383996843e2


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _around(point: float, steps: int) -> np.ndarray:
    """The positive float ``point`` and its ``steps`` neighbours on each side."""
    bits = np.array([point]).view(np.int64) + np.arange(-steps, steps + 1)
    return bits.view(np.float64)


class TestNdtr:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_matches_scipy_on_finite_floats(self, xs):
        a = np.array(xs)
        assert _same_bits(ndtr(a), special.ndtr(a))

    @pytest.mark.parametrize(
        "point",
        [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG), 37.6],
        ids=["erf-branch", "erfc-polynomial", "erfc-tail", "underflow", "subnormal-output"],
    )
    def test_matches_scipy_at_branch_edges(self, point):
        """|a| = 1 switches erf for erfc; erfc switches polynomials at |a| = sqrt 2 and 8 sqrt 2
        and underflows at sqrt(2 MAXLOG)."""
        edge = np.concatenate([_around(point, 2000), point + np.linspace(-1e-6, 1e-6, 2001)])
        a = np.concatenate([edge, -edge])
        assert _same_bits(ndtr(a), special.ndtr(a))

    def test_matches_scipy_at_extremes(self):
        big = 10.0 ** np.linspace(1.0, 308.0, 400)
        a = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308, *big, *-big])
        assert _same_bits(ndtr(a), special.ndtr(a))
        assert ndtr(np.array([math.inf, -math.inf, 0.0])).tolist() == [1.0, 0.0, 0.5]

    def test_keeps_shape(self):
        a = np.random.default_rng(2).normal(0.0, 3.0, (40, 1))
        got = ndtr(a)
        assert got.shape == (40, 1)
        assert _same_bits(got, special.ndtr(a))


_UNIT_INTERVAL = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(5e-324, 1e-12),
    st.floats(0.999, 1.0, exclude_max=True),
)


class TestNdtri:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_UNIT_INTERVAL, min_size=1, max_size=50))
    def test_matches_scipy_on_the_open_unit_interval(self, ys):
        y = np.array(ys)
        assert _same_bits(ndtri(y), special.ndtri(y))

    @pytest.mark.parametrize(
        "point",
        [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5],
        ids=["lower-central", "upper-central", "lower-far-tail", "upper-far-tail", "median"],
    )
    def test_matches_scipy_at_branch_edges(self, point):
        """The central branch ends at exp(-2) and 1 - exp(-2); the tail polynomials
        switch at sqrt(-2 log y) = 8, where y is about exp(-32)."""
        y = np.concatenate([_around(point, 3000), point * (1.0 + np.linspace(-1e-9, 1e-9, 2001))])
        y = y[(y > 0.0) & (y < 1.0)]
        assert _same_bits(ndtri(y), special.ndtri(y))

    def test_matches_scipy_on_subnormals_and_tiny_values(self):
        y = np.concatenate(
            [
                np.arange(1, 2000, dtype=np.int64).view(np.float64),
                np.random.default_rng(7).integers(1, 2**52, 2000, dtype=np.int64).view(np.float64),
                [2.2250738585072014e-308, 1e-300, 1e-100],
                np.exp(-np.linspace(0.0, 745.0, 20_001))[1:],
            ]
        )
        assert _same_bits(ndtri(y), special.ndtri(y))
        assert _same_bits(ndtri(1.0 - y[y > 1e-16]), special.ndtri(1.0 - y[y > 1e-16]))

    def test_matches_scipy_on_a_dense_sample(self):
        """Dense enough that a tail log taken through ``np.log`` instead of ``math.log`` shows."""
        rng = np.random.default_rng(11)
        y = np.concatenate([rng.random(200_000), np.exp(-rng.uniform(0.0, 745.0, 200_000))])
        y = y[y > 0.0]
        y = np.concatenate([y, 1.0 - y[y < 0.5]])
        assert _same_bits(ndtri(y), special.ndtri(y))

    def test_end_points_and_domain(self):
        got = ndtri(np.array([0.0, -0.0, 1.0]))
        assert got.tolist() == [-math.inf, -math.inf, math.inf]
        assert _same_bits(got, special.ndtri(np.array([0.0, -0.0, 1.0])))
        outside = np.array([-0.5, -5e-324, np.nextafter(1.0, 2.0), 1.5, math.nan, math.inf])
        assert np.isnan(ndtri(outside)).all()
        assert np.isnan(special.ndtri(outside)).all()

    def test_keeps_shape(self):
        y = np.random.default_rng(3).random((2, 30, 1))
        got = ndtri(y)
        assert got.shape == (2, 30, 1)
        assert _same_bits(got, special.ndtri(y))
