"""Standard-normal tail kernels: numpy ports of cephes' ``erfc``, ``ndtr`` and ``ndtri``.

These are the routines ``scipy.special`` compiles from cephes (ndtr.c and
ndtri.c). Each port repeats cephes' branches and operations in their
order, and takes each ``exp`` and ``log`` through ``math``, so its results
equal scipy's bit for bit (``np.exp`` and ``np.log`` differ from them in
the last bits on some inputs). scipy is not a runtime dependency; it is
the tests' oracle for these ports. The p-value paths use ``erfc``; study
I's closed-form null quantiles use ``ndtri``, and so does the study-II
genotype copula for its cut points, with ``ndtr`` inside their guard
bands.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["erfc", "ndtr", "ndtri"]


# Coefficients of cephes' erfc (ndtr.c), highest power first, as compiled
# into scipy.special. P/Q serve 1 <= x < 8, R/S serve x >= 8 and T/U give
# erf on x < 1. Every denominator leads with the 1 that cephes' p1evl
# implies; 1.0 * x is exact, so Horner's rule gives p1evl's result bit for
# bit.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2

# Coefficients of cephes' ndtri (ndtri.c). P0/Q0 serve |y - 1/2| below
# 1/2 - exp(-2); with t = sqrt(-2 log y) further out, P1/Q1 serve t < 8
# (y above exp(-32)) and P2/Q2 serve t >= 8.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXPM2 = 0.13533528323661269189  # exp(-2)
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule with the coefficients highest power first."""
    out = x * coef[0] + coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.log``) of each element of a 1-d array."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _erf_small(x: np.ndarray) -> np.ndarray:
    """cephes' erf for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of non-negative ``x``, as cephes computes it."""
    out = np.zeros_like(x)
    small = x < 1.0
    out[small] = 1.0 - _erf_small(x[small])
    with np.errstate(over="ignore"):
        neg_sq = -x * x
    # Below -MAXLOG cephes returns 0 before evaluating any polynomial,
    # which also keeps R(x) from overflowing for huge x.
    tail = ~small & (neg_sq >= -_MAXLOG)
    xt = x[tail]
    e = _elementwise(math.exp, neg_sq[tail])
    mid = xt < 8.0
    xm, xb = xt[mid], xt[~mid]
    y = np.empty_like(xt)
    y[mid] = e[mid] * _polevl(xm, _ERFC_P) / _polevl(xm, _ERFC_Q)
    y[~mid] = e[~mid] * _polevl(xb, _ERFC_R) / _polevl(xb, _ERFC_S)
    out[tail] = y
    return out


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard-normal CDF of non-NaN ``a``: 1/2 + erf(x)/2 for |x| < 1/sqrt 2, else from erfc(|x|)."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    out = np.empty_like(x)
    small = z < _SQRT1_2
    out[small] = 0.5 + 0.5 * _erf_small(x[small])
    y = 0.5 * erfc(z[~small])
    out[~small] = np.where(x[~small] > 0.0, 1.0 - y, y)
    return out


def ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard-normal quantile of ``y0``: -inf at 0, +inf at 1, NaN outside [0, 1].

    Values above 1 - exp(-2) are reflected to 1 - y0 and the result's sign
    is flipped back. The central branch is a rational function of
    (y - 1/2)^2; the tails are expanded in t = sqrt(-2 log y) as
    t - log(t)/t minus a rational function of 1/t.
    """
    y0 = np.asarray(y0, dtype=float)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXPM2
    y = np.where(upper, 1.0 - y0, y0)
    inside = (y0 > 0.0) & (y0 < 1.0)
    central = inside & (y > _EXPM2)
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _S2PI
    tail = inside & ~central
    t = np.sqrt(-2.0 * _elementwise(math.log, y[tail]))
    t0 = t - _elementwise(math.log, t) / t
    z = 1.0 / t
    near = t < 8.0
    t1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    if not near.all():  # y below about exp(-32) is rare; skip P2/Q2 when there is none
        zf = z[~near]
        t1[~near] = zf * _polevl(zf, _NDTRI_P2) / _polevl(zf, _NDTRI_Q2)
    x = t0 - t1
    out[tail] = np.where(upper[tail], x, -x)
    return out
