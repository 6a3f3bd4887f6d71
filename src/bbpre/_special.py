"""Bit-exact ports of the two Cephes special functions the package uses.

``erfc`` and ``erfcinv`` reproduce Stephen L. Moshier's Cephes rational
approximations as ``scipy.special`` compiles them, value for value, so
the package needs no scipy at run time.

Bit equality rests on two facts.  The polynomials are evaluated in
Cephes' Horner order with numpy array arithmetic, whose ``*``, ``+``
and ``/`` are correctly rounded and never fused, exactly as the
compiled C.  ``exp`` and ``log`` are taken element by element from
``math``, which is the platform libm the C code calls: numpy's own
vectorised ``exp``/``log`` differ from libm in the last bit on some
arguments.  ``sqrt`` is correctly rounded everywhere, so ``np.sqrt``
serves.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfc", "erfcinv"]

# erfc for 1 <= |x| < 8 (P/Q), |x| >= 8 (R/S); erf for |x| < 1 (T/U)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996843e2

# ndtri for |y - 1/2| <= 3/8 (P0/Q0), sqrt(-2 ln y) in [2, 8) (P1/Q1) and [8, 64) (P2/Q2)
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440

def _polevl(x, coef):
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """Horner with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` from ``math`` applied to each element of ``x``."""
    return np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def erfc(a):
    """Complementary error function (Cephes ``erfc``), elementwise; returns an array."""
    a = np.asarray(a, dtype=float)
    x = np.abs(a)
    out = np.empty_like(a)
    small = x < 1.0
    if small.any():
        s = a[small]
        z = s * s
        out[small] = 1.0 - s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    big = ~small
    if big.any():
        ab, xb = a[big], x[big]
        # |x| past sqrt(MAXLOG) overflows the polynomials; those entries underflow to the limit below
        with np.errstate(over="ignore", invalid="ignore"):
            z = -ab * ab
            under = z < -_MAXLOG
            ez = _libm(math.exp, np.where(under, 0.0, z))
            mid = xb < 8.0
            p = np.where(mid, _polevl(xb, _ERFC_P), _polevl(xb, _ERFC_R))
            q = np.where(mid, _p1evl(xb, _ERFC_Q), _p1evl(xb, _ERFC_S))
            y = (ez * p) / q
        neg = ab < 0
        y = np.where(neg, 2.0 - y, y)
        # underflow, of exp or of the quotient, gives the limit 0 or 2
        out[big] = np.where(under | (y == 0.0), np.where(neg, 2.0, 0.0), y)
    return out


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Cephes ``ndtri`` for levels in [0, 1)."""
    out = np.full_like(y0, -np.inf)
    pos = y0 > 0.0
    y = y0[pos]
    flip = y > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y, y)
    x = np.empty_like(y)
    central = y > _EXP_M2
    if central.any():
        c = y[central] - 0.5
        c2 = c * c
        x[central] = (c + c * (c2 * _polevl(c2, _NDTRI_P0) / _p1evl(c2, _NDTRI_Q0))) * _S2PI
    tail = ~central
    if tail.any():
        t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
        t0 = t - _libm(math.log, t) / t
        z = 1.0 / t
        near = t < 8.0
        t1 = np.where(near, z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
                      z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2))
        t = t0 - t1
        x[tail] = np.where(flip[tail], t, -t)
    out[pos] = x
    return out


def erfcinv(y):
    """Inverse of ``erfc`` on [0, 2] (``-ndtri(y/2) / sqrt 2``), NaN outside; returns an array."""
    y = np.asarray(y, dtype=float)
    out = np.full_like(y, np.nan)
    inside = (y > 0.0) & (y < 2.0)
    out[inside] = -_ndtri(0.5 * y[inside]) * _SQRT1_2
    out[y == 0.0] = np.inf
    out[y == 2.0] = -np.inf
    return out
