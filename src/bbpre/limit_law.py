"""Limit law of the scaled extinction time.

On the ``ln^2 N`` time scale both the extinction time of the critical
process and the hitting time of its associated random walk converge to
the first passage time of a Brownian motion with diffusion scale
``sigma`` through a unit barrier.  This is a one-sided Levy-type
distribution with density

    p(t) = (2 pi sigma^2 t^3)^(-1/2) * exp(-1 / (2 sigma^2 t)),   t > 0,

and distribution function, by the reflection principle,

    F(t) = 2 Phi(-1 / (sigma sqrt(t))) = erfc(1 / (sigma sqrt(2 t))).

``Phi`` and its inverse are evaluated through the complementary error
function and its inverse, ports of the Cephes ``erfc`` / ``erfcinv``
in ``_special`` that equal ``scipy.special``'s bit for bit, accurate to
~1e-15 relative; they are the source of truth for both ``cdf`` and
``quantile``.  The density vanishes continuously at 0, so the law is
supported on t > 0 with no mass at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import erfc, erfcinv

__all__ = ["FirstPassageLaw"]


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class FirstPassageLaw:
    """First-passage limit law with scale parameter ``sigma`` > 0.

    ``sigma**2`` is the variance of one walk increment; equivalently the
    law equals the unit-scale law time-rescaled by ``1 / sigma**2``.
    """

    sigma: float

    def __post_init__(self):
        if not (isinstance(self.sigma, (int, float)) and math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a finite positive real, got {self.sigma!r}")

    def pdf(self, t):
        """Density at ``t`` (0 for t <= 0). Accepts scalars or arrays."""
        arr, scalar = _as_float_array(t)
        out = np.zeros_like(arr)
        pos = arr > 0
        tp = arr[pos]
        s2 = self.sigma * self.sigma
        # log-domain form so extreme t underflows to 0 instead of 0/0
        with np.errstate(divide="ignore", over="ignore"):
            log_p = -0.5 * math.log(2.0 * math.pi * s2) - 1.5 * np.log(tp) - 1.0 / (2.0 * s2 * tp)
            out[pos] = np.exp(log_p)
        return float(out[()]) if scalar else out

    def cdf(self, t):
        """Distribution function ``erfc(1 / (sigma sqrt(2 t)))`` (0 for t <= 0)."""
        arr, scalar = _as_float_array(t)
        out = np.zeros_like(arr)
        pos = arr > 0
        with np.errstate(divide="ignore", over="ignore"):
            out[pos] = erfc(1.0 / (self.sigma * np.sqrt(2.0 * arr[pos])))
        return float(out[()]) if scalar else out

    def quantile(self, q):
        """Inverse distribution function on (0, 1).

        Closed form ``t = 1 / (2 (sigma erfcinv(q))^2)``; raises
        ``ValueError`` outside the open unit interval.
        """
        arr, scalar = _as_float_array(q)
        if np.any(~((arr > 0.0) & (arr < 1.0))):
            raise ValueError(f"quantile level must lie in (0, 1), got {q!r}")
        out = 1.0 / (2.0 * (self.sigma * erfcinv(arr)) ** 2)
        return float(out[()]) if scalar else out

    def sample(self, stream: np.random.Generator, size=None):
        """Exact draws via ``1 / (sigma Z)^2`` with ``Z`` standard normal."""
        z = stream.standard_normal(size)
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / (self.sigma * z) ** 2

    @property
    def median(self) -> float:
        return self.quantile(0.5)
