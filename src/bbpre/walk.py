"""The associated random walk and its hitting time below a moving threshold.

The walk ``S_n = xi(eta_1) + ... + xi(eta_n)`` sums the model's
log-scale increments along one environment path.  For an initial couple
count ``N`` and moment parameter ``beta > 1`` the hitting threshold is

    threshold = ln^gamma(N) - ln(N),    gamma = 2 / (1 + beta) < 1,

with ``ln^gamma(N)`` computed as ``exp(gamma * ln ln N)`` (so ``N >= 3``
is required to keep ``ln ln N`` well defined).  The hitting step is the
least ``n >= 1`` with the walk at or below the threshold; runs that do
not hit within ``max_steps`` are censored, which is a reported value
rather than an error.  Coupled blocks find it as they read each
environment window (``simulator.run_block``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError

__all__ = [
    "default_max_steps",
    "window_steps",
    "HittingSpec",
]


def default_max_steps(n0: int) -> int:
    """The default step cap, ``ceil(50 ln^2 n0)``."""
    return int(math.ceil(50.0 * math.log(n0) ** 2))


def window_steps(n0: int, epsilon: float) -> int:
    """The window ``k = floor(epsilon * ln^2 n0)`` from the hitting step to the second observed count."""
    return int(math.floor(epsilon * math.log(n0) ** 2))


@dataclass(frozen=True)
class HittingSpec:
    """Threshold geometry for the hitting time of the walk.

    ``max_steps`` defaults to ``ceil(50 * ln^2 N)``; note the limit law
    itself is heavy tailed, so for sigma near 0.5 roughly a fifth of the
    limit mass lies beyond any affordable cap and censoring must be
    accounted for downstream rather than assumed negligible.
    """

    n0: int
    beta: float = 3.0
    max_steps: Optional[int] = None

    def __post_init__(self):
        if self.n0 < 3:
            raise ConfigurationError(f"hitting threshold needs n0 >= 3, got {self.n0}")
        if not self.beta > 1.0:
            raise ConfigurationError(f"beta must exceed 1, got {self.beta}")
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", default_max_steps(self.n0))
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {self.max_steps}")

    @property
    def gamma(self) -> float:
        return 2.0 / (1.0 + self.beta)

    @property
    def threshold(self) -> float:
        ln = math.log(self.n0)
        return math.exp(self.gamma * math.log(ln)) - ln
