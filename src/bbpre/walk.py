"""The associated random walk and its hitting time below a moving threshold.

The walk ``S_n = xi(eta_1) + ... + xi(eta_n)`` sums the model's
log-scale increments along one environment path.  For an initial couple
count ``N`` and moment parameter ``beta > 1`` the hitting threshold is

    threshold = ln^gamma(N) - ln(N),    gamma = 2 / (1 + beta) < 1,

which ``hitting_threshold`` computes with ``ln^gamma(N)`` as
``exp(gamma * ln ln N)``; ``ln ln N`` needs ``N >= 3``, which
``simulator.run_block`` requires of coupled runs (``OffspringModel``
requires ``beta > 1``).  The hitting step is the least ``n >= 1`` with
the walk at or below the threshold; runs that do not hit within
``max_steps`` are censored, which is a reported value rather than an
error.  Coupled blocks find it as they read each environment window
(``simulator.run_block``).
"""

from __future__ import annotations

import math

__all__ = [
    "default_max_steps",
    "window_steps",
    "hitting_threshold",
]


def default_max_steps(n0: int) -> int:
    """The default step cap, ``ceil(50 ln^2 n0)``."""
    return int(math.ceil(50.0 * math.log(n0) ** 2))


def window_steps(n0: int, epsilon: float) -> int:
    """The window ``k = floor(epsilon * ln^2 n0)`` from the hitting step to the second observed count."""
    return int(math.floor(epsilon * math.log(n0) ** 2))


def hitting_threshold(n0: int, beta: float) -> float:
    """The walk's hitting threshold ``ln^gamma(n0) - ln(n0)``, ``gamma = 2 / (1 + beta)``."""
    ln = math.log(n0)
    return math.exp(2.0 / (1.0 + beta) * math.log(ln)) - ln
