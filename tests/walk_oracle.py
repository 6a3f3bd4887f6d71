"""The whole-cap hitting time of the walk: the oracle the coupled blocks' ``theta`` is checked against."""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class HittingResult:
    """Hitting step (None when censored), the walk value and final increment there."""

    theta: Optional[int]
    S_theta: float
    xi_theta: float
    steps_run: int

    @property
    def censored(self) -> bool:
        return self.theta is None


def hitting_time(threshold: float, max_steps: int, increments: np.ndarray) -> HittingResult:
    """First step at or below ``threshold`` of the walk with these increments.

    The walk is the cumulative sum of the first ``max_steps``
    increments, summed from 0 in order.
    """
    xs = np.asarray(increments, dtype=float)
    if xs.size < max_steps:
        raise ValueError(f"hitting_time needs {max_steps} increments, got {xs.size}")
    sums = np.cumsum(xs[:max_steps])
    hit = sums <= threshold
    if not hit.any():
        return HittingResult(theta=None, S_theta=float(sums[-1]), xi_theta=math.nan, steps_run=max_steps)
    j = int(hit.argmax())
    return HittingResult(theta=j + 1, S_theta=float(sums[j]), xi_theta=float(xs[j]), steps_run=j + 1)
