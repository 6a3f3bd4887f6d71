"""A run's recorded steps as one array, for the tests that read them across blocks."""

import numpy as np


def all_steps(run) -> np.ndarray:
    """The ``STEP_DTYPE`` arrays of ``run.steps`` (one per block) concatenated in block order: replicate-major."""
    return np.concatenate(run.steps)
