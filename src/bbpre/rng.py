"""Deterministic RNG stream derivation.

All randomness flows through numpy Generators derived from explicit
SeedSequence keys; there is no hidden module-level state.  A stream is
fully determined by ``(master_seed, *path)``, so replicate results are
independent of worker scheduling and thread count.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401  every command draws; load it with the package, not lazily on the first draw


def derive_stream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator keyed by ``(master_seed, *path)``."""
    key = [int(master_seed)] + [int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(key))
