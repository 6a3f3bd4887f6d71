"""The Cephes ports in ``bbpre._special`` against ``scipy.special`` as oracle.

Every comparison is bitwise: same value, same sign of zero, NaN where
the oracle gives NaN.  The grids are dense in each branch of each
approximation and run up to the edges where the functions underflow or
reach their poles.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sc

import bbpre
from bbpre._special import erfc, erfcinv


def assert_same_doubles(args, ours, oracle):
    ours, oracle = np.asarray(ours), np.asarray(oracle)
    assert ours.shape == oracle.shape and ours.dtype == np.float64
    same = ((ours == oracle) & (np.signbit(ours) == np.signbit(oracle))) | (np.isnan(ours) & np.isnan(oracle))
    bad = np.flatnonzero(~same)
    assert bad.size == 0, f"{bad.size} differ, e.g. at {np.asarray(args)[bad[:5]].tolist()}"


def both_signs(x):
    return np.concatenate([x, -x])


def near(points, ulps=4):
    """Each point and its neighbours within ``ulps`` units in the last place."""
    out = [np.asarray(points, dtype=float)]
    lo = hi = out[0]
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


ERFC_GRIDS = {
    "erf, |x| < 1": both_signs(np.linspace(0.0, 1.0, 200_001)),
    "P/Q, 1 <= |x| < 8": both_signs(np.linspace(1.0, 8.0, 400_001)),
    "R/S, |x| >= 8, through underflow": both_signs(np.linspace(8.0, 30.0, 200_001)),
    "branch edges": both_signs(near([1.0, 8.0, np.sqrt(7.09782712893383996843e2), 26.55, 27.2], 50)),
    "magnitudes": both_signs(np.geomspace(1e-300, 1e300, 20_001)),
    "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]),
}


@pytest.mark.parametrize("branch", sorted(ERFC_GRIDS))
def test_erfc_is_scipys(branch):
    x = ERFC_GRIDS[branch]
    assert_same_doubles(x, erfc(x), sc.erfc(x))


TINY = np.geomspace(5e-324, 0.3, 200_001)
ERFCINV_GRIDS = {
    "central, |y/2 - 1/2| < 1 - exp(-2)": np.linspace(0.27, 1.73, 300_001),
    "tails next to 0": TINY,
    "tails next to 2": 2.0 - TINY,
    "branch edges": near([2 * 0.13533528323661269189, 2 - 2 * 0.13533528323661269189, 2 * 1.2664165549e-14], 50),
    "ends and outside": np.array([0.0, 2.0, 1.0, -0.0, -1e-300, 2.0 + 4e-16, 3.0, -np.inf, np.inf, np.nan]),
}


@pytest.mark.parametrize("branch", sorted(ERFCINV_GRIDS))
def test_erfcinv_is_scipys(branch):
    y = ERFCINV_GRIDS[branch]
    assert_same_doubles(y, erfcinv(y), sc.erfcinv(y))


def test_scalar_arguments_give_zero_dimensional_arrays():
    assert erfc(0.5).shape == () and erfc(0.5) == sc.erfc(0.5)
    assert erfcinv(0.5).shape == () and erfcinv(0.5) == sc.erfcinv(0.5)


def test_the_package_runs_without_importing_scipy(tmp_path):
    script = (
        "import sys, bbpre, bbpre.cli\n"
        f"assert bbpre.cli.main(['simulate', '--n0', '50', '--replicates', '3', '--seed', '1', "
        f"'--out', {str(tmp_path / 'runs.csv')!r}]) == 0\n"
        "assert bbpre.cli.main(['limit-law', '--quantiles', '0.1,0.5']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(bbpre.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
