"""Random environment, conditional offspring law, and mating rules.

One model triple ``(EnvironmentModel, OffspringModel, MatingRule)``
defines the process: at each generation every couple independently
produces a (female, male) offspring pair whose law depends on the
current environment value, and the next generation's couple count is
the mating function applied to the two offspring totals.

Built-in mating rules:

* ``monogamous(d)`` -- limited by the scarcer sex,
  ``L(x, y, z) = min(x, y * d(z))`` with ``d`` a positive-integer map;
* ``polygamous()``  -- one male suffices, ``L(x, y, z) = x * min(1, y)``;
* ``asexual()``     -- second component ignored, ``L(x, y, z) = x``,
  which reduces the dynamics to a simple (one-sex) branching process.

A rule is its functions, with no label: ``L``, a real-valued
approximant ``g`` that is Lipschitz and positively homogeneous in its
first two arguments, the Lipschitz scale ``lipschitz(z)``, a residual
scale ``rho(z)`` bounding ``|L - g| <= rho(z) (x + y)^alpha``, the
exponent ``alpha`` in (0, 1), and optionally ``log_g``.  Every callable
(``L``, ``g``, ``log_g``, the parameter maps) has one implementation: it
takes arrays and applies elementwise, and takes a Python number as a 0-d
array.  The associated random walk increment is

    xi(eta) = ln g(mean_f(eta), mean_m(eta), eta),

and the per-step noise scale entering the residual diagnostics is

    zeta = ln+ (omega1 + omega2 + omega3),
    omega1 = lipschitz(eta)^(1+delta) + rho(eta)^(1+delta),
    omega2 = mean_f(eta) + mean_m(eta),
    omega3 = centered absolute moments of order 1+delta of both
             offspring components,

with ``delta = 1/alpha - 1``.

The executable condition checks (superadditivity, Lipschitz bound,
homogeneity, residual bound, moment and criticality audits) report
pass/fail verdicts with concrete witness tuples, or Monte Carlo
estimates with standard errors where exact decision is impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DegenerateModelError

__all__ = [
    "ConstantMap",
    "TableMap",
    "ExpMeanMap",
    "EnvironmentModel",
    "OffspringModel",
    "MatingRule",
    "monogamous",
    "polygamous",
    "asexual",
    "mate_array",
    "walk_increments",
    "noise_scales",
    "analytic_sigma_xi",
    "ConditionCheck",
    "ConditionReport",
    "check_superadditivity",
    "check_lipschitz",
    "check_homogeneity",
    "check_approximation",
    "audit_conditions",
]

# Offspring means above this overflow-tag the replicate instead of degrading
# silently; counts are float64 (exact below 2^53).
MEAN_GUARD = 1e300
# numpy's rejection sampler is exact here; above, the normal approximation
# has relative error below 1e-6 per draw and cannot produce negatives.
POISSON_EXACT_MAX = 1e12
# Cells (mean x term) and values of k of one pass of the centered-moment sums.
MOMENT_PASS_CELLS = 2**20
# Above this mean, centered moments are the normal expansion (within 4e-12 of the sum).
MOMENT_SERIES_MAX = 1e9
# Above this order, P(2) 2^order alone overflows float64 at every positive mean.
MOMENT_ORDER_MAX = 3200.0
# Loader's stirlerr(k) = ln k! - (k ln k - k + ln sqrt(2 pi k)) for k = 1..15
_STIRLERR = np.array([0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
                      0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
                      0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
                      0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


# ---------------------------------------------------------------------------
# Parameter maps (picklable callables used by built-in rules and mean maps)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantMap:
    """z -> value as float64 of z's shape, ignoring z (a capacity, a bound or an environment-independent mean)."""

    value: float

    def __call__(self, z):
        return np.full(np.shape(z), self.value, dtype=float)

    def log(self, z: np.ndarray) -> np.ndarray:
        v = self.value  # as np.log: -inf at 0, NaN below 0 and at NaN
        return np.full(z.shape, math.log(v) if v > 0.0 else -math.inf if v == 0.0 else math.nan)


@dataclass(frozen=True)
class TableMap:
    """Piecewise-constant map of z: value[i] on [breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise ConfigurationError("TableMap needs len(values) == len(breakpoints) + 1")
        if list(self.breakpoints) != sorted(self.breakpoints):
            raise ConfigurationError("TableMap breakpoints must be sorted")

    def __call__(self, z):
        return np.asarray(self.values, dtype=float)[np.searchsorted(self.breakpoints, z, side="right")]


@dataclass(frozen=True)
class ExpMeanMap:
    """eta -> scale * exp(eta + shift); slope one in eta, so the walk
    increment of every built-in rule reduces to eta plus a constant.

    Past the double range the mean is inf, which trips the sampling
    guard; with ``scale == 0`` it is 0 everywhere, never ``0 * inf``.
    """

    scale: float = 1.0
    shift: float = 0.0

    def __call__(self, eta):
        if self.scale == 0.0:
            return np.zeros(np.shape(eta))
        with np.errstate(over="ignore"):
            return self.scale * np.exp(np.asarray(eta, dtype=float) + self.shift)

    def log(self, eta: np.ndarray) -> np.ndarray:
        if self.scale <= 0.0:
            return np.full(eta.shape, -np.inf)
        return math.log(self.scale) + eta + self.shift


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvironmentModel:
    """I.i.d. law of the environment values.

    ``normal`` is the built-in family; all absolute moments are finite,
    so every moment audit is well defined.  ``std = 0`` is the allowed
    degenerate point mass.
    """

    kind: str = "normal"
    mean: float = 0.0
    std: float = 0.5

    def __post_init__(self):
        if self.kind != "normal":
            raise ConfigurationError(f"unknown environment family {self.kind!r} (supported: normal)")
        if not (math.isfinite(self.mean) and math.isfinite(self.std)) or self.std < 0:
            raise ConfigurationError(f"normal environment needs finite mean and std >= 0, got mean={self.mean}, std={self.std}")

    def sample(self, stream: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` environment values, the one row of ``sample_rows``; deterministic given the stream state."""
        return self.sample_rows([stream], size)[0]

    def sample_rows(self, streams, width: int) -> np.ndarray:
        """One row per stream of ``width`` values, ``mean + std * standard_normal(width)`` formed in place."""
        z = np.empty((len(streams), width))
        for stream, row in zip(streams, z):
            stream.standard_normal(out=row)
        z *= self.std
        z += self.mean
        return z


# ---------------------------------------------------------------------------
# Offspring law
# ---------------------------------------------------------------------------


def _poisson_totals(lam: np.ndarray, top: float, stream: np.random.Generator) -> np.ndarray:
    """Offspring totals drawn for means already checked to lie in [0, MEAN_GUARD].

    A total is ``poisson(lam)`` up to ``POISSON_EXACT_MAX`` and
    ``rint(lam + sqrt(lam) * standard_normal())`` above, as float64.
    ``top`` is ``lam.max()``.  The draws are those of ``poisson(lam[small])``
    in C order, then normals for ``lam[big]``: a zero mean consumes no
    draw, so ``poisson`` over ``lam`` with the big means zeroed gives the
    small draws in place, and nothing when every mean is big.
    """
    if top <= POISSON_EXACT_MAX:
        return stream.poisson(lam).astype(float)
    big = lam > POISSON_EXACT_MAX
    lb = lam[big]
    out = stream.poisson(np.where(big, 0.0, lam)).astype(float)
    out[big] = np.rint(lb + np.sqrt(lb) * stream.standard_normal(lb.size))
    return out


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Loader's ``stirlerr(k)`` for an array of integers k >= 1: the table, and its Stirling series from 16."""
    k2 = k * k
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / k2) / k2) / k2) / k2) / k
    out[k < 16.0] = _STIRLERR[k[k < 16.0].astype(np.intp) - 1]
    return out


def _poisson_centered_abs_moments(lams: np.ndarray, order: float) -> np.ndarray:
    """E|X - lam|^order for X ~ Poisson(lam), elementwise over an array of means.

    ``order == 2`` returns the means (the variance); means <= 0 give 0, and every positive
    mean gives inf above ``MOMENT_ORDER_MAX``.  Means above ``MOMENT_SERIES_MAX`` give the
    normal expansion ``lam^(p/2) E|Z|^p (1 + p (p - 1) (p - 2) / (72 lam))``.  The others sum
    C. Loader's (2000) saddle-point terms ``exp(p ln|k - lam| - stirlerr(k) - bd0(k, lam) -
    ln sqrt(2 pi k))``, ``bd0 = k ln(k / lam) + lam - k``: no ``ln k!`` cancels against
    ``k ln lam``, and a sum is inf only where the moment overflows.  Largest first, in passes
    of at most ``MOMENT_PASS_CELLS`` (mean x term) cells and values of k, each mean sums from
    ``max(0, floor(lam) - h)`` as many terms as the pass's largest mean ``top``, up to
    ``min(floor(top) + h, max(top + 12 sqrt(top) + 20, 2 top + 10 order + 20))``, with
    ``h = 12 sqrt(top) + 10 order + 20``.  Until the term ratios at both ends bound the tails
    below 1e-16 of every sum, the pass is redone with ``h`` and the end doubled.
    """
    if order == 2.0:
        return lams
    if order > MOMENT_ORDER_MAX:
        return np.where(lams > 0.0, np.inf, 0.0)
    out, normal = np.zeros(lams.shape), lams > MOMENT_SERIES_MAX
    lam = lams[normal]
    with np.errstate(over="ignore"):  # E|Z|^p = 2^(p/2) Gamma((p + 1) / 2) / sqrt(pi); inf where the moment overflows
        out[normal] = (lam ** (0.5 * order) * np.exp(0.5 * order * math.log(2.0) + math.lgamma(0.5 * order + 0.5)
                       - 0.5 * math.log(math.pi)) * (1.0 + order * (order - 1.0) * (order - 2.0) / 72.0 / lam))
    pos = np.flatnonzero((lams > 0.0) & ~normal)
    pos = pos[np.argsort(lams.flat[pos])[::-1]]
    desc, start, grow = lams.flat[pos], 0, 1
    while start < pos.size:
        top = float(desc[start])
        h = grow * int(12.0 * math.sqrt(top) + 10.0 * order + 20.0)
        right = grow * int(max(top + 12.0 * math.sqrt(top) + 20.0, 2.0 * top + 10.0 * order + 20.0))
        width = min(int(top) + h, right) - max(0, int(top) - h) + 1
        k0 = np.maximum(np.floor(desc[start : start + max(1, MOMENT_PASS_CELLS // width)]) - h, 0.0)
        n = max(1, np.count_nonzero(k0 >= k0[0] + width - MOMENT_PASS_CELLS))
        k0, lam, j = k0[:n, None], desc[start : start + n, None], np.arange(width)
        k = k0 + j
        v = k + lam
        # bd0 = k ln(k / lam) + lam - k, with k ln(k / lam) 0 at k = 0 and taken as k (ln k - ln lam) below
        # lam = 1, where k / lam may overflow and the two logs do not cancel
        bd0 = np.log(k / np.maximum(lam, 1.0), out=np.zeros(k.shape), where=k > 0.0)
        bd0 -= np.log(np.minimum(lam, 1.0))
        bd0 *= k
        d = np.subtract(k, lam, out=k)
        bd0 -= d
        # that cancels near the mean: where v = d / (k + lam) lies in (-0.1, 0.1), bd0 is the series
        # d v (1 + v/3 + v^2/3 + v^3/5 + v^4/5 + ...), whose terms past v^16 are below 1e-17 of the sum
        np.divide(d, v, out=v)
        w = np.full(v.shape, 1.0 / 17.0)
        for i in range(15, -1, -1):  # Horner, from the coefficient 1/17 of v^16 down
            w *= v
            w += 1.0 / (2 * ((i + 1) // 2) + 1)
        w *= v
        w *= d
        np.copyto(bd0, w, where=np.abs(v, out=v) < 0.1)
        del v, w
        # plus stirlerr(k) + ln sqrt(2 pi k) = ln k! - (k ln k - k), 0 at k = 0, over the pass's values of k
        ks = np.arange(k0[-1, 0], k0[0, 0] + width)
        rest = np.zeros(ks.size)
        rest[ks > 0.0] = _stirlerr(ks[ks > 0.0]) + 0.5 * np.log(2.0 * math.pi * ks[ks > 0.0])
        bd0 += rest[(k0 - k0[-1]).astype(np.intp) + j]
        ratio = np.hstack((k0 / lam * (1.0 + 1.0 / np.maximum(lam - k0, h)) ** order,  # 0, not NaN, at k0 = 0
                           lam / (k0 + width) * (1.0 + 1.0 / (k0 + (width - 1) - lam)) ** order))
        # ln 0 at k = lam gives a 0 term; a term, a sum or a tail may overflow, and an inf sum is final
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            terms = np.log(np.abs(d, out=d), out=d)
            terms *= order
            terms -= bd0
            np.exp(terms, out=terms)
            sums, tails = terms.sum(axis=1, keepdims=True), terms[:, [0, -1]] * ratio
            done = (tails <= 1e-16 * sums * (1.0 - ratio)) | (sums == np.inf)
        del terms, d, k, bd0  # before the next pass allocates its cells
        if not np.all(done):
            grow *= 2
            continue
        out.flat[pos[start : start + n]] = sums[:, 0]
        start, grow = start + n, 1
    return out


@dataclass(frozen=True)
class OffspringModel:
    """Conditional bivariate law of one couple's (female, male) offspring.

    ``poisson``: components conditionally independent Poisson with means
    ``mean_f(eta)`` and ``mean_m(eta)``; totals over ``n_pairs`` couples
    are sampled exactly as single Poisson draws with mean
    ``n_pairs * mean`` (additivity), so the cost is independent of the
    couple count.  ``deterministic``: every couple produces exactly
    ``mean_f(eta)`` / ``mean_m(eta)`` offspring (integer-valued maps).
    """

    kind: str = "poisson"
    mean_f: Callable = ExpMeanMap()
    mean_m: Callable = ExpMeanMap()
    beta: float = 3.0

    def __post_init__(self):
        if self.kind not in ("poisson", "deterministic"):
            raise ConfigurationError(f"unknown offspring family {self.kind!r} (supported: poisson, deterministic)")
        if not self.beta > 1.0:
            raise ConfigurationError(f"beta must exceed 1, got {self.beta}")

    def means(self, eta) -> np.ndarray:
        """The female and male means at ``eta``, stacked as float64 of shape ``(2,) + eta.shape``.

        A negative or NaN mean is refused, and so is a non-integer mean of
        the deterministic family; an infinite one is left to the guards.
        """
        means = np.empty((2,) + np.shape(eta))
        means[0] = self.mean_f(eta)  # one map's output at a time
        means[1] = self.mean_m(eta)
        flat = means.reshape(2, -1)
        if not (flat >= 0.0).all():
            bad, text = ~(flat >= 0.0).all(axis=0), "negative or NaN conditional mean at eta={e}: ({f}, {m})"
        elif self.kind == "deterministic":
            with np.errstate(invalid="ignore"):  # an infinite mean gives NaN here, and passes
                bad = (np.abs(flat - np.round(flat)) > 1e-9).any(axis=0)
            text = "deterministic offspring needs integer means, got ({f}, {m}) at eta={e}"
        else:
            return means
        if bad.any():
            i = int(bad.argmax())
            raise ConfigurationError(text.format(e=np.ravel(eta)[i], f=flat[0, i], m=flat[1, i]))
        return means

    def totals(self, cur, means: np.ndarray, stream: np.random.Generator) -> tuple:
        """``(totals, drawn)``: the stacked female and male totals of ``cur`` couples at ``means`` (from ``means()``).

        ``drawn`` is None when every requested total ``lam = cur * means`` is at most ``MEAN_GUARD``;
        else it masks the columns drawn, leaving out those above the guard or NaN (``0 * inf``).
        The totals are ``_poisson_totals`` of the drawn ``lam``, or ``cur`` times the deterministic means.
        """
        lam = cur * means
        top, drawn = lam.max(), None
        if not top <= MEAN_GUARD:
            drawn = (lam <= MEAN_GUARD).all(axis=0)
            cur, means, lam = cur[drawn], np.broadcast_to(means, lam.shape)[:, drawn], lam[:, drawn]
            top = lam.max(initial=0.0)
        if self.kind == "poisson":
            return _poisson_totals(lam, top, stream), drawn
        return cur * np.round(means), drawn


# ---------------------------------------------------------------------------
# Mating rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CapacityMin:
    """min(x, y * d(z)), the capacity cast to ``dtype``: int64 for ``L``, float for ``g``."""

    d: Callable
    dtype: type

    def __call__(self, x, y, z):
        return np.minimum(x, y * np.asarray(self.d(z), dtype=self.dtype))


@dataclass(frozen=True)
class _MonogamousLogG:
    d: Callable

    def __call__(self, lx, ly, z):
        return np.minimum(lx, ly + np.log(np.asarray(self.d(z), dtype=float)))


@dataclass(frozen=True)
class _MaxOneOf:
    d: Callable

    def __call__(self, z):
        return np.maximum(1.0, self.d(z))


def _polygamous_l(x, y, z):
    return np.where(y >= 1, x, 0)


def _first(x, y, z):
    return np.asarray(x, dtype=float)


def _first_log(lx, ly, z):
    return lx


@dataclass(frozen=True)
class MatingRule:
    """Mating function with its approximation metadata.

    ``L`` maps (count, count, env) to a count; ``g`` is the real-valued
    approximant; ``lipschitz(z)`` its Lipschitz scale; ``rho(z)`` the
    residual scale; ``alpha`` the residual exponent in (0, 1), with
    ``delta = 1/alpha - 1``.  ``log_g``, when present, evaluates
    ``g`` in the log domain and keeps the walk increments exact for the
    built-in rules.  Every callable takes arrays and applies
    elementwise: ``L`` is called on whole arrays of counts (int64 or
    float64) and environment values, so a custom ``L`` must be written
    with numpy operations too.
    """

    L: Callable
    g: Callable
    lipschitz: Callable
    rho: Callable
    alpha: float = 0.5
    log_g: Optional[Callable] = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def delta(self) -> float:
        return 1.0 / self.alpha - 1.0

    def capacity(self, eta) -> Optional[np.ndarray]:
        """The built-in monogamous ``L``'s capacity over ``eta``, the float64 image of its own cast; else None.

        The step loops evaluate it once per window (per path for a bundle) and hand ``mate_array`` a column;
        any other ``L`` they call at each generation.
        """
        L = self.L
        return np.asarray(L.d(eta), dtype=L.dtype).astype(float) if isinstance(L, _CapacityMin) else None


def monogamous(d=1, alpha: float = 0.5) -> MatingRule:
    """min(x, y * d(z)); the approximant is the same map on the reals.

    ``d`` is a positive integer, or a ``ConstantMap`` or ``TableMap`` whose values are; any other callable is
    taken as given, ``L`` casting its values to int64 and ``g`` taking them as they are.
    """
    dmap = ConstantMap(float(d)) if isinstance(d, (int, float, np.number)) else d
    values = (dmap.value,) if isinstance(dmap, ConstantMap) else dmap.values if isinstance(dmap, TableMap) else ()
    if not all(v >= 1 and float(v).is_integer() for v in values):
        raise ConfigurationError("monogamous capacity d must be a positive integer")
    return MatingRule(
        L=_CapacityMin(dmap, np.int64),
        g=_CapacityMin(dmap, float),
        lipschitz=_MaxOneOf(dmap),
        rho=ConstantMap(1.0),
        alpha=alpha,
        log_g=_MonogamousLogG(dmap),
    )


def polygamous(alpha: float = 0.5) -> MatingRule:
    """x * min(1, y); approximated by g(x, y, z) = x."""
    return MatingRule(
        L=_polygamous_l,
        g=_first,
        lipschitz=ConstantMap(1.0),
        rho=ConstantMap(1.0),
        alpha=alpha,
        log_g=_first_log,
    )


def asexual(alpha: float = 0.5) -> MatingRule:
    """L(x, y, z) = x: ignores males, reducing to a one-sex process."""
    return MatingRule(
        L=_first,
        g=_first,
        lipschitz=ConstantMap(1.0),
        rho=ConstantMap(1.0),
        alpha=alpha,
        log_g=_first_log,
    )


def mate_array(rule: MatingRule, f: np.ndarray, m: np.ndarray, eta, d=None) -> np.ndarray:
    """``rule.L(f, m, eta)``, or ``min(f, m * d)`` given a column ``d`` of ``rule.capacity(eta)``."""
    return rule.L(f, m, eta) if d is None else np.minimum(f, m * d)


# ---------------------------------------------------------------------------
# Walk increments and noise scales
# ---------------------------------------------------------------------------


def _log_mean(mean_map: Callable, eta: np.ndarray) -> np.ndarray:
    if hasattr(mean_map, "log"):
        return mean_map.log(eta)
    return np.log(np.asarray(mean_map(eta), dtype=float))


def _log_g_at_means(rule: MatingRule, model: OffspringModel, eta) -> np.ndarray:
    """ln g at the conditional offspring means; -inf where g vanishes.

    Uses the log-domain form of ``g`` when available, which keeps the
    identity ``xi(eta) == eta`` exact for the canonical model instead of
    round-tripping through exp/log.
    """
    eta = np.asarray(eta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if rule.log_g is not None:
            return np.asarray(rule.log_g(_log_mean(model.mean_f, eta), _log_mean(model.mean_m, eta), eta), dtype=float)
        return np.log(np.asarray(rule.g(model.mean_f(eta), model.mean_m(eta), eta), dtype=float))


def walk_increments(rule: MatingRule, model: OffspringModel, eta) -> np.ndarray:
    """Walk increments ``xi(eta)`` over an environment array; a non-finite one is an error.

    A NaN increment is a configuration error (a negative or NaN mean, or a
    NaN approximant); an infinite one, a degenerate model.
    """
    xi = _log_g_at_means(rule, model, eta)
    if not np.all(np.isfinite(xi)):
        if np.isnan(xi).any():
            raise ConfigurationError("walk increment is NaN for some sampled environment values "
                                     "(a negative or NaN conditional mean, or a NaN approximant)")
        raise DegenerateModelError("walk increment is non-finite for some sampled environment values")
    return xi


def noise_scales(rule: MatingRule, model: OffspringModel, eta: np.ndarray, means: np.ndarray) -> tuple:
    """Per-step noise scale ``zeta`` and its components ``(omega1, omega2, omega3)``.

    ``zeta = ln+ (omega1 + omega2 + omega3)`` elementwise over an
    environment array; see the module docstring for the components.
    ``means`` is ``model.means(eta)``, built (and its bad means refused)
    by the caller; a non-finite ``omega1``, an infinite mean and a
    centered moment that overflows float64 are refused here.
    """
    p = 1.0 + rule.delta
    with np.errstate(over="ignore"):  # refused below
        w1 = np.asarray(rule.lipschitz(eta), dtype=float) ** p + np.asarray(rule.rho(eta), dtype=float) ** p
    if not np.all(np.isfinite(w1)):
        raise ConfigurationError(f"the Lipschitz and residual scales to the order {p:g} are not finite")
    w1 = np.broadcast_to(w1, eta.shape)
    if not np.all(means < np.inf):
        raise ConfigurationError("infinite conditional mean in the noise scale")
    w2 = means[0] + means[1]
    moments = np.zeros(means.shape) if model.kind == "deterministic" else _poisson_centered_abs_moments(means, p)
    if not np.all(np.isfinite(moments)):
        raise ConfigurationError(f"the Poisson centered moment of order {p:g} overflows float64")
    cf, cm = moments
    zeta = w1 + w2  # then + cf, + cm, ln and the max with 0, in one buffer
    zeta += cf
    zeta += cm
    np.maximum(0.0, np.log(zeta, out=zeta), out=zeta)
    return zeta, w1, w2, cf + cm


def analytic_sigma_xi(rule: MatingRule, env: EnvironmentModel, model: OffspringModel) -> Optional[float]:
    """Exact std of the walk increment when it is eta plus a constant, read from the built-in log forms of ``g``.

    ``ln g = ln x`` (polygamous, asexual) needs ``mean_f`` to be an
    ``ExpMeanMap`` of scale > 0, and ``min(ln x, ln y + ln d)`` with a
    ``ConstantMap`` capacity ``d > 0`` (monogamous) needs both means to be.
    Any other ``log_g`` returns None: Monte Carlo is required.
    """
    log_g = rule.log_g
    if log_g is _first_log:
        means = (model.mean_f,)
    elif isinstance(log_g, _MonogamousLogG) and isinstance(log_g.d, ConstantMap) and log_g.d.value > 0:
        means = (model.mean_f, model.mean_m)
    else:
        return None
    return env.std if all(isinstance(mean, ExpMeanMap) and mean.scale > 0 for mean in means) else None


# ---------------------------------------------------------------------------
# Condition checks and audit report
# ---------------------------------------------------------------------------

_MAX_WITNESSES = 10
# C1-C4 evaluate their rule over consecutive slices of this many samples.
_CHECK_CHUNK = 8192
# C1 draws its counts from 0 to _SUPERADDITIVITY_COUNT_RANGE.
_SUPERADDITIVITY_COUNT_RANGE = 50
# C2 and C3 draw the approximant's arguments uniformly from [0, _BOX).
_BOX = 100.0
# C4 draws its counts from 0 to _RESIDUAL_COUNT_RANGE.
_RESIDUAL_COUNT_RANGE = 1000


@dataclass
class ConditionCheck:
    """Verdict for one condition: pass, fail (with witnesses), or estimated."""

    condition: str
    verdict: str
    witnesses: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("pass", "fail", "estimated"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and not self.witnesses:
            raise ValueError("a fail verdict must carry at least one witness tuple")


@dataclass
class ConditionReport:
    """Per-condition verdicts plus the Monte Carlo moment estimates."""

    checks: dict
    moment_estimates: dict

    def verdict(self, condition: str) -> str:
        return self.checks[condition].verdict

    def witnesses(self, condition: str) -> list:
        return self.checks[condition].witnesses

    def to_dict(self) -> dict:
        return {
            "conditions": {
                name: {
                    "verdict": chk.verdict,
                    "witnesses": [[_py(v) for v in w] for w in chk.witnesses],
                    "detail": {k: _py(v) for k, v in chk.detail.items()},
                }
                for name, chk in sorted(self.checks.items())
            },
            "moment_estimates": {k: _py(v) for k, v in self.moment_estimates.items()},
        }


def _py(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _verdict(condition: str, n: int, evaluate: Callable, casts: tuple, detail: dict) -> ConditionCheck:
    """A sampled check's verdict; ``evaluate(s)`` gives the violation mask and columns of the samples in slice ``s``.

    The slices are consecutive, of ``_CHECK_CHUNK`` of the ``n`` samples.  The first ``_MAX_WITNESSES`` violations
    are the witnesses: one entry of each column, cast by the matching entry of ``casts`` (``int`` or ``float``).
    ``detail`` gains the violation count.
    """
    witnesses, violations = [], 0
    for start in range(0, n, _CHECK_CHUNK):
        mask, columns = evaluate(slice(start, start + _CHECK_CHUNK))
        bad = np.flatnonzero(mask)
        violations += bad.size
        witnesses += [tuple(cast(col[i]) for cast, col in zip(casts, columns))
                      for i in bad[: _MAX_WITNESSES - len(witnesses)]]
    return ConditionCheck(condition, "fail" if violations else "pass", witnesses, {**detail, "violations": violations})


def check_superadditivity(
    rule: MatingRule,
    trials: int,
    stream: np.random.Generator,
    env_model: EnvironmentModel,
) -> ConditionCheck:
    """Sampled superadditivity check L(x+u, y+v, z) >= L(x,y,z) + L(u,v,z)."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    pts = stream.integers(0, _SUPERADDITIVITY_COUNT_RANGE + 1, size=(trials, 4), dtype=np.int32)
    z = env_model.sample(stream, trials)
    def evaluate(s):
        x, y, u, v = (pts[s, i].astype(np.int64) for i in range(4))
        lhs = rule.L(x + u, y + v, z[s])
        rhs = rule.L(x, y, z[s]) + rule.L(u, v, z[s])
        return lhs < rhs, (x, y, u, v, z[s], lhs, rhs)

    return _verdict("C1", trials, evaluate, (int,) * 4 + (float, int, int),
                    {"trials": trials, "count_range": _SUPERADDITIVITY_COUNT_RANGE})


def check_lipschitz(
    rule: MatingRule,
    trials: int,
    stream: np.random.Generator,
    env_model: EnvironmentModel,
) -> ConditionCheck:
    """Sampled check |g(x,y,z) - g(u,v,z)| <= lipschitz(z) (|x-u| + |y-v|)."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    pts = stream.uniform(0.0, _BOX, size=(trials, 4))
    z = env_model.sample(stream, trials)
    def evaluate(s):
        x, y, u, v = (pts[s, i] for i in range(4))
        lhs = np.abs(rule.g(x, y, z[s]) - rule.g(u, v, z[s]))
        lam = np.broadcast_to(np.asarray(rule.lipschitz(z[s]), dtype=float), lhs.shape)
        rhs = lam * (np.abs(x - u) + np.abs(y - v))
        return lhs > rhs + 1e-12 * (1.0 + rhs), (x, y, u, v, z[s], lhs, rhs)

    return _verdict("C2", trials, evaluate, (float,) * 7, {"trials": trials, "box": _BOX})


def check_homogeneity(
    rule: MatingRule,
    trials: int,
    stream: np.random.Generator,
    env_model: EnvironmentModel,
) -> ConditionCheck:
    """Sampled positive-homogeneity check g(t x, t y, z) == t g(x, y, z)."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    x = stream.uniform(0.0, _BOX, size=trials)
    y = stream.uniform(0.0, _BOX, size=trials)
    t = stream.uniform(0.0, 10.0, size=trials)
    z = env_model.sample(stream, trials)
    def evaluate(s):
        tg = t[s] * rule.g(x[s], y[s], z[s])
        lhs = np.abs(rule.g(t[s] * x[s], t[s] * y[s], z[s]) - tg)
        return lhs > 1e-12 * (1.0 + np.abs(tg)), (x[s], y[s], t[s], z[s], lhs)

    return _verdict("C3", trials, evaluate, (float,) * 5, {"trials": trials, "box": _BOX})


def check_approximation(
    rule: MatingRule,
    grid: int,
    stream: np.random.Generator,
    env_model: EnvironmentModel,
) -> ConditionCheck:
    """Sampled residual check |L - g| <= rho(z) (x + y)^alpha on x + y >= 1.

    The ratio is undefined at the origin and the bound trivial there, so
    sampling is restricted to x + y >= 1.
    """
    if grid < 1:
        raise ConfigurationError("grid must be >= 1")
    xs = stream.integers(0, _RESIDUAL_COUNT_RANGE + 1, size=grid, dtype=np.int32)
    ys = stream.integers(0, _RESIDUAL_COUNT_RANGE + 1, size=grid, dtype=np.int32)
    ys[(xs + ys) == 0] = 1
    z = env_model.sample(stream, grid)
    tops = []
    def evaluate(s):
        x, y = xs[s].astype(np.int64), ys[s].astype(np.int64)
        resid = np.abs(rule.L(x, y, z[s]) - rule.g(x.astype(float), y.astype(float), z[s]))
        scale = (x + y).astype(float) ** rule.alpha
        ratio = resid / scale
        bound = np.broadcast_to(np.asarray(rule.rho(z[s]), dtype=float), ratio.shape)
        tops.append(ratio.max())
        return ratio > bound * (1.0 + 1e-12), (x, y, z[s], resid, bound * scale)

    check = _verdict("C4", grid, evaluate, (int, int, float, float, float),
                     {"grid": grid, "count_range": _RESIDUAL_COUNT_RANGE})
    check.detail["max_ratio"] = float(np.max(tops))
    return check


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return mean, se


def audit_conditions(
    rule: MatingRule,
    env_model: EnvironmentModel,
    offspring_model: OffspringModel,
    samples: int,
    stream: np.random.Generator,
) -> ConditionReport:
    """Run every executable condition check and the moment audits.

    C1-C4 are sampled pass/fail checks with witnesses; C5 is decided
    analytically for the built-in offspring families; C6 reports Monte
    Carlo moment estimates with standard errors (finiteness itself is
    not decidable by sampling, so the verdict is ``estimated``); C7 is
    the criticality verdict |mean| <= 4 SE on the walk increment.
    """
    if samples < 100:
        raise ConfigurationError(f"audit needs samples >= 100, got {samples}")
    sampled = min(samples, 100_000)
    checks = {
        "C1": check_superadditivity(rule, sampled, stream, env_model),
        "C2": check_lipschitz(rule, sampled, stream, env_model),
        "C3": check_homogeneity(rule, sampled, stream, env_model),
        "C4": check_approximation(rule, sampled, stream, env_model),
    }
    checks["C5"] = ConditionCheck(
        condition="C5",
        verdict="pass",
        detail={
            "beta": offspring_model.beta,
            "family": offspring_model.kind,
            "reason": "all conditional moments of the built-in offspring families are finite",
        },
    )

    # each moment array is reduced as soon as it exists, and dropped
    eta = env_model.sample(stream, size=samples)
    xi = walk_increments(rule, offspring_model, eta)
    p_beta = 1.0 + offspring_model.beta
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        mean_xi, se_mean = _mean_se(xi)
        centered2 = (xi - mean_xi) ** 2
        var_xi = float(centered2.mean())
        se_var = float(np.sqrt(max(float((centered2**2).mean()) - var_xi**2, 0.0) / samples))
        del centered2
        abs_xi, se_abs_xi = _mean_se(np.abs(xi) ** p_beta)
    del xi
    # zeta needs per-eta centered moments; cap the subsample when the
    # moment order forces the series evaluation
    zeta_n = samples if 1.0 + rule.delta == 2.0 else min(samples, 20_000)
    zeta, *omegas = noise_scales(rule, offspring_model, eta[:zeta_n], offspring_model.means(eta[:zeta_n]))
    del eta
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        w1, w2, w3 = (float(w.mean()) for w in omegas)
        del omegas
        abs_zeta, se_abs_zeta = _mean_se(np.abs(zeta) ** p_beta)
        moments = {
            "mean_xi": mean_xi,
            "mean_xi_se": se_mean,
            "var_xi": var_xi,
            "var_xi_se": se_var,
            "abs_xi_moment": abs_xi,
            "abs_xi_moment_se": se_abs_xi,
            "abs_zeta_moment": abs_zeta,
            "abs_zeta_moment_se": se_abs_zeta,
            "omega1_mean": w1,
            "omega2_mean": w2,
            "omega3_mean": w3,
            "moment_order": p_beta,
        }
    if not np.all(np.isfinite(list(moments.values()))):
        raise ConfigurationError(f"a moment estimate of the audit (order {p_beta:g}) overflows float64")

    checks["C6"] = ConditionCheck(
        condition="C6",
        verdict="estimated",
        detail={"samples": samples, "zeta_samples": zeta_n, **{key: moments[key] for key in (
            "abs_xi_moment", "abs_xi_moment_se", "abs_zeta_moment", "abs_zeta_moment_se", "moment_order")}},
    )

    critical = abs(mean_xi) <= 4.0 * se_mean
    checks["C7"] = ConditionCheck(
        condition="C7",
        verdict="pass" if critical else "fail",
        witnesses=[] if critical else [(mean_xi, 4.0 * se_mean)],
        detail={"mean_xi": mean_xi, "se": se_mean},
    )

    return ConditionReport(checks=checks, moment_estimates=moments)
