"""Lockstep replicate blocks, extinction times, coupled process/walk runs and frozen bundles.

``run_block`` is the one process engine: every ``experiment``,
``coupled`` and ``simulate`` sweep evolves its replicates through it, in
blocks, one generation at a time, as float64 arrays.  A generation
reads each live replicate's environment value, draws its two
offspring totals (one Poisson draw per sex at the couple count times
the conditional mean, by additivity) and mates them.  Zero couples is
absorbing; an offspring mean beyond the sampling guard tags the
replicate as overflowed.

A replicate's environment path is the first child of its own stream.
A coupled run first scans it for the walk's hitting step and rewinds
it; the process then reads it only while it is alive.  The block's
offspring draws come from one shared stream, so a replicate's walk and
hitting step do not depend on how much offspring randomness the block
consumes.

A coupled block also records the hitting step, the couple counts at
the hitting step and ``k`` steps later with
``k = floor(epsilon * ln^2 N)``, and the extinction step.

``run_frozen_bundle`` runs many offspring randomizations over a single
frozen environment path, drawn by the block's sampling rules, and
estimates as it steps the environment-conditional ratios behind the
step-residual, conditional-mean, and accumulated-error bounds,

    r2_n = E|R_n|^(1+delta) / (e^zeta_n  E N_{n-1}),
    r3_n = E N_n / (e^xi_n  E N_{n-1}),
    r4_n = E|N_n - N0 e^{S_n}|^(1+delta)
           / (n^delta N0 e^{S_n} sum_{i<=n} e^{zeta_i - xi_i + delta (S_n - S_i)}),

where R_n = N_n - N_{n-1} e^{xi_n} uses the model's analytic increment,
never realized offspring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, OverflowGuardError
from .model import (
    MEAN_GUARD,
    EnvironmentModel,
    MatingRule,
    OffspringModel,
    _log_g_at_means,
    _poisson_totals,
    mate_array,
    noise_scales,
    walk_increments,
)
from .walk import HittingSpec, window_steps

__all__ = [
    "BlockRun",
    "run_block",
    "run_frozen_bundle",
    "DiagnosticTable",
]

# ---------------------------------------------------------------------------
# Lockstep replicate blocks
# ---------------------------------------------------------------------------

RECORDING_MODES = ("terminal", "sparse", "full")


def _record_stride(n0: int, recording: str) -> Optional[int]:
    if recording not in RECORDING_MODES:
        raise ConfigurationError(f"unknown recording mode {recording!r} (choose from {RECORDING_MODES})")
    if recording == "full":
        return 1
    if recording == "sparse":
        return max(1, math.ceil(math.log(max(n0, 2))))
    return None


# Environment values a block holds at a time: a window spans this many
# divided by the live replicates (16 generations for a full block).
ENV_WINDOW_CELLS = 2**14
# Walk values a coupled block's hitting-step scan draws per round, shared
# by the replicates that have not hit yet.
SCAN_CELLS = 2**16

# One recorded step of a block run; the names are the trajectory CSV columns.
STEP_DTYPE = np.dtype(
    [
        ("replicate_id", np.int64),
        ("n", np.int64),
        ("eta", float),
        ("F_total", float),
        ("M_total", float),
        ("N", float),
        ("xi", float),
        ("S", float),
        ("R", float),
    ]
)


@dataclass(frozen=True)
class BlockRun:
    """Per-replicate outcomes of one block, indexed by position in the block.

    ``tau`` and ``theta`` are -1 where absent; ``overflow_step`` is the
    step that tripped the overflow guard, 0 if none; ``n_theta`` and
    ``n_theta_plus_k`` are NaN where unobserved (see ``run_block``).
    ``steps`` holds the recorded steps (``STEP_DTYPE``, with
    ``replicate_id`` the block position), replicate-major and in step
    order within a replicate, with none of an overflow-tagged
    replicate's.  The steps are held once: ``run_block`` appends each
    recorded generation to one byte buffer and ``_place_steps`` puts
    the rows in replicate order in place, so ``steps`` is a view of
    that buffer.
    """

    tau: np.ndarray
    overflow_step: np.ndarray
    steps_run: np.ndarray
    theta: np.ndarray
    n_theta: np.ndarray
    n_theta_plus_k: np.ndarray
    steps: np.ndarray


def _checked_means(offspring_model: OffspringModel, means: np.ndarray, e: np.ndarray) -> None:
    """Raise the sampling error for a negative, NaN or (deterministic) non-integer mean.

    ``means`` stacks the female and male means of the replicates whose
    environment values are ``e``.
    """
    bad = (means < 0).any(axis=0)
    if bad.any():
        i = int(bad.argmax())
        raise ConfigurationError(f"negative conditional mean at eta={e[i]}: ({means[0, i]}, {means[1, i]})")
    if np.isnan(means).any():
        raise ValueError("negative or NaN offspring mean")
    if offspring_model.kind == "deterministic":
        bad = (np.abs(means - np.round(means)) > 1e-9).any(axis=0)
        if bad.any():
            i = int(bad.argmax())
            raise ConfigurationError(
                f"deterministic offspring needs integer means, got ({means[0, i]}, {means[1, i]}) at eta={e[i]}"
            )


def _offspring_totals(offspring_model: OffspringModel, cur: np.ndarray, means: np.ndarray, lam: np.ndarray,
                      top: float, e: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """The stacked female and male totals of ``cur`` couples, ``lam = cur * means`` checked against the guard.

    Poisson totals (``_poisson_totals``, with ``top = lam.max()``), or
    ``cur`` times the deterministic means, which must be integers.
    """
    if offspring_model.kind == "poisson":
        return _poisson_totals(lam, top, stream)
    _checked_means(offspring_model, means, e)
    return cur * np.round(means)


def _hitting_steps(
    rule: MatingRule,
    env_model: EnvironmentModel,
    offspring_model: OffspringModel,
    spec: HittingSpec,
    env_streams: list,
) -> np.ndarray:
    """Each stream's hitting step, -1 if censored, as ``hitting_time`` finds it; the streams end where they began.

    The walks of the replicates that have not hit yet are drawn in rounds
    of ``SCAN_CELLS`` values, each round continuing every walk from its
    running sum, so a walk is drawn only up to the round that holds its
    hitting step (to the cap if censored).  ``cumsum`` adds left to
    right, so the sums are bit for bit those of the whole-path
    ``cumsum``; a non-finite increment is an error only within the
    values drawn.
    """
    states = [s.bit_generator.state for s in env_streams]
    theta = np.full(len(env_streams), -1, dtype=np.int64)
    rows = np.arange(len(env_streams))  # block positions still scanning
    carry = np.zeros(len(env_streams))  # their walk sums so far
    done = 0
    while rows.size and done < spec.max_steps:
        width = min(max(1, SCAN_CELLS // rows.size), spec.max_steps - done)
        eta = env_model.sample_rows([env_streams[i] for i in rows.tolist()], width)
        xi = walk_increments(rule, offspring_model, eta)
        sums = np.cumsum(np.concatenate([carry[:, None], xi], axis=1), axis=1)[:, 1:]
        hit = sums <= spec.threshold
        got = hit.any(axis=1)
        theta[rows[got]] = done + 1 + hit[got].argmax(axis=1)
        rows, carry = rows[~got], sums[~got, -1]
        done += width
    for s, state in zip(env_streams, states):
        s.bit_generator.state = state
    return theta


def run_block(
    rule: MatingRule,
    env_model: EnvironmentModel,
    offspring_model: OffspringModel,
    n0: int,
    max_steps: int,
    env_streams: list,
    stream: np.random.Generator,
    epsilon: Optional[float] = None,
    recording: str = "terminal",
) -> BlockRun:
    """Evolve a block of replicates in lockstep, one generation at a time.

    Replicate ``i`` reads its environment path from ``env_streams[i]``
    (consumed), in windows of ``ENV_WINDOW_CELLS`` values shared by the
    live replicates and only while its process is alive, so no array
    of shape (block, max_steps) is held.  All offspring draws of the
    block come from ``stream``.  Counts are float64, exact below 2^53,
    and follow the sampling rules element by element: one Poisson draw
    per sex with mean count times conditional mean, the normal
    approximation above ``POISSON_EXACT_MAX``, an overflow tag for the
    replicate whose requested total exceeds ``MEAN_GUARD``, errors for
    negative, NaN or non-integer deterministic means, and absorption
    at 0.

    With ``epsilon`` the block is a coupled run: the replicates' walks
    are first scanned for their hitting steps (``_hitting_steps``, the
    steps ``walk.hitting_time`` finds on the whole-cap walk), then the
    streams are rewound for the process.  ``theta`` is dropped (-1) at
    or after an overflow step.  The count at ``theta`` or ``theta + k``
    is 0 after ``tau`` by absorption and NaN past the cap while the
    process is alive or at or after an overflow step.  A coupled
    replicate's ``steps_run`` is ``max(tau, theta)`` once the process
    is extinct and the walk has hit, else the cap; without ``epsilon``
    the run is extinction only and ``steps_run`` is ``tau``, else the
    cap.  An overflow step overrides both.
    """
    if n0 < 1:
        raise ConfigurationError(f"n0 must be >= 1, got {n0}")
    if max_steps < 1:
        raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
    stride = _record_stride(n0, recording)
    size = len(env_streams)
    theta = np.full(size, -1, dtype=np.int64)
    k = 0
    if epsilon is not None:
        if n0 < 3:
            raise ConfigurationError(f"coupled runs need n0 >= 3, got {n0}")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        k = window_steps(n0, epsilon)
        spec = HittingSpec(n0=n0, beta=offspring_model.beta, max_steps=max_steps)
        theta = _hitting_steps(rule, env_model, offspring_model, spec, env_streams)
    # the steps whose counts a coupled run reports; -1 never matches
    tgt = np.where(theta[:, None] >= 0, theta[:, None] + np.array([0, k]), -1)
    observed = np.full((size, 2), np.nan)
    tau = np.full(size, -1, dtype=np.int64)
    overflow_step = np.zeros(size, dtype=np.int64)
    recorded = bytearray()  # the recorded STEP_DTYPE rows, generation-major

    # These arrays and the window arrays hold one row per live replicate
    # (means_w: female/male first, then replicate), so a generation reads
    # column j of the window as a plain view; a replicate's row is dropped
    # when it dies or overflows.
    rows = np.arange(size)  # block positions
    cur = np.full(size, float(n0))
    walk_sum = np.zeros(size)

    def compact(keep: np.ndarray) -> None:
        nonlocal rows, cur, tgt, eta, means_w, d_w, xi_w, s_w
        rows, cur, tgt, eta, means_w = rows[keep], cur[keep], tgt[keep], eta[keep], means_w[:, keep]
        if d_w is not None:
            d_w = d_w[keep]
        if stride is not None:
            xi_w, s_w = xi_w[keep], s_w[keep]

    first = 0
    while first < max_steps and rows.size:
        width = min(max(1, ENV_WINDOW_CELLS // rows.size), max_steps - first)
        eta = env_model.sample_rows([env_streams[i] for i in rows.tolist()], width)
        means_w = np.array([offspring_model.mean_f(eta), offspring_model.mean_m(eta)], dtype=float)
        # the monogamous capacity, as the float64 image of mate_array's int64 cast
        d_w = np.asarray(rule.d(eta), dtype=np.int64).astype(float) if rule.kind == "monogamous" else None
        # without a negative mean in the window every lam is >= 0 or NaN, and
        # a NaN fails the guard test below
        nonneg = means_w.min() >= 0.0
        if stride is not None:
            xi_w = _log_g_at_means(rule, offspring_model, eta)
            s_w = np.cumsum(np.concatenate([walk_sum[:, None], xi_w], axis=1), axis=1)[:, 1:]
        pending = set(tgt[(tgt > first) & (tgt <= first + width)].tolist())
        for j in range(width):
            n = first + j + 1
            means = means_w[:, :, j]
            lam = cur * means
            top = lam.max()
            if not (top <= MEAN_GUARD and (nonneg or lam.min() >= 0.0)):
                _checked_means(offspring_model, means, eta[:, j])
                ok = ~(lam > MEAN_GUARD).any(axis=0)
                overflow_step[rows[~ok]] = n
                compact(ok)
                if rows.size == 0:
                    break
                means, lam = means_w[:, :, j], lam[:, ok]
                top = lam.max()
            e = eta[:, j]
            f, m = _offspring_totals(offspring_model, cur, means, lam, top, e, stream)
            nxt = np.asarray(mate_array(rule, f, m, e, None if d_w is None else d_w[:, j]), dtype=float)
            died = np.count_nonzero(nxt) < nxt.size
            dead = nxt == 0 if died else None
            if stride is not None and (n % stride == 0 or n == max_steps or died):
                keep = slice(None) if n % stride == 0 or n == max_steps else dead
                rec = np.empty(nxt[keep].size, dtype=STEP_DTYPE)
                x = xi_w[keep, j]
                rec["replicate_id"] = rows[keep]
                rec["n"] = n
                rec["eta"] = e[keep]
                rec["F_total"] = f[keep]
                rec["M_total"] = m[keep]
                rec["N"] = nxt[keep]
                rec["xi"] = x
                rec["S"] = s_w[keep, j]
                rec["R"] = nxt[keep] - cur[keep] * np.exp(x)
                recorded += rec.data
            if n in pending:
                at, which = np.nonzero(tgt == n)
                observed[rows[at], which] = nxt[at]
            cur = nxt
            if died:
                tau[rows[dead]] = n
                compact(~dead)
                if rows.size == 0:
                    break
        if stride is not None:
            walk_sum = s_w[:, -1]
        first += width

    if epsilon is None:
        ended = np.where(tau >= 0, tau, max_steps)
    else:
        # the run ends once the process is extinct and the walk has hit
        ended = np.where((theta >= 0) & (tau >= 0), np.maximum(tau, theta), max_steps)
        theta = np.where((overflow_step == 0) | (theta < overflow_step), theta, -1)
        # a count after tau is 0 by absorption; past the cap or at/after an overflow it is unobserved
        observed[np.isnan(observed) & (tau >= 0)[:, None]] = 0.0
        observed[theta < 0] = np.nan
    steps_run = np.where(overflow_step > 0, overflow_step, ended)
    return BlockRun(
        tau=tau,
        overflow_step=overflow_step,
        steps_run=steps_run,
        theta=theta,
        n_theta=observed[:, 0],
        n_theta_plus_k=observed[:, 1],
        steps=_place_steps(recorded, overflow_step),
    )


def _place_steps(recorded: bytearray, overflow_step: np.ndarray) -> np.ndarray:
    """The ``STEP_DTYPE`` rows of ``recorded`` (generation-major), replicate-major, overflow-tagged dropped.

    The rows are put in order in place, one field at a time: a stable
    sort by replicate keeps each replicate's rows in generation order,
    and the only other memory is the row order and one field's copy.
    The result is a view of ``recorded``.
    """
    steps = np.frombuffer(recorded, dtype=STEP_DTYPE)
    ids = steps["replicate_id"]
    order = np.argsort(ids, kind="stable")
    if overflow_step.any():
        order = order[overflow_step[ids[order]] == 0]
    for name in STEP_DTYPE.names:
        col = steps[name]
        col[: order.size] = col[order]
    return steps[: order.size]


# ---------------------------------------------------------------------------
# Frozen-environment bundles and ratio diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticTable:
    """Per-step diagnostic ratios over one frozen-environment bundle."""

    n0: int
    n: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r3_se: np.ndarray
    r4: np.ndarray
    replicates: int


def run_frozen_bundle(
    rule: MatingRule,
    env_model: EnvironmentModel,
    offspring_model: OffspringModel,
    n0: int,
    steps: int,
    replicates: int,
    stream: np.random.Generator,
) -> DiagnosticTable:
    """Draw one environment path, evolve ``replicates`` processes on it, and estimate the ratios as they step.

    The bundle holds one float64 row of counts, one entry per replicate,
    and draws each generation by ``run_block``'s rules
    (``_offspring_totals``).  A requested total above ``MEAN_GUARD``
    raises ``OverflowGuardError`` instead of tagging the replicate:
    dropping it would bias the ratios.  Rows are drawn whole: an extinct
    replicate has Poisson mean 0, which draws nothing from the stream,
    and stays extinct even under a rule with ``L(0, 0) > 0``.  Steps
    whose bundle-average parent count is zero yield NaN ratios (nothing
    left to condition on), so the loop stops once every replicate is
    extinct.  The r3 standard error is the linearized ratio-estimator
    error.
    """
    if replicates < 2:
        raise ConfigurationError("frozen bundles need at least 2 replicates")
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    env_rng, off_rng = stream.spawn(2)
    eta = np.asarray(env_model.sample(env_rng, size=steps), dtype=float)
    xi = walk_increments(rule, offspring_model, eta)
    S = np.cumsum(xi)
    zeta = noise_scales(rule, offspring_model, eta)[0]
    delta = rule.delta
    p = 1.0 + delta
    r2, r3, r3_se, r4 = (np.full(steps, np.nan) for _ in range(4))
    prev = np.full(replicates, float(n0))
    for j in range(1, steps + 1):
        mean_prev = prev.mean()
        if mean_prev <= 0.0:
            break
        e = float(eta[j - 1])
        means = np.array([[offspring_model.mean_f(e)], [offspring_model.mean_m(e)]], dtype=float)
        lam = prev * means
        top = lam.max()
        if not (top <= MEAN_GUARD and lam.min() >= 0.0):
            _checked_means(offspring_model, means, eta[j - 1 : j])
            raise OverflowGuardError(f"bundle scale too large: an offspring total at step {j} exceeds {MEAN_GUARD:g}")
        f, m = _offspring_totals(offspring_model, prev, means, lam, top, eta[j - 1 : j], off_rng)
        cur = np.where(prev > 0, mate_array(rule, f, m, e), 0.0)
        growth = math.exp(float(xi[j - 1]))
        resid = cur - prev * growth
        r2[j - 1] = float(np.mean(np.abs(resid) ** p)) / (math.exp(float(zeta[j - 1])) * mean_prev)
        ratio = cur.mean() / (growth * mean_prev)
        r3[j - 1] = ratio
        dev = cur - ratio * growth * prev
        r3_se[j - 1] = math.sqrt(float(np.mean(dev**2)) / replicates) / (growth * mean_prev)
        acc = float(np.sum(np.exp(zeta[:j] - xi[:j] + delta * (S[j - 1] - S[:j]))))
        err = cur - n0 * math.exp(float(S[j - 1]))
        denom = (j**delta) * n0 * math.exp(float(S[j - 1])) * acc
        r4[j - 1] = float(np.mean(np.abs(err) ** p)) / denom
        prev = cur
    return DiagnosticTable(n0=n0, n=np.arange(1, steps + 1), r2=r2, r3=r3, r3_se=r3_se, r4=r4, replicates=replicates)
