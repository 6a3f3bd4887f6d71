"""Experiment orchestration and inference.

Runs coupled replicate sweeps over a grid of initial couple counts,
compares the scaled extinction and hitting times against the
first-passage reference law via one-sample Kolmogorov-Smirnov
distances, tabulates the hitting-window survival frequencies, and
aggregates the frozen-bundle ratio diagnostics.

Every replicate sweep (``run_replicates``, behind ``coupled`` and
``experiment``, and ``run_extinction_records``, behind ``simulate``)
runs through one function, ``_sweep``.  Its result is the block engine's
own: one ``simulator.BlockRun`` per grid point, its blocks' per-replicate
arrays joined in replicate order, so an array position is the replicate
index, and its blocks' recorded steps kept as they are, one array per
block in block order.  The summaries and the CSV writers read those
arrays directly.

Censoring: runs that hit the step cap are right-censored.  They are
counted, never dropped: the empirical distribution function uses the
total replicate count in its denominator and jumps only at uncensored
values, so it is exact on [0, cap] and the KS distance is the exact
sup-distance over that window.  The reference law itself is heavy
tailed (no mean), so for sigma near 0.5 about a fifth of the limit mass
lies beyond the default cap of 50 ln^2 N; an experiment aborts only
when observed censoring exceeds the law-implied tail mass plus slack.

Determinism: replicates run in lockstep blocks of ``BLOCK``.  Each
replicate's environment is keyed by (master seed, grid index, replicate
index), each block's offspring draws by (master seed, grid index,
``OFFSPRING_BLOCK_KEY``, block index); blocks, of every grid point at
once, are the unit of work of the worker processes, which start the
largest blocks (step cap times replicates) first; results are joined in
(grid, block) order, so reruns and thread-count changes reproduce
outputs byte for byte.  A grid point whose replicates are all
overflow-tagged is refused before any grid point is summarized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .config import read_int, read_real
from .errors import ConfigurationError, ExcessCensoringError, OverflowGuardError
from .limit_law import FirstPassageLaw
from .model import (
    EnvironmentModel,
    MatingRule,
    OffspringModel,
    analytic_sigma_xi,
    audit_conditions,
    walk_increments,
)
from .rng import derive_stream
from .simulator import STEP_DTYPE, BlockRun, run_block, run_frozen_bundle
from .walk import default_max_steps, window_steps

__all__ = [
    "ks_statistic",
    "ExperimentConfig",
    "SummaryRow",
    "SummaryReport",
    "run_experiment",
    "run_replicates",
    "run_extinction_records",
    "write_replicates_csv",
    "LemmaSweepConfig",
    "LemmaSweep",
    "lemma_bound_sweep",
    "loglog_slope",
]

AUDIT_STREAM_KEY = 2**31
SIGMA_STREAM_KEY = 2**31 + 1
# Block b of grid point g draws its offspring from (seed, g, OFFSPRING_BLOCK_KEY, b).
OFFSPRING_BLOCK_KEY = 2**31 + 2
# Replicates per lockstep block: fixed, so that results never depend on --threads.
BLOCK = 1024
CENSORING_SLACK = 0.05
# Walk increments drawn for the Monte Carlo sigma when no analytic value exists.
SIGMA_MC_SAMPLES = 1_000_000
# Environment samples of an experiment's condition audit.
AUDIT_SAMPLES = 100_000


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def ks_statistic(samples: Sequence[float], law: FirstPassageLaw, n_total: Optional[int] = None) -> float:
    """One-sample KS distance, evaluated exactly at the jump points.

    With ``n_total`` larger than the sample size the samples are treated
    as the uncensored part of a right-censored sample of ``n_total``
    observations, all censored values exceeding the largest sample; the
    result is then the exact sup-distance on the observed range.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    if xs.size == 0:
        raise ValueError("ks_statistic needs a nonempty sample")
    n = xs.size if n_total is None else int(n_total)
    if n < xs.size:
        raise ValueError("n_total cannot be smaller than the number of samples")
    f = np.asarray(law.cdf(xs), dtype=float)
    i = np.arange(1, xs.size + 1, dtype=float)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def loglog_slope(x: np.ndarray, y: np.ndarray, y_se=None) -> tuple[float, float]:
    """Slope and standard error of log(y) on log(x), NaN-safe.

    Without ``y_se``: OLS with the residual-based error (needs several
    points).  With ``y_se`` (standard errors of the y values): weighted
    least squares whose slope error comes from the propagated variances,
    which stays meaningful even for a three-point grid.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    if y_se is not None:
        y_se = np.asarray(y_se, dtype=float)
        keep &= np.isfinite(y_se) & (y_se > 0)
    lx, ly = np.log(x[keep]), np.log(y[keep])
    m = lx.size
    if m < 3:
        return math.nan, math.nan
    if y_se is None:
        mx = lx.mean()
        sxx = float(np.sum((lx - mx) ** 2))
        if sxx == 0.0:
            return math.nan, math.nan
        slope = float(np.sum((lx - mx) * (ly - ly.mean())) / sxx)
        resid = ly - (ly.mean() + slope * (lx - mx))
        se = math.sqrt(float(np.sum(resid**2)) / (m - 2) / sxx)
        return slope, se
    w = (y[keep] / y_se[keep]) ** 2  # var(ln y) ~ (se/y)^2
    mx = float(np.sum(w * lx) / np.sum(w))
    sxx = float(np.sum(w * (lx - mx) ** 2))
    if sxx == 0.0:
        return math.nan, math.nan
    slope = float(np.sum(w * (lx - mx) * ly) / sxx)
    return slope, math.sqrt(1.0 / sxx)


# ---------------------------------------------------------------------------
# Coupled replicate sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition: model triple, N grid, replicate count, seeds, outputs."""

    env: EnvironmentModel
    offspring: OffspringModel
    rule: MatingRule
    n_grid: tuple
    replicates: int = 2000
    epsilon: float = 1.0
    master_seed: int = 42
    threads: int = 1
    max_steps: Optional[int] = None

    def __post_init__(self):
        read = {
            "n_grid": _read_grid(self.n_grid, "n_grid", 3),
            "replicates": read_int(self.replicates, "replicates", 1),
            "epsilon": read_real(self.epsilon, "epsilon", 0.0),
            "master_seed": read_int(self.master_seed, "master_seed", 0),
            "threads": read_int(self.threads, "threads", 1),
            "max_steps": None if self.max_steps is None else read_int(self.max_steps, "max_steps", 1),
        }
        for name, value in read.items():
            object.__setattr__(self, name, value)


def _read_grid(grid, where: str, minimum: int) -> tuple:
    """``grid`` as a nonempty, strictly increasing tuple of integers ``>= minimum``."""
    read = tuple(read_int(n, where, minimum) for n in grid)
    if not read or list(read) != sorted(set(read)):
        raise ConfigurationError(f"{where} entries must be >= {minimum} and strictly increasing, got {grid}")
    return read


def _run_chunked(task_args: list, worker, threads: int, cost=None) -> list:
    """The list of ``worker(args)`` results, one per entry of ``task_args``, in task order.

    With several workers the tasks start in decreasing ``cost(args)``
    (stable), so the longest ones do not start last; ``cost`` must read
    only the task's arguments.  No more workers start than there are tasks.
    """
    if threads <= 1 or len(task_args) <= 1:
        return [worker(a) for a in task_args]
    from concurrent.futures import ProcessPoolExecutor  # here, so a one-worker run does not import it

    order = list(range(len(task_args)))
    if cost is not None:
        order.sort(key=lambda i: -cost(task_args[i]))
    results = [None] * len(task_args)
    with ProcessPoolExecutor(max_workers=min(threads, len(task_args))) as pool:
        for i, result in zip(order, pool.map(worker, [task_args[i] for i in order])):
            results[i] = result
    return results


def _block_task(args) -> BlockRun:
    """One block's ``BlockRun``, its steps' ``replicate_id`` shifted by the block's first replicate."""
    env, offspring, rule, n0, max_steps, master_seed, grid_index, block, start, stop, epsilon, recording = args
    # each replicate's environment is the first child of its own stream:
    # the generator derive_stream(master_seed, grid_index, rep).spawn(2)[0], built directly
    env_streams = [
        np.random.default_rng(np.random.SeedSequence([master_seed, grid_index, rep], spawn_key=(0,)))
        for rep in range(start, stop)
    ]
    off_rng = derive_stream(master_seed, grid_index, OFFSPRING_BLOCK_KEY, block)
    run = run_block(rule, env, offspring, n0, max_steps, env_streams, off_rng, epsilon, recording)
    run.steps[0]["replicate_id"] += start
    return run


def _joined(runs: list) -> BlockRun:
    """The ``BlockRun`` of a sweep's blocks, in block order; the blocks' recorded steps are not copied."""
    names = [f.name for f in fields(BlockRun) if f.name != "steps"]
    joined = {name: np.concatenate([getattr(r, name) for r in runs]) for name in names}
    return BlockRun(steps=tuple(chain.from_iterable(r.steps for r in runs)), **joined)


def _sweep(env, offspring, rule, points, replicates, master_seed, threads, epsilon=None,
           recording="terminal") -> list[BlockRun]:
    """One ``BlockRun`` per ``(n0, max_steps)`` of ``points``, a point's position being its grid index.

    Every point's replicates are split into ``BLOCK``-sized blocks, all
    handed to the workers at once (the partition does not depend on
    ``threads``); a point's blocks are then joined in order, so array
    position ``i`` is replicate ``i``, and its ``steps`` are its blocks'
    recorded steps, one array per block.  ``epsilon=None`` runs the
    extinction-only engine.  Raises ``OverflowGuardError`` when every
    replicate of some point is overflow-tagged: such a point has no
    usable replicate, so no statistic would be computed from it.
    """
    starts = range(0, replicates, BLOCK)
    tasks = [
        (env, offspring, rule, n0, max_steps, master_seed, gi, block, start, min(start + BLOCK, replicates),
         epsilon, recording)
        for gi, (n0, max_steps) in enumerate(points)
        for block, start in enumerate(starts)
    ]
    # a block's work bound, its step cap times its replicates, starts the largest blocks first
    blocks = _run_chunked(tasks, _block_task, threads, lambda t: t[4] * (t[9] - t[8]))
    runs = []
    for gi, (n0, _) in enumerate(points):
        run = _joined(blocks[gi * len(starts) : (gi + 1) * len(starts)])
        if run.overflow_step.all():
            raise OverflowGuardError(
                f"N={n0}: all {replicates} replicates crossed the offspring-mean guard (overflow-tagged)"
            )
        runs.append(run)
    return runs


def run_replicates(config: ExperimentConfig) -> list[BlockRun]:
    """The coupled sweep of ``config``: one ``BlockRun`` per grid point, position ``i`` being replicate ``i``.

    A coupled sweep records no steps, so each ``steps`` is empty.  Raises
    ``OverflowGuardError`` when every replicate of some grid point is
    overflow-tagged.
    """
    points = [(n0, default_max_steps(n0) if config.max_steps is None else config.max_steps) for n0 in config.n_grid]
    return _sweep(config.env, config.offspring, config.rule, points, config.replicates, config.master_seed,
                  config.threads, config.epsilon)


def run_extinction_records(
    env: EnvironmentModel,
    offspring: OffspringModel,
    rule: MatingRule,
    n0: int,
    replicates: int,
    max_steps: Optional[int],
    master_seed: int,
    threads: int = 1,
    recording: str = "terminal",
) -> BlockRun:
    """Extinction-only replicate sweep (the ``simulate`` subcommand's engine).

    Returns one ``BlockRun``; position ``i`` is replicate ``i``, and
    ``theta``, ``n_theta`` and ``n_theta_plus_k`` are unobserved.
    ``steps`` holds every recorded step, one array per block in block
    order, together replicate-major, and its arrays are empty under
    terminal recording.  Each block's array is a view of the one buffer
    its run recorded into, so a recording is held once.  Raises
    ``OverflowGuardError`` when every replicate is overflow-tagged.
    """
    n0, replicates = read_int(n0, "n0", 1), read_int(replicates, "replicates", 1)
    master_seed, threads = read_int(master_seed, "master_seed", 0), read_int(threads, "threads", 1)
    cap = default_max_steps(max(n0, 3)) if max_steps is None else read_int(max_steps, "max_steps", 1)
    return _sweep(env, offspring, rule, [(n0, cap)], replicates, master_seed, threads, recording=recording)[0]


# The summary JSON keys that differ from their SummaryRow field names.
_SUMMARY_KEYS = {"n0": "N", "frac_n_theta_pos": "frac_N_theta_pos", "frac_n_theta_k_pos": "frac_N_theta_k_pos"}


@dataclass
class SummaryRow:
    """Per-N summary of a replicate sweep."""

    n0: int
    replicates: int
    censored_count: int
    theta_censored_count: int
    overflow_count: int
    k: int
    max_steps: int
    ks_tau: Optional[float]
    ks_theta: Optional[float]
    frac_n_theta_pos: Optional[float]
    frac_n_theta_k_pos: Optional[float]
    n_theta_observed: int
    n_theta_k_observed: int
    mean_tau_scaled: Optional[float]
    median_tau_scaled: Optional[float]
    total_steps: int

    def to_dict(self) -> dict:
        return {_SUMMARY_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}


@dataclass
class SummaryReport:
    """Full experiment output: per-N rows plus global diagnostics."""

    rows: list
    sigma: float
    sigma_source: str
    sigma_se: Optional[float]
    condition_report: dict
    total_replicates: int
    total_steps: int
    master_seed: int
    epsilon: float
    beta: float

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "global": {
                "sigma": self.sigma,
                "sigma_source": self.sigma_source,
                "sigma_se": self.sigma_se,
                "condition_report": self.condition_report,
                "master_seed": self.master_seed,
                "epsilon": self.epsilon,
                "beta": self.beta,
                "work": {
                    "total_replicates": self.total_replicates,
                    "total_steps": self.total_steps,
                },
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False, sort_keys=False)


def _scaled_sorted(values: np.ndarray, scale: float) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float)) / scale


def _censored_median(sorted_scaled: np.ndarray, n_total: int) -> Optional[float]:
    # exact right-censored median: defined whenever half the mass is observed
    rank = math.ceil(n_total / 2)
    if sorted_scaled.size < rank:
        return None
    return float(sorted_scaled[rank - 1])


def resolve_sigma(config: ExperimentConfig) -> tuple[float, str, Optional[float]]:
    """The reference-law sigma: analytic, or Monte Carlo."""
    exact = analytic_sigma_xi(config.rule, config.env, config.offspring)
    if exact is not None:
        if exact <= 0:
            raise ConfigurationError("walk increment is degenerate (sigma = 0); no reference law exists")
        return float(exact), "analytic", None
    stream = derive_stream(config.master_seed, SIGMA_STREAM_KEY)
    eta = np.asarray(config.env.sample(stream, size=SIGMA_MC_SAMPLES), dtype=float)
    xs = walk_increments(config.rule, config.offspring, eta)
    sd = float(xs.std(ddof=1))
    if sd <= 0:
        raise ConfigurationError("walk increment is degenerate (sigma = 0); no reference law exists")
    se = sd / math.sqrt(2.0 * (xs.size - 1))
    return sd, "monte_carlo", se


def summarize_records(
    run: BlockRun,
    n0: int,
    k: int,
    max_steps: int,
    law: FirstPassageLaw,
) -> SummaryRow:
    """The summary row of one grid point's ``BlockRun``.

    Every replicate is in the KS denominators and the censored median's;
    ``ks_theta`` takes every observed ``theta``, a tagged one's too.  An
    overflow-tagged replicate counts as censored, in ``replicates`` and
    ``overflow_count``, and in no other statistic: not in
    ``censored_count``, the replicates censored at the cap, nor in the
    window frequencies or the mean.  Raises ``ExcessCensoringError``
    when the censored fraction of the untagged replicates exceeds the
    law's tail beyond ``max_steps`` plus ``CENSORING_SLACK``.
    """
    scale = math.log(n0) ** 2
    usable = run.overflow_step == 0
    n_total = run.overflow_step.size
    n_usable = int(np.count_nonzero(usable))
    taus = run.tau[usable & (run.tau >= 0)]
    thetas = run.theta[run.theta >= 0]
    censored = n_usable - taus.size

    expected_tail = 1.0 - law.cdf(max_steps / scale)
    if n_usable and censored / n_usable > expected_tail + CENSORING_SLACK:
        raise ExcessCensoringError(
            f"N={n0}: censored fraction {censored / n_usable:.3f} exceeds the law-implied "
            f"tail {expected_tail:.3f} plus slack {CENSORING_SLACK}"
        )

    tau_scaled = _scaled_sorted(taus, scale)
    ks_tau = ks_statistic(tau_scaled, law, n_total=n_total) if taus.size else None
    ks_theta = ks_statistic(_scaled_sorted(thetas, scale), law, n_total=n_total) if thetas.size else None

    obs_theta = run.n_theta[usable & ~np.isnan(run.n_theta)]
    obs_k = run.n_theta_plus_k[usable & ~np.isnan(run.n_theta_plus_k)]
    frac_pos = int(np.count_nonzero(obs_theta > 0)) / obs_theta.size if obs_theta.size else None
    frac_k_pos = int(np.count_nonzero(obs_k > 0)) / obs_k.size if obs_k.size else None

    # censored replicates contribute the cap: a documented lower bound on
    # the uncensorable mean (the limit law itself has no mean)
    mean_tau = (
        float((int(taus.sum()) + censored * max_steps) / n_usable / scale) if n_usable else None
    )
    median_tau = _censored_median(tau_scaled, n_total) if n_total else None

    return SummaryRow(
        n0=n0,
        replicates=n_total,
        censored_count=censored,
        theta_censored_count=n_total - thetas.size,
        overflow_count=n_total - n_usable,
        k=k,
        max_steps=max_steps,
        ks_tau=ks_tau,
        ks_theta=ks_theta,
        frac_n_theta_pos=frac_pos,
        frac_n_theta_k_pos=frac_k_pos,
        n_theta_observed=obs_theta.size,
        n_theta_k_observed=obs_k.size,
        mean_tau_scaled=mean_tau,
        median_tau_scaled=median_tau,
        total_steps=int(run.steps_run.sum()),
    )


def run_experiment(config: ExperimentConfig, out_prefix: Optional[Path] = None) -> SummaryReport:
    """Full sweep: ``run_replicates(config)``, then per-N KS distances and window frequencies.

    When ``out_prefix`` is given, writes ``<prefix>_replicates.csv``,
    one ``<prefix>_ecdf_tau_N<count>.csv`` per grid point, and
    ``<prefix>_summary.json``.  Raises ``OverflowGuardError``, before
    summarizing any grid point or writing anything, when every
    replicate of some grid point is overflow-tagged.
    """
    sigma, sigma_source, sigma_se = resolve_sigma(config)
    law = FirstPassageLaw(sigma)
    audit = audit_conditions(
        config.rule,
        config.env,
        config.offspring,
        AUDIT_SAMPLES,
        derive_stream(config.master_seed, AUDIT_STREAM_KEY),
    )
    runs = dict(zip(config.n_grid, run_replicates(config)))
    rows = [
        summarize_records(run, n0, window_steps(n0, config.epsilon),
                          default_max_steps(n0) if config.max_steps is None else config.max_steps, law)
        for n0, run in runs.items()
    ]
    report = SummaryReport(
        rows=rows,
        sigma=sigma,
        sigma_source=sigma_source,
        sigma_se=sigma_se,
        condition_report=audit.to_dict(),
        total_replicates=sum(r.replicates for r in rows),
        total_steps=sum(r.total_steps for r in rows),
        master_seed=config.master_seed,
        epsilon=config.epsilon,
        beta=config.offspring.beta,
    )
    if out_prefix is not None:
        out_prefix = Path(out_prefix)
        out_prefix.parent.mkdir(parents=True, exist_ok=True)
        write_replicates_csv(Path(f"{out_prefix}_replicates.csv"), runs)
        for n0, run in runs.items():
            taus = run.tau[(run.overflow_step == 0) & (run.tau >= 0)]
            if taus.size:
                write_ecdf_csv(
                    Path(f"{out_prefix}_ecdf_tau_N{n0}.csv"),
                    _scaled_sorted(taus, math.log(n0) ** 2),
                    run.tau.size,
                    law,
                )
        Path(f"{out_prefix}_summary.json").write_text(report.to_json() + "\n")
    return report


# ---------------------------------------------------------------------------
# CSV writers (deterministic formatting: repr for floats, blank for missing)
# ---------------------------------------------------------------------------

# Rows joined per write: the writers never hold a whole file's text.
CSV_CHUNK_ROWS = 4096

REPLICATE_COLUMNS = (
    "replicate_id",
    "N0",
    "tau",
    "censored_flag",
    "theta",
    "N_theta",
    "N_theta_plus_k",
    "steps_run",
)


def _write_lines(path: Path, header: str, lines) -> None:
    """Write ``header`` and then ``lines``, one per row, joining ``CSV_CHUNK_ROWS`` rows per write."""
    it = iter(lines)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while chunk := list(islice(it, CSV_CHUNK_ROWS)):
            fh.write("\n".join(chunk) + "\n")


def _count_cell(v: float) -> str:
    """A count as its exact integer, blank where unobserved (NaN)."""
    return "" if math.isnan(v) else str(int(v))


def write_replicates_csv(path: Path, runs: dict) -> None:
    """One row per replicate of each ``{n0: BlockRun}`` grid point, in grid then replicate order.

    ``censored_flag`` is 1 where a replicate has no extinction time
    (censored at the cap or overflow-tagged).
    """
    rows = (
        f"{i},{n0},{'' if tau < 0 else tau},{int(tau < 0)},{'' if theta < 0 else theta},"
        f"{_count_cell(at)},{_count_cell(at_k)},{steps}"
        for n0, run in runs.items()
        for i, (tau, theta, at, at_k, steps) in enumerate(
            zip(
                run.tau.tolist(),
                run.theta.tolist(),
                run.n_theta.tolist(),
                run.n_theta_plus_k.tolist(),
                run.steps_run.tolist(),
            )
        )
    )
    _write_lines(path, ",".join(REPLICATE_COLUMNS), rows)


def write_ecdf_csv(path: Path, sorted_scaled: np.ndarray, n_total: int, law: FirstPassageLaw) -> None:
    """One row per sorted scaled time ``t``: the censored ECDF ``i / n_total`` and the law's CDF at ``t``."""
    f_law = np.asarray(law.cdf(sorted_scaled), dtype=float).tolist()
    rows = (
        f"{t!r},{i / n_total!r},{f!r}"
        for i, (t, f) in enumerate(zip(sorted_scaled.tolist(), f_law), start=1)
    )
    _write_lines(path, "t,F_empirical,F_chi", rows)


TRAJECTORY_COLUMNS = STEP_DTYPE.names


def _trajectory_rows(steps: tuple):
    """The CSV rows of each array of ``steps`` in turn, a ``CSV_CHUNK_ROWS`` chunk and one column at a time."""
    for chunk in (b[i : i + CSV_CHUNK_ROWS] for b in steps for i in range(0, b.size, CSV_CHUNK_ROWS)):
        eta = list(map(repr, chunk["eta"].tolist()))
        # xi is eta itself under the canonical mean maps: compare bits, so -0.0 and 0.0 stay apart
        same = np.array_equal(chunk["xi"].view(np.int64), chunk["eta"].view(np.int64))
        xi = eta if same else map(repr, chunk["xi"].tolist())
        counts = (map(int, chunk[name].tolist()) for name in ("F_total", "M_total", "N"))
        yield from (
            f"{rep_id},{n},{e},{f},{m},{c},{x},{s},{r}"
            for rep_id, n, e, f, m, c, x, s, r in zip(
                chunk["replicate_id"].tolist(),
                chunk["n"].tolist(),
                eta,
                *counts,
                xi,
                map(repr, chunk["S"].tolist()),
                map(repr, chunk["R"].tolist()),
            )
        )


def write_trajectories_csv(path: Path, steps: tuple) -> None:
    """One row per recorded step, counts as exact integers.

    ``steps`` is a ``BlockRun``'s: ``simulator.STEP_DTYPE`` arrays, one
    per block, written in turn.  Each ``CSV_CHUNK_ROWS`` chunk of a block
    is formatted column by column: one ``tolist()`` per field, ``repr``
    over the float columns and ``int`` over the counts, so a count past
    2**63 keeps its exact integer text.  Where a chunk's ``xi`` has the
    same bits as its ``eta`` (every row under the canonical mean maps)
    the ``eta`` text is written for both, so each recorded float is
    formatted once.  Only one chunk's text is held at a time.
    """
    _write_lines(path, ",".join(TRAJECTORY_COLUMNS), _trajectory_rows(steps))


# ---------------------------------------------------------------------------
# Ratio-bound sweep over frozen-environment bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaSweepConfig:
    """Frozen-bundle sweep: paths x replicates x steps per grid point."""

    env: EnvironmentModel
    offspring: OffspringModel
    rule: MatingRule
    n0_grid: tuple = (10_000,)
    paths: int = 20
    replicates: int = 10_000
    steps: int = 50
    master_seed: int = 42
    threads: int = 1

    def __post_init__(self):
        read = {
            "n0_grid": _read_grid(self.n0_grid, "n0_grid", 1),
            "paths": read_int(self.paths, "paths", 1),
            "replicates": read_int(self.replicates, "replicates", 2),
            "steps": read_int(self.steps, "steps", 1),
            "master_seed": read_int(self.master_seed, "master_seed", 0),
            "threads": read_int(self.threads, "threads", 1),
        }
        for name, value in read.items():
            object.__setattr__(self, name, value)


@dataclass
class LemmaSweep:
    """Sweep output: the stacked ratio array plus slope fits.

    ``ratios[g, p, r, n - 1]`` is ratio ``r`` (r2, r3, r3_se, r4, in that
    order) at step ``n`` of path ``p`` of grid point ``n0_grid[g]``, NaN
    once nothing is left alive: ``ratios[g, p]`` is that path's
    ``run_frozen_bundle`` array; ``write_sweep_csv`` writes one row per
    (grid point, path, step).  ``r3_hard_violations`` counts steps with
    r3 above 1 + 4 SE.  Slopes are OLS fits of log mean ratio against log
    step (per grid point) and against log n0 (across the grid); a
    nonpositive slope within noise is the boundedness check.
    """

    n0_grid: tuple
    ratios: np.ndarray
    r3_hard_violations: int
    slopes: dict


def _bundle_task(args) -> np.ndarray:
    env, offspring, rule, n0, steps, replicates, master_seed, grid_index, path_index = args
    stream = derive_stream(master_seed, grid_index, path_index)
    return run_frozen_bundle(rule, env, offspring, n0, steps, replicates, stream)


def _nanmean(x: np.ndarray) -> float:
    """``np.nanmean`` of a 1-D array; NaN, without numpy's empty-slice warning, when every entry is NaN."""
    return math.nan if np.isnan(x).all() else float(np.nanmean(x))


def lemma_bound_sweep(config: LemmaSweepConfig) -> LemmaSweep:
    """Aggregate bundle diagnostics over paths and grid points.

    Each path's ``run_frozen_bundle`` array is one (ratio, step) slab of
    the stacked (grid point, path, ratio, step) array, ratios in the
    order r2, r3, r3_se, r4.  Every mean is taken over a 1-D slice of
    it: numpy sums a vector pairwise but an axis of a 2-D array in
    order, so an axis mean would move the last bits of the slopes.
    """
    grid, paths, steps = config.n0_grid, config.paths, config.steps
    tasks = [
        (config.env, config.offspring, config.rule, n0, steps, config.replicates, config.master_seed, gi, p)
        for gi, n0 in enumerate(grid)
        for p in range(paths)
    ]
    ratios = np.array(_run_chunked(tasks, _bundle_task, config.threads)).reshape(len(grid), paths, 4, steps)
    # a NaN r3 (nothing left alive) compares false
    hard = int(np.count_nonzero(ratios[:, :, 1] > 1.0 + 4.0 * ratios[:, :, 2]))

    slopes: dict = {"r2_vs_n": {}, "r4_vs_n": {}}
    grid_means = {"r2": [], "r4": []}
    grid_ses = {"r2": [], "r4": []}
    ns = np.arange(1, steps + 1, dtype=float)
    for gi, n0 in enumerate(grid):
        for key, r in (("r2", 0), ("r4", 3)):
            per_step = ratios[gi, :, r]  # (path, step)
            # growth in n: per-step means pooled across paths, residual-based SE
            slopes[f"{key}_vs_n"][n0] = loglog_slope(ns, np.array([_nanmean(c) for c in per_step.T]))
            # growth in N: independent paths give the sampling error of each
            # grid point's mean, propagated through a weighted fit
            per_path = np.array([_nanmean(row) for row in per_step])
            per_path = per_path[np.isfinite(per_path)]
            grid_means[key].append(float(per_path.mean()))
            grid_ses[key].append(
                float(per_path.std(ddof=1) / math.sqrt(per_path.size)) if per_path.size > 1 else math.nan
            )
    if len(grid) >= 3:
        g = np.asarray(grid, dtype=float)
        slopes["r2_vs_N"] = loglog_slope(g, np.asarray(grid_means["r2"]), y_se=np.asarray(grid_ses["r2"]))
        slopes["r4_vs_N"] = loglog_slope(g, np.asarray(grid_means["r4"]), y_se=np.asarray(grid_ses["r4"]))
    return LemmaSweep(n0_grid=grid, ratios=ratios, r3_hard_violations=hard, slopes=slopes)


def write_sweep_csv(path: Path, sweep: LemmaSweep) -> None:
    """One row per (grid point, path, step) of ``sweep.ratios``; only one chunk's text is held at a time."""
    rows = (
        f"{n0},{p},{n},{r2!r},{r3!r},{se!r},{r4!r}"
        for n0, per_path in zip(sweep.n0_grid, sweep.ratios)
        for p, table in enumerate(per_path)
        for n, (r2, r3, se, r4) in enumerate(table.T.tolist(), start=1)
    )
    _write_lines(path, "N0,path,n,r2,r3,r3_se,r4", rows)
