"""Experiment orchestration and inference.

Runs coupled replicate sweeps over a grid of initial couple counts,
compares the scaled extinction and hitting times against the
first-passage reference law via one-sample Kolmogorov-Smirnov
distances, tabulates the hitting-window survival frequencies, and
aggregates the frozen-bundle ratio diagnostics.

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
largest blocks (step cap times replicates) first; results are merged in
(grid, block) order, so reruns and thread-count changes reproduce
outputs byte for byte.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

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
from .simulator import STEP_DTYPE, run_block, run_frozen_bundle
from .walk import default_max_steps, window_steps

__all__ = [
    "ks_statistic",
    "ReplicateRecord",
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
class ReplicateRecord:
    """Flat per-replicate outcome row (the CSV schema)."""

    replicate_id: int
    n0: int
    tau: Optional[int]
    censored: bool
    theta: Optional[int]
    n_theta: Optional[int]
    n_theta_plus_k: Optional[int]
    steps_run: int
    overflow: bool = False


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
    sigma_xi: Optional[float] = None
    audit_samples: int = 100_000
    sigma_mc_samples: int = 1_000_000

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if not grid or any(n < 3 for n in grid) or list(grid) != sorted(set(grid)):
            raise ConfigurationError(f"n_grid entries must be >= 3 and strictly increasing, got {self.n_grid}")
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {self.replicates}")
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")


def _run_chunked(task_args: list, worker, threads: int, cost=None) -> list:
    """``worker`` over ``task_args``, merged in task order.

    With several workers the tasks start in decreasing ``cost(args)``
    (stable), so the longest ones do not start last; ``cost`` must read
    only the task's arguments.
    """
    if threads <= 1 or len(task_args) <= 1:
        chunks = [worker(a) for a in task_args]
    else:
        order = list(range(len(task_args)))
        if cost is not None:
            order.sort(key=lambda i: -cost(task_args[i]))
        chunks = [None] * len(task_args)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for i, chunk in zip(order, pool.map(worker, [task_args[i] for i in order])):
                chunks[i] = chunk
    merged = []
    for c in chunks:
        merged.extend(c)
    return merged


def _block_task(args) -> list[tuple]:
    env, offspring, rule, n0, max_steps, master_seed, grid_index, block, start, stop, epsilon, recording = args
    # each replicate's environment is the first child of its own stream:
    # the generator derive_stream(master_seed, grid_index, rep).spawn(2)[0], built directly
    env_streams = [
        np.random.default_rng(np.random.SeedSequence([master_seed, grid_index, rep], spawn_key=(0,)))
        for rep in range(start, stop)
    ]
    off_rng = derive_stream(master_seed, grid_index, OFFSPRING_BLOCK_KEY, block)
    run = run_block(rule, env, offspring, n0, max_steps, env_streams, off_rng, epsilon, recording)
    records = [
        ReplicateRecord(
            replicate_id=start + i,
            n0=n0,
            tau=None if tau < 0 else tau,
            censored=tau < 0 and not over,
            theta=None if theta < 0 else theta,
            n_theta=None if math.isnan(at) else int(at),
            n_theta_plus_k=None if math.isnan(at_k) else int(at_k),
            steps_run=steps,
            overflow=bool(over),
        )
        for i, (tau, over, steps, theta, at, at_k) in enumerate(
            zip(
                run.tau.tolist(),
                run.overflow_step.tolist(),
                run.steps_run.tolist(),
                run.theta.tolist(),
                run.n_theta.tolist(),
                run.n_theta_plus_k.tolist(),
            )
        )
    ]
    run.steps["replicate_id"] += start
    return [(records, run.steps)]


def _block_cost(args) -> int:
    """A ``_block_task``'s work bound: its step cap times its replicates."""
    max_steps, start, stop = args[4], args[8], args[9]
    return max_steps * (stop - start)


def _block_tasks(env, offspring, rule, n0, replicates, max_steps, master_seed, grid_index, epsilon=None,
                 recording="terminal") -> list[tuple]:
    """Split replicates ``0 .. replicates-1`` of one grid point into ``BLOCK``-sized ``_block_task`` arguments.

    Blocks are the unit of work handed to the ``threads`` worker
    processes; the partition does not depend on ``threads``.
    """
    return [
        (env, offspring, rule, n0, max_steps, master_seed, grid_index, block, start, min(start + BLOCK, replicates),
         epsilon, recording)
        for block, start in enumerate(range(0, replicates, BLOCK))
    ]


def _coupled_tasks(config: ExperimentConfig, grid_index: int) -> list[tuple]:
    n0 = config.n_grid[grid_index]
    max_steps = config.max_steps or default_max_steps(n0)
    return _block_tasks(
        config.env, config.offspring, config.rule, n0, config.replicates, max_steps, config.master_seed, grid_index,
        epsilon=config.epsilon,
    )


def _refuse_all_overflow(records: list[ReplicateRecord], n0: int) -> None:
    """Raise ``OverflowGuardError`` when every replicate of a grid point is overflow-tagged.

    Such a sweep has no usable replicate, so no statistic would be
    computed from it.  A sweep with any usable replicate passes.
    """
    if records and all(r.overflow for r in records):
        raise OverflowGuardError(
            f"N={n0}: all {len(records)} replicates crossed the offspring-mean guard (overflow-tagged)"
        )


def run_replicates(config: ExperimentConfig, grid_index: int) -> list[ReplicateRecord]:
    """All coupled replicates for one grid point, in replicate order.

    Raises ``OverflowGuardError`` when every replicate is overflow-tagged.
    """
    blocks = _run_chunked(_coupled_tasks(config, grid_index), _block_task, config.threads, _block_cost)
    records = [rec for records, _ in blocks for rec in records]
    _refuse_all_overflow(records, config.n_grid[grid_index])
    return records


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
    return_trajectories: bool = False,
):
    """Extinction-only replicate sweep (the ``simulate`` subcommand's engine).

    Returns the record list, or ``(records, steps)`` when
    ``return_trajectories`` is set: ``steps`` is one
    ``simulator.STEP_DTYPE`` array of every recorded step, replicate-major
    (empty under terminal recording).  A single block's array is returned
    as it is, a view of the one buffer its run recorded into, so its
    steps are held once; several are copied into one preallocated array,
    and each block is released once it is copied.
    Raises ``OverflowGuardError`` when every replicate is overflow-tagged.
    """
    if replicates < 1:
        raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    if master_seed < 0:
        raise ConfigurationError(f"master_seed must be >= 0, got {master_seed}")
    ms = max_steps or default_max_steps(max(n0, 3))
    tasks = _block_tasks(env, offspring, rule, n0, replicates, ms, master_seed, 0, recording=recording)
    blocks = _run_chunked(tasks, _block_task, threads, _block_cost)
    records = [rec for recs, _ in blocks for rec in recs]
    _refuse_all_overflow(records, n0)
    if not return_trajectories:
        return records
    if len(blocks) == 1:
        return records, blocks[0][1]
    steps = np.empty(sum(s.size for _, s in blocks), dtype=STEP_DTYPE)
    at = 0
    for i in range(len(blocks)):
        block_steps = blocks[i][1]
        blocks[i] = None
        steps[at : at + block_steps.size] = block_steps
        at += block_steps.size
    return records, steps


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
        return {
            "N": self.n0,
            "replicates": self.replicates,
            "censored_count": self.censored_count,
            "theta_censored_count": self.theta_censored_count,
            "overflow_count": self.overflow_count,
            "k": self.k,
            "max_steps": self.max_steps,
            "ks_tau": self.ks_tau,
            "ks_theta": self.ks_theta,
            "frac_N_theta_pos": self.frac_n_theta_pos,
            "frac_N_theta_k_pos": self.frac_n_theta_k_pos,
            "n_theta_observed": self.n_theta_observed,
            "n_theta_k_observed": self.n_theta_k_observed,
            "mean_tau_scaled": self.mean_tau_scaled,
            "median_tau_scaled": self.median_tau_scaled,
            "total_steps": self.total_steps,
        }


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


def _scaled_sorted(values: list, scale: float) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float)) / scale


def _censored_median(sorted_scaled: np.ndarray, n_total: int) -> Optional[float]:
    # exact right-censored median: defined whenever half the mass is observed
    rank = math.ceil(n_total / 2)
    if sorted_scaled.size < rank:
        return None
    return float(sorted_scaled[rank - 1])


def resolve_sigma(config: ExperimentConfig) -> tuple[float, str, Optional[float]]:
    """The reference-law sigma: configured, analytic, or Monte Carlo."""
    if config.sigma_xi is not None:
        return float(config.sigma_xi), "configured", None
    exact = analytic_sigma_xi(config.rule, config.env, config.offspring)
    if exact is not None:
        if exact <= 0:
            raise ConfigurationError("walk increment is degenerate (sigma = 0); no reference law exists")
        return float(exact), "analytic", None
    stream = derive_stream(config.master_seed, SIGMA_STREAM_KEY)
    eta = np.asarray(config.env.sample(stream, size=config.sigma_mc_samples), dtype=float)
    xs = walk_increments(config.rule, config.offspring, eta)
    sd = float(xs.std(ddof=1))
    if sd <= 0:
        raise ConfigurationError("walk increment is degenerate (sigma = 0); no reference law exists")
    se = sd / math.sqrt(2.0 * (xs.size - 1))
    return sd, "monte_carlo", se


def summarize_records(
    records: list[ReplicateRecord],
    n0: int,
    k: int,
    max_steps: int,
    law: FirstPassageLaw,
) -> SummaryRow:
    scale = math.log(n0) ** 2
    usable = [r for r in records if not r.overflow]
    n_total = len(usable)
    overflow_count = len(records) - n_total
    taus = [r.tau for r in usable if r.tau is not None]
    thetas = [r.theta for r in usable if r.theta is not None]
    censored = n_total - len(taus)
    theta_censored = n_total - len(thetas)

    expected_tail = 1.0 - law.cdf(max_steps / scale)
    if n_total and censored / n_total > expected_tail + CENSORING_SLACK:
        raise ExcessCensoringError(
            f"N={n0}: censored fraction {censored / n_total:.3f} exceeds the law-implied "
            f"tail {expected_tail:.3f} plus slack {CENSORING_SLACK}"
        )

    tau_scaled = _scaled_sorted(taus, scale) if taus else np.array([])
    theta_scaled = _scaled_sorted(thetas, scale) if thetas else np.array([])
    ks_tau = ks_statistic(tau_scaled, law, n_total=n_total) if taus else None
    ks_theta = ks_statistic(theta_scaled, law, n_total=n_total) if thetas else None

    obs_theta = [r for r in usable if r.n_theta is not None]
    obs_k = [r for r in usable if r.n_theta_plus_k is not None]
    frac_pos = (sum(1 for r in obs_theta if r.n_theta > 0) / len(obs_theta)) if obs_theta else None
    frac_k_pos = (sum(1 for r in obs_k if r.n_theta_plus_k > 0) / len(obs_k)) if obs_k else None

    # censored replicates contribute the cap: a documented lower bound on
    # the uncensorable mean (the limit law itself has no mean)
    mean_tau = (
        float((sum(taus) + censored * max_steps) / n_total / scale) if n_total else None
    )
    median_tau = _censored_median(tau_scaled, n_total) if n_total else None

    return SummaryRow(
        n0=n0,
        replicates=len(records),
        censored_count=censored,
        theta_censored_count=theta_censored,
        overflow_count=overflow_count,
        k=k,
        max_steps=max_steps,
        ks_tau=ks_tau,
        ks_theta=ks_theta,
        frac_n_theta_pos=frac_pos,
        frac_n_theta_k_pos=frac_k_pos,
        n_theta_observed=len(obs_theta),
        n_theta_k_observed=len(obs_k),
        mean_tau_scaled=mean_tau,
        median_tau_scaled=median_tau,
        total_steps=sum(r.steps_run for r in records),
    )


def run_experiment(config: ExperimentConfig, out_prefix: Optional[Path] = None) -> SummaryReport:
    """Full sweep: per-N coupled replicates, KS distances, window frequencies.

    When ``out_prefix`` is given, writes ``<prefix>_replicates.csv``,
    one ``<prefix>_ecdf_tau_N<count>.csv`` per grid point, and
    ``<prefix>_summary.json``.  Raises ``OverflowGuardError``, before
    writing anything, when every replicate of some grid point is
    overflow-tagged.
    """
    sigma, sigma_source, sigma_se = resolve_sigma(config)
    law = FirstPassageLaw(sigma)
    audit = audit_conditions(
        config.rule,
        config.env,
        config.offspring,
        config.audit_samples,
        derive_stream(config.master_seed, AUDIT_STREAM_KEY),
    )
    # every grid point's blocks go to the workers at once, merged in (grid, block) order
    tasks = [_coupled_tasks(config, gi) for gi in range(len(config.n_grid))]
    blocks = iter(
        _run_chunked([t for grid_tasks in tasks for t in grid_tasks], _block_task, config.threads, _block_cost)
    )
    rows = []
    all_records: list[ReplicateRecord] = []
    for gi, n0 in enumerate(config.n_grid):
        max_steps = config.max_steps or default_max_steps(n0)
        k = window_steps(n0, config.epsilon)
        records = [rec for recs, _ in islice(blocks, len(tasks[gi])) for rec in recs]
        _refuse_all_overflow(records, n0)
        rows.append(summarize_records(records, n0, k, max_steps, law))
        all_records.extend(records)
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
        write_replicates_csv(Path(f"{out_prefix}_replicates.csv"), all_records)
        for row in rows:
            recs = [r for r in all_records if r.n0 == row.n0 and not r.overflow]
            taus = sorted(r.tau for r in recs if r.tau is not None)
            if taus:
                write_ecdf_csv(
                    Path(f"{out_prefix}_ecdf_tau_N{row.n0}.csv"),
                    np.asarray(taus, dtype=float) / math.log(row.n0) ** 2,
                    len(recs),
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


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_lines(path: Path, header: str, lines) -> None:
    """Write ``header`` and then ``lines``, one per row, joining ``CSV_CHUNK_ROWS`` rows per write."""
    it = iter(lines)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        while chunk := list(islice(it, CSV_CHUNK_ROWS)):
            fh.write("\n".join(chunk) + "\n")


def write_replicates_csv(path: Path, records: Sequence[ReplicateRecord]) -> None:
    rows = (
        ",".join(
            _cell(v)
            for v in (
                r.replicate_id,
                r.n0,
                r.tau,
                r.tau is None,
                r.theta,
                r.n_theta,
                r.n_theta_plus_k,
                r.steps_run,
            )
        )
        for r in records
    )
    _write_lines(path, ",".join(REPLICATE_COLUMNS), rows)


def write_ecdf_csv(path: Path, sorted_scaled: np.ndarray, n_total: int, law: FirstPassageLaw) -> None:
    lines = ["t,F_empirical,F_chi"]
    f_law = np.asarray(law.cdf(sorted_scaled), dtype=float)
    for i, t in enumerate(sorted_scaled, start=1):
        lines.append(f"{t!r},{i / n_total!r},{float(f_law[i - 1])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


TRAJECTORY_COLUMNS = STEP_DTYPE.names


def write_trajectories_csv(path: Path, steps: np.ndarray) -> None:
    """One row per recorded step of a ``simulator.STEP_DTYPE`` array, counts as integers."""
    rows = (
        f"{rep_id},{n},{eta!r},{int(f)},{int(m)},{int(c)},{xi!r},{s!r},{r!r}"
        for first in range(0, steps.size, CSV_CHUNK_ROWS)
        for rep_id, n, eta, f, m, c, xi, s, r in steps[first : first + CSV_CHUNK_ROWS].tolist()
    )
    _write_lines(path, ",".join(TRAJECTORY_COLUMNS), rows)


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
        grid = tuple(int(n) for n in self.n0_grid)
        object.__setattr__(self, "n0_grid", grid)
        if not grid or any(n < 1 for n in grid) or list(grid) != sorted(set(grid)):
            raise ConfigurationError(f"n0_grid entries must be >= 1 and strictly increasing, got {self.n0_grid}")
        if self.paths < 1 or self.replicates < 2 or self.steps < 1:
            raise ConfigurationError("sweep needs paths >= 1, replicates >= 2, steps >= 1")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass
class LemmaSweep:
    """Sweep output: per (n0, path, n) ratio rows plus slope fits.

    ``r3_hard_violations`` counts steps with r3 above 1 + 4 SE.  Slopes
    are OLS fits of log mean ratio against log step (per grid point) and
    against log n0 (across the grid); a nonpositive slope within noise
    is the boundedness check.
    """

    rows: list
    r3_hard_violations: int
    slopes: dict


def _bundle_task(args) -> list:
    env, offspring, rule, n0, steps, replicates, master_seed, grid_index, path_index = args
    stream = derive_stream(master_seed, grid_index, path_index)
    return [run_frozen_bundle(rule, env, offspring, n0, steps, replicates, stream)]


def _nanmean(x: np.ndarray) -> float:
    """``np.nanmean`` of a 1-D array; NaN, without numpy's empty-slice warning, when every entry is NaN."""
    return math.nan if np.isnan(x).all() else float(np.nanmean(x))


def lemma_bound_sweep(config: LemmaSweepConfig) -> LemmaSweep:
    """Aggregate bundle diagnostics over paths and grid points.

    Each path's table is one (ratio, step) slab of the stacked
    (grid point, path, ratio, step) array, ratios in the order r2, r3,
    r3_se, r4.  Every mean is taken over a 1-D slice of it: numpy sums
    a vector pairwise but an axis of a 2-D array in order, so an axis
    mean would move the last bits of the slopes.
    """
    grid, paths, steps = config.n0_grid, config.paths, config.steps
    tasks = [
        (config.env, config.offspring, config.rule, n0, steps, config.replicates, config.master_seed, gi, p)
        for gi, n0 in enumerate(grid)
        for p in range(paths)
    ]
    tables = _run_chunked(tasks, _bundle_task, config.threads)
    ratios = np.array([(t.r2, t.r3, t.r3_se, t.r4) for t in tables]).reshape(len(grid), paths, 4, steps)
    rows = [
        (n0, p, n, *values)
        for gi, n0 in enumerate(grid)
        for p in range(paths)
        for n, values in enumerate(ratios[gi, p].T.tolist(), start=1)
    ]
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
    return LemmaSweep(rows=rows, r3_hard_violations=hard, slopes=slopes)


def write_sweep_csv(path: Path, sweep: LemmaSweep) -> None:
    lines = ["N0,path,n,r2,r3,r3_se,r4"]
    for (n0, p, n, r2, r3, se, r4) in sweep.rows:
        lines.append(f"{n0},{p},{n},{r2!r},{r3!r},{se!r},{r4!r}")
    Path(path).write_text("\n".join(lines) + "\n")
