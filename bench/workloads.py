"""The benchmark's workloads: their sizes and the bbpre command each one runs.

Every workload uses the canonical model with sigma_env = 0.5 and one
worker process.  Why each one is here is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from pathlib import Path

NAMES = ("experiment", "coupled-small-n", "lemma-sweep", "simulate-full")

MODEL_FLAGS = ["--model", "canonical", "--sigma-env", "0.5", "--threads", "1"]

EXPERIMENT_GRID = (1000, 100_000, 100_000_000)
EXPERIMENT_REPLICATES = 200
COUPLED_N0 = 1000
COUPLED_REPLICATES = 4000
SIMULATE_N0 = 10_000
SIMULATE_REPLICATES = 300
# The CLI accepts one --n0 only, so the sweep is called through the public API.
LEMMA_GRID = (1000, 10_000, 100_000)
LEMMA_PATHS = 20
LEMMA_REPLICATES = 10_000
LEMMA_STEPS = 50


# Work per seed follows the heavy-tailed extinction times: over ten seeds
# the interquartile range of the step count was 10% of its median on
# experiment and 15% on simulate-full, against 1% on coupled-small-n.
# Those two average over several seeds per run, so that a run's wall time
# and memory depend little on which seed it was given.
SEEDS_PER_RUN = {"experiment": 6, "coupled-small-n": 1, "lemma-sweep": 1, "simulate-full": 6}


def bbpre_seeds(workload: str, seed: int) -> list:
    """The bbpre master seeds a run with benchmark seed ``seed`` uses."""
    k = SEEDS_PER_RUN[workload]
    return [seed * k + j for j in range(k)]


def cli_call(workload: str, seed: int, out: Path) -> tuple[str, list]:
    """The ``bbpre`` CLI arguments of a workload and the ``bbpre.cli`` name of its first call.

    Argument parsing and the model build happen before that call and
    count as set-up.
    """
    common = MODEL_FLAGS + ["--seed", str(seed)]
    if workload == "experiment":
        grid = ",".join(str(n) for n in EXPERIMENT_GRID)
        argv = ["experiment", "--n-grid", grid, "--replicates", str(EXPERIMENT_REPLICATES), "--out", str(out / "exp")]
        return "run_experiment", argv + common
    if workload == "coupled-small-n":
        argv = ["coupled", "--n0", str(COUPLED_N0), "--replicates", str(COUPLED_REPLICATES)]
        return "run_replicates", argv + ["--out", str(out / "coupled.csv")] + common
    if workload == "simulate-full":
        argv = ["simulate", "--rule", "polygamous", "--n0", str(SIMULATE_N0), "--replicates", str(SIMULATE_REPLICATES)]
        return "run_extinction_records", argv + ["--recording", "full", "--out", str(out / "simulate.csv")] + common
    raise ValueError(f"{workload!r} is not a CLI workload")
