"""Output checks, exact step counts and the output digest of one repetition.

``inspect(workload, out_dir)`` reads the files a repetition wrote and
returns ``(counts, digest, errors)``.  ``counts`` holds exact integers
(``steps.total``, ``steps.alive``, ``steps.walk_only`` and row counts);
``steps.total`` is the replicate-step denominator of ``us_per_step``.
The digest is a sha256 over every output file's name and bytes.  Any
entry in ``errors`` makes the repetition a failure.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from workloads import (
    COUPLED_N0,
    COUPLED_REPLICATES,
    EXPERIMENT_GRID,
    EXPERIMENT_REPLICATES,
    LEMMA_GRID,
    LEMMA_PATHS,
    LEMMA_REPLICATES,
    LEMMA_STEPS,
    SIMULATE_N0,
    SIMULATE_REPLICATES,
)


def default_max_steps(n0: int) -> int:
    """The documented default censoring cap, ceil(50 ln^2 N)."""
    return int(math.ceil(50.0 * math.log(n0) ** 2))


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        with path.open("rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def _opt_int(text: str):
    return None if text == "" else int(text)


def read_replicates(path: Path) -> list[dict]:
    with path.open(newline="") as f:
        rows = list(csv.DictReader(f))
    return [
        {
            "replicate_id": int(r["replicate_id"]),
            "n0": int(r["N0"]),
            "tau": _opt_int(r["tau"]),
            "censored": r["censored_flag"] == "1",
            "theta": _opt_int(r["theta"]),
            "steps_run": int(r["steps_run"]),
        }
        for r in rows
    ]


def check_replicates(records: list[dict], n0: int, replicates: int, max_steps: int, errors: list) -> None:
    """Replicate count and per-row bounds: tau <= steps_run <= max_steps."""
    if len(records) != replicates:
        errors.append(f"N={n0}: {len(records)} replicate rows, expected {replicates}")
    if sorted(r["replicate_id"] for r in records) != list(range(len(records))):
        errors.append(f"N={n0}: replicate ids are not 0..{len(records) - 1}")
    for r in records:
        tau, steps = r["tau"], r["steps_run"]
        if r["n0"] != n0:
            errors.append(f"replicate {r['replicate_id']}: N0 {r['n0']}, expected {n0}")
        if r["censored"] != (tau is None):
            errors.append(f"N={n0} replicate {r['replicate_id']}: censored flag disagrees with tau")
        if not 1 <= steps <= max_steps:
            errors.append(f"N={n0} replicate {r['replicate_id']}: steps_run {steps} outside [1, {max_steps}]")
        if tau is not None and not 1 <= tau <= steps:
            errors.append(f"N={n0} replicate {r['replicate_id']}: tau {tau} outside [1, steps_run={steps}]")
        if r["theta"] is not None and not 1 <= r["theta"] <= steps:
            errors.append(f"N={n0} replicate {r['replicate_id']}: theta {r['theta']} outside [1, steps_run]")
    observed = sum(1 for r in records if r["tau"] is not None)
    censored = sum(1 for r in records if r["censored"])
    if observed + censored != len(records):
        errors.append(f"N={n0}: censored {censored} + observed {observed} != {len(records)} replicates")


def step_counts(records: list[dict]) -> dict:
    # the process is alive at the start of steps 1..tau, or of every step run
    total = sum(r["steps_run"] for r in records)
    alive = sum(r["tau"] if r["tau"] is not None else r["steps_run"] for r in records)
    return {"steps.total": total, "steps.alive": alive, "steps.walk_only": total - alive}


def _in_unit(value) -> bool:
    return value is None or (isinstance(value, (int, float)) and 0.0 <= value <= 1.0)


def inspect_experiment(out: Path, errors: list) -> dict:
    summary = json.loads((out / "exp_summary.json").read_text())
    records = read_replicates(out / "exp_replicates.csv")
    rows = summary["rows"]
    if [row["N"] for row in rows] != list(EXPERIMENT_GRID):
        errors.append(f"summary grid {[row['N'] for row in rows]} != {list(EXPERIMENT_GRID)}")
    for row in rows:
        n0 = row["N"]
        mine = [r for r in records if r["n0"] == n0]
        if row["max_steps"] != default_max_steps(n0):
            errors.append(f"N={n0}: max_steps {row['max_steps']} != {default_max_steps(n0)}")
        if row["replicates"] != EXPERIMENT_REPLICATES:
            errors.append(f"N={n0}: summary counts {row['replicates']} replicates")
        check_replicates(mine, n0, EXPERIMENT_REPLICATES, row["max_steps"], errors)
        observed = sum(1 for r in mine if r["tau"] is not None)
        if row["censored_count"] + observed != row["replicates"] - row["overflow_count"]:
            errors.append(f"N={n0}: censored + observed tau != usable replicates")
        if row["total_steps"] != sum(r["steps_run"] for r in mine):
            errors.append(f"N={n0}: summary total_steps disagrees with the replicate rows")
        for key in ("ks_tau", "ks_theta", "frac_N_theta_pos", "frac_N_theta_k_pos"):
            if not _in_unit(row[key]):
                errors.append(f"N={n0}: {key} = {row[key]!r} outside [0, 1]")
        ecdf = out / f"exp_ecdf_tau_N{n0}.csv"
        if observed:
            with ecdf.open(newline="") as f:
                points = list(csv.DictReader(f))
            if len(points) != observed:
                errors.append(f"N={n0}: {len(points)} ecdf rows, expected {observed}")
            if not all(_in_unit(float(p["F_empirical"])) and _in_unit(float(p["F_chi"])) for p in points):
                errors.append(f"N={n0}: ecdf values outside [0, 1]")
    counts = step_counts(records)
    if summary["global"]["work"]["total_steps"] != counts["steps.total"]:
        errors.append("summary total_steps disagrees with the replicate rows")
    counts["rows.replicates"] = len(records)
    return counts


def inspect_coupled(out: Path, errors: list) -> dict:
    records = read_replicates(out / "coupled.csv")
    check_replicates(records, COUPLED_N0, COUPLED_REPLICATES, default_max_steps(COUPLED_N0), errors)
    counts = step_counts(records)
    counts["rows.replicates"] = len(records)
    return counts


def inspect_simulate(out: Path, errors: list) -> dict:
    max_steps = default_max_steps(SIMULATE_N0)
    records = read_replicates(out / "simulate.csv")
    check_replicates(records, SIMULATE_N0, SIMULATE_REPLICATES, max_steps, errors)
    if any(r["theta"] is not None for r in records):
        errors.append("extinction-only replicates report a theta")
    rows_per_replicate: Counter = Counter()
    last_step: dict = {}
    with (out / "simulate_trajectories.csv").open() as f:
        header = f.readline().rstrip("\n")
        if header != "replicate_id,n,eta,F_total,M_total,N,xi,S,R":
            errors.append(f"unexpected trajectory header {header!r}")
        for line in f:
            rep_text, n_text, _ = line.split(",", 2)
            rep, n = int(rep_text), int(n_text)
            if n != last_step.get(rep, 0) + 1:
                errors.append(f"replicate {rep}: trajectory step {n} follows {last_step.get(rep, 0)}")
                break
            last_step[rep] = n
            rows_per_replicate[rep] += 1
    for r in records:
        # an overflow aborts the replicate before its steps are kept
        overflow = r["tau"] is None and r["steps_run"] < max_steps
        expected = 0 if overflow else r["steps_run"]
        if rows_per_replicate[r["replicate_id"]] != expected:
            errors.append(
                f"replicate {r['replicate_id']}: {rows_per_replicate[r['replicate_id']]} trajectory rows, "
                f"expected {expected}"
            )
    total = sum(r["steps_run"] for r in records)
    return {
        "steps.total": total,
        "steps.alive": total,
        "steps.walk_only": 0,
        "rows.replicates": len(records),
        "rows.trajectories": sum(rows_per_replicate.values()),
    }


def inspect_lemma(out: Path, errors: list) -> dict:
    with (out / "sweep.csv").open(newline="") as f:
        rows = list(csv.DictReader(f))
    expected = len(LEMMA_GRID) * LEMMA_PATHS * LEMMA_STEPS
    if len(rows) != expected:
        errors.append(f"{len(rows)} sweep rows, expected {expected}")
    keys = {(int(r["N0"]), int(r["path"]), int(r["n"])) for r in rows}
    grid = {(n0, p, n) for n0 in LEMMA_GRID for p in range(LEMMA_PATHS) for n in range(1, LEMMA_STEPS + 1)}
    if keys != grid:
        errors.append("sweep rows do not cover grid x paths x steps exactly once")
    return {
        "steps.total": len(LEMMA_GRID) * LEMMA_PATHS * LEMMA_REPLICATES * LEMMA_STEPS,
        "rows.sweep": len(rows),
    }


INSPECTORS = {
    "experiment": inspect_experiment,
    "coupled-small-n": inspect_coupled,
    "lemma-sweep": inspect_lemma,
    "simulate-full": inspect_simulate,
}


def inspect(workload: str, out_dir: Path) -> tuple[dict, str, list]:
    errors: list = []
    try:
        counts = INSPECTORS[workload](out_dir, errors)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
        counts = {}
    return counts, digest(out_dir), errors
