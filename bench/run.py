"""The bbpre benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every repetition runs in a fresh interpreter (``child.py``),
one at a time, so nothing is shared between them but the file cache.

A run uses one or more bbpre master seeds derived from ``--seed``
(``workloads.bbpre_seeds``).  ``--trace 0`` first times the set-up alone
a few times, then runs the workload at each seed in turn until
``--seconds`` are used, at least three times and at least once more than
there are seeds.  It reports ``wall_s`` (first call into the run until it
returned with its outputs written), ``us_per_step`` (``wall_s`` per
replicate-step), ``setup_s`` (interpreter start until that first call:
importing bbpre, numpy and scipy, parsing flags and building the model)
and ``peak_rss_mb``.  ``wall_s`` and ``peak_rss_mb`` are the median over
the repetitions at a seed, averaged over the seeds; ``us_per_step``
divides that ``wall_s`` by the seeds' mean replicate-steps; ``setup_s``
is the median of all samples.

``--trace 1`` alternates untraced and traced repetitions at the first
seed and reports, from the traced ones, calls, self time and time per
call of each wrapped function (``tracer.py``), exact step counts, and the
tracing overhead.

Every repetition's outputs are checked (``checks.py``) and digested;
a repetition fails if bbpre raised, a check failed, or its digest or
exact counts differ from the other repetitions at the same seed.  The
last stdout line is the JSON result; the full record, with the run's
machine and versions, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import fmean, median

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "bbpre"
OUT = ROOT / ".bench_out"

# Whole-run limit; no child outlives it.
HARD_LIMIT_S = 170.0
SETUP_PROBES = 5
MIN_RUNS = 3


class Child:
    """Outcome of one child interpreter."""

    def __init__(self, seed: int, mode: str, t_spawn: float, proc, error: str = ""):
        self.seed = seed
        self.mode = mode
        self.errors: list = [error] if error else []
        self.result: dict = {}
        if not error:
            try:
                self.result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                self.errors.append("no result line")
        self.setup_s = self.result["t_first"] - t_spawn if "t_first" in self.result else None
        self.wall_s = self.result["t_end"] - self.result["t_first"] if "t_end" in self.result else None
        self.counts: dict = {}
        self.digest = ""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Child:
    rep_dir = OUT / workload / "rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    spans = OUT / "trace" / f"{workload}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(rep_dir), mode, str(spans)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return Child(seed, mode, t_spawn, None, error="timed out")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return Child(seed, mode, t_spawn, proc, error=f"exit {proc.returncode}: {tail[0]}")
    child = Child(seed, mode, t_spawn, proc)
    if mode != "setup" and not child.errors:
        child.counts, child.digest, errors = checks.inspect(workload, rep_dir)
        child.errors.extend(errors)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return child


def repeat(workload: str, plan: list, seconds: float, min_rounds: int, deadline: float) -> list:
    """Run the rounds of ``plan`` in turn, each a list of (seed, mode), until ``seconds`` are spent.

    At least ``min_rounds`` rounds run, unless the whole-run limit comes first.
    """
    children: list = []
    start = time.monotonic()
    rounds = 0
    while True:
        children.extend(spawn(workload, seed, mode, deadline) for seed, mode in plan[rounds % len(plan)])
        rounds += 1
        now = time.monotonic()
        per_round = (now - start) / rounds
        if now + 1.2 * per_round > deadline:
            break
        if rounds >= min_rounds and now - start + per_round > seconds:
            break
    return children


def mark_disagreements(children: list) -> None:
    """A repetition whose digest or exact counts differ from the majority at its seed fails."""
    key = lambda c: (c.digest, json.dumps(c.counts, sort_keys=True))  # noqa: E731
    for group in by_seed([c for c in children if not c.errors]).values():
        majority, _ = Counter(key(c) for c in group).most_common(1)[0]
        for c in group:
            if key(c) != majority:
                c.errors.append("outputs or exact counts differ from other runs at the same seed")


def by_seed(children: list) -> dict:
    groups: dict = {}
    for c in children:
        groups.setdefault(c.seed, []).append(c)
    return groups


def end_to_end(runs: list, probes: list) -> dict:
    groups = by_seed(runs).values()
    wall = fmean(median(c.wall_s for c in group) for group in groups)
    steps = fmean(group[0].counts["steps.total"] for group in groups)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "us_per_step": {"value": wall * 1e6 / steps, "unit": "us"},
        "setup_s": {"value": median(c.setup_s for c in probes + runs), "unit": "s"},
        "peak_rss_mb": {"value": fmean(median(c.result["peak_rss_mb"] for c in g) for g in groups), "unit": "MB"},
    }


PER_CALL_UNITS = (("calls", "count"), ("self_s", "s"), ("ns_per_call", "ns"))


def per_layer_names() -> list:
    """Every per-layer metric as (name, unit), in the order ``BENCHMARK.json`` lists them."""
    names = [(f"{t}.{stat}", unit) for t in tracer.TARGETS for stat, unit in PER_CALL_UNITS]
    names += [(f"{t}.{key}", "ms") for t in tracer.PERCENTILE_TARGETS for _, key in tracer.PERCENTILES]
    names += [("model.walk_increments.elements", "count"), ("stats.write_trajectories_csv.bytes", "B")]
    names += [("steps.total", "count"), ("steps.alive", "count"), ("steps.walk_only", "count")]
    names += [("trace.wall_s", "s"), ("trace.overhead_frac", "ratio")]
    return names


def per_layer(runs: list, traced: list) -> dict:
    values: dict = {}
    for target in tracer.TARGETS:
        entries = [c.result["layers"][target] for c in traced]
        values[f"{target}.calls"] = median(e["calls"] for e in entries)
        values[f"{target}.self_s"] = median(e["self_s"] for e in entries)
        values[f"{target}.ns_per_call"] = median(e["incl_s"] * 1e9 / e["calls"] if e["calls"] else 0.0 for e in entries)
        if target in tracer.PERCENTILE_TARGETS:
            # 0 where fewer than MIN_TAIL_SAMPLES calls lie beyond the percentile
            for _, key in tracer.PERCENTILES:
                values[f"{target}.{key}"] = median(e.get(key, 0.0) for e in entries)
        if target in tracer.COUNTERS:
            counter = tracer.COUNTERS[target][0]
            values[f"{target}.{counter}"] = median(e[counter] for e in entries)
    counts = traced[0].counts
    total = counts["steps.total"]
    # the sweep's outputs do not show which replicates were alive; its bundles do
    alive = counts.get("steps.alive", values["simulator.run_frozen_bundle.alive_steps"])
    values.update({"steps.total": total, "steps.alive": alive, "steps.walk_only": total - alive})
    values["trace.wall_s"] = median(c.wall_s for c in traced)
    values["trace.overhead_frac"] = values["trace.wall_s"] / median(c.wall_s for c in runs) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, seeds: list) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "bbpre_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def describe(c: Child) -> dict:
    out = {"seed": c.seed, "mode": c.mode, "setup_s": c.setup_s, "wall_s": c.wall_s, "errors": c.errors}
    if c.mode != "setup":
        out.update(peak_rss_mb=c.result.get("peak_rss_mb"), counts=c.counts, digest=c.digest)
    if "layers" in c.result:
        out["layers"] = c.result["layers"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no bbpre sources at {PACKAGE}; run from the root of a bbpre checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    seeds = workloads.bbpre_seeds(args.workload, args.seed)
    # the first child compiles bytecode and fills the file cache; its set-up time is not used
    warmup = spawn(args.workload, seeds[0], "setup", deadline)
    if args.trace:
        probes = []
        children = repeat(args.workload, [[(seeds[0], "run"), (seeds[0], "trace")]], args.seconds, 1, deadline)
    else:
        probes = [spawn(args.workload, seeds[0], "setup", deadline) for _ in range(SETUP_PROBES)]
        plan = [[(seed, "run")] for seed in seeds]
        # one extra round repeats the first seed, so every run checks determinism
        children = repeat(args.workload, plan, args.seconds, max(MIN_RUNS, len(seeds) + 1), deadline)
    mark_disagreements(children)
    attempted = [warmup] + probes + children
    failed = [c for c in attempted if c.errors]
    for c in failed:
        print(f"{c.mode} failed: {'; '.join(c.errors[:3])}", file=sys.stderr)
    runs = [c for c in children if c.mode == "run" and not c.errors]
    traced = [c for c in children if c.mode == "trace" and not c.errors]
    if not runs or (args.trace and not traced):
        print("no repetition succeeded; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(runs, traced)
    else:
        metrics = end_to_end(runs, [c for c in probes if not c.errors])

    record = {"metadata": metadata(args, seeds), "children": [describe(c) for c in attempted], "metrics": metrics}
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n")

    digests = sorted({c.digest for c in children if c.digest})
    counts = {seed: group[0].counts for seed, group in by_seed(runs).items()}
    print(json.dumps({"metadata": record["metadata"], "digests": digests, "counts": counts}))
    result = {"correct": not failed, "attempted": len(attempted), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
