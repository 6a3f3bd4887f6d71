"""Span tracing of bbpre's public functions, installed from outside the package.

Each target is wrapped at every name its callers resolve: a module-level
function is replaced in the globals of every loaded ``bbpre`` module that
holds it (``bbpre.stats.run_coupled``, ``bbpre.simulator.evolve_step``,
...), and a method is replaced on its class.  Every call appends one span
(name, start, end, parent) to flat in-memory arrays; nothing is written
until ``write_spans`` runs after the workload has returned.

Self time is a span's duration minus the durations of its direct child
spans.  The wrapper's own cost lands in the parent's self time, which is
why end-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# "<module>.<function>" or "<module>.<Class>.<method>", module relative to bbpre.
TARGETS = (
    "rng.derive_stream",
    "model.EnvironmentModel.sample",
    "model.OffspringModel.sample_totals",
    "model.MatingRule.mate",
    "model.walk_increment",
    "model.walk_increments",
    "model.audit_conditions",
    "walk.hitting_time",
    "simulator.evolve_step",
    "simulator.run_coupled",
    "simulator.run_until_extinction",
    "simulator.run_frozen_bundle",
    "simulator.bundle_diagnostics",
    "stats.run_experiment",
    "stats.run_replicates",
    "stats.run_extinction_records",
    "stats.lemma_bound_sweep",
    "stats.resolve_sigma",
    "stats.summarize_records",
    "stats.ks_statistic",
    "stats.write_replicates_csv",
    "stats.write_ecdf_csv",
    "stats.write_trajectories_csv",
    "stats.write_sweep_csv",
    "limit_law.FirstPassageLaw.cdf",
)

# Per-call latency percentiles are kept for these targets.
PERCENTILE_TARGETS = ("simulator.run_coupled", "simulator.run_until_extinction")
PERCENTILES = ((50, "p50_ms"), (99, "p99_ms"))
# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def _eta_elements(args, kwargs, result):
    eta = kwargs["eta"] if "eta" in kwargs else args[2]
    return int(getattr(eta, "size", 1))


def _file_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return os.path.getsize(path)


def _bundle_alive_steps(args, kwargs, result):
    # replicate-steps whose parent generation was alive
    counts = getattr(result, "counts", None)
    return 0 if counts is None else int((counts[:, :-1] > 0).sum())


# Counters summed over calls: target -> (counter name, function of the call).
COUNTERS = {
    "model.walk_increments": ("elements", _eta_elements),
    "stats.write_trajectories_csv": ("bytes", _file_bytes),
    "simulator.run_frozen_bundle": ("alive_steps", _bundle_alive_steps),
}


class Tracer:
    """Wraps the targets and records one span per call."""

    def __init__(self):
        self.names = array("B")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counters = {target: 0 for target in COUNTERS}
        self.installed = []

    def install(self, package_name: str = "bbpre") -> None:
        modules = [m for name, m in sys.modules.items() if name == package_name or name.startswith(package_name + ".")]
        for nid, target in enumerate(TARGETS):
            module_name, _, attr_path = target.partition(".")
            module = sys.modules.get(f"{package_name}.{module_name}")
            if module is None:
                continue
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = owner.__dict__.get(attr) if isinstance(owner, type) else None
                if not callable(original):
                    continue
                setattr(owner, attr, self._wrap(original, nid, target))
            else:
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(original, nid, target)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
            self.installed.append(target)

    def _wrap(self, fn, nid, target):
        names_append = self.names.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        starts = self.starts
        ends = self.ends
        stack = self.stack
        push = stack.append
        pop = stack.pop
        clock = time.perf_counter_ns

        if target not in COUNTERS:

            def wrapper(*args, **kwargs):
                idx = len(starts)
                names_append(nid)
                parents_append(stack[-1])
                starts_append(0)
                ends_append(0)
                push(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    pop()
                    starts[idx] = t0
                    ends[idx] = t1

            return wrapper

        counters = self.counters
        count = COUNTERS[target][1]

        def counting_wrapper(*args, **kwargs):
            idx = len(starts)
            names_append(nid)
            parents_append(stack[-1])
            starts_append(0)
            ends_append(0)
            push(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                starts[idx] = t0
                ends[idx] = t1
            counters[target] += count(args, kwargs, result)
            return result

        return counting_wrapper

    def summary(self) -> dict:
        """Per-target calls, inclusive and self seconds, percentiles and counters."""
        import numpy as np

        name = np.frombuffer(self.names, dtype=np.uint8)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        dur = (np.frombuffer(self.ends, dtype=np.int64) - np.frombuffer(self.starts, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(TARGETS))
        incl = np.bincount(name, weights=dur, minlength=len(TARGETS))
        self_sum = np.bincount(name, weights=self_ns, minlength=len(TARGETS))
        out = {}
        for nid, target in enumerate(TARGETS):
            entry = {
                "calls": int(calls[nid]),
                "incl_s": float(incl[nid]) / 1e9,
                "self_s": float(self_sum[nid]) / 1e9,
                "installed": target in self.installed,
            }
            if target in PERCENTILE_TARGETS:
                per_call_ms = dur[name == nid] / 1e6
                for q, key in PERCENTILES:
                    if per_call_ms.size * (100 - q) / 100.0 >= MIN_TAIL_SAMPLES:
                        entry[key] = float(np.percentile(per_call_ms, q))
            if target in COUNTERS:
                entry[COUNTERS[target][0]] = self.counters[target]
            out[target] = entry
        return out

    def write_spans(self, path) -> None:
        """Write every span as flat arrays; ``names`` maps name ids to targets."""
        import numpy as np

        np.savez(
            path,
            names=np.asarray(TARGETS),
            name=np.frombuffer(self.names, dtype=np.uint8),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )
