"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED OUT_DIR MODE TRACE_FILE

MODE is ``run`` (run the workload and write its outputs to OUT_DIR),
``trace`` (the same with every layer wrapped; spans go to TRACE_FILE) or
``setup`` (stop at the workload's first call).  The last stdout line is
a JSON object with ``time.monotonic()`` readings taken at the first call
into the workload and after it returned with its outputs written, and
the peak resident memory of this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


class SetupDone(Exception):
    """Raised at the first call in ``setup`` mode."""


def hook_first_call(module, name: str, marks: dict, stop: bool) -> bool:
    """Record the time of the first call to ``module.name``; False if there is no such name."""
    fn = getattr(module, name, None)
    if fn is None:
        return False

    def first_call(*args, **kwargs):
        marks.setdefault("t_first", time.monotonic())
        if stop:
            raise SetupDone
        return fn(*args, **kwargs)

    setattr(module, name, first_call)
    return True


def run_lemma_sweep(bbpre, seed: int, out: Path) -> None:
    env, offspring, rule = bbpre.config.build_model_triple(preset="canonical", sigma_env=0.5)
    config = bbpre.stats.LemmaSweepConfig(
        env=env,
        offspring=offspring,
        rule=rule,
        n0_grid=workloads.LEMMA_GRID,
        paths=workloads.LEMMA_PATHS,
        replicates=workloads.LEMMA_REPLICATES,
        steps=workloads.LEMMA_STEPS,
        master_seed=seed,
        threads=1,
    )
    sweep = bbpre.stats.lemma_bound_sweep(config)
    bbpre.stats.write_sweep_csv(out / "sweep.csv", sweep)


def main(argv: list) -> int:
    workload, seed, out, mode, trace_file = argv[0], int(argv[1]), Path(argv[2]), argv[3], Path(argv[4])
    sys.path.insert(0, str(SRC))
    import bbpre
    import bbpre.cli
    import bbpre.config

    if not Path(bbpre.__file__).resolve().is_relative_to(SRC):
        print(f"bbpre was imported from {bbpre.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict = {}
    stop = mode == "setup"
    if workload == "lemma-sweep":
        hooked = hook_first_call(bbpre.stats, "lemma_bound_sweep", marks, stop)
        call = lambda: run_lemma_sweep(bbpre, seed, out)  # noqa: E731
    else:
        entry, cli_args = workloads.cli_call(workload, seed, out)
        hooked = hook_first_call(bbpre.cli, entry, marks, stop)
        call = lambda: bbpre.cli.main(cli_args)  # noqa: E731

    try:
        if not hooked:
            # without the entry name the run starts at the workload's call
            marks["t_first"] = time.monotonic()
            if stop:
                raise SetupDone
        code = call()
    except SetupDone:
        print(json.dumps({"t_first": marks["t_first"]}))
        return 0
    t_end = time.monotonic()
    if code:
        print(f"bbpre exited with code {code}", file=sys.stderr)
        return 4
    if "t_first" not in marks:
        print("the workload never reached its first call", file=sys.stderr)
        return 5

    result = {
        "t_first": marks["t_first"],
        "t_end": t_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
