"""Command-line front end.

Subcommands: simulate, coupled, audit, experiment, limit-law,
lemma-sweep.  Exit codes: 0 success, 1 configuration error, 2 runtime
error (every replicate of a sweep or grid point overflow-tagged, excess
censoring).  Errors additionally emit one machine-readable JSON line on
stderr: ``{"error": "configuration"|"runtime", "message": "..."}``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import MODEL_PRESETS, build_model_triple, load_config_file, read_int, read_real
from .errors import BbpreError, ConfigurationError
from .limit_law import FirstPassageLaw
from .model import audit_conditions
from .rng import derive_stream
from .simulator import RECORDING_MODES
from .stats import (
    AUDIT_STREAM_KEY,
    ExperimentConfig,
    LemmaSweepConfig,
    lemma_bound_sweep,
    run_experiment,
    run_extinction_records,
    run_replicates,
    write_replicates_csv,
    write_sweep_csv,
    write_trajectories_csv,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are exit 1
        raise ConfigurationError(message)


def _int_flag(flag: str, minimum: int = 1):
    return lambda text: read_int(text, flag, minimum)


def _real_flag(flag: str, low: float = 0.0, high: float = math.inf, low_closed: bool = False):
    return lambda text: read_real(text, flag, low, high, low_closed=low_closed)


def _parse_grid(text: str) -> tuple:
    return tuple(read_int(p, "--n-grid", 3) for p in text.split(","))


def _parse_table(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"--table expects start:stop:count, got {text!r}")
    start = read_real(parts[0], "--table start", 0.0)
    stop = read_real(parts[1], "--table stop", start)
    return np.linspace(start, stop, read_int(parts[2], "--table count", 2))


def _parse_quantiles(text: str) -> tuple:
    return tuple(read_real(q, "--quantiles", 0.0, 1.0) for q in text.split(","))


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=sorted(MODEL_PRESETS), default="canonical",
                   help="offspring preset: canonical (critical) or shifted (+0.1 drift)")
    p.add_argument("--rule", choices=["monogamous", "polygamous", "asexual"], default=None,
                   help="mating rule (default: monogamous or the config file value)")
    p.add_argument("--sigma-env", type=_real_flag("--sigma-env", low_closed=True), default=None,
                   help="environment std-dev, >= 0 (default 0.5)")
    p.add_argument("--alpha", type=_real_flag("--alpha", high=1.0), default=None,
                   help="residual exponent in (0, 1), must satisfy 1/alpha < beta (default 0.5)")
    p.add_argument("--beta", type=_real_flag("--beta", 1.0), default=None,
                   help="moment parameter > 1; sets the hitting threshold exponent 2/(1+beta) (default 3)")
    p.add_argument("--d", type=_int_flag("--d"), default=None,
                   help="monogamous pairing capacity, positive integer (default 1); refused under other rules")
    p.add_argument("--config", type=Path, default=None, help="JSON config file; flags override its values")


def _add_seed_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_int_flag("--seed", 0), default=42,
                   help="master seed, non-negative integer; fixes all outputs (default 42)")


def _add_run_flags(p: argparse.ArgumentParser, replicates_default: int) -> None:
    p.add_argument("--replicates", type=_int_flag("--replicates"), default=replicates_default,
                   help=f"replicate count >= 1 (default {replicates_default})")
    _add_seed_flag(p)
    p.add_argument("--threads", type=_int_flag("--threads"), default=1,
                   help="worker process cap >= 1; does not change results (default 1)")
    p.add_argument("--max-steps", type=_int_flag("--max-steps"), default=None,
                   help="censoring cap in steps (default: ceil(50 ln^2 N))")
    p.add_argument("--out", type=Path, default=None, help="output path (CSV) or prefix (experiment)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bbpre", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="extinction-time replicates for one initial count")
    _add_model_flags(p)
    _add_run_flags(p, 1000)
    p.add_argument("--n0", type=_int_flag("--n0"), default=100_000, help="initial couple count >= 1")
    p.add_argument("--recording", choices=RECORDING_MODES, default="terminal",
                   help="trajectory recording mode (default terminal)")

    p = sub.add_parser("coupled", help="process and walk on one environment sequence per replicate")
    _add_model_flags(p)
    _add_run_flags(p, 1000)
    p.add_argument("--n0", type=_int_flag("--n0", 3), default=100_000, help="initial couple count >= 3")
    p.add_argument("--epsilon", type=_real_flag("--epsilon"), default=1.0,
                   help="window scale: k = floor(epsilon ln^2 N) (default 1.0)")

    p = sub.add_parser("audit", help="run the condition checks and moment audits")
    _add_model_flags(p)
    p.add_argument("--replicates", type=_int_flag("--replicates", 100), default=100_000,
                   help="Monte Carlo sample count >= 100 (default 100000)")
    _add_seed_flag(p)
    p.add_argument("--out", type=Path, default=None, help="write the full report as JSON")

    p = sub.add_parser("experiment", help="replicate sweep over an N grid with KS summaries")
    _add_model_flags(p)
    _add_run_flags(p, 2000)
    p.add_argument("--n-grid", type=_parse_grid, default=(1000, 100_000, 100_000_000),
                   help="comma-separated strictly increasing counts >= 3 (default 1000,100000,100000000)")
    p.add_argument("--epsilon", type=_real_flag("--epsilon"), default=1.0)

    p = sub.add_parser("limit-law", help="tabulate the reference law to CSV")
    p.add_argument("--sigma", type=_real_flag("--sigma"), default=1.0,
                   help="scale parameter > 0 (std of one walk increment)")
    p.add_argument("--table", type=_parse_table, default=None, help="t grid start:stop:count (t > 0)")
    p.add_argument("--quantiles", type=_parse_quantiles, default=None, help="comma-separated levels in (0,1)")
    p.add_argument("--out", type=Path, default=None, help="CSV output path (default: stdout)")

    p = sub.add_parser("lemma-sweep", help="frozen-bundle ratio diagnostics and slope fits")
    _add_model_flags(p)
    p.add_argument("--n0", type=_int_flag("--n0"), default=10_000)
    p.add_argument("--paths", type=_int_flag("--paths"), default=20, help="frozen environment paths (default 20)")
    p.add_argument("--replicates", type=_int_flag("--replicates", 2), default=10_000,
                   help="offspring randomizations per path (default 10000)")
    p.add_argument("--max-steps", type=_int_flag("--max-steps"), default=50,
                   help="per-path step horizon (default 50)")
    _add_seed_flag(p)
    p.add_argument("--threads", type=_int_flag("--threads"), default=1)
    p.add_argument("--out", type=Path, default=None, help="ratio table CSV path")

    return parser


def _models_from_args(args):
    cfg = load_config_file(args.config) if args.config else None
    return build_model_triple(
        file_config=cfg,
        preset=args.model,
        sigma_env=args.sigma_env,
        rule_kind=args.rule,
        alpha=args.alpha,
        beta=args.beta,
        d=args.d,
    )


def _cmd_simulate(args) -> int:
    env, offspring, rule = _models_from_args(args)
    # steps are recorded only for a trajectory file; recording draws nothing, so the outcomes are the same
    recording = args.recording if args.out is not None else "terminal"
    run = run_extinction_records(
        env, offspring, rule, args.n0, args.replicates, args.max_steps, args.seed, args.threads, recording
    )
    if args.out:
        write_replicates_csv(args.out, {args.n0: run})
        if recording != "terminal":
            write_trajectories_csv(args.out.parent / (args.out.stem + "_trajectories.csv"), run.steps)
    overflow = run.overflow_step > 0
    censored = np.count_nonzero((run.tau < 0) & ~overflow)
    print(
        f"simulate: n0={args.n0} replicates={run.tau.size} censored={censored} "
        f"overflow={np.count_nonzero(overflow)} out={args.out or '-'}"
    )
    return 0


def _experiment_config(args, n_grid) -> ExperimentConfig:
    env, offspring, rule = _models_from_args(args)
    return ExperimentConfig(
        env=env,
        offspring=offspring,
        rule=rule,
        n_grid=n_grid,
        replicates=args.replicates,
        epsilon=args.epsilon,
        master_seed=args.seed,
        threads=args.threads,
        max_steps=args.max_steps,
    )


def _cmd_coupled(args) -> int:
    run = run_replicates(_experiment_config(args, (args.n0,)))[0]
    if args.out:
        write_replicates_csv(args.out, {args.n0: run})
    overflow = run.overflow_step > 0
    censored = np.count_nonzero((run.tau < 0) & ~overflow)
    print(
        f"coupled: n0={args.n0} replicates={run.tau.size} tau_censored={censored} "
        f"theta_censored={np.count_nonzero(run.theta < 0)} overflow={np.count_nonzero(overflow)} "
        f"out={args.out or '-'}"
    )
    return 0


def _cmd_audit(args) -> int:
    env, offspring, rule = _models_from_args(args)
    report = audit_conditions(rule, env, offspring, args.replicates, derive_stream(args.seed, AUDIT_STREAM_KEY))
    payload = report.to_dict()
    for name in sorted(payload["conditions"]):
        entry = payload["conditions"][name]
        print(f"{name}: {entry['verdict']}")
        for w in entry["witnesses"]:
            print(f"  witness: {tuple(w)}")
    m = payload["moment_estimates"]
    print(
        "moments: mean_xi={mean_xi:.6g} (se {mean_xi_se:.2g}) var_xi={var_xi:.6g} (se {var_xi_se:.2g})".format(**m)
    )
    print(
        "         omega1={omega1_mean:.6g} omega2={omega2_mean:.6g} omega3={omega3_mean:.6g}".format(**m)
    )
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    config = _experiment_config(args, args.n_grid)
    t0 = time.monotonic()
    report = run_experiment(config, out_prefix=args.out)
    elapsed = time.monotonic() - t0
    print(f"sigma={report.sigma!r} ({report.sigma_source})")
    for row in report.rows:
        print(
            f"N={row.n0}: ks_tau={_fmt(row.ks_tau)} ks_theta={_fmt(row.ks_theta)} "
            f"frac_N_theta_pos={_fmt(row.frac_n_theta_pos)} frac_N_theta_k_pos={_fmt(row.frac_n_theta_k_pos)} "
            f"censored={row.censored_count}/{row.replicates} overflow={row.overflow_count}"
        )
    print(f"total steps={report.total_steps} elapsed={elapsed:.1f}s", file=sys.stderr)
    return 0


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.4f}"


def _cmd_limit_law(args) -> int:
    law = FirstPassageLaw(args.sigma)
    lines = []
    if args.quantiles:
        lines.append("q,quantile")
        for q in args.quantiles:
            lines.append(f"{q!r},{law.quantile(q)!r}")
    else:
        grid = args.table if args.table is not None else np.linspace(0.1, 10.0, 100)
        lines.append("t,pdf,cdf")
        for t in grid:
            lines.append(f"{float(t)!r},{law.pdf(float(t))!r},{law.cdf(float(t))!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"limit-law: wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_lemma_sweep(args) -> int:
    env, offspring, rule = _models_from_args(args)
    config = LemmaSweepConfig(
        env=env,
        offspring=offspring,
        rule=rule,
        n0_grid=(args.n0,),
        paths=args.paths,
        replicates=args.replicates,
        steps=args.max_steps,
        master_seed=args.seed,
        threads=args.threads,
    )
    sweep = lemma_bound_sweep(config)
    if args.out:
        write_sweep_csv(args.out, sweep)
    print(f"lemma-sweep: rows={sweep.ratios[:, :, 0].size} r3_hard_violations={sweep.r3_hard_violations}")
    for name, per_n0 in sweep.slopes.items():  # one grid point: no slopes in N
        for n0, (slope, se) in per_n0.items():
            print(f"  {name}[N={n0}]: slope={slope:.4f} se={se:.4f}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "coupled": _cmd_coupled,
    "audit": _cmd_audit,
    "experiment": _cmd_experiment,
    "limit-law": _cmd_limit_law,
    "lemma-sweep": _cmd_lemma_sweep,
}


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        _emit_error("configuration", str(exc))
        return 1
    except BbpreError as exc:
        _emit_error("runtime", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
