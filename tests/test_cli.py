import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bbpre
from bbpre import (
    ConfigurationError,
    ConstantMap,
    EnvironmentModel,
    ExperimentConfig,
    ExpMeanMap,
    LemmaSweepConfig,
    OffspringModel,
    TableMap,
    cli,
    monogamous,
    polygamous,
    run_extinction_records,
    run_replicates,
    stats,
)
from bbpre.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_contract(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code, stdout, _ = run_cli(
        capsys,
        "simulate",
        "--model", "canonical",
        "--sigma-env", "0.5",
        "--n0", "1000",
        "--replicates", "40",
        "--seed", "42",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "replicate_id,N0,tau,censored_flag,theta,N_theta,N_theta_plus_k,steps_run"
    assert len(lines) == 41
    assert "replicates=40" in stdout


def test_simulate_full_recording_exports_trajectories(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--n0", "200",
        "--replicates", "5",
        "--recording", "full",
        "--seed", "9",
        "--out", str(out),
    )
    assert code == 0
    steps = (tmp_path / "runs_trajectories.csv").read_text().splitlines()
    assert steps[0] == "replicate_id,n,eta,F_total,M_total,N,xi,S,R"
    assert len(steps) > 5
    first = steps[1].split(",")
    assert first[0] == "0" and first[1] == "1"


def test_limit_law_table(tmp_path, capsys):
    out = tmp_path / "chi.csv"
    code, _, _ = run_cli(capsys, "limit-law", "--sigma", "1.0", "--table", "0.1:10:100", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,pdf,cdf"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)


def test_limit_law_quantiles(capsys):
    code, stdout, _ = run_cli(capsys, "limit-law", "--sigma", "1.0", "--quantiles", "0.25,0.5,0.75")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "q,quantile"
    assert len(lines) == 4


@pytest.mark.parametrize("levels", ["1.5", "0", "nan", "0.5,1", "0.5,x"])
def test_limit_law_refuses_levels_outside_the_unit_interval(capsys, levels):
    code, stdout, stderr = run_cli(capsys, "limit-law", "--quantiles", levels)
    assert code == 1
    assert stdout == ""
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload["error"] == "configuration"
    assert "--quantiles" in payload["message"]


def test_limit_law_table_count_is_an_exact_integer(tmp_path, capsys):
    out = tmp_path / "chi.csv"
    code, _, _ = run_cli(capsys, "limit-law", "--table", "0.1:10:1e2", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 101
    code, _, stderr = run_cli(capsys, "limit-law", "--table", "0.1:10:2.5")
    assert code == 1
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload["error"] == "configuration"
    assert "--table" in payload["message"]


def test_audit_polygamous_reports_c4_witness(tmp_path, capsys):
    out = tmp_path / "audit.json"
    code, stdout, _ = run_cli(
        capsys,
        "audit",
        "--model", "canonical",
        "--sigma-env", "0.5",
        "--rule", "polygamous",
        "--replicates", "5000",
        "--out", str(out),
    )
    assert code == 0
    assert "C4: fail" in stdout
    assert "witness:" in stdout
    payload = json.loads(out.read_text())
    assert payload["conditions"]["C4"]["verdict"] == "fail"
    assert payload["conditions"]["C4"]["witnesses"]


def test_audit_canonical_passes_criticality(capsys):
    code, stdout, _ = run_cli(capsys, "audit", "--sigma-env", "0.5", "--replicates", "5000")
    assert code == 0
    assert "C7: pass" in stdout


def test_audit_refuses_a_noise_moment_sum_that_overflows(capsys):
    # order 100 at means up to e^(4 * 6): from a mean near 4e4 the moment itself is past the double range
    code, stdout, stderr = run_cli(capsys, "audit", "--alpha", "0.01", "--beta", "101", "--sigma-env", "6",
                                   "--replicates", "100")
    assert code == 1 and stdout == ""
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload == {"error": "configuration", "message": "the Poisson centered moment of order 100 overflows float64"}


def test_audit_refuses_a_moment_estimate_that_overflows(capsys):
    # the order-100 noise moments fit (up to about 1e267), but |zeta|^102 reaches 1e284 and its variance overflows
    code, stdout, stderr = run_cli(capsys, "audit", "--alpha", "0.01", "--beta", "101", "--sigma-env", "3",
                                   "--replicates", "100")
    assert code == 1 and stdout == ""
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload["error"] == "configuration" and "(order 102) overflows float64" in payload["message"]


def test_a_noise_moment_past_the_double_range_is_refused(tmp_path, capsys):
    # a mean of 1e308: the order-2.5 moment, about 1e385, is refused before any window is formed
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"offspring": {"mean_f": {"scale": 1e308}}}))
    code, stdout, stderr = run_cli(capsys, "audit", "--config", str(config), "--sigma-env", "0", "--alpha", "0.4",
                                   "--replicates", "100")
    assert code == 1 and stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "configuration",
                                    "message": "the Poisson centered moment of order 2.5 overflows float64"}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--sigma-env", "20", "--alpha", "0.4", "--replicates", "200"],
        ["audit", "--sigma-env", "100", "--alpha", "0.4", "--replicates", "200"],
        ["lemma-sweep", "--alpha", "0.4", "--sigma-env", "20", "--paths", "1", "--replicates", "10", "--seed", "1"],
    ],
    ids=["audit-sigma-env-20", "audit-sigma-env-100", "lemma-sweep-sigma-env-20"],
)
def test_noise_moments_of_huge_means_run_in_bounded_memory(argv, tmp_path):
    # means up to e^(4 sigma), far past MOMENT_SERIES_MAX: their moments come from the normal expansion, with no
    # window; each run, under a 1.5 GB address-space cap, exits 0 with finite numbers
    src = str(Path(bbpre.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-m", "bbpre", *argv, "--out", str(out)], capture_output=True,
                          text=True, env=env, timeout=120, preexec_fn=_limit_address_space)
    assert done.returncode == 0 and done.stderr == "" and done.stdout
    if argv[0] == "audit":
        assert json.loads(out.read_text())["moment_estimates"]["omega3_mean"] > 0.0  # the writer refuses inf and NaN
    else:
        # the path's bundle dies out: its rows are finite up to then and NaN after, as for any extinct bundle
        ratios = np.loadtxt(out, delimiter=",", skiprows=1)[:, 3:]
        alive = ~np.isnan(ratios).all(axis=1)
        assert alive[0] and np.isfinite(ratios[alive]).all() and np.array_equal(alive, np.arange(alive.size) < alive.sum())


def test_unknown_flag_is_a_configuration_error(capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--n0", "100", "--frobnicate", "9")
    assert code == 1
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload["error"] == "configuration"


def test_bad_flag_value_names_the_flag(capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--n0", "0")
    assert code == 1
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert "--n0" in payload["message"]
    code, _, stderr = run_cli(capsys, "experiment", "--n-grid", "10,5")
    assert code == 1
    for table in ("5:1:10", "1:1e400:3", "inf:5:3", "nan:5:3"):
        code, stdout, stderr = run_cli(capsys, "limit-law", "--table", table)
        assert code == 1 and stdout == ""
        assert "--table" in json.loads(stderr.strip().splitlines()[-1])["message"]


def test_help_lists_flags_for_every_subcommand(capsys):
    for sub, expected in (
        ("simulate", ("--n0", "--replicates", "--seed", "--threads", "--max-steps", "--recording", "--out")),
        ("coupled", ("--epsilon", "--beta", "--n0")),
        ("audit", ("--model", "--rule", "--sigma-env")),
        ("experiment", ("--n-grid", "--epsilon", "--threads", "--config")),
        ("limit-law", ("--sigma", "--table", "--quantiles")),
        ("lemma-sweep", ("--paths", "--n0", "--max-steps")),
    ):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in expected:
            assert flag in text, (sub, flag)


def test_experiment_cli_deterministic_across_threads(tmp_path, capsys):
    args = [
        "experiment",
        "--sigma-env", "0.5",
        "--n-grid", "100,1000",
        "--replicates", "60",
        "--seed", "7",
    ]
    code, _, _ = run_cli(capsys, *args, "--threads", "1", "--out", str(tmp_path / "t1"))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--threads", "2", "--out", str(tmp_path / "t2"))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--threads", "1", "--out", str(tmp_path / "t1b"))
    assert code == 0
    s1 = (tmp_path / "t1_summary.json").read_bytes()
    assert s1 == (tmp_path / "t2_summary.json").read_bytes()
    assert s1 == (tmp_path / "t1b_summary.json").read_bytes()
    assert (tmp_path / "t1_replicates.csv").read_bytes() == (tmp_path / "t2_replicates.csv").read_bytes()


def test_experiment_excess_censoring_is_a_runtime_error(capsys):
    code, _, stderr = run_cli(
        capsys,
        "experiment",
        "--model", "shifted",
        "--sigma-env", "0.5",
        "--n-grid", "100",
        "--replicates", "15",
        "--max-steps", "400",
        "--seed", "3",
    )
    assert code == 2
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload["error"] == "runtime"


def test_coupled_cli_writes_schema(tmp_path, capsys):
    out = tmp_path / "coupled.csv"
    code, _, _ = run_cli(
        capsys,
        "coupled",
        "--n0", "500",
        "--replicates", "20",
        "--epsilon", "0.5",
        "--seed", "11",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("replicate_id,N0,tau")
    assert len(lines) == 21


def test_lemma_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys,
        "lemma-sweep",
        "--n0", "300",
        "--paths", "3",
        "--replicates", "200",
        "--max-steps", "10",
        "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    assert "r3_hard_violations=0" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "N0,path,n,r2,r3,r3_se,r4"
    assert len(lines) == 1 + 3 * 10


def test_lemma_sweep_refuses_non_integer_deterministic_means(tmp_path, capsys):
    # every command builds its means through OffspringModel.means, so all of them refuse what simulate refuses;
    # experiment refuses at its audit stage, before any block runs or any file is written
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"offspring": {"kind": "deterministic"}}))
    out = tmp_path / "sweep.csv"
    for argv in (
        ["lemma-sweep", "--paths", "2", "--replicates", "20", "--max-steps", "5", "--out", str(out)],
        ["simulate", "--n0", "100", "--replicates", "3", "--max-steps", "5"],
        ["coupled", "--n0", "100", "--replicates", "3", "--max-steps", "5"],
        ["experiment", "--n-grid", "100,1000", "--replicates", "20", "--max-steps", "5", "--out",
         str(tmp_path / "exp")],
        ["audit", "--replicates", "100", "--out", str(tmp_path / "audit.json")],
    ):
        code, stdout, stderr = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1 and stdout == ""
        payload = json.loads(stderr.strip().splitlines()[-1])
        assert payload["error"] == "configuration"
        assert "deterministic offspring needs integer means" in payload["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def test_audit_refuses_an_omega1_that_overflows_without_a_warning(tmp_path):
    # alpha = 0.0015 makes the noise order 1 + delta = 666.667, and 3^666.667 (capacity 3) is past the double range
    argv = ["audit", "--d", "3", "--alpha", "0.0015", "--beta", "700", "--sigma-env", "0.5", "--replicates", "100"]
    src = str(Path(bbpre.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "bbpre", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {
        "error": "configuration",
        "message": "the Lipschitz and residual scales to the order 666.667 are not finite",
    }


@pytest.mark.parametrize(
    ("mean_f", "message"),
    [
        ({"shift": 800}, "bundle scale too large: the offspring mean at step 1 is infinite"),
        ({"constant": 1e301}, "bundle scale too large: an offspring total at step 1 exceeds 1e+300"),
    ],
    ids=["infinite", "finite-above-guard"],
)
def test_lemma_sweep_refuses_a_mean_past_the_guard_as_a_runtime_error(tmp_path, capsys, mean_f, message):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"offspring": {"mean_f": mean_f}}))
    code, stdout, stderr = run_cli(capsys, "lemma-sweep", "--config", str(cfg), "--paths", "2", "--replicates", "20",
                                   "--max-steps", "5")
    assert code == 2 and stdout == ""
    assert [json.loads(line) for line in stderr.splitlines()] == [{"error": "runtime", "message": message}]
    if "shift" in mean_f:  # the audit's noise scale still refuses an infinite mean as a configuration error
        for argv in (["audit", "--replicates", "100"], ["experiment", "--n-grid", "1000", "--replicates", "5"]):
            code, _, stderr = run_cli(capsys, *argv, "--config", str(cfg), "--out", str(tmp_path / argv[0]))
            assert code == 1 and json.loads(stderr) == {
                "error": "configuration", "message": "infinite conditional mean in the noise scale"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


@pytest.mark.parametrize(
    ("argv", "config"),
    [
        (["--rule", "polygamous", "--d", "2"], None),
        ([], {"rule": {"kind": "asexual", "d": 3}}),
    ],
    ids=["flag", "config"],
)
def test_a_capacity_under_a_rule_without_one_is_refused(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)]
    code, stdout, stderr = run_cli(capsys, "simulate", *argv, "--n0", "50", "--replicates", "2")
    assert code == 1 and stdout == ""
    lines = [json.loads(line) for line in stderr.splitlines()]
    assert len(lines) == 1 and lines[0]["error"] == "configuration" and "rule.d" in lines[0]["message"]


def test_zero_scale_mean_past_the_double_range_is_zero(tmp_path, capsys):
    # exp(eta + 800) overflows to inf; the zero scale makes the female mean 0, not 0 * inf = NaN
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"offspring": {"mean_f": {"scale": 0, "shift": 800}}}))
    out = tmp_path / "runs.csv"
    code, _, stderr = run_cli(capsys, "simulate", "--config", str(cfg), "--n0", "100", "--replicates", "5",
                              "--out", str(out))
    assert code == 0 and stderr == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == ["1"] * 5


@pytest.mark.parametrize(
    "argv, rule",
    [
        # a NaN male mean under the polygamous rule leaves the walk increments finite
        pytest.param(["simulate", "--n0", "100", "--replicates", "5"], polygamous(), id="argv0"),
        pytest.param(
            ["lemma-sweep", "--n0", "100", "--paths", "2", "--replicates", "20", "--max-steps", "5"],
            polygamous(),
            id="argv1",
        ),
        # under the monogamous rule it makes them NaN, before any mean is checked
        pytest.param(
            ["lemma-sweep", "--n0", "100", "--paths", "2", "--replicates", "20", "--max-steps", "5"],
            monogamous(1),
            id="lemma-sweep-monogamous",
        ),
        pytest.param(["coupled", "--n0", "100", "--replicates", "5"], monogamous(1), id="coupled-monogamous"),
        # the audit's walk stays finite too, and its noise scale refuses the mean
        pytest.param(["audit", "--replicates", "200"], polygamous(), id="audit-polygamous"),
    ],
)
def test_nan_mean_is_a_configuration_error(monkeypatch, capsys, argv, rule):
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(), mean_m=ConstantMap(float("nan")))
    monkeypatch.setattr(cli, "_models_from_args", lambda args: (env, off, rule))
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    payload = json.loads(stderr.strip().splitlines()[-1])
    assert payload["error"] == "configuration" and "NaN conditional mean" in payload["message"]


def test_lemma_sweep_with_every_path_dying_writes_nothing_to_stderr(tmp_path):
    # every path dies before its horizon, so the late per-step columns are all NaN
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"offspring": {"mean_f": {"shift": -1.0}, "mean_m": {"shift": -1.0}}}))
    out = tmp_path / "sweep.csv"
    argv = ["lemma-sweep", "--config", str(cfg), "--n0", "3", "--paths", "3", "--replicates", "50",
            "--max-steps", "30", "--out", str(out)]
    src = str(Path(bbpre.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "bbpre", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 30 and rows[-1][4] == "nan"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"env": {"std": 0.9}, "rule": {"kind": "polygamous"}}))
    out = tmp_path / "runs.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--config", str(cfg),
        "--rule", "asexual",
        "--n0", "50",
        "--replicates", "5",
        "--out", str(out),
    )
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run_cli(capsys, "simulate", "--config", str(bad), "--n0", "50")
    assert code == 1


def test_parser_covers_stable_flag_names():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("simulate", "coupled", "audit", "experiment", "limit-law", "lemma-sweep"):
        assert sub in text


def test_config_beta_sets_threshold_and_summary(tmp_path, capsys):
    # one beta: the config file's offspring.beta drives the hitting threshold,
    # the summary's global.beta and the audit's C5 alike
    cfg = tmp_path / "beta.json"
    cfg.write_text(json.dumps({"offspring": {"beta": 5}}))
    exp = ["experiment", "--n-grid", "100", "--replicates", "20", "--seed", "1", "--threads", "1"]
    code, _, _ = run_cli(capsys, *exp, "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert code == 0
    payload = json.loads((tmp_path / "b_summary.json").read_text())
    assert payload["global"]["beta"] == 5.0
    assert payload["global"]["condition_report"]["conditions"]["C5"]["detail"]["beta"] == 5.0
    coupled = ["coupled", "--n0", "500", "--replicates", "20", "--seed", "2"]
    for name, extra in (("file", ["--config", str(cfg)]), ("flag", ["--beta", "5"]), ("default", [])):
        code, _, _ = run_cli(capsys, *coupled, *extra, "--out", str(tmp_path / f"{name}.csv"))
        assert code == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    assert (tmp_path / "file.csv").read_bytes() != (tmp_path / "default.csv").read_bytes()


def test_recording_is_a_simulate_flag_only(capsys):
    for sub in ("coupled", "experiment"):
        code, _, stderr = run_cli(capsys, sub, "--recording", "full")
        assert code == 1
        assert json.loads(stderr.strip().splitlines()[-1])["error"] == "configuration"


def test_unknown_top_level_config_keys_are_rejected(tmp_path, capsys):
    for content in ({"bogus": 1}, {"experiment": {}}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        code, _, stderr = run_cli(capsys, "simulate", "--config", str(cfg), "--n0", "50", "--replicates", "2")
        assert code == 1
        assert json.loads(stderr.strip().splitlines()[-1])["error"] == "configuration"


@pytest.mark.parametrize(
    "content",
    [
        '{"env": {"mean": "x"}}',
        '{"env": "x"}',
        '{"offspring": {"beta": null}}',
        '{"rule": {"d": {"values": [1]}}}',
        '{"offspring": {"mean_f": {"shift": NaN}}}',
        '{"offspring": {"mean_f": {"constant": NaN}, "mean_m": {"constant": 1}}}',
        '{"env": {"std": true}}',
        '{"rule": {"d": true}}',
        '{"offspring": {"beta": 1e400}}',
        '{"rule": {"d": {"breakpoints": [NaN], "values": [1, 2]}}}',
        '{"rule": {"d": {"breakpoints": [0], "values": [1.5, 2]}}}',
        '{"rule": {"d": 1e400}}',
        '{"rule": {"d": 1' + "0" * 400 + '}}',
    ],
    ids=["env-mean-string", "env-string", "beta-null", "d-table-without-breakpoints", "shift-nan", "constant-nan",
         "std-true", "d-true", "beta-overflow", "breakpoint-nan", "d-table-fraction", "d-overflow", "d-400-digits"],
)
def test_malformed_config_values_are_configuration_errors(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, stdout, stderr = run_cli(capsys, "simulate", "--config", str(cfg), "--n0", "50", "--replicates", "2")
    assert code == 1 and stdout == ""
    assert json.loads(stderr.strip().splitlines()[-1])["error"] == "configuration"


def test_integer_flags_parse_exactly_or_refuse(capsys):
    for flag, value in (("--n0", "1000.9"), ("--replicates", "3.7")):
        code, _, stderr = run_cli(capsys, "simulate", flag, value)
        assert code == 1
        payload = json.loads(stderr.strip().splitlines()[-1])
        assert payload["error"] == "configuration" and flag in payload["message"]
    code, _, stderr = run_cli(capsys, "experiment", "--n-grid", "1000,1e5.5")
    assert code == 1 and json.loads(stderr.strip().splitlines()[-1])["error"] == "configuration"
    parser = build_parser()
    assert parser.parse_args(["experiment", "--n-grid", "1e3,1e32"]).n_grid == (1000, 10**32)
    assert parser.parse_args(["simulate", "--n0", "1e3", "--replicates", "2.0"]).n0 == 1000
    code, stdout, _ = run_cli(capsys, "simulate", "--n0", "1e3", "--replicates", "3", "--max-steps", "20")
    assert code == 0 and "n0=1000 replicates=3 " in stdout


def test_seed_is_a_non_negative_integer(capsys):
    runs = {
        "simulate": ["simulate", "--n0", "100", "--replicates", "3"],
        "coupled": ["coupled", "--n0", "100", "--replicates", "3"],
        "audit": ["audit", "--replicates", "100"],
        "experiment": ["experiment", "--n-grid", "1000", "--replicates", "3"],
        "lemma-sweep": ["lemma-sweep", "--paths", "1", "--replicates", "2", "--max-steps", "2"],
    }
    for argv in runs.values():
        for bad in ("-1", "2.5", "x"):
            code, stdout, stderr = run_cli(capsys, *argv, "--seed", bad)
            assert code == 1 and stdout == ""
            payload = json.loads(stderr.strip().splitlines()[-1])
            assert payload["error"] == "configuration" and "--seed" in payload["message"]
        assert build_parser().parse_args(argv + ["--seed", "1e3"]).seed == 1000
    code, stdout, _ = run_cli(capsys, *runs["simulate"], "--seed", "0", "--max-steps", "20")
    assert code == 0 and "replicates=3 " in stdout
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), monogamous(1)
    with pytest.raises(ConfigurationError, match="master_seed"):
        ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(1000,), master_seed=-1)
    with pytest.raises(ConfigurationError, match="master_seed"):
        LemmaSweepConfig(env=env, offspring=off, rule=rule, master_seed=-1)
    with pytest.raises(ConfigurationError, match="master_seed"):
        run_extinction_records(env, off, rule, 100, 3, 20, -1)


def test_simulate_records_steps_only_for_a_trajectory_file(tmp_path, monkeypatch, capsys):
    calls = []

    def spy(*args):
        calls.append(args[8])
        return run_extinction_records(*args)

    monkeypatch.setattr(cli, "run_extinction_records", spy)
    argv = ["simulate", "--n0", "200", "--replicates", "5", "--seed", "9"]
    lines = []
    for extra in (["--recording", "terminal"], ["--recording", "full"],
                  ["--recording", "full", "--out", str(tmp_path / "r.csv")]):
        code, stdout, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        lines.append(stdout.split(" out=")[0])
    assert calls == ["terminal", "terminal", "full"]
    assert lines[0] == lines[1] == lines[2]
    assert (tmp_path / "r_trajectories.csv").exists()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("run_experiment", ["experiment", "--n-grid", "100", "--replicates", "20"]),
        ("run_replicates", ["coupled", "--n0", "100", "--replicates", "20"]),
        ("run_extinction_records", ["simulate", "--n0", "100", "--replicates", "20"]),
    ],
)
def test_subcommands_call_the_sweeps_through_the_cli_modules_names(monkeypatch, capsys, name, argv):
    # bench/child.py times a run from the first call to one of these names, patched into bbpre.cli
    sweep = getattr(cli, name)
    assert sweep is getattr(stats, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0 and calls == [name]


@pytest.mark.parametrize(
    "argv",
    [["experiment", "--n-grid", "100", "--replicates", "5"], ["coupled", "--n0", "100", "--replicates", "5"]],
    ids=["experiment", "coupled"],
)
def test_commands_set_every_experiment_config_field(monkeypatch, capsys, argv):
    # a field that no command sets could be changed only from the tests
    passed = []

    def spy(**kwargs):
        passed.append(set(kwargs))
        return ExperimentConfig(**kwargs)

    monkeypatch.setattr(cli, "ExperimentConfig", spy)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert passed == [{f.name for f in dataclasses.fields(ExperimentConfig)}]


def test_summary_lines_count_overflow_tagged_replicates(monkeypatch, capsys):
    # the female mean jumps past the guard only where eta >= 1.25; the male mean follows eta,
    # so the walk has the positive sigma that experiment needs
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ExpMeanMap())
    monkeypatch.setattr(cli, "_models_from_args", lambda args: (env, off, rule))
    run = run_extinction_records(env, off, rule, 1000, 40, 200, 5)
    tagged = np.count_nonzero(run.overflow_step)
    assert 0 < tagged < 40
    code, stdout, _ = run_cli(capsys, "simulate", "--n0", "1000", "--replicates", "40", "--max-steps", "200",
                              "--seed", "5")
    assert code == 0
    censored = np.count_nonzero((run.tau < 0) & (run.overflow_step == 0))
    assert f"censored={censored} overflow={tagged} " in stdout
    config = ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(1000,), replicates=40, master_seed=5,
                              max_steps=200)
    run = run_replicates(config)[0]
    tagged = np.count_nonzero(run.overflow_step)
    censored = np.count_nonzero((run.tau < 0) & (run.overflow_step == 0))
    assert 0 < tagged < 40
    code, stdout, _ = run_cli(capsys, "coupled", "--n0", "1000", "--replicates", "40", "--max-steps", "200",
                              "--seed", "5")
    assert code == 0 and f" overflow={tagged} " in stdout
    code, stdout, _ = run_cli(capsys, "experiment", "--n-grid", "1000", "--replicates", "40", "--max-steps", "200",
                              "--seed", "5")
    assert code == 0
    assert stdout.splitlines()[-1].endswith(f" censored={censored}/40 overflow={tagged}")


def test_sweeps_whose_replicates_all_overflow_exit_2(tmp_path, monkeypatch, capsys):
    # a female mean of 1e301 crosses the guard at step 1 in every replicate
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off = OffspringModel(mean_f=ConstantMap(1e301), mean_m=ExpMeanMap())
    monkeypatch.setattr(cli, "_models_from_args", lambda args: (env, off, rule))
    runs = {
        "simulate": ["simulate", "--n0", "1000", "--replicates", "30", "--seed", "5", "--recording", "full"],
        "coupled": ["coupled", "--n0", "1000", "--replicates", "30", "--seed", "5"],
        "experiment": ["experiment", "--n-grid", "1000,100000", "--replicates", "30", "--seed", "5"],
    }
    for name, argv in runs.items():
        code, stdout, stderr = run_cli(capsys, *argv, "--out", str(tmp_path / name))
        assert code == 2 and stdout == ""
        error = json.loads(stderr.strip().splitlines()[-1])
        assert error["error"] == "runtime"
        assert "N=1000" in error["message"] and "all 30 replicates" in error["message"]
    assert list(tmp_path.iterdir()) == []  # refused before writing anything
