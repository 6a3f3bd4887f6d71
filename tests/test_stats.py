import concurrent.futures
import csv
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from bbpre import (
    ConfigurationError,
    ConstantMap,
    EnvironmentModel,
    ExcessCensoringError,
    ExpMeanMap,
    FirstPassageLaw,
    LemmaSweep,
    LemmaSweepConfig,
    MatingRule,
    OffspringModel,
    ExperimentConfig,
    TableMap,
    ks_statistic,
    lemma_bound_sweep,
    loglog_slope,
    monogamous,
    polygamous,
    run_experiment,
    run_extinction_records,
    run_replicates,
    stats,
)
from bbpre.simulator import STEP_DTYPE, BlockRun
from bbpre.stats import summarize_records, write_replicates_csv, write_sweep_csv, write_trajectories_csv
from bbpre.walk import default_max_steps
from recorded import all_steps


def small_config(**kw):
    base = dict(
        env=EnvironmentModel(std=0.5),
        offspring=OffspringModel(),
        rule=monogamous(1),
        n_grid=(100, 1000),
        replicates=150,
        epsilon=1.0,
        master_seed=42,
        threads=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def block_run(tau, overflow_step, steps_run, theta, n_theta, n_theta_plus_k):
    """A ``BlockRun`` of the given per-replicate values, with no recorded steps."""
    ints = [np.array(v, dtype=np.int64) for v in (tau, overflow_step, steps_run, theta)]
    counts = [np.array(v, dtype=float) for v in (n_theta, n_theta_plus_k)]
    return BlockRun(*ints, *counts, steps=(np.empty(0, dtype=STEP_DTYPE),))


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_statistic_rejects_empty():
    with pytest.raises(ValueError):
        ks_statistic([], FirstPassageLaw(1.0))


def test_ks_single_sample_at_median_is_half():
    law = FirstPassageLaw(1.0)
    assert ks_statistic([law.median], law) == pytest.approx(0.5, abs=1e-12)


def test_ks_of_samples_from_the_law_is_small():
    law = FirstPassageLaw(1.0)
    draws = law.sample(np.random.default_rng(31), size=100_000)
    assert ks_statistic(draws, law) <= 0.01


def test_ks_jump_formula_agrees_with_grid_scan():
    law = FirstPassageLaw(1.0)
    samples = law.sample(np.random.default_rng(32), size=2_000)
    d_jump = ks_statistic(samples, law)
    xs = np.sort(samples)
    grid = np.unique(np.concatenate([xs, xs - 1e-12, np.linspace(0.0, xs.max() + 1.0, 200_001)]))
    ecdf = np.searchsorted(xs, grid, side="right") / xs.size
    d_grid = float(np.max(np.abs(ecdf - law.cdf(grid))))
    assert abs(d_jump - d_grid) <= 1e-6


def test_ks_right_censored_denominator():
    # uncensored part of a larger sample: jumps use the total count
    law = FirstPassageLaw(1.0)
    xs = [law.quantile(q) for q in (0.1, 0.2, 0.3, 0.4, 0.5)]
    d = ks_statistic(xs, law, n_total=10)
    assert d == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        ks_statistic(xs, law, n_total=3)


def test_loglog_slope_recovers_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    slope, se = loglog_slope(x, 3.0 * x**-0.7)
    assert slope == pytest.approx(-0.7, abs=1e-9)
    assert se == pytest.approx(0.0, abs=1e-9)
    s2, se2 = loglog_slope(x, np.array([1.0, 1.1, 0.9, 1.05, 0.95, 1.0]))
    assert abs(s2) <= 2 * se2


def test_loglog_slope_weighted_variant():
    x = np.array([1e3, 1e4, 1e5])
    y = 2.0 * x**-0.3
    slope, se = loglog_slope(x, y, y_se=y * 0.01)
    assert slope == pytest.approx(-0.3, abs=1e-12)
    # propagated error: 1 / sqrt(sum w (lx - mean)^2) with w = 1/0.0001
    assert se == pytest.approx(0.00307, abs=1e-4)
    flat, flat_se = loglog_slope(x, np.array([1.0, 1.005, 0.997]), y_se=np.full(3, 0.01))
    assert abs(flat) <= 2 * flat_se


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        small_config(n_grid=(2, 100))
    with pytest.raises(ConfigurationError):
        small_config(n_grid=(1000, 100))
    with pytest.raises(ConfigurationError):
        small_config(n_grid=(100, 100))
    with pytest.raises(ConfigurationError):
        small_config(replicates=0)
    with pytest.raises(ConfigurationError):
        small_config(epsilon=0.0)
    for field, bad in (("epsilon", math.nan), ("epsilon", math.inf), ("max_steps", 0), ("replicates", True)):
        with pytest.raises(ConfigurationError, match=field):
            small_config(**{field: bad})
    model = dict(env=EnvironmentModel(std=0.5), offspring=OffspringModel(), rule=monogamous(1))
    for threads in (0, -3):
        with pytest.raises(ConfigurationError, match="threads"):
            LemmaSweepConfig(threads=threads, **model)
    with pytest.raises(ConfigurationError, match="max_steps"):
        run_extinction_records(n0=100, replicates=3, max_steps=0, master_seed=1, **model)


def test_run_extinction_records_contract():
    run = run_extinction_records(
        EnvironmentModel(std=0.5), OffspringModel(), monogamous(1), 1000, 25, None, 42, threads=1
    )
    assert run.tau.size == 25 and all_steps(run).size == 0
    assert np.all(run.theta == -1) and np.all(np.isnan(run.n_theta)) and np.all(np.isnan(run.n_theta_plus_k))
    assert np.all(run.overflow_step == 0)
    assert np.all(run.steps_run == np.where(run.tau < 0, default_max_steps(1000), run.tau))


def test_replicates_independent_of_thread_count():
    cfg1 = small_config(threads=1)
    cfg2 = small_config(threads=2)
    a = run_replicates(cfg1)[1]
    b = run_replicates(cfg2)[1]
    names = [f.name for f in dataclasses.fields(BlockRun) if f.name != "steps"]
    assert [getattr(a, n).tobytes() for n in names] == [getattr(b, n).tobytes() for n in names]
    assert all_steps(a).tobytes() == all_steps(b).tobytes()


def test_summary_reconciles_and_serializes(tmp_path):
    config = small_config()
    report = run_experiment(config, out_prefix=tmp_path / "exp")
    assert report.sigma == 0.5
    assert report.sigma_source == "analytic"
    for row in report.rows:
        assert row.replicates == config.replicates
        uncensored_taus = row.replicates - row.overflow_count - row.censored_count
        assert 0 <= row.censored_count <= row.replicates
        assert uncensored_taus >= 0
        assert 0.0 <= row.ks_tau <= 1.0
        assert 0.0 <= row.ks_theta <= 1.0
        assert row.n_theta_observed <= row.replicates
        if row.frac_n_theta_pos is not None:
            assert 0.0 <= row.frac_n_theta_pos <= 1.0
        if row.frac_n_theta_k_pos is not None:
            assert 0.0 <= row.frac_n_theta_k_pos <= 1.0
    payload = json.loads((tmp_path / "exp_summary.json").read_text())
    assert [r["N"] for r in payload["rows"]] == [100, 1000]
    # the limit law has no mean, so a row reports none
    assert list(payload["rows"][0]) == [
        "N", "replicates", "censored_count", "theta_censored_count", "overflow_count", "k", "max_steps", "ks_tau",
        "ks_theta", "frac_N_theta_pos", "frac_N_theta_k_pos", "n_theta_observed", "n_theta_k_observed",
        "median_tau_scaled", "total_steps",
    ]
    assert payload["global"]["sigma"] == 0.5
    assert "condition_report" in payload["global"]
    csv_lines = (tmp_path / "exp_replicates.csv").read_text().splitlines()
    assert csv_lines[0] == "replicate_id,N0,tau,censored_flag,theta,N_theta,N_theta_plus_k,steps_run"
    assert len(csv_lines) == 1 + 2 * config.replicates
    ecdf_lines = (tmp_path / "exp_ecdf_tau_N100.csv").read_text().splitlines()
    assert ecdf_lines[0] == "t,F_empirical,F_chi"
    # totals reconcile exactly: every replicate is censored, overflowed, or in the ECDF
    row100 = report.rows[0]
    assert len(ecdf_lines) - 1 == row100.replicates - row100.censored_count - row100.overflow_count


def _first_squared(x, y, z):
    return np.asarray(x, dtype=float) ** 2


def test_a_custom_approximant_takes_a_monte_carlo_sigma():
    # g = x^2 makes the increment 2 eta: its sigma is twice the environment's, not the analytic 0.5
    rule = MatingRule(L=polygamous().L, g=_first_squared, lipschitz=ConstantMap(1.0), rho=ConstantMap(1.0))
    sigma, source, se = stats.resolve_sigma(small_config(rule=rule))
    assert source == "monte_carlo" and abs(sigma - 1.0) < 0.01 and se > 0


def test_experiment_outputs_are_deterministic(tmp_path):
    config = small_config()
    run_experiment(config, out_prefix=tmp_path / "a")
    run_experiment(config, out_prefix=tmp_path / "b")
    run_experiment(small_config(threads=2), out_prefix=tmp_path / "c")
    a = (tmp_path / "a_summary.json").read_bytes()
    assert a == (tmp_path / "b_summary.json").read_bytes()
    assert a == (tmp_path / "c_summary.json").read_bytes()
    ra = (tmp_path / "a_replicates.csv").read_bytes()
    assert ra == (tmp_path / "b_replicates.csv").read_bytes()
    assert ra == (tmp_path / "c_replicates.csv").read_bytes()


def test_ecdf_files_hold_plain_numbers(tmp_path):
    run_experiment(small_config(), out_prefix=tmp_path / "exp")
    files = sorted(tmp_path.glob("exp_ecdf_tau_N*.csv"))
    assert [p.name for p in files] == ["exp_ecdf_tau_N100.csv", "exp_ecdf_tau_N1000.csv"]
    for path in files:
        header, *rows = path.read_text().splitlines()
        assert header == "t,F_empirical,F_chi" and rows
        cells = [[float(cell) for cell in row.split(",")] for row in rows]
        assert all(len(row) == 3 for row in cells)
        t = [row[0] for row in cells]
        assert t == sorted(t)


def test_experiment_hands_every_grid_points_blocks_to_the_workers_at_once(tmp_path, monkeypatch):
    # 40 replicates in blocks of 16: three blocks per grid point, the last one ragged
    monkeypatch.setattr(stats, "BLOCK", 16)
    handed = []
    run_chunked = stats._run_chunked

    def spy(tasks, worker, threads, *cost):
        handed.append(len(tasks))
        return run_chunked(tasks, worker, threads, *cost)

    monkeypatch.setattr(stats, "_run_chunked", spy)
    for threads in (1, 2):
        run_experiment(small_config(replicates=40, threads=threads), out_prefix=tmp_path / f"t{threads}")
    assert handed == [6, 6]
    for suffix in ("summary.json", "replicates.csv"):
        assert (tmp_path / f"t1_{suffix}").read_bytes() == (tmp_path / f"t2_{suffix}").read_bytes()
    ids = [int(line.split(",")[0]) for line in (tmp_path / "t1_replicates.csv").read_text().splitlines()[1:]]
    assert ids == list(range(40)) * 2


def test_workers_start_the_largest_blocks_first(tmp_path, monkeypatch):
    # 40 replicates in blocks of 16 per grid point: the N = 1000 blocks have the
    # larger cap, and each grid point's ragged last block is the smallest
    monkeypatch.setattr(stats, "BLOCK", 16)
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks):
            started.extend((t[3], t[8]) for t in tasks)
            return map(worker, tasks)

    run_experiment(small_config(replicates=40, threads=1), out_prefix=tmp_path / "t1")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    run_experiment(small_config(replicates=40, threads=2), out_prefix=tmp_path / "t2")
    assert started == [(1000, 0), (1000, 16), (1000, 32), (100, 0), (100, 16), (100, 32)]
    for suffix in ("summary.json", "replicates.csv"):
        assert (tmp_path / f"t1_{suffix}").read_bytes() == (tmp_path / f"t2_{suffix}").read_bytes()


def test_supercritical_drift_aborts_on_excess_censoring():
    # +0.1 drift never descends to the threshold: censoring far exceeds
    # what the critical reference law can explain
    config = small_config(
        offspring=OffspringModel(mean_f=ExpMeanMap(shift=0.1), mean_m=ExpMeanMap(shift=0.1)),
        n_grid=(100,),
        replicates=20,
        max_steps=500,
    )
    with pytest.raises(ExcessCensoringError):
        run_experiment(config)


def test_summarize_records_empty_overflow_only():
    law = FirstPassageLaw(0.5)
    # replicate 0 is overflow-tagged at step 3, replicate 1 died at step 5 and hit at step 7
    run = block_run([-1, 5], [3, 0], [3, 12], [-1, 7], [np.nan, 4.0], [np.nan, 0.0])
    row = summarize_records(run, 100, 21, 1000, law)
    assert row.replicates == 2
    assert row.overflow_count == 1
    assert row.censored_count == 0
    assert row.ks_tau is not None
    assert row.total_steps == 15


def test_overflow_tagged_replicates_are_censored_in_the_ks_denominator(tmp_path):
    # the female mean jumps past the guard only where eta >= 1.25; the male mean follows eta
    off = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ExpMeanMap())
    config = ExperimentConfig(env=EnvironmentModel(std=0.5), offspring=off, rule=monogamous(1), n_grid=(1000,),
                              replicates=40, master_seed=5, max_steps=200)
    report = run_experiment(config, out_prefix=tmp_path / "exp")
    run, row, law = run_replicates(config)[0], report.rows[0], FirstPassageLaw(report.sigma)
    usable, scale = run.overflow_step == 0, math.log(1000) ** 2
    assert 0 < row.overflow_count == 40 - np.count_nonzero(usable)
    assert row.censored_count == np.count_nonzero(usable & (run.tau < 0))  # censored at the cap only
    taus = np.sort(run.tau[run.tau >= 0]) / scale
    thetas = np.sort(run.theta[run.theta >= 0]) / scale
    assert row.ks_tau == ks_statistic(taus, law, n_total=40)
    assert row.ks_theta == ks_statistic(thetas, law, n_total=40)
    assert row.median_tau_scaled == taus[19]
    ecdf = (tmp_path / "exp_ecdf_tau_N1000.csv").read_text().splitlines()[1:]
    assert [line.split(",")[1] for line in ecdf] == [repr(i / 40) for i in range(1, taus.size + 1)]


def test_ks_theta_keeps_the_observed_theta_of_tagged_replicates(tmp_path):
    # as above; at seed 0 two tagged replicates hit before their overflow step, and the replicate CSV prints both
    off = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ExpMeanMap())
    config = ExperimentConfig(env=EnvironmentModel(std=0.5), offspring=off, rule=monogamous(1), n_grid=(1000,),
                              replicates=40, master_seed=0, max_steps=200)
    report = run_experiment(config, out_prefix=tmp_path / "exp")
    run, row = run_replicates(config)[0], report.rows[0]
    assert np.count_nonzero((run.overflow_step > 0) & (run.theta >= 0)) == 2
    with open(tmp_path / "exp_replicates.csv", newline="") as fh:
        printed = [int(r["theta"]) for r in csv.DictReader(fh) if r["theta"]]
    assert len(printed) == row.replicates - row.theta_censored_count == 39
    thetas = np.sort(np.array(printed)) / math.log(1000) ** 2
    assert row.ks_theta == ks_statistic(thetas, FirstPassageLaw(report.sigma), n_total=40)


def test_replicates_csv_cells(tmp_path):
    # censored; observed tau and theta with a count past int64; overflow-tagged at step 3 after
    # hitting at step 2; then a second grid point, whose replicate ids start again at 0
    runs = {
        100: block_run(
            [-1, 12, -1], [0, 0, 3], [50, 12, 3], [-1, 7, 2], [np.nan, 2.0**70, 5.0], [np.nan, 0.0, np.nan]
        ),
        1000: block_run([4], [0], [9], [9], [0.0], [0.0]),
    }
    write_replicates_csv(tmp_path / "r.csv", runs)
    assert (tmp_path / "r.csv").read_text().splitlines() == [
        "replicate_id,N0,tau,censored_flag,theta,N_theta,N_theta_plus_k,steps_run",
        "0,100,,1,,,,50",
        "1,100,12,0,7,1180591620717411303424,0,12",
        "2,100,,1,2,5,,3",
        "0,1000,4,0,9,0,0,9",
    ]


def test_trajectory_writer_matches_the_plain_row_format(tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "CSV_CHUNK_ROWS", 7)  # many chunks and a ragged last one
    off = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    run = run_extinction_records(EnvironmentModel(std=0.5), off, monogamous(1), 200, 12, None, 9, recording="full")
    steps = all_steps(run)
    assert steps.size > 7 * 3
    write_trajectories_csv(tmp_path / "t.csv", run.steps)
    want = ["replicate_id,n,eta,F_total,M_total,N,xi,S,R"] + [
        f"{rep_id},{n},{eta!r},{int(f)},{int(m)},{int(c)},{xi!r},{s!r},{r!r}"
        for rep_id, n, eta, f, m, c, xi, s, r in steps.tolist()
    ]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


def plain_trajectory_csv(steps) -> str:
    """The trajectory CSV of ``steps`` formatted row by row: the writer's oracle."""
    rows = ["replicate_id,n,eta,F_total,M_total,N,xi,S,R"] + [
        f"{rep_id},{n},{eta!r},{int(f)},{int(m)},{int(c)},{xi!r},{s!r},{r!r}"
        for rep_id, n, eta, f, m, c, xi, s, r in steps.tolist()
    ]
    return "\n".join(rows) + "\n"


def test_trajectory_writer_edge_cases(tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "CSV_CHUNK_ROWS", 3)
    # chunk 1: xi is eta's bits except that eta is -0.0 where xi is 0.0; chunk 2: xi equals eta;
    # chunk 3: one bit-equal xi among unequal ones; chunk 4: a ragged single row
    rows = [
        (0, 1, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.0),
        (0, 2, 0.25, 2.0**53 + 2, 2.0**70, 1e300, 0.25, 0.25, 1.5),
        (0, 3, 1e-300, 1.0, 2.0, 1.0, 1e-300, 0.25, -2.5),
        (1, 1, -1.5, 3.0, 4.0, 3.0, -1.5, -1.5, 0.1),
        (1, 2, 2.5, 5.0, 6.0, 5.0, 2.5, 1.0, 0.2),
        (1, 3, 0.1, 7.0, 8.0, 7.0, 0.1, 1.1, 0.3),
        (2, 1, 0.5, 9.0, 9.0, 9.0, 0.6, 0.6, 0.4),
        (2, 2, 0.7, 1.0, 1.0, 1.0, 0.7, 1.3, 0.5),
        (2, 3, -0.7, 0.0, 0.0, 0.0, 0.7, 2.0, 0.6),
        (3, 1, 1.0, 1e17, 2.0, 1.0, 2.0, 2.0, 0.7),
    ]
    steps = np.array(rows, dtype=STEP_DTYPE)
    write_trajectories_csv(tmp_path / "t.csv", (steps,))
    text = (tmp_path / "t.csv").read_text()
    assert text == plain_trajectory_csv(steps)
    lines = text.splitlines()
    assert lines[1] == "0,1,-0.0,0,0,0,0.0,0.0,-0.0"
    # 1e300 is written as the exact integer value of its float, all 301 digits
    assert lines[2] == f"0,2,0.25,9007199254740994,1180591620717411303424,{int(1e300)},0.25,0.25,1.5"
    assert lines[10] == "3,1,1.0,100000000000000000,2,1,2.0,2.0,0.7"
    # the same rows as blocks of 4, 0 and 6 rows: each block is chunked on its own, and the text is the same
    write_trajectories_csv(tmp_path / "blocks.csv", (steps[:4], steps[:0], steps[4:]))
    assert (tmp_path / "blocks.csv").read_text() == text

    write_trajectories_csv(tmp_path / "empty.csv", (np.empty(0, dtype=STEP_DTYPE),))
    assert (tmp_path / "empty.csv").read_text() == "replicate_id,n,eta,F_total,M_total,N,xi,S,R\n"


def test_trajectory_writer_canonical_recording(tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "CSV_CHUNK_ROWS", 7)
    run = run_extinction_records(EnvironmentModel(std=0.5), OffspringModel(), polygamous(), 200, 12, None, 9,
                                 recording="full")
    steps = all_steps(run)
    assert steps.size > 7 * 3
    # the canonical mean maps make xi eta itself, so every chunk writes eta's text for both
    assert steps["xi"].tobytes() == steps["eta"].tobytes()
    write_trajectories_csv(tmp_path / "t.csv", run.steps)
    assert (tmp_path / "t.csv").read_text() == plain_trajectory_csv(steps)


def test_trajectory_writer_streams_one_chunk_at_a_time(tmp_path, monkeypatch):
    # 50,000 rows in chunks of 256.  Measured traced peaks of the write
    # (numpy 2.4, CPython 3.11): 0.17 MiB for this writer, 1.7 MiB for one
    # that calls steps["eta"].tolist() on the whole array (one float
    # object and one list slot per row), and 5.2 MiB for one that also
    # formats that whole column before writing.
    monkeypatch.setattr(stats, "CSV_CHUNK_ROWS", 256)
    rng = np.random.default_rng(4)
    steps = np.zeros(50_000, dtype=STEP_DTYPE)
    steps["replicate_id"] = np.arange(steps.size) // 500
    steps["n"] = np.arange(steps.size) % 500 + 1
    for name in ("eta", "S", "R"):
        steps[name] = rng.standard_normal(steps.size)
    steps["xi"] = steps["eta"]
    for name in ("F_total", "M_total", "N"):
        steps[name] = rng.integers(0, 10**6, steps.size)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_trajectories_csv(tmp_path / "t.csv", (steps,))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (tmp_path / "t.csv").read_text().count("\n") == steps.size + 1


def test_sweep_writer_streams_one_chunk_at_a_time(tmp_path, monkeypatch):
    # 50,000 rows (2 grid points x 500 paths x 50 steps) in chunks of 256.
    # Measured traced peaks of the write (numpy 2.4, CPython 3.11):
    # 0.10 MiB for this writer, 15.7 MiB for one that builds every row
    # in one list and joins it into one string before writing.
    monkeypatch.setattr(stats, "CSV_CHUNK_ROWS", 256)
    ratios = np.random.default_rng(5).standard_normal((2, 500, 4, 50))
    sweep = LemmaSweep(n0_grid=(1000, 10_000), ratios=ratios, r3_hard_violations=0, slopes={})
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_sweep_csv(tmp_path / "s.csv", sweep)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert len(lines) == 50_001 and lines[0] == "N0,path,n,r2,r3,r3_se,r4"
    assert lines[-1] == "10000,499,50," + ",".join(repr(v) for v in ratios[1, 499, :, 49].tolist())


@pytest.mark.parametrize("block", [1024, 16], ids=["one-block", "three-blocks"])
def test_recorded_steps_are_held_once(monkeypatch, block):
    # Each block's byte buffer is put in replicate order in place and
    # kept: the traced peak is about 1.35 x the steps' bytes for one block
    # (the buffer's spare capacity, the row order and one field's copy)
    # and 1.18 x for three.  Copying the blocks into one joined array
    # peaked at 2.10 x for three.
    monkeypatch.setattr(stats, "BLOCK", block)
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), polygamous()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        steps = run_extinction_records(env, off, rule, 10_000, 40, None, 1, recording="full").steps
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    nbytes = sum(s.nbytes for s in steps)
    assert nbytes > 4 * 2**20
    assert peak < 1.5 * nbytes + 2**20


def test_workers_are_no_more_than_the_tasks(monkeypatch):
    # three grid points of one block each: three tasks, whatever --threads asks for
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    runs = run_replicates(small_config(n_grid=(100, 300, 1000), replicates=20, threads=64))
    assert workers == [3]
    assert [run.tau.size for run in runs] == [20, 20, 20]


# ---------------------------------------------------------------------------
# lemma sweep
# ---------------------------------------------------------------------------


def test_lemma_sweep_small():
    config = LemmaSweepConfig(
        env=EnvironmentModel(std=0.5),
        offspring=OffspringModel(),
        rule=monogamous(1),
        n0_grid=(500,),
        paths=4,
        replicates=800,
        steps=15,
        master_seed=7,
        threads=1,
    )
    sweep = lemma_bound_sweep(config)
    assert sweep.n0_grid == (500,) and sweep.ratios.shape == (1, 4, 4, 15)
    assert sweep.r3_hard_violations == 0
    slope, se = sweep.slopes["r2_vs_n"][500]
    assert math.isfinite(slope) and math.isfinite(se)
    assert slope <= 2.0 * se  # no statistically positive growth in n


def test_lemma_sweep_grid_must_be_positive_and_strictly_increasing():
    # a duplicate entry would repeat its CSV rows and overwrite its slope entry
    model = dict(env=EnvironmentModel(std=0.5), offspring=OffspringModel(), rule=monogamous(1))
    for grid in ((300, 300), (1000, 300), (0, 300), ()):
        with pytest.raises(ConfigurationError, match="n0_grid"):
            LemmaSweepConfig(n0_grid=grid, **model)
    assert LemmaSweepConfig(n0_grid=(1, 300), **model).n0_grid == (1, 300)


def test_lemma_sweep_deterministic_across_threads():
    kw = dict(
        env=EnvironmentModel(std=0.5),
        offspring=OffspringModel(),
        rule=monogamous(1),
        n0_grid=(300,),
        paths=4,
        replicates=200,
        steps=10,
        master_seed=3,
    )
    a = lemma_bound_sweep(LemmaSweepConfig(threads=1, **kw))
    b = lemma_bound_sweep(LemmaSweepConfig(threads=2, **kw))
    assert a.ratios.tobytes() == b.ratios.tobytes()
