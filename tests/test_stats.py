import json
import math
import tracemalloc

import numpy as np
import pytest

from bbpre import (
    ConfigurationError,
    EnvironmentModel,
    ExcessCensoringError,
    ExpMeanMap,
    FirstPassageLaw,
    LemmaSweepConfig,
    OffspringModel,
    ExperimentConfig,
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
from bbpre.stats import summarize_records, write_replicates_csv, write_trajectories_csv


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
        audit_samples=2_000,
    )
    base.update(kw)
    return ExperimentConfig(**base)


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


def test_run_extinction_records_contract():
    records = run_extinction_records(
        EnvironmentModel(std=0.5), OffspringModel(), monogamous(1), 1000, 25, None, 42, threads=1
    )
    assert len(records) == 25
    assert [r.replicate_id for r in records] == list(range(25))
    assert all(r.theta is None for r in records)
    assert all((r.tau is None) == r.censored for r in records)


def test_replicates_independent_of_thread_count():
    cfg1 = small_config(threads=1)
    cfg2 = small_config(threads=2)
    a = run_replicates(cfg1, 1)
    b = run_replicates(cfg2, 1)
    assert a == b


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
    for key in ("ks_tau", "ks_theta", "frac_N_theta_pos", "frac_N_theta_k_pos", "censored_count"):
        assert key in payload["rows"][0]
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
    monkeypatch.setattr(stats, "ProcessPoolExecutor", InlinePool)
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
        sigma_xi=0.5,
        audit_samples=500,
    )
    with pytest.raises(ExcessCensoringError):
        run_experiment(config)


def test_summarize_records_empty_overflow_only():
    law = FirstPassageLaw(0.5)
    from bbpre.stats import ReplicateRecord

    recs = [
        ReplicateRecord(0, 100, None, False, None, None, None, 3, overflow=True),
        ReplicateRecord(1, 100, 5, False, 7, 4, 0, 12, overflow=False),
    ]
    row = summarize_records(recs, 100, 21, 1000, law)
    assert row.overflow_count == 1
    assert row.censored_count == 0
    assert row.ks_tau is not None


def test_replicates_csv_cells(tmp_path):
    from bbpre.stats import ReplicateRecord

    recs = [ReplicateRecord(0, 100, None, True, None, None, None, 50, overflow=False)]
    write_replicates_csv(tmp_path / "r.csv", recs)
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[1] == "0,100,,1,,,,50"


def test_trajectory_writer_matches_the_plain_row_format(tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "CSV_CHUNK_ROWS", 7)  # many chunks and a ragged last one
    off = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    _, steps = run_extinction_records(
        EnvironmentModel(std=0.5), off, monogamous(1), 200, 12, None, 9, recording="full", return_trajectories=True
    )
    assert steps.size > 7 * 3
    write_trajectories_csv(tmp_path / "t.csv", steps)
    want = ["replicate_id,n,eta,F_total,M_total,N,xi,S,R"] + [
        f"{rep_id},{n},{eta!r},{int(f)},{int(m)},{int(c)},{xi!r},{s!r},{r!r}"
        for rep_id, n, eta, f, m, c, xi, s, r in steps.tolist()
    ]
    assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"


def test_recorded_steps_are_held_once():
    # One byte buffer put in replicate order in place peaks at about
    # 1.36 x steps.nbytes (the buffer's spare capacity, the row order and
    # one field's copy); a second copy of the steps would pass 2 x.
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), polygamous()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, steps = run_extinction_records(env, off, rule, 10_000, 40, None, 1, recording="full",
                                          return_trajectories=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert steps.nbytes > 4 * 2**20
    assert peak < 1.5 * steps.nbytes + 2**20


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
    assert len(sweep.rows) == 4 * 15
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
    assert a.rows == b.rows
