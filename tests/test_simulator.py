import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

from bbpre import (
    ConfigurationError,
    ConstantMeanMap,
    DegenerateModelError,
    EnvironmentModel,
    ExperimentConfig,
    ExpMeanMap,
    FirstPassageLaw,
    OffspringModel,
    OverflowGuardError,
    TableMap,
    asexual,
    derive_stream,
    monogamous,
    run_extinction_records,
    run_frozen_bundle,
    run_replicates,
    simulator,
    stats,
)
from bbpre import model
from bbpre.model import POISSON_EXACT_MAX
from bbpre.simulator import run_block
from bbpre.walk import HittingSpec, hitting_time, window_steps


def canonical():
    return EnvironmentModel(std=0.5), OffspringModel(), monogamous(1)


def _rows(steps, i):
    """The recorded ``STEP_DTYPE`` rows of replicate ``i``, in step order."""
    return steps[steps["replicate_id"] == i]


def _count_at(steps, i, n, tau):
    """Replicate ``i``'s recorded count after step ``n``: 0 after ``tau`` (absorbed), NaN past the recording."""
    rows = _rows(steps, i)
    at = rows["N"][rows["n"] == n]
    if at.size:
        return float(at[0])
    return 0.0 if tau >= 0 else math.nan


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# ---------------------------------------------------------------------------
# single steps, on the recorded rows of the block engine
# ---------------------------------------------------------------------------


def test_zero_couples_absorb_without_sampling():
    # every replicate dies at step 1: zero means draw nothing from the
    # offspring stream, and a dead replicate is never sampled again
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(scale=0.0), mean_m=ExpMeanMap(scale=0.0))
    stream = derive_stream(1)
    state_before = stream.bit_generator.state
    streams = [derive_stream(1, i).spawn(2)[0] for i in range(8)]
    run = run_block(monogamous(1), env, off, 1000, 100, streams, stream, recording="full")
    assert stream.bit_generator.state == state_before
    assert np.all(run.tau == 1) and np.all(run.steps_run == 1)
    assert run.steps.size == 8 and np.all(run.steps["N"] == 0)


def test_asexual_step_returns_female_total():
    env, off = EnvironmentModel(std=0.5), OffspringModel()
    _, steps = run_extinction_records(env, off, asexual(), 1000, 20, 200, 2, recording="full",
                                      return_trajectories=True)
    assert steps.size > 0 and np.array_equal(steps["N"], steps["F_total"])


def test_monogamous_step_bounded_by_both_totals():
    env, off, rule = canonical()
    _, steps = run_extinction_records(env, off, rule, 500, 20, 200, 3, recording="full",
                                      return_trajectories=True)
    assert steps.size > 0 and np.array_equal(steps["N"], np.minimum(steps["F_total"], steps["M_total"]))


# ---------------------------------------------------------------------------
# extinction runs
# ---------------------------------------------------------------------------


def test_forced_zero_offspring_dies_at_step_one():
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(scale=0.0), mean_m=ExpMeanMap(scale=0.0))
    records = run_extinction_records(env, off, monogamous(1), 1000, 10, 100, 3)
    assert all(r.tau == 1 and not r.censored for r in records)


def test_extinction_is_absorbing_and_tau_is_first_zero():
    env, off, rule = canonical()
    records, steps = run_extinction_records(env, off, rule, 50, 20, 10_000, 4, recording="full",
                                            return_trajectories=True)
    assert all(r.tau is not None for r in records)
    for r in records:
        rows = _rows(steps, r.replicate_id)
        assert rows["n"].tolist() == list(range(1, r.tau + 1))
        assert rows["N"][-1] == 0
        assert np.all(rows["N"][:-1] > 0)


def test_trajectory_step_invariants_full_recording():
    env, off, rule = canonical()
    records, steps = run_extinction_records(env, off, rule, 200, 20, 10_000, 5, recording="full",
                                            return_trajectories=True)
    for r in records:
        prev, s = float(r.n0), 0.0
        for rec in _rows(steps, r.replicate_id):
            assert rec["N"] == rule.L(int(rec["F_total"]), int(rec["M_total"]), float(rec["eta"]))
            # R cancels two terms of size N_prev e^xi: allow a few ulps of that size
            growth = prev * math.exp(rec["xi"])
            assert rec["R"] == pytest.approx(rec["N"] - growth, rel=1e-12, abs=1e-15 * growth + 1e-9)
            s += rec["xi"]
            assert rec["S"] == pytest.approx(s, rel=1e-12)
            prev = rec["N"]


def test_representation_identity():
    # N_n = N0 e^{S_n} + sum_i R_i e^{S_n - S_i}, exact up to float accumulation
    env, off, rule = canonical()
    n0 = 10_000
    records, steps = run_extinction_records(env, off, rule, n0, 5, 5_000, 6, recording="full",
                                            return_trajectories=True)
    for r in records:
        rows = _rows(steps, r.replicate_id)
        S, R, N = rows["S"], rows["R"], rows["N"]
        for n in (1, len(S) // 2, len(S) - 1):
            rebuilt = n0 * math.exp(S[n]) + float(np.sum(R[: n + 1] * np.exp(S[n] - S[: n + 1])))
            assert rebuilt == pytest.approx(N[n], rel=1e-9, abs=1e-6)


def test_recording_modes():
    env, off, rule = canonical()

    def sweep(recording):
        return run_extinction_records(env, off, rule, 100, 20, 2_000, 7, recording=recording, return_trajectories=True)

    (full, full_steps), (sparse, sparse_steps), (terminal, terminal_steps) = map(sweep, ("full", "sparse", "terminal"))
    assert [r.tau for r in full] == [r.tau for r in sparse] == [r.tau for r in terminal]
    assert terminal_steps.size == 0
    assert 0 < sparse_steps.size < full_steps.size
    stride = math.ceil(math.log(100))
    for r in full:
        assert _rows(full_steps, r.replicate_id).size == r.steps_run
        n = _rows(sparse_steps, r.replicate_id)["n"]
        assert n[-1] == r.steps_run and np.all((n[:-1] % stride) == 0)
    with pytest.raises(ConfigurationError):
        sweep("everything")


def test_identical_seeds_reproduce_bit_identical_trajectories():
    env, off, rule = canonical()
    a = run_extinction_records(env, off, rule, 500, 20, 5_000, 42, recording="full", return_trajectories=True)
    b = run_extinction_records(env, off, rule, 500, 20, 5_000, 42, recording="full", return_trajectories=True)
    assert a[0] == b[0] and a[1].tobytes() == b[1].tobytes()


def test_overflow_aborts_with_tagged_record():
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(shift=800.0), mean_m=ExpMeanMap(shift=800.0))
    streams = [derive_stream(8, i).spawn(2)[0] for i in range(4)]
    run = run_block(monogamous(1), env, off, 10, 100, streams, derive_stream(8), recording="full")
    assert np.all(run.overflow_step == 1) and np.all(run.steps_run == 1)
    assert np.all(run.tau == -1) and run.steps.size == 0


def test_subcritical_toy_matches_markov_chain_absorption():
    # m_f = m_m = e^{eta - 1} with a frozen environment (std 0): the couple
    # count is a Markov chain on {0, 1, 2, ...}; truncating at 200 loses
    # negligible mass. The chain gives exact P(tau <= n) from N0 = 1.
    env = EnvironmentModel(std=0.0)
    off = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    rule = monogamous(1)

    cap = 200
    horizon = 60
    ks = np.arange(cap + 1)
    transition = np.zeros((cap + 1, cap + 1))
    transition[0, 0] = 1.0
    for i in range(1, cap + 1):
        lam = i * math.exp(-1.0)
        pmf = poisson.pmf(ks, lam)
        sf = poisson.sf(ks - 1, lam)  # P(X >= k)
        row = pmf * sf + pmf * sf - pmf * pmf
        row[-1] += 1.0 - row.sum()  # park truncated mass in the top state
        transition[i] = row
    dist = np.zeros(cap + 1)
    dist[1] = 1.0
    exact_cdf = []
    for _ in range(horizon):
        dist = dist @ transition
        exact_cdf.append(dist[0])

    reps = 100_000
    records = run_extinction_records(env, off, rule, 1, reps, horizon, 1234)
    taus = np.array([r.tau if r.tau is not None else horizon + 1 for r in records])
    empirical = np.array([(taus <= n).mean() for n in range(1, horizon + 1)])
    # DKW at alpha = 1e-3 plus the truncation slack
    assert np.max(np.abs(empirical - np.asarray(exact_cdf))) <= math.sqrt(math.log(2e3) / (2 * reps)) + 1e-9


def test_censoring_fraction_bounded_by_limit_law_tail():
    # the reference law puts ~0.22 of its mass beyond the default cap of
    # 50 ln^2 N; the finite-N extinction time is stochastically smaller,
    # so observed censoring must stay below that tail plus noise
    env, off, rule = canonical()
    n0 = 10**4
    cap = math.ceil(50 * math.log(n0) ** 2)
    reps = 400
    censored = sum(r.censored for r in run_extinction_records(env, off, rule, n0, reps, cap, 77))
    tail = 1.0 - FirstPassageLaw(0.5).cdf(50.0)
    assert tail == pytest.approx(0.2227, abs=5e-4)
    assert censored / reps <= tail + 4.0 * math.sqrt(tail * (1 - tail) / reps)


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------


def test_coupled_window_size_is_exact():
    # asexual processes outlive their hitting step, so the count at
    # theta + k is read on a live path, where k +- 1 would read another count
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), asexual()
    n0, cap = 1000, 400
    for epsilon in (1.0, 0.5):
        k = window_steps(n0, epsilon)
        streams = [derive_stream(9, i).spawn(2)[0] for i in range(64)]
        run = run_block(rule, env, off, n0, cap, streams, derive_stream(9), epsilon=epsilon, recording="full")
        live = [i for i in range(64) if run.theta[i] > 0 and not math.isnan(run.n_theta_plus_k[i])]
        assert len(live) >= 10
        for i in live:
            assert run.n_theta_plus_k[i] == _count_at(run.steps, i, run.theta[i] + k, run.tau[i])
        for wrong in (k - 1, k + 1):
            assert any(run.n_theta_plus_k[i] != _count_at(run.steps, i, run.theta[i] + wrong, run.tau[i])
                       for i in live)


def test_coupled_degenerate_environment_censors_theta():
    env = EnvironmentModel(std=0.0)
    streams = [derive_stream(10, i).spawn(2)[0] for i in range(5)]
    run = run_block(monogamous(1), env, OffspringModel(), 10, 300, streams, derive_stream(10), epsilon=1.0)
    assert np.all(run.theta == -1)
    assert np.all(np.isnan(run.n_theta)) and np.all(np.isnan(run.n_theta_plus_k))
    assert np.all(run.steps_run == 300)


def test_coupled_bookkeeping_matches_full_recording():
    # oracles on the same block: its full recording gives the counts, and the
    # cumulative sum of each replicate's environment child stream gives the
    # walk (the canonical increment is eta itself)
    env, off, rule = canonical()
    n0, cap, size = 100, 3_000, 30
    spec_thr = math.exp(0.5 * math.log(math.log(n0))) - math.log(n0)
    k = math.floor(0.2 * math.log(n0) ** 2)
    streams = [derive_stream(11, seed).spawn(2)[0] for seed in range(size)]
    run = run_block(rule, env, off, n0, cap, streams, derive_stream(11, size), epsilon=0.2, recording="full")
    hits = 0
    for i in range(size):
        tau, theta = int(run.tau[i]), int(run.theta[i])
        assert _rows(run.steps, i).size == (tau if tau >= 0 else cap)
        walk = np.cumsum(env.sample(derive_stream(11, i).spawn(2)[0], size=cap))
        if theta < 0:
            assert np.all(walk > spec_thr)
            assert math.isnan(run.n_theta[i]) and math.isnan(run.n_theta_plus_k[i])
            continue
        hits += 1
        assert _same(run.n_theta[i], _count_at(run.steps, i, theta, tau))
        assert _same(run.n_theta_plus_k[i], _count_at(run.steps, i, theta + k, tau))
        assert walk[theta - 1] <= spec_thr
        assert np.all(walk[: theta - 1] > spec_thr)
    assert hits >= 20


def test_coupled_walk_continues_after_extinction():
    # theta can land after tau; the environment sequence keeps driving the walk
    env, off, rule = canonical()
    streams = [derive_stream(12, seed).spawn(2)[0] for seed in range(60)]
    run = run_block(rule, env, off, 10, 4_000, streams, derive_stream(12), epsilon=0.05)
    after = (run.tau > 0) & (run.theta > run.tau)
    assert after.any()
    assert np.all(run.n_theta[after] == 0) and np.all(run.n_theta_plus_k[after] == 0)
    assert np.all(run.steps_run[after] == run.theta[after])


def test_coupled_requires_n0_at_least_three():
    env, off, rule = canonical()
    with pytest.raises(ConfigurationError):
        run_block(rule, env, off, 2, 100, [derive_stream(13).spawn(2)[0]], derive_stream(13), epsilon=1.0)


# ---------------------------------------------------------------------------
# frozen bundles and lemma diagnostics
# ---------------------------------------------------------------------------


RATIOS = ("r2", "r3", "r3_se", "r4")


def test_frozen_bundle_shapes_and_absorption():
    # the bundle dies out before its horizon: from then on every ratio is NaN
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    table = run_frozen_bundle(monogamous(1), env, off, 3, 40, 500, derive_stream(14))
    assert table.n0 == 3 and table.replicates == 500
    assert np.array_equal(table.n, np.arange(1, 41))
    dead = np.isnan(table.r3)
    assert not dead[0] and dead[-1]
    assert np.all(dead[:-1] <= dead[1:])  # once extinct, always extinct
    for name in RATIOS:
        assert getattr(table, name).shape == (40,)
        assert np.array_equal(np.isnan(getattr(table, name)), dead)
    assert table.r3[np.argmax(dead) - 1] == 0.0  # the step where the last replicate died


def test_bundle_deterministic_given_seed():
    env, off, rule = canonical()
    a = run_frozen_bundle(rule, env, off, 100, 20, 50, derive_stream(15))
    b = run_frozen_bundle(rule, env, off, 100, 20, 50, derive_stream(15))
    other = run_frozen_bundle(rule, env, off, 100, 20, 50, derive_stream(16))
    for name in RATIOS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.r3, other.r3)


def test_noiseless_asexual_bundle_has_zero_residual_ratios():
    # F = 1 per couple deterministically: N_n = N_0 forever, R_n = 0, r3 = 1
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(kind="deterministic", mean_f=ConstantMeanMap(1.0), mean_m=ConstantMeanMap(1.0))
    rule = asexual()
    table = run_frozen_bundle(rule, env, off, 50, 30, 100, derive_stream(16))
    assert np.all(table.r2 == 0.0)
    assert np.all(table.r3 == 1.0)
    assert np.all(table.r3_se == 0.0)
    assert np.all(table.r4 == 0.0)


def test_bundle_r3_inequality_canonical():
    env, off, rule = canonical()
    table = run_frozen_bundle(rule, env, off, 1000, 20, 3000, derive_stream(17))
    ok = ~np.isnan(table.r3)
    assert ok.all()
    assert np.all(table.r3[ok] <= 1.0 + 4.0 * table.r3_se[ok])


def test_bundle_totals_past_the_exact_poisson_range_take_the_normal_approximation():
    # requested totals of 2e15 and 4e16, far above POISSON_EXACT_MAX, as in a block
    off = OffspringModel(mean_f=ConstantMeanMap(20.0), mean_m=ConstantMeanMap(20.0))
    table = run_frozen_bundle(asexual(), EnvironmentModel(std=0.5), off, 10**14, 2, 200, derive_stream(19))
    assert np.all(np.isfinite(table.r3)) and np.all(np.abs(table.r3 - 1.0) <= 4.0 * table.r3_se)


def test_poisson_totals_are_drawn_in_one_place():
    # blocks and bundles share one sampling rule: no other code of the package draws a Poisson total
    owners = []
    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = [(f.lineno, f.end_lineno, f.name) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "poisson":
                inner = [(b - a, name) for a, b, name in spans if a <= node.lineno <= b]
                owners.append(f"{path.stem}.{min(inner)[1] if inner else '<module>'}")
    assert owners and set(owners) == {"model._poisson_totals"}


def _reference_bundle(rule, env_model, offspring_model, n0, steps, replicates, stream):
    # the replicate-major bundle loop with a live mask at every step
    env_rng, off_rng = stream.spawn(2)
    eta = np.asarray(env_model.sample(env_rng, size=steps), dtype=float)
    xi = model.walk_increments(rule, offspring_model, eta)
    counts = np.zeros((replicates, steps + 1), dtype=np.int64)
    counts[:, 0] = n0
    for j in range(1, steps + 1):
        e = float(eta[j - 1])
        prev = counts[:, j - 1]
        alive = prev > 0
        if not alive.any():
            break
        lam_f = prev[alive] * float(offspring_model.mean_f(e))
        lam_m = prev[alive] * float(offspring_model.mean_m(e))
        if offspring_model.kind == "poisson":
            f, m = off_rng.poisson(lam_f), off_rng.poisson(lam_m)
        else:
            f, m = np.rint(lam_f).astype(np.int64), np.rint(lam_m).astype(np.int64)
        counts[alive, j] = model.mate_array(rule, f.astype(np.int64), m.astype(np.int64), e)
    return eta, xi, np.cumsum(xi), counts


def _reference_diagnostics(n0, eta, xi, S, counts, rule, offspring_model):
    # the per-step ratio formulas over replicate-major columns
    counts = counts.astype(float)
    reps, cols = counts.shape
    p, delta = 1.0 + rule.delta, rule.delta
    zeta = model.noise_scales(rule, offspring_model, eta)[0]
    r2, r3, r3_se, r4 = (np.full(cols - 1, np.nan) for _ in range(4))
    for j in range(1, cols):
        prev, cur = counts[:, j - 1], counts[:, j]
        mean_prev = prev.mean()
        if mean_prev <= 0.0:
            continue
        growth = math.exp(float(xi[j - 1]))
        resid = cur - prev * growth
        r2[j - 1] = float(np.mean(np.abs(resid) ** p)) / (math.exp(float(zeta[j - 1])) * mean_prev)
        ratio = cur.mean() / (growth * mean_prev)
        r3[j - 1] = ratio
        dev = cur - ratio * growth * prev
        r3_se[j - 1] = math.sqrt(float(np.mean(dev**2)) / reps) / (growth * mean_prev)
        acc = float(np.sum(np.exp(zeta[:j] - xi[:j] + delta * (S[j - 1] - S[:j]))))
        err = cur - n0 * math.exp(float(S[j - 1]))
        r4[j - 1] = float(np.mean(np.abs(err) ** p)) / ((j**delta) * n0 * math.exp(float(S[j - 1])) * acc)
    return r2, r3, r3_se, r4


@pytest.mark.parametrize(
    "case, n0, steps, reps",
    [
        ("canonical", 1000, 30, 3000),
        ("dying", 3, 40, 500),
        ("deterministic", 50, 30, 100),
        ("monogamous3", 200, 25, 400),
        ("custom", 3, 40, 200),
    ],
)
def test_step_major_bundle_matches_the_replicate_major_reference(case, n0, steps, reps):
    env = EnvironmentModel(std=0.5)
    dying = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    doubling = OffspringModel(kind="deterministic", mean_f=ConstantMeanMap(2.0), mean_m=ConstantMeanMap(1.0))
    # a rule with L(0, 0) = 1: an extinct replicate must still stay extinct
    revives = model.MatingRule(
        kind="custom",
        L=lambda x, y, z: 1 if x == y == 0 else min(x, y),
        g=lambda x, y, z: np.minimum(x, y),
        lipschitz=lambda z: np.ones_like(z),
        rho=lambda z: np.ones_like(z),
    )
    off, rule = {
        "canonical": (OffspringModel(), monogamous(1)),
        "dying": (dying, monogamous(1)),
        "deterministic": (doubling, asexual()),
        "monogamous3": (OffspringModel(), monogamous(3)),
        "custom": (dying, revives),
    }[case]
    table = run_frozen_bundle(rule, env, off, n0, steps, reps, derive_stream(23))
    eta, xi, S, counts = _reference_bundle(rule, env, off, n0, steps, reps, derive_stream(23))
    assert table.n0 == n0 and table.replicates == reps and np.array_equal(table.n, np.arange(1, steps + 1))
    want = _reference_diagnostics(n0, eta, xi, S, counts, rule, off)
    for name, ref in zip(RATIOS, want):
        assert np.array_equal(getattr(table, name), ref, equal_nan=True)
    if case in ("dying", "custom"):
        # deaths mid-run, then nothing alive before the horizon (the loop stops early)
        alive = (counts > 0).sum(axis=0)
        assert np.any((alive > 0) & (alive < reps)) and alive[-2] == 0
        assert np.isnan(table.r3[-1])


def test_bundle_guard_trips_on_a_row_that_holds_extinct_replicates():
    # the means jump past the guard once eta reaches 0.5, after some replicates have died
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    table = TableMap((0.5,), (1.5, 1e301))
    off = OffspringModel(mean_f=table, mean_m=table)
    first = int(np.argmax(env.sample(derive_stream(20).spawn(2)[0], size=30) >= 0.5))
    counts = _reference_bundle(rule, env, off, 2, first, 200, derive_stream(20))[3]
    assert 0 < np.count_nonzero(counts[:, first]) < 200
    with pytest.raises(OverflowGuardError, match="bundle scale"):
        run_frozen_bundle(rule, env, off, 2, 30, 200, derive_stream(20))


# ---------------------------------------------------------------------------
# lockstep replicate blocks
# ---------------------------------------------------------------------------


def test_block_sweep_theta_is_the_whole_cap_walks_and_counts_follow_the_rules(monkeypatch):
    # asexual processes track their walk closely, so in 72 replicates every
    # bookkeeping case occurs: theta after tau, alive past the cap at theta + k
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), asexual()
    n0, cap, seed = 1000, 250, 3
    config = ExperimentConfig(
        env=env, offspring=off, rule=rule, n_grid=(n0,), replicates=72, epsilon=2.0, master_seed=seed, max_steps=cap
    )
    records = run_replicates(config, 0)
    k = math.floor(2.0 * math.log(n0) ** 2)
    spec = HittingSpec(n0=n0, beta=off.beta, max_steps=cap)
    cases = {"after_tau": 0, "past_cap": 0}
    for r in records:
        eta = env.sample(derive_stream(seed, 0, r.replicate_id).spawn(2)[0], size=cap)
        assert r.theta == hitting_time(spec, model.walk_increments(rule, off, eta)).theta
        if r.theta is None:
            assert r.n_theta is None and r.n_theta_plus_k is None
            assert r.steps_run == cap
            continue
        if r.tau is not None and r.theta > r.tau:
            assert r.n_theta == 0
            cases["after_tau"] += 1
        if r.tau is None:
            assert r.n_theta is not None
            assert (r.n_theta_plus_k is None) == (r.theta + k > cap)
            cases["past_cap"] += r.theta + k > cap
        assert r.steps_run == (cap if r.tau is None else max(r.tau, r.theta))
    assert min(cases.values()) >= 2

    # the counts at theta and theta + k are the recorded counts of the same block streams
    for block, start in enumerate(range(0, 72, 16)):
        env_streams = [derive_stream(seed, 0, rep).spawn(2)[0] for rep in range(start, min(start + 16, 72))]
        off_rng = derive_stream(seed, 0, stats.OFFSPRING_BLOCK_KEY, block)
        run = run_block(rule, env, off, n0, cap, env_streams, off_rng, epsilon=2.0, recording="full")
        counts = {(int(s["replicate_id"]), int(s["n"])): float(s["N"]) for s in run.steps}
        for i, rec in enumerate(records[start : start + 16]):
            if rec.theta is None:
                continue
            for step, got in ((rec.theta, rec.n_theta), (rec.theta + k, rec.n_theta_plus_k)):
                if (i, step) in counts:
                    assert got == counts[(i, step)]
                else:
                    assert got == (0 if rec.tau is not None else None)


def test_blocks_are_thread_independent_across_a_ragged_last_block(monkeypatch):
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), monogamous(1)
    config = ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(500,), replicates=40, master_seed=8, threads=1)
    one = run_replicates(config, 0)
    two = run_replicates(ExperimentConfig(**{**config.__dict__, "threads": 2}), 0)
    assert one == two
    assert [r.replicate_id for r in one] == list(range(40))
    a = run_extinction_records(env, off, rule, 500, 40, None, 8, threads=1, recording="sparse", return_trajectories=True)
    b = run_extinction_records(env, off, rule, 500, 40, None, 8, threads=2, recording="sparse", return_trajectories=True)
    assert a[0] == b[0] and np.array_equal(a[1], b[1])
    assert [r.replicate_id for r in a[0]] == list(range(40))
    assert np.all(np.diff(a[1]["replicate_id"]) >= 0)


def test_block_results_do_not_depend_on_the_environment_window(monkeypatch):
    # windows of 7 cells end mid-path for every replicate; each replicate's
    # environment is read in order either way, S continues across windows, and
    # replicates that leave the window arrays (death, overflow) take only their own rows
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), monogamous(1)
    # the female mean jumps past the guard only where eta >= 1.25
    overflowing = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ConstantMeanMap(1.0))
    config = ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(300,), replicates=30, master_seed=12)
    d3 = ExperimentConfig(**{**config.__dict__, "rule": monogamous(3)})
    runs = {
        "coupled": lambda: run_replicates(config, 0),
        "coupled_d3": lambda: run_replicates(d3, 0),
        "full": lambda: run_extinction_records(env, off, rule, 300, 30, None, 12, recording="full",
                                               return_trajectories=True),
        # counts around 1e12 take both branches of the Poisson/normal switch
        "full_large": lambda: run_extinction_records(env, off, rule, 5 * 10**11, 30, 60, 12, recording="full",
                                                     return_trajectories=True),
        # one window of 200 generations by default: every overflow is mid-window
        "overflow": lambda: run_extinction_records(env, overflowing, rule, 1000, 40, 200, 5, recording="full",
                                                   return_trajectories=True),
    }
    wide = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", 7)
    for name, run in runs.items():
        narrow = run()
        if name.startswith("coupled"):
            assert narrow == wide[name]
        else:
            assert narrow[0] == wide[name][0] and np.array_equal(narrow[1], wide[name][1])
    assert wide["coupled_d3"] != wide["coupled"]
    first = wide["full"][1][wide["full"][1]["replicate_id"] == 0]
    assert np.array_equal(first["S"], np.cumsum(first["xi"]))
    large = wide["full_large"][1]
    above = [large["F_total"][large["n"] == n] > POISSON_EXACT_MAX for n in range(1, 61)]
    assert sum(a.any() and not a.all() for a in above) >= 10
    tagged = [r.steps_run for r in wide["overflow"][0] if r.overflow]
    assert 0 < len(tagged) < 40 and max(tagged) < 200


def test_block_environment_streams_are_each_replicates_first_child():
    env, off, rule = canonical()
    seed, grid_index, start = 9, 2, 5
    args = (env, off, rule, 200, 60, seed, grid_index, 0, start, start + 6, None, "full")
    [(records, steps)] = stats._block_task(args)
    assert [r.replicate_id for r in records] == list(range(start, start + 6))
    for r in records:
        eta = steps["eta"][steps["replicate_id"] == r.replicate_id]
        assert eta.size == r.steps_run
        assert np.array_equal(eta, env.sample(derive_stream(seed, grid_index, r.replicate_id).spawn(2)[0], size=eta.size))


def test_block_engine_raises_the_sampling_errors(monkeypatch):
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    negative = OffspringModel(mean_f=ConstantMeanMap(-1.0), mean_m=ConstantMeanMap(1.0))
    with pytest.raises(ConfigurationError):
        run_extinction_records(env, negative, rule, 50, 20, 100, 1)
    fractional = OffspringModel(kind="deterministic", mean_f=ConstantMeanMap(1.5), mean_m=ConstantMeanMap(1.0))
    with pytest.raises(ConfigurationError):
        run_extinction_records(env, fractional, rule, 50, 20, 100, 1)


def test_block_overflow_tags_only_the_replicates_that_cross_the_guard(monkeypatch):
    # the female mean jumps past the guard only where eta >= 1.25
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ConstantMeanMap(1.0))
    cap, seed, reps = 200, 5, 40
    records, steps = run_extinction_records(
        env, off, rule, 1000, reps, cap, seed, recording="full", return_trajectories=True
    )
    rows = np.bincount(steps["replicate_id"], minlength=reps)
    tagged = 0
    for r in records:
        assert rows[r.replicate_id] == (0 if r.overflow else r.steps_run)
        eta = env.sample(derive_stream(seed, 0, r.replicate_id).spawn(2)[0], size=cap)
        if r.overflow:
            tagged += 1
            assert r.tau is None and not r.censored
            assert eta[r.steps_run - 1] >= 1.25 and np.all(eta[: r.steps_run - 1] < 1.25)
        else:
            assert r.steps_run == (cap if r.tau is None else r.tau)
            assert np.all(eta[: r.steps_run] < 1.25)
    assert 0 < tagged < reps


# 40 replicates in blocks of 16 (BLOCK monkeypatched): offspring model, n0, step cap, seed
BLOCK_SETUPS = {
    "canonical": (OffspringModel(), 500, None, 8),
    # the female mean jumps past the guard only where eta >= 1.25, tagging replicates mid-run
    "overflow": (OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ConstantMeanMap(1.0)), 1000, 200, 5),
}


@pytest.mark.parametrize("recording", ["full", "sparse"])
@pytest.mark.parametrize("setup", sorted(BLOCK_SETUPS))
def test_placed_steps_equal_the_concatenated_filtered_sorted_chunks(monkeypatch, setup, recording):
    monkeypatch.setattr(stats, "BLOCK", 16)  # blocks of 16, 16 and 8
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off, n0, cap, seed = BLOCK_SETUPS[setup]

    def sweep(threads):
        return run_extinction_records(env, off, rule, n0, 40, cap, seed, threads=threads, recording=recording,
                                      return_trajectories=True)

    blocks, dropped = [], []

    def concatenate_filter_sort(recorded, overflow_step):
        # the buffer is the recorded generations' chunks, concatenated
        steps = np.frombuffer(bytes(recorded), dtype=simulator.STEP_DTYPE)
        assert np.all(np.diff(steps["n"]) >= 0)  # generation-major
        tagged = overflow_step[steps["replicate_id"]] > 0
        steps = steps[~tagged]
        steps = steps[np.argsort(steps["replicate_id"], kind="stable")]
        blocks.append(steps)  # the block task then shifts replicate_id by the block's start, in place
        dropped.append(int(tagged.sum()))
        return steps

    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_place_steps", concatenate_filter_sort)
        records, _ = sweep(1)
    assert len(blocks) == 3
    assert (sum(dropped) > 0) == (setup == "overflow")
    reference = np.concatenate(blocks)
    for threads in (1, 2):
        placed_records, steps = sweep(threads)
        assert placed_records == records
        assert steps.dtype == reference.dtype and steps.tobytes() == reference.tobytes()


@pytest.mark.parametrize("setup", sorted(BLOCK_SETUPS))
def test_extinction_records_do_not_depend_on_the_recording(monkeypatch, setup):
    # simulate records steps only when it writes a trajectory file, so its summary line must not depend on them
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off, n0, cap, seed = BLOCK_SETUPS[setup]
    outcomes = [
        [(r.tau, r.steps_run, r.overflow, r.censored) for r in
         run_extinction_records(env, off, rule, n0, 40, cap, seed, recording=recording)]
        for recording in simulator.RECORDING_MODES
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert any(overflow for _, _, overflow, _ in outcomes[0]) == (setup == "overflow")


# ---------------------------------------------------------------------------
# the coupled blocks' hitting-step scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cells", [7, 2**16])
@pytest.mark.parametrize(
    "env, n0, cap, size",
    [
        (EnvironmentModel(std=0.5), 1000, 2386, 64),  # the default cap: hits spread over many rounds, some censored
        (EnvironmentModel(std=0.5), 3, 40, 50),  # threshold -0.05: about half hit at step 1
        (EnvironmentModel(std=0.5), 10**8, 30, 20),  # every walk censored at a cap smaller than one round
        (EnvironmentModel(std=0.5), 1000, 500, 1),  # a block of one
        (EnvironmentModel(std=0.0), 100, 300, 5),  # a flat walk never hits
        (EnvironmentModel(mean=-1.0, std=0.0), 1000, 4, 3),  # the walk would hit at step 5, one past the cap
    ],
)
def test_hitting_scan_finds_the_whole_cap_hitting_time(monkeypatch, cells, env, n0, cap, size):
    monkeypatch.setattr(simulator, "SCAN_CELLS", cells)
    _, off, rule = canonical()
    spec = HittingSpec(n0=n0, beta=off.beta, max_steps=cap)
    streams = [derive_stream(14, n0, i).spawn(2)[0] for i in range(size)]
    before = [s.bit_generator.state for s in streams]
    theta = simulator._hitting_steps(rule, env, off, spec, streams)
    assert [s.bit_generator.state for s in streams] == before
    whole = [hitting_time(spec, model.walk_increments(rule, off, env.sample(s, size=cap))).theta for s in streams]
    assert theta.tolist() == [-1 if t is None else t for t in whole]
    if env.std > 0 and n0 == 3:
        assert 0 < theta.tolist().count(1) < size
    if env.std == 0 or n0 == 10**8:
        assert np.all(theta == -1)


def test_coupled_records_do_not_depend_on_the_scan_round(monkeypatch):
    env, off, rule = canonical()
    config = ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(300,), replicates=30, master_seed=12)
    d3 = ExperimentConfig(**{**config.__dict__, "rule": monogamous(3)})
    wide = [run_replicates(config, 0), run_replicates(d3, 0)]
    assert sum(r.theta is None for r in wide[0]) > 0 and sum(r.theta is not None for r in wide[0]) > 0
    monkeypatch.setattr(simulator, "SCAN_CELLS", 7)
    assert [run_replicates(config, 0), run_replicates(d3, 0)] == wide


def test_hitting_scan_checks_only_the_increments_it_draws(monkeypatch):
    # the female mean halves below eta = -0.25 (xi = ln 0.5, a hit at n0 = 3)
    # and vanishes from eta = 1.5 on (xi = -inf); stream 1 starts below -0.25
    # and first reaches 1.5 at step 156
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off = OffspringModel(mean_f=TableMap((-0.25, 1.5), (0.5, 1.0, 0.0)), mean_m=ConstantMeanMap(1.0))
    spec = HittingSpec(n0=3, beta=off.beta, max_steps=2000)
    eta = env.sample(derive_stream(1).spawn(2)[0], size=2000)
    assert eta[0] < -0.25 and np.argmax(eta >= 1.5) == 155
    monkeypatch.setattr(simulator, "SCAN_CELLS", 200)
    with pytest.raises(DegenerateModelError):  # within the 200 values the scan draws
        simulator._hitting_steps(rule, env, off, spec, [derive_stream(1).spawn(2)[0]])
    with pytest.raises(DegenerateModelError):  # the whole-cap walk, as hitting_time reads it
        hitting_time(spec, model.walk_increments(rule, off, eta))
    monkeypatch.setattr(simulator, "SCAN_CELLS", 100)
    assert simulator._hitting_steps(rule, env, off, spec, [derive_stream(1).spawn(2)[0]]).tolist() == [1]


def test_block_capacity_per_window_matches_mating_each_generation(monkeypatch):
    # a capacity that varies with eta; the run is one window, so deaths drop
    # capacity rows mid-window
    env, off = EnvironmentModel(std=0.5), OffspringModel()
    rule = monogamous(TableMap((-0.3, 0.4), (1, 2, 3)))

    def run():
        streams = [derive_stream(15, i).spawn(2)[0] for i in range(24)]
        return run_block(rule, env, off, 200, 400, streams, derive_stream(16), epsilon=1.0, recording="sparse")

    fast = run()
    monkeypatch.setattr(simulator, "mate_array", lambda rule, f, m, e, d: model.mate_array(rule, f, m, e))
    slow = run()
    assert np.any(fast.tau > 0) and np.any(fast.tau < 0)
    assert np.array_equal(fast.steps, slow.steps) and fast.steps.size > 0
    for name in ("tau", "overflow_step", "steps_run", "theta", "n_theta", "n_theta_plus_k"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name), equal_nan=True), name
