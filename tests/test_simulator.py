import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

from bbpre import (
    ConfigurationError,
    ConstantMap,
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
from bbpre.walk import hitting_threshold, window_steps
from recorded import all_steps
from walk_oracle import hitting_time


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


def _outcomes(run):
    """A ``BlockRun``'s per-replicate arrays as bytes, comparable with ``==`` (NaN equal to NaN)."""
    return [getattr(run, f.name).tobytes() for f in dataclasses.fields(run) if f.name != "steps"]


def _same_runs(a, b):
    return _outcomes(a) == _outcomes(b) and all_steps(a).tobytes() == all_steps(b).tobytes()


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
    assert len(run.steps) == 1 and run.steps[0].size == 8 and np.all(run.steps[0]["N"] == 0)


def test_asexual_step_returns_female_total():
    env, off = EnvironmentModel(std=0.5), OffspringModel()
    steps = all_steps(run_extinction_records(env, off, asexual(), 1000, 20, 200, 2, recording="full"))
    assert steps.size > 0 and np.array_equal(steps["N"], steps["F_total"])


def test_monogamous_step_bounded_by_both_totals():
    env, off, rule = canonical()
    steps = all_steps(run_extinction_records(env, off, rule, 500, 20, 200, 3, recording="full"))
    assert steps.size > 0 and np.array_equal(steps["N"], np.minimum(steps["F_total"], steps["M_total"]))


# ---------------------------------------------------------------------------
# extinction runs
# ---------------------------------------------------------------------------


def test_forced_zero_offspring_dies_at_step_one():
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(scale=0.0), mean_m=ExpMeanMap(scale=0.0))
    run = run_extinction_records(env, off, monogamous(1), 1000, 10, 100, 3)
    assert np.all(run.tau == 1) and np.all(run.steps_run == 1)


def test_extinction_is_absorbing_and_tau_is_first_zero():
    env, off, rule = canonical()
    run = run_extinction_records(env, off, rule, 50, 20, 10_000, 4, recording="full")
    assert np.all(run.tau > 0)
    for i, tau in enumerate(run.tau.tolist()):
        rows = _rows(all_steps(run), i)
        assert rows["n"].tolist() == list(range(1, tau + 1))
        assert rows["N"][-1] == 0
        assert np.all(rows["N"][:-1] > 0)


def test_trajectory_step_invariants_full_recording():
    env, off, rule = canonical()
    run = run_extinction_records(env, off, rule, 200, 20, 10_000, 5, recording="full")
    for i in range(20):
        prev, s = 200.0, 0.0
        for rec in _rows(all_steps(run), i):
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
    steps = all_steps(run_extinction_records(env, off, rule, n0, 5, 5_000, 6, recording="full"))
    for i in range(5):
        rows = _rows(steps, i)
        S, R, N = rows["S"], rows["R"], rows["N"]
        for n in (1, len(S) // 2, len(S) - 1):
            rebuilt = n0 * math.exp(S[n]) + float(np.sum(R[: n + 1] * np.exp(S[n] - S[: n + 1])))
            assert rebuilt == pytest.approx(N[n], rel=1e-9, abs=1e-6)


def test_recording_modes():
    env, off, rule = canonical()

    def sweep(recording):
        return run_extinction_records(env, off, rule, 100, 20, 2_000, 7, recording=recording)

    full, sparse, terminal = map(sweep, ("full", "sparse", "terminal"))
    assert np.array_equal(full.tau, sparse.tau) and np.array_equal(full.tau, terminal.tau)
    assert all_steps(terminal).size == 0
    assert 0 < all_steps(sparse).size < all_steps(full).size
    stride = math.ceil(math.log(100))
    for i, steps_run in enumerate(full.steps_run.tolist()):
        assert _rows(all_steps(full), i).size == steps_run
        n = _rows(all_steps(sparse), i)["n"]
        assert n[-1] == steps_run and np.all((n[:-1] % stride) == 0)
    with pytest.raises(ConfigurationError):
        sweep("everything")


def test_identical_seeds_reproduce_bit_identical_trajectories():
    env, off, rule = canonical()
    a = run_extinction_records(env, off, rule, 500, 20, 5_000, 42, recording="full")
    b = run_extinction_records(env, off, rule, 500, 20, 5_000, 42, recording="full")
    assert _same_runs(a, b)


def test_overflow_aborts_with_tagged_record():
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(shift=800.0), mean_m=ExpMeanMap(shift=800.0))
    streams = [derive_stream(8, i).spawn(2)[0] for i in range(4)]
    run = run_block(monogamous(1), env, off, 10, 100, streams, derive_stream(8), recording="full")
    assert np.all(run.overflow_step == 1) and np.all(run.steps_run == 1)
    assert np.all(run.tau == -1) and all_steps(run).size == 0


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
    run = run_extinction_records(env, off, rule, 1, reps, horizon, 1234)
    taus = np.where(run.tau < 0, horizon + 1, run.tau)
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
    censored = np.count_nonzero(run_extinction_records(env, off, rule, n0, reps, cap, 77).tau < 0)
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
            assert run.n_theta_plus_k[i] == _count_at(all_steps(run), i, run.theta[i] + k, run.tau[i])
        for wrong in (k - 1, k + 1):
            assert any(run.n_theta_plus_k[i] != _count_at(all_steps(run), i, run.theta[i] + wrong, run.tau[i])
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
        assert _rows(all_steps(run), i).size == (tau if tau >= 0 else cap)
        walk = np.cumsum(env.sample(derive_stream(11, i).spawn(2)[0], size=cap))
        if theta < 0:
            assert np.all(walk > spec_thr)
            assert math.isnan(run.n_theta[i]) and math.isnan(run.n_theta_plus_k[i])
            continue
        hits += 1
        assert _same(run.n_theta[i], _count_at(all_steps(run), i, theta, tau))
        assert _same(run.n_theta_plus_k[i], _count_at(all_steps(run), i, theta + k, tau))
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


def test_frozen_bundle_shapes_and_absorption():
    # the bundle dies out before its horizon: from then on every ratio is NaN
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    ratios = run_frozen_bundle(monogamous(1), env, off, 3, 40, 500, derive_stream(14))
    assert ratios.shape == (4, 40) and ratios.dtype == np.float64
    r2, r3, r3_se, r4 = ratios
    dead = np.isnan(r3)
    assert not dead[0] and dead[-1]
    assert np.all(dead[:-1] <= dead[1:])  # once extinct, always extinct
    for ratio in (r2, r3, r3_se, r4):
        assert np.array_equal(np.isnan(ratio), dead)
    assert r3[np.argmax(dead) - 1] == 0.0  # the step where the last replicate died


def test_bundle_deterministic_given_seed():
    env, off, rule = canonical()
    a = run_frozen_bundle(rule, env, off, 100, 20, 50, derive_stream(15))
    b = run_frozen_bundle(rule, env, off, 100, 20, 50, derive_stream(15))
    other = run_frozen_bundle(rule, env, off, 100, 20, 50, derive_stream(16))
    assert np.array_equal(a, b)
    assert not np.array_equal(a[1], other[1])


def test_noiseless_asexual_bundle_has_zero_residual_ratios():
    # F = 1 per couple deterministically: N_n = N_0 forever, R_n = 0, r3 = 1
    env = EnvironmentModel(std=0.5)
    off = OffspringModel(kind="deterministic", mean_f=ConstantMap(1.0), mean_m=ConstantMap(1.0))
    rule = asexual()
    r2, r3, r3_se, r4 = run_frozen_bundle(rule, env, off, 50, 30, 100, derive_stream(16))
    assert np.all(r2 == 0.0)
    assert np.all(r3 == 1.0)
    assert np.all(r3_se == 0.0)
    assert np.all(r4 == 0.0)


def test_bundle_r3_inequality_canonical():
    env, off, rule = canonical()
    r2, r3, r3_se, r4 = run_frozen_bundle(rule, env, off, 1000, 20, 3000, derive_stream(17))
    ok = ~np.isnan(r3)
    assert ok.all()
    assert np.all(r3[ok] <= 1.0 + 4.0 * r3_se[ok])


def test_bundle_totals_past_the_exact_poisson_range_take_the_normal_approximation():
    # requested totals of 2e15 and 4e16, far above POISSON_EXACT_MAX, as in a block
    off = OffspringModel(mean_f=ConstantMap(20.0), mean_m=ConstantMap(20.0))
    r2, r3, r3_se, r4 = run_frozen_bundle(asexual(), EnvironmentModel(std=0.5), off, 10**14, 2, 200, derive_stream(19))
    assert np.all(np.isfinite(r3)) and np.all(np.abs(r3 - 1.0) <= 4.0 * r3_se)


def _owners(match):
    # "module.Class.function" of the innermost definition around each node of the package that matches
    owners = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if match(node):
            owners.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(Path(model.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return owners


def test_poisson_totals_are_drawn_in_one_place():
    # blocks and bundles share one sampling rule: no other code of the package draws a Poisson total
    owners = _owners(lambda n: isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "poisson")
    assert owners and set(owners) == {"model._poisson_totals"}


def test_the_sampling_guard_is_applied_in_one_place():
    # no step loop compares a requested total against MEAN_GUARD: OffspringModel.totals does, for both
    def guard(node):
        sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return any(getattr(side, "id", getattr(side, "attr", None)) == "MEAN_GUARD" for side in sides)

    owners = _owners(guard)
    assert owners and set(owners) == {"model.OffspringModel.totals"}


def test_a_bad_mean_is_refused_when_its_window_is_drawn():
    # the first window (50 generations of 4 replicates) holds a negative female mean from generation 16 on;
    # the window's means are refused as it is drawn, before generation 1 takes an offspring draw
    env, off = EnvironmentModel(std=0.5), OffspringModel(mean_f=TableMap((1.0,), (1.0, -1.0)))
    eta = env.sample_rows([derive_stream(2, i) for i in range(4)], 50)
    assert (eta >= 1.0).any(axis=1).all() and (eta >= 1.0).argmax(axis=1).min() == 15
    stream = derive_stream(99)
    state = stream.bit_generator.state
    with pytest.raises(ConfigurationError, match="negative or NaN conditional mean at eta="):
        run_block(asexual(), env, off, 100, 50, [derive_stream(2, i) for i in range(4)], stream)
    assert stream.bit_generator.state == state


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
    doubling = OffspringModel(kind="deterministic", mean_f=ConstantMap(2.0), mean_m=ConstantMap(1.0))
    # a rule with L(0, 0) = 1: an extinct replicate must still stay extinct
    revives = model.MatingRule(
        kind="custom",
        L=lambda x, y, z: np.where((x == 0) & (y == 0), 1, np.minimum(x, y)),
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
    ratios = run_frozen_bundle(rule, env, off, n0, steps, reps, derive_stream(23))
    eta, xi, S, counts = _reference_bundle(rule, env, off, n0, steps, reps, derive_stream(23))
    assert ratios.shape == (4, steps)
    want = _reference_diagnostics(n0, eta, xi, S, counts, rule, off)
    for ratio, ref in zip(ratios, want):
        assert np.array_equal(ratio, ref, equal_nan=True)
    if case in ("dying", "custom"):
        # deaths mid-run, then nothing alive before the horizon (the loop stops early)
        alive = (counts > 0).sum(axis=0)
        assert np.any((alive > 0) & (alive < reps)) and alive[-2] == 0
        assert np.isnan(ratios[1, -1])


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
    sweep = run_replicates(config)[0]
    k = math.floor(2.0 * math.log(n0) ** 2)
    threshold = hitting_threshold(n0, off.beta)
    cases = {"after_tau": 0, "past_cap": 0}
    for i in range(72):
        tau, theta, steps_run = int(sweep.tau[i]), int(sweep.theta[i]), int(sweep.steps_run[i])
        at, at_k = sweep.n_theta[i], sweep.n_theta_plus_k[i]
        eta = env.sample(derive_stream(seed, 0, i).spawn(2)[0], size=cap)
        hit = hitting_time(threshold, cap, model.walk_increments(rule, off, eta)).theta
        assert theta == (-1 if hit is None else hit)
        if theta < 0:
            assert math.isnan(at) and math.isnan(at_k)
            assert steps_run == cap
            continue
        if tau >= 0 and theta > tau:
            assert at == 0
            cases["after_tau"] += 1
        if tau < 0:
            assert not math.isnan(at)
            assert math.isnan(at_k) == (theta + k > cap)
            cases["past_cap"] += theta + k > cap
        assert steps_run == (cap if tau < 0 else max(tau, theta))
    assert min(cases.values()) >= 2

    # the counts at theta and theta + k are the recorded counts of the same block streams
    for block, start in enumerate(range(0, 72, 16)):
        env_streams = [derive_stream(seed, 0, rep).spawn(2)[0] for rep in range(start, min(start + 16, 72))]
        off_rng = derive_stream(seed, 0, stats.OFFSPRING_BLOCK_KEY, block)
        run = run_block(rule, env, off, n0, cap, env_streams, off_rng, epsilon=2.0, recording="full")
        counts = {(int(s["replicate_id"]), int(s["n"])): float(s["N"]) for s in all_steps(run)}
        for i in range(len(env_streams)):
            tau, theta = int(sweep.tau[start + i]), int(sweep.theta[start + i])
            if theta < 0:
                continue
            for step, got in ((theta, sweep.n_theta[start + i]), (theta + k, sweep.n_theta_plus_k[start + i])):
                if (i, step) in counts:
                    assert got == counts[(i, step)]
                else:
                    assert _same(got, 0.0 if tau >= 0 else math.nan)


def test_blocks_are_thread_independent_across_a_ragged_last_block(monkeypatch):
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), monogamous(1)
    config = ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(500,), replicates=40, master_seed=8, threads=1)
    one = run_replicates(config)[0]
    two = run_replicates(ExperimentConfig(**{**config.__dict__, "threads": 2}))[0]
    assert _same_runs(one, two) and one.tau.size == 40
    a = run_extinction_records(env, off, rule, 500, 40, None, 8, threads=1, recording="sparse")
    b = run_extinction_records(env, off, rule, 500, 40, None, 8, threads=2, recording="sparse")
    assert _same_runs(a, b) and a.tau.size == 40
    # every replicate records its last step, under the replicate id of its position
    assert np.array_equal(np.unique(all_steps(a)["replicate_id"]), np.arange(40))
    assert np.all(np.diff(all_steps(a)["replicate_id"]) >= 0)


def test_block_results_do_not_depend_on_the_environment_window(monkeypatch):
    # windows of 7 cells end mid-path for every replicate; each replicate's
    # environment is read in order either way, S and the walk continue across
    # windows, and replicates that leave the window arrays (death, overflow)
    # take only their own rows
    env, off, rule = EnvironmentModel(std=0.5), OffspringModel(), monogamous(1)
    # the female mean jumps past the guard only where eta >= 1.25
    overflowing = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ConstantMap(1.0))
    config = ExperimentConfig(env=env, offspring=off, rule=rule, n_grid=(300,), replicates=30, master_seed=12)
    d3 = ExperimentConfig(**{**config.__dict__, "rule": monogamous(3)})
    runs = {
        "coupled": lambda: run_replicates(config)[0],
        "coupled_d3": lambda: run_replicates(d3)[0],
        "full": lambda: run_extinction_records(env, off, rule, 300, 30, None, 12, recording="full"),
        # counts around 1e12 take both branches of the Poisson/normal switch
        "full_large": lambda: run_extinction_records(env, off, rule, 5 * 10**11, 30, 60, 12, recording="full"),
        # one window of 200 generations by default: every overflow is mid-window
        "overflow": lambda: run_extinction_records(env, overflowing, rule, 1000, 40, 200, 5, recording="full"),
    }
    wide = {name: run() for name, run in runs.items()}
    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", 7)
    for name, run in runs.items():
        assert _same_runs(run(), wide[name]), name
    assert _outcomes(wide["coupled_d3"]) != _outcomes(wide["coupled"])
    assert np.any(wide["coupled"].theta < 0) and np.any(wide["coupled"].theta >= 0)
    first = _rows(all_steps(wide["full"]), 0)
    assert np.array_equal(first["S"], np.cumsum(first["xi"]))
    large = all_steps(wide["full_large"])
    above = [large["F_total"][large["n"] == n] > POISSON_EXACT_MAX for n in range(1, 61)]
    assert sum(a.any() and not a.all() for a in above) >= 10
    overflow = wide["overflow"]
    tagged = overflow.steps_run[overflow.overflow_step > 0]
    assert 0 < tagged.size < 40 and tagged.max() < 200


def test_block_environment_streams_are_each_replicates_first_child():
    env, off, rule = canonical()
    seed, grid_index, start = 9, 2, 5
    args = (env, off, rule, 200, 60, seed, grid_index, 0, start, start + 6, None, "full")
    run = stats._block_task(args)
    assert run.tau.size == 6
    # the block's arrays are indexed by block position, its steps by replicate
    assert np.array_equal(np.unique(all_steps(run)["replicate_id"]), np.arange(start, start + 6))
    for i, steps_run in enumerate(run.steps_run.tolist()):
        rep = start + i
        eta = _rows(all_steps(run), rep)["eta"]
        assert eta.size == steps_run
        assert np.array_equal(eta, env.sample(derive_stream(seed, grid_index, rep).spawn(2)[0], size=eta.size))


def test_block_engine_raises_the_sampling_errors(monkeypatch):
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    negative = OffspringModel(mean_f=ConstantMap(-1.0), mean_m=ConstantMap(1.0))
    with pytest.raises(ConfigurationError):
        run_extinction_records(env, negative, rule, 50, 20, 100, 1)
    fractional = OffspringModel(kind="deterministic", mean_f=ConstantMap(1.5), mean_m=ConstantMap(1.0))
    with pytest.raises(ConfigurationError):
        run_extinction_records(env, fractional, rule, 50, 20, 100, 1)


def test_block_overflow_tags_only_the_replicates_that_cross_the_guard(monkeypatch):
    # the female mean jumps past the guard only where eta >= 1.25; a deterministic law's infinite mean is
    # tagged the same way, and its integer check raises no warning on it
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    for off in (
        OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ConstantMap(1.0)),
        OffspringModel(kind="deterministic", mean_f=TableMap((1.25,), (1.0, math.inf)), mean_m=ConstantMap(1.0)),
    ):
        cap, seed, reps = 200, 5, 40
        run = run_extinction_records(env, off, rule, 1000, reps, cap, seed, recording="full")
        rows = np.bincount(all_steps(run)["replicate_id"], minlength=reps)
        tagged = 0
        for i in range(reps):
            tau, over, steps_run = int(run.tau[i]), int(run.overflow_step[i]), int(run.steps_run[i])
            assert rows[i] == (0 if over else steps_run)
            eta = env.sample(derive_stream(seed, 0, i).spawn(2)[0], size=cap)
            if over:
                tagged += 1
                assert tau == -1 and steps_run == over
                assert eta[steps_run - 1] >= 1.25 and np.all(eta[: steps_run - 1] < 1.25)
            else:
                assert steps_run == (cap if tau < 0 else tau)
                assert np.all(eta[:steps_run] < 1.25)
        assert 0 < tagged < reps


# 40 replicates in blocks of 16 (BLOCK monkeypatched): offspring model, n0, step cap, seed
BLOCK_SETUPS = {
    "canonical": (OffspringModel(), 500, None, 8),
    # the female mean jumps past the guard only where eta >= 1.25, tagging replicates mid-run
    "overflow": (OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ConstantMap(1.0)), 1000, 200, 5),
}


@pytest.mark.parametrize("recording", ["full", "sparse"])
@pytest.mark.parametrize("setup", sorted(BLOCK_SETUPS))
def test_placed_steps_equal_the_concatenated_filtered_sorted_chunks(monkeypatch, setup, recording):
    monkeypatch.setattr(stats, "BLOCK", 16)  # blocks of 16, 16 and 8
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off, n0, cap, seed = BLOCK_SETUPS[setup]

    def sweep(threads):
        return run_extinction_records(env, off, rule, n0, 40, cap, seed, threads=threads, recording=recording)

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
        outcomes = _outcomes(sweep(1))
    assert len(blocks) == 3
    assert (sum(dropped) > 0) == (setup == "overflow")
    reference = np.concatenate(blocks)
    for threads in (1, 2):
        placed = sweep(threads)
        assert _outcomes(placed) == outcomes
        steps = all_steps(placed)
        assert len(placed.steps) == 3
        assert steps.dtype == reference.dtype and steps.tobytes() == reference.tobytes()


@pytest.mark.parametrize("setup", sorted(BLOCK_SETUPS))
def test_extinction_records_do_not_depend_on_the_recording(monkeypatch, setup):
    # simulate records steps only when it writes a trajectory file, so its summary line must not depend on them
    monkeypatch.setattr(stats, "BLOCK", 16)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off, n0, cap, seed = BLOCK_SETUPS[setup]
    runs = [run_extinction_records(env, off, rule, n0, 40, cap, seed, recording=recording)
            for recording in simulator.RECORDING_MODES]
    assert _outcomes(runs[0]) == _outcomes(runs[1]) == _outcomes(runs[2])
    assert runs[0].overflow_step.any() == (setup == "overflow")


# ---------------------------------------------------------------------------
# the coupled blocks' hitting steps, found in the windows each replicate reads
# ---------------------------------------------------------------------------


def _coupled_block_against_the_oracle(monkeypatch, rule, env, off, n0, cap, size, seed):
    """A coupled block's run, checked against the whole-cap oracle, and the oracle's hitting steps (-1 if censored).

    The oracle's ``theta`` is ``hitting_time`` on each replicate's whole-cap
    walk.  Its counts are those recorded by the extinction-only run of the
    same streams, whose offspring draws are the coupled run's (they follow
    the live processes only), with the overflow-tagged replicates' steps kept.
    """

    def streams():
        return [derive_stream(seed, n0, i).spawn(2)[0] for i in range(size)]

    run = run_block(rule, env, off, n0, cap, streams(), derive_stream(seed), epsilon=1.0)
    with monkeypatch.context() as patched:
        patched.setattr(simulator, "_place_steps",
                        lambda recorded, overflow_step: np.frombuffer(bytes(recorded), dtype=simulator.STEP_DTYPE))
        ref = run_block(rule, env, off, n0, cap, streams(), derive_stream(seed), recording="full")
    assert np.array_equal(run.tau, ref.tau) and np.array_equal(run.overflow_step, ref.overflow_step)
    threshold = hitting_threshold(n0, off.beta)
    k = window_steps(n0, 1.0)
    whole = []
    for i, stream in enumerate(streams()):
        hit = hitting_time(threshold, cap, model.walk_increments(rule, off, env.sample(stream, size=cap))).theta
        whole.append(-1 if hit is None else hit)
        tau, over = int(run.tau[i]), int(run.overflow_step[i])
        theta = -1 if over and whole[i] >= over else whole[i]  # a theta at or after an overflow step is dropped
        assert run.theta[i] == theta
        want = [math.nan, math.nan]
        if theta > 0:
            want = [math.nan if over and n >= over else _count_at(all_steps(ref), i, n, tau) for n in (theta, theta + k)]
        assert _same(run.n_theta[i], want[0]) and _same(run.n_theta_plus_k[i], want[1])
    return run, np.array(whole)


@pytest.mark.parametrize("cells", [7, 2**14, 2**16])
@pytest.mark.parametrize(
    "env, n0, cap, size",
    [
        (EnvironmentModel(std=0.5), 1000, 2386, 64),  # the default cap: hits before and after tau, some censored
        (EnvironmentModel(std=0.5), 3, 40, 50),  # threshold -0.05: about half hit at step 1
        (EnvironmentModel(std=0.5), 10**8, 30, 20),  # every walk censored at a cap smaller than one window
        (EnvironmentModel(std=0.5), 1000, 500, 1),  # a block of one
        (EnvironmentModel(std=0.0), 100, 300, 5),  # a flat walk never hits
        (EnvironmentModel(mean=-1.0, std=0.0), 1000, 4, 3),  # the walk would hit at step 5, one past the cap
    ],
)
def test_hitting_scan_finds_the_whole_cap_hitting_time(monkeypatch, cells, env, n0, cap, size):
    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", cells)
    _, off, rule = canonical()
    run, _ = _coupled_block_against_the_oracle(monkeypatch, rule, env, off, n0, cap, size, 14)
    theta, tau = run.theta, run.tau
    if env.std > 0 and n0 == 3:
        assert 0 < theta.tolist().count(1) < size
    if env.std == 0 or n0 == 10**8:
        assert np.all(theta == -1)
    if size == 64:
        assert np.any(theta < 0) and np.any((tau > 0) & (theta > tau)) and np.any((theta > 0) & (theta <= tau))


@pytest.mark.parametrize("cells", [7, 2**14])
def test_coupled_block_drops_theta_at_or_after_an_overflow_step(monkeypatch, cells):
    # the female mean jumps past the guard only where eta >= 1.25; the male mean follows eta, so the walk moves
    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", cells)
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ExpMeanMap())
    run, whole = _coupled_block_against_the_oracle(monkeypatch, rule, env, off, 1000, 200, 40, 5)
    over = run.overflow_step
    assert np.any((over > 0) & (whole > 0) & (whole < over))  # hit before its overflow: kept
    assert np.any((over > 0) & (whole >= over))  # would hit at or after it: dropped


def test_hitting_scan_checks_only_the_increments_it_draws(monkeypatch):
    # the female mean halves below eta = -0.25 (xi = ln 0.5, a hit at n0 = 3)
    # and vanishes from eta = 1.5 on (xi = -inf); stream 1 starts below -0.25
    # and first reaches 1.5 at step 156; its process dies at step 2
    env, rule = EnvironmentModel(std=0.5), monogamous(1)
    off = OffspringModel(mean_f=TableMap((-0.25, 1.5), (0.5, 1.0, 0.0)), mean_m=ConstantMap(1.0))
    eta = env.sample(derive_stream(1).spawn(2)[0], size=2000)
    assert eta[0] < -0.25 and np.argmax(eta >= 1.5) == 155

    def run():
        return run_block(rule, env, off, 3, 2000, [derive_stream(1).spawn(2)[0]], derive_stream(1, 1), epsilon=1.0)

    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", 200)
    with pytest.raises(DegenerateModelError):  # within the one window the replicate reads
        run()
    with pytest.raises(DegenerateModelError):  # the whole-cap walk, as hitting_time reads it
        hitting_time(hitting_threshold(3, off.beta), 2000, model.walk_increments(rule, off, eta))
    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", 100)
    done = run()  # its last window ends at step 100
    assert done.theta.tolist() == [1] and done.steps_run.tolist() == [2]


def test_each_replicate_reads_its_stream_once(monkeypatch):
    # a replicate reads its environment to the end of the window that holds its
    # steps_run, never past it and never twice
    monkeypatch.setattr(simulator, "ENV_WINDOW_CELLS", 7)
    read = {}
    sample_rows = EnvironmentModel.sample_rows

    def counting(self, streams, width):
        for s in streams:
            read[id(s)] = read.get(id(s), 0) + width
        return sample_rows(self, streams, width)

    monkeypatch.setattr(EnvironmentModel, "sample_rows", counting)
    env, off, rule = canonical()
    overflowing = OffspringModel(mean_f=TableMap((1.25,), (1.0, 1e301)), mean_m=ExpMeanMap())
    for offspring, cap, epsilon in ((off, 2386, 1.0), (overflowing, 200, 1.0), (off, 2386, None)):
        streams = [derive_stream(17, i).spawn(2)[0] for i in range(64)]
        read.clear()
        run = run_block(rule, env, offspring, 1000, cap, streams, derive_stream(17), epsilon=epsilon)
        counts = np.array([read[id(s)] for s in streams])
        assert np.all(counts >= run.steps_run) and np.all(counts < run.steps_run + 7)


def test_block_capacity_per_window_matches_mating_each_generation(monkeypatch):
    # a capacity that varies with eta; the run is one window, so deaths drop
    # capacity rows mid-window
    env, off = EnvironmentModel(std=0.5), OffspringModel()
    rule = monogamous(TableMap((-0.3, 0.4), (1, 2, 3)))

    def run():
        streams = [derive_stream(15, i).spawn(2)[0] for i in range(24)]
        return run_block(rule, env, off, 200, 400, streams, derive_stream(16), epsilon=1.0, recording="sparse")

    fast = run()
    monkeypatch.setattr(model.MatingRule, "capacity", lambda self, eta: None)  # rule.L at every generation
    slow = run()
    assert np.any(fast.tau > 0) and np.any(fast.tau < 0)
    assert np.array_equal(all_steps(fast), all_steps(slow)) and fast.steps[0].size > 0
    for name in ("tau", "overflow_step", "steps_run", "theta", "n_theta", "n_theta_plus_k"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name), equal_nan=True), name
