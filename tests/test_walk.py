import math

import numpy as np
import pytest
from scipy.stats import norm

from bbpre import (
    ConfigurationError,
    EnvironmentModel,
    OffspringModel,
    default_max_steps,
    derive_stream,
    hitting_threshold,
    monogamous,
    simulator,
)
from walk_oracle import hitting_time


def test_gamma_from_beta():
    # gamma = 2 / (1 + beta): 0.5 at beta = 3, 0.4 at beta = 4, inside (0, 1) for every beta > 1
    ln = math.log(1000)
    assert hitting_threshold(1000, 3.0) == math.exp(0.5 * math.log(ln)) - ln
    assert hitting_threshold(1000, 4.0) == math.exp(0.4 * math.log(ln)) - ln
    assert 1.0 - ln < hitting_threshold(1000, 1.5) < 0.0


def test_threshold_formula_and_sign():
    ln = math.log(10**8)
    assert hitting_threshold(10**8, 3.0) == math.exp(0.5 * math.log(ln)) - ln
    for n0 in (3, 10, 1000, 10**8):
        assert hitting_threshold(n0, 3.0) < 0


def test_threshold_inputs_are_refused_where_the_program_reads_them():
    # n0 >= 3 and max_steps >= 1 by the block engine, beta > 1 by the offspring model
    with pytest.raises(ConfigurationError, match="beta must exceed 1"):
        OffspringModel(beta=1.0)
    env, streams = EnvironmentModel(), [derive_stream(1).spawn(2)[0]]
    with pytest.raises(ConfigurationError, match="n0 >= 3"):
        simulator.run_block(monogamous(1), env, OffspringModel(), 2, 100, streams, derive_stream(2), epsilon=1.0)
    with pytest.raises(ConfigurationError, match="max_steps must be >= 1"):
        simulator.run_block(monogamous(1), env, OffspringModel(), 100, 0, streams, derive_stream(2), epsilon=1.0)


def test_default_step_cap():
    assert default_max_steps(10**8) == math.ceil(50.0 * math.log(10**8) ** 2)


def test_hitting_time_deterministic_descent():
    # increments fixed at -1, N0 = round(e^10): threshold = sqrt(ln N) - ln N
    # ~ -6.8376, first step n with -n <= threshold is n = 7
    n0 = round(math.exp(10.0))
    threshold = hitting_threshold(n0, 3.0)
    assert threshold == pytest.approx(math.sqrt(math.log(n0)) - math.log(n0))
    res = hitting_time(threshold, 100, np.full(100, -1.0))
    assert res.theta == 7
    assert res.S_theta == pytest.approx(-7.0)
    assert res.xi_theta == -1.0


def test_hitting_time_censors_on_ascent():
    threshold = hitting_threshold(1000, 3.0)
    res = hitting_time(threshold, 100, np.full(100, 1.0))
    assert res.censored and res.theta is None
    assert res.steps_run == 100
    assert math.isnan(res.xi_theta)
    with pytest.raises(ValueError):
        hitting_time(threshold, 100, np.full(99, 1.0))


def test_hitting_minimality_and_sandwich():
    rng = np.random.default_rng(17)
    threshold, cap = hitting_threshold(5000, 3.0), 20_000
    ln_n0 = math.log(5000)
    ln_gamma = threshold + ln_n0  # ln^gamma N
    hits = 0
    for _ in range(50):
        incs = rng.normal(0.0, 0.5, size=cap)
        res = hitting_time(threshold, cap, incs)
        if res.censored:
            continue
        hits += 1
        sums = np.cumsum(incs)
        theta = res.theta
        assert sums[theta - 1] <= threshold
        assert np.all(sums[: theta - 1] > threshold)
        assert res.S_theta == pytest.approx(sums[theta - 1], rel=1e-12)
        assert res.xi_theta == incs[theta - 1]
        # sandwich: ln^g N + xi_theta <= ln N + S_theta <= ln^g N
        assert ln_gamma + res.xi_theta <= ln_n0 + res.S_theta + 1e-9
        assert ln_n0 + res.S_theta <= ln_gamma + 1e-9
    assert hits > 20


def _hitting_steps(env, n0, cap, replicates, seed, order=slice(None)):
    # a coupled block's theta over the replicates' own streams, taken in the given order
    streams = derive_stream(seed).spawn(replicates)[order]
    run = simulator.run_block(monogamous(1), env, OffspringModel(), n0, cap, streams, derive_stream(seed, 1),
                              epsilon=1.0)
    return run.theta


def test_hitting_steps_censor_everything_in_a_degenerate_environment():
    env = EnvironmentModel(std=0.0)
    assert np.all(_hitting_steps(env, 1000, 200, 50, 7) == -1)


def test_hitting_steps_are_order_canonical():
    # a replicate's hitting step does not depend on its position among the streams
    env = EnvironmentModel(std=0.5)
    cap = default_max_steps(1000)
    theta = _hitting_steps(env, 1000, cap, 200, 8)
    backwards = _hitting_steps(env, 1000, cap, 200, 8, slice(None, None, -1))
    assert np.array_equal(backwards[::-1], theta)
    assert 0 < np.count_nonzero(theta > 0) < 200


def test_theta_median_matches_first_passage_prediction():
    # oracle: the walk is normal(0, 0.25) per step hitting depth ln N - ln^g N,
    # so the median hitting time is (depth / (sigma z_{0.75}))^2 up to the
    # discrete-step overshoot; 15% covers it comfortably
    n0 = 10**8
    env = EnvironmentModel(std=0.5)
    theta = _hitting_steps(env, n0, default_max_steps(n0), 1000, 9)
    ln_n0 = math.log(n0)
    depth = ln_n0 - (hitting_threshold(n0, 3.0) + ln_n0)
    predicted = (depth / (0.5 * norm.ppf(0.75))) ** 2 / ln_n0**2
    observed = float(np.quantile(np.where(theta > 0, theta / ln_n0**2, np.inf), 0.5))
    assert abs(observed - predicted) / predicted <= 0.15
