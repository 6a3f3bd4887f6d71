import math

import numpy as np
import pytest
from scipy.stats import norm

from bbpre import (
    ConfigurationError,
    EnvironmentModel,
    HittingSpec,
    OffspringModel,
    default_max_steps,
    derive_stream,
    monogamous,
    simulator,
)
from walk_oracle import hitting_time


def test_gamma_from_beta():
    assert HittingSpec(n0=1000, beta=3.0).gamma == 0.5
    assert HittingSpec(n0=1000, beta=4.0).gamma == pytest.approx(0.4)
    assert 0.0 < HittingSpec(n0=1000, beta=1.5).gamma < 1.0


def test_threshold_formula_and_sign():
    spec = HittingSpec(n0=10**8, beta=3.0)
    ln = math.log(10**8)
    assert spec.threshold == pytest.approx(math.exp(0.5 * math.log(ln)) - ln, rel=1e-15)
    for n0 in (3, 10, 1000, 10**8):
        assert HittingSpec(n0=n0, beta=3.0).threshold < 0


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        HittingSpec(n0=2)
    with pytest.raises(ConfigurationError):
        HittingSpec(n0=100, beta=1.0)
    with pytest.raises(ConfigurationError):
        HittingSpec(n0=100, max_steps=0)


def test_default_step_cap():
    spec = HittingSpec(n0=10**8)
    assert spec.max_steps == default_max_steps(10**8) == math.ceil(50.0 * math.log(10**8) ** 2)


def test_hitting_time_deterministic_descent():
    # increments fixed at -1, N0 = round(e^10): threshold = sqrt(ln N) - ln N
    # ~ -6.8376, first step n with -n <= threshold is n = 7
    n0 = round(math.exp(10.0))
    spec = HittingSpec(n0=n0, beta=3.0, max_steps=100)
    assert spec.threshold == pytest.approx(math.sqrt(math.log(n0)) - math.log(n0))
    res = hitting_time(spec, np.full(100, -1.0))
    assert res.theta == 7
    assert res.S_theta == pytest.approx(-7.0)
    assert res.xi_theta == -1.0


def test_hitting_time_censors_on_ascent():
    spec = HittingSpec(n0=1000, beta=3.0, max_steps=100)
    res = hitting_time(spec, np.full(100, 1.0))
    assert res.censored and res.theta is None
    assert res.steps_run == 100
    assert math.isnan(res.xi_theta)
    with pytest.raises(ValueError):
        hitting_time(spec, np.full(99, 1.0))


def test_hitting_minimality_and_sandwich():
    rng = np.random.default_rng(17)
    spec = HittingSpec(n0=5000, beta=3.0, max_steps=20_000)
    ln_n0 = math.log(spec.n0)
    ln_gamma = spec.threshold + ln_n0  # ln^gamma N
    hits = 0
    for _ in range(50):
        incs = rng.normal(0.0, 0.5, size=spec.max_steps)
        res = hitting_time(spec, incs)
        if res.censored:
            continue
        hits += 1
        sums = np.cumsum(incs)
        theta = res.theta
        assert sums[theta - 1] <= spec.threshold
        assert np.all(sums[: theta - 1] > spec.threshold)
        assert res.S_theta == pytest.approx(sums[theta - 1], rel=1e-12)
        assert res.xi_theta == incs[theta - 1]
        # sandwich: ln^g N + xi_theta <= ln N + S_theta <= ln^g N
        assert ln_gamma + res.xi_theta <= ln_n0 + res.S_theta + 1e-9
        assert ln_n0 + res.S_theta <= ln_gamma + 1e-9
    assert hits > 20


def _hitting_steps(env, spec, replicates, seed, order=slice(None)):
    # a coupled block's theta over the replicates' own streams, taken in the given order
    streams = derive_stream(seed).spawn(replicates)[order]
    run = simulator.run_block(monogamous(1), env, OffspringModel(), spec.n0, spec.max_steps, streams,
                              derive_stream(seed, 1), epsilon=1.0)
    return run.theta


def test_hitting_steps_censor_everything_in_a_degenerate_environment():
    env = EnvironmentModel(std=0.0)
    spec = HittingSpec(n0=1000, beta=3.0, max_steps=200)
    assert np.all(_hitting_steps(env, spec, 50, 7) == -1)


def test_hitting_steps_are_order_canonical():
    # a replicate's hitting step does not depend on its position among the streams
    env = EnvironmentModel(std=0.5)
    spec = HittingSpec(n0=1000, beta=3.0)
    theta = _hitting_steps(env, spec, 200, 8)
    backwards = _hitting_steps(env, spec, 200, 8, slice(None, None, -1))
    assert np.array_equal(backwards[::-1], theta)
    assert 0 < np.count_nonzero(theta > 0) < 200


def test_theta_median_matches_first_passage_prediction():
    # oracle: the walk is normal(0, 0.25) per step hitting depth ln N - ln^g N,
    # so the median hitting time is (depth / (sigma z_{0.75}))^2 up to the
    # discrete-step overshoot; 15% covers it comfortably
    n0 = 10**8
    env = EnvironmentModel(std=0.5)
    spec = HittingSpec(n0=n0, beta=3.0)
    theta = _hitting_steps(env, spec, 1000, 9)
    ln_n0 = math.log(spec.n0)
    depth = ln_n0 - (spec.threshold + ln_n0)
    predicted = (depth / (0.5 * norm.ppf(0.75))) ** 2 / ln_n0**2
    observed = float(np.quantile(np.where(theta > 0, theta / ln_n0**2, np.inf), 0.5))
    assert abs(observed - predicted) / predicted <= 0.15
