import math
import pickle
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln
from scipy.stats import ks_2samp, poisson

from bbpre import (
    ConfigurationError,
    ConstantMap,
    DegenerateModelError,
    EnvironmentModel,
    ExpMeanMap,
    MatingRule,
    OffspringModel,
    OverflowGuardError,
    TableMap,
    analytic_sigma_xi,
    asexual,
    audit_conditions,
    check_approximation,
    check_homogeneity,
    check_lipschitz,
    check_superadditivity,
    derive_stream,
    monogamous,
    noise_scales,
    polygamous,
    run_extinction_records,
    walk_increments,
)
from bbpre import model as model_module
from bbpre.model import (
    MEAN_GUARD,
    MOMENT_ORDER_MAX,
    MOMENT_SERIES_MAX,
    POISSON_EXACT_MAX,
    _STIRLERR,
    _poisson_centered_abs_moments,
    _poisson_totals,
    _stirlerr,
)
from bbpre.stats import AUDIT_SAMPLES
from recorded import all_steps

ALL_RULES = [monogamous(1), monogamous(3), polygamous(), asexual()]
# the condition checks' environment: standard normal draws
UNIT_ENV = EnvironmentModel(std=1.0)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def test_degenerate_environment_is_constant():
    env = EnvironmentModel(std=0.0)
    rng = np.random.default_rng(0)
    assert all(env.sample(rng, size=1)[0] == 0.0 for _ in range(20))
    assert np.all(env.sample(rng, size=100) == 0.0)


def test_environment_sample_mean_clt():
    env = EnvironmentModel(std=0.5)
    draws = env.sample(np.random.default_rng(123), size=10**6)
    assert abs(draws.mean()) <= 4.0 * 0.5 / 1e3


def test_equal_seeds_give_identical_streams():
    env = EnvironmentModel(std=0.5)
    a = env.sample(derive_stream(99, 1), size=50)
    b = env.sample(derive_stream(99, 1), size=50)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mean, std", [(0.3, 0.7), (0.3, 0.0), (-0.0, 0.0)])
def test_environment_draws_are_mean_plus_std_times_standard_normals(mean, std):
    # bit for bit against the plain expression on cloned streams, signed zeros included, and the streams end equal
    env = EnvironmentModel(mean=mean, std=std)
    stream, clone = derive_stream(61), derive_stream(61)
    assert env.sample(stream, 1001).tobytes() == (mean + std * clone.standard_normal(1001)).tobytes()
    assert stream.bit_generator.state == clone.bit_generator.state
    streams, clones = [derive_stream(62, i) for i in range(3)], [derive_stream(62, i) for i in range(3)]
    want = np.array([mean + std * c.standard_normal(17) for c in clones])
    assert env.sample_rows(streams, 17).tobytes() == want.tobytes()
    assert [s.bit_generator.state for s in streams] == [c.bit_generator.state for c in clones]


def test_environment_validation():
    with pytest.raises(ConfigurationError):
        EnvironmentModel(std=-0.1)
    with pytest.raises(ConfigurationError):
        EnvironmentModel(kind="cauchy")


# ---------------------------------------------------------------------------
# offspring totals
# ---------------------------------------------------------------------------


def _totals(model, n_pairs, eta, reps, rng):
    # the block engine's draw: each sex's total is one draw at mean n_pairs * mean(eta)
    lam = n_pairs * np.array([[model.mean_f(eta)], [model.mean_m(eta)]], dtype=float) * np.ones(reps)
    return _poisson_totals(lam, lam.max(), rng)


def test_totals_of_zero_pairs_is_zero():
    rng = np.random.default_rng(1)
    state_before = rng.bit_generator.state
    assert np.array_equal(_totals(OffspringModel(), 0, 1.3, 5, rng), np.zeros((2, 5)))
    assert rng.bit_generator.state == state_before  # a zero mean draws nothing


def test_totals_mean_at_eta_zero():
    # each component is Poisson(n_pairs) at eta = 0
    n_pairs, reps = 10**6, 100
    fs, ms = _totals(OffspringModel(), n_pairs, 0.0, reps, np.random.default_rng(5))
    se = 1.0 / math.sqrt(n_pairs * reps)
    assert abs(np.mean(fs) / n_pairs - 1.0) <= 4.0 * se
    assert abs(np.mean(ms) / n_pairs - 1.0) <= 4.0 * se


def test_aggregated_totals_match_per_pair_loop():
    # brute-force oracle: sum n_pairs independent Poisson draws per replicate
    n_pairs, reps, eta = 50, 10_000, 0.4
    lam = math.exp(eta)
    aggregated = _totals(OffspringModel(), n_pairs, eta, reps, np.random.default_rng(11))[0]
    oracle = np.random.default_rng(12).poisson(lam, size=(reps, n_pairs)).sum(axis=1)
    d = ks_2samp(aggregated, oracle).statistic
    assert d <= 1.628 * math.sqrt(2.0 / reps)  # not rejected at level 0.01


def test_mean_overflow_raises_guard_error():
    # every replicate crosses the guard at step 1, so the sweep has nothing to report
    model = OffspringModel(mean_f=ExpMeanMap(shift=800.0))
    with pytest.raises(OverflowGuardError):
        run_extinction_records(EnvironmentModel(), model, monogamous(1), 10, 4, 100, 2)


def test_large_mean_normal_fallback_is_sane():
    # crossover at 1e12: relative sd ~ 1e-6, draw must stay within 6 sd
    lam = 4e12
    f = _totals(OffspringModel(), 4, math.log(lam / 4), 1, np.random.default_rng(3))[0, 0]
    assert abs(f - lam) <= 6.0 * math.sqrt(lam)


@pytest.mark.parametrize(
    "lam",
    [
        # zeros, the multiplication sampler (< 10), the rejection sampler, exactly 1e12, and normals above
        np.array([[0.0, 3.5, 2e12, 40.0, 7e13, 0.0], [1e12, 0.0, 9.0, 5e15, 12.5, 2.0e5]]),
        np.array([[0.0, 3.5, 40.0], [1e12, 0.0, 9.0]]),
        np.array([[2e12, 7e13], [5e15, 1e300]]),
    ],
)
def test_poisson_totals_equal_the_two_call_reference(lam):
    got_rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    got = _poisson_totals(lam, lam.max(), got_rng)
    big = lam > POISSON_EXACT_MAX
    ref = np.empty_like(lam)
    ref[~big] = ref_rng.poisson(lam[~big])
    ref[big] = np.round(lam[big] + np.sqrt(lam[big]) * ref_rng.standard_normal(big.sum()))
    assert got.dtype == float and np.array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_poisson_totals_above_the_exact_range_are_normal_draws_only():
    # every mean is big: the totals are one normal draw each, in C order, and nothing else is drawn
    lam = np.array([[2e12, 7e13, 1e300], [5e15, POISSON_EXACT_MAX * 1.5, 3e20]])
    got_rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
    got = _poisson_totals(lam, lam.max(), got_rng)
    assert np.array_equal(got, np.rint(lam + np.sqrt(lam) * ref_rng.standard_normal(lam.shape)))
    assert got_rng.random() == ref_rng.random()


def test_offspring_totals_within_the_guard_draw_every_column():
    cur, means = np.array([3.0, 40.0, 2e12]), np.array([[1.5, 0.0, 2.0], [0.5, 3.0, 1.0]])
    got_rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
    totals, drawn = OffspringModel().totals(cur, means, got_rng)
    lam = cur * means
    assert drawn is None and np.array_equal(totals, _poisson_totals(lam, lam.max(), ref_rng))
    assert got_rng.random() == ref_rng.random()


def test_offspring_totals_leave_out_the_columns_above_the_guard():
    # a block's means: column 1 asks for 2e300 (finite, above the guard), column 3 for inf
    cur, means = np.array([3.0, 1e200, 40.0, 7.0]), np.array([[1.5, 2e100, 0.0, np.inf], [0.5, 1.0, 3.0, 1.0]])
    got_rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    totals, drawn = OffspringModel().totals(cur, means, got_rng)
    kept = cur[[0, 2]] * means[:, [0, 2]]
    assert np.array_equal(drawn, [True, False, True, False])
    assert np.array_equal(totals, _poisson_totals(kept, kept.max(), ref_rng))
    assert got_rng.random() == ref_rng.random()


def test_offspring_totals_leave_out_a_dead_replicate_under_an_infinite_mean():
    # a bundle's (2, 1) means: the dead replicate's female total is 0 * inf = NaN, the live one's inf
    rng = np.random.default_rng(37)
    state = rng.bit_generator.state
    with np.errstate(invalid="ignore"):
        totals, drawn = OffspringModel().totals(np.array([0.0, 4.0]), np.array([[np.inf], [2.0]]), rng)
    assert np.array_equal(drawn, [False, False]) and totals.shape == (2, 0)
    assert rng.bit_generator.state == state


def test_offspring_totals_draw_nothing_when_every_column_is_above_the_guard():
    cur, means = np.array([1e200, 2.0]), np.array([[1e101, 1.0], [1.0, np.inf]])
    assert not (cur * means <= MEAN_GUARD).all(axis=0).any()
    rng = np.random.default_rng(41)
    state = rng.bit_generator.state
    totals, drawn = OffspringModel().totals(cur, means, rng)
    assert np.array_equal(drawn, [False, False]) and totals.shape == (2, 0)
    assert rng.bit_generator.state == state


def test_deterministic_totals_mask_the_couple_counts_too():
    model = OffspringModel(kind="deterministic", mean_f=ConstantMap(2.0), mean_m=ConstantMap(1.0))
    rng = np.random.default_rng(43)
    state = rng.bit_generator.state
    block = model.totals(np.array([2.0, 1e200, 3.0]), np.array([[2.0, 2e100, 1.0], [1.0, 1.0, 4.0]]), rng)
    bundle = model.totals(np.array([1e300, 3.0]), np.array([[2.0], [1.0]]), rng)
    assert np.array_equal(block[0], [[4.0, 3.0], [2.0, 12.0]]) and np.array_equal(block[1], [True, False, True])
    assert np.array_equal(bundle[0], [[6.0], [3.0]]) and np.array_equal(bundle[1], [False, True])
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
@pytest.mark.parametrize(
    "model",
    [
        OffspringModel(),
        OffspringModel(mean_f=ExpMeanMap(scale=0.0), mean_m=TableMap((0.0,), (1.0, 2.5))),
        OffspringModel(kind="deterministic", mean_f=ConstantMap(2.0), mean_m=TableMap((0.0,), (1.0, 3.0))),
    ],
)
def test_offspring_means_stack_the_two_mean_maps(model, shape):
    eta = np.random.default_rng(4).normal(0.0, 0.5, size=shape)
    got = model.means(eta)
    ref = np.array([model.mean_f(eta), model.mean_m(eta)], dtype=float)
    assert got.dtype == float and got.shape == (2,) + shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "model, text",
    [
        (OffspringModel(mean_m=TableMap((0.5,), (1.0, -1.0))), "negative or NaN conditional mean at eta=0.75: "
                                                                "(2.117000016612675, -1.0)"),
        (OffspringModel(mean_f=TableMap((0.5,), (1.0, math.nan))), "negative or NaN conditional mean at eta=0.75"),
        (OffspringModel(kind="deterministic", mean_f=TableMap((0.5,), (1.0, 1.5)), mean_m=ConstantMap(2.0)),
         "deterministic offspring needs integer means, got (1.5, 2.0) at eta=0.75"),
    ],
)
def test_offspring_means_refuse_bad_means(model, text):
    # the first bad column of the flattened eta is named, whatever the shape
    for eta in (np.array([0.0, 0.25, 0.75, 1.0]), np.array([[0.0, 0.25], [0.75, 1.0]])):
        with pytest.raises(ConfigurationError) as err:
            model.means(eta)
        assert str(err.value).startswith(text)


def test_deterministic_family():
    env = EnvironmentModel(std=0.5)
    model = OffspringModel(kind="deterministic", mean_f=ConstantMap(1.0), mean_m=ConstantMap(2.0))
    run = run_extinction_records(env, model, asexual(), 7, 3, 10, 4, recording="full")
    steps = all_steps(run)
    assert np.all(run.tau == -1) and np.all(run.overflow_step == 0) and steps.size == 30
    assert np.all(steps["F_total"] == 7) and np.all(steps["M_total"] == 14) and np.all(steps["N"] == 7)
    eta = np.array([0.0, 1.3])
    assert not noise_scales(asexual(alpha=0.4), model, eta, model.means(eta))[3].any()
    bad = OffspringModel(kind="deterministic", mean_f=ConstantMap(1.5), mean_m=ConstantMap(1.0))
    with pytest.raises(ConfigurationError):
        run_extinction_records(env, bad, asexual(), 3, 3, 10, 4)


# ---------------------------------------------------------------------------
# centered absolute moments
# ---------------------------------------------------------------------------


# The oracles below weigh k by exp(k ln lam - lam - ln k!), whose three terms near lam ln lam cancel:
# against 3 lam^2 + lam their fourth moment is off by 5e-15 at lam = 40 and 1.3e-11 at 1e4.  They
# are used up to lam = 1e4, at ORACLE_RTOL.
ORACLE_RTOL = 5e-11


def scalar_centered_abs_moment(lam: float, order: float) -> float:
    """E|X - lam|^order for one Poisson mean: its own series, doubled until the tail is below 1e-12."""
    if lam == 0.0:
        return 0.0
    k_max = int(max(lam + 12.0 * math.sqrt(lam) + 20.0, 2.0 * lam + 10.0 * order + 20.0))
    while True:
        k = np.arange(0, k_max + 1, dtype=float)
        terms = np.abs(k - lam) ** order * np.exp(k * math.log(lam) - lam - gammaln(k + 1.0))
        total = float(terms.sum())
        if 1.3 * float(terms[-1]) <= 1e-12 * max(total, 1e-300):
            return total
        k_max *= 2


def full_series_centered_abs_moments(lams: np.ndarray, order: float) -> np.ndarray:
    """The moment series without windows: every mean summed from k = 0, in passes of 2^20 cells, one ln k! table."""
    if order == 2.0:
        return lams
    out = np.zeros(lams.shape)
    pos = np.flatnonzero(lams > 0.0)
    pos = pos[np.argsort(lams.flat[pos])[::-1]]
    desc = lams.flat[pos]
    log_fact = np.empty(0)
    start, k_min = 0, 0
    while start < pos.size:
        top = float(desc[start])
        k_max = max(int(max(top + 12.0 * math.sqrt(top) + 20.0, 2.0 * top + 10.0 * order + 20.0)), k_min)
        lam = desc[start : start + max(1, 2**20 // (k_max + 1)), None]
        if log_fact.size <= k_max:
            log_fact = gammaln(np.arange(k_max + 1) + 1.0)
        k = np.arange(k_max + 1, dtype=float)
        terms = k * np.log(lam)
        terms -= lam
        terms -= log_fact[: k_max + 1]
        np.exp(terms, out=terms)
        dev = k - lam
        np.abs(dev, out=dev)
        dev **= order
        terms *= dev
        sums = terms.sum(axis=1)
        if not np.all(1.3 * terms[:, -1] <= 1e-12 * np.maximum(sums, 1e-300)):
            k_min = 2 * k_max
            continue
        out.flat[pos[start : start + lam.shape[0]]] = sums
        start, k_min = start + lam.shape[0], 0
    return out


def test_poisson_second_central_moment_is_the_mean():
    lams = np.array([0.0, 0.3, 1.0, 17.2])
    assert np.array_equal(_poisson_centered_abs_moments(lams, 2.0), lams)


def test_poisson_fractional_moment_against_direct_sum():
    # independent oracle: direct summation with scipy pmf over a wide range
    k = np.arange(0, 500)
    for lams, order in (([1.7, 0.2], 1.5), ([0.4, 3.0, 0.0], 1.25), ([9.0, 60.0], 2.5)):
        exact = [float(np.sum(np.abs(k - lam) ** order * poisson.pmf(k, lam))) for lam in lams]
        assert _poisson_centered_abs_moments(np.array(lams), order) == pytest.approx(exact, rel=1e-10)


def test_poisson_fractional_moment_against_monte_carlo():
    lam, order = 2.6, 1.8
    draws = np.random.default_rng(9).poisson(lam, size=2_000_000).astype(float)
    vals = np.abs(draws - lam) ** order
    se = vals.std() / math.sqrt(vals.size)
    assert abs(_poisson_centered_abs_moments(np.array([lam]), order)[0] - vals.mean()) <= 5 * se


def test_moment_array_path_matches_scalar(monkeypatch):
    # means in no order; 5,000 cells hold one series alone above a mean of about 1,200
    lams = np.array([[40.0, 0.0, 2.3e3, 0.2], [9_999.0, 1.0, 1.2e3, 3.7], [6e3, 250.0, 0.0, 1e4]])
    for order in (1.25, 2.5, 4.0):
        expected = np.array([[scalar_centered_abs_moment(float(lam), order) for lam in row] for row in lams])
        for cells in (model_module.MOMENT_PASS_CELLS, 5_000):
            monkeypatch.setattr(model_module, "MOMENT_PASS_CELLS", cells)
            got = _poisson_centered_abs_moments(lams, order)
            assert got.shape == lams.shape
            assert got == pytest.approx(expected, rel=ORACLE_RTOL)


def test_windowed_moments_match_the_full_series(monkeypatch):
    # at order 40 the first window of a mean near 1e6 leaves a tail above 1e-16 of its sum: the pass is
    # redone over a wider span of k, each pass asking stirlerr for its span once
    spans = []
    monkeypatch.setattr(model_module, "_stirlerr", lambda k: spans.append(k.size) or _stirlerr(k))
    _poisson_centered_abs_moments(np.array([1e6]), 40.0)
    assert len(spans) == 2 and spans[1] > spans[0]
    monkeypatch.undo()
    lams = np.append(np.geomspace(1e-3, 1e4, 36), [1e-10, 1e-320])  # (1 + 1 / lam)^40 and 1 / 1e-320 overflow
    for order in (1.25, 2.5, 4.0, 40.0):
        expected = full_series_centered_abs_moments(lams, order)
        for cells in (model_module.MOMENT_PASS_CELLS, 5_000):
            monkeypatch.setattr(model_module, "MOMENT_PASS_CELLS", cells)
            np.testing.assert_allclose(_poisson_centered_abs_moments(lams, order), expected, rtol=ORACLE_RTOL, atol=0)


def log_domain_moment(lam: float, order: float, k_max: int) -> float:
    """E|X - lam|^order over k < k_max, each term's log formed with math.lgamma: finite wherever the moment is."""
    logs = [k * math.log(lam) - lam - math.lgamma(k + 1) + order * math.log(abs(k - lam))
            for k in range(k_max) if k != lam]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def test_high_order_moment_is_finite_where_the_power_overflows():
    # at order 100 and lambda = 300, |k - lambda|^100 overflows to inf where
    # the Poisson factor has underflowed to 0: those terms are 0, never NaN
    oracle = log_domain_moment(300.0, 100.0, 3000)
    assert oracle == pytest.approx(7.3159367648573e205, rel=1e-12)
    assert _poisson_centered_abs_moments(np.array([300.0]), 100.0)[0] == pytest.approx(oracle, rel=1e-12)


def test_noise_scale_refuses_a_moment_sum_that_overflows():
    # alpha = 0.01 makes the moment order 100.  At a mean of e^7.5 (1808) |k - mean|^100 overflows where
    # P(k) has not underflowed, but no term is formed outside the log domain: the moment, 4.3e242, is summed
    rule, model = monogamous(1, alpha=0.01), OffspringModel(beta=101.0)
    lam = float(model.mean_f(np.array([7.5]))[0])
    oracle = log_domain_moment(lam, 100.0, 8000)
    assert oracle == pytest.approx(4.3e242, rel=0.01)
    eta = np.array([7.5])
    assert noise_scales(rule, model, eta, model.means(eta))[3][0] == pytest.approx(2.0 * oracle, rel=ORACLE_RTOL)
    # at a mean of e^11 (5.99e4) the moment itself, 2.4e317, is past the double range: it is refused
    with pytest.raises(ConfigurationError, match="order 100 overflows float64"):
        noise_scales(rule, model, np.array([7.5, 11.0]), model.means(np.array([7.5, 11.0])))
    # a mean past the double range (eta > 709.78) is refused at any order, before any sum
    eta = np.array([0.0, 800.0])
    for alpha in (0.5, 0.4):
        with pytest.raises(ConfigurationError, match="infinite"):
            noise_scales(monogamous(1, alpha=alpha), OffspringModel(), eta, OffspringModel().means(eta))


def test_even_moments_equal_their_closed_forms():
    # mu4 = 3 lam^2 + lam and mu6 = 15 lam^3 + 25 lam^2 + lam, summed up to MOMENT_SERIES_MAX and from the
    # normal expansion above it.  The largest error seen here is 1.6e-15; weights formed as
    # exp(k ln lam - lam - ln k!) were off by 1.5e-6 at 5.56e8, the largest mean of the audit-sigma-env-4 golden
    lams = np.append(np.geomspace(1e-3, 1e15, 145), [5.56e8, 1.9e9])
    for order, exact in ((4.0, 3.0 * lams**2 + lams), (6.0, 15.0 * lams**3 + 25.0 * lams**2 + lams)):
        np.testing.assert_allclose(_poisson_centered_abs_moments(lams, order), exact, rtol=1e-14, atol=0)


def test_moments_are_continuous_at_the_series_cutoff():
    # the normal expansion's own error at 1e9: 3.6e-12 at order 1.25, 1.3e-13 at 1.5, below 1e-15 from 2.5
    lams = np.array([MOMENT_SERIES_MAX, np.nextafter(MOMENT_SERIES_MAX, np.inf)])
    for order in (1.25, 1.5, 2.5, 3.0):
        summed, expanded = _poisson_centered_abs_moments(lams, order)
        assert expanded == pytest.approx(summed, rel=5e-12)


def test_the_normal_expansion_is_inf_only_where_the_moment_overflows():
    # below order 2, lam^(p/2) stays finite up to the largest double: at 1e308 and order 1.25 the moment is 2.6e192
    p = 1.25
    lams = np.array([1e308, 1e300])
    m_p = 2.0 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
    expected = lams ** (p / 2) * m_p * (1.0 + p * (p - 1) * (p - 2) / 72.0 / lams)
    np.testing.assert_allclose(_poisson_centered_abs_moments(lams, p), expected, rtol=1e-15, atol=0)
    assert np.array_equal(_poisson_centered_abs_moments(lams, 2.5), [np.inf, np.inf])  # 1e385 and 5.6e375


def test_an_order_past_the_bound_overflows_at_every_positive_mean():
    # P(2) 2^order exceeds the double range at the smallest positive mean from order 3173.1; summed at the
    # bound itself, every moment is inf as well
    lams = np.array([0.0, 5e-324, 1e-300, 0.5, 3.0, 1e3, 1e9, 1e12])
    want = np.array([0.0] + [np.inf] * 7)
    for order in (MOMENT_ORDER_MAX, np.nextafter(MOMENT_ORDER_MAX, np.inf), 1e8):
        assert np.array_equal(_poisson_centered_abs_moments(lams, order), want)


def test_stirlerr_matches_exact_log_factorials():
    # stirlerr(k) = ln k! - (k ln k - k + ln sqrt(2 pi k)) in 40-digit decimals; in float64, scipy's
    # gammaln(k + 1) - k ln k loses up to 6e-15 to the rounding of its terms
    pi = Decimal("3.141592653589793238462643383279502884197")
    with localcontext() as ctx:
        ctx.prec = 40
        exact = [float(Decimal(math.factorial(k)).ln() - (k * Decimal(k).ln() - k + (2 * pi * k).ln() / 2))
                 for k in range(1, 301)]
    np.testing.assert_allclose(_STIRLERR, exact[:15], rtol=0, atol=2e-15)
    np.testing.assert_allclose(_stirlerr(np.arange(1.0, 301.0)), exact, rtol=0, atol=2e-15)


def test_one_large_mean_is_summed_over_a_window_around_it():
    # from k = 0 the series of lambda = 1e6 has 2e6 terms: a matrix of them traced 158 MiB
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value = _poisson_centered_abs_moments(np.array([1e6]), 2.5)[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20
    # the normal limit: E|Z|^2.5 lambda^1.25, with E|Z|^p = 2^(p/2) Gamma((p + 1)/2) / sqrt(pi)
    assert value == pytest.approx(2**1.25 * math.gamma(1.75) / math.sqrt(math.pi) * 1e6**1.25, rel=1e-5)


def test_noise_scales_sum_the_series_in_bounded_passes():
    # 2,000 means up to 788: one matrix of all their series from k = 0 peaks at 74 MiB, bounded passes at 16 MiB
    eta = EnvironmentModel(std=2.0).sample(np.random.default_rng(4), 2_000)
    rule, means = monogamous(1, alpha=0.4), OffspringModel().means(eta)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        w3 = noise_scales(rule, OffspringModel(), eta, means)[3]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, peak / 2**20
    assert np.all(w3 > 0)


# ---------------------------------------------------------------------------
# mating rules
# ---------------------------------------------------------------------------


def test_mate_examples():
    assert monogamous(1).L(5, 3, 0.0) == 3
    assert polygamous().L(7, 0, 0.0) == 0
    assert polygamous().L(7, 2, 0.0) == 7
    assert asexual().L(4, 999, 0.0) == 4
    assert monogamous(3).L(10, 2, 0.0) == 6


# The scalar forms that the array callables replaced, kept as oracles.


def _scalar_monogamous_l(d):
    def L(x, y, z):
        yd = y * int(d(z))
        return x if x <= yd else yd

    return L


def _scalar_polygamous_l(x, y, z):
    return x if y >= 1 else 0


def _scalar_asexual_l(x, y, z):
    return x


def _scalar_table(breakpoints, values):
    return lambda z: float(np.asarray(values, dtype=float)[np.searchsorted(np.asarray(breakpoints), z, side="right")])


def _scalar_exp_mean(scale, shift):
    def mean(eta):
        x = eta + shift
        if x > 709.0:  # math.exp raises past the double range
            return math.inf if scale > 0 else 0.0
        return scale * math.exp(x)

    return mean


@pytest.mark.parametrize(
    "rule, oracle, dtype",
    [
        (monogamous(1), _scalar_monogamous_l(lambda z: 1.0), np.int64),
        (monogamous(3), _scalar_monogamous_l(lambda z: 3.0), np.int64),
        (monogamous(TableMap((-0.3, 0.4), (1, 2, 3))), _scalar_monogamous_l(_scalar_table((-0.3, 0.4), (1, 2, 3))),
         np.int64),
        # a fractional capacity from a map that is not a built-in one is taken as given, and L truncates it
        (monogamous(lambda z: TableMap((0.0,), (1.5, 2.7))(z)), _scalar_monogamous_l(_scalar_table((0.0,), (1.5, 2.7))),
         np.int64),
        (polygamous(), _scalar_polygamous_l, np.int64),
        (asexual(), _scalar_asexual_l, float),
    ],
    ids=["monogamous1", "monogamous3", "monogamous-table", "monogamous-fractional", "polygamous", "asexual"],
)
def test_array_mating_matches_the_scalar_form(rule, oracle, dtype):
    grid = np.arange(13)
    zs = np.array([-1.0, -0.3, 0.0, 0.4, 2.0])
    x, y, z = (a.ravel() for a in np.meshgrid(grid, grid, zs, indexing="ij"))
    want = [oracle(a, b, c) for a, b, c in zip(x.tolist(), y.tolist(), z.tolist())]
    for counts in (np.int64, float):  # the audit checks pass int64 counts, the step loops float64
        got = rule.L(x.astype(counts), y.astype(counts), z)
        assert got.shape == x.shape and got.tolist() == want
    assert rule.L(x, y, z).dtype == dtype
    assert all(rule.L(a, b, c) == w for a, b, c, w in zip(x.tolist(), y.tolist(), z.tolist(), want))


@pytest.mark.parametrize(
    "fn, oracle, z",
    [
        (ConstantMap(2.0), lambda z: 2.0, 0.3),
        (TableMap((-0.3, 0.4), (1, 2, 3)), _scalar_table((-0.3, 0.4), (1, 2, 3)), -0.3),
        (TableMap((-0.3, 0.4), (1, 2, 3)), _scalar_table((-0.3, 0.4), (1, 2, 3)), 5.0),
        (model_module._MaxOneOf(TableMap((0.0,), (0.5, 2.0))), lambda z: max(1.0, 0.5 if z < 0 else 2.0), -1.0),
        (ExpMeanMap(), _scalar_exp_mean(1.0, 0.0), 0.7),
        (ExpMeanMap(scale=2.0, shift=800.0), _scalar_exp_mean(2.0, 800.0), 0.0),  # overflows to inf
        (ExpMeanMap(scale=0.0, shift=800.0), _scalar_exp_mean(0.0, 800.0), 0.0),  # 0, not 0 * inf
        (ExpMeanMap(scale=0.0), _scalar_exp_mean(0.0, 0.0), 0.5),
    ],
)
def test_maps_take_a_python_float_through_the_array_form(fn, oracle, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fn(z)
    assert np.asarray(got).dtype == np.float64 and np.shape(got) == ()
    # np.exp and math.exp may differ in the last bit
    assert float(got) == pytest.approx(oracle(z), rel=2**-52, abs=0.0)
    assert float(got) == fn(np.array([z]))[0]


def test_approximant_examples():
    assert monogamous(1).g(2.5, 4.0, 0.0) == 2.5
    for rule in ALL_RULES:
        assert rule.g(0.0, 0.0, 0.7) == 0.0


def test_homogeneity_spot_check():
    rng = np.random.default_rng(21)
    for rule in ALL_RULES:
        for _ in range(50):
            x, y = rng.uniform(0, 50, size=2)
            z = rng.standard_normal()
            assert float(rule.g(3 * x, 3 * y, z)) == pytest.approx(3 * float(rule.g(x, y, z)), rel=1e-12)


def test_alpha_range_is_validated():
    with pytest.raises(ConfigurationError):
        monogamous(1, alpha=1.0)
    with pytest.raises(ConfigurationError):
        polygamous(alpha=0.0)


def test_monogamous_capacity_must_be_positive_integer():
    # a positive integer, or a built-in map of them: L casts its capacity to int64 and g does not, so at (10, 4) a
    # capacity of 1.5 would give L = 4 and g = 6
    for bad in (0, -1, 1.5, ConstantMap(1.5), ConstantMap(0.0), TableMap((0.0,), (0, 2)), TableMap((0.0,), (1, 2.5))):
        with pytest.raises(ConfigurationError, match="monogamous capacity d must be a positive integer"):
            monogamous(bad)
    assert monogamous(ConstantMap(2.0)) == monogamous(np.int64(2)) == monogamous(2)
    rule = monogamous(TableMap((0.0,), (1, 3)))
    assert (rule.L(10, 4, -1.0), rule.L(10, 4, 1.0), rule.g(10.0, 4.0, 1.0)) == (4, 10, 10.0)


def test_delta_from_alpha():
    assert monogamous(1, alpha=0.5).delta == pytest.approx(1.0)
    assert monogamous(1, alpha=0.25).delta == pytest.approx(3.0)


def test_rules_and_models_pickle():
    for obj in (*ALL_RULES, OffspringModel(), EnvironmentModel()):
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj


# ---------------------------------------------------------------------------
# walk increments
# ---------------------------------------------------------------------------


def test_walk_increment_canonical_identity_is_exact():
    rule, model = monogamous(1), OffspringModel()
    etas = np.concatenate([[-2.0, -0.37, 0.0, 0.3, 1.7, 11.0], np.random.default_rng(3).standard_normal(1000)])
    assert np.array_equal(walk_increments(rule, model, etas), etas)


def test_walk_increment_examples():
    rule = monogamous(1)
    assert np.array_equal(walk_increments(rule, OffspringModel(), np.array([0.0, 0.3])), [0.0, 0.3])
    lopsided = OffspringModel(mean_f=ExpMeanMap(), mean_m=ExpMeanMap(scale=1.2))
    etas = np.array([-1.0, 0.0, 2.2])
    assert np.array_equal(walk_increments(rule, lopsided, etas), etas)  # min selects the smaller female mean
    shifted = OffspringModel(mean_f=ExpMeanMap(shift=-1.0), mean_m=ExpMeanMap(shift=-1.0))
    assert np.array_equal(walk_increments(rule, shifted, etas), etas - 1.0)


def test_walk_increment_degenerate_model():
    dead = OffspringModel(mean_f=ExpMeanMap(scale=0.0), mean_m=ExpMeanMap(scale=0.0))
    with pytest.raises(DegenerateModelError):
        walk_increments(monogamous(1), dead, np.zeros(3))


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_constant_map_log_is_np_log_and_a_nan_increment_is_a_configuration_error(value):
    eta = np.zeros(3)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.testing.assert_array_equal(ConstantMap(value).log(eta), np.log(np.full(3, value)))
    model = OffspringModel(mean_f=ExpMeanMap(), mean_m=ConstantMap(value))
    # 0 gives ln g = -inf, a degenerate model; a negative or NaN mean gives NaN, a configuration error
    with pytest.raises(DegenerateModelError if value == 0.0 else ConfigurationError):
        walk_increments(monogamous(1), model, eta)


def _first_squared(x, y, z):
    return np.asarray(x, dtype=float) ** 2


def test_analytic_sigma_detection():
    env = EnvironmentModel(std=0.4)
    assert analytic_sigma_xi(monogamous(1), env, OffspringModel()) == 0.4
    assert analytic_sigma_xi(asexual(), env, OffspringModel()) == 0.4
    assert analytic_sigma_xi(polygamous(), env, OffspringModel()) == 0.4
    const = OffspringModel(mean_f=ConstantMap(2.0), mean_m=ConstantMap(2.0))
    assert analytic_sigma_xi(monogamous(1), env, const) is None
    # g = x^2 makes the increment 2 eta, and a custom log form is not recognised
    square = MatingRule(L=asexual().L, g=_first_squared, lipschitz=ConstantMap(1.0), rho=ConstantMap(1.0))
    assert analytic_sigma_xi(square, env, OffspringModel()) is None


SIGMA_RULES = {"monogamous1": monogamous(1), "monogamous3": monogamous(3),
               "monogamous-table": monogamous(TableMap((0.0,), (1, 3))),
               "polygamous": polygamous(), "asexual": asexual()}
SIGMA_MODELS = {"canonical": OffspringModel(),
                "shifted": OffspringModel(mean_f=ExpMeanMap(1.0, 0.1), mean_m=ExpMeanMap(1.0, 0.1)),
                "constant-m": OffspringModel(mean_m=ConstantMap(2.0)),
                "zero-f": OffspringModel(mean_f=ExpMeanMap(scale=0.0)),
                "zero-m": OffspringModel(mean_m=ExpMeanMap(scale=0.0))}
# analytic_sigma_xi under EnvironmentModel(mean=0.1, std=0.7): its std where the increment is eta plus a constant
SIGMA_BEFORE = {
    "monogamous1": {"canonical": 0.7, "shifted": 0.7, "constant-m": None, "zero-f": None, "zero-m": None},
    "monogamous3": {"canonical": 0.7, "shifted": 0.7, "constant-m": None, "zero-f": None, "zero-m": None},
    "monogamous-table": {"canonical": None, "shifted": None, "constant-m": None, "zero-f": None, "zero-m": None},
    "polygamous": {"canonical": 0.7, "shifted": 0.7, "constant-m": 0.7, "zero-f": None, "zero-m": 0.7},
    "asexual": {"canonical": 0.7, "shifted": 0.7, "constant-m": 0.7, "zero-f": None, "zero-m": 0.7},
}


@pytest.mark.parametrize("rule", sorted(SIGMA_RULES))
@pytest.mark.parametrize("offspring", sorted(SIGMA_MODELS))
def test_analytic_sigma_of_the_built_in_rules_is_read_from_their_log_forms(rule, offspring):
    got = analytic_sigma_xi(SIGMA_RULES[rule], EnvironmentModel(mean=0.1, std=0.7), SIGMA_MODELS[offspring])
    assert got == SIGMA_BEFORE[rule][offspring] and type(got) is type(SIGMA_BEFORE[rule][offspring])




# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


def test_superadditivity_direct_example():
    # min(3+2, 4+1) = 5 >= min(3,4) + min(2,1) = 5
    rule = monogamous(1)
    assert rule.L(3 + 2, 4 + 1, 0.0) >= rule.L(3, 4, 0.0) + rule.L(2, 1, 0.0)


def test_superadditivity_sampled_passes_for_builtins(rng):
    for rule in ALL_RULES:
        check = check_superadditivity(rule, trials=100_000, stream=rng, env_model=UNIT_ENV)
        assert check.verdict == "pass", check.witnesses
        assert check.detail["violations"] == 0


def test_superadditivity_finds_broken_rule(rng):
    broken = MatingRule(
        L=lambda x, y, z: np.ceil(x / 2),
        g=lambda x, y, z: x / 2.0,
        lipschitz=lambda z: 1.0,
        rho=lambda z: 1.0,
        alpha=0.5,
    )
    check = check_superadditivity(broken, trials=5_000, stream=rng, env_model=UNIT_ENV)
    assert check.verdict == "fail"
    assert check.witnesses


def _ceil_half(x, y, z):
    return np.ceil(x / 2)


def _tenth_square(x, y, z):
    return x * x / 10.0


# fails C1 (ceil(x/2) is not superadditive), C2 and C3 (x^2/10 is neither 1-Lipschitz nor homogeneous)
BROKEN = MatingRule(L=_ceil_half, g=_tenth_square, lipschitz=ConstantMap(1.0), rho=ConstantMap(1.0))


@pytest.mark.parametrize(
    "check, seed, trials, witnesses, detail",
    [
        (check_superadditivity, 31, 8, [
            (27, 46, 25, 3, 0.5952162456256633, 26, 27),
            (15, 30, 41, 50, 0.07173470176248886, 28, 29),
            (3, 35, 5, 10, 0.09671912405619901, 4, 5),
            (13, 21, 33, 5, -1.5591518413922796, 23, 24),
        ], [("trials", 8), ("count_range", 50), ("violations", 4)]),
        (check_lipschitz, 32, 2, [
            (16.024283037476806, 57.22294954720839, 37.713555396147, 32.29351798731423, -2.066348086209916,
             116.55346137530816, 46.61870391856435),
            (68.66138881663232, 97.223203334854, 96.68302461017885, 67.12984223160534, -1.0589355858128093,
             463.3220933543686, 58.11499689679519),
        ], [("trials", 2), ("box", 100.0), ("violations", 2)]),
        # 11 violations, of which the first 10 are witnesses
        (check_homogeneity, 33, 11, [
            (44.36422369626671, 4.957157501651144, 9.40111966487205, 0.6052823566039809, 15544.706426558498),
            (56.849119192455646, 11.291842094080318, 2.9677757425767117, -0.6741008980551186, 1887.3574673779985),
            (90.81037749608197, 34.278811417962, 9.322303599288777, 1.5447455552606693, 63979.04592147905),
            (25.424955349880197, 1.5436335029296422, 4.03531943834889, 1.720163790215574, 791.7767054704567),
            (58.87812705548484, 77.26223186926501, 2.0956186370584673, -0.8800106812664471, 795.9387270533017),
            (35.91233206103133, 80.3641956335516, 2.511168633248656, -0.21365388182735084, 489.4135900626052),
            (75.63736170826567, 2.059809225038467, 2.4754284677469984, 0.13188319385781538, 2089.4947466896556),
            (54.305886194443296, 52.617483635552276, 8.048359821996709, -0.6253683073007082, 16729.742696959427),
            (20.20844578225787, 43.19759303942943, 8.292578473887628, 0.35270090519586267, 2469.6563632563566),
            (51.61052853038871, 40.11394081519617, 8.083779107930294, -1.0375881917404224, 15253.02777728069),
        ], [("trials", 11), ("box", 100.0), ("violations", 11)]),
    ],
    ids=["C1", "C2", "C3"],
)
def test_broken_rule_witnesses_are_pinned(check, seed, trials, witnesses, detail):
    result = check(BROKEN, trials, derive_stream(seed), UNIT_ENV)
    assert result.verdict == "fail"
    assert result.witnesses == witnesses
    # the tuples hold plain Python ints and floats, typed as the expected ones
    assert [tuple(map(type, w)) for w in result.witnesses] == [tuple(map(type, w)) for w in witnesses]
    assert list(result.detail.items()) == detail
    assert [type(v) for v in result.detail.values()] == [type(v) for _, v in detail]


def _full_verdict(bad, columns, casts, detail, **last):
    """The checks' verdict from the violation indices of all their samples at once."""
    witnesses = [tuple(cast(col[i]) for cast, col in zip(casts, columns)) for i in bad[:10]]
    return "fail" if bad.size else "pass", witnesses, {**detail, "violations": int(bad.size), **last}


def _full_c1(rule, trials, stream, env):
    pts = stream.integers(0, 51, size=(trials, 4))
    z = env.mean + env.std * stream.standard_normal(trials)
    x, y, u, v = (pts[:, i].astype(np.int64) for i in range(4))
    lhs = rule.L(x + u, y + v, z)
    rhs = rule.L(x, y, z) + rule.L(u, v, z)
    return _full_verdict(np.where(lhs < rhs)[0], (x, y, u, v, z, lhs, rhs), (int,) * 4 + (float, int, int),
                         {"trials": trials, "count_range": 50})


def _full_c2(rule, trials, stream, env):
    pts = stream.uniform(0.0, 100.0, size=(trials, 4))
    z = env.mean + env.std * stream.standard_normal(trials)
    x, y, u, v = (pts[:, i] for i in range(4))
    lhs = np.abs(rule.g(x, y, z) - rule.g(u, v, z))
    lam = np.broadcast_to(np.asarray(rule.lipschitz(z), dtype=float), lhs.shape)
    rhs = lam * (np.abs(x - u) + np.abs(y - v))
    return _full_verdict(np.where(lhs > rhs + 1e-12 * (1.0 + rhs))[0], (x, y, u, v, z, lhs, rhs), (float,) * 7,
                         {"trials": trials, "box": 100.0})


def _full_c3(rule, trials, stream, env):
    x = stream.uniform(0.0, 100.0, size=trials)
    y = stream.uniform(0.0, 100.0, size=trials)
    t = stream.uniform(0.0, 10.0, size=trials)
    z = env.mean + env.std * stream.standard_normal(trials)
    tg = t * rule.g(x, y, z)
    lhs = np.abs(rule.g(t * x, t * y, z) - tg)
    return _full_verdict(np.where(lhs > 1e-12 * (1.0 + np.abs(tg)))[0], (x, y, t, z, lhs), (float,) * 5,
                         {"trials": trials, "box": 100.0})


def _full_c4(rule, grid, stream, env):
    x = stream.integers(0, 1001, size=grid).astype(np.int64)
    y = stream.integers(0, 1001, size=grid).astype(np.int64)
    y[(x + y) == 0] = 1
    z = env.mean + env.std * stream.standard_normal(grid)
    resid = np.abs(rule.L(x, y, z) - rule.g(x.astype(float), y.astype(float), z))
    scale = (x + y).astype(float) ** rule.alpha
    ratio = resid / scale
    bound = np.broadcast_to(np.asarray(rule.rho(z), dtype=float), ratio.shape)
    return _full_verdict(np.where(ratio > bound * (1.0 + 1e-12))[0], (x, y, z, resid, bound * scale),
                         (int, int, float, float, float), {"grid": grid, "count_range": 1000},
                         max_ratio=float(ratio.max()))


# the broken rule of test_superadditivity_finds_broken_rule: ceil(x / 2) is not superadditive
HALF_CEIL = MatingRule(L=_ceil_half, g=lambda x, y, z: x / 2.0, lipschitz=lambda z: 1.0, rho=lambda z: 1.0)


@pytest.mark.parametrize("rule", [monogamous(2), polygamous(), HALF_CEIL], ids=["monogamous2", "polygamous", "broken"])
@pytest.mark.parametrize(
    "check, full",
    [(check_superadditivity, _full_c1), (check_lipschitz, _full_c2), (check_homogeneity, _full_c3),
     (check_approximation, _full_c4)],
    ids=["C1", "C2", "C3", "C4"],
)
@pytest.mark.parametrize("chunk", [model_module._CHECK_CHUNK, 7])
def test_sampled_checks_in_slices_match_the_whole_sample(monkeypatch, rule, check, full, chunk):
    # the checks draw as before and evaluate their rule slice by slice: same draws, verdict, witnesses and detail
    monkeypatch.setattr(model_module, "_CHECK_CHUNK", chunk)
    env = EnvironmentModel(mean=0.1, std=1.3)
    for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        stream, clone = derive_stream(70, n), derive_stream(70, n)
        got = check(rule, n, stream, env)
        verdict, witnesses, detail = full(rule, n, clone, env)
        assert (got.verdict, got.witnesses) == (verdict, witnesses)
        assert [tuple(map(type, w)) for w in got.witnesses] == [tuple(map(type, w)) for w in witnesses]
        assert list(got.detail.items()) == list(detail.items())
        assert [type(v) for v in got.detail.values()] == [type(v) for v in detail.values()]
        assert stream.bit_generator.state == clone.bit_generator.state


def test_sampled_checks_find_witnesses_across_slices(monkeypatch):
    # at most 7 witnesses a slice: the 10 are gathered from several, and the count goes on past them
    monkeypatch.setattr(model_module, "_CHECK_CHUNK", 7)
    check = check_superadditivity(HALF_CEIL, 200, derive_stream(70, 200), EnvironmentModel(mean=0.1, std=1.3))
    assert len(check.witnesses) == 10 and check.detail["violations"] > 10, check.detail


def test_exhaustive_superadditivity_small_grid():
    # full enumeration on counts <= 8 at fixed environments (oracle for the sampled check)
    grid = np.arange(9)
    x, y, u, v = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    x, y, u, v = (a.ravel() for a in (x, y, u, v))
    from bbpre import mate_array

    for rule in ALL_RULES:
        for z in (-1.0, 0.0, 2.0):
            lhs = mate_array(rule, x + u, y + v, z)
            rhs = mate_array(rule, x, y, z) + mate_array(rule, u, v, z)
            assert np.all(lhs >= rhs), rule


def test_lipschitz_check_passes_for_builtins(rng):
    for rule in ALL_RULES:
        assert check_lipschitz(rule, trials=20_000, stream=rng, env_model=UNIT_ENV).verdict == "pass"


def test_homogeneity_check_passes_for_builtins(rng):
    for rule in ALL_RULES:
        assert check_homogeneity(rule, trials=20_000, stream=rng, env_model=UNIT_ENV).verdict == "pass"


def test_approximation_monogamous_and_asexual_have_zero_residual(rng):
    for rule in (monogamous(1), monogamous(4), asexual()):
        check = check_approximation(rule, grid=20_000, stream=rng, env_model=UNIT_ENV)
        assert check.verdict == "pass"
        assert check.detail["max_ratio"] == 0.0


def test_approximation_polygamous_witness():
    # at (x, y=0): |L - g| = x, which outgrows rho * x^alpha; reported honestly
    rule = polygamous()
    assert abs(rule.L(10, 0, 0.0) - rule.g(10.0, 0.0, 0.0)) == 10.0
    check = check_approximation(rule, grid=50_000, stream=np.random.default_rng(8), env_model=UNIT_ENV)
    assert check.verdict == "fail"
    assert any(w[1] == 0 and w[0] >= 2 for w in check.witnesses)


# hypothesis property checks ---------------------------------------------------

counts = st.integers(min_value=0, max_value=10**6)
reals = st.floats(min_value=0.0, max_value=1e6)
envs = st.floats(min_value=-20.0, max_value=20.0)


@settings(max_examples=200)
@given(x=counts, y=counts, u=counts, v=counts, z=envs)
def test_property_superadditivity(x, y, u, v, z):
    for rule in ALL_RULES:
        assert rule.L(x + u, y + v, z) >= rule.L(x, y, z) + rule.L(u, v, z)


@settings(max_examples=200)
@given(x=reals, y=reals, u=reals, v=reals, z=envs)
def test_property_lipschitz(x, y, u, v, z):
    for rule in ALL_RULES:
        lhs = abs(float(rule.g(x, y, z)) - float(rule.g(u, v, z)))
        rhs = float(rule.lipschitz(z)) * (abs(x - u) + abs(y - v))
        assert lhs <= rhs + 1e-12 * (1.0 + rhs)


@settings(max_examples=200)
@given(x=reals, y=reals, t=st.floats(min_value=0.0, max_value=10.0), z=envs)
def test_property_homogeneity(x, y, t, z):
    for rule in ALL_RULES:
        tg = t * float(rule.g(x, y, z))
        assert abs(float(rule.g(t * x, t * y, z)) - tg) <= 1e-12 * (1.0 + abs(tg))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def test_audit_canonical_model(canonical_env, canonical_offspring, canonical_rule):
    report = audit_conditions(canonical_rule, canonical_env, canonical_offspring, 50_000, derive_stream(404))
    m = report.moment_estimates
    assert abs(m["mean_xi"]) <= 4.0 * m["mean_xi_se"]
    assert abs(m["var_xi"] - 0.25) <= 4.0 * m["var_xi_se"]
    assert report.verdict("C7") == "pass"
    assert report.verdict("C1") == "pass"
    assert report.verdict("C4") == "pass"
    assert report.verdict("C6") == "estimated"


def test_audit_shifted_model_fails_criticality(canonical_env, shifted_offspring, canonical_rule):
    report = audit_conditions(canonical_rule, canonical_env, shifted_offspring, 50_000, derive_stream(405))
    assert report.verdict("C7") == "fail"
    assert report.witnesses("C7")
    assert report.moment_estimates["mean_xi"] == pytest.approx(0.1, abs=0.01)


def test_audit_polygamous_reports_approximation_witness(canonical_env, canonical_offspring):
    report = audit_conditions(polygamous(), canonical_env, canonical_offspring, 10_000, derive_stream(406))
    assert report.verdict("C4") == "fail"
    assert report.witnesses("C4")


def test_audit_holds_only_the_arrays_it_reduces(canonical_env, canonical_offspring, canonical_rule):
    # at an experiment's sample count the whole audit traced 9.9 MiB when C1 held its 100,000 samples' int64
    # counts and rule values at once; in slices, and with each moment array dropped once reduced, 5.3 MiB
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        audit_conditions(canonical_rule, canonical_env, canonical_offspring, AUDIT_SAMPLES, derive_stream(36, 2**31))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, peak / 2**20


def test_omega_components_at_eta_zero(canonical_rule, canonical_offspring):
    eta = np.zeros(1)
    zeta, w1, w2, w3 = noise_scales(canonical_rule, canonical_offspring, eta, canonical_offspring.means(eta))
    assert w2[0] == 2.0  # mean_f + mean_m = 1 + 1 exactly
    assert w1[0] == 2.0  # lipschitz^2 + rho^2 with both scales 1
    assert w3[0] == 2.0  # two Poisson(1) variances at moment order 2
    assert zeta[0] == math.log(6.0)


def test_audit_requires_enough_samples(canonical_env, canonical_offspring, canonical_rule):
    with pytest.raises(ConfigurationError):
        audit_conditions(canonical_rule, canonical_env, canonical_offspring, 50, derive_stream(1))


def test_condition_report_serializes(canonical_env, canonical_offspring, canonical_rule):
    import json

    report = audit_conditions(canonical_rule, canonical_env, canonical_offspring, 1_000, derive_stream(2))
    payload = json.dumps(report.to_dict(), allow_nan=False)
    assert '"C7"' in payload
