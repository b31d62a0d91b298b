import math
from fractions import Fraction

import pytest

from attnmarket import largemarket
from attnmarket.decision import expected_residual_value
from attnmarket.equilibrium import aon_rates
from attnmarket.errors import BudgetExceeded, DegenerateCurve
from attnmarket.largemarket import (
    IIDEnvironment,
    count_space_size,
    decision_error_curve,
    default_environment,
    fit_exponential_rate,
    residual_value_curve,
)


@pytest.fixture(scope="module")
def env():
    return default_environment()


@pytest.fixture(scope="module")
def plain():
    return default_environment(abstain_utility=None)


# -- environment invariants -------------------------------------------------------

def test_environment_validation():
    with pytest.raises(ValueError):  # indistinguishable states
        default_environment(accuracy=0.5)
    with pytest.raises(ValueError):  # likelihood with a zero entry
        IIDEnvironment(("s0", "s1"), (0.5, 0.5), ("0", "1"),
                       [[1.0, 0.0], [0.0, 1.0]],
                       ("a0", "a1"), [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):  # matching action must dominate
        IIDEnvironment(("s0", "s1"), (0.5, 0.5), ("0", "1"),
                       [[0.6, 0.4], [0.4, 0.6]],
                       ("a0", "a1"), [[1.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("weights, likelihood", [
    ((0.5, float("nan")), [[0.6, 0.4], [0.4, 0.6]]),
    ((0.5, 0.5), [[0.6, 0.4], [float("nan"), 0.6]]),
])
def test_nan_weight_or_likelihood_is_refused(weights, likelihood):
    with pytest.raises(ValueError, match="weights|likelihood"):
        IIDEnvironment(("s0", "s1"), weights, ("0", "1"), likelihood,
                       ("a0", "a1"), [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        default_environment(accuracy=float("nan"))


def test_nan_utility_is_refused():
    """Every comparison with NaN is False, so a NaN utility would pass the
    domination test."""
    with pytest.raises(ValueError, match="utility must be finite"):
        IIDEnvironment(("s0", "s1"), (0.5, 0.5), ("0", "1"),
                       [[0.6, 0.4], [0.4, 0.6]], ("a0", "a1", "abstain"),
                       [[1.0, 0.0], [0.0, 1.0], [float("nan")] * 2])
    with pytest.raises(ValueError, match="utility must be finite"):
        default_environment(abstain_utility=float("nan"))


@pytest.mark.parametrize("second, distinct", [
    ([0.600001, 0.399999], True),
    ([0.6 + 1e-13, 0.4 - 1e-13], False),
    ([0.6, 0.4], False),
])
def test_likelihood_rows_differ_beyond_rounding(second, distinct):
    """Rows 1e-6 apart are two distinguishable states; rows within
    ``ROUNDING`` of each other are one."""
    def build():
        return IIDEnvironment(("s0", "s1"), (0.5, 0.5), ("0", "1"),
                              [[0.6, 0.4], second],
                              ("a0", "a1"), [[1.0, 0.0], [0.0, 1.0]])
    if distinct:
        assert build().n_states == 2
    else:
        with pytest.raises(ValueError, match="indistinguishable"):
            build()


def test_default_environment_keeps_residuals_positive(env, plain):
    curve = residual_value_curve(env, range(1, 6))
    assert all(p.value > 0 for p in curve)
    bare = residual_value_curve(plain, [2])
    assert bare[0].value == 0.0  # the second equal signal is worthless


# -- curve values -------------------------------------------------------------------

def test_single_signal_value_plain(plain):
    curve = residual_value_curve(plain, [1])
    assert curve[0].value == pytest.approx(0.1)


def test_single_signal_value_with_abstention(env):
    # abstention raises the stopping utility at the prior, trimming the
    # first signal's value to 0.6 - 0.55
    curve = residual_value_curve(env, [1])
    assert curve[0].value == pytest.approx(0.05)


def test_second_signal_value_with_abstention(env):
    curve = residual_value_curve(env, [2])
    assert curve[0].value == pytest.approx(0.024)


def test_decision_error_first_point(env):
    curve = decision_error_curve(env, [1])
    assert curve[0].value == pytest.approx(0.4)


def test_decision_error_strictly_decreasing(env):
    curve = decision_error_curve(env, range(1, 120))
    values = [p.value for p in curve]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_residual_scaled_curve_decays_from_peak(env):
    curve = residual_value_curve(env, range(1, 200))
    scaled = {p.n: p.scaled for p in curve}
    # binary signals alternate between odd and even pivot structures, so
    # monotone decay holds along each parity class past its peak
    for parity in (0, 1):
        seq = [scaled[n] for n in sorted(scaled) if n % 2 == parity]
        peak = max(range(len(seq)), key=seq.__getitem__)
        assert all(a >= b - 1e-15
                   for a, b in zip(seq[peak:], seq[peak + 1:]))


def test_curves_agree_with_equilibrium_module(env):
    # the curve's expectation equals the residual-value computation on the
    # materialized finite environment
    for n in (1, 2, 3):
        prior, dp = env.to_environment(n)
        direct = expected_residual_value(dp, prior, n)
        curve = residual_value_curve(env, [n])
        assert curve[0].value == pytest.approx(direct, abs=1e-12)


def test_full_environment_equilibrium_payoffs(env):
    prior, dp = env.to_environment(2)
    profile = aon_rates(dp, prior, 0.005)
    curve = residual_value_curve(env, [2])
    assert profile.sender_payoffs[2] == pytest.approx(curve[0].value / 0.005)


# -- exponential decay --------------------------------------------------------------

def test_exponential_fit_quality(env):
    curve = residual_value_curve(env, range(1, 401))
    fit = fit_exponential_rate(curve)
    assert 0.0 < fit.rho < 1.0
    assert fit.decaying
    assert fit.r_squared >= 0.98


def test_bound_consistency_on_tail(env):
    curve = residual_value_curve(env, range(1, 401))
    fit = fit_exponential_rate(curve)
    for n, value in fit.tail:
        assert value <= fit.kappa * fit.rho ** (n - 1) * 1.05


def test_reciprocal_curve_fits_poorly(env):
    ns = range(1, 401)
    exp_fit = fit_exponential_rate(residual_value_curve(env, ns))
    inv_fit = fit_exponential_rate([(n, 1.0 / (n + 1)) for n in ns])
    # a polynomial tail leaves an order of magnitude more unexplained
    # variance than the genuinely exponential one
    assert inv_fit.r_squared < exp_fit.r_squared
    assert (1.0 - inv_fit.r_squared) >= 10.0 * (1.0 - exp_fit.r_squared)
    assert exp_fit.r_squared > 0.999
    assert inv_fit.r_squared < 0.995


def test_constant_curve_flagged_non_decaying():
    fit = fit_exponential_rate([(n, 0.25) for n in range(1, 13)])
    assert fit.rho == pytest.approx(1.0)
    assert not fit.decaying
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_rejects_degenerate_curves():
    with pytest.raises(DegenerateCurve):
        fit_exponential_rate([(n, 0.0) for n in range(1, 13)])
    with pytest.raises(DegenerateCurve):
        fit_exponential_rate([(1, 0.5), (2, 0.4), (3, 0.3)])


# -- far tail -------------------------------------------------------------------------

def exact_default_residual(n):
    """The default environment's residual at n in exact rationals (accuracy
    3/5, abstention 11/20), with masses kept as integers in units of
    1 / (40 * 5**n)."""
    def best(j0, j1):
        return max(20 * j0, 20 * j1, 11 * (j0 + j1))
    m = n - 1
    total = 0
    for k in range(m + 1):
        j0 = math.comb(m, k) * 3 ** k * 2 ** (m - k)
        j1 = math.comb(m, k) * 2 ** k * 3 ** (m - k)
        total += best(3 * j0, 2 * j1) + best(2 * j0, 3 * j1) - 5 * best(j0, j1)
    return Fraction(total, 40 * 5 ** n)


def test_decay_fit_past_the_cancellation_floor(env):
    # values fall from 1.7e-12 to 6.5e-18 here; a residual formed as a
    # difference of nearby stopping values would be rounding noise
    curve = residual_value_curve(env, range(1000, 1601, 4))
    assert all(p.value > 0 for p in curve)
    fit = fit_exponential_rate(curve)
    assert 0.0 < fit.rho < 1.0
    assert fit.r_squared >= 0.98


def test_far_tail_matches_exact_rationals(env):
    exact = float(exact_default_residual(1201))
    assert exact == pytest.approx(2.6544e-14, rel=1e-4)
    assert residual_value_curve(env, [1201])[0].value == pytest.approx(
        exact, rel=1e-12)


def test_blocked_count_space_matches_one_block(monkeypatch):
    env3 = IIDEnvironment(
        ("lo", "mid", "hi"), (0.3, 0.4, 0.3), ("a", "b", "c"),
        [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
        ("pick_lo", "pick_mid", "pick_hi"), [[1.0, 0.0, 0.0],
                                             [0.0, 1.0, 0.0],
                                             [0.0, 0.0, 1.0]])
    ns = range(1, 30)

    def curves():
        return [p.value for p in residual_value_curve(env3, ns)
                + decision_error_curve(env3, ns)]

    whole = curves()
    monkeypatch.setattr(largemarket, "_BLOCK_ROWS", 7)
    assert curves() == pytest.approx(whole, rel=1e-13, abs=1e-300)


# -- sampling fallback ----------------------------------------------------------------

def test_budget_error_without_sampling(env):
    with pytest.raises(BudgetExceeded):
        residual_value_curve(env, [30], exact_budget=10)


def test_sampling_agrees_with_exact(env):
    ns = [5, 15, 40]
    exact = residual_value_curve(env, ns)
    sampled = residual_value_curve(env, ns, exact_budget=1,
                                   allow_sampling=True, samples=20_000,
                                   seed=3)
    for e, s in zip(exact, sampled):
        assert s.mode == "sampled" and e.mode == "exact"
        assert abs(s.value - e.value) <= 3 * s.stderr


def test_sampling_decision_error(env):
    exact = decision_error_curve(env, [20])
    sampled = decision_error_curve(env, [20], exact_budget=1,
                                   allow_sampling=True, samples=20_000,
                                   seed=5)
    assert abs(sampled[0].value - exact[0].value) <= 3 * sampled[0].stderr


def test_sampling_reproducible(env):
    a = residual_value_curve(env, [10], exact_budget=1, allow_sampling=True,
                             samples=2_000, seed=9)
    b = residual_value_curve(env, [10], exact_budget=1, allow_sampling=True,
                             samples=2_000, seed=9)
    assert a[0].value == b[0].value


# -- many-valued signals ----------------------------------------------------------------

def test_three_letter_alphabet_runs_exactly():
    env3 = IIDEnvironment(
        ("s0", "s1"), (0.5, 0.5), ("lo", "mid", "hi"),
        [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
        ("a0", "a1", "abstain"),
        [[1.0, 0.0], [0.0, 1.0], [0.55, 0.55]])
    assert count_space_size(9, 3) == 55
    curve = residual_value_curve(env3, range(1, 11))
    assert all(p.mode == "exact" for p in curve)
    gaps = decision_error_curve(env3, range(1, 11))
    assert all(a.value > b.value for a, b in zip(gaps, gaps[1:]))


def test_count_space_size():
    assert count_space_size(0, 2) == 1
    assert count_space_size(5, 2) == 6
    assert count_space_size(4, 4) == math.comb(7, 3)


def test_three_states_three_signals():
    env = IIDEnvironment(
        ("lo", "mid", "hi"), (0.3, 0.4, 0.3), ("a", "b", "c"),
        [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
        ("pick_lo", "pick_mid", "pick_hi", "abstain"),
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
         [0.5, 0.5, 0.5]])
    assert env.full_info_value() == pytest.approx(1.0)
    gaps = decision_error_curve(env, range(1, 16))
    assert all(a.value > b.value for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1].value < gaps[0].value / 4
    residual = residual_value_curve(env, range(1, 16))
    assert all(p.value >= 0 for p in residual)
    # agreement with the generic machinery on the materialized environment
    prior, dp = env.to_environment(2)
    assert residual_value_curve(env, [2])[0].value == pytest.approx(
        expected_residual_value(dp, prior, 2), abs=1e-12)
