import math

import numpy as np
import pytest
import scipy.integrate

from attnmarket import gaussian
from attnmarket.equilibrium import aon_rates
from attnmarket.errors import BudgetExceeded
from attnmarket.gaussian import (
    CorrelatedScenario,
    GaussianScenario,
    binary_action_rate,
    bridge_mc_check,
    bridge_schedule,
    correlation_threshold,
    discretized_environment,
    gaussian_rates,
    gaussian_receiver_payoff,
    gaussian_residual_values,
    large_n_gaussian,
    payoff_at_alpha,
    symmetry_gap,
)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: GaussianScenario(NAN, (1.0,), 0.01),
    lambda: GaussianScenario(1.0, (1.0, NAN), 0.01),
    lambda: GaussianScenario(1.0, (1.0,), NAN),
    lambda: CorrelatedScenario(1.0, 1.0, 1.0, NAN, 0.0, 0.01),
    lambda: CorrelatedScenario(1.0, 1.0, 1.0, 0.6, 0.0, NAN),
    lambda: symmetry_gap(1.0, NAN, 2, 0.01),
    lambda: symmetry_gap(1.0, 2.0, 2, 0.01, grid_step=NAN),
    lambda: correlation_threshold(1.0, NAN, 1.0),
    lambda: binary_action_rate(NAN, 0.01),
    lambda: bridge_schedule(1.0, NAN),
    lambda: large_n_gaussian(NAN, 1.0, 0.01, [1, 2]),
    lambda: large_n_gaussian(1.0, 1.0, NAN, [1, 2]),
], ids=["scenario-p0", "scenario-p", "scenario-c", "correlated-pc",
        "correlated-c", "symmetry-total", "symmetry-step", "threshold",
        "binary-action", "bridge", "large-n-p0", "large-n-c"])
def test_nan_parameter_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_overflowing_total_precision_raises_value_error():
    with pytest.raises(ValueError, match="total precision inf is not finite"):
        GaussianScenario(1.0, (1.0e308, 1.0e308), 0.01)


# -- rates and payoffs -------------------------------------------------------------

def test_rates_symmetric_pair():
    s = GaussianScenario(1.0, (1.0, 1.0), 0.01)
    assert np.allclose(gaussian_rates(s), [0.06, 0.06])


def test_rates_monopoly_cross_check():
    s = GaussianScenario(1.0, (2.0,), 0.01)
    rates = gaussian_rates(s)
    assert rates[0] == pytest.approx(0.015)
    # visits equal value over cost, with the value a variance reduction
    value = 1.0 / 1.0 - 1.0 / 3.0
    assert 1.0 / rates[0] == pytest.approx(value / s.c)
    assert gaussian_residual_values(s)[0] == pytest.approx(value)


def test_worthless_component_attracts_no_attention():
    with pytest.warns(UserWarning):
        rates = gaussian_rates(GaussianScenario(1.0, (1e-9, 1.0), 0.01))
    assert 1.0 / rates[0] == pytest.approx(0.0, abs=1e-6)


def test_receiver_payoff_values():
    assert gaussian_receiver_payoff(
        GaussianScenario(1.0, (1.0, 1.0), 0.01)) == pytest.approx(-2.0 / 3.0)
    assert gaussian_receiver_payoff(
        GaussianScenario(1.0, (1.5, 0.5), 0.01)) == pytest.approx(-0.73333333333)
    assert gaussian_receiver_payoff(
        GaussianScenario(2.0, (), 0.01)) == pytest.approx(-0.5)


def test_payoff_identity_with_rates():
    import warnings

    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        s = GaussianScenario(float(rng.uniform(0.2, 3.0)),
                             tuple(rng.uniform(0.2, 3.0, size=n)),
                             float(rng.uniform(0.001, 0.1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rates above 1 are fine here
            rates = gaussian_rates(s)
        direct = -1.0 / s.total_precision - s.c * float((1.0 / rates).sum())
        assert gaussian_receiver_payoff(s) == pytest.approx(direct, abs=1e-12)


# -- symmetric allocations -----------------------------------------------------------

def test_symmetric_allocation_is_grid_maximum():
    report = symmetry_gap(1.0, 2.0, 2, 0.01, grid_step=0.05)
    assert report.symmetric_is_max
    assert report.best_allocation == (1.0, 1.0)
    assert report.best_payoff == pytest.approx(-2.0 / 3.0)
    lookup = dict(report.allocations)
    assert lookup[(1.5, 0.5)] == pytest.approx(-0.73333333333)
    assert lookup[(1.5, 0.5)] < report.symmetric_payoff


def test_symmetry_single_sender():
    report = symmetry_gap(1.0, 2.0, 1, 0.01)
    assert report.best_allocation == (2.0,)
    assert report.symmetric_is_max


def test_symmetry_three_senders():
    report = symmetry_gap(1.0, 3.0, 3, 0.01, grid_step=0.25)
    assert report.symmetric_is_max
    assert report.best_allocation == (1.0, 1.0, 1.0)


def test_symmetry_split_budget(monkeypatch):
    """12 units on 3 senders are C(11, 2) = 55 splits: scored at a budget
    of 55, refused before any is scored at 54."""
    monkeypatch.setattr(gaussian, "MAX_SYMMETRY_SPLITS", 55)
    assert len(symmetry_gap(1.0, 3.0, 3, 0.01, grid_step=0.25).allocations) \
        == 55
    monkeypatch.setattr(gaussian, "MAX_SYMMETRY_SPLITS", 54)
    monkeypatch.setattr(gaussian, "gaussian_receiver_payoff", None)
    with pytest.raises(BudgetExceeded, match="55 precision splits"):
        symmetry_gap(1.0, 3.0, 3, 0.01, grid_step=0.25)


# -- correlated senders ---------------------------------------------------------------

def test_threshold_symmetric_unit():
    assert correlation_threshold(1.0, 1.0, 1.0) == pytest.approx(0.5)


def test_threshold_below_min_precision():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p0, p1, p2 = rng.uniform(0.2, 4.0, size=3)
        assert correlation_threshold(p0, p1, p2) < min(p1, p2)


def test_payoff_ordering_flips_at_threshold():
    above = CorrelatedScenario(1.0, 1.0, 1.0, 0.6, 0.0, 0.01)
    assert payoff_at_alpha(above, 1) > payoff_at_alpha(above, 0)
    below = CorrelatedScenario(1.0, 1.0, 1.0, 0.4, 0.0, 0.01)
    assert payoff_at_alpha(below, 1) < payoff_at_alpha(below, 0)
    at = CorrelatedScenario(1.0, 1.0, 1.0, 0.5, 0.0, 0.01)
    assert payoff_at_alpha(at, 1) == pytest.approx(payoff_at_alpha(at, 0))


def test_threshold_matches_independent_derivation():
    # under full correlation both components equal the common signal, so
    # the payoff is -1/(p0+pc); equate with the independence payoff and
    # solve for pc
    rng = np.random.default_rng(19)
    for _ in range(30):
        p0, p1, p2 = rng.uniform(0.2, 4.0, size=3)
        independent = (-1.0 / (p0 + p1) - 1.0 / (p0 + p2)
                       + 1.0 / (p0 + p1 + p2))
        solved = -1.0 / independent - p0
        assert correlation_threshold(p0, p1, p2) == pytest.approx(solved,
                                                                  abs=1e-12)


def test_threshold_sign_change_generic():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p0, p1, p2 = rng.uniform(0.3, 3.0, size=3)
        pbar = correlation_threshold(p0, p1, p2)
        hi = CorrelatedScenario(p0, p1, p2, pbar * 1.01, 0.0, 0.01)
        lo = CorrelatedScenario(p0, p1, p2, pbar * 0.99, 0.0, 0.01)
        assert payoff_at_alpha(hi, 1) > payoff_at_alpha(hi, 0)
        assert payoff_at_alpha(lo, 1) < payoff_at_alpha(lo, 0)


def test_more_joint_information_helps_when_common_signal_strong():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p0, p1, p2 = rng.uniform(0.3, 2.0, size=3)
        pc = (p1 + p2) * float(rng.uniform(1.01, 3.0))
        cs = CorrelatedScenario(p0, p1, p2, pc, 0.0, 0.01)
        assert payoff_at_alpha(cs, 1) > payoff_at_alpha(cs, 0)


def _oracle_payoff(p0, p1, p2, pc, alpha):
    """Linear-Gaussian posterior variances straight from joint covariance
    matrices (independent of the closed-form expressions)."""
    q = math.sqrt((1 - alpha) ** 2 + alpha ** 2)
    beta, gamma = (1 - alpha) / q, alpha / q
    v0 = 1.0 / p0

    def var_given(ps):
        # components listed by their idiosyncratic precision
        k = len(ps)
        cov = np.empty((k + 1, k + 1))
        cov[0, 0] = v0
        for a in range(k):
            cov[0, 1 + a] = cov[1 + a, 0] = (beta + gamma) * v0
            for b in range(k):
                cov[1 + a, 1 + b] = (beta + gamma) ** 2 * v0 + gamma ** 2 / pc
                if a == b:
                    cov[1 + a, 1 + b] += beta ** 2 / ps[a]
        sub = cov[1:, 1:]
        cross = cov[0, 1:]
        return cov[0, 0] - cross @ np.linalg.pinv(sub) @ cross

    u1 = -var_given([p1])
    u2 = -var_given([p2])
    u12 = -var_given([p1, p2])
    return u1 + u2 - u12


def test_correlated_values_match_covariance_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p0, p1, p2 = rng.uniform(0.3, 3.0, size=3)
        pc = float(rng.uniform(0.3, 3.0))
        for alpha in (0, 1):
            cs = CorrelatedScenario(p0, p1, p2, pc, 0.0, 0.01)
            assert payoff_at_alpha(cs, alpha) == pytest.approx(
                _oracle_payoff(p0, p1, p2, pc, alpha), abs=1e-9)


def test_payoff_only_defined_at_endpoints():
    cs = CorrelatedScenario(1.0, 1.0, 1.0, 0.5, 0.5, 0.01)
    with pytest.raises(ValueError):
        payoff_at_alpha(cs, 0.5)


# -- binary-action monopoly ------------------------------------------------------------

def test_binary_action_values():
    rate, value = binary_action_rate(1.0, 0.1)
    assert value == pytest.approx(math.sqrt(2.0 / math.pi))
    assert rate == pytest.approx(0.1 / math.sqrt(2.0 / math.pi))
    assert binary_action_rate(4.0, 0.1)[1] == pytest.approx(value / 2.0)
    assert binary_action_rate(1.0, 1e-9)[0] == pytest.approx(0.0, abs=1e-8)


def test_binary_action_value_matches_quadrature():
    for p in (0.5, 1.0, 4.0):
        sd = math.sqrt(1.0 / p)
        integral, _ = scipy.integrate.quad(
            lambda x: abs(x) * math.exp(-x * x / (2 * sd * sd))
            / (sd * math.sqrt(2 * math.pi)), -np.inf, np.inf)
        assert binary_action_rate(p, 0.1)[1] == pytest.approx(integral,
                                                              abs=1e-9)


# -- gradual transmission bridge --------------------------------------------------------

def test_bridge_schedule_values():
    schedule = bridge_schedule(1.0, 0.1)
    assert schedule.final_time == pytest.approx(10.0)
    assert schedule.variances[0] == pytest.approx(1.0)
    assert schedule.variances[5] == pytest.approx(0.5)
    assert schedule.variances[-1] == pytest.approx(0.0)
    # full extraction: expected visits in the jump implementation match the
    # deterministic transmission horizon
    assert schedule.final_time == pytest.approx(1.0 / (1.0 * 0.1))


def test_bridge_monte_carlo_matches_schedule():
    check = bridge_mc_check(1.0, 0.1, samples=4_000, seed=5)
    assert check.within
    assert check.max_z <= 3.0
    again = bridge_mc_check(1.0, 0.1, samples=4_000, seed=5)
    assert np.array_equal(check.empirical, again.empirical)


def test_bridge_other_parameters():
    check = bridge_mc_check(2.0, 0.05, samples=4_000, seed=9)
    assert check.schedule.final_time == pytest.approx(10.0)
    assert check.within


@pytest.mark.parametrize("call", [
    lambda: symmetry_gap(1.0, 2.0, 2, 0.01, grid_step=0.0),
    lambda: bridge_schedule(1.0, 0.1, grid_points=1),
    lambda: bridge_mc_check(1.0, 0.1, samples=1),
], ids=["zero-step", "one-grid-point", "one-sample"])
def test_sweeps_reject_degenerate_grids_and_samples(call):
    with pytest.raises(ValueError):
        call()


# -- competitive limit -------------------------------------------------------------------

def test_large_n_unit_parameters_cost():
    rows = large_n_gaussian(1.0, 1.0, 0.01, range(1, 40))
    for row in rows:
        assert row["attention_cost"] == pytest.approx(
            1.0 / (row["n"] + 1), abs=1e-12)
    assert rows[8]["attention_cost"] == pytest.approx(0.1, abs=1e-12)


def test_large_n_vanishes_at_reciprocal_rate():
    rows = large_n_gaussian(0.7, 1.3, 0.02, [1, 2, 5, 10, 100, 1000, 10000])
    totals = [abs(r["total"]) for r in rows]
    assert all(a > b for a, b in zip(totals, totals[1:]))
    assert totals[-1] < 1e-3
    scaled = [r["n"] * r["attention_cost"] for r in rows[-3:]]
    assert all(0.1 < s < 10.0 for s in scaled)  # cost decays like 1/n


def test_large_n_monopoly_reduction():
    rows = large_n_gaussian(1.0, 2.0, 0.01, [1])
    s = GaussianScenario(1.0, (2.0,), 0.01)
    expected_cost = 0.01 / gaussian_rates(s)[0]
    assert rows[0]["attention_cost"] == pytest.approx(0.01 * expected_cost / 0.01)
    assert rows[0]["attention_cost"] == pytest.approx(
        gaussian_residual_values(s)[0])


# -- finite-grid cross-check ----------------------------------------------------------------

def test_discretized_grid_reproduces_closed_forms():
    s = GaussianScenario(1.0, (1.0, 1.0), 0.01)
    prior, dp = discretized_environment(s, grid_points=21, action_points=81)
    profile = aon_rates(dp, prior, s.c)
    exact = gaussian_rates(s)
    for i in (1, 2):
        assert abs(profile.rate(0, i) - exact[i - 1]) / exact[i - 1] < 0.02
    assert abs(profile.receiver_payoff - gaussian_receiver_payoff(s)) \
        / abs(gaussian_receiver_payoff(s)) < 0.02
