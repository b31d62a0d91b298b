import pytest

from attnmarket.conditions import (
    check_assumption2,
    check_mnat_concave,
    check_substitutes,
)
from attnmarket.decision import coalition_value
from attnmarket.errors import AttnMarketError, SubsetSpaceTooLarge


# -- residual values worth one visit ---------------------------------------------

def test_assumption2_coin_match_holds(coin_match):
    prior, dp = coin_match
    report = check_assumption2(dp, prior, 0.1)
    assert report.holds
    assert report.margin == pytest.approx(0.4)
    assert report.checked == 4  # two senders x two realizations of the other


def test_assumption2_pair_guess(pair_guess):
    prior, dp = pair_guess
    report = check_assumption2(dp, prior, 0.1)
    assert report.holds
    assert report.margin == pytest.approx(0.2)


def test_assumption2_fails_when_cost_too_high(pair_guess):
    prior, dp = pair_guess
    report = check_assumption2(dp, prior, 0.5)
    assert not report.holds
    assert {w["sender"] for w in report.witnesses} == {1, 2}
    assert all(w["residual_value"] == pytest.approx(0.3)
               for w in report.witnesses)


def test_assumption2_monopoly_reduction(hypothesis_testing):
    prior, dp = hypothesis_testing
    report = check_assumption2(dp, prior, 0.1)
    assert report.holds and report.checked == 1
    assert report.margin == pytest.approx(0.4)


# -- substitutes condition --------------------------------------------------------

def test_substitutes_fails_coin_match(coin_match):
    prior, dp = coin_match
    report = check_substitutes(dp, prior)
    assert not report.holds
    prior_witnesses = [w for w in report.witnesses if w["revealed"] == {}]
    assert {w["sender"] for w in prior_witnesses} == {1, 2}
    for w in prior_witnesses:
        assert w["value_now"] == pytest.approx(0.0)
        assert w["expected_residual_value"] == pytest.approx(0.5)


def test_substitutes_pair_guess_margin_zero(pair_guess):
    prior, dp = pair_guess
    report = check_substitutes(dp, prior, samples=25, seed=4)
    assert report.holds
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_substitutes_refuses_uncertified_garbled_belief(pair_guess,
                                                      monkeypatch):
    import attnmarket.conditions as conditions
    prior, dp = pair_guess
    monkeypatch.setattr(conditions, "no_direct_info", lambda *args: False)
    with pytest.raises(AttnMarketError):
        check_substitutes(dp, prior, samples=1, seed=0)


def test_substitutes_single_sender_vacuous(hypothesis_testing):
    prior, dp = hypothesis_testing
    report = check_substitutes(dp, prior, samples=10, seed=0)
    assert report.holds
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_substitutes_three_action(three_action):
    prior, dp = three_action
    report = check_substitutes(dp, prior, samples=30, seed=2)
    assert report.holds


def test_substitutes_rejects_negative_samples(pair_guess):
    prior, dp = pair_guess
    with pytest.raises(ValueError):
        check_substitutes(dp, prior, samples=-1)


def test_substitutes_deterministic_given_seed(coin_match):
    prior, dp = coin_match
    a = check_substitutes(dp, prior, samples=15, seed=9)
    b = check_substitutes(dp, prior, samples=15, seed=9)
    assert a.margin == b.margin
    assert a.witnesses == b.witnesses
    assert a.checked == b.checked


# -- discrete concavity -----------------------------------------------------------

def test_mnat_fails_coin_match(coin_match):
    prior, dp = coin_match
    report = check_mnat_concave(dp, prior)
    assert not report.holds
    witness = report.witnesses[0]
    assert witness["S"] == [1, 2] and witness["T"] == []
    assert witness["lhs"] == pytest.approx(0.5)
    assert witness["rhs"] == pytest.approx(0.0)


def test_mnat_holds_for_additive_values(pair_guess):
    prior, dp = pair_guess
    report = check_mnat_concave(dp, prior)
    assert report.holds
    assert report.margin >= 0.0


def test_mnat_single_sender_vacuous(hypothesis_testing):
    prior, dp = hypothesis_testing
    report = check_mnat_concave(dp, prior)
    assert report.holds


def test_mnat_subset_limit(coin_match):
    prior, dp = coin_match
    import attnmarket.conditions as conditions
    old = conditions.MAX_SUBSET_SENDERS
    conditions.MAX_SUBSET_SENDERS = 1
    try:
        with pytest.raises(SubsetSpaceTooLarge):
            check_mnat_concave(dp, prior)
    finally:
        conditions.MAX_SUBSET_SENDERS = old


# -- cross-checker consistency ------------------------------------------------------

def test_mnat_witness_implies_superadditivity(coin_match):
    """A violation at (N, empty, i) must show up as f(N) exceeding the sum
    of the singleton values."""
    prior, dp = coin_match
    report = check_mnat_concave(dp, prior)
    full = tuple(range(1, prior.n_senders + 1))
    hit = [w for w in report.witnesses
           if w["S"] == list(full) and w["T"] == []]
    assert hit
    f_full = coalition_value(dp, prior, full)
    singles = sum(coalition_value(dp, prior, (i,)) for i in full)
    assert f_full > singles + 1e-10


def test_additive_environment_passes_both(pair_guess):
    prior, dp = pair_guess
    assert check_substitutes(dp, prior, samples=10, seed=1).holds
    assert check_mnat_concave(dp, prior).holds


def test_substitutes_sampling_skips_degenerate_components():
    import numpy as np
    from attnmarket.decision import DecisionProblem
    from attnmarket.environment import ComponentSpace, JointPrior
    spaces = (ComponentSpace(0, ("-",)),
              ComponentSpace(1, ("a", "b")),
              ComponentSpace(2, ("only",)))  # nothing to garble for sender 1
    prior = JointPrior(spaces, np.array([[[0.5], [0.5]]]))
    dp = DecisionProblem(("up", "down"),
                         np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
                         .reshape(2, 1, 2, 1))
    report = check_substitutes(dp, prior, samples=8, seed=5)
    assert report.holds
