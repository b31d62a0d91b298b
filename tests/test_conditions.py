import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnmarket import presets
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
    monkeypatch.setattr(conditions, "_ratio_test",
                        lambda *args: lambda belief: False)
    with pytest.raises(AttnMarketError):
        check_substitutes(dp, prior, samples=1, seed=0)


def test_substitutes_certifies_each_garbled_sample_on_its_own_joint(
        monkeypatch):
    """One certification test per sender, against the prior's joint of the
    sender components, and one call of it per garbled sample, on that
    sample's joint: tilted by the garbling, but only on the competitors'
    axes."""
    import numpy as np
    import attnmarket.conditions as conditions
    from attnmarket.environment import _ratio_test
    from attnmarket.tolerance import ROUNDING
    prior, dp = presets.conditionally_iid_signals(n=3)
    joint = prior.mass.sum(axis=0)  # full support
    calls = []

    def spy(p, sender):
        np.testing.assert_array_equal(p, joint)
        same = _ratio_test(p, sender)

        def recorded(b):
            calls.append((b, sender))
            return same(b)

        return recorded

    monkeypatch.setattr(conditions, "_ratio_test", spy)
    check_substitutes(dp, prior, samples=5, seed=0)
    assert [sender for _, sender in calls] == [1] * 5 + [2] * 5 + [3] * 5
    for b, sender in calls:
        tilt = b / joint
        assert tilt.max() > 1.01 * tilt.min()  # garbled
        along_own = np.moveaxis(tilt, sender - 1, 0)
        assert np.all(np.abs(along_own - along_own[0])
                      <= ROUNDING * along_own[0])


def test_to_dict_shares_the_witness_list(coin_match):
    prior, dp = coin_match
    report = check_substitutes(dp, prior, samples=3, seed=0)
    assert report.witnesses
    assert report.to_dict()["witnesses"] is report.witnesses


def test_witnesses_share_their_labels_and_subsets():
    """On 7 conditionally iid senders, substitutes witnesses that name the
    same node share one ``revealed`` dict, and M-natural witnesses that name
    the same subset share one list: 3,094 exact-layer witnesses carry 1,036
    dicts, and 2,548 ``S`` and ``T`` entries are 64 lists."""
    prior, dp = presets.conditionally_iid_signals(n=7)
    labels = [w["revealed"] for w in check_substitutes(dp, prior).witnesses]
    assert len(labels) == 3094
    assert len({id(d) for d in labels}) == len(
        {tuple(d.items()) for d in labels}) == 1036
    mnat = check_mnat_concave(dp, prior)
    subsets = [w[side] for w in mnat.witnesses for side in "ST"]
    assert len(subsets) == 2548
    assert len({id(s) for s in subsets}) == len(
        {tuple(s) for s in subsets}) == 64


def test_substitutes_single_sender_vacuous(hypothesis_testing):
    prior, dp = hypothesis_testing
    report = check_substitutes(dp, prior, samples=10, seed=0)
    assert report.holds
    assert report.margin == pytest.approx(0.0, abs=1e-12)


def test_substitutes_three_action(three_action):
    prior, dp = three_action
    report = check_substitutes(dp, prior, samples=30, seed=2)
    assert report.holds


@pytest.mark.parametrize("cost", [0.0, -0.1, float("nan")])
def test_assumption2_rejects_a_cost_that_is_not_positive(pair_guess, cost):
    prior, dp = pair_guess
    with pytest.raises(ValueError, match="positive"):
        check_assumption2(dp, prior, cost)


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


def _mnat_all_pairs(dp, prior):
    """The M-natural check as a loop over every (S, T, moved) triple, each
    subset a frozenset: the judge of the array pass."""
    import itertools

    import numpy as np
    from attnmarket.conditions import ConditionReport
    from attnmarket.decision import _Lattice
    from attnmarket.tolerance import SLACK_TOL
    n = prior.n_senders
    lattice = _Lattice(dp, prior.mass)
    f = {frozenset(S): lattice.coalition(S) - lattice.coalition(())
         for r in range(n + 1)
         for S in itertools.combinations(range(1, n + 1), r)}
    report = ConditionReport("mnat_concave", holds=True, margin=np.inf)
    subsets = list(f.keys())
    for S, T in itertools.product(subsets, subsets):
        for s in S - T:
            lhs = f[S] + f[T]
            candidates = [f[S - {s}] + f[T | {s}]]
            candidates += [f[(S - {s}) | {t}] + f[(T | {s}) - {t}]
                           for t in T - S]
            rhs = max(candidates)
            slack = rhs - lhs
            if -SLACK_TOL <= slack < 0.0:
                slack = 0.0  # equality up to rounding
            report.checked += 1
            report.margin = min(report.margin, slack)
            if slack < -SLACK_TOL:
                report.holds = False
                report.witnesses.append({
                    "S": sorted(S),
                    "T": sorted(T),
                    "moved": s,
                    "lhs": lhs,
                    "rhs": rhs,
                })
    return report


@st.composite
def mnat_problems(draw):
    """Random 1-5 sender environments with zero-mass cells and utilities on
    the full joint space, so that complements (as in coin_match) occur."""
    import numpy as np
    from attnmarket.decision import DecisionProblem
    from attnmarket.environment import ComponentSpace, JointPrior
    n_senders = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 2))] + [draw(st.integers(1, 2))
                                         for _ in range(n_senders)]
    total = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(0, 4), min_size=total,
                            max_size=total).filter(any))
    mass = np.asarray(weights, dtype=float).reshape(sizes)
    n_actions = draw(st.integers(1, 3))
    table = draw(st.lists(st.integers(-2, 2) | st.floats(-2.0, 2.0, width=32),
                          min_size=n_actions * total,
                          max_size=n_actions * total))
    spaces = tuple(ComponentSpace(k, tuple(range(size)))
                   for k, size in enumerate(sizes))
    dp = DecisionProblem(tuple(f"a{j}" for j in range(n_actions)),
                         np.asarray(table, dtype=float)
                         .reshape([n_actions] + sizes))
    return JointPrior(spaces, mass / mass.sum()), dp


@settings(max_examples=150, deadline=None)
@given(mnat_problems())
@example(presets.coin_match())
@example(presets.pair_guess())
def test_mnat_array_pass_matches_the_triple_loop(problem):
    prior, dp = problem
    got = check_mnat_concave(dp, prior)
    want = _mnat_all_pairs(dp, prior)
    assert got.checked == want.checked
    assert got.holds == want.holds
    assert got.margin == want.margin
    assert got.witnesses == want.witnesses


@pytest.mark.parametrize("seed", range(3))
def test_mnat_array_pass_matches_the_triple_loop_on_random_environments(seed):
    """Continuous random payoffs and masses on 2-5 senders, where exchanges
    that the integer-valued examples above seldom separate do matter."""
    import numpy as np
    from attnmarket.decision import DecisionProblem
    from attnmarket.environment import ComponentSpace, JointPrior
    rng = np.random.default_rng(seed)
    for _ in range(20):
        sizes = [2] * (1 + int(rng.integers(2, 6)))
        spaces = tuple(ComponentSpace(k, (0, 1)) for k in range(len(sizes)))
        mass = rng.random(sizes) * (rng.random(sizes) > 0.1)
        prior = JointPrior(spaces, mass / mass.sum())
        dp = DecisionProblem(("a0", "a1", "a2"), rng.normal(size=[3] + sizes))
        got = check_mnat_concave(dp, prior)
        want = _mnat_all_pairs(dp, prior)
        assert (got.checked, got.holds, got.margin, got.witnesses) == (
            want.checked, want.holds, want.margin, want.witnesses)


def test_mnat_array_pass_matches_the_triple_loop_at_eight_senders():
    """From 8 senders a frozenset's iteration order is not ascending, so
    the loop's witnesses come in another order within a pair; the sets
    agree, and the array pass moves senders in ascending order."""
    prior, dp = presets.conditionally_iid_signals(
        n=8, accuracy=0.8, abstain_utility=0.55)
    got = check_mnat_concave(dp, prior)
    want = _mnat_all_pairs(dp, prior)
    assert got.witnesses, "the environment should violate the condition"
    assert (got.checked, got.holds, got.margin) == (want.checked, want.holds,
                                                    want.margin)

    def key(w):
        return (tuple(w["S"]), tuple(w["T"]), w["moved"], w["lhs"], w["rhs"])

    assert sorted(map(key, got.witnesses)) == sorted(map(key, want.witnesses))
    pairs = [(tuple(w["S"]), tuple(w["T"])) for w in got.witnesses]
    for k in range(1, len(pairs)):
        if pairs[k] == pairs[k - 1]:
            assert got.witnesses[k]["moved"] > got.witnesses[k - 1]["moved"]


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


# -- garbled layer against one lattice per sample -----------------------------------

def _revealed_values(prior, cell):
    """Value labels of the senders that a lattice node reveals."""
    return {j: prior.spaces[j].values[v] for j, v in enumerate(cell, 1)
            if v >= 0}


def _per_sample_lattice_report(dp, prior, samples, seed):
    """`check_substitutes` scoring each garbled belief on its own full
    lattice, the belief built by `update` one garbling at a time from the
    same draws: the judge of the scoring from the per-sender tables."""
    import numpy as np
    from attnmarket.conditions import ConditionReport, _score_substitutes
    from attnmarket.decision import _Lattice
    from attnmarket.environment import Experiment, update
    report = ConditionReport("substitutes", holds=True, margin=np.inf)
    rng = np.random.default_rng(seed)
    lattice = _Lattice(dp, prior.mass)
    cells = lattice.nodes()
    n = prior.n_senders
    root = tuple(np.full((n, 1), -1))
    for i in range(1, n + 1):
        rows = cells[cells[:, i - 1] < 0]
        at = tuple(rows.T)
        _score_substitutes(report, i, "revealed", lattice.gain(i)[at],
                           lattice.residual(i)[at], lattice.mass[at],
                           lambda k: _revealed_values(prior, rows[k]))
        others = [j for j in range(1, n + 1) if j != i
                  and prior.spaces[j].size > 1]
        for _ in range(samples if others else 0):
            belief = prior.belief()
            for _ in range(rng.integers(1, 4)):
                j = int(rng.choice(others))
                space = prior.spaces[j]
                split = int(rng.integers(1, space.size))
                one = set(rng.choice(space.size, size=split, replace=False))
                exp = Experiment.binary_channel(
                    space, {space.values[v] for v in one},
                    flip_prob=float(rng.uniform(0.05, 0.45)))
                dist = belief.marginal(j) @ exp.kernel
                message = exp.messages[int(rng.choice(2, p=dist / dist.sum()))]
                belief = update(belief, exp, message)
            sample = _Lattice(dp, belief.mass)
            _score_substitutes(report, i, "garbled", sample.gain(i)[root],
                               sample.residual(i)[root], sample.mass[root],
                               lambda k: None)
    return report


def _random_three_sender_problem(seed):
    import numpy as np
    from attnmarket.decision import DecisionProblem
    from attnmarket.environment import ComponentSpace, JointPrior
    rng = np.random.default_rng(seed)
    sizes = (2, 2, 3, 2)
    spaces = tuple(ComponentSpace(k, tuple(f"v{j}" for j in range(s)))
                   for k, s in enumerate(sizes))
    mass = rng.random(sizes) * (rng.random(sizes) > 0.2)
    dp = DecisionProblem(("a0", "a1", "a2"),
                         rng.uniform(-1.0, 1.0, (3,) + sizes))
    return JointPrior(spaces, mass / mass.sum()), dp


@pytest.mark.parametrize("problem", ["coin_match", "three_action_signals",
                                     "random", "iid5", "gaussian"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_garbled_layer_matches_a_lattice_per_sample(scenario_dir, problem,
                                                    seed):
    from attnmarket import gaussian
    from attnmarket.cli import load_scenario
    if problem == "random":
        prior, dp = _random_three_sender_problem(seed)
    elif problem == "iid5":
        # 16 competitors' completions per sender (17-26 garbled witnesses)
        prior, dp = presets.conditionally_iid_signals(n=5)
    elif problem == "gaussian":
        # 10-value alphabets; the coarse action grid breaks substitutes
        # at garbled beliefs (24-26 garbled witnesses at these seeds)
        prior, dp = gaussian.discretized_environment(
            gaussian.GaussianScenario(p0=1.0, p=(1.0, 1.0), c=0.05),
            grid_points=10, action_points=5)
    else:
        scenario = load_scenario(scenario_dir / f"{problem}.yaml")
        prior, dp = scenario.prior, scenario.dp
    got = check_substitutes(dp, prior, samples=20, seed=seed)
    want = _per_sample_lattice_report(dp, prior, samples=20, seed=seed)
    assert got.checked == want.checked
    assert got.holds == want.holds
    assert ([(w["sender"], w["layer"]) for w in got.witnesses]
            == [(w["sender"], w["layer"]) for w in want.witnesses])
    assert got.margin == pytest.approx(want.margin, rel=1e-12, abs=1e-12)
    for g, w in zip(got.witnesses, want.witnesses):
        assert g["revealed"] == w["revealed"]
        for key in ("value_now", "expected_residual_value"):
            assert g[key] == pytest.approx(w[key], rel=1e-12, abs=1e-12)


@st.composite
def garbling_problems(draw):
    """2-4 senders with alphabets of 1-3 values (a single-valued
    competitor is never garbled), a payoff component of 1-3 values,
    zero-mass cells and continuous random payoffs; then a number of
    garbled samples per sender and a seed."""
    import numpy as np
    from attnmarket.decision import DecisionProblem
    from attnmarket.environment import ComponentSpace, JointPrior
    n = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 3)) for _ in range(n + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random(sizes) * (rng.random(sizes) > 0.3)
    mass.flat[rng.integers(mass.size)] += 0.5  # never all zero
    spaces = tuple(ComponentSpace(k, tuple(f"v{j}" for j in range(s)))
                   for k, s in enumerate(sizes))
    actions = tuple(f"a{k}" for k in range(draw(st.integers(2, 3))))
    dp = DecisionProblem(actions, rng.normal(size=[len(actions)] + sizes))
    return (JointPrior(spaces, mass / mass.sum()), dp,
            draw(st.integers(0, 7)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(garbling_problems())
def test_garbled_batch_matches_a_lattice_per_sample_on_random_environments(
        problem):
    prior, dp, samples, seed = problem
    got = check_substitutes(dp, prior, samples=samples, seed=seed)
    want = _per_sample_lattice_report(dp, prior, samples=samples, seed=seed)
    assert (got.checked, got.holds) == (want.checked, want.holds)
    assert ([(w["sender"], w["layer"], w["revealed"]) for w in got.witnesses]
            == [(w["sender"], w["layer"], w["revealed"])
                for w in want.witnesses])
    assert got.margin == pytest.approx(want.margin, rel=1e-12, abs=1e-12)
    for g, w in zip(got.witnesses, want.witnesses):
        for key in ("value_now", "expected_residual_value"):
            assert g[key] == pytest.approx(w[key], rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).filter(any),
       st.integers(1, 9))
def test_garbling_draws_are_the_generator_choices(seed, weights, competitors):
    """The garbled samples keep the draws of ``rng.choice``: a message
    from ``choice(2, p=q)`` is ``random() >= q0 / (q0 + q1)``, and a
    competitor from ``choice(others)`` is ``others[integers(len)]``."""
    import numpy as np
    q = np.array(weights) / sum(weights)
    choose, draw = np.random.default_rng(seed), np.random.default_rng(seed)
    others = np.arange(1, competitors + 1)
    for _ in range(30):
        assert int(choose.choice(2, p=q)) == int(
            draw.random() >= q[0] / (q[0] + q[1]))
        assert choose.choice(list(others)) == others[
            draw.integers(len(others))]


@pytest.mark.parametrize("entries", [1, 300])
def test_garbled_batches_do_not_change_the_report(monkeypatch, entries):
    """Samples scored one at a time, or a few at a time, give the report of
    one batch, float for float: the draws run on, and every product sums
    as it does for one sample."""
    import attnmarket.conditions as conditions
    prior, dp = presets.conditionally_iid_signals(n=4)
    whole = check_substitutes(dp, prior, samples=20, seed=3)
    monkeypatch.setattr(conditions, "BATCH_ENTRIES", entries)
    parts = check_substitutes(dp, prior, samples=20, seed=3)
    assert any(w["layer"] == "garbled" for w in whole.witnesses)
    assert ((parts.checked, parts.holds, parts.margin, parts.witnesses)
            == (whole.checked, whole.holds, whole.margin, whole.witnesses))
