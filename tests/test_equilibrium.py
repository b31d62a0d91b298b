import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from attnmarket import presets
from attnmarket.decision import (
    DecisionProblem,
    coalition_value,
    expected_conditioned_value,
    full_reveal_value,
)
from attnmarket.equilibrium import (
    StateGraph,
    aon_rates,
    marginal_prices,
    merge_environment,
    monopoly_rate,
)
from attnmarket.environment import ComponentSpace, JointPrior, merge_senders
from attnmarket.errors import (
    AssumptionViolated,
    ConditionNotVerified,
    UnknownComponent,
)


# -- monopoly ---------------------------------------------------------------------

def test_monopoly_rate_hypothesis_testing(hypothesis_testing):
    prior, dp = hypothesis_testing
    assert monopoly_rate(dp, prior, 0.1) == pytest.approx(0.2)
    profile = aon_rates(dp, prior, 0.1)
    assert profile.sender_payoffs[1] == pytest.approx(5.0)
    assert profile.receiver_payoff == pytest.approx(-0.5)


def test_monopoly_rate_boundary(hypothesis_testing):
    prior, dp = hypothesis_testing
    value = full_reveal_value(dp, prior.belief(), 1)
    rate = monopoly_rate(dp, prior, value - 1e-9)
    assert rate < 1.0 and rate == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(AssumptionViolated):
        monopoly_rate(dp, prior, value)
    with pytest.raises(AssumptionViolated):
        monopoly_rate(dp, prior, value + 0.1)


def test_monopoly_rate_needs_single_sender(pair_guess):
    prior, dp = pair_guess
    with pytest.raises(UnknownComponent):
        monopoly_rate(dp, prior, 0.1)


def test_monopoly_agrees_with_general_construction(hypothesis_testing):
    prior, dp = hypothesis_testing
    profile = aon_rates(dp, prior, 0.1)
    assert profile.rate(0, 1) == pytest.approx(monopoly_rate(dp, prior, 0.1))


# -- the general profile ------------------------------------------------------------

def test_pair_guess_profile(pair_guess):
    prior, dp = pair_guess
    profile = aon_rates(dp, prior, 0.1)
    assert profile.equilibrium
    rates = set(profile.rates.values())
    assert all(r == pytest.approx(1 / 3) for r in rates)
    assert profile.sender_payoffs[1] == pytest.approx(3.0)
    assert profile.sender_payoffs[2] == pytest.approx(3.0)
    assert profile.receiver_payoff == pytest.approx(1.4)
    assert all(0.0 < r < 1.0 for r in profile.rates.values())
    assert all(v >= 1.0 for v in profile.sender_payoffs.values())


def test_three_action_profile(three_action):
    # frozen from the brute-force enumeration over all eight joint states
    prior, dp = three_action
    profile = aon_rates(dp, prior, 0.01)
    for (node, sender), rate in profile.rates.items():
        assert rate == pytest.approx(0.625)
    assert profile.sender_payoffs[1] == pytest.approx(1.6)
    assert profile.sender_payoffs[2] == pytest.approx(1.6)
    assert profile.receiver_payoff == pytest.approx(0.784)


def test_coin_match_gating_and_force(coin_match):
    prior, dp = coin_match
    with pytest.raises(ConditionNotVerified):
        aon_rates(dp, prior, 0.1)
    profile = aon_rates(dp, prior, 0.1, force=True)
    assert not profile.equilibrium
    assert profile.rate(0, 1) == pytest.approx(0.1 / 0.5)
    assert profile.rate(0, 2) == pytest.approx(0.1 / 0.5)


def test_assumption_violation_blocks_construction(pair_guess):
    prior, dp = pair_guess
    with pytest.raises(AssumptionViolated):
        aon_rates(dp, prior, 0.5)
    profile = aon_rates(dp, prior, 0.5, force=True)
    assert not profile.equilibrium


def test_rates_infinite_exactly_where_residual_is_zero():
    """Conditionally iid signals: a residual value that is 0 in exact
    arithmetic gives rate inf, and every other pair a finite rate."""
    n, q, abstain = 7, Fraction(4, 5), Fraction(55, 100)
    prior, dp = presets.conditionally_iid_signals(0.8, n)
    profile = aon_rates(dp, prior, 0.01, force=True)

    def value(ones, zeros):
        # mass-weighted stopping value of one signal sequence
        like1 = q ** ones * (1 - q) ** zeros / 2
        like0 = (1 - q) ** ones * q ** zeros / 2
        return max(like0, like1, abstain * (like0 + like1))

    def residual_is_zero(ones, zeros):
        # one sender unrevealed, r others to complete before her
        r = n - ones - zeros - 1
        return all(value(ones + c + 1, zeros + r - c)
                   + value(ones + c, zeros + r - c + 1)
                   == value(ones + c, zeros + r - c)
                   for c in range(r + 1))

    zeros_seen = 0
    for (node_id, sender), rate in profile.rates.items():
        values = profile.graph.nodes[node_id].values
        zero = residual_is_zero(values.count("1"), values.count("0"))
        zeros_seen += zero
        assert math.isinf(rate) == zero, (node_id, sender, rate)
    assert len(profile.rates) == 5103 and zeros_seen == 1022


# -- marginal-contribution prices -----------------------------------------------------

def test_prices_pair_guess(pair_guess):
    prior, dp = pair_guess
    prices = marginal_prices(dp, prior)
    assert prices[1] == pytest.approx(0.3)
    assert prices[2] == pytest.approx(0.3)


def test_prices_coin_match_exceed_total_value(coin_match):
    prior, dp = coin_match
    prices = marginal_prices(dp, prior)
    assert prices[1] == pytest.approx(0.5)
    assert prices[2] == pytest.approx(0.5)
    # complements: the exchange is infeasible, prices outstrip the pie
    assert sum(prices.values()) > coalition_value(dp, prior, (1, 2)) + 1e-9


def test_prices_monopoly_reduction(hypothesis_testing):
    prior, dp = hypothesis_testing
    prices = marginal_prices(dp, prior)
    assert prices[1] == pytest.approx(full_reveal_value(dp, prior.belief(), 1))


def test_price_consistency_with_payoffs(pair_guess, three_action,
                                        asymmetric_signals):
    for prior, dp in (pair_guess, three_action, asymmetric_signals):
        cost = 0.005
        profile = aon_rates(dp, prior, cost)
        prices = marginal_prices(dp, prior)
        for i, visits in profile.sender_payoffs.items():
            assert cost * visits == pytest.approx(prices[i], abs=1e-9)


# -- martingale structure of the rate tables ------------------------------------------

def _rate_transitions(profile):
    graph = profile.graph
    for node in graph.nodes:
        remaining = graph.unrevealed(node.id)
        for i in remaining:
            for j in remaining:
                if j == i:
                    continue
                yield node.id, i, j, graph.transitions(node.id, j)


def test_reciprocal_rate_martingale(three_action, asymmetric_signals):
    for prior, dp in (three_action, asymmetric_signals):
        profile = aon_rates(dp, prior, 0.005)
        for node_id, i, j, transitions in _rate_transitions(profile):
            expected = sum(p / profile.rate(child, i)
                           for _, p, child in transitions)
            assert expected == pytest.approx(1.0 / profile.rate(node_id, i),
                                             abs=1e-9)


def test_rate_submartingale(three_action, asymmetric_signals):
    for prior, dp in (three_action, asymmetric_signals):
        profile = aon_rates(dp, prior, 0.005)
        saw_strict = False
        for node_id, i, j, transitions in _rate_transitions(profile):
            expected = sum(p * profile.rate(child, i)
                           for _, p, child in transitions)
            assert expected >= profile.rate(node_id, i) - 1e-10
            saw_strict = saw_strict or expected > profile.rate(node_id, i) + 1e-9
    # the asymmetric environment moves rates for real
    assert saw_strict


def test_receiver_indifference_identity(pair_guess, three_action,
                                        asymmetric_signals):
    """Learning everything at the equilibrium rates nets the same as
    skipping any one sender, at every reachable state."""
    for prior, dp in (pair_guess, three_action, asymmetric_signals):
        cost = 0.005
        profile = aon_rates(dp, prior, cost)
        graph = profile.graph
        for node in graph.nodes:
            remaining = graph.unrevealed(node.id)
            if not remaining:
                continue
            belief = graph.belief(node.id)
            full = expected_conditioned_value(dp, belief, remaining)
            lhs = full - cost * sum(1.0 / profile.rate(node.id, k)
                                    for k in remaining)
            for i in remaining:
                others = tuple(k for k in remaining if k != i)
                rhs = (expected_conditioned_value(dp, belief, others)
                       - cost * sum(1.0 / profile.rate(node.id, k)
                                    for k in others))
                assert lhs == pytest.approx(rhs, abs=1e-9)


# -- concentration hurts the receiver ---------------------------------------------------

def test_merging_senders_weakly_hurts_receiver(pair_guess, three_action):
    for (prior, dp), cost in ((pair_guess, 0.1), (three_action, 0.01)):
        base = aon_rates(dp, prior, cost)
        merged_prior, merged_dp = merge_environment(prior, dp, 1, 2)
        merged = aon_rates(merged_dp, merged_prior, cost)
        base_attention = cost * sum(base.sender_payoffs.values())
        merged_attention = cost * sum(merged.sender_payoffs.values())
        assert merged_attention >= base_attention - 1e-10
        assert merged.receiver_payoff <= base.receiver_payoff + 1e-10


def test_merging_strictly_hurts_when_values_interact(three_action):
    prior, dp = three_action
    base = aon_rates(dp, prior, 0.01)
    merged_prior, merged_dp = merge_environment(prior, dp, 1, 2)
    merged = aon_rates(merged_dp, merged_prior, 0.01)
    assert merged.receiver_payoff < base.receiver_payoff - 1e-6
    # the merged monopolist extracts the full surplus
    root_value = merged.graph.stopping_value(merged.graph.root.id)
    assert merged.receiver_payoff == pytest.approx(root_value)


def test_merged_environment_relabels_every_joint_state():
    # senders 1 and 3 are not adjacent, and the utility varies on every axis
    rng = np.random.default_rng(5)
    sizes = (2, 2, 3, 2)
    spaces = [ComponentSpace(k, tuple(f"{k}{v}" for v in range(size)))
              for k, size in enumerate(sizes)]
    prior = JointPrior(spaces, rng.dirichlet(np.ones(24)).reshape(sizes))
    dp = DecisionProblem(("a", "b"), rng.normal(size=(2,) + sizes))
    merged_prior, merged_dp = merge_environment(prior, dp, 3, 1)
    _, to_original = merge_senders(prior, 3, 1)
    grids = [s.values for s in merged_prior.spaces]
    for joint in itertools.product(*grids):
        new = tuple(g.index(v) for g, v in zip(grids, joint))
        old = tuple(s.values.index(v)
                    for s, v in zip(spaces, to_original(joint)))
        assert merged_prior.mass[new] == pytest.approx(prior.mass[old])
        assert (merged_dp.utility[(slice(None),) + new]
                == dp.utility[(slice(None),) + old]).all()


# -- the reachable graph -----------------------------------------------------------------

def test_graph_enumerates_positive_mass_states(three_action):
    prior, dp = three_action
    graph = StateGraph(prior, dp)
    assert len(graph) == 1 + 2 + 2 + 4
    assert graph.root.revealed == ()
    for node in graph.nodes:
        for i in graph.unrevealed(node.id):
            transitions = graph.transitions(node.id, i)
            total = sum(p for _, p, _ in transitions)
            assert total == pytest.approx(1.0)


def test_additive_environments_full_extraction():
    """Independent components with utility additive across them make the
    component values exact substitutes: every sender is paid her standalone
    value and the receiver keeps exactly the no-information payoff."""
    import numpy as np
    from attnmarket.conditions import check_substitutes
    from attnmarket.environment import ComponentSpace, JointPrior
    from attnmarket.decision import DecisionProblem

    rng = np.random.default_rng(42)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        sizes = [1] + [int(rng.integers(2, 4)) for _ in range(n)]
        spaces = tuple(ComponentSpace(k, tuple(f"v{j}" for j in range(s)))
                       for k, s in enumerate(sizes))
        marginals = [np.ones(1)] + [rng.dirichlet(np.ones(s)) + 0.01
                                    for s in sizes[1:]]
        marginals = [m / m.sum() for m in marginals]
        mass = marginals[0].reshape((1,) + (1,) * n)
        for i, m in enumerate(marginals[1:], start=1):
            shape = [1] * (n + 1)
            shape[i] = sizes[i]
            mass = mass * m.reshape(shape)
        prior = JointPrior(spaces, mass)
        # one guessing action per component-value combination, one point
        # of utility per correct coordinate: fully separable
        actions, tables = [], []
        import itertools as it
        for combo in it.product(*[range(s) for s in sizes[1:]]):
            actions.append("g" + "".join(map(str, combo)))
            u = np.zeros(sizes)
            for joint in it.product(*[range(s) for s in sizes]):
                u[joint] = sum(joint[1 + i] == combo[i] for i in range(n))
            tables.append(u)
        dp = DecisionProblem(actions, np.stack(tables))
        assert check_substitutes(dp, prior).holds
        cost = 0.001
        profile = aon_rates(dp, prior, cost)
        for i in range(1, n + 1):
            standalone = coalition_value(dp, prior, (i,))
            assert cost * profile.sender_payoffs[i] == pytest.approx(
                standalone, abs=1e-9)
        root_value = profile.graph.stopping_value(profile.graph.root.id)
        assert profile.receiver_payoff == pytest.approx(root_value, abs=1e-9)


def test_graph_skips_zero_mass_states():
    import numpy as np
    from attnmarket.environment import ComponentSpace, JointPrior
    from attnmarket.decision import DecisionProblem
    spaces = (ComponentSpace(0, ("-",)),
              ComponentSpace(1, ("a", "b")),
              ComponentSpace(2, ("x", "y")))
    mass = np.array([[[0.5, 0.0], [0.0, 0.5]]])  # perfectly correlated
    prior = JointPrior(spaces, mass)
    dp = DecisionProblem(("act",), np.zeros((1, 1, 2, 2)))
    graph = StateGraph(prior, dp)
    full_nodes = [n for n in graph.nodes if len(n.revealed) == 2]
    assert {n.values for n in full_nodes} == {("a", "x"), ("b", "y")}


@st.composite
def small_priors(draw):
    """1-3 senders with 1-3 values each; cells of zero mass are common."""
    n_senders = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 2))] + [draw(st.integers(1, 3))
                                         for _ in range(n_senders)]
    spaces = tuple(ComponentSpace(k, tuple(f"v{j}" for j in range(s)))
                   for k, s in enumerate(sizes))
    total = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(0, 3), min_size=total,
                            max_size=total).filter(any))
    mass = np.asarray(weights, dtype=float).reshape(sizes)
    n_actions = draw(st.integers(1, 3))
    table = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False, width=32),
                          min_size=n_actions * total,
                          max_size=n_actions * total))
    dp = DecisionProblem(tuple(f"a{j}" for j in range(n_actions)),
                         np.asarray(table).reshape((n_actions,) + tuple(sizes)))
    return JointPrior(spaces, mass / mass.sum()), dp


@settings(max_examples=60, deadline=None)
@given(small_priors())
def test_graph_matches_independent_enumeration(problem):
    """Nodes, ids, transitions and stopping values against a plain
    enumeration of the positive-mass revealed assignments."""
    prior, dp = problem
    mu, utility, actions = oracle.as_dicts(prior, dp)
    mu = {joint: p for joint, p in mu.items() if p > 0.0}
    n = prior.n_senders

    def weight(assignment):
        return sum(p for joint, p in mu.items()
                   if all(joint[i] == v for i, v in assignment.items()))

    expected = [(S, values)
                for r in range(n + 1)
                for S in itertools.combinations(range(1, n + 1), r)
                for values in itertools.product(
                    *(prior.spaces[i].values for i in S))
                if weight(dict(zip(S, values))) > 0.0]
    graph = StateGraph(prior, dp)
    assert len(graph) == len(expected)
    assert [(node.revealed, node.values) for node in graph.nodes] == expected
    assert graph.root == graph.nodes[0]
    for k, (S, values) in enumerate(expected):
        assert graph.node_id(S, values) == k
        assert graph.unrevealed(k) == tuple(i for i in range(1, n + 1)
                                            if i not in S)
        assignment = dict(zip(S, values))
        for i in graph.unrevealed(k):
            want = []
            for v in prior.spaces[i].values:
                child = {**assignment, i: v}
                if weight(child) > 0.0:
                    key = tuple(sorted(child.items()))
                    want.append((v, weight(child) / weight(assignment),
                                 expected.index(tuple(zip(*key)))))
            got = graph.transitions(k, i)
            assert [(v, c) for v, _, c in got] == [(v, c) for v, _, c in want]
            assert [p for _, p, _ in got] == pytest.approx(
                [p for _, p, _ in want], rel=0.0, abs=1e-12)
        conditional = oracle.condition(mu, assignment)
        best = oracle.stopping_value(actions, utility, conditional)
        assert abs(graph.stopping_value(k) - best) <= 1e-12
        chosen = actions[graph.stop_actions[k]]
        assert oracle.stopping_value([chosen], utility,
                                     conditional) >= best - 1e-12


@settings(max_examples=60, deadline=None)
@given(small_priors())
def test_edges_agree_with_transitions(problem):
    prior, dp = problem
    graph = StateGraph(prior, dp)
    child, prob = graph.edges
    n = prior.n_senders
    assert child.shape == prob.shape == (
        len(graph), n, max(s.size for s in prior.spaces[1:]))
    for k in range(len(graph)):
        for i in range(1, n + 1):
            if i not in graph.unrevealed(k):
                assert (child[k, i - 1] == -1).all()
                assert (prob[k, i - 1] == 0.0).all()
                continue
            got = [(prior.spaces[i].values[v], float(prob[k, i - 1, v]),
                    int(child[k, i - 1, v]))
                   for v in np.flatnonzero(child[k, i - 1] >= 0)]
            assert got == graph.transitions(k, i)
            assert prob[k, i - 1].sum() == pytest.approx(1.0, abs=1e-12)
            assert (prob[k, i - 1][child[k, i - 1] < 0] == 0.0).all()
