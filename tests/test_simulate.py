import re
from math import inf, log, log1p

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from test_equilibrium import small_priors

from attnmarket import presets
from attnmarket.cli import load_scenario
from attnmarket.environment import Experiment
from attnmarket.equilibrium import StateGraph, aon_rates
from attnmarket.errors import NonAoNPolicy, RoundLimitExceeded
from attnmarket.simulate import (
    DEFAULT_ROUND_CAP,
    AoNTablePolicy,
    DpOptimal,
    FixedOrder,
    GreedyMyopic,
    RandomOrder,
    StopAlways,
    _rate_table,
    episode_rng,
    equilibrium_policies,
    holdup_demo,
    monte_carlo,
    run_episode,
    solve_receiver_dp,
)
from attnmarket.tolerance import ROUNDING


@pytest.fixture
def monopoly(hypothesis_testing):
    prior, dp = hypothesis_testing
    profile = aon_rates(dp, prior, 0.1)
    return prior, dp, profile


@pytest.fixture
def pair(pair_guess):
    prior, dp = pair_guess
    profile = aon_rates(dp, prior, 0.1)
    return prior, dp, profile


# -- receiver dynamic program ----------------------------------------------------

def test_dp_monopoly_indifference(monopoly):
    prior, dp, profile = monopoly
    graph, sol = solve_receiver_dp(dp, prior, 0.1,
                                   equilibrium_policies(profile),
                                   graph=profile.graph)
    root = graph.root.id
    assert sol.values[root] == pytest.approx(-0.5)
    assert sol.values[root] == pytest.approx(graph.stopping_value(root))
    assert sol.stop_optimal[root] and sol.continue_optimal[root]


def test_dp_pair_guess_value(pair):
    prior, dp, profile = pair
    graph, sol = solve_receiver_dp(dp, prior, 0.1,
                                   equilibrium_policies(profile),
                                   graph=profile.graph)
    root = graph.root.id
    assert sol.values[root] == pytest.approx(1.4)
    assert sol.continue_optimal[root]


def test_dp_value_dominates_stopping(pair):
    prior, dp, profile = pair
    graph, sol = solve_receiver_dp(dp, prior, 0.1,
                                   equilibrium_policies(profile),
                                   graph=profile.graph)
    for node in graph.nodes:
        assert sol.values[node.id] >= graph.stopping_value(node.id) - 1e-9


def test_dp_requires_rate_tables(pair):
    prior, dp, profile = pair
    with pytest.raises(NonAoNPolicy):
        solve_receiver_dp(dp, prior, 0.1,
                          {1: AoNTablePolicy.fixed(1, 0.5)})


# -- single episodes --------------------------------------------------------------

def test_episode_deterministic_and_bookkept(pair):
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    a = run_episode(dp, prior, 0.1, policies, FixedOrder(), seed=3, episode=5)
    b = run_episode(dp, prior, 0.1, policies, FixedOrder(), seed=3, episode=5)
    assert a.state == b.state and a.visits == b.visits and a.action == b.action
    assert a.cost == pytest.approx(0.1 * a.total_rounds)
    assert sum(a.visits.values()) == a.total_rounds
    assert len(a.rounds) == a.total_rounds


def test_episode_trace_follows_graph(pair):
    prior, dp, profile = pair
    graph = profile.graph
    trace = run_episode(dp, prior, 0.1, equilibrium_policies(profile),
                        FixedOrder(), seed=11, episode=0, graph=graph)
    node = graph.root.id
    for record in trace.rounds:
        if record.message is None:
            assert record.node_id == node
        else:
            children = dict(
                (v, child)
                for v, _, child in graph.transitions(node, record.choice))
            assert record.node_id == children[record.message]
            node = record.node_id
    assert node == trace.final_node


def test_episode_lowest_order_visits_in_sequence(pair):
    prior, dp, profile = pair
    trace = run_episode(dp, prior, 0.1, equilibrium_policies(profile),
                        FixedOrder(), seed=2, episode=1)
    choices = [r.choice for r in trace.rounds]
    # sender 1 finishes before sender 2 starts
    first_two = choices.index(2) if 2 in choices else len(choices)
    assert all(c == 1 for c in choices[:first_two])
    assert all(c == 2 for c in choices[first_two:])


def test_stop_always_receiver(pair):
    prior, dp, profile = pair
    trace = run_episode(dp, prior, 0.1, equilibrium_policies(profile),
                        StopAlways(), seed=0)
    assert trace.total_rounds == 0
    assert trace.cost == 0.0
    assert trace.action == "guess_HH"  # prior-optimal action


def test_round_cap_exceeded(pair):
    prior, dp, profile = pair
    policies = {1: AoNTablePolicy.uninformative(1),
                2: AoNTablePolicy.equilibrium(profile, 2)}
    with pytest.raises(RoundLimitExceeded):
        run_episode(dp, prior, 0.1, policies, FixedOrder(), seed=0)
    slow = {1: AoNTablePolicy.fixed(1, 1e-4),
            2: AoNTablePolicy.equilibrium(profile, 2)}
    with pytest.raises(RoundLimitExceeded):
        run_episode(dp, prior, 0.1, slow, FixedOrder(), seed=0,
                    round_cap=100)


@pytest.mark.parametrize("rate", [1.0, 3.0])
def test_certain_revelation_takes_one_round(pair, rate):
    prior, dp, profile = pair
    policies = {i: AoNTablePolicy.from_table(i, {node: rate for node in
                                                range(len(profile.graph))})
                for i in (1, 2)}
    summary = monte_carlo(dp, prior, 0.1, policies, RandomOrder(), 2_000,
                          seed=8)
    assert summary.stopping_times == {2: 2_000}
    assert summary.mean_visits == {1: 1.0, 2: 1.0}


def test_round_cap_is_exact(pair):
    prior, dp, profile = pair
    certain = {i: AoNTablePolicy.fixed(i, 1.0) for i in (1, 2)}
    trace = run_episode(dp, prior, 0.1, certain, FixedOrder(), seed=0,
                        round_cap=2)
    assert trace.total_rounds == 2
    with pytest.raises(RoundLimitExceeded, match="round cap 1"):
        run_episode(dp, prior, 0.1, certain, FixedOrder(), seed=0,
                    round_cap=1)


@pytest.mark.parametrize("rate", [1e-300, 5e-324])
def test_tiny_rate_hits_the_round_cap(pair, rate):
    # blocks far beyond the cap (an infinite inverse CDF for the smallest
    # float) raise at the cap instead of overflowing
    prior, dp, profile = pair
    slow = {1: AoNTablePolicy.fixed(1, rate),
            2: AoNTablePolicy.equilibrium(profile, 2)}
    for episode in range(5):
        with pytest.raises(RoundLimitExceeded,
                           match=f"round cap {DEFAULT_ROUND_CAP}"):
            run_episode(dp, prior, 0.1, slow, FixedOrder(), seed=0,
                        episode=episode)


def test_policy_experiments_are_valid(pair):
    prior, dp, profile = pair
    graph = profile.graph
    for policy in equilibrium_policies(profile).values():
        exp = policy.experiment(graph, graph.root.id)
        assert isinstance(exp, Experiment)
        assert np.allclose(exp.kernel.sum(axis=1), 1.0)
        assert exp.kernel[0, 0] == pytest.approx(1 / 3)


# -- Monte Carlo ------------------------------------------------------------------

def test_monopoly_monte_carlo(monopoly):
    prior, dp, profile = monopoly
    summary = monte_carlo(dp, prior, 0.1, equilibrium_policies(profile),
                          FixedOrder(), 20_000, seed=7)
    assert summary.visits_within(1, 5.0)
    assert summary.payoff_within(-0.5)


def test_pair_guess_monte_carlo(pair):
    prior, dp, profile = pair
    summary = monte_carlo(dp, prior, 0.1, equilibrium_policies(profile),
                          FixedOrder(), 20_000, seed=7)
    assert summary.visits_within(1, 3.0)
    assert summary.visits_within(2, 3.0)
    assert summary.payoff_within(1.4)


def test_order_invariance(pair):
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    results = {}
    for name, receiver in [("lowest", FixedOrder()),
                           ("reversed", FixedOrder((2, 1))),
                           ("random", RandomOrder())]:
        results[name] = monte_carlo(dp, prior, 0.1, policies, receiver,
                                    15_000, seed=13)
    base = results["lowest"]
    for name in ("reversed", "random"):
        other = results[name]
        for i in (1, 2):
            spread = 3 * (base.se_visits[i] + other.se_visits[i])
            assert abs(base.mean_visits[i] - other.mean_visits[i]) <= spread
        spread = 3 * (base.se_receiver_payoff + other.se_receiver_payoff)
        assert abs(base.mean_receiver_payoff
                   - other.mean_receiver_payoff) <= spread


def test_monte_carlo_reproducible(pair):
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    a = monte_carlo(dp, prior, 0.1, policies, FixedOrder(), 300, seed=5)
    b = monte_carlo(dp, prior, 0.1, policies, FixedOrder(), 300, seed=5)
    assert a.mean_visits == b.mean_visits
    assert a.stopping_times == b.stopping_times


def test_counter_split_streams_stable(pair):
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    # episode k is a pure function of (seed, k): replaying it standalone
    # gives the same trace no matter how many episodes a batch runs
    for k in (0, 3, 9):
        t1 = run_episode(dp, prior, 0.1, policies, FixedOrder(), seed=21,
                         episode=k)
        t2 = run_episode(dp, prior, 0.1, policies, FixedOrder(), seed=21,
                         episode=k)
        assert t1.visits == t2.visits and t1.state == t2.state


def test_geometric_stopping_distribution(monopoly):
    prior, dp, profile = monopoly
    lam = profile.rate(0, 1)
    summary = monte_carlo(dp, prior, 0.1, equilibrium_policies(profile),
                          FixedOrder(), 100_000, seed=29)
    cap = 25
    observed = np.zeros(cap + 1)
    for rounds, count in summary.stopping_times.items():
        observed[min(rounds, cap + 1) - 1] += count
    expected = np.array(
        [lam * (1 - lam) ** k for k in range(cap)] + [(1 - lam) ** cap])
    expected *= summary.replications
    stat, pvalue = scipy.stats.chisquare(observed, expected)
    assert pvalue > 0.01


def test_epsilon_boost_against_dp_receiver(pair):
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    policies[1] = AoNTablePolicy.epsilon_boost(profile, 1, 0.1)
    _, sol = solve_receiver_dp(dp, prior, 0.1, policies, graph=profile.graph)
    summary = monte_carlo(dp, prior, 0.1, policies, DpOptimal(sol),
                          20_000, seed=17)
    assert abs(summary.mean_visits[1] - 2.7) <= 3 * summary.se_visits[1]


@pytest.mark.parametrize("competitor", ["uninformative", "slowed"])
def test_deviation_payoff_lower_bound(pair, competitor):
    """An epsilon-boosting sender keeps at least (1-eps)/rate visits no
    matter what the competitor offers, against an optimal receiver."""
    prior, dp, profile = pair
    eps = 0.1
    policies = {1: AoNTablePolicy.epsilon_boost(profile, 1, eps)}
    if competitor == "uninformative":
        policies[2] = AoNTablePolicy.uninformative(2)
    else:
        policies[2] = AoNTablePolicy.fixed(2, 0.2)  # below the 1/3 rate
    _, sol = solve_receiver_dp(dp, prior, 0.1, policies, graph=profile.graph)
    summary = monte_carlo(dp, prior, 0.1, policies, DpOptimal(sol),
                          20_000, seed=23)
    bound = (1 - eps) * profile.sender_payoffs[1]
    assert summary.mean_visits[1] >= bound - 3 * summary.se_visits[1]


def test_dp_value_at_visited_states(monopoly):
    prior, dp, profile = monopoly
    policies = equilibrium_policies(profile)
    graph, sol = solve_receiver_dp(dp, prior, 0.1, policies,
                                   graph=profile.graph)
    for k in range(20):
        trace = run_episode(dp, prior, 0.1, policies, FixedOrder(),
                            seed=31, episode=k, graph=graph)
        visited = {graph.root.id} | {r.node_id for r in trace.rounds}
        for node in visited:
            stop = graph.stopping_value(node)
            assert sol.values[node] >= stop - 1e-9
            assert sol.values[node] == pytest.approx(stop)  # full extraction


def test_dp_optimal_continue_preferred_walks_the_path(pair):
    # the on-path receiver accepts when indifferent and so learns everything
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    _, sol = solve_receiver_dp(dp, prior, 0.1, policies, graph=profile.graph)
    summary = monte_carlo(dp, prior, 0.1, policies,
                          DpOptimal(sol, prefer_continue=True),
                          10_000, seed=37)
    assert summary.visits_within(1, 3.0)
    assert summary.visits_within(2, 3.0)
    # stop-preferred ties mean the off-path reading stops immediately here
    stopper = monte_carlo(dp, prior, 0.1, policies, DpOptimal(sol),
                          200, seed=37)
    assert stopper.mean_rounds == 0.0


def test_greedy_myopic_stops_at_equilibrium_indifference(pair):
    # equilibrium rates price a single visit at exactly its myopic worth,
    # so the myopic receiver forfeits the continuation value and stops
    prior, dp, profile = pair
    summary = monte_carlo(dp, prior, 0.1, equilibrium_policies(profile),
                          GreedyMyopic(0.1), 200, seed=3)
    assert summary.mean_rounds == 0.0


def test_greedy_myopic_continues_when_one_visit_pays(three_action):
    prior, dp = three_action
    profile = aon_rates(dp, prior, 0.01)
    summary = monte_carlo(dp, prior, 0.01, equilibrium_policies(profile),
                          GreedyMyopic(0.01), 2_000, seed=3)
    assert summary.mean_rounds > 0


# -- hold-up ----------------------------------------------------------------------

def test_holdup_demo_values():
    report = holdup_demo(0.1)
    assert report["value_of_first_component_alone"] == pytest.approx(0.0)
    assert report["second_sender_expected_visits"] == pytest.approx(5.0)
    assert report["receiver_stopping_value"] == pytest.approx(0.5)
    assert report["stopping_strictly_optimal"]
    assert report["partial_info_residual_value"] == pytest.approx(0.25)


def test_holdup_demo_other_cost():
    report = holdup_demo(0.4)
    assert report["second_sender_expected_visits"] == pytest.approx(1.25)
    assert report["stopping_strictly_optimal"]


def test_holdup_demo_cost_range():
    with pytest.raises(ValueError):
        holdup_demo(0.5)
    with pytest.raises(ValueError):
        holdup_demo(0.0)


# -- rate tables ------------------------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), -0.5])
def test_nan_or_negative_rates_are_refused(pair, bad):
    prior, dp, profile = pair
    graph = profile.graph
    at = graph.node_id((1,), ("T",))
    policies = equilibrium_policies(profile)
    table = profile.rates[:, 1].copy()
    table[at] = bad
    policies[2] = AoNTablePolicy(2, table)
    message = f"sender 2: rate {bad!r} at state {at}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_receiver_dp(dp, prior, 0.1, policies, graph=graph)
    for receiver in (FixedOrder(), StopAlways()):
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo(dp, prior, 0.1, policies, receiver, 10, seed=0)


def test_first_bad_rate_by_sender_then_state(pair):
    _, _, profile = pair
    graph = profile.graph
    ids = [graph.node_id((i,), (v,)) for i in (1, 2) for v in "HT"]
    tables = [profile.rates[:, i].copy() for i in range(2)]
    tables[1][0] = -1.0                          # sender 2 at the root
    tables[0][max(ids[2:])] = np.nan             # sender 1, later states
    tables[0][min(ids[2:])] = -0.5
    policies = {i: AoNTablePolicy(i, t) for i, t in enumerate(tables, 1)}
    with pytest.raises(ValueError, match=re.escape(
            f"sender 1: rate -0.5 at state {min(ids[2:])}")):
        _rate_table(graph, policies)


def test_nan_where_the_sender_is_revealed_is_ignored(pair):
    _, _, profile = pair
    graph = profile.graph
    policies = equilibrium_policies(profile)
    table = profile.rates[:, 1].copy()
    table[graph.cells[:, 1] >= 0] = np.nan
    assert np.isnan(table).any()
    policies[2] = AoNTablePolicy(2, table)
    assert np.array_equal(_rate_table(graph, policies),
                          _rate_table(graph, equilibrium_policies(profile)))


@pytest.mark.parametrize("name", ["coin_match", "hypothesis_testing",
                                  "pair_guess", "three_action_signals",
                                  "iid-7"])
def test_rate_table_is_the_capped_profile(scenario_dir, name):
    if name == "iid-7":
        prior, dp = presets.conditionally_iid_signals(0.8, 7)
        cost = 0.01
    else:
        s = load_scenario(scenario_dir / f"{name}.yaml")
        prior, dp, cost = s.prior, s.dp, s.cost
    profile = aon_rates(dp, prior, cost, force=True)
    assert profile.rates.shape == (len(profile.graph), prior.n_senders)
    table = _rate_table(profile.graph, equilibrium_policies(profile))
    assert np.array_equal(table, np.minimum(profile.rates, 1.0))


def test_policies_beyond_the_senders_are_ignored(pair):
    prior, dp, profile = pair
    policies = equilibrium_policies(profile)
    extra = {**policies, 0: AoNTablePolicy.from_table(0, {}),
             3: AoNTablePolicy.from_table(3, {}), "x": None}
    _, sol = solve_receiver_dp(dp, prior, 0.1, policies, graph=profile.graph)
    _, got = solve_receiver_dp(dp, prior, 0.1, extra, graph=profile.graph)
    assert got == sol
    assert (monte_carlo(dp, prior, 0.1, extra, RandomOrder(), 300, seed=4)
            == monte_carlo(dp, prior, 0.1, policies, RandomOrder(), 300,
                           seed=4))


# -- judges: the array passes against per-node walks on transitions() -------------

RATES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, inf]),
                  st.floats(0.0, 1.0))


def table_policies(draw, graph, rates=RATES):
    """Random per-node rate tables for every sender; a small pool of
    values makes ties between senders and with stopping common."""
    return {i: AoNTablePolicy.from_table(
                i, {k: draw(rates) for k in range(len(graph))})
            for i in range(1, graph.prior.n_senders + 1)}


def reference_dp(graph, cost, policies):
    """The receiver DP node by node in reverse id order, every child read
    from ``transitions``; dicts keyed by node id."""
    fields = ("values", "best_sender", "stop_optimal", "continue_optimal",
              "continuation")
    sol = {f: {} for f in fields}
    for node in reversed(range(len(graph))):
        stop_value = graph.stopping_value(node)
        best_sender, best_cont = 0, -np.inf
        for i in graph.unrevealed(node):
            lam = policies[i].rate(node)
            if lam <= 0.0:
                continue
            nxt = sum(p * sol["values"][child]
                      for _, p, child in graph.transitions(node, i))
            cont = nxt - cost / lam
            if cont > best_cont + ROUNDING:
                best_sender, best_cont = i, cont
        sol["values"][node] = max(stop_value, best_cont)
        sol["best_sender"][node] = best_sender
        sol["stop_optimal"][node] = stop_value >= best_cont - ROUNDING
        sol["continue_optimal"][node] = (best_sender != 0 and
                                         best_cont >= stop_value - ROUNDING)
        sol["continuation"][node] = best_cont
    return {f: [sol[f][k] for k in range(len(graph))] for f in fields}


@settings(max_examples=80, deadline=None)
@given(small_priors(), st.sampled_from([0.0, 0.05, 0.1, 0.5]), st.data())
def test_dp_matches_the_per_node_reference(problem, cost, data):
    prior, dp = problem
    graph = StateGraph(prior, dp)
    policies = table_policies(data.draw, graph)
    _, sol = solve_receiver_dp(dp, prior, cost, policies, graph=graph)
    assert vars(sol) == reference_dp(graph, cost, policies)


def fixed_rule(order):
    def choose(graph, node, rates, u):
        seq = range(1, len(u) + 1) if order is None else order
        return next((i for i in seq if i in graph.unrevealed(node)), 0)
    return choose


def stop_rule(graph, node, rates, u):
    return 0


def random_rule(graph, node, rates, u):
    order = sorted(range(1, len(u) + 1), key=lambda i: u[i - 1])
    return fixed_rule(order)(graph, node, rates, u)


def greedy_rule(cost):
    def choose(graph, node, rates, u):
        base = graph.stopping_value(node)
        best, best_gain = 0, ROUNDING
        for i in graph.unrevealed(node):
            if rates[i] <= 0.0:
                continue
            nxt = sum(p * graph.stopping_value(child)
                      for _, p, child in graph.transitions(node, i))
            gain = rates[i] * (nxt - base) - cost
            if gain > best_gain:
                best, best_gain = i, gain
        return best
    return choose


def dp_rule(sol, prefer_continue):
    def choose(graph, node, rates, u):
        go = (sol["continue_optimal"][node] if prefer_continue
              else not sol["stop_optimal"][node])
        return sol["best_sender"][node] if go else 0
    return choose


def reference_walk(graph, policies, choose, row):
    """One episode round by round: ``choose(graph, node, rates, u)`` names
    the sender to consult (0 stops) and each revelation's child comes from
    ``transitions``.  Returns the visits, the rounds as (round, offers,
    choice, message, node) and the final node."""
    prior, n = graph.prior, graph.prior.n_senders
    cdf = np.cumsum(prior.mass.ravel())
    flat = min(int(np.searchsorted(cdf, row[0], side="right")),
               int(np.flatnonzero(prior.mass.ravel() > 0)[-1]))
    joint = np.unravel_index(flat, prior.mass.shape)
    visits, rounds, node, j = dict.fromkeys(range(1, n + 1), 0), [], 0, n + 1
    while True:
        rates = {i: policies[i].rate(node) for i in graph.unrevealed(node)}
        choice = choose(graph, node, rates, row[1:n + 1])
        if choice == 0:
            return visits, rounds, node
        lam = rates[choice]
        block = 1 if lam >= 1.0 else 1 + int(log(1.0 - row[j]) / log1p(-lam))
        j += 1
        value = prior.spaces[choice].values[joint[choice]]
        nxt = {v: c for v, _, c in graph.transitions(node, choice)}[value]
        offers, start = tuple(sorted(rates.items())), len(rounds)
        rounds += [(r, offers, choice, None, node)
                   for r in range(start, start + block - 1)]
        rounds.append((start + block - 1, offers, choice, value, nxt))
        visits[choice] += block
        node = nxt


def receivers(graph, dp, cost, policies):
    """(engine receiver, reference rule) for all six receiver classes."""
    n = graph.prior.n_senders
    _, sol = solve_receiver_dp(dp, graph.prior, cost, policies, graph=graph)
    ref = reference_dp(graph, cost, policies)
    return [(FixedOrder(), fixed_rule(None)),
            (FixedOrder(range(n, 0, -1)), fixed_rule(range(n, 0, -1))),
            (FixedOrder((n,)), fixed_rule((n,))),
            (RandomOrder(), random_rule),
            (StopAlways(), stop_rule),
            (GreedyMyopic(cost), greedy_rule(cost)),
            (DpOptimal(sol), dp_rule(ref, False)),
            (DpOptimal(sol, True), dp_rule(ref, True))]


def assert_replays(dp, graph, cost, policies, seed, episodes):
    width = 4 * -(-(1 + 2 * graph.prior.n_senders) // 4)
    for receiver, rule in receivers(graph, dp, cost, policies):
        for k in range(episodes):
            trace = run_episode(dp, graph.prior, cost, policies, receiver,
                                seed, round_cap=10 ** 9, episode=k,
                                graph=graph)
            visits, rounds, final = reference_walk(
                graph, policies, rule, episode_rng(seed, k, width))
            assert trace.visits == visits
            assert trace.total_rounds == len(rounds)
            assert trace.final_node == final
            assert [(r.round, r.offers, r.choice, r.message, r.node_id)
                    for r in trace.rounds] == rounds


def test_engine_replays_the_per_step_walk_on_four_iid_senders():
    # four senders: the random receiver has up to four candidates a state
    prior, dp = presets.conditionally_iid_signals(accuracy=0.7, n=4)
    profile = aon_rates(dp, prior, 0.02, force=True)
    graph = profile.graph
    policies = equilibrium_policies(profile)
    assert_replays(dp, graph, 0.02, policies, seed=3, episodes=40)
    boosted = {i: AoNTablePolicy.epsilon_boost(profile, i, 0.2)
               for i in policies}
    assert_replays(dp, graph, 0.02, boosted, seed=5, episodes=40)


@settings(max_examples=40, deadline=None)
@given(small_priors(), st.data())
def test_engine_replays_the_per_step_walk(problem, data):
    prior, dp = problem
    graph = StateGraph(prior, dp)
    policies = table_policies(data.draw, graph, st.one_of(
        st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.05, 1.0)))
    assert_replays(dp, graph, data.draw(st.sampled_from([0.01, 0.1])),
                   policies, seed=data.draw(st.integers(0, 99)), episodes=5)
