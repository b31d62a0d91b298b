import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from attnmarket.decision import (
    DecisionProblem,
    ValueReport,
    _Lattice,
    _gain_terms,
    _revealed_labels,
    coalition_value,
    expected_conditioned_value,
    expected_residual_value,
    experiment_value,
    full_info_utility,
    full_reveal_value,
    full_reveal_value_given,
    stopping_utility,
)
from attnmarket.environment import (
    Belief,
    ComponentSpace,
    Experiment,
    JointPrior,
    condition_on_components,
)
from attnmarket import presets
from attnmarket.conditions import _sender_tables
from attnmarket.equilibrium import aon_rates


# -- stopping and full-information utility --------------------------------------

def test_stopping_utility_coin_match(coin_match):
    prior, dp = coin_match
    report = stopping_utility(dp, prior.belief())
    assert report.stopping_value == pytest.approx(0.5)
    assert report.optimal_action == "match"  # tie broken by lowest index


def test_stopping_utility_hypothesis(hypothesis_testing):
    prior, dp = hypothesis_testing
    assert stopping_utility(dp, prior.belief()).stopping_value == pytest.approx(-0.5)


def test_stopping_utility_point_mass(pair_guess):
    prior, dp = pair_guess
    point = condition_on_components(prior, {1: "T", 2: "H"})
    report = stopping_utility(dp, point)
    assert report.stopping_value == pytest.approx(2.0)
    assert report.optimal_action == "guess_TH"
    assert report.full_info_value == pytest.approx(report.stopping_value)


def test_full_info_utility(coin_match, hypothesis_testing):
    prior, dp = coin_match
    assert full_info_utility(dp, prior.belief()) == pytest.approx(1.0)
    prior_h, dp_h = hypothesis_testing
    assert full_info_utility(dp_h, prior_h.belief()) == pytest.approx(0.0)


def test_value_report_invariant():
    with pytest.raises(ValueError):
        ValueReport(stopping_value=1.0, full_info_value=0.5,
                    optimal_action="a")


# -- experiment values -----------------------------------------------------------

def test_uninformative_experiment_is_worthless(pair_guess):
    prior, dp = pair_guess
    exp = Experiment.uninformative(prior.spaces[1])
    assert experiment_value(dp, prior.belief(), exp) == pytest.approx(0.0)


def _tilted_coin_match_belief(prior, mu1=0.75):
    mass = np.array([[[mu1 / 2, mu1 / 2],
                      [(1 - mu1) / 2, (1 - mu1) / 2]]])
    return Belief(prior.spaces, mass)


def test_revealing_second_coin_at_tilted_belief(coin_match):
    prior, dp = coin_match
    belief = _tilted_coin_match_belief(prior)
    exp = Experiment.fully_revealing(prior.spaces[2])
    assert experiment_value(dp, belief, exp) == pytest.approx(0.25)


def test_aon_value_is_linear_in_weight(coin_match):
    prior, dp = coin_match
    belief = _tilted_coin_match_belief(prior)
    exp = Experiment.aon(prior.spaces[2], 0.2)
    assert experiment_value(dp, belief, exp) == pytest.approx(0.05)


def test_full_reveal_value_examples(coin_match, pair_guess):
    prior, dp = coin_match
    assert full_reveal_value(dp, prior.belief(), 1) == pytest.approx(0.0)
    assert full_reveal_value_given(dp, prior, 2, {1: "H"}) == pytest.approx(0.5)
    prior_p, dp_p = pair_guess
    assert full_reveal_value(dp_p, prior_p.belief(), 1) == pytest.approx(0.3)
    assert full_reveal_value_given(dp_p, prior_p, 1, {2: "T"}) == pytest.approx(0.3)


def test_full_reveal_equals_revealing_experiment(three_action):
    prior, dp = three_action
    exp = Experiment.fully_revealing(prior.spaces[1])
    assert full_reveal_value(dp, prior.belief(), 1) == pytest.approx(
        experiment_value(dp, prior.belief(), exp), abs=1e-12)


# -- coalition values ------------------------------------------------------------

def test_coalition_values_coin_match(coin_match):
    prior, dp = coin_match
    assert coalition_value(dp, prior, ()) == 0.0
    assert coalition_value(dp, prior, (1,)) == pytest.approx(0.0)
    assert coalition_value(dp, prior, (2,)) == pytest.approx(0.0)
    assert coalition_value(dp, prior, (1, 2)) == pytest.approx(0.5)


def test_coalition_values_pair_guess(pair_guess):
    prior, dp = pair_guess
    assert coalition_value(dp, prior, (1,)) == pytest.approx(0.3)
    assert coalition_value(dp, prior, (1, 2)) == pytest.approx(0.6)


def test_coalition_monotone(three_action, asymmetric_signals):
    for prior, dp in (three_action, asymmetric_signals):
        senders = range(1, prior.n_senders + 1)
        values = {}
        for r in range(prior.n_senders + 1):
            for S in itertools.combinations(senders, r):
                values[S] = coalition_value(dp, prior, S)
        for S, fS in values.items():
            for T, fT in values.items():
                if set(S) <= set(T):
                    assert fS <= fT + 1e-10


# -- oracle equivalence -----------------------------------------------------------

@pytest.mark.parametrize("builder", [
    presets.coin_match,
    presets.pair_guess,
    presets.hypothesis_testing,
    presets.conditionally_iid_signals,
])
def test_matches_bruteforce_oracle(builder):
    prior, dp = builder()
    mass, utility, actions = oracle.as_dicts(prior, dp)
    belief = prior.belief()
    assert stopping_utility(dp, belief).stopping_value == pytest.approx(
        oracle.stopping_value(actions, utility, mass), abs=1e-12)
    assert full_info_utility(dp, belief) == pytest.approx(
        oracle.full_info_value(actions, utility, mass), abs=1e-12)
    for i in range(1, prior.n_senders + 1):
        assert full_reveal_value(dp, belief, i) == pytest.approx(
            oracle.full_reveal_value(actions, utility, mass, i), abs=1e-12)
        assert expected_residual_value(dp, prior, i) == pytest.approx(
            oracle.expected_residual_value(actions, utility, mass, i,
                                           prior.n_senders), abs=1e-12)
    senders = range(1, prior.n_senders + 1)
    for r in range(prior.n_senders + 1):
        for S in itertools.combinations(senders, r):
            assert coalition_value(dp, prior, S) == pytest.approx(
                oracle.coalition_value(actions, utility, mass, S), abs=1e-12)


def test_aon_experiment_matches_oracle(coin_match):
    prior, dp = coin_match
    mass, utility, actions = oracle.as_dicts(prior, dp)
    exp = Experiment.aon(prior.spaces[2], 0.3)
    kernel = {"H": {"H": 0.3, "null": 0.7}, "T": {"T": 0.3, "null": 0.7}}
    assert experiment_value(dp, prior.belief(), exp) == pytest.approx(
        oracle.experiment_value(actions, utility, mass, 2, kernel,
                                ["H", "T", "null"]), abs=1e-12)


@st.composite
def oracle_sized_problems(draw):
    """Random environments small enough for the dict-based enumerator."""
    n_senders = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 2))] + [draw(st.integers(2, 3))
                                         for _ in range(n_senders)]
    spaces = tuple(ComponentSpace(k, tuple(f"v{j}" for j in range(s)))
                   for k, s in enumerate(sizes))
    total = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(0, 7), min_size=total,
                            max_size=total).filter(lambda w: sum(w) > 1))
    mass = np.asarray(weights, dtype=float).reshape(sizes)
    prior = JointPrior(spaces, mass / mass.sum())
    n_actions = draw(st.integers(1, 3))
    table = draw(st.lists(st.floats(-3.0, 3.0, allow_nan=False, width=32),
                          min_size=n_actions * total,
                          max_size=n_actions * total))
    dp = DecisionProblem(tuple(f"a{j}" for j in range(n_actions)),
                         np.asarray(table).reshape((n_actions,) + tuple(sizes)))
    return prior, dp


@settings(max_examples=50, deadline=None)
@given(oracle_sized_problems())
def test_random_environments_match_oracle(problem):
    prior, dp = problem
    mass, utility, actions = oracle.as_dicts(prior, dp)
    mass = {j: p for j, p in mass.items() if p > 0}
    belief = prior.belief()
    assert stopping_utility(dp, belief).stopping_value == pytest.approx(
        oracle.stopping_value(actions, utility, mass), abs=1e-10)
    assert full_info_utility(dp, belief) == pytest.approx(
        oracle.full_info_value(actions, utility, mass), abs=1e-10)
    for i in range(1, prior.n_senders + 1):
        assert full_reveal_value(dp, belief, i) == pytest.approx(
            oracle.full_reveal_value(actions, utility, mass, i), abs=1e-10)
        assert expected_residual_value(dp, prior, i) == pytest.approx(
            oracle.expected_residual_value(actions, utility, mass, i,
                                           prior.n_senders), abs=1e-10)
    senders = range(1, prior.n_senders + 1)
    for r in range(prior.n_senders + 1):
        for S in itertools.combinations(senders, r):
            assert coalition_value(dp, prior, S) == pytest.approx(
                oracle.coalition_value(actions, utility, mass, S), abs=1e-10)


# -- law of iterated expectations -------------------------------------------------

def test_iterated_expectations(asymmetric_signals):
    prior, dp = asymmetric_signals
    # E over w2 of vbar(w1 | w2) computed directly vs via nested conditioning
    direct = expected_residual_value(dp, prior, 1)
    nested = 0.0
    marg = prior.belief().marginal(2)
    for v, p in zip(prior.spaces[2].values, marg):
        if p > 0:
            nested += p * full_reveal_value_given(dp, prior, 1, {2: v})
    assert direct == pytest.approx(nested, abs=1e-9)


def test_conditioned_value_tower_property(three_action):
    prior, dp = three_action
    # E_{w_{1,2}}[U] computed in one shot vs sequentially by sender 1 then 2
    one_shot = expected_conditioned_value(dp, prior, (1, 2))
    seq = 0.0
    for v, p in zip(prior.spaces[1].values, prior.belief().marginal(1)):
        if p > 0:
            cond = condition_on_components(prior, {1: v})
            seq += p * expected_conditioned_value(dp, cond, (2,))
    assert one_shot == pytest.approx(seq, abs=1e-9)


# -- convexity properties ----------------------------------------------------------

@st.composite
def random_problem(draw):
    n_senders = draw(st.integers(1, 2))
    sizes = [draw(st.integers(1, 2))] + [draw(st.integers(2, 3))
                                         for _ in range(n_senders)]
    spaces = tuple(ComponentSpace(k, tuple(f"v{j}" for j in range(s)))
                   for k, s in enumerate(sizes))
    total = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(1, 6), min_size=total, max_size=total))
    mass = np.asarray(weights, dtype=float).reshape(sizes)
    prior = JointPrior(spaces, mass / mass.sum())
    n_actions = draw(st.integers(1, 3))
    table = draw(st.lists(
        st.floats(-2.0, 2.0, allow_nan=False),
        min_size=n_actions * total, max_size=n_actions * total))
    dp = DecisionProblem(
        tuple(f"a{j}" for j in range(n_actions)),
        np.asarray(table).reshape((n_actions,) + tuple(sizes)))
    sender = draw(st.integers(1, n_senders))
    lam = draw(st.floats(0.0, 1.0))
    return prior, dp, sender, lam


def _underflow_problem():
    """A reveal probability so small that every cell of the posterior's
    joint mass underflows while the message weight stays positive."""
    spaces = tuple(ComponentSpace(k, ("v0", "v1")) for k in range(2))
    prior = JointPrior(spaces, np.array([[0.2, 0.2], [0.2, 0.4]]))
    dp = DecisionProblem(("a0", "a1"), np.array([[[1.0, 0.0], [0.0, 1.0]],
                                                 [[0.0, 1.0], [1.0, 0.0]]]))
    return prior, dp, 1, 5e-324


@settings(max_examples=60, deadline=None)
@given(random_problem())
@example(_underflow_problem())
def test_experiment_value_nonnegative_and_bounded(problem):
    prior, dp, sender, lam = problem
    belief = prior.belief()
    exp = Experiment.aon(prior.spaces[sender], lam)
    value = experiment_value(dp, belief, exp)
    report = stopping_utility(dp, belief)
    assert value >= -1e-10
    assert value <= report.full_info_value - report.stopping_value + 1e-10


# -- the garbled tables at the root against the lattice ----------------------------

@st.composite
def lattice_problems(draw):
    """Random 1-4 sender environments: zero-mass cells, and utility tables
    whose axes may be size 1 (broadcast)."""
    n_senders = draw(st.integers(1, 4))
    sizes = [draw(st.integers(1, 2))] + [draw(st.integers(1, 3))
                                         for _ in range(n_senders)]
    total = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(0, 5), min_size=total,
                            max_size=total).filter(any))
    mass = np.asarray(weights, dtype=float).reshape(sizes)
    n_actions = draw(st.integers(1, 3))
    shape = [n_actions] + [s if draw(st.booleans()) else 1 for s in sizes]
    table = draw(st.lists(st.floats(-2.0, 2.0, allow_nan=False, width=32),
                          min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    dp = DecisionProblem(tuple(f"a{j}" for j in range(n_actions)),
                         np.asarray(table).reshape(shape))
    return dp, mass / mass.sum()


def _exact_tie_problem():
    """Two actions that tie exactly at values of sender 2 but round apart
    when the other senders are summed in another order than the
    lattice's: its G_2 at the root is 0, and 1.1e-16 in that other order."""
    dp = DecisionProblem(("a0", "a1", "a2"),
                         np.array([[0.0, 1.25, 1.0], [0.0, 0.0, 0.0],
                                   [1.0, 1.25, 0.0]]).reshape(3, 1, 1, 1, 3))
    mass = np.array([[[0, 0, 0], [2, 4, 0]], [[0, 0, 0], [0, 0, 0]],
                     [[0, 0, 5], [2, 2, 4]]], dtype=float)[None]
    return dp, mass / mass.sum()


@settings(max_examples=80, deadline=None)
@given(lattice_problems())
@example(_exact_tie_problem())
def test_root_kernel_matches_lattice(problem):
    """The garbled-belief tables at weight 1 (the prior itself) give the
    lattice's G_i, H_i and P at the root, and 0 exactly where it does."""
    dp, mass = problem
    n = mass.ndim - 1
    lattice = _Lattice(dp, mass)
    values = (slice(None),) + (slice(-1),) * n
    eu, joint = lattice.eu[values], lattice.mass[values[1:]]
    root = (-1,) * n
    for i in range(1, n + 1):
        E, D, M = _sender_tables(eu, joint, i)
        one = np.ones(E.shape[-1])
        own = E @ one
        gain = _gain_terms(own, own.sum(axis=1, keepdims=True)).sum()
        for got, want in ((gain, lattice.gain(i)[root]),
                          (D @ one, lattice.residual(i)[root]),
                          (M @ one, lattice.mass[root])):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            if want == 0.0:
                assert got == 0.0


# -- exact zeros at exact ties ------------------------------------------------------

@st.composite
def tie_heavy_problems(draw):
    """Environments whose actions tie exactly at many beliefs: payoffs in
    halves from -2 to 2 on tables that ignore some axes, integer masses
    with zero cells, and the sender axes in a random order (which changes
    the order of the program's sums).  Returns the integer masses and the
    utility table."""
    n = draw(st.integers(2, 3))
    sizes = [draw(st.integers(1, 3))] + [draw(st.integers(1, 3))
                                         for _ in range(n)]
    weights = draw(st.lists(st.integers(0, 4), min_size=int(np.prod(sizes)),
                            max_size=int(np.prod(sizes))).filter(any))
    shape = [draw(st.integers(2, 3))] + [s if draw(st.booleans()) else 1
                                         for s in sizes]
    halves = draw(st.lists(st.integers(-4, 4), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    order = [0] + [k + 1 for k in draw(st.permutations(range(n)))]
    weights = np.asarray(weights).reshape(sizes).transpose(order)
    utility = (np.asarray(halves) / 2).reshape(shape).transpose(
        [0] + [k + 1 for k in order])
    return weights, utility


def _exact_gains(weights, utility):
    """G_i and H_i, times the total mass, at every node with mass, in exact
    rationals: {(node, i): (G, H)}, a node giving each sender's value
    index or -1 while unrevealed."""
    shape = weights.shape
    u = np.broadcast_to(utility, utility.shape[:1] + shape)
    actions = range(utility.shape[0])
    cells = {}
    for cell in itertools.product(*map(range, shape[1:])):
        states = [(int(weights[(s,) + cell]), s) for s in range(shape[0])]
        cells[cell] = (sum(m for m, _ in states),
                       [sum(Fraction(float(u[(a, s) + cell])) * m
                            for m, s in states) for a in actions])

    @functools.cache
    def at(node):
        inside = [cells[c] for c in cells
                  if all(v < 0 or v == c[j] for j, v in enumerate(node))]
        return (sum(m for m, _ in inside),
                [sum(eu[a] for _, eu in inside) for a in actions])

    def gain(node, i):
        values = [at(node[:i - 1] + (v,) + node[i:])[1]
                  for v in range(shape[i])]
        return sum(max(eu) for eu in values) - max(at(node)[1])

    out = {}
    for node in itertools.product(*(range(-1, k) for k in shape[1:])):
        if at(node)[0] == 0:
            continue
        for i in (j for j, v in enumerate(node, 1) if v < 0):
            others = [j for j, v in enumerate(node, 1) if v < 0 and j != i]
            residual = 0
            for values in itertools.product(*(range(shape[j])
                                              for j in others)):
                full = list(node)
                for j, v in zip(others, values):
                    full[j - 1] = v
                if at(tuple(full))[0]:
                    residual += gain(tuple(full), i)
            out[node, i] = (gain(node, i), residual)
    return out


@settings(max_examples=300, deadline=None)
@given(tie_heavy_problems())
def test_exact_ties_give_exact_zero_gains_and_infinite_rates(problem):
    """Wherever G_i or H_i is 0 in exact arithmetic, the lattice, the
    library values at the root and the rate table give exactly 0 and
    ``inf``; elsewhere they give positive values and finite rates."""
    weights, utility = problem
    spaces = [ComponentSpace(k, tuple(range(size)))
              for k, size in enumerate(weights.shape)]
    prior = JointPrior(spaces, weights / weights.sum())
    dp = DecisionProblem(tuple(f"a{j}" for j in range(len(utility))),
                         utility)
    lattice = _Lattice(dp, prior.mass)
    profile = aon_rates(dp, prior, 0.1, force=True)
    root = (-1,) * prior.n_senders
    for (node, i), (gain, residual) in _exact_gains(weights, utility).items():
        assert (lattice.gain(i)[node] == 0.0) == (gain == 0)
        assert (lattice.residual(i)[node] == 0.0) == (residual == 0)
        rate = profile.rate(int(profile.graph.ids[node]), i)
        assert (rate == np.inf) == (residual == 0)
        if node == root:
            belief = prior.belief()
            assert (full_reveal_value(dp, belief, i) == 0.0) == (gain == 0)
            assert ((expected_residual_value(dp, belief, i) == 0.0)
                    == (residual == 0))


def test_revealed_labels_name_each_revealed_sender():
    spaces = (ComponentSpace(0, ("-",)), ComponentSpace(1, ("a", "b")),
              ComponentSpace(2, (10, 20, 30)), ComponentSpace(3, ("x", "y")))
    prior = JointPrior(spaces, np.full((1, 2, 3, 2), 1 / 12))
    rows = np.array([[-1, -1, -1], [1, -1, 0], [0, 2, 1]])
    label = _revealed_labels(prior, rows)
    assert [label(k) for k in range(3)] == [
        {}, {1: "b", 3: "x"}, {1: "a", 2: 30, 3: "y"}]
    assert type(label(2)[2]) is int
