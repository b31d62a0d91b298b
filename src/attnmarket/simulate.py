"""Discrete-round game engine and Monte Carlo verification.

Senders post all-or-nothing experiments from rate tables over the
reachable state graph; the receiver consults one sender per round or
stops.  Because every policy here is Markov in the graph state and the
state can only change when a revelation happens, the visits a receiver
pays to one sender before its revelation form a geometric block; episodes
draw those blocks directly, which keeps a replication both fast and
reproducible.

Randomness discipline: one root seed; episode k uses the generator seeded
by ``SeedSequence(root, spawn_key=(k,))``, so changing the replication
count never reshuffles earlier episodes.  Within an episode the draw
order is: joint state, receiver-order randomization (if any), then one
geometric draw per consultation block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .decision import DecisionProblem, full_reveal_value
from .environment import Belief, Experiment, JointPrior
from .equilibrium import EquilibriumProfile, StateGraph, aon_rates
from .errors import NonAoNPolicy, RoundLimitExceeded
from .presets import coin_match
from .tolerance import ROUNDING

DEFAULT_ROUND_CAP = 10 ** 6


# -- sender policies ----------------------------------------------------------


class AoNTablePolicy:
    """Sender policy given by an all-or-nothing reveal probability per
    reachable state."""

    def __init__(self, sender: int, table):
        self.sender = sender
        self._table = table  # callable node_id -> raw rate

    def rate(self, node_id: int) -> float:
        return float(min(1.0, self._table(node_id)))

    def experiment(self, graph: StateGraph, node_id: int) -> Experiment:
        space = graph.prior.spaces[self.sender]
        return Experiment.aon(space, self.rate(node_id))

    @classmethod
    def equilibrium(cls, profile: EquilibriumProfile, sender: int):
        return cls(sender, lambda nid: profile.rates.get((nid, sender), 0.0))

    @classmethod
    def fixed(cls, sender: int, reveal_prob: float):
        if not 0.0 <= reveal_prob <= 1.0:
            raise ValueError("reveal probability must lie in [0, 1]")
        return cls(sender, lambda nid: reveal_prob)

    @classmethod
    def epsilon_boost(cls, profile: EquilibriumProfile, sender: int,
                      epsilon: float):
        """Offer slightly better odds than the equilibrium rate (the
        deviation that secures the equilibrium payoff lower bound)."""
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        return cls(sender, lambda nid: profile.rates.get((nid, sender), 0.0)
                   / (1.0 - epsilon))

    @classmethod
    def uninformative(cls, sender: int):
        return cls(sender, lambda nid: 0.0)

    @classmethod
    def from_table(cls, sender: int, table: dict):
        return cls(sender, lambda nid: table[nid])


def equilibrium_policies(profile: EquilibriumProfile) -> dict:
    """Equilibrium AoN policy for every sender."""
    return {i: AoNTablePolicy.equilibrium(profile, i)
            for i in range(1, profile.graph.prior.n_senders + 1)}


# -- receiver policies --------------------------------------------------------


class ReceiverPolicy:
    def begin(self, graph: StateGraph, rng) -> object:
        """Per-episode context (consumes episode randomness if needed)."""
        return None

    def choose(self, ctx, graph: StateGraph, node_id: int,
               rates: dict) -> int:
        """Sender to consult at this state, or 0 to stop."""
        raise NotImplementedError


class FixedOrder(ReceiverPolicy):
    """Visit unrevealed senders in a fixed priority order (lowest index
    first by default), stop when everything is revealed."""

    def __init__(self, order=None):
        self.order = tuple(order) if order is not None else None

    def begin(self, graph, rng):
        return self.order

    def choose(self, order, graph, node_id, rates):
        unrevealed = graph.unrevealed(node_id)
        if not unrevealed:
            return 0
        if order is None:
            return unrevealed[0]
        for i in order:
            if i in unrevealed:
                return i
        return 0


class RandomOrder(FixedOrder):
    """Visit senders in a fresh random order each episode."""

    def __init__(self):
        super().__init__(None)

    def begin(self, graph, rng):
        n = graph.prior.n_senders
        return tuple(int(i) + 1 for i in rng.permutation(n))


class StopAlways(ReceiverPolicy):
    def choose(self, ctx, graph, node_id, rates):
        return 0


class GreedyMyopic(ReceiverPolicy):
    """Consult the sender with the highest one-step expected gain, as if
    stopping right after; stop when no single visit pays for itself."""

    def __init__(self, cost: float):
        self.cost = cost

    def choose(self, ctx, graph, node_id, rates):
        base = graph.stopping_value(node_id)
        best, best_gain = 0, ROUNDING
        for i in graph.unrevealed(node_id):
            lam = rates.get(i, 0.0)
            if lam <= 0.0:
                continue
            nxt = sum(p * graph.stopping_value(child)
                      for _, p, child in graph.transitions(node_id, i))
            gain = lam * (nxt - base) - self.cost
            if gain > best_gain:
                best, best_gain = i, gain
        return best


@dataclass
class DpSolution:
    """Exact receiver optimum against fixed AoN tables."""

    values: dict                 # node_id -> value
    best_sender: dict            # node_id -> sender or 0
    stop_optimal: dict           # node_id -> bool
    continue_optimal: dict       # node_id -> bool
    continuation: dict           # node_id -> best continuation value


def solve_receiver_dp(dp: DecisionProblem, prior: JointPrior, cost: float,
                      sender_policies: dict,
                      graph: StateGraph | None = None) -> tuple:
    """Backward induction over the reachable graph.

    At each state the receiver stops at the current stopping utility or
    consults some sender i; repeated consultation of i until revelation
    has the closed-form value E[V(next)] - cost / rate_i.  Returns the
    graph and a :class:`DpSolution` (stop-preferred tie flags included).
    """
    graph = graph or StateGraph(prior, dp)
    for i in range(1, prior.n_senders + 1):
        policy = sender_policies.get(i)
        if policy is None or not hasattr(policy, "rate"):
            raise NonAoNPolicy(f"sender {i} has no all-or-nothing rate table")
    sol = DpSolution({}, {}, {}, {}, {})
    # children reveal one sender more, so they come later in node order
    for node in reversed(range(len(graph))):
        stop_value = graph.stopping_value(node)
        best_sender, best_cont = 0, -np.inf
        for i in graph.unrevealed(node):
            lam = sender_policies[i].rate(node)
            if lam <= 0.0:
                continue
            nxt = sum(p * sol.values[child]
                      for _, p, child in graph.transitions(node, i))
            cont = nxt - cost / lam
            if cont > best_cont + ROUNDING:
                best_sender, best_cont = i, cont
        value = max(stop_value, best_cont)
        sol.values[node] = value
        sol.best_sender[node] = best_sender
        sol.stop_optimal[node] = stop_value >= best_cont - ROUNDING
        sol.continue_optimal[node] = (best_sender != 0
                                      and best_cont >= stop_value - ROUNDING)
        sol.continuation[node] = best_cont
    return graph, sol


class DpOptimal(ReceiverPolicy):
    """Receiver playing the exact optimum against fixed AoN tables.

    Ties are resolved toward stopping by default (the off-path reading);
    ``prefer_continue=True`` gives the on-path receiver who accepts when
    indifferent.
    """

    def __init__(self, solution: DpSolution, prefer_continue: bool = False):
        self.solution = solution
        self.prefer_continue = prefer_continue

    def choose(self, ctx, graph, node_id, rates):
        if self.prefer_continue:
            if self.solution.continue_optimal[node_id]:
                return self.solution.best_sender[node_id]
            return 0
        if self.solution.stop_optimal[node_id]:
            return 0
        return self.solution.best_sender[node_id]


# -- episodes -----------------------------------------------------------------


@dataclass(frozen=True)
class RoundRecord:
    round: int
    offers: tuple          # (sender, reveal probability) pairs
    choice: int
    message: object        # revealed value or None for the null message
    node_id: int           # state after the round


@dataclass
class EpisodeTrace:
    state: tuple
    rounds: list
    visits: dict
    total_rounds: int
    cost: float
    action: object
    realized_utility: float
    final_node: int

    @property
    def payoff(self) -> float:
        return self.realized_utility - self.cost


class _Runner:
    """Shared episode core for traced and lean replications."""

    def __init__(self, dp, prior, cost, sender_policies, receiver_policy,
                 graph=None, round_cap=DEFAULT_ROUND_CAP):
        self.dp = dp
        self.prior = prior
        self.cost = cost
        self.senders = sender_policies
        self.receiver = receiver_policy
        self.graph = graph or StateGraph(prior, dp)
        self.round_cap = round_cap
        self.cdf = np.cumsum(prior.mass.ravel())
        self.shape = prior.mass.shape
        self.utility = np.broadcast_to(dp.utility,
                                       (len(dp.actions),) + self.shape)

    def play(self, rng, record=False):
        flat = int(np.searchsorted(self.cdf, rng.random(), side="right"))
        joint_index = np.unravel_index(min(flat, len(self.cdf) - 1), self.shape)
        state = tuple(s.values[v] for s, v in zip(self.prior.spaces, joint_index))
        ctx = self.receiver.begin(self.graph, rng)
        node = 0  # the root: nothing revealed
        visits = {i: 0 for i in range(1, self.prior.n_senders + 1)}
        rounds = 0
        rows = [] if record else None
        while True:
            rates = {i: self.senders[i].rate(node)
                     for i in self.graph.unrevealed(node)}
            choice = self.receiver.choose(ctx, self.graph, node, rates)
            if choice == 0:
                break
            lam = rates[choice]
            if lam <= 0.0:
                raise RoundLimitExceeded(
                    f"receiver consults sender {choice} forever at state "
                    f"{node} (reveal probability 0)")
            block = int(rng.geometric(lam))
            if rounds + block > self.round_cap:
                raise RoundLimitExceeded(
                    f"episode exceeded the round cap {self.round_cap}")
            value_index = joint_index[choice]
            cell = self.graph.cells[node].copy()
            cell[choice - 1] = value_index
            child = int(self.graph.ids[tuple(cell)])
            if record:
                offers = tuple(sorted(rates.items()))
                for k in range(block - 1):
                    rows.append(RoundRecord(rounds + k, offers, choice,
                                            None, node))
                rows.append(RoundRecord(rounds + block - 1, offers, choice,
                                        self.prior.spaces[choice].values[value_index],
                                        child))
            visits[choice] += block
            rounds += block
            node = child
        a_idx = int(self.graph.stop_actions[node])
        return EpisodeTrace(
            state=state,
            rounds=rows if record else [],
            visits=visits,
            total_rounds=rounds,
            cost=self.cost * rounds,
            action=self.dp.actions[a_idx],
            realized_utility=float(self.utility[(a_idx,) + joint_index]),
            final_node=node,
        )


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    """Counter-split generator for one episode."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(episode,)))


def run_episode(dp, prior, cost, sender_policies, receiver_policy, seed,
                round_cap: int = DEFAULT_ROUND_CAP, episode: int = 0,
                graph: StateGraph | None = None) -> EpisodeTrace:
    """Simulate one episode with a full per-round trace."""
    runner = _Runner(dp, prior, cost, sender_policies, receiver_policy,
                     graph=graph, round_cap=round_cap)
    return runner.play(episode_rng(seed, episode), record=True)


@dataclass
class MonteCarloSummary:
    replications: int
    seed: int
    mean_visits: dict
    se_visits: dict
    mean_receiver_payoff: float
    se_receiver_payoff: float
    mean_rounds: float
    stopping_times: Counter = field(default_factory=Counter)

    def visits_within(self, sender: int, theory: float, z: float = 3.0) -> bool:
        return abs(self.mean_visits[sender] - theory) <= z * self.se_visits[sender]

    def payoff_within(self, theory: float, z: float = 3.0) -> bool:
        return abs(self.mean_receiver_payoff - theory) <= z * self.se_receiver_payoff


def monte_carlo(dp, prior, cost, sender_policies, receiver_policy,
                replications: int, seed: int,
                round_cap: int = DEFAULT_ROUND_CAP,
                graph: StateGraph | None = None) -> MonteCarloSummary:
    """Run independent replications and summarize visits and payoffs."""
    return _replicate(dp, prior, cost, sender_policies, receiver_policy,
                      replications, seed, round_cap, graph)


def _replicate(dp, prior, cost, sender_policies, receiver_policy,
               replications, seed, round_cap=DEFAULT_ROUND_CAP, graph=None,
               traced=0, each=None) -> MonteCarloSummary:
    """The replication loop behind ``monte_carlo`` and the ``simulate``
    command: episode k plays on ``episode_rng(seed, k)``, the first
    ``traced`` episodes keep their per-round records, and ``each(k, trace)``
    sees every episode."""
    if replications < 1:
        raise ValueError("need at least one replication")
    runner = _Runner(dp, prior, cost, sender_policies, receiver_policy,
                     graph=graph, round_cap=round_cap)
    n = prior.n_senders
    visits = np.empty((replications, n))
    payoffs = np.empty(replications)
    stopping = Counter()
    for k in range(replications):
        trace = runner.play(episode_rng(seed, k), record=k < traced)
        for i in range(1, n + 1):
            visits[k, i - 1] = trace.visits[i]
        payoffs[k] = trace.payoff
        stopping[trace.total_rounds] += 1
        if each is not None:
            each(k, trace)
    root = replications ** 0.5

    def se(arr):
        return float(arr.std(ddof=1) / root) if replications > 1 else float("nan")

    return MonteCarloSummary(
        replications=replications,
        seed=seed,
        mean_visits={i: float(visits[:, i - 1].mean()) for i in range(1, n + 1)},
        se_visits={i: se(visits[:, i - 1]) for i in range(1, n + 1)},
        mean_receiver_payoff=float(payoffs.mean()),
        se_receiver_payoff=se(payoffs),
        mean_rounds=float(visits.sum(axis=1).mean()),
        stopping_times=stopping,
    )


# -- hold-up demonstration ----------------------------------------------------


def holdup_demo(cost: float) -> dict:
    """Perfect-complements example: two fair coins, guess whether they
    match.  The last sender extracts the whole joint surplus, so the
    receiver refuses the very first visit and no information flows."""
    if not 0.0 < cost < 0.5:
        raise ValueError("cost must lie in (0, 0.5) for this demonstration")
    prior, dp = coin_match()
    profile = aon_rates(dp, prior, cost, force=True)
    graph = profile.graph
    root = graph.root.id

    value_first_alone = full_reveal_value(dp, prior.belief(), 1)
    residual_second = profile.sender_payoffs[2] * cost

    # dp-optimal receiver against sender 2's residual-monopoly continuation,
    # for a grid of take-it-or-leave-it rates by sender 1
    continuation_values = {}
    for lam1 in [k / 20 for k in range(1, 21)]:
        policies = {
            1: AoNTablePolicy.fixed(1, lam1),
            2: AoNTablePolicy.equilibrium(profile, 2),
        }
        _, sol = solve_receiver_dp(dp, prior, cost, policies, graph=graph)
        continuation_values[lam1] = sol.continuation[root]
    stopping_value = graph.stopping_value(root)
    best = max(continuation_values.values())

    # partial-information variant: sender 1 already leaned the belief
    mu1 = 0.75
    tilted = Belief(prior.spaces,
                    np.array([[[mu1 / 2, mu1 / 2],
                               [(1 - mu1) / 2, (1 - mu1) / 2]]]))
    partial_value = full_reveal_value(dp, tilted, 2)

    return {
        "cost": cost,
        "value_of_first_component_alone": value_first_alone,
        "second_sender_residual_value": residual_second,
        "second_sender_expected_visits": residual_second / cost,
        "receiver_stopping_value": stopping_value,
        "receiver_best_continuation_value": best,
        "stopping_strictly_optimal": best < stopping_value - ROUNDING,
        "partial_info_belief": mu1,
        "partial_info_residual_value": partial_value,
    }
