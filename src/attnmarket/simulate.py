"""Discrete-round game engine and Monte Carlo verification.

Senders post all-or-nothing experiments from rate tables over the
reachable state graph; the receiver consults one sender per round or
stops.  Because every policy here is Markov in the graph state and the
state can only change when a revelation happens, the visits a receiver
pays to one sender before its revelation form a geometric block; episodes
draw those blocks directly, which keeps a replication both fast and
reproducible.

Randomness discipline: one root seed and one counter-based stream of
uniforms.  Episode k reads row k, of width W = 4 * ceil((1 + 2n) / 4),
taken from ``Philox`` keyed by ``SeedSequence(seed)`` with its counter at
k * W / 4, so the row depends only on (seed, k) and changing the
replication count never reshuffles earlier episodes.  Within a row,
``u[0]`` picks the joint state from the prior's CDF, ``u[1..n]`` breaks
ties among a receiver's candidates (the candidate i with the lowest
``u[i]`` is consulted), and ``u[n + 1 + j]`` gives the j-th geometric
block by inverse CDF, ``1 + floor(log(1 - u) / log(1 - rate))``; the
remaining entries pad the row to whole Philox outputs.  Rows are
generated ``ROW_BLOCK`` at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import log, log1p
from operator import getitem

import numpy as np

from .decision import DecisionProblem, full_reveal_value
from .environment import Belief, Experiment, JointPrior
from .equilibrium import EquilibriumProfile, StateGraph, aon_rates
from .errors import NonAoNPolicy, RoundLimitExceeded
from .presets import coin_match
from .tolerance import ROUNDING

DEFAULT_ROUND_CAP = 10 ** 6
ROW_BLOCK = 1024  # episode rows generated per Philox call


# -- sender policies ----------------------------------------------------------


class AoNTablePolicy:
    """Sender policy given by an all-or-nothing reveal probability per
    reachable state."""

    def __init__(self, sender: int, table):
        self.sender = sender
        self._table = table  # callable node_id -> raw rate

    def rate(self, node_id: int) -> float:
        return float(min(self._table(node_id), 1.0))  # NaN stays NaN

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


def _rate_table(graph: StateGraph, sender_policies: dict) -> np.ndarray:
    """Capped reveal probabilities, nodes x n: ``rates[node, i - 1]`` is
    sender i's at ``node``, 0 where i is revealed.  Only senders 1..n are
    read; each needs an all-or-nothing ``rate``."""
    rates = np.zeros(graph.cells.shape)
    for i in range(1, graph.prior.n_senders + 1):
        policy = sender_policies.get(i)
        if not hasattr(policy, "rate"):  # None included
            raise NonAoNPolicy(f"sender {i} has no all-or-nothing rate table")
        for node in np.flatnonzero(graph.cells[:, i - 1] < 0).tolist():
            lam = policy.rate(node)
            if not lam >= 0.0:
                raise ValueError(f"sender {i}: rate {lam!r} at state {node}")
            rates[node, i - 1] = lam
    return rates


def _next_values(graph: StateGraph, values, at=slice(None)) -> np.ndarray:
    """E[values[child]] per node ``at`` and sender (0 where revealed),
    summed in value order from 0 as ``sum(p * values[child] ...)`` is."""
    child, prob = (a[at] for a in graph.edges)
    nxt = np.zeros(child.shape[:2])
    for v in range(child.shape[2]):
        nxt += prob[..., v] * values[child[..., v]]
    return nxt


class ReceiverPolicy:
    def candidates(self, graph: StateGraph, rates: np.ndarray) -> list:
        """Per node, the senders the receiver may consult there, as a
        tuple (empty: stop); an episode consults the one with the lowest
        order uniform ``u[i]``.  ``rates``: nodes x n, 0 where revealed."""
        raise NotImplementedError


class FixedOrder(ReceiverPolicy):
    """Visit unrevealed senders in a fixed priority order (lowest index
    first by default), stop when everything is revealed."""

    def __init__(self, order=None):
        self.order = tuple(order) if order is not None else None

    def candidates(self, graph, rates):
        order = (range(1, graph.prior.n_senders + 1) if self.order is None
                 else self.order)
        return [next(((i,) for i in order if i in unrevealed), ())
                for unrevealed in map(graph.unrevealed, range(len(graph)))]


class RandomOrder(ReceiverPolicy):
    """Visit senders in a fresh random order each episode: every
    unrevealed sender is a candidate, so the lowest order uniform wins."""

    def candidates(self, graph, rates):
        return [graph.unrevealed(node) for node in range(len(graph))]


class StopAlways(ReceiverPolicy):
    def candidates(self, graph, rates):
        return [()] * len(graph)


class GreedyMyopic(ReceiverPolicy):
    """Consult the sender with the highest one-step expected gain, as if
    stopping right after; stop when no single visit pays for itself."""

    def __init__(self, cost: float):
        self.cost = cost

    def candidates(self, graph, rates):
        base = graph.stopping_values
        gain = rates * (_next_values(graph, base) - base[:, None]) - self.cost
        gain[rates <= 0.0] = -np.inf
        # the first sender of the highest gain, if it beats ROUNDING
        return [(i + 1,) if gain[k, i] > ROUNDING else ()
                for k, i in enumerate(gain.argmax(axis=1).tolist())]


@dataclass
class DpSolution:
    """Exact receiver optimum against fixed AoN tables, by node id."""

    values: list                 # value
    best_sender: list            # sender or 0
    stop_optimal: list           # bool
    continue_optimal: list       # bool
    continuation: list           # best continuation value


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
    rates = _rate_table(graph, sender_policies)
    stop = graph.stopping_values
    values, cont = np.zeros(len(graph)), np.full(len(graph), -np.inf)
    best = np.zeros(len(graph), dtype=int)
    # children reveal one sender more, so each layer reads only the next
    layer = (graph.cells >= 0).sum(axis=1)
    for size in reversed(range(prior.n_senders + 1)):
        at = np.flatnonzero(layer == size)
        with np.errstate(all="ignore"):  # a rate of 0 never wins
            score = _next_values(graph, values, at) - cost / rates[at]
        # in sender order, a later sender must win by more than ROUNDING
        for i in range(prior.n_senders):
            win = (rates[at, i] > 0.0) & (score[:, i] > cont[at] + ROUNDING)
            best[at[win]], cont[at[win]] = i + 1, score[win, i]
        values[at] = np.where(cont[at] > stop[at], cont[at], stop[at])
    return graph, DpSolution(
        values.tolist(), best.tolist(), (stop >= cont - ROUNDING).tolist(),
        ((best != 0) & (cont >= stop - ROUNDING)).tolist(), cont.tolist())


class DpOptimal(ReceiverPolicy):
    """Receiver playing the exact optimum against fixed AoN tables.

    Ties are resolved toward stopping by default (the off-path reading);
    ``prefer_continue=True`` gives the on-path receiver who accepts when
    indifferent.
    """

    def __init__(self, solution: DpSolution, prefer_continue: bool = False):
        self.solution = solution
        self.prefer_continue = prefer_continue

    def candidates(self, graph, rates):
        sol = self.solution
        go = (sol.continue_optimal if self.prefer_continue
              else [not stop for stop in sol.stop_optimal])
        return [(i,) if ok else () for i, ok in zip(sol.best_sender, go)]


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
    """Shared episode core for traced and lean replications.  The tables a
    walk reads are built once from the graph: the rate table, each node's
    receiver candidates, ``child`` of ``graph.edges``, each node's stopping
    action, and per flat prior cell its CDF value and joint index."""

    def __init__(self, dp, prior, cost, sender_policies, receiver_policy,
                 graph=None, round_cap=DEFAULT_ROUND_CAP):
        self.actions = dp.actions
        self.cost = cost
        graph = self.graph = graph or StateGraph(prior, dp)
        self.round_cap = round_cap
        n = self.n = prior.n_senders
        # u[0], n order uniforms and n blocks, in whole Philox outputs of 4
        self.width = 4 * -(-(1 + 2 * n) // 4)
        rates = _rate_table(graph, sender_policies)
        self.candidates = receiver_policy.candidates(graph, rates)
        self.rates = rates.tolist()
        self.child = graph.edges[0].tolist()
        self.stop_actions = graph.stop_actions.tolist()
        mass = prior.mass.ravel()
        self.cdf = np.cumsum(mass).tolist()
        self.last = int(np.flatnonzero(mass > 0)[-1])
        self.joint = list(zip(*(a.ravel().tolist()
                                for a in np.indices(prior.mass.shape))))
        self.labels = [s.values for s in prior.spaces]
        self.utility = np.broadcast_to(
            dp.utility, (len(dp.actions),) + prior.mass.shape)

    def play(self, row, record=False):
        """One episode on one row of uniforms (see the module docstring)."""
        n, cap = self.n, self.round_cap
        candidates, rates, child = self.candidates, self.rates, self.child
        # a u past the CDF's rounded top lands on the last cell with mass
        flat = min(bisect_right(self.cdf, row[0]), self.last)
        joint = self.joint[flat]
        visits = dict.fromkeys(range(1, n + 1), 0)
        rows = []
        node = rounds = 0  # the root: nothing revealed
        j = n + 1
        while True:
            senders = candidates[node]
            if not senders:
                break
            choice = (min(senders, key=row.__getitem__) if senders[1:]
                      else senders[0])
            lam = rates[node][choice - 1]
            if lam >= 1.0:
                tail = 0.0
            elif lam > 0.0:
                tail = log(1.0 - row[j]) / log1p(-lam)
            else:
                raise RoundLimitExceeded(
                    f"receiver consults sender {choice} forever at state "
                    f"{node} (reveal probability 0)")
            # the block is 1 + floor(tail); compared as a float, so an
            # infinite tail raises here too
            if rounds + tail >= cap:
                raise RoundLimitExceeded(
                    f"episode exceeded the round cap {cap}")
            block = 1 + int(tail)
            j += 1
            value = joint[choice]
            nxt = child[node][choice - 1][value]
            if record:
                offer_row = tuple((i, rates[node][i - 1])
                                  for i in self.graph.unrevealed(node))
                rows.extend(RoundRecord(r, offer_row, choice, None, node)
                            for r in range(rounds, rounds + block - 1))
                rows.append(RoundRecord(rounds + block - 1, offer_row, choice,
                                        self.labels[choice][value], nxt))
            visits[choice] += block
            rounds += block
            node = nxt
        a_idx = self.stop_actions[node]
        return EpisodeTrace(
            state=tuple(map(getitem, self.labels, joint)),
            rounds=rows,
            visits=visits,
            total_rounds=rounds,
            cost=self.cost * rounds,
            action=self.actions[a_idx],
            realized_utility=self.utility.item((a_idx,) + joint),
            final_node=node,
        )


@lru_cache(maxsize=1)
def _row_block(seed: int, width: int, block: int) -> np.ndarray:
    """Rows ``block * ROW_BLOCK`` onward.  Row k starts at Philox counter
    k * width / 4 whichever block holds it."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    bits = np.random.Philox(key=key,
                            counter=[block * ROW_BLOCK * width // 4, 0, 0, 0])
    return np.random.Generator(bits).random((ROW_BLOCK, width))


def episode_rng(seed: int, episode: int, width: int) -> list:
    """Row ``episode`` of the seed's counter-based stream: ``width``
    uniforms in [0, 1) that depend only on (seed, episode, width)."""
    block, at = divmod(episode, ROW_BLOCK)
    return _row_block(seed, width, block)[at].tolist()


def run_episode(dp, prior, cost, sender_policies, receiver_policy, seed,
                round_cap: int = DEFAULT_ROUND_CAP, episode: int = 0,
                graph: StateGraph | None = None) -> EpisodeTrace:
    """Simulate one episode with a full per-round trace."""
    runner = _Runner(dp, prior, cost, sender_policies, receiver_policy,
                     graph=graph, round_cap=round_cap)
    return runner.play(episode_rng(seed, episode, runner.width), record=True)


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
                      replications, seed, round_cap, graph)[0]


def _replicate(dp, prior, cost, sender_policies, receiver_policy,
               replications, seed, round_cap=DEFAULT_ROUND_CAP, graph=None,
               traced=0) -> tuple:
    """The replication loop behind ``monte_carlo`` and the ``simulate``
    command: episode k plays on row k of the seed's stream
    (``episode_rng``).  Returns the summary, one row per episode (rounds,
    cost, action, payoff, then the visits to each sender) and the traces
    of the first ``traced`` episodes, with their per-round records."""
    if replications < 1:
        raise ValueError("need at least one replication")
    runner = _Runner(dp, prior, cost, sender_policies, receiver_policy,
                     graph=graph, round_cap=round_cap)
    n, width, play = prior.n_senders, runner.width, runner.play
    rows, traces = [], []
    for k in range(replications):
        trace = play(episode_rng(seed, k, width), k < traced)
        rows.append((trace.total_rounds, trace.cost, trace.action,
                     trace.payoff, *trace.visits.values()))
        if k < traced:
            traces.append(trace)
    visits = np.fromiter((v for row in rows for v in row[4:]), float,
                         replications * n).reshape(replications, n)
    payoffs = np.fromiter((row[3] for row in rows), float, replications)
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
        stopping_times=Counter(row[0] for row in rows),
    ), rows, traces


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
