"""All-or-nothing equilibrium objects: the reachable belief graph, the
monopoly rate, multi-sender rate tables, payoffs, and marginal-contribution
prices.

Equilibrium play only ever reveals components exactly, so the belief state
space is the finite set of pairs (revealed senders, their values).  Rates
and payoffs are materialized as tables over this graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conditions import check_assumption2, check_substitutes
from .decision import DecisionProblem, _lattice, full_reveal_value
from .environment import (
    Belief,
    JointPrior,
    _fuse_axes,
    condition_on_components,
    merge_senders,
)
from .errors import AssumptionViolated, ConditionNotVerified, UnknownComponent


@dataclass(frozen=True)
class StateNode:
    """One reachable belief state: a set of revealed senders with values."""

    id: int
    revealed: tuple        # sorted sender indices
    values: tuple          # value labels aligned with ``revealed``

    @property
    def assignment(self) -> dict:
        return dict(zip(self.revealed, self.values))


class StateGraph:
    """Reachable exact-revelation states of an environment, as arrays over
    the prior's lattice.  Node ``k`` is row ``k`` of ``cells`` (each sender's
    revealed value index, -1 while unrevealed; lattice node order); ``ids``
    maps every lattice cell to its node id, -1 where it has no mass.
    ``stopping_values`` and ``stop_actions`` hold each node's best expected
    utility and the index of an action attaining it."""

    def __init__(self, prior: JointPrior, dp: DecisionProblem):
        self.prior = prior
        self.dp = dp
        lattice = self._lattice = _lattice(dp, prior)
        self.cells = lattice.nodes()
        at = tuple(self.cells.T)
        self.ids = np.full(lattice.mass.shape, -1)
        self.ids[at] = np.arange(len(self.cells))
        self.stopping_values = lattice.value[at] / lattice.mass[at]
        self.stop_actions = lattice.eu[(slice(-1),) + at].argmax(axis=0)
        n = prior.n_senders
        by_mask = [tuple(i for i in range(1, n + 1) if not mask >> (i - 1) & 1)
                   for mask in range(1 << n)]
        masks = (self.cells >= 0) @ (1 << np.arange(n))
        self._unrevealed = [by_mask[m] for m in masks.tolist()]

    def __len__(self) -> int:
        return len(self.cells)

    def _node(self, node_id: int) -> StateNode:
        cell = self.cells[node_id].tolist()
        revealed = tuple(i for i, v in enumerate(cell, 1) if v >= 0)
        return StateNode(node_id, revealed, tuple(
            self.prior.spaces[i].values[cell[i - 1]] for i in revealed))

    @cached_property
    def nodes(self) -> list[StateNode]:
        return [self._node(k) for k in range(len(self))]

    @property
    def root(self) -> StateNode:
        return self._node(0)

    def node_id(self, revealed, values) -> int:
        key = (tuple(revealed), tuple(values))
        cell = [-1] * self.prior.n_senders
        for i, v in zip(*key):
            if 0 < i <= len(cell) and v in self.prior.spaces[i].values:
                cell[i - 1] = self.prior.spaces[i].values.index(v)
        k = int(self.ids[tuple(cell)])
        if k < 0 or self._node(k) != StateNode(k, *key):
            raise KeyError(f"no reachable state {key}")
        return k

    def unrevealed(self, node_id: int) -> tuple:
        return self._unrevealed[node_id]

    def belief(self, node_id: int) -> Belief:
        node = self._node(node_id)
        if node.revealed:
            return condition_on_components(self.prior, node.assignment)
        return self.prior.belief()

    def stopping_value(self, node_id: int) -> float:
        return float(self.stopping_values[node_id])

    @cached_property
    def edges(self) -> tuple:
        """``(child, prob)``, each nodes x n x max k_i: sender i revealing
        value index v at node k leads to ``child[k, i - 1, v]`` with
        probability mass[child] / mass[k]; -1 and 0 where i is revealed or
        v has no mass.  Built on first use."""
        sizes = [s.size for s in self.prior.spaces[1:]]
        child = np.full((len(self), len(sizes), max(sizes)), -1)
        for i, k in enumerate(sizes):
            cells = np.repeat(self.cells[:, None], k, 1)
            cells[:, :, i] = np.arange(k)
            child[:, i, :k] = self.ids[tuple(np.moveaxis(cells, 2, 0))]
        child[self.cells >= 0] = -1
        mass = self._lattice.mass[tuple(self.cells.T)]
        return child, np.where(child >= 0, mass[child] / mass[:, None, None],
                               0.0)

    def transitions(self, node_id: int, sender: int):
        """Positive-probability revelations of one sender's component:
        list of (value label, probability, child node id)."""
        if sender not in self.unrevealed(node_id):
            raise UnknownComponent(
                f"sender {sender} already revealed at state {node_id}")
        child, prob = (a[node_id, sender - 1] for a in self.edges)
        values = self.prior.spaces[sender].values
        return [(values[v], float(prob[v]), int(child[v]))
                for v in np.flatnonzero(child >= 0)]


@dataclass
class EquilibriumProfile:
    """AoN rate table over the reachable graph plus theoretical payoffs.

    ``rates`` is nodes x n: ``rates[k, i - 1]`` is sender ``i``'s raw rate
    at node ``k``, ``inf`` where her residual value is 0 and 0 where she
    is revealed.  ``sender_payoffs[i]`` is sender ``i``'s expected visit
    count and ``receiver_payoff`` the receiver's expected utility net of
    attention costs.  ``equilibrium`` is False when the structural
    conditions were overridden with ``force``.
    """

    graph: StateGraph
    cost: float
    rates: np.ndarray
    sender_payoffs: dict
    receiver_payoff: float
    equilibrium: bool
    reports: dict

    def rate(self, node_id: int, sender: int) -> float:
        if node_id < 0 or sender < 1:
            raise KeyError((node_id, sender))
        return float(self.rates[node_id, sender - 1])

    def rows(self):
        """Profile rows (state id, revealed set, realization, sender, rate)
        for every unrevealed sender, by state and then sender; each state's
        two strings are built once, from its row of ``graph.cells``."""
        spaces = self.graph.prior.spaces
        for k, (cell, rates) in enumerate(zip(self.graph.cells.tolist(),
                                              self.rates.tolist())):
            at = [(j, v) for j, v in enumerate(cell, 1) if v >= 0]
            revealed = "|".join(str(j) for j, _ in at)
            realization = "|".join(str(spaces[j].values[v]) for j, v in at)
            yield from ((k, revealed, realization, i, rate) for i, (v, rate)
                        in enumerate(zip(cell, rates), 1) if v < 0)


def monopoly_rate(dp: DecisionProblem, prior: JointPrior, cost: float) -> float:
    """Revelation probability that extracts the full surplus from a single
    sender: cost divided by the value of her information."""
    if prior.n_senders != 1:
        raise UnknownComponent("monopoly rate needs exactly one sender")
    value = full_reveal_value(dp, prior, 1)
    if cost >= value:
        raise AssumptionViolated(
            f"cost {cost} is not below the information value {value}")
    return cost / value


def aon_rates(dp: DecisionProblem, prior: JointPrior, cost: float, *,
              force: bool = False, substitutes_samples: int = 0,
              seed: int = 0) -> EquilibriumProfile:
    """Construct the all-or-nothing equilibrium profile.

    Rates are set at every reachable state so that each unrevealed sender
    is indifferent between being consulted now and only after all
    competitors have revealed.  Unless ``force`` is given, the residual
    value and substitutes conditions are verified first.
    """
    ass2 = check_assumption2(dp, prior, cost)
    subs = check_substitutes(dp, prior, samples=substitutes_samples, seed=seed)
    reports = {"assumption2": ass2, "substitutes": subs}
    if not force:
        if not ass2.holds:
            raise AssumptionViolated(
                f"residual value below cost at {len(ass2.witnesses)} "
                f"realizations (first: {ass2.witnesses[0]})")
        if not subs.holds:
            raise ConditionNotVerified(
                "substitutes condition fails; pass force=True to build a "
                "non-equilibrium profile", reports=reports)

    graph = StateGraph(prior, dp)
    lattice = graph._lattice
    everyone = tuple(range(1, prior.n_senders + 1))
    # cost / residual value at each (node, sender), with H_i = residual
    # value * P; 0 where the sender is revealed
    at = tuple(graph.cells.T)
    residual = np.stack([np.broadcast_to(lattice.residual(i),
                                         graph.ids.shape)[at]
                         for i in everyone], axis=1)
    mass = lattice.mass[at][:, None]
    with np.errstate(divide="ignore"):
        rates = np.where(residual > 0.0, cost * mass / residual, np.inf)
    rates[graph.cells >= 0] = 0.0
    root = (-1,) * prior.n_senders
    sender_payoffs = {i: float(lattice.residual(i)[root]) / cost
                      for i in everyone}
    return EquilibriumProfile(
        graph=graph, cost=cost, rates=rates, sender_payoffs=sender_payoffs,
        receiver_payoff=(lattice.coalition(everyone)
                         - cost * sum(sender_payoffs.values())),
        equilibrium=ass2.holds and subs.holds, reports=reports)


def marginal_prices(dp: DecisionProblem, prior: JointPrior) -> dict:
    """Marginal-contribution price of each sender in the one-shot exchange:
    f(N) - f(N minus i)."""
    lattice = _lattice(dp, prior)
    everyone = set(range(1, prior.n_senders + 1))
    return {i: lattice.coalition(everyone) - lattice.coalition(everyone - {i})
            for i in sorted(everyone)}


def merge_environment(prior: JointPrior, dp: DecisionProblem,
                      first: int = 1, second: int = 2):
    """Environment where two senders are replaced by one holding the
    product component (for concentration comparisons)."""
    merged_prior, _ = merge_senders(prior, first, second)
    a, b = sorted((first, second))
    u_full = np.broadcast_to(
        dp.utility, (len(dp.actions),) + prior.mass.shape)
    return merged_prior, DecisionProblem(dp.actions,
                                         _fuse_axes(u_full, a + 1, b + 1))
