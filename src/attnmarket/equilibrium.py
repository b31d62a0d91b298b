"""All-or-nothing equilibrium objects: the reachable belief graph, the
monopoly rate, multi-sender rate tables, payoffs, and marginal-contribution
prices.

Equilibrium play only ever reveals components exactly, so the belief state
space is the finite set of pairs (revealed senders, their values).  Rates
and payoffs are materialized as tables over this graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .conditions import check_assumption2, check_substitutes
from .decision import (
    DecisionProblem,
    _Lattice,
    _revealed_values,
    full_reveal_value,
)
from .environment import Belief, JointPrior, condition_on_components, merge_senders
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

    def label(self) -> str:
        if not self.revealed:
            return "prior"
        return ",".join(f"{i}={v}" for i, v in zip(self.revealed, self.values))


class StateGraph:
    """Reachable exact-revelation states of an environment; stopping values
    and revelation transitions are read off the prior's lattice."""

    def __init__(self, prior: JointPrior, dp: DecisionProblem):
        self.prior = prior
        self.dp = dp
        self.nodes: list[StateNode] = []
        self._lattice = _Lattice(dp, prior.mass)
        self._index: dict = {}
        self._cells = [tuple(map(int, cell)) for cell in self._lattice.nodes()]
        self._ids = {cell: k for k, cell in enumerate(self._cells)}
        for cell in self._cells:
            assignment = _revealed_values(prior, cell)
            key = (tuple(assignment), tuple(assignment.values()))
            self._index[key] = len(self.nodes)
            self.nodes.append(StateNode(len(self.nodes), *key))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> StateNode:
        return self.nodes[0]

    def node_id(self, revealed, values) -> int:
        key = (tuple(revealed), tuple(values))
        if key not in self._index:
            raise KeyError(f"no reachable state {key}")
        return self._index[key]

    def unrevealed(self, node_id: int) -> tuple:
        node = self.nodes[node_id]
        return tuple(i for i in range(1, self.prior.n_senders + 1)
                     if i not in node.revealed)

    def belief(self, node_id: int) -> Belief:
        node = self.nodes[node_id]
        if node.revealed:
            return condition_on_components(self.prior, node.assignment)
        return self.prior.belief()

    def stopping_value(self, node_id: int) -> float:
        cell = self._cells[node_id]
        return float(self._lattice.value[cell] / self._lattice.mass[cell])

    def transitions(self, node_id: int, sender: int):
        """Positive-probability revelations of one sender's component:
        list of (value label, probability, child node id)."""
        if sender not in self.unrevealed(node_id):
            raise UnknownComponent(
                f"sender {sender} already revealed at state {node_id}")
        mass = self._lattice.mass
        cell = list(self._cells[node_id])
        total = mass[tuple(cell)]
        out = []
        for v, value in enumerate(self.prior.spaces[sender].values):
            cell[sender - 1] = v
            if mass[tuple(cell)] > 0.0:
                out.append((value, float(mass[tuple(cell)] / total),
                            self._ids[tuple(cell)]))
        return out


@dataclass
class EquilibriumProfile:
    """AoN rate table over the reachable graph plus theoretical payoffs.

    ``sender_payoffs[i]`` is sender ``i``'s expected visit count and
    ``receiver_payoff`` the receiver's expected utility net of attention
    costs.  ``equilibrium`` is False when the structural conditions were
    overridden with ``force``.
    """

    graph: StateGraph
    cost: float
    rates: dict = field(default_factory=dict)       # (node_id, sender) -> prob
    sender_payoffs: dict = field(default_factory=dict)
    receiver_payoff: float = 0.0
    equilibrium: bool = True
    reports: dict = field(default_factory=dict)

    def rate(self, node_id: int, sender: int) -> float:
        return self.rates[(node_id, sender)]

    def rate_table(self, sender: int) -> dict:
        return {nid: r for (nid, s), r in self.rates.items() if s == sender}

    def rows(self):
        """Profile rows (state id, revealed set, realization, sender, rate)
        for serialization."""
        for (nid, sender), rate in sorted(self.rates.items()):
            node = self.graph.nodes[nid]
            yield {
                "state_id": nid,
                "revealed_set": "|".join(str(i) for i in node.revealed),
                "realization": "|".join(str(v) for v in node.values),
                "sender": sender,
                "rate": rate,
            }


def monopoly_rate(dp: DecisionProblem, prior: JointPrior, cost: float) -> float:
    """Revelation probability that extracts the full surplus from a single
    sender: cost divided by the value of her information."""
    if prior.n_senders != 1:
        raise UnknownComponent("monopoly rate needs exactly one sender")
    value = full_reveal_value(dp, prior.belief(), 1)
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
    profile = EquilibriumProfile(
        graph=graph, cost=cost,
        equilibrium=ass2.holds and subs.holds,
        reports=reports,
    )
    lattice = graph._lattice
    everyone = tuple(range(1, prior.n_senders + 1))
    for node, cell in zip(graph.nodes, graph._cells):
        for i in graph.unrevealed(node.id):
            # cost / residual value, with H_i = residual value * P
            residual = lattice.residual(i)[cell]
            profile.rates[(node.id, i)] = (
                float(cost * lattice.mass[cell] / residual)
                if residual > 0.0 else float("inf"))
    profile.sender_payoffs = {i: float(lattice.residual(i)[graph._cells[0]])
                              / cost for i in everyone}
    profile.receiver_payoff = (
        lattice.coalition(everyone)
        - cost * sum(profile.sender_payoffs.values()))
    return profile


def marginal_prices(dp: DecisionProblem, prior: JointPrior) -> dict:
    """Marginal-contribution price of each sender in the one-shot exchange:
    f(N) - f(N minus i)."""
    lattice = _Lattice(dp, prior.mass)
    everyone = set(range(1, prior.n_senders + 1))
    return {i: lattice.coalition(everyone) - lattice.coalition(everyone - {i})
            for i in sorted(everyone)}


def merge_environment(prior: JointPrior, dp: DecisionProblem,
                      first: int = 1, second: int = 2):
    """Environment where two senders are replaced by one holding the
    product component (for concentration comparisons)."""
    merged_prior, to_original = merge_senders(prior, first, second)
    old_index = {}
    for k, space in enumerate(prior.spaces):
        old_index[k] = {v: j for j, v in enumerate(space.values)}
    u_full = np.broadcast_to(
        dp.utility, (len(dp.actions),) + prior.mass.shape)
    new_u = np.empty((len(dp.actions),) + merged_prior.mass.shape)
    grids = [s.values for s in merged_prior.spaces]
    for combo in itertools.product(*[range(len(g)) for g in grids]):
        joint = tuple(g[v] for g, v in zip(grids, combo))
        orig = to_original(joint)
        idx = tuple(old_index[k][v] for k, v in enumerate(orig))
        new_u[(slice(None),) + combo] = u_full[(slice(None),) + idx]
    return merged_prior, DecisionProblem(dp.actions, new_u)
