"""Decision problems and the value of information.

All expectations here are exact enumerations; nothing is sampled.  The
utility table may either cover the full joint space or carry size-1 axes
for components it does not depend on (numpy broadcasting fills them in),
which keeps payoff-component-only problems cheap even on fine grids.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .environment import (
    Belief,
    Experiment,
    JointPrior,
    _check_experiment,
    _frozen,
    condition_on_components,
)
from .errors import UnknownComponent
from .tolerance import ROUNDING, SLACK_TOL


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """Finite action set with a real-valued utility table.

    ``utility[a]`` is an array over the joint state space; axes where the
    utility does not vary may have size 1 and are broadcast against beliefs.
    """

    actions: tuple
    utility: np.ndarray

    def __init__(self, actions, utility):
        actions = tuple(actions)
        if len(actions) == 0:
            raise ValueError("need at least one action")
        arr = np.array(utility, dtype=float)  # a copy: lattices are shared
        if arr.ndim < 2 or arr.shape[0] != len(actions):
            raise ValueError("utility table must have one block per action")
        if not np.all(np.isfinite(arr)):
            raise ValueError("utility table must be finite and fully populated")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utility", _frozen(arr))

    @classmethod
    def from_state_table(cls, actions, table, n_components):
        """Utility that depends only on the payoff component, broadcast over
        all sender components."""
        arr = np.asarray(table, dtype=float)
        if arr.ndim != 2:
            raise ValueError("state table must be actions x payoff-values")
        arr = arr.reshape(arr.shape + (1,) * (n_components - 1))
        return cls(actions, arr)


@dataclass(frozen=True)
class ValueReport:
    stopping_value: float
    full_info_value: float
    optimal_action: object

    def __post_init__(self):
        if self.full_info_value < self.stopping_value - SLACK_TOL:
            raise ValueError("full-information value below stopping value")


def _check_table(dp: DecisionProblem, mass: np.ndarray):
    if dp.utility.ndim != mass.ndim + 1:
        raise ValueError(
            f"utility table has {dp.utility.ndim - 1} component axes, "
            f"environment has {mass.ndim}"
        )
    np.broadcast_shapes(dp.utility.shape[1:], mass.shape)


def _expected_utilities(dp: DecisionProblem, mass: np.ndarray,
                        per_sender_values: bool = False) -> np.ndarray:
    """E[u(a, omega)] per action under an (unnormalized) mass array, or per
    action and sender-value combination.  No actions x joint array is
    built: the payoff axis is contracted against the utility table, and
    sender axes on which the utility varies are batch axes.  Per sender
    values, a last row follows the actions: the expected value of the
    constant max|u|, P max|u|, the scale of their rounding, which sums
    and reweights along with them."""
    _check_table(dp, mass)
    n = mass.ndim - 1
    u = dp.utility
    kept = [k for k in range(n + 1) if u.shape[1 + k] > 1]
    u = u.reshape((u.shape[0],) + tuple(u.shape[1 + k] for k in kept))
    if per_sender_values:
        u = np.concatenate([u, np.full((1,) + u.shape[1:], np.abs(u).max())])
    out = [n + 1] + (list(range(1, n + 1)) if per_sender_values else [])
    return np.einsum(u, [n + 1] + kept, mass, list(range(n + 1)), out,
                     optimize=True)


def _stopping_value(dp: DecisionProblem, mass: np.ndarray) -> float:
    return float(_expected_utilities(dp, mass).max())


def stopping_utility(dp: DecisionProblem, belief: Belief) -> ValueReport:
    """Best expected utility from acting now; ties broken by lowest action
    index."""
    eu = _expected_utilities(dp, belief.mass)
    best = int(np.argmax(eu))
    return ValueReport(
        stopping_value=float(eu[best]),
        full_info_value=full_info_utility(dp, belief),
        optimal_action=dp.actions[best],
    )


def full_info_utility(dp: DecisionProblem, belief: Belief) -> float:
    """Expected utility when the exact state will be learned before acting."""
    _check_table(dp, belief.mass)
    best = dp.utility.max(axis=0)  # broadcast axes stay size 1
    return float((best * belief.mass).sum())


def experiment_value(dp: DecisionProblem, belief: Belief,
                     experiment: Experiment) -> float:
    """Expected stopping-utility gain from observing one experiment.  Each
    message is scored on its unnormalized joint mass, which never has to be
    renormalized however small its probability."""
    _check_experiment(belief, experiment)
    shape = [1] * belief.mass.ndim
    shape[experiment.sender] = -1
    total = 0.0
    for lik in experiment.kernel.T:
        joint = belief.mass * lik.reshape(shape)
        if joint.any():
            total += _stopping_value(dp, joint)
    return total - _stopping_value(dp, belief.mass)


def _star(a: np.ndarray, axes) -> np.ndarray:
    """Append to each given axis one slot holding the sum over that axis."""
    for ax in axes:
        a = np.concatenate([a, a.sum(axis=ax, keepdims=True)], axis=ax)
    return a


class _Lattice:
    """Every exact-revelation node of one mass array at once.

    Arrays over nodes have shape prod(k_i + 1): sender ``i`` owns axis
    ``i - 1`` (axis ``i`` of ``eu``), whose slots ``0..k_i-1`` are her
    values and whose last slot, ``-1``, means "not yet revealed".  Entries
    are weighted by the node's mass, so completions add up by plain sums
    (the zeta transform over the subset lattice): ``mass`` is P, ``eu``
    the expected utility per action times P, then P max|u|, ``value`` W
    = max_a eu.  ``gain`` takes G_i's terms from ``_gain_terms``, the
    kernel that the garbled-belief tables of ``conditions`` share.  Every
    array it holds or returns is read-only, as ``_lattice`` shares it.
    """

    def __init__(self, dp: DecisionProblem, mass: np.ndarray):
        n = self.n = mass.ndim - 1
        eu = _expected_utilities(dp, mass, per_sender_values=True)
        self.eu = _frozen(_star(eu, range(1, n + 1)))
        self.mass = _frozen(_star(mass.sum(axis=0), range(n)))
        self.value = _frozen(self.eu[:-1].max(axis=0))
        # W summed per revealed set: one [unrevealed, revealed] axis per sender
        c = self.value
        for _ in range(n):
            c = np.stack([c[..., -1], c[..., :-1].sum(axis=-1)])
        self._coalitions = _frozen(c)
        rows = []  # the positive-mass nodes of each revealed set
        for r in range(n + 1):
            for S in itertools.combinations(range(n), r):
                layer = tuple(slice(-1) if ax in S else -1 for ax in range(n))
                found = np.argwhere(self.mass[layer] > 0.0)
                block = np.full((len(found), n), -1)
                block[:, list(S)] = found
                rows.append(block)
        self._nodes = _frozen(np.concatenate(rows))
        self._gains = {}
        self._residuals = {}

    def nodes(self) -> np.ndarray:
        """Indices of the positive-mass nodes, one row each, by number of
        revealed senders, then revealed set, then values (row-major)."""
        return self._nodes

    def coalition(self, subset) -> float:
        """E_{w_S}[ U(mu'(w_S)) ]: W summed over the nodes that reveal
        exactly the senders in the subset."""
        subset = set(subset)
        if not subset <= set(range(1, self.n + 1)):
            raise UnknownComponent(f"sender index out of range in {subset}")
        return float(self._coalitions[tuple(int(i in subset)
                                            for i in range(1, self.n + 1))])

    def coalitions(self) -> np.ndarray:
        """``coalition`` of every subset, indexed by bitmask: bit ``i - 1``
        is set where sender ``i`` is revealed."""
        return self._coalitions.transpose().ravel()

    def gain(self, sender: int) -> np.ndarray:
        """G_i where the sender is unrevealed (her axis kept with size 1):
        the sum over her values of max_a EU - EU of the node's best action.
        Every term is >= 0, and 0 up to rounding counts as 0, so G_i is
        exactly 0 where no value of hers changes the action."""
        if sender not in self._gains:
            if not 1 <= sender <= self.n:
                raise UnknownComponent(f"sender index {sender} out of range")
            eu = np.moveaxis(self.eu, sender, -1)
            value = np.moveaxis(self.value, sender - 1, -1)[..., :-1]
            terms = _gain_terms(eu[..., :-1], eu[..., -1:], value)
            self._gains[sender] = _frozen(np.moveaxis(
                terms.sum(axis=-1, keepdims=True), -1, sender - 1))
        return self._gains[sender]

    def residual(self, sender: int) -> np.ndarray:
        """H_i, shaped like G_i: G_i summed over all completions of the other
        unrevealed senders, the expected residual value times P."""
        if sender not in self._residuals:
            g = self.gain(sender).squeeze(axis=sender - 1)
            h = _star(g[(slice(-1),) * g.ndim], range(g.ndim))
            self._residuals[sender] = _frozen(np.expand_dims(h, sender - 1))
        return self._residuals[sender]


# each (prior or belief, decision problem)'s lattice, while both live
_LATTICES = weakref.WeakKeyDictionary()


def _lattice(dp: DecisionProblem, source) -> _Lattice:
    """The one ``_Lattice`` of ``source.mass`` (a prior or a belief) under
    ``dp``: built on the first call for the pair, then shared by every
    reader, and freed with the source or the decision problem.  Sharing is
    safe because both inputs and the lattice's arrays are read-only."""
    by_dp = _LATTICES.setdefault(source, weakref.WeakKeyDictionary())
    if dp not in by_dp:
        by_dp[dp] = _Lattice(dp, source.mass)
    return by_dp[dp]


def _gain_terms(eu: np.ndarray, total: np.ndarray,
                value: np.ndarray = None) -> np.ndarray:
    """The terms of G_i, one per value of hers: max_a EU - EU of the action
    that is best in ``total``.  ``eu`` holds the expected utilities per
    action times P, then P max|u|, with her values on one axis; ``total``
    is ``eu`` summed over that axis (kept with size 1); ``value`` is max_a
    EU where the caller has it.  Each term is >= 0, and one at most
    ``ROUNDING`` times its P max|u| is 0, so actions that tie exactly but
    round an ulp apart give G_i = 0 and the rate ``inf``, not about 1e14.
    Only rates far above 1 (the episode engine caps them at 1) move, and a
    sender payoff by less than that threshold over the cost."""
    best = total[:-1].argmax(axis=0)[None]
    stay = np.take_along_axis(eu[:-1], best, axis=0)[0]
    if value is None:
        value = eu[:-1].max(axis=0)
    return _snap(value - stay, eu[-1])


def _snap(terms: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The terms, with 0 up to rounding (see ``_gain_terms``) set to 0."""
    return np.where(terms > ROUNDING * scale, terms, 0.0)


def _revealed_labels(prior: JointPrior, rows: np.ndarray):
    """``label(k)``: the value labels of the senders that the k-th of the
    lattice nodes ``rows`` reveals, built on the first call for that node;
    later calls share that dict, cached for as long as ``label`` lives."""
    labels = [space.values for space in prior.spaces[1:]]
    return functools.cache(lambda k: {j: labels[j - 1][v] for j, v
                                      in enumerate(rows[k].tolist(), 1)
                                      if v >= 0})


def full_reveal_value(dp: DecisionProblem, belief: Belief | JointPrior,
                      sender: int) -> float:
    """Value of learning one sender's component exactly at this belief, or
    at a prior as its round-0 belief."""
    lattice = _lattice(dp, belief)
    return float(lattice.gain(sender)[(-1,) * lattice.n])


def full_reveal_value_given(dp: DecisionProblem, prior: JointPrior,
                            sender: int, assignment: dict) -> float:
    """Residual value of a sender's component after conditioning the prior
    on exact values of other components."""
    if sender in assignment:
        raise UnknownComponent(f"sender {sender} is already conditioned on")
    belief = condition_on_components(prior, assignment) if assignment else prior
    return full_reveal_value(dp, belief, sender)


def expected_conditioned_value(dp: DecisionProblem, source, subset) -> float:
    """E over realizations of the subset's components of the stopping
    utility after conditioning on them:  E_{w_S}[ U(mu'(w_S)) ].

    The empty subset gives the current stopping utility.
    """
    return _lattice(dp, source).coalition(subset)


def coalition_value(dp: DecisionProblem, prior: JointPrior, subset) -> float:
    """Ex-ante expected increase in stopping utility from learning exactly
    the components in the subset; zero for the empty set."""
    lattice = _lattice(dp, prior)
    return lattice.coalition(subset) - lattice.coalition(())


def expected_residual_value(dp: DecisionProblem, source, sender: int) -> float:
    """E over the other senders' components of the residual value of this
    sender's component:  E_{w_{-i}}[ vbar(w_i | w_{-i}) ]."""
    lattice = _lattice(dp, source)
    return float(lattice.residual(sender)[(-1,) * lattice.n])
