"""Finite probability core: component spaces, joint priors, beliefs,
experiments, and the Bayesian updating rule.

Joint states are enumerated in row-major order over component value
indices, with axis 0 the payoff component and axis ``i`` sender ``i``'s
component.  All masses live in dense numpy arrays of that shape, which
keeps iteration order deterministic and conditioning a pure slicing
operation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UnknownComponent, ZeroMassEvent, ZeroProbabilityMessage
from .tolerance import ROUNDING, TINY


@dataclass(frozen=True)
class ComponentSpace:
    """One component of the joint state: index 0 is the payoff component
    that no sender can reveal; indices 1..n belong to the senders."""

    id: int
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) == 0:
            raise ValueError(f"component {self.id} has no values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"component {self.id} has duplicate values")

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise UnknownComponent(
                f"value {value!r} not in component {self.id}"
            ) from None


def _as_mass_array(spaces, mass) -> np.ndarray:
    shape = tuple(s.size for s in spaces)
    if isinstance(mass, dict):
        arr = np.zeros(shape)
        for joint, p in mass.items():
            idx = tuple(s.index_of(v) for s, v in zip(spaces, joint))
            arr[idx] = p
    else:
        arr = np.asarray(mass, dtype=float).reshape(shape)
    return arr


def probabilities(values, where: str, axis=None) -> np.ndarray:
    """Validate probabilities: no entry below -ROUNDING, and the sum (each
    sum along ``axis``, when given) within ROUNDING of 1.  Returns the
    entries clipped at 0 and divided by their sums; ``where`` names the
    input in the ``ValueError`` raised otherwise."""
    arr = np.asarray(values, dtype=float)
    if np.any(arr < -ROUNDING):
        raise ValueError(f"{where} has a negative entry {float(arr.min())!r}")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum(axis=axis, keepdims=True)
    off = ~(np.abs(total - 1.0) <= ROUNDING)   # a nan sum is off too
    if np.any(off):
        raise ValueError(f"{where} sums to {float(total[off][0])!r}, not 1")
    return arr / total


def _validate_spaces(spaces):
    spaces = tuple(spaces)
    for k, s in enumerate(spaces):
        if s.id != k:
            raise ValueError(f"component ids must be 0..n in order, got {s.id} at {k}")
    return spaces


@dataclass(frozen=True, eq=False)
class JointPrior:
    """Common prior over the product of component spaces."""

    spaces: tuple
    mass: np.ndarray

    def __init__(self, spaces, mass):
        spaces = _validate_spaces(spaces)
        arr = probabilities(_as_mass_array(spaces, mass), "prior mass")
        arr.flags.writeable = False
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "mass", arr)

    @property
    def n_senders(self) -> int:
        return len(self.spaces) - 1

    @property
    def shape(self) -> tuple:
        return self.mass.shape

    def belief(self) -> "Belief":
        """The prior viewed as the round-0 belief."""
        return Belief(self.spaces, self.mass)

    def joint_states(self):
        """Iterate (value tuple, probability) in row-major order."""
        grids = [s.values for s in self.spaces]
        flat = self.mass.ravel()
        for k, joint in enumerate(itertools.product(*grids)):
            yield joint, flat[k]


@dataclass(frozen=True, eq=False)
class Belief:
    """Posterior over joint states, same enumeration as the prior."""

    spaces: tuple
    mass: np.ndarray

    def __init__(self, spaces, mass):
        spaces = _validate_spaces(spaces)
        arr = probabilities(_as_mass_array(spaces, mass), "belief mass")
        arr.flags.writeable = False
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "mass", arr)

    @property
    def n_senders(self) -> int:
        return len(self.spaces) - 1

    def marginal(self, component: int) -> np.ndarray:
        """Marginal distribution of one component."""
        self._check_component(component, allow_zero=True)
        axes = tuple(k for k in range(len(self.spaces)) if k != component)
        return self.mass.sum(axis=axes)

    def supported_on(self, prior: JointPrior) -> bool:
        """True when this belief puts no mass outside the prior's support."""
        return not np.any((self.mass > 0) & (prior.mass == 0))

    def _check_component(self, index: int, allow_zero: bool = False):
        lo = 0 if allow_zero else 1
        if not (lo <= index < len(self.spaces)):
            raise UnknownComponent(f"component index {index} out of range")


@dataclass(frozen=True, eq=False)
class Experiment:
    """Conditional distribution over messages given one sender's component.

    ``kernel[v, m]`` is the probability of message ``messages[m]`` when the
    sender's component takes its ``v``-th value.
    """

    sender: int
    messages: tuple
    kernel: np.ndarray
    space: ComponentSpace

    def __init__(self, sender, space, messages, kernel):
        if sender < 1:
            raise UnknownComponent("experiments belong to senders (index >= 1)")
        messages = tuple(messages)
        if len(set(messages)) != len(messages):
            raise ValueError("duplicate message labels")
        arr = np.asarray(kernel, dtype=float)
        if arr.shape != (space.size, len(messages)):
            raise ValueError(
                f"kernel shape {arr.shape} does not match "
                f"{space.size} values x {len(messages)} messages"
            )
        arr = probabilities(arr, "kernel row", axis=1)
        arr.flags.writeable = False
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "messages", messages)
        object.__setattr__(self, "kernel", arr)
        object.__setattr__(self, "space", space)

    # -- common constructors -------------------------------------------------

    @classmethod
    def fully_revealing(cls, space: ComponentSpace) -> "Experiment":
        """Announce the component value itself."""
        return cls(space.id, space, space.values, np.eye(space.size))

    @classmethod
    def aon(cls, space: ComponentSpace, reveal_prob: float,
            null_label: str = "null") -> "Experiment":
        """All-or-nothing offer: reveal exactly with probability
        ``reveal_prob``, otherwise send an uninformative null message."""
        if not 0.0 <= reveal_prob <= 1.0:
            raise ValueError("reveal probability must lie in [0, 1]")
        while null_label in space.values:
            null_label = "_" + null_label
        kernel = np.hstack([
            reveal_prob * np.eye(space.size),
            np.full((space.size, 1), 1.0 - reveal_prob),
        ])
        return cls(space.id, space, space.values + (null_label,), kernel)

    @classmethod
    def uninformative(cls, space: ComponentSpace,
                      label: str = "null") -> "Experiment":
        return cls.aon(space, 0.0, null_label=label)

    @classmethod
    def binary_channel(cls, space: ComponentSpace, one_values,
                       flip_prob: float) -> "Experiment":
        """Noisy indicator of ``value in one_values`` with the given flip
        probability (used for random garblings)."""
        one_values = set(one_values)
        kernel = np.empty((space.size, 2))
        for v, value in enumerate(space.values):
            p1 = 1.0 - flip_prob if value in one_values else flip_prob
            kernel[v] = (1.0 - p1, p1)
        return cls(space.id, space, ("0", "1"), kernel)

    def message_index(self, message) -> int:
        try:
            return self.messages.index(message)
        except ValueError:
            raise ValueError(f"unknown message {message!r}") from None


# -- operations ---------------------------------------------------------------


def condition_on_components(source, assignment: dict) -> Belief:
    """Condition a prior or belief on exact values of some sender components.

    ``assignment`` maps sender indices (>= 1) to observed values.  Raises
    ``ZeroMassEvent`` when the assigned event has probability zero.
    """
    spaces = source.spaces
    index = [slice(None)] * len(spaces)
    for sender, value in assignment.items():
        if not (1 <= sender < len(spaces)):
            raise UnknownComponent(f"sender index {sender} out of range")
        index[sender] = spaces[sender].index_of(value)
    sub = source.mass[tuple(index)]
    total = sub.sum()
    if total <= 0.0:
        raise ZeroMassEvent(f"assignment {assignment!r} has zero probability")
    out = np.zeros_like(source.mass)
    out[tuple(index)] = sub / total
    return Belief(spaces, out)


def _check_experiment(belief: Belief, experiment: Experiment):
    belief._check_component(experiment.sender)
    if experiment.space.values != belief.spaces[experiment.sender].values:
        raise UnknownComponent(
            f"experiment's component does not match sender {experiment.sender}"
        )


def message_distribution(belief: Belief, experiment: Experiment) -> np.ndarray:
    """Unconditional message distribution L(m) induced by an experiment."""
    _check_experiment(belief, experiment)
    marg = belief.marginal(experiment.sender)
    return marg @ experiment.kernel


def update(belief: Belief, experiment: Experiment, message) -> Belief:
    """Bayes update of the belief after observing one message."""
    _check_experiment(belief, experiment)
    m = experiment.message_index(message)
    lik = experiment.kernel[:, m]
    shape = [1] * len(belief.spaces)
    shape[experiment.sender] = -1
    post = belief.mass * lik.reshape(shape)
    total = post.sum()
    if total <= 0.0:
        raise ZeroProbabilityMessage(
            f"message {message!r} has probability zero under the belief"
        )
    return Belief(belief.spaces, post / total)


def no_direct_info(belief: Belief, prior: JointPrior, sender: int) -> bool:
    """True when the belief carries no direct information from ``sender``:
    for every realization of the other senders' components, the likelihood
    ratios across the sender's own values match the prior's.

    Ratios are compared by cross-multiplication on the joint of the sender
    components (payoff component marginalized out), so zero masses never
    divide.
    """
    belief._check_component(sender)
    # marginalize out the payoff component
    same = _ratio_test(prior.mass.sum(axis=0), sender)
    return same(belief.mass.sum(axis=0))


def _ratio_test(p: np.ndarray, sender: int):
    """The test of ``no_direct_info`` against ``p``, a joint of the sender
    components at any scale (axis ``sender - 1`` is the sender's): returns
    ``same(b)``, True when at every realization of the other senders'
    components the cross products ``b[v] * p[v']`` and ``b[v'] * p[v]`` of
    each pair of her values agree within ``ROUNDING`` relative to the
    larger.  ``p``'s side is gathered once, for any number of ``b``."""
    first, second = np.triu_indices(p.shape[sender - 1], 1)

    def pairs(a):
        # her values on the first axis, the others' joint on the second;
        # the pair (v, v') and (v', v) give the same test, so v < v' only
        a = np.moveaxis(a, sender - 1, 0)
        a = a.reshape(a.shape[0], -1)
        return a[first], a[second]

    p_first, p_second = pairs(p)

    def same(b: np.ndarray) -> bool:
        lhs, rhs = pairs(b)  # fresh arrays, worked on in place
        lhs *= p_second
        rhs *= p_first
        diff = np.abs(lhs - rhs)
        scale = np.maximum(lhs, rhs, out=lhs)
        np.maximum(scale, TINY, out=scale)
        scale *= ROUNDING
        return bool(np.all(diff <= scale))

    return same


def _fuse_axes(arr: np.ndarray, a: int, b: int) -> np.ndarray:
    """Move axis ``b`` next to axis ``a < b`` and fuse the two into one
    axis at position ``a``, ``a``'s index varying slowest."""
    moved = np.moveaxis(arr, b, a + 1)
    return moved.reshape(moved.shape[:a] + (-1,) + moved.shape[a + 2:])


def merge_senders(prior: JointPrior, first: int = 1, second: int = 2):
    """Replace two senders by a single sender holding the product component.

    Returns the merged prior together with a map from merged joint states to
    original ones.
    """
    if first == second:
        raise ValueError("cannot merge a sender with itself")
    a, b = sorted((first, second))
    spaces = prior.spaces
    for k in (a, b):
        if not (1 <= k < len(spaces)):
            raise UnknownComponent(f"sender index {k} out of range")
    # merged component replaces position a; b disappears; senders above b shift
    values = [s.values for s in spaces]
    values[a] = tuple(itertools.product(values[a], values[b]))
    del values[b]
    merged = JointPrior([ComponentSpace(k, v) for k, v in enumerate(values)],
                        _fuse_axes(prior.mass, a, b))

    def to_original(joint):
        orig = list(joint[:a]) + [joint[a][0]] + list(joint[a + 1:])
        orig.insert(b, joint[a][1])
        return tuple(orig)

    return merged, to_original
