"""Structural condition checks: residual values worth one visit, the
substitutes inequality, and discrete concavity of the coalition value.

The substitutes inequality quantifies over a continuum of beliefs; we
verify it exactly at every exact-revelation belief (the ones traversed by
equilibrium play) and probe off-path robustness at seeded random garbled
beliefs.  Both layers are reported separately in the witness list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .decision import DecisionProblem, _Lattice, _revealed_values
from .environment import Belief, Experiment, JointPrior, no_direct_info, update
from .errors import AttnMarketError, SubsetSpaceTooLarge
from .tolerance import SLACK_TOL

# The all-pairs M-natural check grows about 4.5x per sender: at 9 senders
# it makes 589,824 pair checks in about 3.5 s, at 10 about 20 s.
MAX_SUBSET_SENDERS = 9


@dataclass
class ConditionReport:
    """Outcome of one structural check."""

    name: str
    holds: bool
    margin: float
    witnesses: list = field(default_factory=list)
    checked: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "margin": self.margin,
            "checked": self.checked,
            "witnesses": [dict(w) for w in self.witnesses],
            "note": self.note,
        }


def check_assumption2(dp: DecisionProblem, prior: JointPrior,
                      cost: float) -> ConditionReport:
    """Every sender's component must be worth more than one visit at every
    positive-mass realization of the competitors' components.  With a
    single sender this reduces to the monopoly condition c < vbar."""
    if cost <= 0.0:
        raise ValueError("attention cost must be positive")
    report = ConditionReport("assumption2", holds=True, margin=np.inf)
    lattice = _Lattice(dp, prior.mass)
    cells = lattice.nodes()
    hidden = cells < 0
    for i in range(1, prior.n_senders + 1):
        # the nodes that reveal every sender but i
        rows = cells[hidden[:, i - 1] & (hidden.sum(axis=1) == 1)]
        at = tuple(rows.T)
        values = lattice.gain(i)[at] / lattice.mass[at]
        slack = values - cost
        report.checked += len(rows)
        report.margin = min(report.margin, float(slack.min()))
        for k in np.flatnonzero(slack <= SLACK_TOL):
            report.holds = False
            report.witnesses.append({
                "sender": i,
                "given": _revealed_values(prior, rows[k]),
                "residual_value": float(values[k]),
                "cost": cost,
            })
    return report


def _garbled_belief(prior: JointPrior, sender: int, rng) -> Belief | None:
    """A random belief formed by composed binary-channel garblings of
    components other than the given sender."""
    n = prior.n_senders
    others = [j for j in range(1, n + 1) if j != sender
              and prior.spaces[j].size > 1]
    if not others:
        return None
    belief = prior.belief()
    for _ in range(rng.integers(1, 4)):
        j = int(rng.choice(others))
        space = prior.spaces[j]
        split = int(rng.integers(1, space.size))
        one_values = set(rng.choice(space.size, size=split, replace=False))
        exp = Experiment.binary_channel(
            space, {space.values[v] for v in one_values},
            flip_prob=float(rng.uniform(0.05, 0.45)),
        )
        dist = belief.marginal(j) @ exp.kernel
        message = exp.messages[int(rng.choice(2, p=dist / dist.sum()))]
        belief = update(belief, exp, message)
    return belief


def _score_substitutes(report: ConditionReport, sender: int, layer: str,
                       lattice: _Lattice, at: tuple, revealed):
    """Score value now (G_i / P) against expected residual value (H_i / P)
    at the lattice nodes ``at``; ``revealed(k)`` labels the k-th node."""
    mass = lattice.mass[at]
    lhs = lattice.gain(sender)[at] / mass
    rhs = lattice.residual(sender)[at] / mass
    slack = lhs - rhs
    slack[(-SLACK_TOL <= slack) & (slack < 0.0)] = 0.0  # equality up to rounding
    report.checked += slack.size
    report.margin = min(report.margin, float(slack.min()))
    for k in np.flatnonzero(slack < -SLACK_TOL):
        report.holds = False
        report.witnesses.append({
            "sender": sender,
            "layer": layer,
            "revealed": revealed(k),
            "value_now": float(lhs[k]),
            "expected_residual_value": float(rhs[k]),
        })


def check_substitutes(dp: DecisionProblem, prior: JointPrior,
                      samples: int = 0, seed: int = 0) -> ConditionReport:
    """Verify that each sender's component is weakly more valuable the less
    competitors have revealed.

    Layer one checks every exact-revelation belief exhaustively; layer two
    checks ``samples`` random garbled beliefs per sender (each certified to
    carry no direct information from that sender).
    """
    if samples < 0:
        raise ValueError("need a non-negative number of samples")
    report = ConditionReport("substitutes", holds=True, margin=np.inf)
    report.note = ("exact on all revelation beliefs; "
                   f"{samples} sampled garbled beliefs per sender")
    rng = np.random.default_rng(seed)
    lattice = _Lattice(dp, prior.mass)
    cells = lattice.nodes()
    root = tuple(np.full((prior.n_senders, 1), -1))   # as a one-node index
    for i in range(1, prior.n_senders + 1):
        rows = cells[cells[:, i - 1] < 0]
        _score_substitutes(report, i, "revealed", lattice, tuple(rows.T),
                           lambda k: _revealed_values(prior, rows[k]))
        for _ in range(samples):
            belief = _garbled_belief(prior, i, rng)
            if belief is None:
                continue
            if not no_direct_info(belief, prior, i):
                raise AttnMarketError(
                    f"garbled belief for sender {i} carries direct "
                    "information from her own component")
            _score_substitutes(report, i, "garbled",
                               _Lattice(dp, belief.mass), root, lambda k: None)
    return report


def check_mnat_concave(dp: DecisionProblem, prior: JointPrior) -> ConditionReport:
    """Discrete (M-natural) concavity of the coalition value by exhaustive
    enumeration of subset pairs."""
    n = prior.n_senders
    if n > MAX_SUBSET_SENDERS:
        raise SubsetSpaceTooLarge(
            f"{n} senders exceed the exhaustive enumeration limit "
            f"of {MAX_SUBSET_SENDERS}"
        )
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
    if report.checked == 0:
        report.margin = 0.0
        report.note = "no subset triples to check"
    return report
