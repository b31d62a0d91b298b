"""Built-in example environments used by tests, demos, and the docs.

Each builder returns ``(prior, decision_problem)``.  The payoff component
(axis 0) is a one-value dummy whenever the utility depends only on sender
components.
"""

from __future__ import annotations

import numpy as np

from .decision import DecisionProblem
from .environment import ComponentSpace, JointPrior, product_mass


def coin_match():
    """Two independent fair coins; guess whether they match.

    The components are perfect complements: one coin alone is worthless.
    """
    spaces = (
        ComponentSpace(0, ("-",)),
        ComponentSpace(1, ("H", "T")),
        ComponentSpace(2, ("H", "T")),
    )
    prior = JointPrior(spaces, np.full((1, 2, 2), 0.25))
    match = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    dp = DecisionProblem(("match", "differ"), np.stack([match, 1.0 - match]))
    return prior, dp


def pair_guess(p_heads: float = 0.7):
    """Two iid biased coins; guess both, utility = number of correct
    guesses.  Components are (exact) substitutes with additive values."""
    spaces = (
        ComponentSpace(0, ("-",)),
        ComponentSpace(1, ("H", "T")),
        ComponentSpace(2, ("H", "T")),
    )
    q = np.array([p_heads, 1.0 - p_heads])
    prior = JointPrior(spaces, np.einsum("i,j->ij", q, q)[None, ...])
    actions, tables = [], []
    for g1 in "HT":
        for g2 in "HT":
            actions.append(f"guess_{g1}{g2}")
            u = np.zeros((1, 2, 2))
            for i, v1 in enumerate("HT"):
                for j, v2 in enumerate("HT"):
                    u[0, i, j] = (v1 == g1) + (v2 == g2)
            tables.append(u)
    return prior, DecisionProblem(actions, np.stack(tables))


def hypothesis_testing(alpha: float = 1.0, beta: float = 1.0,
                       p_h1: float = 0.5):
    """Monopoly testing problem: one sender knows which hypothesis holds;
    alpha and beta price type-I and type-II errors."""
    spaces = (
        ComponentSpace(0, ("-",)),
        ComponentSpace(1, ("H0", "H1")),
    )
    prior = JointPrior(spaces, np.array([[1.0 - p_h1, p_h1]]))
    utility = np.array([
        [[0.0, -beta]],     # accept H0
        [[-alpha, 0.0]],    # accept H1
    ])
    return prior, DecisionProblem(("accept_h0", "accept_h1"), utility)


def conditionally_iid_signals(accuracy: float = 0.8, n: int = 2,
                              p_state1: float = 0.5,
                              abstain_utility: float | None = 0.55):
    """Binary payoff state with n conditionally iid symmetric binary
    signals, with an abstain action (default utility 0.55).  A residual
    value is exactly 0 wherever one more signal cannot change the action
    (with the defaults, from n = 3 on), and the AoN rate there is
    ``inf``."""
    if not 0.5 < accuracy < 1.0:
        raise ValueError("accuracy must lie in (0.5, 1)")
    spaces = [ComponentSpace(0, ("s0", "s1"))]
    spaces += [ComponentSpace(i, ("0", "1")) for i in range(1, n + 1)]
    cond = [[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]]
    prior = JointPrior(spaces, product_mass([1.0 - p_state1, p_state1],
                                            [cond] * n))
    actions = ["guess_0", "guess_1"]
    table = [[1.0, 0.0], [0.0, 1.0]]
    if abstain_utility is not None:
        actions.append("abstain")
        table.append([abstain_utility, abstain_utility])
    dp = DecisionProblem.from_state_table(actions, table, n + 1)
    return prior, dp
