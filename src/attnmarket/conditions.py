"""Structural condition checks: residual values worth one visit, the
substitutes inequality, and discrete concavity of the coalition value.

The substitutes inequality quantifies over a continuum of beliefs; we
verify it exactly at every exact-revelation belief (the ones traversed by
equilibrium play) and probe off-path robustness at seeded random garbled
beliefs.  Both layers are reported separately in the witness list.

A garbled belief is the prior times one likelihood vector per garbling of
a competitor's component: a weight ``w`` > 0 on the competitors' joint
values that does not vary along the sender's own axis.  Her best action
at each completion of the competitors is then the prior's, so G_i, H_i
and P at the belief are linear in ``w``.  Each sender's three tables are
built once per call from the prior lattice's per-value entries
(``_sender_tables``): her expected utilities per action and value over
the competitors' joint, the terms of H_i summed over her values, and the
mass summed over her values.  H_i's terms in the tables and G_i's per
sample come from ``decision._gain_terms``, the kernel of the lattice's G_i.

A sender's samples are one batch (``_garble``): one loop makes the
generator's draws, then the garblings are applied as arrays, one step
at a time, to all samples' joints of the sender components and their
likelihood vectors.  Each sample's joint is certified against the
prior's by ``environment._ratio_test``, the cross-multiplication test of
``no_direct_info``, whose prior side is gathered once per sender.  The
batch is scored by three stacked matrix-vector products with the
samples' ``w``, one ``_gain_terms`` and one ``_score_substitutes`` call,
in draw order: no lattice and no payoff x senders array per sample, and
each sample's floats are those of scoring it alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .decision import (
    DecisionProblem,
    _gain_terms,
    _Lattice,
    _revealed_labels,
)
from .environment import JointPrior, _ratio_test
from .errors import AttnMarketError, SubsetSpaceTooLarge
from .tolerance import SLACK_TOL

# The all-pairs M-natural check makes n * 4**(n - 1) exchange checks.  On
# 8 and 9 conditionally iid binary senders (131,072 and 589,824 checks,
# 4,368 and 14,688 witnesses) it takes 0.016 s and 0.058 s and raises peak
# RSS over the lattice's by 2.4 MB and 9.0 MB, mostly the witness dicts
# (one 2-core Xeon, Python 3.11, numpy 2.4).
MAX_SUBSET_SENDERS = 9

# A batch of garbled samples holds at most this many joint cells, or
# expected utilities per action and value, per array, so that memory stays
# bounded on wide joints: at 20 samples the benchmark scenarios take one
# batch each, and a 41 x 41 x 41 joint goes 3 samples at a time.
BATCH_ENTRIES = 1 << 18


@dataclass
class ConditionReport:
    """Outcome of one structural check.

    Witnesses that name the same node or subset share one label dict
    (``revealed``) or list (``S``, ``T``), so they are read-only."""

    name: str
    holds: bool
    margin: float
    witnesses: list = field(default_factory=list)
    checked: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        """The report as ``report.json`` holds it; the witness list is the
        report's own, not a copy."""
        return {
            "name": self.name,
            "holds": self.holds,
            "margin": self.margin,
            "checked": self.checked,
            "witnesses": self.witnesses,
            "note": self.note,
        }


def check_assumption2(dp: DecisionProblem, prior: JointPrior,
                      cost: float) -> ConditionReport:
    """Every sender's component must be worth more than one visit at every
    positive-mass realization of the competitors' components.  With a
    single sender this reduces to the monopoly condition c < vbar."""
    if not cost > 0.0:  # NaN included
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
        given = _revealed_labels(prior, rows)
        for k in np.flatnonzero(slack <= SLACK_TOL):
            report.holds = False
            report.witnesses.append({
                "sender": i,
                "given": given(k),
                "residual_value": float(values[k]),
                "cost": cost,
            })
    return report


def _garble(joint: np.ndarray, others: list, samples: int, rng):
    """``samples`` random garbled beliefs: composed binary-channel
    garblings of the ``others`` components, drawn from the prior's joint
    of the sender components ``joint``, each a noisy indicator of a
    random set of value indices.  Returns one samples x k_j array of
    likelihoods per sender (ones where she is not garbled) and the
    beliefs' joints of the sender components (samples x k_1 ... k_n),
    up to scale.

    The generator's draws come first, in the order that garbling one
    sample after another makes them.  ``rng.choice(others)`` draws
    ``others[rng.integers(len(others))]``, and ``rng.choice(2, p=q)``
    draws ``int(rng.random() >= q[0] / (q[0] + q[1]))``, so only that
    uniform is kept.  The garblings are then applied step by step to all
    samples at once, each message against its sample's joint so far.
    """
    sizes, n = joint.shape, joint.ndim
    start = np.cumsum((0,) + sizes)  # sender j's values: start[j-1]:start[j]
    steps = 3  # garblings per sample at most
    draws = []  # step, sample, competitor, its marked columns, flip, uniform
    for s in range(samples):
        for t in range(rng.integers(1, steps + 1)):
            j = others[rng.integers(len(others))]
            ones = rng.choice(sizes[j - 1], replace=False,
                              size=int(rng.integers(1, sizes[j - 1])))
            draws.append((t, s, j, start[j - 1] + ones,
                          rng.uniform(0.05, 0.45), rng.random()))
    step, sample, competitor, ones, flips, uniforms = zip(*draws)
    picked = np.zeros((steps, samples), dtype=int)  # 0 past a sample's last
    flip, uniform = np.zeros((2, steps, samples))
    picked[step, sample] = competitor
    flip[step, sample] = flips
    uniform[step, sample] = uniforms
    marked = np.zeros((steps, samples, start[-1]), dtype=bool)
    count = [len(v) for v in ones]
    marked[np.repeat(step, count), np.repeat(sample, count),
           np.concatenate(ones)] = True

    owner = np.repeat(np.arange(1, n + 1), sizes)  # the sender of a column
    rest = [tuple(b for b in range(1, n + 1) if b != a)
            for a in range(1, n + 1)]
    liks = np.ones((samples, start[-1]))
    joints = np.tile(joint, (samples,) + (1,) * n)
    for t in range(steps):
        rows = np.flatnonzero(picked[t])
        j = picked[t, rows]
        garbled = owner == j[:, None]
        f = flip[t, rows, None]
        p1 = np.where(marked[t, rows], 1.0 - f, f)
        kernel = np.stack([1.0 - p1, p1])
        kernel /= kernel.sum(axis=0)  # as Experiment does
        belief = joints[rows]
        marginals = np.concatenate([belief.sum(axis=a) for a in rest], axis=1)
        dist = np.sum(marginals * kernel, axis=2, where=garbled)
        total = dist.sum(axis=0)
        if not np.all((0.0 < total) & (total < np.inf)):
            raise AttnMarketError("a garbling's message distribution is "
                                  "not finite and positive")
        q = dist / total
        message = (uniform[t, rows] >= q[0] / (q[0] + q[1]))[:, None]
        lik = np.where(garbled, np.where(message, kernel[1], kernel[0]), 1.0)
        liks[rows] *= lik
        for a in set(j.tolist()):  # a row garbling another axis: times 1
            shape = [len(rows)] + [1] * n
            shape[a] = -1
            belief *= lik[:, start[a - 1]:start[a]].reshape(shape)
        joints[rows] = belief
    return np.split(liks, start[1:-1], axis=1), joints


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, the outer product of ``a``'s and ``b``'s rows, raveled."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _sender_tables(eu: np.ndarray, joint: np.ndarray, sender: int) -> tuple:
    """The tables that score a garbled belief for ``sender`` where nothing
    is revealed, from the prior's per-value ``eu`` (actions + 1 x k_1 x
    ... x k_n) and ``joint`` (k_1 x ... x k_n).  With ``w`` the belief's
    weight on the competitors' joint (R = the product of their k_j, in
    axis order), ``E @ w`` is her per-value ``eu`` (E: actions + 1 x k_i x
    R), ``D @ w`` is H_i and ``M @ w`` is P."""
    own = np.moveaxis(eu, sender, 1)
    E = np.ascontiguousarray(own).reshape(own.shape[:2] + (-1,))
    terms = _gain_terms(eu, eu.sum(axis=sender, keepdims=True))
    D = terms.sum(axis=sender - 1).ravel()
    return E, D, joint.sum(axis=sender - 1).ravel()


def _score_substitutes(report: ConditionReport, sender: int, layer: str,
                       gain, residual, mass, revealed):
    """Score value now (G_i / P) against expected residual value (H_i / P)
    at one or more nodes; ``revealed(k)`` labels the k-th node."""
    lhs, rhs = np.atleast_1d(gain / mass, residual / mass)
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
    carry no direct information from that sender).  Only competitors with
    at least 2 values are garbled, so a sender with no such competitor
    gets no garbled samples.
    """
    if samples < 0:
        raise ValueError("need a non-negative number of samples")
    report = ConditionReport("substitutes", holds=True, margin=np.inf)
    report.note = ("exact on all revelation beliefs; "
                   f"{samples} sampled garbled beliefs per sender")
    rng = np.random.default_rng(seed)
    lattice = _Lattice(dp, prior.mass)
    cells = lattice.nodes()
    # the prior's per-value entries, which a garbled belief reweights
    n = prior.n_senders
    values = (slice(None),) + (slice(-1),) * n
    eu, joint = lattice.eu[values], lattice.mass[values[1:]]
    label = _revealed_labels(prior, cells)  # one dict per node, for this call
    for i in range(1, n + 1):
        nodes = np.flatnonzero(cells[:, i - 1] < 0)
        at = tuple(cells[nodes].T)
        _score_substitutes(report, i, "revealed", lattice.gain(i)[at],
                           lattice.residual(i)[at], lattice.mass[at],
                           lambda k: label(nodes[k]))
        others = [j for j in range(1, n + 1)
                  if j != i and prior.spaces[j].size > 1]
        if not (samples and others):
            continue
        E, D, M = _sender_tables(eu, joint, i)
        certified = _ratio_test(joint, i)
        batch = max(1, BATCH_ENTRIES // max(joint.size, E[..., 0].size))
        for done in range(0, samples, batch):
            liks, beliefs = _garble(joint, others, min(batch, samples - done),
                                    rng)
            for belief in beliefs:
                if not certified(belief):
                    raise AttnMarketError(
                        f"garbled belief for sender {i} carries direct "
                        "information from her own component")
            # samples x 1 x the competitors' joint: each product below is
            # one matrix-vector product per sample, summed as for one w
            w = functools.reduce(_outer, liks[:i - 1] + liks[i:])[:, None]
            own = np.moveaxis(np.matmul(E, w[..., None])[..., 0], 0, 1)
            gain = _gain_terms(own, own.sum(axis=2, keepdims=True))
            _score_substitutes(report, i, "garbled", gain.sum(axis=1),
                               np.matmul(w, D[:, None]).ravel(),
                               np.matmul(w, M[:, None]).ravel(),
                               lambda k: None)
    return report


def check_mnat_concave(dp: DecisionProblem, prior: JointPrior) -> ConditionReport:
    """Discrete (M-natural) concavity of the coalition value f, by exhaustive
    enumeration: for all subsets S, T of the senders and every s in S - T,

        f(S) + f(T) <= max(f(S - s) + f(T + s),
                           max over t in T - S of f(S - s + t) + f(T + s - t)).

    f is an array indexed by bitmask, and each moved sender s is checked
    in one array pass over the pairs with s in S and not in T.  Each side
    is the same sum of two floats that a loop over the triples forms, so
    ``checked``, ``margin`` and the witnesses are that loop's; the
    witnesses are ordered by S and then T, each by the subsets' order by
    size and then lexicographically, and then by ascending ``moved``."""
    n = prior.n_senders
    if n > MAX_SUBSET_SENDERS:
        raise SubsetSpaceTooLarge(
            f"{n} senders exceed the exhaustive enumeration limit "
            f"of {MAX_SUBSET_SENDERS}"
        )
    coalitions = _Lattice(dp, prior.mass).coalitions()
    f = coalitions - coalitions[0]
    members = [list(S) for r in range(n + 1)
               for S in itertools.combinations(range(1, n + 1), r)]
    subsets = np.array([sum(1 << (i - 1) for i in S) for S in members])
    report = ConditionReport("mnat_concave", holds=True, margin=np.inf)
    found = []
    for s in range(n):
        bit = 1 << s
        rows = np.flatnonzero(subsets & bit)   # the S that hold s
        cols = np.flatnonzero(~subsets & bit)  # the T that do not
        S, T = subsets[rows, None], subsets[None, cols]
        lhs = f[S] + f[T]
        S, T = S ^ bit, T | bit  # S - s and T + s
        rhs = f[S] + f[T]
        for t in (1 << k for k in range(n) if k != s):
            np.maximum(rhs, f[S | t] + f[T & ~t], out=rhs,
                       where=((S & t) == 0) & ((T & t) != 0))  # t in T - S
        slack = rhs - lhs
        slack[(-SLACK_TOL <= slack) & (slack < 0.0)] = 0.0  # equality up to rounding
        report.checked += slack.size
        report.margin = min(report.margin, float(slack.min()))
        i, j = np.nonzero(slack < -SLACK_TOL)
        found.append((rows[i], cols[j], np.full(len(i), s + 1),
                      lhs[i, j], rhs[i, j]))
    if report.checked == 0:
        report.margin = 0.0
        report.note = "no subset triples to check"
        return report
    a, b, moved, lhs, rhs = (np.concatenate(c).tolist() for c in zip(*found))
    report.witnesses = [{"S": members[a[k]], "T": members[b[k]],
                         "moved": moved[k], "lhs": lhs[k], "rhs": rhs[k]}
                        for k in np.lexsort((moved, b, a)).tolist()]
    report.holds = not report.witnesses
    return report
