"""Large-market experiments with conditionally iid signals.

With exchangeable signals, expectations over competitors' realizations
depend only on signal counts, so curves are computed exactly by
enumerating count vectors with multinomial weights; environments whose
count space exceeds the budget fall back to stratified sampling with a
reported standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decision import DecisionProblem
from .environment import ComponentSpace, JointPrior
from .errors import BudgetExceeded, DegenerateCurve

EXACT_COUNT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class IIDEnvironment:
    """Payoff state, one shared signal distribution, and a decision problem
    on the state alone.

    For each state the matching action must strictly dominate, likelihood
    rows must be strictly positive (no realization excludes a state) and
    pairwise distinct (every pair of states separable).
    """

    state_labels: tuple
    state_weights: np.ndarray
    signal_alphabet: tuple
    likelihood: np.ndarray      # states x signals
    actions: tuple
    utility: np.ndarray         # actions x states

    def __init__(self, state_labels, state_weights, signal_alphabet,
                 likelihood, actions, utility):
        state_labels = tuple(state_labels)
        signal_alphabet = tuple(signal_alphabet)
        actions = tuple(actions)
        w = np.asarray(state_weights, dtype=float)
        lik = np.asarray(likelihood, dtype=float)
        u = np.asarray(utility, dtype=float)
        m, ell = len(state_labels), len(signal_alphabet)
        if w.shape != (m,) or np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("state weights must be positive and sum to 1")
        if lik.shape != (m, ell):
            raise ValueError("likelihood must be states x signals")
        if np.any(lik <= 0):
            raise ValueError("likelihood entries must be strictly positive")
        if np.any(np.abs(lik.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("likelihood rows must sum to 1")
        for a, b in itertools.combinations(range(m), 2):
            if np.allclose(lik[a], lik[b]):
                raise ValueError(f"states {a} and {b} are indistinguishable")
        if u.shape != (len(actions), m) or len(actions) < m:
            raise ValueError("utility must be actions x states with at "
                             "least one action per state")
        for j in range(m):
            others = np.delete(u[:, j], j)
            if np.any(others >= u[j, j]):
                raise ValueError(f"action {j} must strictly dominate in state {j}")
        object.__setattr__(self, "state_labels", state_labels)
        object.__setattr__(self, "state_weights", w)
        object.__setattr__(self, "signal_alphabet", signal_alphabet)
        object.__setattr__(self, "likelihood", lik)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "utility", u)

    @property
    def n_states(self) -> int:
        return len(self.state_labels)

    @property
    def n_signals(self) -> int:
        return len(self.signal_alphabet)

    def full_info_value(self) -> float:
        return float(self.state_weights @ self.utility.max(axis=0))

    def to_environment(self, n: int):
        """Finite (prior, decision problem) with n senders, usable with the
        equilibrium machinery."""
        spaces = [ComponentSpace(0, self.state_labels)]
        spaces += [ComponentSpace(i, self.signal_alphabet)
                   for i in range(1, n + 1)]
        mass = self.state_weights.reshape((-1,) + (1,) * n)
        for i in range(1, n + 1):
            shape = [1] * (n + 1)
            shape[0] = self.n_states
            shape[i] = self.n_signals
            mass = mass * self.likelihood.reshape(shape)
        prior = JointPrior(spaces, mass)
        dp = DecisionProblem.from_state_table(self.actions, self.utility, n + 1)
        return prior, dp


def default_environment(accuracy: float = 0.6,
                        abstain_utility: float | None = 0.55) -> IIDEnvironment:
    """Binary uniform state, symmetric binary signals, match-the-state
    payoff, with an abstain action by default.  A residual value is
    exactly 0 wherever one more signal cannot change the action, and the
    AoN rate there is ``inf``."""
    actions = ["guess_0", "guess_1"]
    utility = [[1.0, 0.0], [0.0, 1.0]]
    if abstain_utility is not None:
        actions.append("abstain")
        utility.append([abstain_utility, abstain_utility])
    return IIDEnvironment(
        state_labels=("s0", "s1"),
        state_weights=(0.5, 0.5),
        signal_alphabet=("0", "1"),
        likelihood=[[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]],
        actions=actions,
        utility=utility,
    )


# -- exact enumeration over signal counts --------------------------------------


def _count_vectors(total: int, bins: int):
    """All nonnegative integer vectors of the given length summing to
    ``total`` (stars and bars)."""
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _count_vectors(total - first, bins - 1):
            yield (first,) + rest


def count_space_size(total: int, bins: int) -> int:
    return math.comb(total + bins - 1, bins - 1)


class _Calculator:
    def __init__(self, env: IIDEnvironment):
        self.env = env
        self.log_lik = np.log(env.likelihood)
        self.log_w = np.log(env.state_weights)

    def log_state_scores(self, counts) -> np.ndarray:
        c = np.asarray(counts, dtype=float)
        return self.log_w + self.log_lik @ c

    def posterior(self, counts) -> np.ndarray:
        s = self.log_state_scores(counts)
        s = np.exp(s - s.max())
        return s / s.sum()

    def count_probability(self, counts) -> float:
        """Marginal probability of a count vector of iid signals."""
        total = int(sum(counts))
        log_coef = math.lgamma(total + 1) - sum(
            math.lgamma(c + 1) for c in counts)
        s = self.log_state_scores(counts)
        return float(np.exp(s + log_coef).sum())

    def stopping_value(self, posterior: np.ndarray) -> float:
        return float((self.env.utility @ posterior).max())

    def one_more_signal_value(self, counts) -> float:
        """Value of one extra signal after observing the given counts."""
        post = self.posterior(counts)
        base = self.stopping_value(post)
        p_next = post @ self.env.likelihood
        counts = tuple(counts)
        total = 0.0
        for ell, p in enumerate(p_next):
            bumped = counts[:ell] + (counts[ell] + 1,) + counts[ell + 1:]
            total += p * self.stopping_value(self.posterior(bumped))
        return total - base


@dataclass
class CurvePoint:
    n: int
    value: float
    scaled: float          # n * value for residual curves, else value
    mode: str              # "exact" | "sampled"
    stderr: float | None = None


def residual_value_curve(env: IIDEnvironment, n_values, *,
                         exact_budget: int = EXACT_COUNT_BUDGET,
                         allow_sampling: bool = False,
                         samples: int = 20_000, seed: int = 0) -> list:
    """Expected residual value of the last sender's signal given the other
    n-1, for each n: E[ vbar(signal_n | signals_1..n-1) ].

    Exact via count-vector enumeration when the count space fits the
    budget; otherwise stratified sampling when allowed.
    """
    calc = _Calculator(env)
    rows = []
    for n in n_values:
        n = int(n)
        if n < 1:
            raise ValueError("need at least one sender")
        m = n - 1
        if count_space_size(m, env.n_signals) <= exact_budget:
            value = sum(
                calc.count_probability(counts) * calc.one_more_signal_value(counts)
                for counts in _count_vectors(m, env.n_signals))
            if abs(value) < 1e-14:
                value = 0.0  # exact-cancellation noise
            rows.append(CurvePoint(n, float(value), float(n * value), "exact"))
            continue
        if not allow_sampling:
            raise BudgetExceeded(
                f"count space for n={n} exceeds the exact budget; "
                "pass allow_sampling=True")
        value, se = _sampled_expectation(
            env, calc, m, calc.one_more_signal_value, samples, seed + n)
        rows.append(CurvePoint(n, value, n * value, "sampled", se))
    return rows


def decision_error_curve(env: IIDEnvironment, n_values, *,
                         exact_budget: int = EXACT_COUNT_BUDGET,
                         allow_sampling: bool = False,
                         samples: int = 20_000, seed: int = 0) -> list:
    """Expected stopping-utility shortfall against full information after
    n signals, for each n."""
    calc = _Calculator(env)
    full = env.full_info_value()
    rows = []

    def shortfall(counts):
        return full - calc.stopping_value(calc.posterior(counts))

    for n in n_values:
        n = int(n)
        if count_space_size(n, env.n_signals) <= exact_budget:
            value = sum(calc.count_probability(c) * shortfall(c)
                        for c in _count_vectors(n, env.n_signals))
            rows.append(CurvePoint(n, float(value), float(value), "exact"))
            continue
        if not allow_sampling:
            raise BudgetExceeded(
                f"count space for n={n} exceeds the exact budget; "
                "pass allow_sampling=True")
        value, se = _sampled_expectation(env, calc, n, shortfall, samples,
                                         seed + n)
        rows.append(CurvePoint(n, value, value, "sampled", se))
    return rows


def _sampled_expectation(env, calc, draws_per_sample, fn, samples, seed):
    """Stratified-by-state Monte Carlo estimate of E[fn(counts)] with its
    standard error."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mean, var = 0.0, 0.0
    for j, w in enumerate(env.state_weights):
        r = max(2, int(round(samples * w)))
        counts = rng.multinomial(draws_per_sample, env.likelihood[j], size=r)
        vals = np.array([fn(tuple(c)) for c in counts])
        mean += w * vals.mean()
        var += w ** 2 * vals.var(ddof=1) / r
    return float(mean), float(math.sqrt(var))


@dataclass
class ExponentialFit:
    kappa: float
    rho: float
    r_squared: float
    decaying: bool
    tail: list                 # (n, value) pairs used for the fit


def fit_exponential_rate(curve, tail_fraction: float = 0.5) -> ExponentialFit:
    """Least-squares fit of log value against n over the tail of a curve.

    Accepts CurvePoint rows or (n, value) pairs.  Requires at least four
    strictly positive tail entries.
    """
    pairs = []
    for row in curve:
        if isinstance(row, CurvePoint):
            pairs.append((row.n, row.value))
        else:
            n, v = row
            pairs.append((int(n), float(v)))
    pairs.sort()
    start = int(len(pairs) * (1.0 - tail_fraction))
    tail = pairs[start:]
    if any(v == 0.0 for _, v in tail):
        raise DegenerateCurve("tail entries hit zero exactly")
    if len(tail) < 4 or any(v < 0.0 for _, v in tail):
        raise DegenerateCurve("need at least 4 strictly positive tail entries")
    ns = np.array([n for n, _ in tail], dtype=float)
    logs = np.log([v for _, v in tail])
    slope, intercept = np.polyfit(ns, logs, 1)
    fitted = slope * ns + intercept
    ss_res = float(((logs - fitted) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rho = float(np.exp(slope))
    return ExponentialFit(
        kappa=float(np.exp(intercept)),
        rho=rho,
        r_squared=r2,
        decaying=rho < 1.0 - 1e-9,
        tail=tail,
    )
