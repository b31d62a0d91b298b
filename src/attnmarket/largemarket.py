"""Large-market experiments with conditionally iid signals.

With exchangeable signals, expectations over competitors' realizations
depend only on signal counts, so curves are exact sums over count vectors,
taken in numpy blocks with masses formed in log space, of terms that are
each >= 0.  Environments whose count space exceeds the budget fall back
to stratified sampling through the same kernel, with a standard error.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decision import DecisionProblem
from .environment import ComponentSpace, JointPrior, product_mass
from .errors import BudgetExceeded, DegenerateCurve
from .tolerance import DECAY_TOL, ROUNDING

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
        if (w.shape != (m,) or not np.all(w > 0)
                or abs(w.sum() - 1.0) > ROUNDING):
            raise ValueError("state weights must be positive and sum to 1")
        if lik.shape != (m, ell):
            raise ValueError("likelihood must be states x signals")
        if not np.all(lik > 0):
            raise ValueError("likelihood entries must be strictly positive")
        if np.any(np.abs(lik.sum(axis=1) - 1.0) > ROUNDING):
            raise ValueError("likelihood rows must sum to 1")
        for a, b in itertools.combinations(range(m), 2):
            if np.abs(lik[a] - lik[b]).max() <= ROUNDING:
                raise ValueError(f"states {a} and {b} are indistinguishable")
        if u.shape != (len(actions), m) or len(actions) < m:
            raise ValueError("utility must be actions x states with at "
                             "least one action per state")
        if not np.all(np.isfinite(u)):  # NaN would pass the test below
            raise ValueError("utility must be finite")
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
        prior = JointPrior(spaces, product_mass(self.state_weights,
                                                [self.likelihood] * n))
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


# -- the count-vector kernel --------------------------------------------------

_BLOCK_ROWS = 1 << 15      # count vectors per kernel call: bounds peak memory


def count_space_size(total: int, bins: int) -> int:
    return math.comb(total + bins - 1, bins - 1)


def _count_blocks(total: int, bins: int):
    """All vectors of ``bins`` >= 2 nonnegative integers summing to ``total``,
    in lexicographic order, in arrays of at most ``_BLOCK_ROWS`` rows."""
    first = 0
    while first <= total:
        if count_space_size(total - first, bins - 1) > _BLOCK_ROWS:
            for rest in _count_blocks(total - first, bins - 1):
                yield np.column_stack([np.full(len(rest), first), rest])
            first += 1
            continue
        # the leading entries first..stop-1 cover size - size_at(stop) vectors
        size = count_space_size(total - first, bins)
        stop = first + bisect.bisect_right(
            range(first + 1, total + 2), _BLOCK_ROWS,
            key=lambda s: size - count_space_size(total - s, bins))
        rows = np.arange(first, stop)[:, None]
        rest = total - rows[:, 0]
        for _ in range(bins - 2):      # append every value of the next entry
            reps = rest + 1
            entry = (np.arange(reps.sum())
                     - np.repeat(np.cumsum(reps) - reps, reps))
            rows = np.column_stack([np.repeat(rows, reps, axis=0), entry])
            rest = np.repeat(rest, reps) - entry
        yield np.column_stack([rows, rest])
        first = stop


def _log_scores(env: IIDEnvironment, counts: np.ndarray) -> np.ndarray:
    """log w_s + sum_l c_l log lik[s, l] for each count row c: rows x states,
    summed elementwise: the fused multiply-adds of a matrix product would
    round the two states of a symmetric tie apart."""
    terms = counts[..., None] * np.log(env.likelihood).T
    return np.log(env.state_weights) + terms.sum(axis=-2)


def _residual_rows(env: IIDEnvironment, counts, log_coef) -> np.ndarray:
    """For each count row c, sum over next signals l of max_a EU_l[a] -
    EU_l[a0]: EU_l is each action's utility times the mass of c then l, read
    off the log-score of c + e_l itself, and a0 the best action at c.  Each
    term is >= 0, and exactly 0 where signal l leaves a0 optimal."""
    mass = np.exp(log_coef + _log_scores(env, counts))
    a0 = (mass @ env.utility.T).argmax(axis=1, keepdims=True)
    value = np.zeros(len(counts))
    for ell in range(env.n_signals):
        bumped = counts.copy()
        bumped[:, ell] += 1
        eu = np.exp(log_coef + _log_scores(env, bumped)) @ env.utility.T
        value += eu.max(axis=1) - np.take_along_axis(eu, a0, 1)[:, 0]
    return value


def _error_rows(env: IIDEnvironment, counts, log_coef) -> np.ndarray:
    """For each count row c, sum_s J[c, s] (u*_s - u[a_c, s]): J is the
    mass, a_c the best action at c and u*_s state s's best utility."""
    mass = np.exp(log_coef + _log_scores(env, counts))
    best = (mass @ env.utility.T).argmax(axis=1)
    regret = env.utility.max(axis=0) - env.utility
    return np.einsum("ks,ks->k", mass, regret[best])


@dataclass
class CurvePoint:
    n: int
    value: float
    scaled: float          # n * value for residual curves, else value
    mode: str              # "exact" | "sampled"
    stderr: float | None = None


def _curve(env: IIDEnvironment, n_values, lag: int, rows, scaled: bool,
           exact_budget, allow_sampling, samples, seed) -> list:
    """For each n, the expectation of ``rows`` over count vectors of n - lag
    signals: exact, with multinomial log-weights, within the budget."""
    bins = env.n_signals
    points = []
    for n in map(int, n_values):
        total = n - lag
        if total < 0:
            raise ValueError(f"n must be at least {lag}")
        se = None
        if count_space_size(total, bins) <= exact_budget:
            log_fact = np.fromiter(map(math.lgamma, range(1, total + 2)),
                                   float, total + 1)
            value = sum(
                float(rows(env, c, log_fact[total] - log_fact[c].sum(
                    axis=1, keepdims=True)).sum())
                for c in _count_blocks(total, bins))
        elif allow_sampling:
            value, se = _sampled_expectation(env, total, rows, samples,
                                             seed + n)
        else:
            raise BudgetExceeded(
                f"count space for n={n} exceeds the exact budget; "
                "pass allow_sampling=True")
        points.append(CurvePoint(n, value, n * value if scaled else value,
                                 "exact" if se is None else "sampled", se))
    return points


def _sampled_expectation(env, draws, rows, samples, seed):
    """Stratified-by-state Monte Carlo estimate, and its standard error, of
    ``rows`` at the posterior over count vectors of ``draws`` signals."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mean, var = 0.0, 0.0
    for j, w in enumerate(env.state_weights):
        r = max(2, int(round(samples * w)))
        counts = rng.multinomial(draws, env.likelihood[j], size=r)
        log_norm = np.logaddexp.reduce(_log_scores(env, counts), axis=1,
                                       keepdims=True)
        vals = rows(env, counts, -log_norm)
        mean += w * vals.mean()
        var += w ** 2 * vals.var(ddof=1) / r
    return float(mean), float(math.sqrt(var))


def residual_value_curve(env: IIDEnvironment, n_values, *,
                         exact_budget: int = EXACT_COUNT_BUDGET,
                         allow_sampling: bool = False,
                         samples: int = 20_000, seed: int = 0) -> list:
    """Expected residual value of the last sender's signal given the other
    n-1, for each n: E[ vbar(signal_n | signals_1..n-1) ].

    Exact via count-vector enumeration when the count space fits the
    budget; otherwise stratified sampling when allowed.
    """
    return _curve(env, n_values, 1, _residual_rows, True, exact_budget,
                  allow_sampling, samples, seed)


def decision_error_curve(env: IIDEnvironment, n_values, *,
                         exact_budget: int = EXACT_COUNT_BUDGET,
                         allow_sampling: bool = False,
                         samples: int = 20_000, seed: int = 0) -> list:
    """Expected stopping-utility shortfall against full information after
    n signals, for each n."""
    return _curve(env, n_values, 0, _error_rows, False, exact_budget,
                  allow_sampling, samples, seed)


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
        decaying=rho < 1.0 - DECAY_TOL,
        tail=tail,
    )
