"""Closed forms for Gaussian signals with quadratic loss.

The payoff state has precision ``p0`` and each sender holds a
conditionally independent Gaussian signal about it, so every revelation
reduces the posterior variance deterministically and the equilibrium
reveal rates are constant over time.  Rates are reported in the
continuous-time (Poisson) reading; a rate above one is flagged as
infeasible for the discrete per-round reading rather than capped.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .decision import DecisionProblem
from .environment import ComponentSpace, JointPrior
from .errors import BudgetExceeded
from .tolerance import ROUNDING, TINY

# symmetry_gap scores and keeps every precision split: about 8.4 us and
# 0.25 KB each on 3 to 5 senders (one 2-core Xeon core, Python 3.11), so
# this many take under 2 s and about 50 MB, and 5 senders at step 0.01
# (C(199, 4), about 6.3e7 splits) are refused before any is scored.
MAX_SYMMETRY_SPLITS = 200_000


@dataclass(frozen=True)
class GaussianScenario:
    """Payoff-state precision, sender signal precisions, attention cost."""

    p0: float
    p: tuple
    c: float

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        if not all(x > 0 for x in (self.p0, self.c) + self.p):  # NaN too
            raise ValueError("all precisions and the cost must be positive")
        P = self.total_precision
        if not math.isfinite(P):
            raise ValueError(f"the total precision {P!r} is not finite")
        if not all(P - x > 0 for x in self.p):  # the closed forms divide by it
            raise ValueError(f"the total precision {P!r} less some sender's "
                             "precision is not positive in floating point")

    @property
    def total_precision(self) -> float:
        return self.p0 + sum(self.p)


@dataclass(frozen=True)
class CorrelatedScenario:
    """Two senders mixing idiosyncratic signals with a common one; alpha
    is the weight on the common signal."""

    p0: float
    p1: float
    p2: float
    pc: float
    alpha: float
    c: float

    def __post_init__(self):
        if not all(x > 0 for x in (self.p0, self.p1, self.p2, self.pc,
                                   self.c)):
            raise ValueError("all precisions and the cost must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def gaussian_rates(s: GaussianScenario) -> np.ndarray:
    """Constant equilibrium reveal rate of each sender:
    c * P * (P - p_i) / p_i."""
    P = s.total_precision
    rates = np.array([s.c * P * (P - pi) / pi for pi in s.p])
    if np.any(rates >= 1.0):
        warnings.warn(
            "some rates are >= 1: infeasible as per-round probabilities, "
            "valid only in the continuous-time reading", stacklevel=2)
    return rates


def gaussian_residual_values(s: GaussianScenario) -> np.ndarray:
    """Deterministic residual value of each sender's signal."""
    P = s.total_precision
    return np.array([pi / (P * (P - pi)) for pi in s.p])


def gaussian_receiver_payoff(s: GaussianScenario) -> float:
    """Receiver's equilibrium payoff:
    -(1/P) * (1 + sum_i p_i / (P - p_i))."""
    P = s.total_precision
    return -(1.0 / P) * (1.0 + sum(pi / (P - pi) for pi in s.p))


@dataclass
class SymmetryReport:
    symmetric_allocation: tuple
    symmetric_payoff: float
    best_allocation: tuple
    best_payoff: float
    symmetric_is_max: bool
    grid_step: float
    allocations: list = field(default_factory=list)  # (allocation, payoff)


def symmetry_gap(p0: float, total_sender_precision: float, n: int, c: float,
                 grid_step: float = 0.05) -> SymmetryReport:
    """Grid-search precision splits of a fixed total across senders and
    compare against the equal split (which should be the maximum).  More
    than ``MAX_SYMMETRY_SPLITS`` splits raise ``BudgetExceeded`` first."""
    if not total_sender_precision > 0 or n < 1:
        raise ValueError("need positive total precision and at least one sender")
    if not grid_step > 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    units = int(round(total_sender_precision / grid_step))
    splits = math.comb(max(units - 1, 0), n - 1)
    if not splits:
        raise ValueError("grid step too coarse to split the precision "
                         f"across {n} senders")
    if splits > MAX_SYMMETRY_SPLITS:
        raise BudgetExceeded(f"{splits} precision splits exceed the budget "
                             f"of {MAX_SYMMETRY_SPLITS}; use a coarser grid")
    allocations = []
    for combo in itertools.combinations(range(1, units), n - 1):
        cuts = (0,) + combo + (units,)
        alloc = tuple((b - a) * grid_step for a, b in zip(cuts, cuts[1:]))
        payoff = gaussian_receiver_payoff(GaussianScenario(p0, alloc, c))
        allocations.append((alloc, payoff))
    sym = tuple([total_sender_precision / n] * n)
    sym_payoff = gaussian_receiver_payoff(GaussianScenario(p0, sym, c))
    best_alloc, best_payoff = max(allocations, key=lambda ap: ap[1])
    return SymmetryReport(
        symmetric_allocation=sym,
        symmetric_payoff=sym_payoff,
        best_allocation=best_alloc,
        best_payoff=best_payoff,
        symmetric_is_max=best_payoff <= sym_payoff + ROUNDING,
        grid_step=grid_step,
        allocations=allocations,
    )


# -- correlated senders -------------------------------------------------------


def correlation_threshold(p0: float, p1: float, p2: float) -> float:
    """Common-signal precision above which full correlation beats
    independence for the receiver."""
    if not all(x > 0 for x in (p0, p1, p2)):
        raise ValueError("precisions must be positive")
    num = p1 * p2 * (2 * p0 + p1 + p2)
    try:
        square = (p0 + p1) ** 2
    except OverflowError:  # where a product would give inf
        square = math.inf
    return num / (square + p2 * (2 * p0 + p1 + p2))


def _correlated_stopping_values(cs: CorrelatedScenario, alpha: float):
    """Stopping utilities (negative posterior variances) at the prior,
    after one component, and after both."""
    a2 = alpha ** 2
    b2 = (1.0 - alpha) ** 2
    u0 = -1.0 / cs.p0

    def u_single(pi):
        num = a2 * pi + b2 * cs.pc
        den = cs.p0 * num + (a2 + b2) * pi * cs.pc
        return -num / den

    p12 = cs.p1 + cs.p2
    num = a2 * p12 + b2 * cs.pc
    den = cs.p0 * num + (a2 + b2) * p12 * cs.pc
    u_both = -num / den
    return u0, u_single(cs.p1), u_single(cs.p2), u_both


def payoff_at_alpha(cs: CorrelatedScenario, alpha: float) -> float:
    """Receiver equilibrium payoff at full independence (alpha=0) or full
    correlation (alpha=1): stopping utility with both components minus the
    two residual values."""
    if alpha not in (0, 1):
        raise ValueError("the equilibrium comparison is defined at alpha in {0, 1}")
    _, u1, u2, u_both = _correlated_stopping_values(cs, float(alpha))
    vbar1 = u_both - u2
    vbar2 = u_both - u1
    return u_both - vbar1 - vbar2


# -- monopoly examples with one continuous component --------------------------


def binary_action_rate(p: float, c: float):
    """Left-or-right action on a centered Gaussian state: the information
    value is E|state| and the AoN rate is the cost over that value.
    Returns (rate, value)."""
    if not (p > 0 and c > 0):
        raise ValueError("precision and cost must be positive")
    value = math.sqrt(2.0 / (math.pi * p))
    return c / value, value


@dataclass
class BridgeSchedule:
    p: float
    c: float
    final_time: float
    times: np.ndarray
    variances: np.ndarray


def bridge_schedule(p: float, c: float, grid_points: int = 11) -> BridgeSchedule:
    """Deterministic decay of the posterior variance under the gradual
    bridge process: Var at time t equals 1/p - c*t until the revelation
    time 1/(p*c)."""
    if not (p > 0 and c > 0):
        raise ValueError("precision and cost must be positive")
    if grid_points < 2:
        raise ValueError(f"need at least 2 grid points, got {grid_points}")
    final = 1.0 / (p * c)
    times = np.linspace(0.0, final, grid_points)
    return BridgeSchedule(p, c, final, times, 1.0 / p - c * times)


@dataclass
class BridgeCheck:
    schedule: BridgeSchedule
    samples: int
    seed: int
    empirical: np.ndarray
    stderr: np.ndarray
    max_z: float
    within: bool


def bridge_mc_check(p: float, c: float, samples: int = 10_000, seed: int = 0,
                    grid_points: int = 11, steps: int = 1000) -> BridgeCheck:
    """Simulate discretized bridge paths and compare the mean squared
    prediction error at the grid times with the analytic schedule.

    The bridge value itself is the posterior mean of the hidden state, so
    the empirical MSE of the bridge against the state estimates the
    posterior variance directly.  Increments use the exact bridge
    covariance, making the discretization bias nil at grid times.
    """
    if samples < 2:  # a standard error needs two samples
        raise ValueError(f"need at least 2 samples, got {samples}")
    schedule = bridge_schedule(p, c, grid_points)
    T = schedule.final_time
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    omega = rng.normal(0.0, math.sqrt(1.0 / p), size=samples)
    dt = T / steps
    stride = steps // (grid_points - 1)
    if stride * (grid_points - 1) != steps:
        raise ValueError("grid points must divide the step count")
    bridge = np.zeros(samples)
    sq_err = np.empty((grid_points, samples))
    sq_err[0] = omega ** 2  # prediction 0 at time 0
    for k in range(1, steps + 1):
        # exact step fractions keep the terminal pinning exact
        shrink = (steps - k) / (steps - (k - 1))
        bridge = bridge * shrink + rng.normal(
            0.0, math.sqrt(dt * shrink), size=samples)
        if k % stride == 0:
            x = (k / steps) * omega + math.sqrt(c) * bridge
            sq_err[k // stride] = (x - omega) ** 2
    empirical = sq_err.mean(axis=1)
    stderr = sq_err.std(axis=1, ddof=1) / math.sqrt(samples)
    diff = np.abs(empirical - schedule.variances)
    z = np.where(stderr > 0, diff / np.maximum(stderr, TINY), diff > 0)
    return BridgeCheck(
        schedule=schedule,
        samples=samples,
        seed=seed,
        empirical=empirical,
        stderr=stderr,
        max_z=float(z.max()),
        within=bool(np.all(diff <= 3.0 * stderr + ROUNDING)),
    )


# -- the competitive limit ----------------------------------------------------


def large_n_gaussian(p0: float, p: float, c: float, n_values) -> list:
    """Per-n mean-squared-error term and total attention cost for n equal
    senders; both vanish as n grows, cost at rate 1/n."""
    if not (p0 > 0 and p > 0 and c > 0):
        raise ValueError("parameters must be positive")
    rows = []
    for n in n_values:
        mse_term = -1.0 / (p0 + n * p)
        cost = n * c * p / (c * (p0 + (n - 1) * p) * (p0 + n * p))
        rows.append({
            "n": int(n),
            "mse_term": mse_term,
            "attention_cost": cost,
            "total": mse_term - cost,
        })
    return rows


# -- finite discretization for the cross-module check -------------------------


def discretized_environment(s: GaussianScenario, grid_points: int = 41,
                            half_width: float = 4.0,
                            action_points: int = 161):
    """Truncated-grid finite version of a Gaussian scenario.

    The payoff component and each signal live on equally spaced grids
    covering ``half_width`` marginal standard deviations; actions form a
    finer grid over the payoff range with squared-error utility.
    """
    sd0 = 1.0 / math.sqrt(s.p0)
    x0 = np.linspace(-half_width * sd0, half_width * sd0, grid_points)
    spaces = [ComponentSpace(0, tuple(float(v) for v in x0))]
    grids = [x0]
    log_mass = -0.5 * s.p0 * x0 ** 2
    log_mass = log_mass.reshape((grid_points,) + (1,) * len(s.p))
    for i, pi in enumerate(s.p, start=1):
        sd = math.sqrt(1.0 / s.p0 + 1.0 / pi)
        xi = np.linspace(-half_width * sd, half_width * sd, grid_points)
        spaces.append(ComponentSpace(i, tuple(float(v) for v in xi)))
        grids.append(xi)
        shape = [1] * (len(s.p) + 1)
        shape[0] = grid_points
        shape[i] = grid_points
        log_mass = log_mass - 0.5 * pi * (
            (xi[None, :] - x0[:, None]) ** 2).reshape(shape)
    mass = np.exp(log_mass - log_mass.max())
    prior = JointPrior(spaces, mass / mass.sum())
    actions = np.linspace(x0[0], x0[-1], action_points)
    table = -(actions[:, None] - x0[None, :]) ** 2
    dp = DecisionProblem.from_state_table(
        tuple(float(a) for a in actions), table, len(s.p) + 1)
    return prior, dp
