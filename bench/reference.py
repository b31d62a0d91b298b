"""Independent reference computations for the benchmark's checks.

Nothing here imports attnmarket.  Exact-revelation quantities of the
conditionally iid scenarios and the large-market curves are computed in
exact rational arithmetic from signal counts; the Gaussian closed forms and
the pair-guessing values are written out from their derivations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INEQ_TOL = 1e-10          # the program's strictness threshold for conditions


# -- conditionally iid binary signals -------------------------------------------


@dataclass(frozen=True)
class IIDBinary:
    """Uniform binary state, n senders holding conditionally iid binary
    signals that match the state with probability ``accuracy``, actions
    guess_0, guess_1 (payoff 1 when right) and abstain."""

    n: int
    accuracy: Fraction
    abstain: Fraction
    cost: Fraction

    def _pi(self, ones: int, zeros: int):
        """Joint mass of each state with a given set of signal values."""
        q = (1 - self.accuracy, self.accuracy)        # P(signal = 1 | state)
        return tuple(q[s] ** ones * (1 - q[s]) ** zeros / 2 for s in (0, 1))

    def mass(self, ones: int, zeros: int) -> Fraction:
        return sum(self._pi(ones, zeros))

    def value(self, ones: int, zeros: int) -> Fraction:
        """Mass-weighted stopping value: max over actions of the
        unnormalized expected utility."""
        m0, m1 = self._pi(ones, zeros)
        return max(m0, m1, self.abstain * (m0 + m1))

    def revealed_value(self, ones: int, zeros: int, t: int) -> Fraction:
        """Mass-weighted expected stopping value after t more senders reveal."""
        return sum(math.comb(t, x) * self.value(ones + x, zeros + t - x)
                   for x in range(t + 1))

    def residual(self, ones: int, zeros: int, unrevealed: int) -> Fraction:
        """Expected residual value of one unrevealed sender at a node with the
        given revealed counts: E[U | all revealed] - E[U | all but it]."""
        return ((self.revealed_value(ones, zeros, unrevealed)
                 - self.revealed_value(ones, zeros, unrevealed - 1))
                / self.mass(ones, zeros))

    def one_visit_value(self, ones: int, zeros: int) -> Fraction:
        """Value of revealing one sender now, normalized."""
        return ((self.revealed_value(ones, zeros, 1) - self.value(ones, zeros))
                / self.mass(ones, zeros))

    def coalition(self, k: int) -> Fraction:
        """g(k): ex-ante value of learning k signals."""
        return self.revealed_value(0, 0, k) - self.value(0, 0)

    # -- equilibrium quantities ----------------------------------------------

    def visits(self) -> Fraction:
        """Each sender's expected visits: E[residual at the root] / cost."""
        return self.residual(0, 0, self.n) / self.cost

    def receiver_payoff(self) -> Fraction:
        return self.revealed_value(0, 0, self.n) - self.cost * self.n * self.visits()

    def price(self) -> Fraction:
        return self.coalition(self.n) - self.coalition(self.n - 1)

    # -- conditions, as the checkers enumerate them ------------------------------

    def assumption2(self) -> dict:
        n, checked, witnesses, margin = self.n, 0, 0, None
        for ones in range(n):
            slack = self.residual(ones, n - 1 - ones, 1) - self.cost
            weight = n * math.comb(n - 1, ones)
            checked += weight
            witnesses += weight if slack <= INEQ_TOL else 0
            margin = slack if margin is None else min(margin, slack)
        return {"checked": checked, "witnesses": witnesses, "margin": margin}

    def substitutes(self) -> dict:
        """Revealed layer: every belief with the sender unrevealed."""
        n, checked, witnesses, margin = self.n, 0, 0, None
        for k in range(n):
            for ones in range(k + 1):
                zeros = k - ones
                slack = (self.one_visit_value(ones, zeros)
                         - self.residual(ones, zeros, n - k))
                if -INEQ_TOL <= slack < 0:
                    slack = Fraction(0)
                weight = n * math.comb(n - 1, k) * math.comb(k, ones)
                checked += weight
                witnesses += weight if slack < -INEQ_TOL else 0
                margin = slack if margin is None else min(margin, slack)
        return {"checked": checked, "witnesses": witnesses, "margin": margin}

    def mnat(self) -> dict:
        """All (S, T, s in S - T) triples, grouped by |S|, |T|, |S & T|."""
        n = self.n
        g = [self.coalition(k) for k in range(n + 1)]
        checked, witnesses, margin = 0, 0, None
        for p in range(n + 1):
            for q in range(n + 1):
                for r in range(max(0, p + q - n), min(p, q) + 1):
                    moves = p - r
                    if moves == 0:
                        continue
                    pairs = math.factorial(n) // (
                        math.factorial(r) * math.factorial(p - r)
                        * math.factorial(q - r) * math.factorial(n - p - q + r))
                    rhs = g[p - 1] + g[q + 1]
                    if q > r:
                        rhs = max(rhs, g[p] + g[q])
                    slack = rhs - (g[p] + g[q])
                    if -INEQ_TOL <= slack < 0:
                        slack = Fraction(0)
                    checked += pairs * moves
                    witnesses += pairs * moves if slack < -INEQ_TOL else 0
                    margin = slack if margin is None else min(margin, slack)
        return {"checked": checked, "witnesses": witnesses,
                "margin": Fraction(0) if margin is None else margin}


# -- large-market count enumeration ---------------------------------------------


@dataclass(frozen=True)
class IIDMarket:
    """State weights, a states x signals likelihood and an actions x states
    utility, all rational."""

    weights: tuple
    likelihood: tuple
    utility: tuple

    def _count_vectors(self, total: int, bins: int):
        if bins == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in self._count_vectors(total - first, bins - 1):
                yield (first,) + rest

    def _masses(self, counts):
        coef = math.factorial(sum(counts))
        for c in counts:
            coef //= math.factorial(c)
        out = []
        for w, row in zip(self.weights, self.likelihood):
            m = w * coef
            for lik, c in zip(row, counts):
                m *= lik ** c
            out.append(m)
        return out

    def _best(self, masses) -> Fraction:
        return max(sum(u * m for u, m in zip(row, masses))
                   for row in self.utility)

    def residual(self, n: int) -> Fraction:
        """E[value of the n-th signal given the first n - 1]."""
        ell = len(self.likelihood[0])
        total = Fraction(0)
        for counts in self._count_vectors(n - 1, ell):
            masses = self._masses(counts)
            total -= self._best(masses)
            for j in range(ell):
                total += self._best([m * row[j] for m, row
                                     in zip(masses, self.likelihood)])
        return total

    def decision_error(self, n: int) -> Fraction:
        """Full-information value minus E[stopping value after n signals]."""
        full = sum(w * max(row[s] for row in self.utility)
                   for s, w in enumerate(self.weights))
        ell = len(self.likelihood[0])
        return full - sum(self._best(self._masses(c))
                          for c in self._count_vectors(n, ell))


def default_market() -> IIDMarket:
    """The `sweep --finite` default: uniform binary state, symmetric binary
    signals of accuracy 0.6, guess (1 when right) or abstain (0.55)."""
    a, abstain = Fraction(3, 5), Fraction(11, 20)
    return IIDMarket(
        weights=(Fraction(1, 2), Fraction(1, 2)),
        likelihood=((a, 1 - a), (1 - a, a)),
        utility=((1, 0), (0, 1), (abstain, abstain)),
    )


THREE_STATE_LIKELIHOOD = (
    (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)),
    (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)),
    (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)),
)


def three_state_market(weight_counts) -> IIDMarket:
    total = sum(weight_counts)
    return IIDMarket(
        weights=tuple(Fraction(k, total) for k in weight_counts),
        likelihood=THREE_STATE_LIKELIHOOD,
        utility=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    )


# -- closed forms ----------------------------------------------------------------


def gaussian_rates(p0: float, p, c: float) -> list:
    """Equilibrium reveal rate of each Gaussian sender: c P (P - p_i) / p_i."""
    P = p0 + sum(p)
    return [c * P * (P - pi) / pi for pi in p]


def gaussian_receiver_payoff(p0: float, p) -> float:
    """-(1/P) (1 + sum_i p_i / (P - p_i))."""
    P = p0 + sum(p)
    return -(1.0 + sum(pi / (P - pi) for pi in p)) / P


def pair_guess_values(p_heads: float, cost: float) -> tuple:
    """Two iid coins, one unit per correct guess.  The coins are independent,
    so each coin's residual value is its own value of information,
    1 - max(p, 1 - p), whatever the other shows: each sender gets that over
    the cost in visits, and the receiver gets 2 minus the cost of all visits.
    """
    residual = 1.0 - max(p_heads, 1.0 - p_heads)
    visits = residual / cost
    return visits, 2.0 - 2.0 * cost * visits
