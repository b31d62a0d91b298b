"""The benchmark's workloads: what each runs, and the checks on its outputs.

Each workload is a list of operations that one round runs in order: CLI
commands through ``attnmarket.cli.main`` (in-process, standard output
captured) and direct library calls.  ``setup`` imports the package afresh
and builds the inputs; it is timed apart from the rounds.  Every check
compares an output with ``reference`` (exact rationals, closed forms,
hand-derived values) or with a property the method must have, and runs
outside the timed regions.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


class CheckError(AssertionError):
    """An output disagrees with its independent computation."""


def expect(ok, message):
    if not ok:
        raise CheckError(message)


def close(a, b, rel=1e-9, abs_=0.0):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_)


def fresh_import():
    """Import attnmarket from the checkout's ``src`` with a cold module
    cache (numpy and yaml stay loaded), so set-up time includes the
    package's own import."""
    for name in [n for n in sys.modules
                 if n == "attnmarket" or n.startswith("attnmarket.")]:
        del sys.modules[name]
    try:
        am = importlib.import_module("attnmarket")
    except ModuleNotFoundError:
        raise SystemExit(f"attnmarket not found under {ROOT / 'src'}") from None
    importlib.import_module("attnmarket.cli")
    expect(Path(am.__file__).resolve().is_relative_to(ROOT / "src"),
           f"attnmarket imported from {am.__file__}, not from this checkout")
    return am


def run_cli(am, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return am.cli.main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code


def iter_csv(path):
    """Rows of a CSV file as dicts, streamed so that checking a large file
    does not raise the run's peak memory."""
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def read_csv(path) -> list:
    return list(iter_csv(path))


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@dataclass
class Op:
    """One timed operation.  ``run`` returns what ``check`` needs; ``check``
    raises CheckError on a wrong output and returns True when the operation
    failed in the counted way.  ``out`` is a CLI command's output
    directory, whose bytes must repeat from round to round."""

    name: str
    run: object
    check: object
    out: Path | None = None


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self):
        """Import the package and build the inputs (timed as set-up)."""
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def final_check(self):
        """Checks that need extra program runs; done once, after timing."""


def _cli_op(workload, name, argv, check) -> Op:
    out = workload.work / name
    return Op(name, lambda: run_cli(workload.am, list(argv) + ["--out", out]),
              check, out=out)


# -- exact-senders --------------------------------------------------------------

IID_ACCURACY, IID_ABSTAIN, IID_COST = "0.8", "0.55", "0.01"


def iid_reference(n: int) -> reference.IIDBinary:
    return reference.IIDBinary(n, Fraction(IID_ACCURACY), Fraction(IID_ABSTAIN),
                               Fraction(IID_COST))


def iid_scenario_yaml(n: int) -> str:
    """Conditionally iid binary signals, as a product-form scenario file."""
    miss = 1 - Decimal(IID_ACCURACY)
    lines = ["schema_version: 1", f"name: iid-binary-{n}", f"cost: {IID_COST}",
             "components:", "  state: [s0, s1]", "  senders:"]
    lines += ['    - ["0", "1"]'] * n
    lines += ["prior:", "  product:", "    state: [0.5, 0.5]",
              "    conditionals:"]
    lines += [f"      - [[{IID_ACCURACY}, {miss}], [{miss}, {IID_ACCURACY}]]"] * n
    lines += ["decision:", "  actions: [guess_0, guess_1, abstain]",
              "  utility:", "    by_state:", "      guess_0: [1.0, 0.0]",
              "      guess_1: [0.0, 1.0]",
              f"      abstain: [{IID_ABSTAIN}, {IID_ABSTAIN}]"]
    return "\n".join(lines) + "\n"


class ExactSenders(Workload):
    """`check`, then `solve --force`, on n conditionally iid binary senders."""

    name = "exact-senders"

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.n = 3 if tiny else 7
        self.ref = iid_reference(self.n)

    def setup(self):
        self.am = fresh_import()
        self.scenario = self.work / "iid.yaml"
        self.scenario.write_text(iid_scenario_yaml(self.n))
        loaded = self.am.cli.load_scenario(self.scenario)
        expect(loaded.prior.n_senders == self.n, "scenario sender count")

    def ops(self):
        common = ["--scenario", self.scenario, "--seed", self.seed]
        return [_cli_op(self, "check", ["check"] + common, self.check_check),
                _cli_op(self, "solve", ["solve", "--force"] + common,
                        self.check_solve)]

    @functools.cached_property
    def expected_conditions(self) -> dict:
        return {"assumption2": self.ref.assumption2(),
                "substitutes": self.ref.substitutes(),
                "mnat_concave": self.ref.mnat()}

    def check_conditions(self, conds: dict) -> bool:
        """Verdicts, counts and margins of each checker against the exact
        enumeration; the substitutes checker adds its sampled garbled
        beliefs (the CLI's default 20 per sender) to the exact layer."""
        holds_all = True
        for name, got in conds.items():
            exp = self.expected_conditions[name]
            witnesses, checked = got["witnesses"], exp["checked"]
            margin = float(exp["margin"])
            garbled = []
            if name == "substitutes":
                checked += 20 * self.n
                garbled = [w["value_now"] - w["expected_residual_value"]
                           for w in witnesses if w["layer"] == "garbled"]
                witnesses = [w for w in witnesses if w["layer"] == "revealed"]
                if margin >= -reference.INEQ_TOL:
                    # sampled slack above the threshold is not reported
                    expect(got["margin"] <= margin + 1e-9,
                           f"substitutes margin {got['margin']} above the "
                           f"exact layer's {margin}")
                    margin = got["margin"]
                margin = min([margin] + garbled)
            holds = exp["witnesses"] == 0 and not garbled
            holds_all &= holds
            expect(got["holds"] == holds, f"{name}: holds={got['holds']}")
            expect(got["checked"] == checked,
                   f"{name}: checked {got['checked']}, expected {checked}")
            expect(len(witnesses) == exp["witnesses"],
                   f"{name}: {len(witnesses)} witnesses, expected "
                   f"{exp['witnesses']}")
            expect(close(got["margin"], margin, abs_=1e-9),
                   f"{name}: margin {got['margin']}, expected {margin}")
        return holds_all

    def check_check(self, code) -> bool:
        conds = read_json(self.work / "check" / "report.json")["conditions"]
        expect(sorted(conds) == sorted(self.expected_conditions),
               f"check reports {sorted(conds)}")
        holds = self.check_conditions(conds)
        expect(code == (0 if holds else 2), f"check exit code {code}")
        return False

    def check_solve(self, code) -> bool:
        """Rates against cost / exact residual.  A finite rate where the
        exact residual is 0 is the counted failure."""
        expect(code == 0, f"solve exit code {code}")
        out = self.work / "solve"
        ref, n, cost = self.ref, self.n, float(self.ref.cost)
        residuals = {}
        seen = set()
        finite_at_zero = 0
        for row in iter_csv(out / "profile.csv"):
            revealed = [int(s) for s in row["revealed_set"].split("|") if s]
            values = [v for v in row["realization"].split("|") if v]
            sender = int(row["sender"])
            key = (row["state_id"], sender)
            expect(key not in seen and sender not in revealed
                   and 1 <= sender <= n and len(values) == len(revealed),
                   f"profile row {row}")
            seen.add(key)
            ones = values.count("1")
            k = len(values)
            if (ones, k) not in residuals:
                residuals[(ones, k)] = ref.residual(ones, k - ones, n - k)
            residual = residuals[(ones, k)]
            rate = float(row["rate"])
            if residual == 0:
                finite_at_zero += not math.isinf(rate)
            else:
                expect(close(rate, cost / residual, rel=1e-6),
                       f"rate {rate} at {row}, expected {cost / residual}")
        expected_rows = sum(math.comb(n, k) * 2 ** k * (n - k) for k in range(n))
        expect(len(seen) == expected_rows,
               f"profile.csv has {len(seen)} rows, expected {expected_rows}")

        payoffs = read_csv(out / "payoffs.csv")
        visits = [float(r["value"]) for r in payoffs
                  if r["quantity"] == "expected_visits"]
        expect(len(visits) == n and all(close(v, ref.visits()) for v in visits),
               f"expected visits {visits}, expected {float(ref.visits())} each")
        receiver = [float(r["value"]) for r in payoffs
                    if r["quantity"] == "receiver_payoff"]
        expect(receiver and close(receiver[0], ref.receiver_payoff()),
               f"receiver payoff {receiver}, expected "
               f"{float(ref.receiver_payoff())}")
        prices = [float(r["price"]) for r in read_csv(out / "prices.csv")]
        expect(len(prices) == n and all(close(p, ref.price()) for p in prices),
               f"prices {prices}, expected {float(ref.price())}")
        report = read_json(out / "report.json")
        expect(sorted(report["conditions"]) == ["assumption2", "substitutes"],
               f"solve reports {sorted(report['conditions'])}")
        expect(report["summary"]["equilibrium"]
               == self.check_conditions(report["conditions"]),
               "solve report's equilibrium flag")
        return finite_at_zero > 0


# -- exact-grid ------------------------------------------------------------------

GRID_P0, GRID_P, GRID_COST = 1.0, (1.0, 1.0), 0.01


def gaussian_grid_yaml(points: int, actions: int, half_width: float = 4.0) -> str:
    """Truncated-grid discretization of the two-sender Gaussian scenario,
    written in product form: a state marginal and one conditional matrix
    per sender, rows normalized, whose product is the discretized joint."""
    x0 = np.linspace(-half_width / math.sqrt(GRID_P0),
                     half_width / math.sqrt(GRID_P0), points)
    log_state = -0.5 * GRID_P0 * x0 ** 2
    conditionals = []
    for p in GRID_P:
        sd = math.sqrt(1.0 / GRID_P0 + 1.0 / p)
        xi = np.linspace(-half_width * sd, half_width * sd, points)
        log_lik = -0.5 * p * (xi[None, :] - x0[:, None]) ** 2
        top = log_lik.max(axis=1, keepdims=True)
        lik = np.exp(log_lik - top)
        norm = lik.sum(axis=1, keepdims=True)
        conditionals.append(lik / norm)
        log_state = log_state + top[:, 0] + np.log(norm[:, 0])
    state = np.exp(log_state - log_state.max())
    state /= state.sum()
    guesses = np.linspace(x0[0], x0[-1], actions)
    utility = -(guesses[:, None] - x0[None, :]) ** 2

    def row(values):
        return "[" + ", ".join(repr(float(v)) for v in values) + "]"

    lines = ["schema_version: 1", f"name: gaussian-grid-{points}",
             f"cost: {GRID_COST}", "components:",
             "  state: [" + ", ".join(f"x{k}" for k in range(points)) + "]",
             "  senders:"]
    lines += ["    - [" + ", ".join(f"y{k}" for k in range(points)) + "]"] * len(GRID_P)
    lines += ["prior:", "  product:", "    state: " + row(state),
              "    conditionals:"]
    lines += ["      - [" + ", ".join(row(r) for r in c) + "]"
              for c in conditionals]
    lines += ["decision:",
              "  actions: [" + ", ".join(f"a{k}" for k in range(actions)) + "]",
              "  utility:", "    by_state:"]
    lines += [f"      a{k}: {row(u)}" for k, u in enumerate(utility)]
    return "\n".join(lines) + "\n"


class ExactGrid(Workload):
    """`check`, then `solve`, on the discretized two-sender Gaussian scenario."""

    name = "exact-grid"

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.points, self.actions = (21, 81) if tiny else (41, 161)

    def setup(self):
        self.am = fresh_import()
        self.scenario = self.work / "grid.yaml"
        self.scenario.write_text(gaussian_grid_yaml(self.points, self.actions))
        loaded = self.am.cli.load_scenario(self.scenario)
        expect(loaded.prior.mass.shape == (self.points,) * 3, "grid shape")

    def ops(self):
        common = ["--scenario", self.scenario, "--seed", self.seed]
        return [_cli_op(self, "check", ["check"] + common, self.check_check),
                _cli_op(self, "solve", ["solve"] + common, self.check_solve)]

    def check_check(self, code) -> bool:
        conds = read_json(self.work / "check" / "report.json")["conditions"]
        for name in ("assumption2", "substitutes", "mnat_concave"):
            expect(conds[name]["holds"] and not conds[name]["witnesses"],
                   f"{name} fails on the Gaussian grid")
        expect(code == 0, f"check exit code {code}")
        return False

    def check_solve(self, code) -> bool:
        expect(code == 0, f"solve exit code {code}")
        out = self.work / "solve"
        rates = {int(r["sender"]): float(r["rate"])
                 for r in read_csv(out / "profile.csv") if r["state_id"] == "0"}
        closed = reference.gaussian_rates(GRID_P0, GRID_P, GRID_COST)
        expect(sorted(rates) == [1, 2], f"root rates {rates}")
        for i, target in enumerate(closed, start=1):
            expect(close(rates[i], target, rel=0.02),
                   f"root rate {rates[i]} of sender {i} not within 2% of "
                   f"{target}")
        expect(close(rates[1], rates[2]), f"unequal root rates {rates}")
        payoff = [float(r["value"]) for r in read_csv(out / "payoffs.csv")
                  if r["quantity"] == "receiver_payoff"]
        target = reference.gaussian_receiver_payoff(GRID_P0, GRID_P)
        expect(payoff and close(payoff[0], target, rel=0.02),
               f"receiver payoff {payoff} not within 2% of {target}")
        expect(read_json(out / "report.json")["summary"]["equilibrium"],
               "solve report's equilibrium flag")
        return False


# -- montecarlo ------------------------------------------------------------------

# Standard errors allowed between a mean and its theory value.  A run makes
# about 15 such comparisons per seed; at 4 SE a correct program would fail
# one set of 50 seeds about once in 50, at 5 SE about once in 5,000.
Z = 5.0


def summary_rows(out: Path) -> dict:
    return {r["quantity"]: r for r in read_csv(out / "summary.csv")}


def within(row, theory) -> bool:
    return abs(float(row["empirical"]) - theory) <= Z * float(row["stderr"])


class MonteCarlo(Workload):
    """`simulate` on pair_guess (lowest and random receiver orders), traced
    `simulate` on three_action_signals, and a library `monte_carlo` call."""

    name = "montecarlo"

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.episodes = 2_000 if tiny else 20_000
        self.traced = 50 if tiny else 1_000
        self.pair = SCENARIOS / "pair_guess.yaml"
        self.three = SCENARIOS / "three_action_signals.yaml"
        self.visits, self.payoff = reference.pair_guess_values(0.7, 0.1)

    def setup(self):
        am = self.am = fresh_import()
        scenario = am.cli.load_scenario(self.pair)
        am.cli.load_scenario(self.three)
        profile = am.aon_rates(scenario.dp, scenario.prior, scenario.cost)
        self.mc_args = (scenario.dp, scenario.prior, scenario.cost,
                        am.simulate.equilibrium_policies(profile))

    def _simulate(self, name, scenario, episodes, *extra):
        return _cli_op(self, name, ["simulate", "--scenario", scenario,
                                    "--replications", episodes,
                                    "--seed", self.seed] + list(extra),
                       getattr(self, "check_" + name.replace("-", "_")))

    def ops(self):
        return [
            self._simulate("simulate-lowest", self.pair, self.episodes,
                           "--receiver-order", "lowest"),
            self._simulate("simulate-random", self.pair, self.episodes,
                           "--receiver-order", "random"),
            self._simulate("simulate-trace", self.three, self.episodes // 2,
                           "--trace-episodes", self.traced),
            Op("monte_carlo", self.run_monte_carlo, self.check_monte_carlo),
        ]

    def run_monte_carlo(self):
        return self.am.monte_carlo(*self.mc_args, self.am.FixedOrder(),
                                   replications=self.episodes, seed=self.seed)

    def _check_pair(self, name, code):
        expect(code == 0, f"{name} exit code {code}")
        out = self.work / name
        rows = summary_rows(out)
        count, sums = 0, [0.0, 0.0]
        for e in iter_csv(out / "episodes.csv"):
            count += 1
            sums[0] += float(e["visits_1"])
            sums[1] += float(e["visits_2"])
        expect(count == self.episodes,
               f"{name}: {count} episodes, expected {self.episodes}")
        for i in (1, 2):
            row = rows[f"visits_{i}"]
            expect(close(row["theory"], self.visits),
                   f"{name}: theory visits {row['theory']}")
            expect(within(row, self.visits),
                   f"{name}: visits_{i} {row['empirical']} +- {row['stderr']} "
                   f"not within {Z} SE of {self.visits}")
            expect(close(row["empirical"], sums[i - 1] / count),
                   f"{name}: summary visits_{i} is not the episodes' mean")
        row = rows["receiver_payoff"]
        expect(close(row["theory"], self.payoff), f"{name}: theory payoff")
        expect(within(row, self.payoff),
               f"{name}: payoff {row['empirical']} +- {row['stderr']} not "
               f"within {Z} SE of {self.payoff}")

    def check_simulate_lowest(self, code) -> bool:
        self._check_pair("simulate-lowest", code)
        return False

    def check_simulate_random(self, code) -> bool:
        """Also receiver-order invariance against the lowest order."""
        rows = summary_rows(self.work / "simulate-random")
        lowest = summary_rows(self.work / "simulate-lowest")
        for q, row in rows.items():
            spread = math.hypot(float(row["stderr"]),
                                float(lowest[q]["stderr"]))
            expect(abs(float(row["empirical"]) - float(lowest[q]["empirical"]))
                   <= Z * spread,
                   f"{q}: random and lowest orders disagree beyond {Z} SE")
        self._check_pair("simulate-random", code)
        return False

    def check_simulate_trace(self, code) -> bool:
        expect(code == 0, f"simulate-trace exit code {code}")
        out = self.work / "simulate-trace"
        ref = iid_reference(2)
        rows = summary_rows(out)
        theory = {"visits_1": ref.visits(), "visits_2": ref.visits(),
                  "receiver_payoff": ref.receiver_payoff()}
        for q, value in theory.items():
            expect(close(rows[q]["theory"], value),
                   f"three_action_signals theory {q} {rows[q]['theory']}, "
                   f"expected {float(value)}")
            expect(within(rows[q], float(value)),
                   f"three_action_signals {q} {rows[q]['empirical']} not "
                   f"within {Z} SE of {float(value)}")
        rounds = [int(e["rounds"]) for e, _ in
                  zip(iter_csv(out / "episodes.csv"), range(self.traced))]
        per_episode = [0] * self.traced
        for r in iter_csv(out / "trace.csv"):
            k = int(r["episode"])
            expect(k < self.traced, f"trace row for episode {k}")
            per_episode[k] += 1
        expect(per_episode == rounds,
               "trace.csv rows per episode differ from episodes.csv rounds")
        return False

    def check_monte_carlo(self, summary) -> bool:
        expect(summary.replications == self.episodes, "replications")
        for i in (1, 2):
            expect(abs(summary.mean_visits[i] - self.visits)
                   <= Z * summary.se_visits[i],
                   f"monte_carlo visits {summary.mean_visits[i]} not within "
                   f"{Z} SE of {self.visits}")
        expect(abs(summary.mean_receiver_payoff - self.payoff)
               <= Z * summary.se_receiver_payoff,
               f"monte_carlo payoff {summary.mean_receiver_payoff} not within "
               f"{Z} SE of {self.payoff}")
        return False

    def final_check(self):
        """Episode k depends only on (seed, k): N episodes are the first N
        rows of 2N."""
        short = 300
        files = []
        for episodes in (short, 2 * short):
            out = self.work / f"prefix-{episodes}"
            code = run_cli(self.am, ["simulate", "--scenario", self.pair,
                                     "--replications", episodes, "--seed",
                                     self.seed, "--receiver-order", "random",
                                     "--out", out])
            expect(code == 0, f"simulate exit code {code}")
            files.append((out / "episodes.csv").read_text().splitlines())
        expect(files[0] == files[1][:short + 1],
               f"the first {short} episodes change with the episode count")


# -- large-market ----------------------------------------------------------------


def three_state_weights(seed: int) -> tuple:
    """State weights of the three-state environment, drawn from the seed."""
    rng = random.Random(seed)
    return tuple(rng.randint(25, 40) for _ in range(3))


class LargeMarket(Workload):
    """`sweep --sweep-kind large-n --finite` on the default environment, and
    the library curves on a three-state, three-signal environment."""

    name = "large-market"
    exact_n = 10             # curve points checked against exact rationals

    def __init__(self, work, seed, tiny=False):
        super().__init__(work, seed)
        self.sweep_n, self.curve_n = (40, 15) if tiny else (200, 60)
        self.weights = three_state_weights(seed)

    def setup(self):
        am = self.am = fresh_import()
        am.largemarket.default_environment()
        lik = reference.THREE_STATE_LIKELIHOOD
        self.env = am.IIDEnvironment(
            state_labels=("a", "b", "c"),
            state_weights=[k / sum(self.weights) for k in self.weights],
            signal_alphabet=("x", "y", "z"),
            likelihood=[[float(v) for v in row] for row in lik],
            actions=("guess_a", "guess_b", "guess_c"),
            utility=np.eye(3))

    def ops(self):
        return [
            _cli_op(self, "sweep", ["sweep", "--sweep-kind", "large-n",
                                    "--finite", "--n-max", self.sweep_n,
                                    "--seed", self.seed], self.check_sweep),
            Op("curves", self.run_curves, self.check_curves),
        ]

    def run_curves(self):
        ns = range(1, self.curve_n + 1)
        return (self.am.residual_value_curve(self.env, ns),
                self.am.decision_error_curve(self.env, ns))

    def _check_curves(self, label, market, residual, error, n_max):
        expect([p[0] for p in residual] == list(range(1, n_max + 1))
               and [p[0] for p in error] == list(range(1, n_max + 1)),
               f"{label}: curve covers the wrong n")
        for n, value in residual[:self.exact_n]:
            exact = market.residual(n)
            expect(close(value, exact, rel=0, abs_=1e-12),
                   f"{label}: residual {value} at n={n}, exact {float(exact)}")
        for n, value in error[:self.exact_n]:
            exact = market.decision_error(n)
            expect(close(value, exact, rel=0, abs_=1e-12),
                   f"{label}: decision error {value} at n={n}, exact "
                   f"{float(exact)}")
        values = [v for _, v in error]
        expect(all(a > b for a, b in zip(values, values[1:])),
               f"{label}: decision error does not strictly decrease")
        expect(all(v >= 0 for _, v in residual) and all(v >= 0 for v in values),
               f"{label}: negative curve value")

    def check_sweep(self, code) -> bool:
        expect(code == 0, f"sweep exit code {code}")
        out = self.work / "sweep"
        rows = read_csv(out / "large_market.csv")
        expect(all(r["mode"] == "exact" for r in rows), "sampled sweep rows")
        for r in rows:
            expect(close(r["scaled_residual"],
                         int(r["n"]) * float(r["residual_value"])),
                   f"scaled residual at n={r['n']}")
        self._check_curves(
            "sweep", reference.default_market(),
            [(int(r["n"]), float(r["residual_value"])) for r in rows],
            [(int(r["n"]), float(r["decision_error"])) for r in rows],
            self.sweep_n)
        fit = read_json(out / "report.json")["summary"]["fit"]
        expect(fit["r_squared"] >= 0.98 and 0 < fit["rho"] < 1,
               f"sweep decay fit {fit}")
        return False

    def check_curves(self, curves) -> bool:
        residual, error = curves
        expect(all(p.mode == "exact" for p in residual + error),
               "sampled curve points")
        self._check_curves(
            "curves", reference.three_state_market(self.weights),
            [(p.n, p.value) for p in residual], [(p.n, p.value) for p in error],
            self.curve_n)
        return False


WORKLOADS = {w.name: w for w in (ExactSenders, ExactGrid, MonteCarlo, LargeMarket)}
