"""Command-line interface: scenario ingestion, dispatch, report emission.

Exit codes: 0 success, 1 input error, 2 condition failure, 3 runtime
limit.  All emitted CSV files are byte-deterministic for a fixed
(scenario, command, seed) triple; numbers are written in shortest
round-trip decimal form.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from .conditions import check_assumption2, check_mnat_concave, check_substitutes
from .decision import DecisionProblem
from .environment import ComponentSpace, JointPrior, probabilities, product_mass
from .equilibrium import aon_rates, marginal_prices
from .errors import (
    AssumptionViolated,
    AttnMarketError,
    BudgetExceeded,
    ConditionNotVerified,
    RoundLimitExceeded,
    ScenarioError,
    SubsetSpaceTooLarge,
)
from .gaussian import (
    CorrelatedScenario,
    GaussianScenario,
    bridge_mc_check,
    bridge_schedule,
    correlation_threshold,
    gaussian_rates,
    gaussian_receiver_payoff,
    large_n_gaussian,
    payoff_at_alpha,
    symmetry_gap,
)
from .largemarket import (
    decision_error_curve,
    default_environment,
    fit_exponential_rate,
    residual_value_curve,
)
from .simulate import (
    DEFAULT_ROUND_CAP,
    FixedOrder,
    RandomOrder,
    _replicate,
    equilibrium_policies,
)
from .tolerance import ROUNDING

SCHEMA_VERSION = 1
OUT_ENV_VAR = "ATTNMARKET_OUT"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONDITION = 2
EXIT_RUNTIME = 3


def write_csv(path, header, rows):
    """Rows of Python ``str``, ``int`` and ``float`` values, in UTF-8; the
    csv module writes a float as its shortest round-trip decimal
    (``repr``)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_BLOCK = 256  # records per write, so a long list is never one string


def _flat(values) -> bool:
    """Whether no value is a list, tuple or dict."""
    return not any(issubclass(t, (dict, list, tuple))
                   for t in set(map(type, values)))


def _column(values, memo, pad):
    """The json text of each of ``values``, all at indent ``pad``: scalars
    in one pass of json's C encoder, any other value once per distinct
    object, memoized in ``memo`` by ``id`` (not by value: 1, 1.0 and True
    hash equal), the non-empty dicts of scalars among them in one pass."""
    if _flat(values):
        return json.dumps(values, separators=("\0", ": "))[1:-1].split("\0")
    fresh = {id(o): o for o in values if id(o) not in memo}
    dicts = [o for o in fresh.values()
             if type(o) is dict and o and _flat(o.values())]
    # one pass; "}\0{" only joins two of them, as strings escape NUL
    texts = json.dumps(dicts, sort_keys=True, separators=("\0", ": "))
    inner = pad + "  "
    for o, text in zip(dicts, texts[2:-2].split("}\0{")):
        memo[id(o)] = "{" + inner + text.replace("\0", "," + inner) + pad + "}"
    for o in fresh.values():
        if id(o) not in memo:
            parts = []
            _emit(parts.append, o, pad)
            memo[id(o)] = "".join(parts)
    return map(memo.__getitem__, map(id, values))


def _emit(write, o, pad):
    """Write ``o`` as json at indent ``pad`` (a newline, then spaces),
    leaving every leaf to json's C encoder: a list of records (dicts with
    one set of ``str`` keys) column by column in blocks of ``_BLOCK``, any
    other list as one column and a dict item by item."""
    inner = pad + "  "
    if not isinstance(o, (dict, list, tuple)) or not o:
        write(json.dumps(o))
    elif isinstance(o, dict):
        for k, (key, value) in enumerate(sorted(o.items())):
            head = json.dumps({key: 0})[1:-4]  # the key as json writes it
            write(("," if k else "{") + inner + head + ": ")
            _emit(write, value, inner)
        write(pad + "}")
    elif (set(map(type, o)) != {dict} or set(map(type, o[0])) != {str}
          or not all(map(o[0].keys().__eq__, map(dict.keys, o)))):
        write("[" + inner + ("," + inner).join(_column(o, {}, inner))
              + pad + "]")
    else:
        field, keys = inner + "  ", sorted(o[0])
        record = "{" + field + ("," + field).join(  # a %s for each value
            json.dumps(k).replace("%", "%%") + ": %s" for k in keys
        ) + inner + "}"
        memos = [{} for _ in keys]
        for start in range(0, len(o), _BLOCK):
            block = o[start:start + _BLOCK]
            columns = [_column([r[k] for r in block], memo, field)
                       for k, memo in zip(keys, memos)]
            write(("," if start else "[") + inner
                  + ("," + inner).join(map(record.__mod__, zip(*columns))))
        write(pad + "]")


def write_json(fh, obj):
    """Write ``obj`` as ``json.dump(obj, fh, indent=2, sort_keys=True)``
    does, then a newline, without the pure-Python encoder that ``indent``
    selects.  Dict keys are sorted before they become strings, so int keys
    sort numerically; a value json cannot encode raises ``TypeError``."""
    _emit(fh.write, obj, "\n")
    fh.write("\n")


# -- scenario files -------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    description: str
    cost: float
    prior: JointPrior | None
    dp: DecisionProblem | None
    gaussian: GaussianScenario | None
    correlated: CorrelatedScenario | None  # a gaussian block with ``pc``
    simulation: dict  # replications, seed, round_cap and receiver_order

    @property
    def finite(self) -> bool:
        return self.prior is not None


# the least value of each count, as a flag or in a scenario's simulation block
_LEAST = {"seed": 0, "su_samples": 0, "trace_episodes": 0, "mc_samples": 0,
          "replications": 1, "round_cap": 1}
_SIMULATION = {"replications": 10_000, "seed": 0,
               "round_cap": DEFAULT_ROUND_CAP}  # the defaults for `simulate`


class _Field:
    """One node of a scenario file with its path there, such as ``cost``,
    ``components.senders[0]`` or ``decision.utility.by_joint['a']``.  Each
    reader returns the node converted or raises ``ScenarioError`` naming
    the path.  A null field counts as an absent one."""

    def __init__(self, value, path):
        self.value, self.path = value, path

    def refuse(self, requirement) -> ScenarioError:
        return ScenarioError(f"{self.path or 'scenario'} must {requirement}, "
                             f"got {self.value!r}")

    def mapping(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.refuse("be a mapping")
        return self.value

    def __contains__(self, key) -> bool:
        return self.mapping().get(key) is not None

    def get(self, key, default=None) -> _Field:
        """The field ``key`` of this mapping, ``default`` where it is
        absent."""
        value = self.mapping().get(key)
        return _Field(default if value is None else value,
                      f"{self.path}.{key}" if self.path else key)

    def __getitem__(self, key) -> _Field:
        """The field ``key`` of this mapping, which must be present."""
        if key not in self:
            raise ScenarioError(f"missing '{key}' in "
                                f"{self.path or 'scenario'}")
        return self.get(key)

    def row(self, label) -> _Field:
        """The entry ``label`` of this mapping of labelled rows."""
        if label not in self:
            raise ScenarioError(f"missing {label!r} in {self.path}")
        return _Field(self.value[label], f"{self.path}[{label!r}]")

    def entries(self, count=None) -> list:
        """The entries of this non-empty list (of ``count`` entries, when
        given)."""
        if (not isinstance(self.value, list) or not self.value
                or count not in (None, len(self.value))):
            raise self.refuse(f"be a list of {count} entries" if count
                              else "be a non-empty list")
        return [_Field(v, f"{self.path}[{i}]")
                for i, v in enumerate(self.value)]

    def labels(self) -> tuple:
        """This non-empty list of distinct values."""
        try:  # an unhashable value raises TypeError
            ok = isinstance(self.value, list) and (
                0 < len(set(self.value)) == len(self.value))
        except TypeError:
            ok = False
        if not ok:
            raise self.refuse("be a non-empty list of distinct values")
        return tuple(self.value)

    def number(self) -> float:
        """A number as YAML writes one, or a string that ``float`` reads;
        not a boolean."""
        try:
            if not isinstance(self.value, bool):
                return float(self.value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise self.refuse("be a number")

    def positive(self) -> float:
        out = self.number()
        if not 0 < out < np.inf:  # NaN included
            raise self.refuse("be finite and positive")
        return out

    def integer(self, least) -> int:
        """A whole number of at least ``least``."""
        try:
            out = int(self.value)
        except (TypeError, ValueError, OverflowError):
            out = None
        if (out is None or isinstance(self.value, bool)
                or (isinstance(self.value, float) and out != self.value)):
            raise self.refuse("be an integer")
        if out < least:
            raise self.refuse(f"be at least {least}")
        return out

    def numbers(self, shape, exact=True) -> np.ndarray:
        """This list of numbers as an array of ``shape``: nested exactly as
        ``shape``, or where not ``exact``, nested any way with as many
        entries, read row-major."""
        try:
            out = np.asarray(self.value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise self.refuse("list numbers") from None
        if exact and out.shape != shape:
            raise self.refuse(f"be {' x '.join(map(str, shape))} numbers")
        if out.size != math.prod(shape):
            raise ScenarioError(f"{self.path} has {out.size} entries, "
                                f"expected {math.prod(shape)}")
        return out.reshape(shape)


def _read_yaml(path):
    """The parsed file, by libyaml's parser where PyYAML was built with it
    and by the pure-Python one otherwise: both build the same values
    through the same constructor and resolver.  The file is read as
    bytes, so the parser detects its encoding (UTF-8 or UTF-16), not the
    locale."""
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "rb") as fh:
            return yaml.load(fh, Loader=loader)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"invalid YAML in {path}: {exc}") from None


def load_scenario(path) -> Scenario:
    """The scenario file at ``path``, every field checked: a file is valid
    or invalid whatever the command that reads it."""
    root = _Field(_read_yaml(path), "")
    version = root.get("schema_version")
    if version.value != SCHEMA_VERSION:
        raise version.refuse(f"be {SCHEMA_VERSION}")
    if ("components" in root) == ("gaussian" in root):
        raise ScenarioError(
            "exactly one of a finite environment (components/prior/decision) "
            "or a gaussian block must be present")
    cost = root["cost"].positive()
    prior = dp = gaussian = correlated = None
    if "components" in root:
        prior, dp = _parse_finite(root)
    else:
        gaussian, correlated = _parse_gaussian(root["gaussian"], cost)
    n = prior.n_senders if prior else len(gaussian.p)
    return Scenario(
        name=str(root.get("name", os.path.basename(str(path))).value),
        description=str(root.get("description", "").value),
        cost=cost,
        prior=prior,
        dp=dp,
        gaussian=gaussian,
        correlated=correlated,
        simulation=_parse_simulation(root.get("simulation", {}), n),
    )


def _parse_finite(root: _Field):
    components = root["components"]
    spaces = [ComponentSpace(i, f.labels()) for i, f in enumerate(
        [components.get("state", ["-"])] + components["senders"].entries())]
    shape = tuple(s.size for s in spaces)
    block = root["prior"]
    try:
        prior = JointPrior(spaces, _prior_mass(block, shape))
    except (ScenarioError, ValueError) as exc:
        raise ScenarioError(f"invalid prior: {exc}") from None

    decision = root["decision"]
    actions = decision["actions"].labels()
    utility = decision["utility"]
    if ("by_state" in utility) == ("by_joint" in utility):
        raise utility.refuse("have exactly one of 'by_state' or 'by_joint'")
    if "by_state" in utility:  # a by_joint row constant over the senders
        rows = utility["by_state"]
        row_shape = shape[:1] + (1,) * (len(shape) - 1)
    else:
        rows, row_shape = utility["by_joint"], shape
    unknown = set(rows.mapping()).difference(actions)
    if unknown:
        raise ScenarioError(f"{rows.path} names {unknown.pop()!r}, which is "
                            "not one of the actions")
    table = np.stack([rows.row(a).numbers(row_shape, exact=False)
                      for a in actions])
    finite = np.isfinite(table).reshape(len(actions), -1).all(axis=1)
    if not finite.all():
        raise rows.row(actions[finite.argmin()]).refuse("list finite numbers")
    return prior, DecisionProblem(actions, table)


def _prior_mass(prior: _Field, shape) -> np.ndarray:
    """The joint mass a prior block describes, as written (not
    renormalized); an invalid probability vector in it raises
    ``ValueError`` naming its field."""
    if ("dense" in prior) == ("product" in prior):
        raise prior.refuse("have exactly one of 'dense' or 'product'")
    if "dense" in prior:
        dense = prior["dense"]
        mass = dense.numbers(shape, exact=False)
        probabilities(mass, dense.path)
        return mass
    state = prior["product"]["state"]
    mass = state.numbers(shape[:1])
    probabilities(mass, state.path)
    conditionals = prior["product"]["conditionals"].entries(len(shape) - 1)
    tables = []
    for i, conditional in enumerate(conditionals, start=1):
        tables.append(conditional.numbers((shape[0], shape[i])))
        for r, row in enumerate(tables[-1]):
            probabilities(row, f"{conditional.path} row {r}")
    return product_mass(mass, tables)


def _parse_gaussian(block: _Field, cost):
    """The gaussian scenario and, where ``pc`` is given, the correlated
    pair."""
    p0 = block["p0"].positive()
    p = block["p"]
    precisions = p.numbers((len(p.entries()),)).tolist()
    try:  # its own check refuses a precision that is not finite and positive
        scenario = GaussianScenario(p0, precisions, cost)
    except ValueError as exc:
        raise ScenarioError(f"{p.path}[]: {exc}") from None
    alpha = block.get("alpha", 0.0)
    weight = alpha.number()
    if not 0.0 <= weight <= 1.0:
        raise alpha.refuse("lie in [0, 1]")
    if "pc" not in block:
        return scenario, None
    if len(scenario.p) != 2:
        raise p.refuse("list two precisions where 'pc' is given")
    pc = block["pc"].positive()
    return scenario, CorrelatedScenario(p0, *scenario.p, pc, weight, cost)


def _parse_simulation(block: _Field, n) -> dict:
    """The settings of `simulate` that a scenario gives, else the
    defaults."""
    out = {name: block.get(name, default).integer(_LEAST[name])
           for name, default in _SIMULATION.items()}
    order = block.get("receiver_order", "lowest")
    _receiver_policy(order, n)
    out["receiver_order"] = order.value
    return out


# -- run reports ----------------------------------------------------------------


@dataclass
class RunReport:
    """One run's outputs: the files it writes into ``out`` (by default
    ``$ATTNMARKET_OUT``, else ``out``, made with the first file, so that a
    run that fails first leaves no directory), in write order, then
    ``report.json``, which names them and leaves out the wall clock, so
    that reports are byte-stable across reruns."""

    command: str
    scenario: str
    out: str
    conditions: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    files: list = field(default_factory=list)
    start: float = field(default_factory=time.perf_counter)

    def __post_init__(self):
        self.out = self.out or os.environ.get(OUT_ENV_VAR) or "out"

    def _path(self, name) -> str:
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, name)

    def csv(self, name, header, rows):
        path = self._path(name)
        write_csv(path, header, rows)
        self.files.append(path)

    def write(self) -> str:
        """Write ``report.json``, listing the files written before it."""
        path = self._path("report.json")
        with open(path, "w", encoding="utf-8") as fh:
            write_json(fh, {
                "command": self.command,
                "scenario": self.scenario,
                "conditions": {k: v.to_dict() for k, v in
                               self.conditions.items()},
                "summary": self.summary,
                "files": [os.path.basename(f) for f in self.files],
            })
        self.files.append(path)
        return path

    def finish(self) -> int:
        """Write ``report.json`` and print every file and the wall clock."""
        self.write()
        for f in self.files:
            print(f"wrote {f}")
        print(f"wall clock: {time.perf_counter() - self.start:.3f}s")
        return EXIT_OK


def _print_conditions(reports):
    print(f"{'condition':<14} {'holds':<6} {'margin':>12}  witnesses")
    for name, rep in reports.items():
        margin = "n/a" if rep.margin == np.inf else f"{rep.margin:.6g}"
        print(f"{name:<14} {str(rep.holds):<6} {margin:>12}  "
              f"{len(rep.witnesses)}")
        for w in rep.witnesses[:3]:
            print(f"    {w}")


# -- commands -------------------------------------------------------------------


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.finite:
        raise ScenarioError("'check' needs a finite environment block")
    start = time.perf_counter()
    # first, so that too many senders stop the run before the slower checks
    mnat = check_mnat_concave(scenario.dp, scenario.prior)
    reports = {
        "assumption2": check_assumption2(scenario.dp, scenario.prior,
                                         scenario.cost),
        "substitutes": check_substitutes(scenario.dp, scenario.prior,
                                         samples=args.su_samples,
                                         seed=args.seed or 0),
        "mnat_concave": mnat,
    }
    wall_clock = time.perf_counter() - start
    _print_conditions(reports)
    if args.out:
        report = RunReport("check", scenario.name, args.out, reports)
        print(f"report: {report.write()}")
    print(f"wall clock: {wall_clock:.3f}s")
    return EXIT_OK if all(r.holds for r in reports.values()) else EXIT_CONDITION


def _solve_finite(scenario, args, report):
    profile = aon_rates(scenario.dp, scenario.prior, scenario.cost,
                        force=args.force, substitutes_samples=args.su_samples,
                        seed=args.seed or 0)
    report.csv("profile.csv",
               ["state_id", "revealed_set", "realization", "sender", "rate"],
               profile.rows())
    payoffs = sorted(profile.sender_payoffs.items())
    report.csv("payoffs.csv", ["quantity", "sender", "value"],
               [("expected_visits", i, v) for i, v in payoffs]
               + [("receiver_payoff", "", profile.receiver_payoff),
                  ("cost", "", profile.cost)])
    prices = sorted(marginal_prices(scenario.dp, scenario.prior).items())
    report.csv("prices.csv", ["sender", "price"], prices)
    report.conditions = profile.reports
    report.summary = {
        "equilibrium": profile.equilibrium,
        "states": len(profile.graph),
        "sender_payoffs": {str(i): v for i, v in payoffs},
        "receiver_payoff": profile.receiver_payoff,
        "prices": {str(i): v for i, v in prices},
    }


CORRELATION_HEADER = ["pc", "threshold", "payoff_independent",
                      "payoff_correlated", "prefers_correlation"]


def _correlation_row(cs):
    """Receiver payoffs, independent against correlated senders."""
    independent, correlated = payoff_at_alpha(cs, 0), payoff_at_alpha(cs, 1)
    return (cs.pc, correlation_threshold(cs.p0, cs.p1, cs.p2), independent,
            correlated, int(correlated > independent))


def _solve_gaussian(scenario, args, report):
    s = scenario.gaussian
    rates = gaussian_rates(s).tolist()
    payoff = gaussian_receiver_payoff(s)
    report.csv("gaussian_rates.csv",
               ["sender", "precision", "rate", "expected_visits"],
               [(i + 1, p, rate, 1.0 / rate)
                for i, (p, rate) in enumerate(zip(s.p, rates))])
    report.csv("gaussian_payoffs.csv", ["quantity", "value"],
               [("receiver_payoff", payoff),
                ("total_precision", s.total_precision), ("cost", s.c)])
    report.summary = {"rates": rates, "receiver_payoff": payoff}
    if scenario.correlated:
        row = _correlation_row(scenario.correlated)
        report.csv("correlation.csv", CORRELATION_HEADER, [row])
        report.summary["correlation_threshold"] = row[1]


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    report = RunReport("solve", scenario.name, args.out)
    (_solve_finite if scenario.finite else _solve_gaussian)(scenario, args,
                                                            report)
    return report.finish()


def _receiver_policy(order: _Field, n: int):
    """The receiver that ``lowest``, ``random`` or ``perm:i,j,...`` (a
    permutation of the senders 1..n) names."""
    spec = order.value
    if spec == "lowest":
        return FixedOrder()
    if spec == "random":
        return RandomOrder()
    if isinstance(spec, str) and spec.startswith("perm:"):
        try:
            perm = tuple(int(tok) for tok in spec[5:].split(","))
        except ValueError:
            perm = ()
        if sorted(perm) == list(range(1, n + 1)):
            return FixedOrder(perm)
    raise order.refuse(f"be lowest, random or perm: and the senders 1..{n} "
                       "in some order")


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.finite:
        raise ScenarioError("'simulate' needs a finite environment block")
    replications, seed, round_cap, order = (  # each flag, else the scenario's
        scenario.simulation[name] if getattr(args, name) is None
        else getattr(args, name)
        for name in ("replications", "seed", "round_cap", "receiver_order"))
    n = scenario.prior.n_senders
    receiver = _receiver_policy(_Field(order, "--receiver-order"), n)

    report = RunReport("simulate", scenario.name, args.out)
    profile = aon_rates(scenario.dp, scenario.prior, scenario.cost,
                        force=args.force, substitutes_samples=args.su_samples,
                        seed=seed)
    mc, episodes, traces = _replicate(
        scenario.dp, scenario.prior, scenario.cost,
        equilibrium_policies(profile), receiver, replications, seed,
        round_cap, profile.graph, traced=args.trace_episodes)
    report.csv("episodes.csv",
               ["episode", "rounds", "cost", "action", "payoff"]
               + [f"visits_{i}" for i in range(1, n + 1)],
               ((k,) + row for k, row in enumerate(episodes)))
    if args.trace_episodes:
        report.csv("trace.csv", ["episode", "round", "offers", "choice",
                                 "message", "state_id"],
                   ((k, rec.round,
                     "|".join(f"{i}={float(r)!r}" for i, r in rec.offers),
                     rec.choice, "" if rec.message is None else rec.message,
                     rec.node_id)
                    for k, trace in enumerate(traces) for rec in trace.rounds))

    def stderr(se):
        return se if replications > 1 else 0.0

    rows = [(f"visits_{i}", i, profile.sender_payoffs[i], mc.mean_visits[i],
             stderr(mc.se_visits[i])) for i in range(1, n + 1)]
    rows.append(("receiver_payoff", "", profile.receiver_payoff,
                 mc.mean_receiver_payoff, stderr(mc.se_receiver_payoff)))
    report.csv("summary.csv", ["quantity", "sender", "theory", "empirical",
                               "stderr"], rows)
    report.conditions = profile.reports
    report.summary = {
        "replications": replications,
        "seed": seed,
        "receiver_order": order,
        "equilibrium": profile.equilibrium,
        "theory_vs_empirical": [
            {"quantity": q, "theory": t, "empirical": e, "stderr": s}
            for q, _, t, e, s in rows],
    }
    print(f"{'quantity':<18} {'theory':>12} {'empirical':>12} {'stderr':>10}")
    for q, _, t, e, s in rows:
        print(f"{q:<18} {t:>12.6f} {e:>12.6f} {s:>10.6f}")
    return report.finish()


def _sweep(kind, args, report):
    if kind == "large-n" and args.finite:
        env = default_environment(accuracy=args.accuracy,
                                  abstain_utility=args.abstain)
        ns = range(1, args.n_max + 1)
        residual = residual_value_curve(env, ns, allow_sampling=True,
                                        seed=args.seed)
        errors = decision_error_curve(env, ns, allow_sampling=True,
                                      seed=args.seed)
        fit = fit_exponential_rate(residual)  # fails before any file
        report.csv("large_market.csv", ["n", "residual_value",
                                        "scaled_residual", "decision_error",
                                        "mode"],
                   [(rv.n, rv.value, rv.scaled, de.value, rv.mode)
                    for rv, de in zip(residual, errors)])
        report.summary = {
            "n_max": args.n_max,
            "terminal_scaled_residual": residual[-1].scaled,
            "terminal_decision_error": errors[-1].value,
            "fit": {"kappa": fit.kappa, "rho": fit.rho,
                    "r_squared": fit.r_squared, "decaying": fit.decaying},
        }
    elif kind == "large-n":
        rows = large_n_gaussian(args.p0, args.precision, args.cost,
                                range(1, args.n_max + 1))
        report.csv("large_n.csv", ["n", "mse_term", "attention_cost", "total"],
                   [(r["n"], r["mse_term"], r["attention_cost"], r["total"])
                    for r in rows])
        report.summary = {"n_max": args.n_max,
                          "terminal_total": rows[-1]["total"]}
    elif kind == "alpha":
        rows = [_correlation_row(CorrelatedScenario(
            args.p0, args.p1, args.p2, pc, 0.0, args.cost)) for pc in args.pc]
        report.csv("alpha.csv", CORRELATION_HEADER, rows)
        report.summary = {"threshold": rows[0][1]}
    elif kind == "symmetry":
        rep = symmetry_gap(args.p0, args.total_precision, args.senders,
                           args.cost, args.grid_step)
        report.csv("symmetry.csv",
                   ["allocation", "payoff", "is_best", "is_symmetric"],
                   [("|".join(repr(float(p)) for p in alloc), payoff,
                     int(payoff >= rep.best_payoff - ROUNDING),
                     int(max(abs(a - s) for a, s in
                             zip(alloc, rep.symmetric_allocation)) <= ROUNDING))
                    for alloc, payoff in rep.allocations])
        report.summary = {
            "symmetric_payoff": rep.symmetric_payoff,
            "best_payoff": rep.best_payoff,
            "symmetric_is_max": rep.symmetric_is_max,
        }
    elif kind == "bridge":
        schedule = bridge_schedule(args.precision, args.cost, args.grid_points)
        columns = [schedule.times.tolist(), schedule.variances.tolist()]
        header = ["t", "posterior_variance"]
        if args.mc_samples:
            chk = bridge_mc_check(args.precision, args.cost,
                                  samples=args.mc_samples, seed=args.seed,
                                  grid_points=args.grid_points)
            columns += [chk.empirical.tolist(), chk.stderr.tolist()]
            header += ["empirical_mse", "stderr"]
            report.summary = {"within_3se": chk.within, "max_z": chk.max_z}
        else:
            report.summary = {"final_time": schedule.final_time}
        report.csv("bridge.csv", header, zip(*columns))
    else:
        raise ScenarioError(f"unknown sweep kind {kind!r}")


def cmd_sweep(args) -> int:
    kind = args.sweep_kind
    if kind == "large-n" and args.n_max < 1:
        raise ScenarioError(f"--n-max must be at least 1, got {args.n_max}")
    report = RunReport("sweep", kind, args.out)
    try:  # a flag value that the library refuses is an input error
        _sweep(kind, args, report)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return report.finish()


# -- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="attnmarket",
                     description="Attention-competition equilibria: check, "
                                 "solve, simulate, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario file (YAML)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${OUT_ENV_VAR} or ./out)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--su-samples", type=int, default=20,
                       help="sampled garbled beliefs per sender for the "
                            "substitutes check")

    p = sub.add_parser("check", help="verify structural conditions")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="construct the equilibrium profile")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="build the profile even if conditions fail")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo verification")
    common(p)
    p.add_argument("--force", action="store_true")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--receiver-order", default=None,
                   help="lowest | random | perm:i,j,...")
    p.add_argument("--round-cap", type=int, default=None)
    p.add_argument("--trace-episodes", type=int, default=0,
                   help="emit a per-round trace.csv for the first N episodes")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="closed-form curve sweeps")
    p.add_argument("--sweep-kind", required=True,
                   choices=["large-n", "alpha", "symmetry", "bridge"])
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--p1", type=float, default=1.0)
    p.add_argument("--p2", type=float, default=1.0)
    p.add_argument("--pc", type=float, action="append", default=None)
    p.add_argument("--precision", type=float, default=1.0)
    p.add_argument("--cost", type=float, default=0.01)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--senders", type=int, default=2)
    p.add_argument("--total-precision", type=float, default=2.0)
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--grid-points", type=int, default=11)
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--finite", action="store_true",
                   help="large-n on the finite conditionally-iid default "
                        "environment instead of the gaussian closed form")
    p.add_argument("--accuracy", type=float, default=0.6)
    p.add_argument("--abstain", type=float, default=0.55)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # a text stream, not a StringIO
        # a label that the locale's encoding lacks prints escaped
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "pc", None) is None and getattr(args, "sweep_kind", "") == "alpha":
        args.pc = [0.4, 0.6]
    try:
        for name, least in _LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ScenarioError(f"--{name.replace('_', '-')} must be at "
                                    f"least {least}, got {value}")
        for name, value in vars(args).items():  # each --pc entry too
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ScenarioError(f"--{name.replace('_', '-')} must be "
                                        f"finite, got {v}")
        code = args.func(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except (ConditionNotVerified, AssumptionViolated) as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        code = EXIT_CONDITION
    except (RoundLimitExceeded, BudgetExceeded, SubsetSpaceTooLarge) as exc:
        print(f"runtime limit: {exc}", file=sys.stderr)
        code = EXIT_RUNTIME
    except AttnMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
