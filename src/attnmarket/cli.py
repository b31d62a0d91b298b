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
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from .conditions import check_assumption2, check_mnat_concave, check_substitutes
from .decision import DecisionProblem
from .environment import ComponentSpace, JointPrior, probabilities
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
    cost: float | None
    prior: JointPrior | None
    dp: DecisionProblem | None
    gaussian: dict | None
    simulation: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return self.prior is not None


def _need(mapping, key, where):
    if key not in mapping:
        raise ScenarioError(f"missing '{key}' in {where}")
    return mapping[key]


def _mapping(value, where) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping, got {value!r}")
    return value


def _number(value, where) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where} must be a number, got {value!r}") from None


def _positive(value, where):
    out = _number(value, where)
    if not 0 < out < np.inf:  # NaN included
        raise ScenarioError(f"{where} must be finite and positive, got {out}")
    return out


def _integer(value, where) -> int:
    """A whole number; anything else raises ``ScenarioError`` naming the
    field."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if (out is None or isinstance(value, bool)
            or (isinstance(value, float) and out != value)):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return out


def _numbers(values, where) -> np.ndarray:
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or not np.all(np.isfinite(out)):
        raise ScenarioError(f"{where} must list finite numbers, "
                            f"got {values!r}")
    return out


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
    raw = _read_yaml(path)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must be a mapping")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    has_finite = "components" in raw
    has_gaussian = "gaussian" in raw
    if has_finite == has_gaussian:
        raise ScenarioError(
            "exactly one of a finite environment (components/prior/decision) "
            "or a gaussian block must be present")

    cost = raw.get("cost")
    if cost is not None:
        cost = _positive(cost, "cost")

    prior = dp = gaussian = None
    if has_finite:
        if cost is None:
            raise ScenarioError("missing 'cost' for a finite environment")
        prior, dp = _parse_finite(raw)
    else:
        gaussian = _parse_gaussian(_need(raw, "gaussian", "scenario"))

    simulation = raw.get("simulation") or {}
    if not isinstance(simulation, dict):
        raise ScenarioError("'simulation' must be a mapping")
    return Scenario(
        name=str(raw.get("name", os.path.basename(str(path)))),
        description=str(raw.get("description", "")),
        cost=cost,
        prior=prior,
        dp=dp,
        gaussian=gaussian,
        simulation=simulation,
    )


def _parse_finite(raw):
    comp = _mapping(_need(raw, "components", "scenario"), "components")
    state_values = comp.get("state") or ["-"]
    senders = _need(comp, "senders", "components")
    if not isinstance(senders, list) or not senders:
        raise ScenarioError("components.senders must list at least one sender")
    spaces = []
    for i, values in enumerate([state_values] + senders):
        where = f"components.senders[{i - 1}]" if i else "components.state"
        if not isinstance(values, list) or not values:
            raise ScenarioError(f"{where} must be a non-empty list of values")
        try:  # duplicate or unhashable values
            spaces.append(ComponentSpace(i, tuple(values)))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from None
    shape = tuple(s.size for s in spaces)
    try:
        prior = JointPrior(spaces, _prior_mass(_need(raw, "prior", "scenario"),
                                               shape))
    except (TypeError, ValueError) as exc:  # entries that are not numbers
        raise ScenarioError(f"invalid prior: {exc}") from None

    decision = _mapping(_need(raw, "decision", "scenario"), "decision")
    actions = _need(decision, "actions", "decision")
    if not isinstance(actions, list) or not actions:
        raise ScenarioError("decision.actions must be a non-empty list")
    try:
        distinct = len(set(actions)) == len(actions)
    except TypeError:  # an unhashable label
        distinct = False
    if not distinct:
        raise ScenarioError(f"decision.actions must list distinct labels, "
                            f"got {actions!r}")
    utility = _mapping(_need(decision, "utility", "decision"),
                       "decision.utility")
    if ("by_state" in utility) == ("by_joint" in utility):
        raise ScenarioError(
            "decision.utility must have exactly one of 'by_state' or 'by_joint'")
    block = "by_state" if "by_state" in utility else "by_joint"
    rows = _mapping(utility[block], f"decision.utility.{block}")
    unknown = [a for a in rows if a not in actions]
    if unknown:
        raise ScenarioError(f"decision.utility.{block} names {unknown[0]!r}, "
                            "which is not in decision.actions")
    if "by_state" in utility:
        table = []
        for a in actions:
            row = _numbers(_need(rows, a, "decision.utility.by_state"),
                           f"decision.utility.by_state[{a!r}]")
            if row.shape != (shape[0],):
                raise ScenarioError(
                    f"utility.by_state[{a!r}] must list one value per "
                    "state realization")
            table.append(row)
        dp = DecisionProblem.from_state_table(actions, np.stack(table),
                                              len(shape))
    else:
        blocks = []
        for a in actions:
            row = _numbers(_need(rows, a, "decision.utility.by_joint"),
                           f"decision.utility.by_joint[{a!r}]").ravel()
            if row.size != int(np.prod(shape)):
                raise ScenarioError(
                    f"utility.by_joint[{a!r}] has {row.size} entries, "
                    f"expected {int(np.prod(shape))}")
            blocks.append(row.reshape(shape))
        dp = DecisionProblem(actions, np.stack(blocks))
    return prior, dp


def _prior_mass(prior_block, shape) -> np.ndarray:
    """The joint mass a prior block describes, as written (not
    renormalized); an invalid probability vector in it raises
    ``ValueError`` naming its field."""
    prior_block = _mapping(prior_block, "prior")
    if ("dense" in prior_block) == ("product" in prior_block):
        raise ScenarioError("prior must have exactly one of 'dense' or 'product'")
    if "dense" in prior_block:
        flat = np.asarray(prior_block["dense"], dtype=float).ravel()
        if flat.size != int(np.prod(shape)):
            raise ScenarioError(
                f"prior.dense has {flat.size} entries, expected "
                f"{int(np.prod(shape))} (row-major over state x senders)")
        probabilities(flat, "prior.dense")
        return flat.reshape(shape)
    product = _mapping(prior_block["product"], "prior.product")
    marginal = np.asarray(_need(product, "state", "prior.product"), dtype=float)
    if marginal.shape != (shape[0],):
        raise ScenarioError("prior.product.state length must match the "
                            "state value list")
    probabilities(marginal, "prior.product.state")
    conds = _need(product, "conditionals", "prior.product")
    if not isinstance(conds, list) or len(conds) != len(shape) - 1:
        raise ScenarioError("prior.product.conditionals needs one matrix "
                            "per sender")
    mass = marginal.reshape((shape[0],) + (1,) * len(conds))
    for i, rows in enumerate(conds, start=1):
        table = np.asarray(rows, dtype=float)
        if table.shape != (shape[0], shape[i]):
            raise ScenarioError(
                f"prior.product.conditionals[{i - 1}] must be "
                f"{shape[0]} rows x {shape[i]} values")
        for r in range(shape[0]):
            probabilities(table[r],
                          f"prior.product.conditionals[{i - 1}] row {r}")
        block_shape = [1] * len(shape)
        block_shape[0] = shape[0]
        block_shape[i] = shape[i]
        mass = mass * table.reshape(block_shape)
    return mass


def _parse_gaussian(block) -> dict:
    if not isinstance(block, dict):
        raise ScenarioError("'gaussian' must be a mapping")
    p0 = _positive(_need(block, "p0", "gaussian"), "gaussian.p0")
    p = _need(block, "p", "gaussian")
    if not isinstance(p, list) or not p:
        raise ScenarioError(f"gaussian.p must be a non-empty list, got {p!r}")
    p = [_positive(x, "gaussian.p[]") for x in p]
    out = {"p0": p0, "p": tuple(p)}
    if "pc" in block:
        out["pc"] = _positive(block["pc"], "gaussian.pc")
        if len(p) != 2:
            raise ScenarioError("a correlated gaussian block needs exactly "
                                "two senders")
    if "alpha" in block:
        alpha = _number(block["alpha"], "gaussian.alpha")
        if not 0.0 <= alpha <= 1.0:
            raise ScenarioError("gaussian.alpha must lie in [0, 1]")
        out["alpha"] = alpha
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
    g = scenario.gaussian
    if scenario.cost is None:
        raise ScenarioError("missing 'cost' for a gaussian scenario")
    s = GaussianScenario(g["p0"], g["p"], scenario.cost)
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
    if "pc" in g:
        row = _correlation_row(CorrelatedScenario(
            g["p0"], g["p"][0], g["p"][1], g["pc"], g.get("alpha", 0.0),
            scenario.cost))
        report.csv("correlation.csv", CORRELATION_HEADER, [row])
        report.summary["correlation_threshold"] = row[1]


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    report = RunReport("solve", scenario.name, args.out)
    (_solve_finite if scenario.finite else _solve_gaussian)(scenario, args,
                                                            report)
    return report.finish()


def _receiver_policy(spec: str, n: int):
    if spec == "lowest":
        return FixedOrder()
    if spec == "random":
        return RandomOrder()
    if spec.startswith("perm:"):
        try:
            order = tuple(int(tok) for tok in spec[5:].split(","))
        except ValueError:
            raise ScenarioError(f"bad permutation spec {spec!r}") from None
        if sorted(order) != list(range(1, n + 1)):
            raise ScenarioError(
                f"receiver order {order} must permute senders 1..{n}")
        return FixedOrder(order)
    raise ScenarioError(f"unknown receiver order {spec!r}")


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if not scenario.finite:
        raise ScenarioError("'simulate' needs a finite environment block")
    sim = scenario.simulation

    def setting(name, default):  # the flag, else the scenario's, else default
        flag = getattr(args, name)
        return (flag if flag is not None
                else _integer(sim.get(name, default), f"simulation.{name}"))

    replications = setting("replications", 10_000)
    seed = setting("seed", 0)
    order = args.receiver_order or str(sim.get("receiver_order", "lowest"))
    round_cap = setting("round_cap", DEFAULT_ROUND_CAP)
    if replications < 1:
        raise ScenarioError("replications must be at least 1")
    if seed < 0:
        raise ScenarioError(f"simulation.seed is negative: {seed}")
    if round_cap < 1:
        raise ScenarioError("round cap must be at least 1")
    n = scenario.prior.n_senders
    receiver = _receiver_policy(order, n)

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
        for name in ("seed", "su_samples", "trace_episodes", "mc_samples"):
            if (getattr(args, name, None) or 0) < 0:
                raise ScenarioError(f"--{name.replace('_', '-')} is negative")
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
