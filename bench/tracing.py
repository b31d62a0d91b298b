"""Spans and counters recorded around the public functions of each
attnmarket module, from outside the program.

A module binds the names it imports (``conditions`` holds its own
reference to ``decision.full_reveal_value``, ``cli`` to ``aon_rates``), so
a wrapper replaces every binding of a function in every loaded attnmarket
module, or calls through the other bindings would go unseen.  Methods and
constructors are wrapped on their class.  ``install`` and ``uninstall``
swap the wrappers in and out, so untraced rounds run the plain program.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Probe:
    """One traced callable.

    ``owner`` is a module name (a function, wrapped on every binding) or a
    ``module:Class`` path (a method, wrapped on the class).  ``span`` records
    time as well as calls; ``count`` maps (args, result) to extra counters.
    """

    owner: str
    attr: str
    metric: str
    span: bool = True
    count: object = None       # (args, result) -> {metric: increment}
    rows: bool = False         # count the rows of a (path, header, rows) call


def _checked(metric):
    return lambda args, report: {metric + ".checked": report.checked}


def _graph_nodes(args, result):
    return {"equilibrium.graph_nodes": len(args[0].nodes)}


def _rates(args, profile):
    return {"equilibrium.rates": len(profile.rates)}


def _episode(args, trace):
    return {"simulate.episodes": 1, "simulate.rounds": trace.total_rounds}


def _count_space(offset):
    """Count vectors a curve enumerates: those of n + offset signals."""
    def count(args, result):
        from attnmarket.largemarket import count_space_size
        env, n_values = args[0], args[1]
        return {"largemarket.count_vectors": sum(
            count_space_size(int(n) + offset, env.n_signals) for n in n_values)}
    return count


PROBES = (
    Probe("attnmarket.cli", "load_scenario", "cli.load_scenario"),
    Probe("attnmarket.cli", "write_csv", "cli.write_csv", rows=True),
    Probe("attnmarket.cli", "cmd_check", "cli.cmd_check"),
    Probe("attnmarket.cli", "cmd_solve", "cli.cmd_solve"),
    Probe("attnmarket.cli", "cmd_simulate", "cli.cmd_simulate"),
    Probe("attnmarket.cli", "cmd_sweep", "cli.cmd_sweep"),
    Probe("attnmarket.environment:Belief", "__init__", "environment.Belief",
          span=False),
    Probe("attnmarket.environment", "condition_on_components",
          "environment.condition_on_components"),
    Probe("attnmarket.environment", "update", "environment.update"),
    Probe("attnmarket.environment", "no_direct_info",
          "environment.no_direct_info", span=False),
    Probe("attnmarket.decision", "expected_conditioned_value",
          "decision.expected_conditioned_value"),
    Probe("attnmarket.decision", "full_reveal_value",
          "decision.full_reveal_value"),
    Probe("attnmarket.decision", "full_reveal_value_given",
          "decision.full_reveal_value_given", span=False),
    Probe("attnmarket.decision", "expected_residual_value",
          "decision.expected_residual_value"),
    Probe("attnmarket.decision", "coalition_value", "decision.coalition_value",
          span=False),
    Probe("attnmarket.conditions", "check_assumption2",
          "conditions.check_assumption2",
          count=_checked("conditions.check_assumption2")),
    Probe("attnmarket.conditions", "check_substitutes",
          "conditions.check_substitutes",
          count=_checked("conditions.check_substitutes")),
    Probe("attnmarket.conditions", "check_mnat_concave",
          "conditions.check_mnat_concave",
          count=_checked("conditions.check_mnat_concave")),
    Probe("attnmarket.equilibrium:StateGraph", "__init__",
          "equilibrium.StateGraph", count=_graph_nodes),
    Probe("attnmarket.equilibrium", "aon_rates", "equilibrium.aon_rates",
          count=_rates),
    Probe("attnmarket.equilibrium", "marginal_prices",
          "equilibrium.marginal_prices"),
    Probe("attnmarket.simulate", "monte_carlo", "simulate.monte_carlo"),
    Probe("attnmarket.simulate", "episode_rng", "simulate.episode_rng"),
    Probe("attnmarket.simulate:_Runner", "play", "simulate.play", span=False,
          count=_episode),
    Probe("attnmarket.largemarket", "residual_value_curve",
          "largemarket.residual_value_curve", count=_count_space(-1)),
    Probe("attnmarket.largemarket", "decision_error_curve",
          "largemarket.decision_error_curve", count=_count_space(0)),
    Probe("attnmarket.largemarket", "fit_exponential_rate",
          "largemarket.fit_exponential_rate"),
)


class Tracer:
    """Collects per-metric calls, self and total times, and counters.

    Self time is a span's duration minus the durations of the spans it
    encloses.
    """

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.values = defaultdict(float)
        self._stack = [0.0]          # child time of each open span
        self._patches = []           # (object, attribute, original)

    def reset(self):
        self.values = defaultdict(float)
        self._stack = [0.0]

    def _wrap(self, fn, probe):
        tracer, clock = self, time.perf_counter
        calls, self_s, total_s = (probe.metric + suffix
                                  for suffix in (".calls", ".self_s", ".total_s"))

        def wrapper(*args, **kwargs):
            values = tracer.values
            values[calls] += 1
            if probe.rows:
                args = args[:2] + (tracer._count_rows(probe, args[2]),)
            if probe.span:
                stack = tracer._stack
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    total = clock() - start
                    child = stack.pop()
                    stack[-1] += total
                    values[self_s] += total - child
                    values[total_s] += total
            else:
                result = fn(*args, **kwargs)
            if probe.count is not None:
                for key, v in probe.count(args, result).items():
                    values[key] += v
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_rows(self, probe, rows):
        key = probe.metric + ".rows"
        for row in rows:
            self.values[key] += 1
            yield row

    def install(self):
        """Replace every binding of each probed callable with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "attnmarket"
                                         or name.startswith("attnmarket."))]
        for probe in self.probes:
            module_name, _, cls_name = probe.owner.partition(":")
            owner = sys.modules[module_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, probe.attr,
                            self._wrap(vars(cls)[probe.attr], probe))
                continue
            original = getattr(owner, probe.attr)
            wrapper = self._wrap(original, probe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, obj, name, value):
        self._patches.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def uninstall(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches = []
