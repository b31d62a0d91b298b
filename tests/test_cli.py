import csv
import io
import json
import os
import subprocess
import sys
from collections import OrderedDict, namedtuple
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import attnmarket
from attnmarket import cli
from attnmarket.cli import load_scenario, main
from attnmarket.equilibrium import StateGraph, aon_rates
from attnmarket.simulate import (
    RandomOrder,
    equilibrium_policies,
    monte_carlo,
    run_episode,
)

SCHEMAS = {
    "profile.csv": ["state_id", "revealed_set", "realization", "sender", "rate"],
    "payoffs.csv": ["quantity", "sender", "value"],
    "prices.csv": ["sender", "price"],
    "episodes.csv": None,   # episode, rounds, cost, action, payoff, visits_*
    "summary.csv": ["quantity", "sender", "theory", "empirical", "stderr"],
    "gaussian_rates.csv": ["sender", "precision", "rate", "expected_visits"],
    "gaussian_payoffs.csv": ["quantity", "value"],
    "correlation.csv": ["pc", "threshold", "payoff_independent",
                        "payoff_correlated", "prefers_correlation"],
    "large_n.csv": ["n", "mse_term", "attention_cost", "total"],
    "large_market.csv": ["n", "residual_value", "scaled_residual",
                         "decision_error", "mode"],
    "trace.csv": ["episode", "round", "offers", "choice", "message",
                  "state_id"],
    "alpha.csv": ["pc", "threshold", "payoff_independent",
                  "payoff_correlated", "prefers_correlation"],
    "symmetry.csv": ["allocation", "payoff", "is_best", "is_symmetric"],
    "bridge.csv": ["t", "posterior_variance"],
}


def check_schema(path: Path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows, f"{path} is empty"
    header = rows[0]
    expected = SCHEMAS.get(path.name)
    if expected is not None:
        assert header == expected, f"{path.name} header {header}"
    elif path.name == "episodes.csv":
        assert header[:5] == ["episode", "rounds", "cost", "action", "payoff"]
        assert all(c.startswith("visits_") for c in header[5:])
    for row in rows[1:]:
        assert len(row) == len(header)
    return rows


def run(args):
    return main(args)


# -- check ------------------------------------------------------------------------

def test_check_passes_pair_guess(scenario_dir, capsys):
    code = run(["check", "--scenario", str(scenario_dir / "pair_guess.yaml")])
    out = capsys.readouterr().out
    assert code == 0
    assert "assumption2" in out and "substitutes" in out


def test_check_fails_coin_match(scenario_dir, capsys):
    code = run(["check", "--scenario", str(scenario_dir / "coin_match.yaml")])
    assert code == 2
    out = capsys.readouterr().out
    assert "False" in out


def test_check_writes_report(scenario_dir, tmp_path):
    run(["check", "--scenario", str(scenario_dir / "pair_guess.yaml"),
         "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["command"] == "check"
    assert report["conditions"]["substitutes"]["holds"] is True


def test_check_rejects_gaussian_scenario(scenario_dir, capsys):
    code = run(["check", "--scenario",
                str(scenario_dir / "gaussian_symmetric.yaml")])
    assert code == 1


# -- scenario validation ------------------------------------------------------------

def write_scenario(tmp_path, mutate):
    base = {
        "schema_version": 1,
        "name": "bad",
        "cost": 0.1,
        "components": {"senders": [["H", "T"]]},
        "prior": {"product": {"state": [1.0],
                              "conditionals": [[[0.5, 0.5]]]}},
        "decision": {"actions": ["a"],
                     "utility": {"by_joint": {"a": [0.0, 1.0]}}},
    }
    mutate(base)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(base))
    return str(path)


def test_malformed_prior_row_names_the_row(tmp_path, capsys):
    def mutate(base):
        base["prior"]["product"]["conditionals"] = [[[0.5, 0.4]]]
    code = run(["check", "--scenario", write_scenario(tmp_path, mutate)])
    assert code == 1
    err = capsys.readouterr().err
    assert "conditionals[0] row 0" in err and "0.9" in err


@pytest.mark.parametrize("row, total", [
    ([0.8, 0.2000000005], "1.0000000005"),   # off by more than rounding
    ([float("nan"), 0.5], "nan"),
])
def test_prior_row_off_sum_names_the_row(tmp_path, capsys, row, total):
    def mutate(base):
        base["prior"]["product"]["conditionals"] = [[row]]
    code = run(["check", "--scenario", write_scenario(tmp_path, mutate)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"prior.product.conditionals[0] row 0 sums to {total}, not 1" in err
    assert "np.float64" not in err


def _fields(**fields):
    return lambda base: base.update(fields)


def _gaussian(**fields):
    """A gaussian scenario in place of the finite one, with ``fields`` set
    in its block."""
    def mutate(base):
        for key in ("components", "prior", "decision"):
            del base[key]
        base["gaussian"] = {"p0": 1.0, "p": [1.0, 1.0], **fields}
    return mutate


def _utility(block, rows):
    return lambda base: base["decision"].update(utility={block: rows})


def _refused(argv, capsys, tmp_path):
    """Exit 1 with an input error, no traceback and no output directory."""
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert not out.exists()
    return err


NAN = float("nan")


@pytest.mark.parametrize("command, mutate, field", [
    ("check", _fields(cost=NAN), "cost"),
    ("solve", _fields(cost=NAN), "cost"),
    ("simulate", _fields(cost=NAN), "cost"),
    ("check", _fields(cost=float("inf")), "cost"),
    ("solve", _gaussian(p0=NAN), "gaussian.p0"),
    ("solve", _gaussian(p=[1.0, NAN]), "gaussian.p[]"),
    ("solve", _gaussian(pc=NAN), "gaussian.pc"),
    ("solve", _gaussian(alpha=NAN, pc=0.6), "gaussian.alpha"),
    ("solve", lambda base: (_gaussian()(base), base.update(cost=NAN)),
     "cost"),
], ids=["check-cost", "solve-cost", "simulate-cost", "check-cost-inf",
        "p0", "p", "pc", "alpha", "gaussian-cost"])
def test_non_finite_scenario_number_is_input_error(tmp_path, capsys,
                                                   command, mutate, field):
    err = _refused([command, "--scenario", write_scenario(tmp_path, mutate)],
                   capsys, tmp_path)
    assert field in err


@pytest.mark.parametrize("mutate, field", [
    (lambda base: base["components"].update(state=["s", "s"]),
     "components.state"),
    (_fields(components={"senders": [["H", "H"]]}), "components.senders[0]"),
    (_fields(components={"senders": [["H", "T"], [["H"], "T"]]}),
     "components.senders[1]"),
    (_gaussian(alpha="half", pc=0.6), "gaussian.alpha"),
    (_gaussian(p=1.0), "gaussian.p"),
    (_gaussian(p=[]), "gaussian.p"),
    (lambda base: base["decision"].update(actions=["a", "a"]),
     "decision.actions"),
    (_utility("by_joint", {"a": [0.0, 1.0], "b": [1.0, 0.0]}),
     "decision.utility.by_joint"),
    (_utility("by_state", {"a": [0.0], "b": [1.0]}),
     "decision.utility.by_state"),
], ids=["state-duplicate", "sender-duplicate", "sender-unhashable",
        "alpha-text", "p-scalar", "p-empty", "action-duplicate",
        "by-joint-unknown", "by-state-unknown"])
def test_malformed_scenario_field_is_input_error(tmp_path, capsys, mutate,
                                                 field):
    err = _refused(["solve", "--scenario", write_scenario(tmp_path, mutate)],
                   capsys, tmp_path)
    assert field in err


def _by_joint(base):
    return base["decision"]["utility"]["by_joint"]


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("mutate, field", [
    (_fields(components=[["H", "T"], ["H", "T"]]), "components"),
    (lambda base: base["decision"].update(utility=1.0), "decision.utility"),
    (lambda base: base["decision"]["utility"].update(by_joint=1.0),
     "decision.utility.by_joint"),
    (lambda base: _by_joint(base).update(guess_HH=[NAN, 1, 1, 0]),
     "decision.utility.by_joint['guess_HH']"),
    (lambda base: _by_joint(base).update(guess_TT=[0, 1, 1, float("inf")]),
     "decision.utility.by_joint['guess_TT']"),
    (_fields(prior=0.5), "prior"),
    (lambda base: base["prior"].update(product=0.5), "prior.product"),
    (lambda base: base["prior"]["product"].update(conditionals=0.5),
     "prior.product.conditionals"),
    (_fields(prior={"dense": {"a": 1.0}}), "invalid prior"),
    (_fields(decision=[1]), "decision must be a mapping"),
    (lambda base: base["components"].update(state="HT"), "components.state"),
], ids=["components-list", "utility-number", "by-joint-number",
        "utility-nan", "utility-inf", "prior-number", "product-number",
        "conditionals-number", "dense-mapping", "decision-list",
        "state-string"])
def test_malformed_pair_guess_shape_is_input_error(scenario_dir, tmp_path,
                                                   capsys, command, mutate,
                                                   field):
    base = yaml.safe_load((scenario_dir / "pair_guess.yaml").read_text())
    mutate(base)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(base))
    err = _refused([command, "--scenario", str(path)], capsys, tmp_path)
    assert field in err


def test_missing_block(tmp_path, capsys):
    def mutate(base):
        del base["decision"]
    assert run(["check", "--scenario",
                write_scenario(tmp_path, mutate)]) == 1
    assert "decision" in capsys.readouterr().err


def test_both_blocks_rejected(tmp_path, capsys):
    def mutate(base):
        base["gaussian"] = {"p0": 1.0, "p": [1.0]}
    assert run(["check", "--scenario",
                write_scenario(tmp_path, mutate)]) == 1


def test_schema_version_enforced(tmp_path, capsys):
    def mutate(base):
        base["schema_version"] = 99
    assert run(["check", "--scenario",
                write_scenario(tmp_path, mutate)]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_missing_file(capsys):
    assert run(["check", "--scenario", "/nonexistent.yaml"]) == 1


def test_utility_size_mismatch(tmp_path, capsys):
    def mutate(base):
        base["decision"]["utility"]["by_joint"]["a"] = [0.0, 1.0, 2.0]
    assert run(["check", "--scenario",
                write_scenario(tmp_path, mutate)]) == 1
    assert "expected 2" in capsys.readouterr().err


def test_check_too_many_senders_is_runtime_limit(tmp_path, capsys):
    def mutate(base):
        base["components"] = {"state": ["s0", "s1"],
                              "senders": [["0", "1"]] * 10}
        base["prior"] = {"product": {
            "state": [0.5, 0.5],
            "conditionals": [[[0.8, 0.2], [0.2, 0.8]]] * 10}}
        base["decision"] = {"actions": ["guess_0", "guess_1", "abstain"],
                            "utility": {"by_state": {
                                "guess_0": [1.0, 0.0],
                                "guess_1": [0.0, 1.0],
                                "abstain": [0.55, 0.55]}}}
    code = run(["check", "--scenario", write_scenario(tmp_path, mutate),
                "--su-samples", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime limit:") and "10 senders" in err


def test_check_sender_limit_runs_before_the_other_checks(tmp_path, capsys,
                                                        monkeypatch):
    """The 10-sender run above, with the slower checks made to fail if
    called: the sender limit must stop `check` before either runs."""
    def fail(*args, **kwargs):
        raise AssertionError("a condition check ran past the sender limit")
    monkeypatch.setattr(cli, "check_assumption2", fail)
    monkeypatch.setattr(cli, "check_substitutes", fail)
    test_check_too_many_senders_is_runtime_limit(tmp_path, capsys)


@pytest.mark.parametrize("argv", [
    ["check", "--scenario", "pair_guess.yaml", "--su-samples", "-3"],
    ["simulate", "--scenario", "pair_guess.yaml", "--trace-episodes", "-1"],
    ["sweep", "--sweep-kind", "bridge", "--mc-samples", "-1"],
    ["check", "--scenario", "pair_guess.yaml", "--seed", "-1"],
    ["solve", "--scenario", "pair_guess.yaml", "--seed", "-1"],
    ["simulate", "--scenario", "pair_guess.yaml", "--seed", "-1"],
    ["sweep", "--sweep-kind", "bridge", "--mc-samples", "10", "--seed", "-1"],
])
def test_rejects_negative_counts(scenario_dir, tmp_path, capsys, argv):
    argv = [str(scenario_dir / a) if a.endswith(".yaml") else a for a in argv]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


def test_rejects_negative_scenario_seed(tmp_path, capsys):
    def mutate(base):
        base["simulation"] = {"seed": -1}
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", write_scenario(tmp_path, mutate),
                "--out", str(out)]) == 1
    assert "simulation.seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["replications", "seed", "round_cap"])
@pytest.mark.parametrize("value", ["abc", 2.5, [3]])
def test_non_integer_simulation_field_names_the_field(tmp_path, capsys,
                                                      field, value):
    def mutate(base):
        base["simulation"] = {field: value}
    out = tmp_path / "out"
    assert run(["simulate", "--scenario", write_scenario(tmp_path, mutate),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert f"simulation.{field} must be an integer" in err
    assert not out.exists()


@pytest.fixture(params=["libyaml", "python"])
def yaml_loader(request, monkeypatch):
    """Scenario files parsed by libyaml, or by the pure-Python fallback
    with ``yaml.CSafeLoader`` taken away."""
    if request.param == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    return request.param


def test_malformed_yaml_names_path_and_line(tmp_path, yaml_loader):
    path = tmp_path / "scenario.yaml"
    path.write_text("schema_version: 1\nname: bad\ncost: [0.1, 0.2\n"
                    "components: {}\n")
    with pytest.raises(cli.ScenarioError) as info:
        load_scenario(path)
    message = str(info.value)
    assert message.startswith(f"invalid YAML in {path}:")
    assert "line 3" in message


def test_both_yaml_loaders_parse_scenarios_alike(scenario_dir, monkeypatch):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    paths = sorted(scenario_dir.glob("*.yaml"))
    assert len(paths) == 6
    fast = [cli._read_yaml(p) for p in paths]
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert [cli._read_yaml(p) for p in paths] == fast


@pytest.mark.parametrize("block, row", [
    ("by_joint", ["two", 1.0]),
    ("by_state", ["two"]),
])
def test_non_numeric_utility_names_the_field(tmp_path, capsys, block, row):
    def mutate(base):
        base["decision"]["utility"] = {block: {"a": row}}
    code = run(["check", "--scenario", write_scenario(tmp_path, mutate)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert f"decision.utility.{block}['a']" in err


# -- solve ------------------------------------------------------------------------

def test_solve_pair_guess(scenario_dir, tmp_path, capsys):
    code = run(["solve", "--scenario", str(scenario_dir / "pair_guess.yaml"),
                "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "profile.csv")
    rates = {float(r[4]) for r in rows[1:]}
    assert all(abs(r - 1 / 3) < 1e-9 for r in rates)
    payoff_rows = check_schema(tmp_path / "payoffs.csv")
    values = {(r[0], r[1]): float(r[2]) for r in payoff_rows[1:]}
    assert values[("expected_visits", "1")] == pytest.approx(3.0)
    assert values[("receiver_payoff", "")] == pytest.approx(1.4)
    check_schema(tmp_path / "prices.csv")


def test_solve_gated_without_force(scenario_dir, tmp_path):
    code = run(["solve", "--scenario", str(scenario_dir / "coin_match.yaml"),
                "--out", str(tmp_path)])
    assert code == 2


def test_solve_forced(scenario_dir, tmp_path):
    code = run(["solve", "--scenario", str(scenario_dir / "coin_match.yaml"),
                "--out", str(tmp_path), "--force"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["equilibrium"] is False


def test_solve_gaussian(scenario_dir, tmp_path):
    code = run(["solve", "--scenario",
                str(scenario_dir / "gaussian_symmetric.yaml"),
                "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "gaussian_rates.csv")
    assert float(rows[1][2]) == pytest.approx(0.06)
    payoffs = check_schema(tmp_path / "gaussian_payoffs.csv")
    values = {r[0]: float(r[1]) for r in payoffs[1:]}
    assert values["receiver_payoff"] == pytest.approx(-2 / 3)


def test_solve_gaussian_without_cost_leaves_no_directory(scenario_dir,
                                                          tmp_path, capsys):
    text = (scenario_dir / "gaussian_symmetric.yaml").read_text()
    scenario = tmp_path / "no_cost.yaml"
    scenario.write_text(text.replace("cost: 0.01\n", ""))
    out = tmp_path / "out"
    code = run(["solve", "--scenario", str(scenario), "--out", str(out)])
    assert code == 1
    assert "missing 'cost'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_gaussian_correlated(scenario_dir, tmp_path):
    run(["solve", "--scenario",
         str(scenario_dir / "gaussian_correlated.yaml"),
         "--out", str(tmp_path)])
    rows = check_schema(tmp_path / "correlation.csv")
    assert float(rows[1][1]) == pytest.approx(0.5)
    assert rows[1][4] == "1"


# -- simulate ----------------------------------------------------------------------

def test_simulate_deterministic_bytes(scenario_dir, tmp_path):
    args = ["simulate", "--scenario", str(scenario_dir / "pair_guess.yaml"),
            "--replications", "400", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    for name in ("episodes.csv", "summary.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    check_schema(out_a / "episodes.csv")
    check_schema(out_a / "summary.csv")


def test_simulate_seed_changes_episodes(scenario_dir, tmp_path):
    base = ["simulate", "--scenario", str(scenario_dir / "pair_guess.yaml"),
            "--replications", "200"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(base + ["--seed", "1", "--out", str(out_a)])
    run(base + ["--seed", "2", "--out", str(out_b)])
    assert (out_a / "episodes.csv").read_bytes() != \
        (out_b / "episodes.csv").read_bytes()


def test_simulate_receiver_orders(scenario_dir, tmp_path):
    for order in ("lowest", "random", "perm:2,1"):
        out = tmp_path / order.replace(":", "_").replace(",", "_")
        code = run(["simulate", "--scenario",
                    str(scenario_dir / "pair_guess.yaml"),
                    "--replications", "200", "--seed", "3",
                    "--receiver-order", order, "--out", str(out)])
        assert code == 0


def test_simulate_bad_order(scenario_dir, tmp_path, capsys):
    code = run(["simulate", "--scenario",
                str(scenario_dir / "pair_guess.yaml"),
                "--replications", "10", "--receiver-order", "perm:1,3",
                "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("scenario, order", [("coin_match", "bogus"),
                                             ("pair_guess", "perm:1,1")])
def test_simulate_refuses_a_bad_order_before_any_work(scenario_dir, tmp_path,
                                                      capsys, scenario, order):
    """A bad receiver order is an input error, found before the condition
    checks run and before the output directory is made."""
    out = tmp_path / "out"
    code = run(["simulate", "--scenario", str(scenario_dir / f"{scenario}.yaml"),
                "--receiver-order", order, "--out", str(out)])
    assert code == 1
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--replications", "--round-cap"])
def test_simulate_rejects_zero_counts(scenario_dir, tmp_path, flag):
    code = run(["simulate", "--scenario",
                str(scenario_dir / "pair_guess.yaml"),
                flag, "0", "--out", str(tmp_path)])
    assert code == 1
    assert not (tmp_path / "episodes.csv").exists()


@pytest.mark.parametrize("replications", [1, 300])
def test_simulate_summary_is_library_monte_carlo(scenario_dir, tmp_path,
                                                 replications):
    """`simulate` and `monte_carlo` share one replication loop: the same
    seed, policies and count give the same means to the last bit."""
    path = scenario_dir / "pair_guess.yaml"
    assert run(["simulate", "--scenario", str(path), "--replications",
                str(replications), "--seed", "5", "--receiver-order", "random",
                "--out", str(tmp_path)]) == 0
    scenario = load_scenario(path)
    profile = aon_rates(scenario.dp, scenario.prior, scenario.cost)
    mc = monte_carlo(scenario.dp, scenario.prior, scenario.cost,
                     equilibrium_policies(profile), RandomOrder(),
                     replications=replications, seed=5)
    with open(tmp_path / "summary.csv") as fh:
        rows = {r["quantity"]: r for r in csv.DictReader(fh)}
    library = {"visits_1": (mc.mean_visits[1], mc.se_visits[1]),
               "visits_2": (mc.mean_visits[2], mc.se_visits[2]),
               "receiver_payoff": (mc.mean_receiver_payoff,
                                   mc.se_receiver_payoff)}
    for quantity, (mean, se) in library.items():
        assert float(rows[quantity]["empirical"]) == mean
        if replications == 1:
            assert rows[quantity]["stderr"] == "0.0"
        else:
            assert float(rows[quantity]["stderr"]) == se


def test_run_episode_replays_simulate_rows(scenario_dir, tmp_path):
    """Episode k of `simulate` is `run_episode(..., episode=k)`, on both
    sides of a block of generated rows."""
    path = scenario_dir / "pair_guess.yaml"
    assert run(["simulate", "--scenario", str(path), "--replications", "1501",
                "--seed", "4", "--receiver-order", "random",
                "--out", str(tmp_path)]) == 0
    with open(tmp_path / "episodes.csv") as fh:
        rows = list(csv.DictReader(fh))
    scenario = load_scenario(path)
    profile = aon_rates(scenario.dp, scenario.prior, scenario.cost)
    for k in (0, 1023, 1024, 1500):
        trace = run_episode(scenario.dp, scenario.prior, scenario.cost,
                            equilibrium_policies(profile), RandomOrder(),
                            seed=4, episode=k, graph=profile.graph)
        row = rows[k]
        assert int(row["episode"]) == k
        assert int(row["rounds"]) == trace.total_rounds
        assert [int(row[f"visits_{i}"]) for i in (1, 2)] == \
            [trace.visits[1], trace.visits[2]]
        assert row["action"] == trace.action
        assert float(row["payoff"]) == trace.payoff


def test_simulate_prefix_crosses_row_blocks(scenario_dir, tmp_path):
    """The first 1,000 episodes of a 2,100-episode run, which generates
    three blocks of rows, are the 1,000-episode run."""
    files = []
    for replications in (1000, 2100):
        out = tmp_path / str(replications)
        assert run(["simulate", "--scenario",
                    str(scenario_dir / "pair_guess.yaml"), "--replications",
                    str(replications), "--seed", "6", "--receiver-order",
                    "random", "--out", str(out)]) == 0
        files.append((out / "episodes.csv").read_text().splitlines())
    assert len(files[1]) == 2101
    assert files[0] == files[1][:1001]


def test_simulate_gated(scenario_dir, tmp_path):
    code = run(["simulate", "--scenario",
                str(scenario_dir / "coin_match.yaml"),
                "--replications", "10", "--out", str(tmp_path)])
    assert code == 2


def test_simulate_uses_scenario_defaults(scenario_dir, tmp_path):
    # three_action_signals.yaml carries replications/seed in the file
    code = run(["simulate", "--scenario",
                str(scenario_dir / "three_action_signals.yaml"),
                "--replications", "300", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["summary"]["seed"] == 11


# -- sweep -------------------------------------------------------------------------

def test_simulate_round_trace(scenario_dir, tmp_path):
    code = run(["simulate", "--scenario", str(scenario_dir / "pair_guess.yaml"),
                "--replications", "50", "--seed", "3", "--trace-episodes", "5",
                "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "trace.csv")
    episodes = {int(r[0]) for r in rows[1:]}
    assert episodes == set(range(5))
    # per-round bookkeeping: round indices count up within an episode
    first = [r for r in rows[1:] if r[0] == "0"]
    assert [int(r[1]) for r in first] == list(range(len(first)))
    # tracing must not change the replication outcomes
    plain = tmp_path / "plain"
    run(["simulate", "--scenario", str(scenario_dir / "pair_guess.yaml"),
         "--replications", "50", "--seed", "3", "--out", str(plain)])
    assert (tmp_path / "episodes.csv").read_bytes() == \
        (plain / "episodes.csv").read_bytes()


def test_sweep_large_n_finite(tmp_path):
    code = run(["sweep", "--sweep-kind", "large-n", "--finite",
                "--n-max", "40", "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "large_market.csv")
    assert float(rows[1][1]) == pytest.approx(0.05)  # first-signal value
    assert float(rows[1][3]) == pytest.approx(0.4)
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0 < report["summary"]["fit"]["rho"] < 1


@pytest.mark.parametrize("finite", [True, False])
def test_sweep_large_n_rejects_n_max_below_one(tmp_path, capsys, finite):
    out = tmp_path / "out"
    code = run(["sweep", "--sweep-kind", "large-n", "--n-max", "0",
                "--out", str(out)] + (["--finite"] if finite else []))
    assert code == 1
    assert "--n-max" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_large_n_finite_failed_fit_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["sweep", "--sweep-kind", "large-n", "--finite",
                "--n-max", "4", "--out", str(out)])
    assert code == 1
    assert "tail entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["alpha", "--pc", "-1"],
    ["large-n", "--cost", "0"],
    ["symmetry", "--senders", "0"],
    ["symmetry", "--grid-step", "0"],
    ["bridge", "--mc-samples", "10", "--grid-points", "7"],
    ["large-n", "--finite", "--accuracy", "1.5"],
    ["bridge", "--grid-points", "0"],
    ["bridge", "--mc-samples", "1"],
    ["large-n", "--p0", "nan"],
    ["large-n", "--finite", "--accuracy", "nan"],
    ["alpha", "--p1", "nan"],
    ["symmetry", "--total-precision", "nan"],
    ["symmetry", "--grid-step", "nan"],
    ["bridge", "--cost", "nan"],
])
def test_sweep_bad_flag_is_input_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = run(["sweep", "--sweep-kind"] + argv + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err
    assert not out.exists()


def test_sweep_large_n(tmp_path):
    code = run(["sweep", "--sweep-kind", "large-n", "--p0", "1",
                "--precision", "1", "--cost", "0.01", "--n-max", "9",
                "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "large_n.csv")
    assert float(rows[-1][2]) == pytest.approx(0.1)


def test_sweep_alpha(tmp_path):
    code = run(["sweep", "--sweep-kind", "alpha", "--p0", "1", "--p1", "1",
                "--p2", "1", "--pc", "0.4", "--pc", "0.6",
                "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "alpha.csv")
    assert rows[1][4] == "0" and rows[2][4] == "1"


def test_sweep_symmetry(tmp_path):
    code = run(["sweep", "--sweep-kind", "symmetry", "--p0", "1",
                "--total-precision", "2", "--senders", "2",
                "--grid-step", "0.25", "--cost", "0.01",
                "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "symmetry.csv")
    best = [r for r in rows[1:] if r[2] == "1"]
    assert len(best) == 1 and best[0][0] == "1.0|1.0"


def test_sweep_symmetry_flags_the_equal_split_up_to_rounding(tmp_path):
    # 0.3 / 3 is 0.09999999999999999 in floats, the grid's entry 0.1
    code = run(["sweep", "--sweep-kind", "symmetry", "--total-precision",
                "0.3", "--senders", "3", "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "symmetry.csv")
    flagged = [r[0] for r in rows[1:] if r[3] == "1"]
    assert flagged == ["0.1|0.1|0.1"]


def test_sweep_symmetry_over_budget_is_runtime_limit(tmp_path, capsys):
    """5 senders at step 0.01 are C(199, 4), about 6.3e7 splits: refused
    before any is scored, with no output directory."""
    out = tmp_path / "out"
    assert run(["sweep", "--sweep-kind", "symmetry", "--senders", "5",
                "--grid-step", "0.01", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime limit:") and "63391251" in err
    assert not out.exists()


def test_sweep_bridge(tmp_path):
    code = run(["sweep", "--sweep-kind", "bridge", "--precision", "1",
                "--cost", "0.1", "--out", str(tmp_path)])
    assert code == 0
    rows = check_schema(tmp_path / "bridge.csv")
    assert (float(rows[-1][0]), float(rows[-1][1])) == (10.0, 0.0)


def test_sweep_bridge_with_mc(tmp_path):
    code = run(["sweep", "--sweep-kind", "bridge", "--precision", "1",
                "--cost", "0.1", "--mc-samples", "2000", "--seed", "3",
                "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "bridge.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "posterior_variance", "empirical_mse", "stderr"]


def test_out_dir_env_var(scenario_dir, tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("ATTNMARKET_OUT", str(target))
    code = run(["solve", "--scenario",
                str(scenario_dir / "gaussian_symmetric.yaml")])
    assert code == 0
    assert (target / "gaussian_rates.csv").exists()


OUTPUT_RUNS = {
    "check": ["check", "--scenario", "pair_guess.yaml"],
    "solve-finite": ["solve", "--scenario", "pair_guess.yaml"],
    "solve-gaussian-pc": ["solve", "--scenario", "gaussian_correlated.yaml"],
    "simulate": ["simulate", "--scenario", "pair_guess.yaml",
                 "--replications", "20"],
    "simulate-traced": ["simulate", "--scenario", "pair_guess.yaml",
                        "--replications", "20", "--trace-episodes", "3"],
    "sweep-large-n": ["sweep", "--sweep-kind", "large-n", "--n-max", "5"],
    "sweep-large-n-finite": ["sweep", "--sweep-kind", "large-n", "--finite",
                             "--n-max", "8"],
    "sweep-alpha": ["sweep", "--sweep-kind", "alpha"],
    "sweep-symmetry": ["sweep", "--sweep-kind", "symmetry"],
    "sweep-bridge": ["sweep", "--sweep-kind", "bridge", "--mc-samples", "50"],
}


@pytest.mark.parametrize("argv", OUTPUT_RUNS.values(), ids=OUTPUT_RUNS)
def test_report_lists_every_file_in_write_order(scenario_dir, tmp_path, capsys,
                                                argv):
    """``report.json`` names the files written before it, in write order;
    with it they are the output directory, and standard output names
    each, in the same order (``check`` prints only its report)."""
    out = tmp_path / "out"
    argv = [str(scenario_dir / a) if a.endswith(".yaml") else a for a in argv]
    assert run(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    written = [out / name for name in report["files"]] + [out / "report.json"]
    assert sorted(out.iterdir()) == sorted(written)
    stamps = [path.stat().st_mtime_ns for path in written]
    assert stamps == sorted(stamps)
    lines = capsys.readouterr().out.splitlines()
    if argv[0] == "check":
        assert [line for line in lines if line.startswith(("wrote", "report"))] \
            == [f"report: {written[-1]}"]
    else:
        assert [line for line in lines if line.startswith("wrote")] \
            == [f"wrote {path}" for path in written]


# -- report.json emitter ------------------------------------------------------------

def _json_dump(obj) -> str:
    out = io.StringIO()
    json.dump(obj, out, indent=2, sort_keys=True)
    return out.getvalue() + "\n"


def _write_json(obj) -> str:
    out = io.StringIO()
    cli.write_json(out, obj)
    return out.getvalue()


_json_leaves = (st.none() | st.booleans() | st.integers()
                | st.floats() | st.floats().map(np.float64)
                | st.sampled_from([np.inf, -np.inf, np.nan]) | st.text())
_json_values = st.recursive(
    _json_leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(1, 12), inner, max_size=12)
                   | st.dictionaries(st.floats(), inner, max_size=3)
                   | st.dictionaries(st.booleans(), inner, max_size=2)),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_json_values)
@example({k: [k, float(k)] for k in range(12, 0, -1)})
@example({"a": {}, "b": [], "c": [{}, []], "é☃\U0001f600": None})
@example([np.inf, -np.inf, np.nan, np.float64(0.1), True, False, None])
@example([{None: 1}, {np.float64(2.5): {np.inf: -0.0, np.nan: 2}}])
def test_write_json_gives_the_bytes_of_json_dump(obj):
    assert _write_json(obj) == _json_dump(obj)


@pytest.mark.parametrize("obj", [np.int64(3), [1, np.int64(3)],
                                 {"a": np.bool_(True)}, {np.int64(1): 2},
                                 {1: "int", "a": "str"}, [object()],
                                 [{1: 0, "a": 1}, {1: 2, "a": 3}],
                                 [{(1,): 0}, {(1,): 1}],
                                 [{"a": 1}, {"a": np.int64(2)}]])
def test_write_json_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        _json_dump(obj)
    with pytest.raises(TypeError):
        _write_json(obj)


# column path: lists of records that share one key set

Pair = namedtuple("Pair", "x y")  # a tuple subclass, which json writes as a list

_shared_pool = st.lists(_json_values, min_size=1, max_size=3)
_COLUMN_KINDS = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "float, not finite": st.floats() | st.sampled_from([np.inf, np.nan]),
    "float and np.float64": st.floats() | st.floats().map(np.float64),
    "int": st.integers(),
    "int and bool": st.integers() | st.booleans(),
    "str": st.text(max_size=3),
    "mixed": _json_leaves | st.sampled_from([-0.0, (), (1, 2.5), [True]]),
}


@st.composite
def _records(draw):
    """Two or more dicts with one key set, each column of one kind or
    holding shared nested dicts, lists and tuples, repeated so that some
    lists cross the writer's blocks."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4,
                         unique=True)
                | st.lists(st.integers(1, 12), min_size=1, max_size=12,
                           unique=True))
    pool = draw(_shared_pool)
    columns = {k: draw(st.sampled_from(sorted(_COLUMN_KINDS)))
               for k in keys}
    shared = st.sampled_from(pool)
    values = {k: _COLUMN_KINDS[kind] | shared if draw(st.booleans())
              else _COLUMN_KINDS[kind] for k, kind in columns.items()}
    rows = [{k: draw(v) for k, v in values.items()}
            for _ in range(draw(st.integers(2, 6)))]
    return rows * draw(st.sampled_from([1, 2, 60]))


@settings(max_examples=80, deadline=None)
@given(_records())
@example([{k: [k, float(k)] for k in range(12, 0, -1)}] * 2)
@example([{"x": 1, "y": 1.0}, {"x": True, "y": np.float64(1.0)},
          {"x": 1, "y": -0.0}] * 120)
@example([{1: 0, 2: 0}, {True: 1, 2: 1}])  # equal key sets, written apart
@example([{1: 0}, {1.0: 1}, {1: 2}])
@example([{"a": 1, "b": 2}, {"a": 1, "c": 2}])
@example([{"%s": 1, "a%": "%d"}, {"%s": 2.5, "a%": None}])
@example([{"a": {"x": "}", "y": "{"}, "b": {}}, {"a": {"x": "}{"}, "b": {1: 2}},
          {"a": None, "b": {}}])
@example([{"a": OrderedDict(b=1, c=[2]), "t": Pair(1, 2)},
          {"a": OrderedDict(b=3, c=()), "t": Pair(3, (4,))}])
def test_write_json_column_path_gives_the_bytes_of_json_dump(records):
    assert _write_json(records) == _json_dump(records)
    assert _write_json({"w": records}) == _json_dump({"w": records})


def test_report_json_of_a_seven_sender_check_is_json_dump(tmp_path,
                                                          monkeypatch):
    """``report.json`` of `check` on 7 conditionally iid binary senders (a
    few thousand witnesses sharing label dicts and subset lists) has the
    bytes of ``json.dump`` of the same report."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import iid_scenario_yaml
    scenario = tmp_path / "iid7.yaml"
    scenario.write_text(iid_scenario_yaml(7))
    written, cli_write_json = [], cli.write_json

    def write_json(fh, obj):
        written.append(obj)
        cli_write_json(fh, obj)
    monkeypatch.setattr(cli, "write_json", write_json)
    out = tmp_path / "out"
    assert run(["check", "--scenario", str(scenario), "--seed", "11",
                "--out", str(out)]) == 2
    [report] = written
    assert sum(len(c["witnesses"]) for c in report["conditions"].values()) \
        > 4000
    assert (out / "report.json").read_text() == _json_dump(report)


# -- profile rows ------------------------------------------------------------------

def _reference_rows(profile):
    """Profile rows from the graph's ``StateNode`` list."""
    for node in profile.graph.nodes:
        revealed = "|".join(str(i) for i in node.revealed)
        realization = "|".join(str(v) for v in node.values)
        for sender in profile.graph.unrevealed(node.id):
            yield (node.id, revealed, realization, sender,
                   profile.rate(node.id, sender))


def _int_and_bool_labels(base):
    base["components"] = {"state": [0, 1],
                          "senders": [[0, 1, 2], [True, False]]}
    base["prior"] = {"product": {
        "state": [0.4, 0.6],
        "conditionals": [[[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
                         [[0.7, 0.3], [0.4, 0.6]]]}}
    base["decision"] = {"actions": ["a", "b"],
                        "utility": {"by_state": {"a": [1.0, 0.0],
                                                 "b": [0.0, 1.0]}}}


@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(__file__).parent.parent.glob("scenarios/*.yaml")
    if load_scenario(p).finite) + ["int-and-bool labels"])
def test_profile_rows_match_the_state_nodes(scenario_dir, tmp_path, name):
    path = (write_scenario(tmp_path, _int_and_bool_labels)
            if name == "int-and-bool labels" else scenario_dir / name)
    s = load_scenario(path)
    profile = aon_rates(s.dp, s.prior, s.cost, force=True)
    rows = list(profile.rows())
    assert "nodes" not in vars(profile.graph)
    assert rows == list(_reference_rows(profile))
    assert len(rows) == np.count_nonzero(profile.graph.cells < 0)


def test_solve_builds_no_state_node_list(scenario_dir, tmp_path, monkeypatch):
    profiles = []

    def solve(*args, **kwargs):
        profiles.append(aon_rates(*args, **kwargs))
        return profiles[-1]
    monkeypatch.setattr(cli, "aon_rates", solve)
    assert run(["solve", "--scenario", str(scenario_dir / "pair_guess.yaml"),
                "--out", str(tmp_path)]) == 0
    [profile] = profiles
    assert "nodes" not in vars(profile.graph)


def test_check_and_solve_build_no_edge_arrays(scenario_dir, tmp_path,
                                              monkeypatch):
    # the child/probability arrays serve episodes and the receiver DP only
    graphs, init = [], StateGraph.__init__

    def spy(self, *args):
        init(self, *args)
        graphs.append(self)
    monkeypatch.setattr(StateGraph, "__init__", spy)
    for command in ("check", "solve"):
        for name in ("pair_guess.yaml", "three_action_signals.yaml"):
            run([command, "--scenario", str(scenario_dir / name),
                 "--out", str(tmp_path / command / name)])
    assert graphs
    assert all("edges" not in vars(graph) for graph in graphs)


def _pair_guess_with_accent(scenario_dir, tmp_path, cost=0.1):
    """scenarios/pair_guess.yaml with the sender value "H" written as a
    letter outside ASCII, and the given cost."""
    text = (scenario_dir / "pair_guess.yaml").read_text(encoding="utf-8")
    scenario = tmp_path / "pair_guess.yaml"
    scenario.write_text(text.replace("- [H, T]", "- [\u00e9, T]")
                        .replace("cost: 0.1", f"cost: {cost}"),
                        encoding="utf-8")
    return str(scenario)


def _run_in_locale(locale, argv):
    """``python -m attnmarket.cli`` with ``argv`` under ``locale``, locale
    coercion and UTF-8 mode off."""
    env = {**os.environ, "LC_ALL": locale, "PYTHONCOERCECLOCALE": "0",
           "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(attnmarket.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "attnmarket.cli"] + argv,
                          env=env, capture_output=True)


def test_outputs_do_not_depend_on_the_locale(scenario_dir, tmp_path):
    """A sender value outside ASCII reads and writes the same files under
    an ASCII locale as under a UTF-8 one: the scenario is read as bytes and
    every output is written in UTF-8."""
    scenario = _pair_guess_with_accent(scenario_dir, tmp_path)
    outputs = {}
    for locale in ("POSIX", "C.utf8"):
        out = tmp_path / locale
        done = _run_in_locale(locale, ["solve", "--scenario", scenario,
                                       "--out", str(out)])
        assert done.returncode == 0, done.stderr.decode(errors="replace")
        outputs[locale] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs["POSIX"] == outputs["C.utf8"]
    assert "\u00e9".encode() in outputs["POSIX"]["profile.csv"]


def test_check_prints_a_label_the_locale_cannot_encode(scenario_dir,
                                                       tmp_path):
    """At a cost above every residual value, ``check`` prints witnesses
    that name the value "\u00e9"; an ASCII locale prints it escaped."""
    scenario = _pair_guess_with_accent(scenario_dir, tmp_path, cost=5.0)
    for locale, label in (("POSIX", b"'\\xe9'"),
                          ("C.utf8", "'\u00e9'".encode())):
        done = _run_in_locale(locale, ["check", "--scenario", scenario])
        assert done.returncode == 2, done.stderr.decode(errors="replace")
        assert b"Traceback" not in done.stderr
        assert label in done.stdout
