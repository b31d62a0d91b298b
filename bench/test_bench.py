"""Tests of the benchmark itself: a smoke run of every workload at its tiny
size, and one deliberately perturbed output per check.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import csv
import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference                                     # noqa: E402
import run                                           # noqa: E402
import workloads                                     # noqa: E402
from workloads import CheckError                     # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OPS_PER_ROUND = {"exact-senders": 2, "exact-grid": 2, "montecarlo": 4,
                 "large-market": 2}


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *map(str, args)],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke(name):
    result = bench("--workload", name, "--seed", 5, "--seconds", 0,
                   "--trace", 0, "--tiny")
    assert result["correct"], result
    assert result["attempted"] == OPS_PER_ROUND[name]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_smoke_traced():
    result = bench("--workload", "montecarlo", "--seed", 5, "--seconds", 0,
                   "--trace", 1, "--tiny")
    assert result["correct"] and result["attempted"] == 8
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["simulate.episodes"]["value"] == 2 * 2_000 + 1_000 + 2_000
    assert metrics["simulate.episode_rng.calls"]["value"] == 7_000
    assert metrics["cli.write_csv.rows"]["value"] > 5_000


# -- perturbed outputs ------------------------------------------------------------


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One tiny round of every workload, every check passing."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        workload = cls(work, 3, tiny=True)
        workload.setup()
        results = {}
        for op in workload.ops():
            results[op.name] = op.run()
        for op in workload.ops():
            op.check(results[op.name])
        out[name] = (workload, results)
    return out


@pytest.fixture
def copy(pristine, tmp_path):
    """A workload whose outputs are a private copy, safe to perturb."""
    def make(name):
        workload, results = pristine[name]
        work = tmp_path / name
        shutil.copytree(workload.work, work)
        clone = type(workload)(work, workload.seed, tiny=True)
        clone.am = workload.am
        for attr in ("scenario", "mc_args", "env"):
            if hasattr(workload, attr):
                setattr(clone, attr, getattr(workload, attr))
        return clone, results
    return make


def check(workload, results, op_name):
    op = next(op for op in workload.ops() if op.name == op_name)
    return op.check(results[op_name])


def edit_csv(path, fn):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = fn(rows) or rows
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_json(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def set_value(rows, quantity, value, column="value"):
    next(r for r in rows if r["quantity"] == quantity)[column] = repr(value)


CONDITION_EDITS = {
    "margin": lambda c: c["assumption2"].update(margin=c["assumption2"]["margin"] + 1e-6),
    "holds": lambda c: c["mnat_concave"].update(holds=not c["mnat_concave"]["holds"]),
    "witnesses": lambda c: c["substitutes"]["witnesses"].pop(0),
    "checked": lambda c: c["mnat_concave"].update(checked=c["mnat_concave"]["checked"] - 1),
}


@pytest.mark.parametrize("edit", sorted(CONDITION_EDITS))
def test_exact_senders_check_catches(copy, edit):
    workload, results = copy("exact-senders")
    edit_json(workload.work / "check" / "report.json",
              lambda r: CONDITION_EDITS[edit](r["conditions"]))
    with pytest.raises(CheckError):
        check(workload, results, "check")


def test_exact_senders_check_exit_code(copy):
    workload, results = copy("exact-senders")
    with pytest.raises(CheckError, match="exit code"):
        check(workload, {"check": 0 if results["check"] else 2}, "check")


def _finite_rate(rows):
    return next(r for r in rows if r["rate"] != "inf")


SOLVE_EDITS = {
    "rate": lambda p: edit_csv(p / "profile.csv", lambda rows: _finite_rate(
        rows).update(rate=repr(float(_finite_rate(rows)["rate"]) * 1.001))),
    "inf rate": lambda p: edit_csv(p / "profile.csv", lambda rows: _finite_rate(
        rows).update(rate="inf")),
    "missing row": lambda p: edit_csv(p / "profile.csv", lambda rows: rows[1:]),
    "visits": lambda p: edit_csv(p / "payoffs.csv", lambda rows: rows[0].update(
        value=repr(float(rows[0]["value"]) + 1e-6))),
    "receiver payoff": lambda p: edit_csv(p / "payoffs.csv", lambda rows: set_value(
        rows, "receiver_payoff", -1.0)),
    "price": lambda p: edit_csv(p / "prices.csv", lambda rows: rows[-1].update(
        price="0.5")),
    "equilibrium": lambda p: edit_json(p / "report.json", lambda r: r[
        "summary"].update(equilibrium=True)),
}


@pytest.mark.parametrize("edit", sorted(SOLVE_EDITS))
def test_exact_senders_solve_catches(copy, edit):
    workload, results = copy("exact-senders")
    SOLVE_EDITS[edit](workload.work / "solve")
    with pytest.raises(CheckError):
        check(workload, results, "solve")


def test_exact_senders_counts_finite_rate_at_zero_residual(copy):
    """At three senders the program writes inf wherever the exact residual
    is 0; a finite rate there is the counted failure, not a wrong output."""
    workload, results = copy("exact-senders")
    assert check(workload, results, "solve") is False
    edit_csv(workload.work / "solve" / "profile.csv",
             lambda rows: next(r for r in rows if r["rate"] == "inf").update(
                 rate="90071992547409.92"))
    assert check(workload, results, "solve") is True


GRID_EDITS = {
    "root rate": lambda rows: rows[0].update(rate=repr(float(rows[0]["rate"]) * 1.03)),
    "equal rates": lambda rows: rows[0].update(rate=repr(float(rows[0]["rate"]) * (1 + 1e-6))),
}


@pytest.mark.parametrize("edit", sorted(GRID_EDITS))
def test_exact_grid_rates_caught(copy, edit):
    workload, results = copy("exact-grid")
    edit_csv(workload.work / "solve" / "profile.csv", GRID_EDITS[edit])
    with pytest.raises(CheckError):
        check(workload, results, "solve")


def test_exact_grid_payoff_caught(copy):
    workload, results = copy("exact-grid")
    target = reference.gaussian_receiver_payoff(1.0, (1.0, 1.0))
    edit_csv(workload.work / "solve" / "payoffs.csv",
             lambda rows: set_value(rows, "receiver_payoff", target * 1.03))
    with pytest.raises(CheckError, match="receiver payoff"):
        check(workload, results, "solve")


def test_exact_grid_exit_codes_caught(copy):
    workload, _ = copy("exact-grid")
    for op in ("check", "solve"):
        with pytest.raises(CheckError, match="exit code"):
            check(workload, {op: 2}, op)


def test_exact_grid_condition_caught(copy):
    workload, results = copy("exact-grid")
    edit_json(workload.work / "check" / "report.json",
              lambda r: r["conditions"]["substitutes"].update(holds=False))
    with pytest.raises(CheckError, match="substitutes"):
        check(workload, results, "check")


@pytest.mark.parametrize("op,quantity,column,by,match", [
    ("simulate-lowest", "visits_1", "empirical", 8.0, "visits_1"),
    ("simulate-lowest", "visits_2", "theory", 0.1, "theory"),
    ("simulate-lowest", "receiver_payoff", "empirical", -8.0, "payoff"),
    ("simulate-random", "visits_1", "empirical", 12.0, "disagree"),
    ("simulate-trace", "visits_2", "empirical", 8.0, "visits_2"),
    ("simulate-trace", "receiver_payoff", "theory", 0.1, "theory"),
])
def test_montecarlo_summary_caught(copy, op, quantity, column, by, match):
    workload, results = copy("montecarlo")

    def shift(rows):
        row = next(r for r in rows if r["quantity"] == quantity)
        row[column] = repr(float(row[column]) + by * float(row["stderr"]))
    edit_csv(workload.work / op / "summary.csv", shift)
    with pytest.raises(CheckError, match=match):
        check(workload, results, op)


def test_montecarlo_episode_mean_caught(copy):
    workload, results = copy("montecarlo")
    edit_csv(workload.work / "simulate-lowest" / "episodes.csv",
             lambda rows: rows[0].update(visits_1=str(int(rows[0]["visits_1"]) + 50)))
    with pytest.raises(CheckError, match="mean"):
        check(workload, results, "simulate-lowest")


def test_montecarlo_trace_rows_caught(copy):
    workload, results = copy("montecarlo")
    edit_csv(workload.work / "simulate-trace" / "trace.csv", lambda rows: rows[1:])
    with pytest.raises(CheckError, match="trace.csv"):
        check(workload, results, "simulate-trace")


def test_montecarlo_library_caught(copy):
    workload, results = copy("montecarlo")
    summary = results["monte_carlo"]
    shifted = replace(summary, mean_visits={
        i: v + 8 * summary.se_visits[i] for i, v in summary.mean_visits.items()})
    with pytest.raises(CheckError, match="monte_carlo visits"):
        check(workload, {"monte_carlo": shifted}, "monte_carlo")


def test_montecarlo_prefix_rule_caught(copy, monkeypatch):
    """A 2N-episode run whose early rows differ from the N-episode run."""
    workload, _ = copy("montecarlo")
    workload.final_check()
    real = workloads.run_cli

    def perturbed(am, argv):
        code = real(am, argv)
        out = Path(argv[argv.index("--out") + 1])
        if argv[argv.index("--replications") + 1] == 600:
            edit_csv(out / "episodes.csv", lambda rows: rows[0].update(
                rounds=str(int(rows[0]["rounds"]) + 1)))
        return code

    monkeypatch.setattr(workloads, "run_cli", perturbed)
    with pytest.raises(CheckError, match="first 300 episodes"):
        workload.final_check()


SWEEP_EDITS = {
    "exact": ("residual_value", 2, lambda v: v + 1e-9, "exact"),
    "decreasing": ("decision_error", 30, None, "strictly decrease"),
    "negative": ("residual_value", 35, lambda v: -1e-3, "negative"),
    "scaled": ("scaled_residual", 20, lambda v: v * 1.01, "scaled"),
}


@pytest.mark.parametrize("edit", sorted(SWEEP_EDITS))
def test_large_market_sweep_caught(copy, edit):
    column, n, fn, match = SWEEP_EDITS[edit]
    workload, results = copy("large-market")

    def apply(rows):
        row = rows[n - 1]
        if fn is None:                       # equal to its predecessor
            row[column] = rows[n - 2][column]
        else:
            row[column] = repr(fn(float(row[column])))
        if column == "residual_value":       # keep scaled = n * value
            row["scaled_residual"] = repr(n * float(row[column]))
    edit_csv(workload.work / "sweep" / "large_market.csv", apply)
    with pytest.raises(CheckError, match=match):
        check(workload, results, "sweep")


def test_large_market_fit_caught(copy):
    workload, results = copy("large-market")
    edit_json(workload.work / "sweep" / "report.json",
              lambda r: r["summary"]["fit"].update(r_squared=0.9))
    with pytest.raises(CheckError, match="fit"):
        check(workload, results, "sweep")


@pytest.mark.parametrize("curve,index,match", [
    (0, 3, "residual"), (1, 4, "decision error"), (1, 12, "strictly decrease")])
def test_large_market_curves_caught(copy, curve, index, match):
    workload, results = copy("large-market")
    curves = [list(c) for c in results["curves"]]
    point = curves[curve][index]
    value = (curves[curve][index - 1].value if index >= workload.exact_n
             else point.value + 1e-9)
    curves[curve][index] = replace(point, value=value)
    with pytest.raises(CheckError, match=match):
        check(workload, {"curves": tuple(curves)}, "curves")


def test_rounds_with_different_bytes_caught(tmp_path):
    class Drifting(workloads.Workload):
        def setup(self):
            self.count = 0

        def ops(self):
            def write():
                self.count += 1
                (self.work / "out.csv").write_text(str(self.count))
            return [workloads.Op("write", write, lambda _: False,
                                 out=self.work)]

    raw = run.run_rounds(Drifting(tmp_path, 0), seconds=1e-9, trace=False)
    assert raw["attempted"] == 1 and raw["error"] is None
    raw = run.run_rounds(Drifting(tmp_path, 0), seconds=1.0, trace=False)
    assert isinstance(raw["error"], CheckError)


# -- the reference against brute force ------------------------------------------


def test_mnat_grouping_matches_subset_enumeration():
    """The size-grouped M-natural count equals the all-pairs enumeration."""
    ref = reference.IIDBinary(4, Fraction(4, 5), Fraction(11, 20), Fraction(1, 100))
    g = [ref.coalition(k) for k in range(5)]
    subsets = [frozenset(c) for r in range(5)
               for c in itertools.combinations(range(4), r)]
    checked = witnesses = 0
    margin = None
    for S, T in itertools.product(subsets, subsets):
        for s in S - T:
            rhs = max([g[len(S) - 1] + g[len(T) + 1]]
                      + [g[len(S)] + g[len(T)] for _ in T - S])
            slack = rhs - g[len(S)] - g[len(T)]
            checked += 1
            witnesses += slack < -reference.INEQ_TOL
            margin = slack if margin is None else min(margin, slack)
    assert ref.mnat() == {"checked": checked, "witnesses": witnesses,
                          "margin": margin}


def test_reference_closed_forms():
    assert reference.pair_guess_values(0.7, 0.1) == pytest.approx((3.0, 1.4))
    two = reference.IIDBinary(2, Fraction(4, 5), Fraction(11, 20), Fraction(1, 100))
    assert (two.visits(), two.receiver_payoff()) == (Fraction(8, 5), Fraction(98, 125))
    assert reference.gaussian_rates(1.0, (1.0, 1.0), 0.01) == pytest.approx([0.06, 0.06])
    assert reference.gaussian_receiver_payoff(1.0, (1.0, 1.0)) == pytest.approx(-2 / 3)
