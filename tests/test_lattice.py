"""One exact-revelation lattice per (prior or belief, decision problem):
built once, shared by every reader, read-only, and freed with its prior."""

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import attnmarket
from attnmarket import decision, presets
from attnmarket.cli import main
from attnmarket.conditions import (
    check_assumption2,
    check_mnat_concave,
    check_substitutes,
)
from attnmarket.decision import DecisionProblem, _lattice, _Lattice
from attnmarket.equilibrium import aon_rates, marginal_prices


@pytest.fixture
def builds(monkeypatch):
    """The number of ``_Lattice`` objects built so far."""
    count = [0]
    init = _Lattice.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)
    monkeypatch.setattr(_Lattice, "__init__", counted)
    return count


def _iid7(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    from workloads import iid_scenario_yaml
    path = tmp_path / "iid7.yaml"
    path.write_text(iid_scenario_yaml(7))
    return path


@pytest.mark.parametrize("argv", [
    ["check"], ["solve"], ["solve", "--force"],
    ["simulate", "--replications", "20"],
], ids=["check", "solve", "solve-force", "simulate"])
@pytest.mark.parametrize("scenario", ["pair_guess", "iid7"])
def test_each_command_builds_one_lattice(tmp_path, monkeypatch, capsys,
                                         scenario_dir, builds, argv,
                                         scenario):
    if scenario == "iid7":
        path = _iid7(tmp_path, monkeypatch)
    else:
        path = scenario_dir / "pair_guess.yaml"
    main(argv + ["--scenario", str(path), "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert builds[0] == 1


def test_every_reader_reads_one_lattice(builds):
    prior, dp = presets.conditionally_iid_signals(n=3)
    check_mnat_concave(dp, prior)
    check_assumption2(dp, prior, 0.01)
    check_substitutes(dp, prior, samples=5)
    profile = aon_rates(dp, prior, 0.01, force=True)
    marginal_prices(dp, prior)
    assert builds[0] == 1
    assert profile.graph._lattice is _lattice(dp, prior)


def test_lattice_is_freed_with_its_prior():
    prior, dp = presets.pair_guess()
    ref = weakref.ref(_lattice(dp, prior))
    gc.collect()
    assert ref() is not None
    del prior
    gc.collect()
    assert ref() is None


def test_lattice_is_freed_with_its_decision_problem():
    prior, dp = presets.pair_guess()
    ref = weakref.ref(_lattice(dp, prior))
    del dp
    gc.collect()
    assert ref() is None


def test_shared_lattice_is_read_only():
    prior, dp = presets.conditionally_iid_signals(n=2)
    lattice = _lattice(dp, prior)
    arrays = [lattice.mass, lattice.eu, lattice.value, lattice.nodes(),
              lattice.gain(1), lattice.residual(2)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_decision_problem_copies_its_table():
    table = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    dp = DecisionProblem(("a", "b"), table)
    table[0, 0, 0] = 5.0
    assert dp.utility[0, 0, 0] == 1.0
    assert not dp.utility.flags.writeable


def test_one_lattice_per_prior_and_decision_problem(builds):
    prior, dp = presets.conditionally_iid_signals(n=2)
    other = DecisionProblem(dp.actions, dp.utility * 2.0)
    first, second = _lattice(dp, prior), _lattice(other, prior)
    assert first is not second
    assert _lattice(dp, prior) is first and _lattice(other, prior) is second
    assert builds[0] == 2
    assert np.array_equal(second.value, 2.0 * first.value)


def test_a_belief_gets_its_own_lattice():
    prior, dp = presets.pair_guess()
    belief = prior.belief()
    assert _lattice(dp, belief) is not _lattice(dp, prior)
    assert _lattice(dp, belief) is _lattice(dp, belief)


# a call that builds a lattice: the class's own name followed by "("
BUILD = re.compile(r"\b_Lattice\(")


def test_only_the_memo_builds_a_lattice():
    """``_Lattice(`` appears in the package only inside
    ``decision._lattice``, so that no reader builds a second copy."""
    package = Path(attnmarket.__file__).parent
    found = [f"{path.name}:{k}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if BUILD.search(line)]
    source = Path(decision.__file__).read_text().splitlines()
    start = next(k for k, line in enumerate(source, 1)
                 if line.startswith("def _lattice("))
    end = next(k for k, line in enumerate(source[start:], start + 1)
               if line and not line[0].isspace())
    assert found and all(f.startswith("decision.py:") for f in found)
    assert all(start < int(f.split(":")[1]) < end for f in found)
