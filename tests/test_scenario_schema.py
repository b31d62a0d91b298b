"""The scenario schema of ``attnmarket.cli``: mutated scenario files end in
an exit code, never a traceback, and the README documents every field."""

import copy
import io
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attnmarket import cli
from attnmarket.gaussian import GaussianScenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
SCENARIOS = {p.name: yaml.safe_load(p.read_text())
             for p in sorted(SCENARIO_DIR.glob("*.yaml"))}
COMMANDS = [["check"], ["solve"], ["simulate", "--replications", "20"]]
# a number, string, list, mapping, null, NaN, inf, boolean or 1e308
REPLACEMENTS = [0, 2, -1.5, "x", "1e-3", [], [1.0], {}, {"a": 1.0}, None,
                math.nan, math.inf, -math.inf, True, False, 1e308]


def _nodes(tree, path=()):
    """The path of every node below ``tree``, depth first."""
    items = (tree.items() if isinstance(tree, dict)
             else enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def mutated(name, rng):
    """Scenario ``name`` with 1-3 random mutations: a node replaced by one
    of ``REPLACEMENTS``, a mapping key deleted or a list entry
    duplicated."""
    tree = copy.deepcopy(SCENARIOS[name])
    for _ in range(rng.randint(1, 3)):
        paths = list(_nodes(tree))
        if not paths:
            break
        *head, key = rng.choice(paths)
        parent = tree
        for k in head:
            parent = parent[k]
        kind = rng.choice(["replace", "delete", "duplicate"])
        if kind == "replace":
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
        elif isinstance(parent, dict):
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    return tree


def run_scenario(tree, command):
    """``cli.main`` on ``tree`` (YAML text, or the values to write as YAML)
    as a scenario file: the exit code, stderr, and whether the output
    directory exists afterwards."""
    text = tree if isinstance(tree, str) else yaml.safe_dump(tree)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.yaml")
        out = os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(command + ["--scenario", path, "--out", out])
        return code, err.getvalue(), os.path.exists(out)


# one sender's precision absorbs the total: P - p_1 rounds to 0
ABSORBED = {"schema_version": 1, "cost": 0.01,
            "gaussian": {"p0": 1.0, "p": [1.0e308, 1.0]}}
# the correlation threshold squares p0 + p1, which overflows
OVERFLOWING = {**SCENARIOS["gaussian_correlated.yaml"],
               "gaussian": {"p0": 1e308, "p": [1.0, 1.0], "pc": 0.6}}


@pytest.mark.filterwarnings("ignore:some rates are >= 1")
@settings(max_examples=150, deadline=None, database=None)
@given(tree=st.builds(mutated, st.sampled_from(sorted(SCENARIOS)),
                      st.randoms(use_true_random=False)),
       command=st.sampled_from(COMMANDS))
@example(tree=ABSORBED, command=["solve"])
@example(tree=OVERFLOWING, command=["solve"])
def test_mutated_scenario_ends_in_an_exit_code(tree, command):
    code, err, out_exists = run_scenario(tree, command)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.startswith("input error:"), err
        assert not out_exists


@pytest.mark.parametrize("p", [[1.0e17], [1.0e308, 1.0]])
def test_absorbed_precision_is_an_input_error_naming_gaussian_p(p):
    with pytest.raises(ValueError):
        GaussianScenario(1.0, p, 0.01)
    code, err, out_exists = run_scenario(
        {"schema_version": 1, "cost": 0.01, "gaussian": {"p0": 1.0, "p": p}},
        ["solve"])
    assert code == 1 and err.startswith("input error: gaussian.p")
    assert not out_exists


def test_absorbed_precision_sweep_is_an_input_error(tmp_path, capsys):
    code = cli.main(["sweep", "--sweep-kind", "symmetry", "--senders", "1",
                     "--p0", "1e-20", "--total-precision", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, field", [
    ("pair_guess.yaml", "cost"),
    ("gaussian_symmetric.yaml", "gaussian.p0"),
    ("gaussian_correlated.yaml", "gaussian.alpha"),
    ("gaussian_correlated.yaml", "gaussian.pc"),
])
@pytest.mark.parametrize("value", ["true", "yes", "on"])
def test_boolean_scalar_number_is_an_input_error(name, field, value):
    """YAML 1.1 reads ``true``, ``yes`` and ``on`` as booleans, which are
    not numbers."""
    tree = copy.deepcopy(SCENARIOS[name])
    *blocks, key = field.split(".")
    block = tree
    for b in blocks:
        block = block[b]
    block[key] = "BOOLEAN"
    code, err, out_exists = run_scenario(
        yaml.safe_dump(tree).replace("BOOLEAN", value), ["solve"])
    assert code == 1
    assert err.startswith(f"input error: {field} must be a number")
    assert not out_exists


def _generic(path):
    """``path`` with each list index or row label written ``[]``."""
    return re.sub(r"\[[^\]]*\]", "[]", path)


def _readme_fields():
    """The field paths in the first column of the README's table of
    scenario fields."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    table = text.split("| Field |", 1)[1].split("\n\n", 1)[0]
    return {_generic(m) for m in re.findall(r"^\| `([^`]+)`", table, re.M)}


def _read_fields(monkeypatch, paths):
    """The path of every field that ``load_scenario`` reads from the
    files ``paths``, each index or label written ``[]``."""
    read = set()
    init = cli._Field.__init__

    def record(self, value, path):
        read.add(_generic(path))
        init(self, value, path)
    monkeypatch.setattr(cli._Field, "__init__", record)
    for path in paths:
        cli.load_scenario(path)
    return read - {""}


def test_readme_documents_every_scenario_field(monkeypatch, tmp_path):
    dense = copy.deepcopy(SCENARIOS["pair_guess.yaml"])
    dense["prior"] = {"dense": [0.49, 0.21, 0.21, 0.09]}
    (tmp_path / "dense.yaml").write_text(yaml.safe_dump(dense))
    read = _read_fields(monkeypatch, sorted(SCENARIO_DIR.glob("*.yaml"))
                        + [tmp_path / "dense.yaml"])
    assert read == _readme_fields()
