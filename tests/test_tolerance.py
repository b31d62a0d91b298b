"""The tolerance policy stays in one module."""

import re
from pathlib import Path

import attnmarket
from attnmarket import tolerance

# a negative-exponent float literal, or a negative power: 1e-9, 2.5E-3, 10 ** -6
THRESHOLD = re.compile(r"\d(?:\.\d*)?[eE]-\d+|\*\*\s*-\s*\d")


def test_thresholds_are_defined_only_in_the_tolerance_module():
    package = Path(attnmarket.__file__).parent
    found = [f"{path.name}:{k}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             if path.name != "tolerance.py"
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if THRESHOLD.search(line)]
    assert found == []


# a closeness test with an implicit threshold: numpy's or math's defaults
CLOSENESS = re.compile(r"\b(?:allclose|isclose)\(")


def test_no_closeness_test_hides_a_threshold():
    package = Path(attnmarket.__file__).parent
    found = [f"{path.name}:{k}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             if path.name != "tolerance.py"
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if CLOSENESS.search(line)]
    assert found == []


def test_condition_slack_keeps_its_threshold():
    # bench/reference.py mirrors this value when it counts witnesses
    assert tolerance.SLACK_TOL == 1e-10
