"""Every probe the benchmark's tracer installs names a callable that
exists, so that a rename fails here before it crashes a traced benchmark
run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = load_probes()


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: p.metric)
def test_probe_resolves(probe):
    module_name, _, cls_name = probe.owner.partition(":")
    owner = importlib.import_module(module_name)
    if cls_name:
        # the tracer wraps a method where its class defines it
        assert probe.attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, probe.attr))
