"""Every function the benchmark's traced run wraps must exist.

``perfbench/spans.py`` looks each ``(module, function)`` of ``TARGETS`` up
with ``getattr`` when a traced run starts, so a deleted or renamed name
would only show up as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    return [(module, function) for module, function, *_ in spans.TARGETS]


@pytest.mark.parametrize("module, function", load_targets())
def test_trace_target_resolves(module, function):
    mod = importlib.import_module(f"starfactor.{module}")
    assert callable(getattr(mod, function, None)), f"starfactor.{module}.{function}"
