"""Every callable that ``benchmark/tracing.py`` wraps still exists where its
``_replace`` looks it up, so renaming a traced function or method fails
here instead of in the traced benchmark run."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    """The module, run from its source text: nothing is written next to it."""
    module = types.ModuleType("_traced_names")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()

# (layer, path) of every wrapped callable; Counters.install also wraps the
# last two by name
WRAPPED = ([(layer, path) for layer, paths in tracing.SPANS.items() for path in paths]
           + [(layer, path) for layer, paths in tracing.COUNTS.values() for path in paths]
           + [("ff", "FieldCtx.elements"), ("tgraph", "TowerGraph.__init__")])


@pytest.mark.parametrize("layer,path", WRAPPED)
def test_wrapped_callable_resolves(layer, path):
    module = importlib.import_module("rectower." + layer)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        # a method is replaced through the class's own __dict__
        assert callable(vars(getattr(module, owner_name))[attr])
    else:
        assert callable(getattr(module, attr))


def test_span_metrics_name_traced_spans():
    spans = {f"{layer}.{path}" for layer, paths in tracing.SPANS.items() for path in paths}
    named = [n for names in tracing.SPAN_TIMES.values() for n in names]
    named += [n for names in tracing.SPAN_CALLS.values() for n in names]
    named += list(tracing.SPAN_SIZES.values())
    assert set(named) <= spans
