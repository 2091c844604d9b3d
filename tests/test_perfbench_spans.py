"""The benchmark's span tables name functions the package still binds.

perfbench/spans.py wraps each listed function at every module that binds
it, and `run.py --trace 1` stops when one is missing or bound to another
object. This checks the tables against the package without installing
anything, so a deletion or a rebinding fails here first.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
ENTRIES = _spans.CORE + _spans.LAYERS + _spans.FACTORIES


@pytest.mark.parametrize("span, attr, modules", ENTRIES,
                         ids=[f"{span}:{attr}" for span, attr, _ in ENTRIES])
def test_every_listed_module_binds_one_object(span, attr, modules):
    bound = []
    for name in modules:
        module = importlib.import_module("fracvide." + name if name else "fracvide")
        assert hasattr(module, attr), f"{module.__name__} does not bind {attr} ({span})"
        bound.append(getattr(module, attr))
    assert all(obj is bound[0] for obj in bound), f"{attr} is bound to different objects"
    assert callable(bound[0])
