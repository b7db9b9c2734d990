"""Every function the perfbench tracer wraps exists in the package.

`perfbench/tracer.py` looks each (module, attribute) of its TARGETS up with
getattr when a traced run starts, so a renamed or deleted function breaks
`perfbench/run.py --trace 1` with AttributeError. The tracer module imports
only the standard library at its top level, so it is loaded here by path.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(("module_name", "attr"),
                         [(m, a) for m, a, _, _ in tracer.TARGETS],
                         ids=[f"{m}.{a}" for m, a, _, _ in tracer.TARGETS])
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    assert callable(functools.reduce(getattr, attr.split("."), module))
