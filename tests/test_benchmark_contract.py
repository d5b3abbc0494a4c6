"""The names the benchmark tracer wraps exist in the library.

`perfbench/tracer.py` times the library by rebinding the functions and
methods its `MODULE_SPANS` name and the tape ops of `TRACKED_OPS` and
`OTHER_OPS`. A name that goes from `src/` makes the traced benchmark fail
only when it runs, so these tests read the tracer's tables (changing nothing
under `perfbench/`) and resolve each name as `Tracer.install` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module,path", [(m, p) for m, p, _, _ in TRACER.MODULE_SPANS],
                         ids=[name for _, _, name, _ in TRACER.MODULE_SPANS])
def test_every_module_span_resolves(module, path):
    """A method is looked up in its class's own dict, as `install` patches it."""
    mod = importlib.import_module(f"scalegmn.{module}")
    if "." in path:
        cls_name, meth = path.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth)), f"{module}.{path}"
    else:
        assert callable(getattr(mod, path, None)), f"{module}.{path}"


@pytest.mark.parametrize("op", TRACER.TRACKED_OPS + TRACER.OTHER_OPS)
def test_every_traced_tape_op_exists(op):
    tensor = importlib.import_module("scalegmn.tensor")
    assert callable(getattr(tensor, op, None)), f"scalegmn.tensor.{op}"


def test_the_tables_are_read():
    """The checks above rest on names, not on empty tables."""
    assert TRACER.MODULE_SPANS and TRACER.TRACKED_OPS and TRACER.OTHER_OPS
