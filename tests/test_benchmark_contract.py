"""The library surface the benchmark reads exists and works.

`perfbench/tracer.py` times the library by rebinding the functions and
methods its `MODULE_SPANS` name and the tape ops of `TRACKED_OPS` and
`OTHER_OPS`, and `perfbench/workloads.py` drives `Runner` through its data,
its model and its private step. A name or a return shape that changes in
`src/` makes the benchmark fail only when it runs, so these tests load the
benchmark's own modules (changing nothing under `perfbench/`): they resolve
each traced name as `Tracer.install` does, and run the train workload's
calls once on tiny zoos.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up while it is built
    spec.loader.exec_module(module)
    return module


TRACER = _load("perfbench_tracer", PERFBENCH / "tracer.py")


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


def test_the_train_workload_runs_on_the_runner_surface(tiny_inr_zoo, tiny_cnn_zoo, tmp_path):
    """Every call the train workload makes: `Runner(cfg)`, a round of
    `_batch_loss` steps with `params` and `opt`, the orbit check through
    `data.orbit_copy`, `data.graphs` and `model.forward`, `evaluate` and a
    one-epoch `train`; no operation fails."""
    wl = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    res = wl.Result()
    runners = wl.build_runners({"inr": tiny_inr_zoo, "cnn": tiny_cnn_zoo}, tmp_path, seed=0)
    loop = wl.StepLoop(runners, 0, res)
    loop.round()
    devs = wl.check_orbits(loop, 0, res)
    assert set(devs) == set(wl.ORBIT_CHECKED)
    assert wl.evaluate_graphs(runners["inr_classify"], res) > 0
    wl.run_epoch(runners["cnn_generalization"], res)
    assert res.attempted == len(runners) + len(devs) + 2 and res.failed == 0
