"""Self-test of the benchmark at tiny sizes (``--smoke``).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload prints every end-to-end metric with its unit and
a well-formed last line, that the traced run emits every per-layer metric
of ``BENCHMARK.json``, that the exact counts repeat between two traced runs
with the same seed, and that the command fails without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Named end-to-end readings each workload prints as "metric <name> <value> <unit>".
PRINTED = {
    "train": {
        "inr_classify.step_ms_p50": "ms", "inr_classify.step_ms_p90": "ms",
        "cnn_generalization.step_ms_p50": "ms", "cnn_generalization.step_ms_p90": "ms",
        "inr_edit.step_ms_p50": "ms", "inr_edit.step_ms_p90": "ms",
        "inr_classify.epoch_s": "s", "eval.graphs_per_s": "graphs/s",
    },
    "certify": {
        "certify.invariance_trials_per_s": "trials/s",
        "certify.equivariance_trials_per_s": "trials/s",
    },
    "zoo": {"zoo.inr_s_per_entry": "s/entry", "zoo.cnn_s_per_entry": "s/entry"},
}
EVERY_WORKLOAD = {"setup_s": "s", "fail_ratio": "ratio"}


def run_bench(workload: str, seed: int, trace: int, root: Path = ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=root)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return printed, last["metrics"]


@pytest.mark.parametrize("workload", sorted(PRINTED))
def test_workload_prints_every_end_to_end_metric(workload):
    printed, metrics = parse(run_bench(workload, 3, 0))
    for name, unit in {**PRINTED[workload], **EVERY_WORKLOAD}.items():
        assert name in printed, name
        assert printed[name][1] == unit, (name, printed[name])
    assert printed["fail_ratio"][0] == 0.0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_run_emits_every_layer_metric_and_exact_counts_repeat():
    _, first = parse(run_bench("train", 5, 1))
    _, second = parse(run_bench("train", 5, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from probe import EXACT

    assert EXACT
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name


def test_probe_metric_list_matches_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from probe import PER_LAYER

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("train", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
