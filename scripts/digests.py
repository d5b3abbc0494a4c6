"""sha256 digests of the outputs a bitwise claim rests on.

    PYTHONPATH=src python scripts/digests.py [--out FILE] [--work DIR]
    python scripts/digests.py --compare A.json B.json

The first form prints (and with ``--out`` writes) one JSON object: the
``train.numeric_environment`` stamp of the run and a table of named sha256
values. Set ``SCALEGMN_THREADS`` to the shard width to check; the digests of
two trees are comparable only at the same width and numeric environment.
The table covers:

* ``zoo.*``: the small zoos pinned in ``tests/test_zoo.py`` and the two zoos
  the runs below train on (every file's name and bytes);
* ``fit.*``: the float64 parameters of a stacked INR fit and of a stacked
  toy-CNN fit, before the zoo's float32 rounding;
* ``<run>.step<k>.{loss,grads,params}``: three Adam steps of each task at
  the acceptance model config (plus a bidirectional inr-classify run and a
  flat-mlp baseline), each on a fixed batch of 16 nets, so at width 2 a
  ScaleGMN step runs as shards joined by ``tensor.shard_sum``;
* ``<run>.evaluate.train`` and ``<run>.eval_report.orbit``: the metrics of
  the train split, and the test report with its orbit copy, after the steps;
* ``certify.<combo>.<head>``: each of the 12 deviation lists of
  ``tests/test_harness.py::test_certify_trials_are_pinned``, and
  ``certify.all``, which equals that test's pinned value.

The second form names each digest that differs between two such files (or
is in only one) and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GMN = {"d_v": 32, "d_e": 32, "d_msg": 32, "pe_dim": 8, "n_rounds": 2}
# (name, task, zoo, model overrides, baseline)
RUNS = (
    ("inr_classify", "inr-classify", "inr", {}, "none"),
    ("inr_classify_bidirectional", "inr-classify", "inr", {"direction": "bidirectional"},
     "none"),
    ("cnn_generalization", "cnn-generalization", "cnn", {"group_kind": "positive"}, "none"),
    ("inr_edit", "inr-edit", "inr", {}, "none"),
    ("inr_classify_flat_mlp", "inr-classify", "inr", {}, "flat-mlp"),
)
STEPS, BATCH = 3, 16


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sha_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def zoo_digest(directory) -> str:
    """sha256 over every file of a zoo directory, by name, names and bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def zoo_digests(work: Path, out: dict) -> dict:
    from scalegmn.zoo import gen_cnn_zoo, gen_inr_zoo

    gen_inr_zoo(work / "zoo-inr-pinned", count=4, seed=5, steps=60)
    gen_cnn_zoo(work / "zoo-cnn-pinned", count=3, seed=2)
    gen_cnn_zoo(work / "zoo-cnn-bench", count=6, seed=0)
    zoos = {"inr": work / "zoo-inr", "cnn": work / "zoo-cnn"}
    gen_inr_zoo(zoos["inr"], count=24, seed=81, steps=100)
    gen_cnn_zoo(zoos["cnn"], count=20, seed=3)
    for name in ("zoo-inr-pinned", "zoo-cnn-pinned", "zoo-cnn-bench", "zoo-inr", "zoo-cnn"):
        out[name.replace("-", ".", 1)] = zoo_digest(work / name)
    return zoos


def fit_digests(out: dict) -> None:
    from scalegmn.zoo import inr_source_image, train_inr, train_toy_cnn, image_signal

    signals = [image_signal(inr_source_image(7, i)[0]) for i in range(3)]
    fits = train_inr(signals, steps=40, rng=np.random.default_rng(1))
    out["fit.inr"] = sha(*[a for f in fits for a in f.net.weights + f.net.biases])
    cnns = train_toy_cnn([4, 5, 6], lr=[1e-3, 3e-3, 1e-2], steps=[20, 35, 50])
    out["fit.cnn"] = sha(*[a for r in cnns for a in r.net.weights + r.net.biases],
                         [r.accuracy for r in cnns])


def run_digests(zoos: dict, work: Path, out: dict) -> None:
    from scalegmn.tensor import gradients
    from scalegmn.train import ExperimentConfig, Runner

    for name, task, zoo_key, extra, baseline in RUNS:
        model = {} if baseline != "none" else dict(GMN, **extra)
        runner = Runner(ExperimentConfig(task=task, zoo=str(zoos[zoo_key]),
                                         out_dir=str(work / f"run-{name}"), model=model,
                                         baseline=baseline, lr=1e-3, batch_size=BATCH,
                                         seed=5))
        order = np.random.default_rng(11).permutation(runner.data.splits["train"])
        for k in range(STEPS):
            batch = np.resize(np.roll(order, -k * BATCH), BATCH)
            loss = runner._batch_loss(batch)
            grads = gradients(loss, runner.params)
            runner.opt.step(grads)
            out[f"{name}.step{k}.loss"] = sha(loss.data)
            out[f"{name}.step{k}.grads"] = sha(*grads)
            out[f"{name}.step{k}.params"] = sha(*[p.data for p in runner.params])
        out[f"{name}.evaluate.train"] = sha_json(runner.evaluate("train"))
        out[f"{name}.eval_report.orbit"] = sha_json(
            runner.eval_report("test", with_orbit_copy=True))


def certify_digests(out: dict) -> None:
    from scalegmn.cli import CERTIFY_COMBOS, certify_model_combo

    lists = []
    for combo in CERTIFY_COMBOS:
        for head in ("invariant", "equivariant-edit"):
            dev = certify_model_combo(dict(combo), (2, 4, 4, 2), trials=10, nets=1, tol=1e-8,
                                      seed=0, head=head).deviations
            out[f"certify.{combo['activation']}-{combo['direction']}.{head}"] = sha_json(dev)
            lists.append(dev)
    out["certify.all"] = hashlib.sha256(json.dumps(lists).encode()).hexdigest()


def collect(work: Path) -> dict:
    from scalegmn.train import numeric_environment
    from scalegmn.zoo import worker_count

    digests: dict = {}
    zoos = zoo_digests(work, digests)
    fit_digests(digests)
    run_digests(zoos, work, digests)
    certify_digests(digests)
    return {"environment": numeric_environment(worker_count()), "digests": digests}


def compare(a_path, b_path) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (a_path, b_path))
    if a["environment"] != b["environment"]:
        print(f"environments differ: {a['environment']} vs {b['environment']}")
    da, db = a["digests"], b["digests"]
    differ = sorted(k for k in da.keys() & db.keys() if da[k] != db[k])
    only = sorted(da.keys() ^ db.keys())
    for key in differ:
        print(f"differs: {key}")
    for key in only:
        print(f"only in {a_path if key in da else b_path}: {key}")
    if differ or only:
        return 1
    print(f"no digest differs ({len(da)} compared)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--out", help="also write the JSON here")
    parser.add_argument("--work", help="directory for the zoos and runs (default: a temp dir)")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.work:
        result = collect(Path(args.work))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            result = collect(Path(tmp))
    text = json.dumps(result, indent=1, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
