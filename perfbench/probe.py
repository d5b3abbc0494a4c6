"""The traced run: every layer of all three workloads, plain then traced.

Each section (train, certify, zoo) runs a fixed amount of work twice with
the same seed, first untraced and then under a :class:`tracer.Tracer`; the
ratio of the two wall times is the reported tracing overhead. The sections
that ``SECTIONS`` gives the named workload run at the probe sizes; the
others run at the self-test sizes, only so that every per-layer metric has
a value. The traced train steps must reproduce the untraced loss digest,
which checks that the wrappers leave the arithmetic alone. Zoo generation
runs in-process here (``SCALEGMN_THREADS=1``) so that the fits inside it
can be traced.

``PER_LAYER`` lists every metric with its unit and better direction;
``BENCHMARK.json`` mirrors it.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from tracer import OP_LABELS, Tracer
from workloads import (
    SMOKE, ZOO_COUNT, Result, Sizes, StepLoop, build_runners, build_train_zoos, certify_pass,
    check_orbits, evaluate_graphs, run_epoch, zoo_round,
)

TASK_TAGS = ("inr_classify", "cnn_generalization", "inr_edit")
BLOCKS = ("scale_eq", "rescale_eq", "scale_inv", "canonicalizer")
COUNT_UNIT = "count"
# Sections measured at full probe size in each workload's traced run. The
# zoo section goes with train, whose set-up builds zoos, because the zoo
# workload is not among the gated ones.
SECTIONS = {"train": ("train", "zoo"), "certify": ("certify",), "zoo": ("zoo",)}


def _layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for tag in TASK_TAGS + ("inr_fit", "cnn_fit"):
        out.append((f"tensor.nodes_per_step.{tag}", COUNT_UNIT, "lower"))
    for tag in TASK_TAGS:
        out.append((f"tensor.forward_ms_per_step.{tag}", "ms", "lower"))
        out.append((f"tensor.backward_ms_per_step.{tag}", "ms", "lower"))
    for op in OP_LABELS:
        out.append((f"tensor.op.{op}.calls", COUNT_UNIT, "lower"))
        out.append((f"tensor.op.{op}.fwd_ms", "ms", "lower"))
        out.append((f"tensor.op.{op}.bwd_ms", "ms", "lower"))
    out += [("nn.mlp.calls_per_step", COUNT_UNIT, "lower"),
            ("nn.mlp.rows_per_step", COUNT_UNIT, "lower"),
            ("nn.mlp.fwd_ms_per_step", "ms", "lower"),
            ("nn.layernorm.fwd_ms_per_step", "ms", "lower"),
            ("nn.linear.fwd_ms_per_step", "ms", "lower")]
    for tag in TASK_TAGS + ("inr_fit",):
        out.append((f"optim.adam_ms_per_step.{tag}", "ms", "lower"))
    for block in BLOCKS:
        out.append((f"blocks.{block}.calls_per_step", COUNT_UNIT, "lower"))
        out.append((f"blocks.{block}.rows_per_step", COUNT_UNIT, "lower"))
        out.append((f"blocks.{block}.fwd_ms_per_step", "ms", "lower"))
    out.append(("blocks.canonicalizer.fwd_ms_per_step.cnn_generalization", "ms", "lower"))
    for tag in TASK_TAGS:
        out.append((f"model.embed_ms_per_step.{tag}", "ms", "lower"))
    for tag in ("inr_classify", "cnn_generalization"):
        out.append((f"model.readout_ms_per_step.{tag}", "ms", "lower"))
    out.append(("model.edit_head_ms_per_step.inr_edit", "ms", "lower"))
    for tag in TASK_TAGS:
        out.append((f"model.masked_row_share.{tag}", "ratio", "higher"))
    out += [("graph.build_ms_per_graph.ffnn", "ms", "lower"),
            ("graph.build_ms_per_graph.cnn", "ms", "lower"),
            ("graph.builds", COUNT_UNIT, "lower"),
            ("graph.build_share", "ratio", "lower"),
            ("graph.batch_ms_per_step.inr_classify", "ms", "lower"),
            ("ffnn.apply_orbit_ms_per_call", "ms", "lower"),
            ("ffnn.forward_taped_ms_per_step.inr_edit", "ms", "lower"),
            ("ffnn.forward_taped_ms_per_step.inr_fit", "ms", "lower"),
            ("cnn.forward_taped_ms_per_step.cnn_fit", "ms", "lower"),
            ("zoo.steps_per_inr", COUNT_UNIT, "lower"),
            ("zoo.inr_step_ms", "ms", "lower"),
            ("zoo.cnn_step_ms", "ms", "lower"),
            ("zoo.save_ms_per_entry", "ms", "lower"),
            ("zoo.load_ms_per_entry", "ms", "lower"),
            ("zoo.inr_retries", COUNT_UNIT, "lower"),
            ("harness.certify_invariance_ms_per_trial", "ms", "lower"),
            ("harness.certify_equivariance_ms_per_trial", "ms", "lower"),
            ("harness.model_share", "ratio", "higher"),
            ("train.eval_ms_per_graph", "ms", "lower"),
            ("train.checkpoint_ms", "ms", "lower")]
    for section in ("train", "certify", "zoo"):
        out.append((f"trace.overhead.{section}", "ratio", "lower"))
    return out


PER_LAYER = _layer_names()
# Counts that depend only on the seed and sizes; two runs must agree exactly.
EXACT = tuple(n for n, _, _ in PER_LAYER
              if n.startswith(("tensor.nodes_per_step.", "model.masked_row_share."))
              or n in ("graph.builds", "zoo.steps_per_inr"))


def _probe_train(work: Path, seed: int, sizes: Sizes, tr: Tracer, res: Result) -> float:
    zoos = build_train_zoos(work, seed, sizes)
    plain = StepLoop(build_runners(zoos, work / "plain", seed), seed, res)
    plain_ms = [plain.round() for _ in range(sizes.probe_rounds)]
    with tr:
        tr.section = "train"
        runners = build_runners(zoos, work / "traced", seed)
        for runner in runners.values():
            tr.register_roles(runner.model)
        loop = StepLoop(runners, seed, res, tracer=tr)
        traced_ms = [loop.round() for _ in range(sizes.probe_rounds)]
        for _ in range(2):
            evaluate_graphs(runners["inr_classify"], res)
        run_epoch(runners["inr_classify"], res)
        check_orbits(loop, seed, res)
        tr.roles.clear()
    # the wrappers must not change a single loss
    res.check(loop.digest(sizes.probe_rounds) == plain.digest(sizes.probe_rounds))
    return statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0


def _probe_certify(seed: int, sizes: Sizes, tr: Tracer, res: Result, info: dict) -> float:
    nets, trials = sizes.probe_certify_nets, sizes.probe_certify_trials
    t0 = time.perf_counter()
    certify_pass(nets, trials, seed, res, {"invariant": [0, 0.0], "equivariant-edit": [0, 0.0]})
    plain_s = time.perf_counter() - t0
    heads = {"invariant": [0, 0.0], "equivariant-edit": [0, 0.0]}
    with tr:
        tr.section = "certify"
        t0 = time.perf_counter()
        certify_pass(nets, trials, seed, res, heads)
        traced_s = time.perf_counter() - t0
    info["certify_s"] = traced_s
    info["trials"] = {head: n for head, (n, _) in heads.items()}
    return traced_s / plain_s - 1.0


def _probe_zoo(work: Path, seed: int, sizes: Sizes, tr: Tracer, res: Result, info: dict) -> float:
    saved = os.environ.get("SCALEGMN_THREADS")
    os.environ["SCALEGMN_THREADS"] = "1"
    try:
        t0 = time.perf_counter()
        zoo_round(work, seed, ZOO_COUNT, sizes.zoo_inr_steps, res)
        plain_s = time.perf_counter() - t0
        with tr:
            tr.section = "zoo"
            t0 = time.perf_counter()
            _, _, n_inr, n_cnn = zoo_round(work, seed, ZOO_COUNT, sizes.zoo_inr_steps, res)
            traced_s = time.perf_counter() - t0
    finally:
        if saved is None:
            os.environ.pop("SCALEGMN_THREADS", None)
        else:
            os.environ["SCALEGMN_THREADS"] = saved
    info["inr_requested"] = ZOO_COUNT
    info["entries_loaded"] = n_inr + n_cnn
    return traced_s / plain_s - 1.0


def run_probe(work: Path, seed: int, sizes: Sizes,
              workload: str) -> tuple[dict, Result, Tracer]:
    """Run all three sections; return (per-layer metrics, result, tracer)."""
    tr, res, info = Tracer(), Result(), {}

    def size(section):
        return sizes if section in SECTIONS[workload] else SMOKE

    t0 = time.perf_counter()
    overhead = {
        "train": _probe_train(work, seed, size("train"), tr, res),
        "certify": _probe_certify(seed, size("certify"), tr, res, info),
        "zoo": _probe_zoo(work, seed, size("zoo"), tr, res, info),
    }
    res.extra["probe_s"] = time.perf_counter() - t0
    res.extra["full_size_sections"] = list(SECTIONS[workload])
    return layer_metrics(tr, info, overhead), res, tr


def layer_metrics(tr: Tracer, info: dict, overhead: dict) -> dict:
    m = {}
    steps = tr.steps

    def per_step(value, tag):
        return value / steps[tag]

    for tag in TASK_TAGS + ("inr_fit", "cnn_fit"):
        m[f"tensor.nodes_per_step.{tag}"] = per_step(tr.nodes[tag], tag)
    for tag in TASK_TAGS:
        fwd = sum(tr.op_fwd[(tag, op)] for op in OP_LABELS) * 1e3
        m[f"tensor.forward_ms_per_step.{tag}"] = per_step(fwd, tag)
        m[f"tensor.backward_ms_per_step.{tag}"] = per_step(
            tr.total_ms("tensor.gradients", tag), tag)
    clf = "inr_classify"
    for op in OP_LABELS:
        m[f"tensor.op.{op}.calls"] = per_step(tr.op_calls[(clf, op)], clf)
        m[f"tensor.op.{op}.fwd_ms"] = per_step(tr.op_fwd[(clf, op)] * 1e3, clf)
        m[f"tensor.op.{op}.bwd_ms"] = per_step(tr.op_bwd[(clf, op)] * 1e3, clf)
    m["nn.mlp.calls_per_step"] = per_step(tr.count("nn.mlp", clf), clf)
    m["nn.mlp.rows_per_step"] = per_step(tr.rows("nn.mlp", clf), clf)
    m["nn.mlp.fwd_ms_per_step"] = per_step(tr.total_ms("nn.mlp", clf), clf)
    m["nn.layernorm.fwd_ms_per_step"] = per_step(tr.total_ms("nn.layernorm", clf), clf)
    m["nn.linear.fwd_ms_per_step"] = per_step(tr.total_ms("nn.linear", clf), clf)
    for tag in TASK_TAGS + ("inr_fit",):
        m[f"optim.adam_ms_per_step.{tag}"] = per_step(tr.total_ms("optim.adam", tag), tag)
    for block in BLOCKS:
        name = f"blocks.{block}"
        m[f"{name}.calls_per_step"] = per_step(tr.count(name, clf), clf)
        m[f"{name}.rows_per_step"] = per_step(tr.rows(name, clf), clf)
        m[f"{name}.fwd_ms_per_step"] = per_step(tr.total_ms(name, clf), clf)
    cnn = "cnn_generalization"
    m[f"blocks.canonicalizer.fwd_ms_per_step.{cnn}"] = per_step(
        tr.total_ms("blocks.canonicalizer", cnn), cnn)
    for tag in TASK_TAGS:
        m[f"model.embed_ms_per_step.{tag}"] = per_step(tr.total_ms("model.embed", tag), tag)
    for tag in (clf, cnn):
        m[f"model.readout_ms_per_step.{tag}"] = per_step(tr.total_ms("model.readout", tag), tag)
    edit = "inr_edit"
    m["model.edit_head_ms_per_step.inr_edit"] = per_step(
        tr.total_ms("model.edit", edit) - tr.total_ms("model.embed", edit), edit)
    for tag in TASK_TAGS:
        m[f"model.masked_row_share.{tag}"] = tr.role_kept[tag] / tr.role_rows[tag]

    def mean_ms(name, section=None):
        return tr.total_ms(name, section=section) / tr.count(name, section=section)

    m["graph.build_ms_per_graph.ffnn"] = mean_ms("graph.build.ffnn")
    m["graph.build_ms_per_graph.cnn"] = mean_ms("graph.build.cnn")
    builds = ("graph.build.ffnn", "graph.build.cnn")
    m["graph.builds"] = sum(tr.count(b, section="certify") for b in builds)
    build_ms = sum(tr.total_ms(b, section="certify") for b in builds)
    m["graph.build_share"] = build_ms / (info["certify_s"] * 1e3)
    m["graph.batch_ms_per_step.inr_classify"] = per_step(tr.total_ms("graph.batch", clf), clf)

    m["ffnn.apply_orbit_ms_per_call"] = mean_ms("ffnn.apply_orbit", section="certify")
    for tag in (edit, "inr_fit"):
        m[f"ffnn.forward_taped_ms_per_step.{tag}"] = per_step(
            tr.total_ms("ffnn.forward_taped", tag), tag)
    m["cnn.forward_taped_ms_per_step.cnn_fit"] = per_step(
        tr.total_ms("cnn.forward_taped", "cnn_fit"), "cnn_fit")

    fits = tr.count("zoo.train_inr")
    m["zoo.steps_per_inr"] = steps["inr_fit"] / fits
    m["zoo.inr_step_ms"] = per_step(tr.total_ms("zoo.train_inr"), "inr_fit")
    m["zoo.cnn_step_ms"] = per_step(tr.total_ms("zoo.train_toy_cnn"), "cnn_fit")
    m["zoo.save_ms_per_entry"] = (tr.total_ms("zoo.save", section="zoo")
                                  / tr.rows("zoo.save", section="zoo"))
    m["zoo.load_ms_per_entry"] = tr.total_ms("zoo.load", section="zoo") / info["entries_loaded"]
    m["zoo.inr_retries"] = fits - info["inr_requested"]

    inv_ms = tr.total_ms("harness.certify_invariance")
    eq_ms = tr.total_ms("harness.certify_equivariance")
    m["harness.certify_invariance_ms_per_trial"] = inv_ms / info["trials"]["invariant"]
    m["harness.certify_equivariance_ms_per_trial"] = eq_ms / info["trials"]["equivariant-edit"]
    model_ms = (tr.total_ms("model.forward", section="certify")
                + tr.total_ms("model.edit_params", section="certify"))
    m["harness.model_share"] = model_ms / (inv_ms + eq_ms)

    m["train.eval_ms_per_graph"] = tr.total_ms("train.evaluate") / tr.rows("train.evaluate")
    m["train.checkpoint_ms"] = mean_ms("train.checkpoint")
    for section, value in overhead.items():
        m[f"trace.overhead.{section}"] = value
    return m
