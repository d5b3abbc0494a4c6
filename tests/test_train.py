"""Task loops: splits, CSV metrics, checkpointing, orbit-copy evaluation."""

import csv
import dataclasses
import json
import math
import re
import shutil
import threading

import numpy as np
import pytest

from scalegmn import activations
from scalegmn import tensor as tensor_module
from scalegmn import train as train_module
from scalegmn.ffnn import ffnn_forward, sample_orbit
from scalegmn.model import ScaleGMNConfig, ScaleGMNModel, load_checkpoint
from scalegmn.nn import cross_entropy
from scalegmn.optim import finite_diff_check
from scalegmn.tensor import NumericsError, ShapeError, gradients
from scalegmn.train import (
    MIN_SHARD_ROWS, TASKS, ExperimentConfig, Runner, TaskData, selection_key, split_indices,
)
from scalegmn.zoo import ZooEntry, gen_cnn_zoo, gen_inr_zoo, save_zoo

from test_ffnn import random_net
from test_graph import make_cnn
from test_tensor import tape_size

TINY_MODEL = {"d_v": 8, "d_e": 8, "d_msg": 8, "d_inv": 6, "d_readout": 8,
              "pe_dim": 4, "mlp_hidden": 10, "n_rounds": 1}


def test_split_disjoint_and_covering():
    splits = split_indices(100, seed=4)
    all_idx = np.concatenate([splits["train"], splits["val"], splits["test"]])
    assert sorted(all_idx.tolist()) == list(range(100))
    assert len(splits["train"]) == 70
    assert len(splits["val"]) == 15


def test_split_seeded():
    a, b = split_indices(50, seed=1), split_indices(50, seed=1)
    assert np.array_equal(a["train"], b["train"])
    c = split_indices(50, seed=2)
    assert not np.array_equal(a["train"], c["train"])


def test_task_head_compatibility():
    with pytest.raises(ValueError, match="inr-edit"):
        ExperimentConfig(task="inr-classify", zoo="x",
                         model={"head": "equivariant-edit"})
    with pytest.raises(ValueError, match="unknown task"):
        ExperimentConfig(task="nope", zoo="x")


def test_config_leaves_the_callers_model_dict_alone():
    model = {"d_v": 8}
    cfg = ExperimentConfig(task="inr-edit", zoo="x", model=model)
    assert cfg.model == {"d_v": 8, "head": "equivariant-edit"}
    assert model == {"d_v": 8}
    assert ExperimentConfig(task="inr-classify", zoo="x", model=model).model == {"d_v": 8}


@pytest.mark.parametrize("task,model,message", [
    ("inr-classify", {"out_dim": 3}, "task 'inr-classify' needs model.out_dim = 2, got 3"),
    ("cnn-generalization", {"out_dim": 4},
     "task 'cnn-generalization' needs model.out_dim = 1, got 4"),
    ("inr-edit", {"out_dim": 5}, "task 'inr-edit' needs model.out_dim = 1, got 5"),
    ("inr-edit", {"head": "invariant"},
     "task 'inr-edit' needs model.head = 'equivariant-edit', got 'invariant'"),
])
def test_model_out_dim_and_head_must_fit_the_task(task, model, message):
    """Checked in the config, before any zoo is read (the zoo path does not exist)."""
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(task=task, zoo="no-such-zoo", model=model)
    fixed = {"head": TASKS[task].head, "out_dim": TASKS[task].out_dim}
    assert ExperimentConfig(task=task, zoo="no-such-zoo", model=fixed).model == fixed


def test_a_misspelt_direction_fails_before_any_zoo_is_read():
    """It used to train a forward model."""
    with pytest.raises(ValueError, match=re.escape(
            "direction must be one of ('forward', 'bidirectional'), got 'bidirectonal'")):
        ExperimentConfig(task="inr-classify", zoo="no-such-zoo",
                         model={"direction": "bidirectonal"})


@pytest.mark.parametrize("task,zoo,model,scores,orbit,better,worse", [
    ("inr-classify", "tiny_inr_zoo", {}, {"accuracy", "loss"}, "orbit_accuracy",
     {"accuracy": 0.9, "loss": 0.5}, {"accuracy": 0.8, "loss": 0.1}),
    ("cnn-generalization", "tiny_cnn_zoo", {"group_kind": "positive"},
     {"kendall_tau", "loss"}, "orbit_kendall_tau",
     {"kendall_tau": 0.5, "loss": 0.5}, {"kendall_tau": 0.4, "loss": 0.1}),
    ("inr-edit", "tiny_inr_zoo", {}, {"functional_mse"}, "orbit_functional_mse",
     {"functional_mse": 0.1}, {"functional_mse": 0.2}),
])
def test_each_task_reports_and_selects_by_its_record(request, tmp_path, task, zoo, model,
                                                     scores, orbit, better, worse):
    runner = Runner(ExperimentConfig(task=task, zoo=str(request.getfixturevalue(zoo)),
                                     out_dir=str(tmp_path / "run"),
                                     model=dict(TINY_MODEL, **model), seed=8))
    assert runner.metric_name() == TASKS[task].metric
    assert set(runner.evaluate("val")) == scores
    report = runner.eval_report("val", with_orbit_copy=True)
    assert set(report) == {"split", "n", orbit} | scores
    if task == "inr-edit":
        assert report[orbit] is None   # edited nets differ by the orbit
    else:
        assert report[orbit] == report[TASKS[task].metric]   # invariant head
    assert selection_key(task, better) < selection_key(task, worse)


def test_runner_load_builds_no_second_model(tiny_inr_zoo, tmp_path, monkeypatch):
    """A ScaleGMN checkpoint's tensors are read into the Runner's own model."""
    cfg, ckpt = _saved_runner(tiny_inr_zoo, tmp_path / "run", model=dict(TINY_MODEL), seed=1)
    saved = {name: p.data.copy() for name, p in Runner(cfg).model.named_parameters()}
    other = Runner(ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                                    out_dir=str(tmp_path / "other"), model=dict(TINY_MODEL),
                                    seed=2))
    built = []
    init = ScaleGMNModel.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScaleGMNModel, "__init__", counting)
    other.load(ckpt)
    assert built == []
    for name, p in other.model.named_parameters():
        assert np.array_equal(p.data, saved[name]), name


@pytest.mark.parametrize("key,value,rule", [
    ("batch_size", 0, ">= 1"),
    ("epochs", -1, ">= 0"),
    ("lr", -1.0, "> 0"),
    ("weight_decay", -0.1, ">= 0"),
])
def test_training_settings_are_range_checked_before_any_zoo_is_read(key, value, rule):
    with pytest.raises(ValueError, match=re.escape(f"{key} must be {rule}, got {value!r}")):
        ExperimentConfig(task="inr-classify", zoo="no-such-zoo", **{key: value})
    assert ExperimentConfig(task="inr-classify", zoo="no-such-zoo", epochs=0).epochs == 0


def test_misspelt_model_key_is_rejected():
    with pytest.raises(ValueError, match=r"unknown model config key\(s\) \['n_round'\]"):
        ExperimentConfig(task="inr-classify", zoo="x", model={"n_round": 5, "d_v": 8})
    with pytest.raises(ValueError, match=r"\['sign_cannon'\]; known fields: .*'sign_canon'"):
        ScaleGMNConfig.from_dict({"sign_cannon": "symmetrize"})


REMOVED_MODEL_KEYS = {"n_eq_layers": 2, "rescale_variant": "outer", "edge_updates": False,
                      "pe_in_messages": False, "skip_connections": False,
                      "readout": "output-concat-only", "layer_norm": False}


@pytest.mark.parametrize("key", sorted(REMOVED_MODEL_KEYS))
def test_removed_architecture_switch_is_rejected(key):
    """The architecture is fixed; its former switches are unknown keys."""
    with pytest.raises(ValueError, match=rf"unknown model config key\(s\) \['{key}'\]"):
        ScaleGMNConfig.from_dict({key: REMOVED_MODEL_KEYS[key], "d_v": 8})


def test_runner_rejects_a_group_kind_the_zoo_does_not_have(tiny_cnn_zoo, tmp_path):
    """ReLU CNNs scale by positive multipliers; a sign model would not be invariant."""
    cfg = ExperimentConfig(task="cnn-generalization", zoo=str(tiny_cnn_zoo),
                           out_dir=str(tmp_path / "run"),
                           model=dict(TINY_MODEL, group_kind="sign"))
    with pytest.raises(ValueError, match="group kind 'sign' != template 'positive'"):
        Runner(cfg)


def _saved_runner(zoo, out, **kwargs):
    """A zero-epoch run that saved its initialization, and its checkpoint path."""
    cfg = ExperimentConfig(task="inr-classify", zoo=str(zoo), out_dir=str(out), epochs=0,
                           **kwargs)
    Runner(cfg).train()
    return cfg, out / "checkpoint"


def test_checkpoint_with_a_removed_config_key_names_the_file(tiny_inr_zoo, tmp_path):
    _, ckpt = _saved_runner(tiny_inr_zoo, tmp_path / "run", model=dict(TINY_MODEL))
    manifest = json.loads((ckpt / "checkpoint.json").read_text())
    manifest["config"]["skip_connections"] = True
    (ckpt / "checkpoint.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=re.escape(
            f"{ckpt / 'checkpoint.json'}: unknown model config key(s) ['skip_connections']")):
        load_checkpoint(ckpt)


@pytest.mark.parametrize("model,change", [
    (dict(TINY_MODEL, n_rounds=2), r"missing \['rounds\.1\."),
    (dict(TINY_MODEL, d_v=10), r"wrong shape \['init_v_hidden"),
])
def test_runner_load_rejects_another_architecture(tiny_inr_zoo, tmp_path, model, change):
    _, ckpt = _saved_runner(tiny_inr_zoo, tmp_path / "run", model=dict(TINY_MODEL))
    other = Runner(ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                                    out_dir=str(tmp_path / "other"), model=model))
    with pytest.raises(ValueError, match=re.escape(str(ckpt / "checkpoint.json")) + ".*" + change):
        other.load(ckpt)


@pytest.mark.parametrize("change", ["missing", "unexpected", "shape"])
def test_runner_load_rejects_a_mismatched_baseline_file(tiny_inr_zoo, tmp_path, change):
    cfg, ckpt = _saved_runner(tiny_inr_zoo, tmp_path / "run", baseline="flat-mlp")
    blob = ckpt / "baseline.npz"
    with np.load(blob) as saved:
        tensors = {name: saved[name] for name in saved.files}
    name = sorted(tensors)[0]
    if change == "missing":
        del tensors[name]
    elif change == "unexpected":
        name = "no_such_parameter"
        tensors[name] = np.zeros(1)
    else:
        tensors[name] = tensors[name][..., None]
    np.savez(blob, **tensors)
    with pytest.raises(ValueError, match=re.escape(str(blob)) + rf".*{change}.*'{name}'"):
        Runner(cfg).load(ckpt)


def test_runner_load_restores_a_baseline_by_name(tiny_inr_zoo, tmp_path):
    cfg, ckpt = _saved_runner(tiny_inr_zoo, tmp_path / "run", baseline="flat-mlp", seed=1)
    saved = {name: p.data.copy() for name, p in Runner(cfg).model.named_parameters()}
    other = Runner(ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                                    out_dir=str(tmp_path / "other"), baseline="flat-mlp",
                                    seed=2))
    other.load(ckpt)
    for name, p in other.model.named_parameters():
        assert np.array_equal(p.data, saved[name]), name


def test_zero_epochs_checkpoint_is_initialization(tiny_inr_zoo, tmp_path):
    cfg = ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"), model=dict(TINY_MODEL),
                           epochs=0, seed=1)
    runner = Runner(cfg)
    before = [p.data.copy() for p in runner.params]
    runner.train()
    runner.load(tmp_path / "run" / "checkpoint")
    for p, b in zip(runner.params, before):
        assert np.array_equal(p.data, b)  # float64 storage


def test_initial_classify_loss_near_ln2(tiny_inr_zoo, tmp_path):
    cfg = ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"), model=dict(TINY_MODEL),
                           epochs=0, seed=2)
    runner = Runner(cfg)
    runner.train()
    with open(tmp_path / "run" / "metrics.csv") as fh:
        rows = list(csv.DictReader(fh))
    loss_rows = [r for r in rows if r["metric"] == "loss" and r["split"] == "train"]
    assert abs(float(loss_rows[0]["value"]) - math.log(2)) < 0.25


def test_metrics_csv_shape_and_determinism(tiny_inr_zoo, tmp_path):
    def run(out):
        cfg = ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                               out_dir=str(out), model=dict(TINY_MODEL),
                               epochs=2, batch_size=4, seed=3)
        Runner(cfg).train()
        return (out / "metrics.csv").read_text()

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    assert a == b  # bitwise-identical CSV under a fixed seed
    lines = a.strip().splitlines()
    assert lines[0] == "epoch,split,metric,value"
    # (epochs + 1 incl. initialization) x 2 splits x 2 metrics
    assert len(lines) - 1 == (2 + 1) * 4


def test_metrics_reach_disk_every_epoch(tiny_inr_zoo, tmp_path, monkeypatch):
    """A run that dies in epoch 2 leaves the header and the rows of epochs 0 and 1."""
    cfg = ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"), model=dict(TINY_MODEL),
                           epochs=3, batch_size=4, seed=3)
    runner = Runner(cfg)
    evaluate, calls = runner.evaluate, []

    def dies_in_epoch_2(split):
        calls.append(split)
        if len(calls) > 4:  # two splits per epoch: the fifth call is epoch 2's
            raise RuntimeError("crash")
        return evaluate(split)

    monkeypatch.setattr(runner, "evaluate", dies_in_epoch_2)
    with pytest.raises(RuntimeError, match="crash"):
        runner.train()
    lines = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,split,metric,value"
    assert [line.split(",")[0] for line in lines[1:]] == ["0"] * 4 + ["1"] * 4


def test_train_improves_and_eval_report(tiny_inr_zoo, tmp_path):
    cfg = ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"), model=dict(TINY_MODEL),
                           epochs=6, batch_size=4, seed=4, lr=3e-3)
    runner = Runner(cfg)
    summary = runner.train()
    assert summary["epochs_run"] == 6
    assert not summary["diverged"]
    # the numeric environment the results depend on, and the training time
    written = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert written["numpy"] == np.__version__
    assert written["blas"] and written["SCALEGMN_THREADS"] == runner.width
    assert "OPENBLAS_NUM_THREADS" in written
    assert 0 < written["train_wall_s"] < 600
    report = runner.eval_report("test", with_orbit_copy=True, orbit_seed=9)
    assert set(report) >= {"split", "n", "accuracy", "loss", "orbit_accuracy"}
    # invariance: orbit copy scores identically
    assert abs(report["orbit_accuracy"] - report["accuracy"]) < 1e-12


def test_baseline_orbit_copy_can_differ(tiny_inr_zoo, tmp_path):
    cfg = ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"), baseline="flat-mlp",
                           epochs=10, batch_size=4, seed=5, lr=1e-3)
    runner = Runner(cfg)
    runner.train()
    report = runner.eval_report("train", with_orbit_copy=True, orbit_seed=9)
    assert "orbit_accuracy" in report
    # the flat baseline is not invariant by construction; on the train split a
    # fitted model scores high while the orbit copy is near chance
    assert report["accuracy"] >= report["orbit_accuracy"]


def test_cnn_generalization_task(tiny_cnn_zoo, tmp_path):
    cfg = ExperimentConfig(task="cnn-generalization", zoo=str(tiny_cnn_zoo),
                           out_dir=str(tmp_path / "run"),
                           model=dict(TINY_MODEL, group_kind="positive"),
                           epochs=2, batch_size=4, seed=6)
    runner = Runner(cfg)
    summary = runner.train()
    assert "best_val_kendall_tau" in summary
    with open(tmp_path / "run" / "metrics.csv") as fh:
        val = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)
               if r["split"] == "val" and int(r["epoch"]) == summary["best_epoch"]}
    assert summary["best_val_kendall_tau"] == val["kendall_tau"]
    assert summary["best_val_loss"] == val["loss"]
    report = runner.eval_report("val", with_orbit_copy=True)
    assert "kendall_tau" in report and "orbit_kendall_tau" in report


@pytest.mark.parametrize("task,zoo,model", [
    ("inr-classify", "tiny_inr_zoo", {}),
    ("cnn-generalization", "tiny_cnn_zoo", {"group_kind": "positive"}),
    ("inr-edit", "tiny_inr_zoo", {}),
])
def test_a_reloaded_checkpoint_scores_what_selection_recorded(request, tmp_path, task, zoo,
                                                              model):
    """The checkpoint holds the selected epoch's parameters exactly, so a
    fresh Runner that loads it scores the validation split bit for bit as
    summary.json recorded."""
    cfg = dict(task=task, zoo=str(request.getfixturevalue(zoo)), out_dir=str(tmp_path / "run"),
               model=dict(TINY_MODEL, **model), epochs=2, batch_size=4, seed=8)
    summary = Runner(ExperimentConfig(**cfg)).train()
    reloaded = Runner(ExperimentConfig(**dict(cfg, epochs=0)))
    reloaded.load(tmp_path / "run" / "checkpoint")
    stats = reloaded.evaluate("val")
    metric = reloaded.metric_name()
    assert stats[metric] == summary["best_val_" + metric]
    assert stats.get("loss", stats[metric]) == summary["best_val_loss"]


@pytest.mark.parametrize("task,make_zoo,model,val_size", [
    # 70/15/15 of 6 nets: one validation net, too few for Kendall tau to rank
    ("cnn-generalization", lambda p: gen_cnn_zoo(p, 6, 0), {"group_kind": "positive"}, 1),
    # 70/15/15 of 3 nets: no validation net
    ("inr-classify", lambda p: gen_inr_zoo(p, 3, 0, steps=20), {}, 0),
])
def test_train_rejects_a_val_split_too_small_to_score(tmp_path, task, make_zoo, model, val_size):
    zoo, out_dir = tmp_path / "zoo", tmp_path / "run"
    make_zoo(zoo)
    runner = Runner(ExperimentConfig(task=task, zoo=str(zoo), out_dir=str(out_dir),
                                     model=dict(TINY_MODEL, **model), epochs=1))
    with pytest.raises(ValueError,
                       match=re.escape(f"zoo {zoo}: the val split holds {val_size} net")):
        runner.train()
    assert not out_dir.exists()


def test_eval_report_rejects_a_split_too_small_to_score(tmp_path):
    zoo = tmp_path / "zoo"
    gen_cnn_zoo(zoo, 6, 0)  # 70/15/15 of 6 nets: one test net
    runner = Runner(ExperimentConfig(task="cnn-generalization", zoo=str(zoo),
                                     out_dir=str(tmp_path / "run"),
                                     model=dict(TINY_MODEL, group_kind="positive")))
    with pytest.raises(ValueError, match=re.escape(
            f"zoo {zoo}: the test split holds 1 net(s); cnn-generalization needs at least 2")):
        runner.eval_report("test")


def test_evaluate_rejects_a_split_too_small_to_score(tmp_path):
    zoo = tmp_path / "zoo"
    gen_cnn_zoo(zoo, 6, 0)  # 70/15/15 of 6 nets: one validation net
    runner = Runner(ExperimentConfig(task="cnn-generalization", zoo=str(zoo),
                                     out_dir=str(tmp_path / "run"),
                                     model=dict(TINY_MODEL, group_kind="positive")))
    with pytest.raises(ValueError, match=re.escape(
            f"zoo {zoo}: the val split holds 1 net(s); cnn-generalization needs at least 2")):
        runner.evaluate("val")
    assert set(runner.evaluate("train")) == {"kendall_tau", "loss"}


def test_task_data_rejects_a_zoo_of_two_architectures(tmp_path):
    rng = np.random.default_rng(3)
    nets = [random_net(rng, dims, activations.tanh_act()) for dims in ((2, 4, 1), (2, 3, 1))]
    entries = [ZooEntry(f"n{i}", "ffnn", n.dims, ["tanh", "identity"], 0.0, 0, f"n{i}.bin")
               for i, n in enumerate(nets)]
    save_zoo(tmp_path / "zoo", entries, nets)
    with pytest.raises(ShapeError, match=re.escape(f"zoo at {tmp_path / 'zoo'}: net 1 ")):
        TaskData(tmp_path / "zoo", 0, "forward")


def test_stat_baseline_trains_on_cnn_zoo(tiny_cnn_zoo, tmp_path):
    """Weight statistics read a CNN's kernel/bias pairs, then its head."""
    cfg = ExperimentConfig(task="cnn-generalization", zoo=str(tiny_cnn_zoo),
                           out_dir=str(tmp_path / "run"), baseline="stat-mlp",
                           epochs=1, batch_size=4, seed=12)
    runner = Runner(cfg)
    assert runner.model.d_in == 7 * 2 * len(runner.data.nets[0].weights)
    summary = runner.train()
    assert summary["epochs_run"] == 1 and not summary["diverged"]
    assert math.isfinite(summary["best_val_kendall_tau"])
    assert math.isfinite(summary["best_val_loss"])


SWEEP_ZOO = {"inr-classify": "tiny_inr_zoo", "cnn-generalization": "tiny_cnn_zoo",
             "inr-edit": "tiny_inr_zoo"}


@pytest.mark.parametrize("baseline", ["none", "flat-mlp", "stat-mlp"])
@pytest.mark.parametrize("direction", ["forward", "bidirectional"])
@pytest.mark.parametrize("task", sorted(SWEEP_ZOO))
def test_advertised_combination_trains_or_fails_at_config(task, direction, baseline,
                                                          request, tmp_path):
    """Every task x direction x baseline either runs an epoch with finite
    metrics or is refused when the config is built."""
    kwargs = dict(task=task, zoo=str(request.getfixturevalue(SWEEP_ZOO[task])),
                  out_dir=str(tmp_path / "run"), baseline=baseline,
                  model=dict(TINY_MODEL, direction=direction),
                  epochs=1, batch_size=4, seed=13)
    if task == "inr-edit" and baseline != "none":
        with pytest.raises(ValueError, match="baselines do not implement the editing head"):
            ExperimentConfig(**kwargs)
        return
    summary = Runner(ExperimentConfig(**kwargs)).train()
    assert summary["epochs_run"] == 1 and not summary["diverged"]
    with open(tmp_path / "run" / "metrics.csv") as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert values and all(math.isfinite(v) for v in values)


def test_sign_augmentation_trains_and_bad_values_fail_before_training(tiny_inr_zoo, tmp_path):
    kwargs = dict(task="inr-classify", zoo=str(tiny_inr_zoo), model=dict(TINY_MODEL),
                  epochs=1, batch_size=4, seed=14)
    summary = Runner(ExperimentConfig(out_dir=str(tmp_path / "sign"), augmentation="sign",
                                      **kwargs)).train()
    assert summary["epochs_run"] == 1 and not summary["diverged"]
    with open(tmp_path / "sign" / "metrics.csv") as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert values and all(math.isfinite(v) for v in values)

    with pytest.raises(ValueError, match="augmentation must be one of"):
        ExperimentConfig(out_dir=str(tmp_path / "typo"), augmentation="signs", **kwargs)
    cfg = ExperimentConfig(out_dir=str(tmp_path / "positive"), augmentation="positive",
                           **kwargs)
    with pytest.raises(ValueError, match="'positive'.*group kind 'sign'"):
        Runner(cfg)
    assert not (tmp_path / "positive").exists()


@pytest.mark.parametrize("augmentation", ["sign", "positive"])
def test_inr_edit_rejects_augmentation(tmp_path, augmentation):
    """The edit loss reads no augmentation, so the pair would train as "none"."""
    with pytest.raises(ValueError, match=rf"'inr-edit'.*'{augmentation}'"):
        ExperimentConfig(task="inr-edit", zoo=str(tmp_path), augmentation=augmentation)
    assert ExperimentConfig(task="inr-edit", zoo=str(tmp_path)).augmentation == "none"


def test_one_conv_layer_relu_zoo_is_positive(tmp_path):
    """The group kind comes from the graph, which counts the last conv layer."""
    rng = np.random.default_rng(3)
    nets = [make_cnn(rng, channels=(1, 3), n_out=2) for _ in range(4)]
    entries = [ZooEntry(f"cnn-{i}", "cnn", net.channels + [2], ["relu"], 0.0, 0.5,
                        f"cnn-{i}.bin", {"kernel_hw": [3, 3]})
               for i, net in enumerate(nets)]
    save_zoo(tmp_path / "zoo", entries, nets)
    data = TaskData(tmp_path / "zoo", seed=0, direction="forward")
    assert data.group_kind == "positive"


def selected_epoch(task, history):
    """The epoch Runner.train keeps: the earliest with the smallest key."""
    return min(range(len(history)), key=lambda e: selection_key(task, history[e]))


def test_selection_breaks_metric_ties_on_val_loss():
    tau = [{"kendall_tau": 0.30, "loss": 0.0500},
           {"kendall_tau": 0.419, "loss": 0.0274},
           {"kendall_tau": 0.419, "loss": 0.0267},   # tie, lower loss: replaces
           {"kendall_tau": 0.40, "loss": 0.0010},    # worse metric: does not
           {"kendall_tau": 0.419, "loss": 0.0267}]   # full tie: earlier stays
    assert selected_epoch("cnn-generalization", tau) == 2
    acc = [{"accuracy": 1.0, "loss": 0.05},
           {"accuracy": 1.0, "loss": 0.06},           # tie, higher loss: does not
           {"accuracy": 29 / 30, "loss": 0.01}]
    assert selected_epoch("inr-classify", acc) == 0


def test_selection_edit_keeps_lower_functional_mse():
    fmse = [{"functional_mse": 0.30}, {"functional_mse": 0.10},
            {"functional_mse": 0.20}, {"functional_mse": 0.10}]
    assert selected_epoch("inr-edit", fmse) == 1


def test_edit_task_runs_and_loss_finite(tiny_inr_zoo, tmp_path):
    cfg = ExperimentConfig(task="inr-edit", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"),
                           model=dict(TINY_MODEL, head="equivariant-edit"),
                           epochs=2, batch_size=4, seed=7, lr=1e-3)
    runner = Runner(cfg)
    summary = runner.train()
    assert summary["best_val_functional_mse"] is not None
    assert math.isfinite(summary["best_val_functional_mse"])


def test_edit_task_training_reduces_loss(tiny_inr_zoo, tmp_path):
    cfg = ExperimentConfig(task="inr-edit", zoo=str(tiny_inr_zoo),
                           out_dir=str(tmp_path / "run"),
                           model=dict(TINY_MODEL, head="equivariant-edit",
                                      gamma_init=0.01),
                           epochs=8, batch_size=4, seed=8, lr=3e-3)
    runner = Runner(cfg)
    runner.train()
    with open(tmp_path / "run" / "metrics.csv") as fh:
        rows = [r for r in csv.DictReader(fh)
                if r["split"] == "train" and r["metric"] == "functional_mse"]
    first, last = float(rows[0]["value"]), float(rows[-1]["value"])
    assert last < first


@pytest.mark.parametrize("where,field", [("meta", "seed"), ("meta", "image_side"),
                                         ("entry", "source_index")])
def test_edit_targets_need_the_zoo_fields_that_rebuild_them(tiny_inr_zoo, tmp_path,
                                                            where, field):
    """Without a fallback, a zoo missing one cannot train against other targets."""
    zoo = tmp_path / "zoo"
    shutil.copytree(tiny_inr_zoo, zoo)
    manifest = json.loads((zoo / "manifest.json").read_text())
    del (manifest["meta"] if where == "meta" else manifest["entries"][2])[field]
    (zoo / "manifest.json").write_text(json.dumps(manifest))
    name = "meta" if where == "meta" else f"entry {manifest['entries'][2]['id']!r}"
    with pytest.raises(ValueError, match=re.escape(
            f"{zoo / 'manifest.json'}: {name} lacks the field {field!r}")):
        _edit_runner(zoo, tmp_path)


def _edit_runner(zoo, tmp_path, **model):
    cfg = ExperimentConfig(task="inr-edit", zoo=str(zoo), out_dir=str(tmp_path / "run"),
                           model=dict(TINY_MODEL, **model), seed=3)
    return Runner(cfg)


def test_edit_loss_tape_size_does_not_grow_with_the_batch(tiny_inr_zoo, tmp_path):
    runner = _edit_runner(tiny_inr_zoo, tmp_path)
    sizes = [tape_size(runner._batch_loss(np.arange(batch))) for batch in (2, 8)]
    assert sizes[0] == sizes[1], sizes


def test_batched_edit_loss_matches_per_net_reference(tiny_inr_zoo, tmp_path):
    """The stacked edit loss is the mean over nets of each edited net's own
    MSE, evaluated one net at a time by the numpy forward."""
    runner = _edit_runner(tiny_inr_zoo, tmp_path)
    idx = np.array([4, 0, 7])
    nets, graphs = runner.data.items(idx)
    edited = runner.model.edit_params(graphs, nets)
    per_net = [np.mean((ffnn_forward(e, runner.grid) - runner.targets[i]) ** 2)
               for e, i in zip(edited, idx)]
    assert float(runner._batch_loss(idx).data) == pytest.approx(np.mean(per_net), rel=1e-12)


def test_edit_loss_gradient_matches_finite_differences(tiny_inr_zoo, tmp_path):
    """Central differences over the edit head's own parameters, rel err < 1e-4."""
    runner = _edit_runner(tiny_inr_zoo, tmp_path, d_v=4, d_e=4, d_msg=4, d_inv=3,
                          pe_dim=2, mlp_hidden=4, gamma_init=0.1)
    named = [(name, p) for name, p in runner.model.named_parameters()
             if name == "gamma" or name.startswith(("edit_v.", "edit_e."))]
    assert {name.split(".")[0] for name, _ in named} == {"gamma", "edit_v", "edit_e"}
    idx = np.array([0, 3, 5])
    params = [p for _, p in named]
    err = finite_diff_check(lambda ps: runner._batch_loss(idx), params, step=1e-6)
    assert err < 1e-4, f"max relative error {err}"


# -- shard-parallel batches (SCALEGMN_THREADS > 1) --------------------------------------------

@pytest.fixture(scope="module")
def inr_zoo_24(tmp_path_factory):
    """24 INRs (180 forward edges each), so a 16-net batch splits into two
    shards of 8 nets (1,440 rows) at width 2; the train split holds 17."""
    path = tmp_path_factory.mktemp("zoos") / "inr24"
    gen_inr_zoo(path, count=24, seed=103, steps=20)
    return path


def _runner_at(width, monkeypatch, zoo, tmp_path, **kwargs):
    monkeypatch.setenv("SCALEGMN_THREADS", str(width))
    cfg = dict(task="inr-classify", zoo=str(zoo), out_dir=str(tmp_path / f"w{width}"),
               model=dict(TINY_MODEL), epochs=2, batch_size=16, seed=21)
    cfg.update(kwargs)
    return Runner(ExperimentConfig(**cfg))


@pytest.mark.parametrize("task", ["inr-classify", "inr-edit"])
def test_width_2_steps_match_width_1(inr_zoo_24, tmp_path, monkeypatch, task):
    """Three Adam steps of the same batches: losses agree to roundoff. A
    17-net batch splits 9 + 8, so the shard weights must follow the sizes."""
    losses = {}
    for width in (1, 2):
        runner = _runner_at(width, monkeypatch, inr_zoo_24, tmp_path, task=task)
        assert len(runner._shards(17)) == width
        batches = np.random.default_rng(0).choice(runner.data.splits["train"], (3, 17))
        losses[width] = []
        for batch in batches:
            loss = runner._batch_loss(batch)
            runner.opt.step(gradients(loss, runner.params))
            losses[width].append(float(loss.data))
    np.testing.assert_allclose(losses[2], losses[1], rtol=1e-10, atol=0)


def test_width_2_evaluate_matches_width_1(inr_zoo_24, tmp_path, monkeypatch):
    preds, stats = {}, {}
    for width in (1, 2):
        runner = _runner_at(width, monkeypatch, inr_zoo_24, tmp_path)
        idx = runner.data.splits["train"]
        assert len(runner._shards(len(idx))) == width
        preds[width] = runner._predictions(*runner.data.items(idx))
        stats[width] = runner.evaluate("train")
    np.testing.assert_allclose(preds[2], preds[1], rtol=1e-12, atol=0)
    assert stats[2]["accuracy"] == stats[1]["accuracy"]
    assert stats[2]["loss"] == pytest.approx(stats[1]["loss"], rel=1e-12)


def test_width_2_train_writes_identical_metrics(inr_zoo_24, tmp_path, monkeypatch):
    texts = []
    for run in ("a", "b"):
        runner = _runner_at(2, monkeypatch, inr_zoo_24, tmp_path / run)
        summary = runner.train()
        assert not summary["diverged"] and summary["SCALEGMN_THREADS"] == 2
        assert runner._pool is not None
        texts.append((tmp_path / run / "w2" / "metrics.csv").read_text())
    assert texts[0] == texts[1]


def test_a_batch_below_the_row_minimum_is_one_shard(inr_zoo_24, tiny_cnn_zoo, tmp_path,
                                                    monkeypatch):
    runner = _runner_at(2, monkeypatch, inr_zoo_24, tmp_path)
    n_e = runner.data.template.n_e
    small = 2 * -(-MIN_SHARD_ROWS // n_e) - 1   # the largest batch whose halves fall short
    assert small // 2 * n_e < MIN_SHARD_ROWS <= (small + 1) // 2 * n_e
    assert runner._shards(small) == [slice(0, small)]
    assert len(runner._shards(small + 1)) == 2
    runner._batch_loss(runner.data.splits["train"][:small])
    assert runner._pool is None   # one shard runs on the calling thread
    cnn = _runner_at(2, monkeypatch, tiny_cnn_zoo, tmp_path, task="cnn-generalization",
                     model=dict(TINY_MODEL, group_kind="positive"))
    assert cnn._shards(16) == [slice(0, 16)]   # 16 x 28 rows stay one shard


def test_a_sharded_step_is_one_gradients_call_over_every_shard_tape(
        inr_zoo_24, tmp_path, monkeypatch):
    """A wrapper of `tensor.gradients` (a profiler's, say) sees one call per
    step, and a walk of the step's tape reaches both shards' nodes."""
    batch = np.arange(16)
    sizes = {}
    for width in (1, 2):
        runner = _runner_at(width, monkeypatch, inr_zoo_24, tmp_path)
        loss = runner._batch_loss(runner.data.splits["train"][batch])
        sizes[width] = tape_size(loss)
    calls = []
    sweep = tensor_module.gradients

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(tensor_module, "gradients", counting)
    tensor_module.gradients(loss, runner.params)
    assert len(calls) == 1 and runner._pool is not None
    assert sizes[2] > sizes[1]   # two shard tapes, not only the join node and its parameters


def test_numerics_error_in_a_shard_reaches_the_caller(inr_zoo_24, tmp_path, monkeypatch):
    """A shard's NumericsError surfaces from the step, and train reports divergence."""
    def fails_off_the_main_thread(logits, labels):
        if threading.current_thread() is not threading.main_thread():
            raise NumericsError("shard loss")
        return cross_entropy(logits, labels)

    runner = _runner_at(2, monkeypatch, inr_zoo_24, tmp_path)
    runner.task = dataclasses.replace(runner.task, loss=fails_off_the_main_thread)
    with pytest.raises(NumericsError, match="shard loss"):
        runner._batch_loss(runner.data.splits["train"][:16])
    summary = runner.train()
    assert summary["diverged"] and summary["epochs_run"] == 1


def test_evaluate_records_no_tape_on_the_pool_and_leaves_its_threads_recording(
        inr_zoo_24, tmp_path, monkeypatch):
    """Evaluation shards run without a tape on the pool threads; afterwards
    every pool thread records again, so the next step's gradients are those
    of a Runner that never evaluated (and close to width 1's)."""
    batch = np.arange(16)
    grads = {}
    for width, evaluate_first in ((1, False), (2, False), (2, True)):
        runner = _runner_at(width, monkeypatch, inr_zoo_24, tmp_path)
        if evaluate_first:
            seen = []
            predict = runner._predict

            def logging(nets, graphs):
                seen.append((threading.current_thread().name, tensor_module.recording()))
                return predict(nets, graphs)

            monkeypatch.setattr(runner, "_predict", logging)
            runner.evaluate("train")
            assert len(seen) == 2 and all(name.startswith("scalegmn-shard") and not rec
                                          for name, rec in seen)
            # one call per pool thread: the barrier holds each until both run
            barrier = threading.Barrier(width)

            def mode(_):
                barrier.wait(timeout=10)
                return threading.current_thread().name, tensor_module.recording()

            modes = runner._run(mode, [0, 1])
            assert len({name for name, _ in modes}) == 2 and all(rec for _, rec in modes)
        loss = runner._batch_loss(runner.data.splits["train"][batch])
        grads[width, evaluate_first] = gradients(loss, runner.params)
    for after, fresh, one in zip(grads[2, True], grads[2, False], grads[1, False]):
        assert np.array_equal(after, fresh)
        np.testing.assert_allclose(after, one, rtol=1e-9, atol=1e-13)
    assert any(np.any(g) for g in grads[2, True])


def test_augmentation_draws_the_same_orbit_elements_at_widths_1_and_2(
        inr_zoo_24, tmp_path, monkeypatch):
    drawn = {}
    for width in (1, 2):
        runner = _runner_at(width, monkeypatch, inr_zoo_24, tmp_path, augmentation="sign",
                            epochs=1)
        log = drawn[width] = []

        def recording(*args, **kwargs):
            log.append(sample_orbit(*args, **kwargs))
            return log[-1]

        monkeypatch.setattr(train_module, "sample_orbit", recording)
        runner.train()
        assert (runner._pool is not None) == (width == 2)
    assert drawn[1] and len(drawn[1]) == len(drawn[2])
    for a, b in zip(drawn[1], drawn[2]):
        assert all(np.array_equal(x, y) for x, y in zip(a.scales, b.scales))
        assert all(np.array_equal(x, y) for x, y in zip(a.perms, b.perms))
