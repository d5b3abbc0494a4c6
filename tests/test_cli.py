"""CLI commands: determinism, formats, exit codes."""

import importlib
import importlib.metadata
import json
import re
import shutil
from pathlib import Path

import pytest

from scalegmn.cli import (
    CANONICALIZE, CERTIFY, COMBO, EVAL, GEN_ZOO, SIMULATE, certify_model_combo, main,
)
from scalegmn.config import table
from scalegmn.model import ScaleGMNConfig
from scalegmn.train import ExperimentConfig, Runner, split_indices

from test_train import TINY_MODEL, save_two_group_zoo


def run_cli(*argv) -> int:
    return main(list(argv))


def write_config(tmp_path, name, data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_gen_zoo_and_determinism(tmp_path):
    cfg = write_config(tmp_path, "zoo.json", {"kind": "inr-2class", "count": 3, "steps": 40})
    assert run_cli("gen-zoo", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "a")) == 0
    assert run_cli("gen-zoo", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "b")) == 0
    ma = (tmp_path / "a" / "manifest.json").read_bytes()
    mb = (tmp_path / "b" / "manifest.json").read_bytes()
    assert ma == mb


def test_gen_zoo_unknown_kind(tmp_path):
    cfg = write_config(tmp_path, "zoo.json", {"kind": "bogus"})
    with pytest.raises(ValueError, match="^" + re.escape(
            "gen-zoo: kind must be one of ('inr-2class', 'cnn-accuracy'), got 'bogus'")):
        run_cli("gen-zoo", "--config", cfg, "--out", str(tmp_path / "z"))
    assert not (tmp_path / "z").exists()


def test_a_truncated_config_file_is_named(tmp_path):
    """It used to raise a bare JSONDecodeError that named no file."""
    path = tmp_path / "zoo.json"
    path.write_text('{"kind": "in', encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: not a JSON file")):
        run_cli("gen-zoo", "--config", str(path), "--out", str(tmp_path / "z"))
    assert not (tmp_path / "z").exists()


def test_gen_zoo_without_a_seed_uses_seed_zero(tmp_path):
    """It used to die on np.random.default_rng([None, i]) after making --out."""
    cfg = write_config(tmp_path, "zoo.json", {"kind": "cnn-accuracy", "count": 2})
    assert run_cli("gen-zoo", "--config", cfg, "--out", str(tmp_path / "a")) == 0
    assert run_cli("gen-zoo", "--config", cfg, "--seed", "0", "--out", str(tmp_path / "b")) == 0
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


def test_train_eval_cycle(tiny_inr_zoo, tmp_path):
    cfg = write_config(
        tmp_path, "train.json",
        {
            "task": "inr-classify",
            "zoo": str(tiny_inr_zoo),
            "model": {"d_v": 8, "d_e": 8, "d_msg": 8, "d_inv": 6, "d_readout": 8,
                       "pe_dim": 4, "mlp_hidden": 10, "n_rounds": 1},
            "epochs": 2,
            "batch_size": 4,
        },
    )
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--seed", "5", "--out", str(out)) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint" / "checkpoint.json").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,split,metric,value"

    eval_cfg = write_config(
        tmp_path, "eval.json",
        {
            "zoo": str(tiny_inr_zoo),
            "checkpoint": str(out / "checkpoint"),
            "split": "test",
            "with_orbit_augmented_copy": True,
        },
    )
    assert run_cli("eval", "--config", eval_cfg, "--seed", "9", "--out", str(tmp_path / "ev")) == 0
    report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    assert "accuracy" in report and "orbit_accuracy" in report
    assert abs(report["orbit_accuracy"] - report["accuracy"]) < 1e-12


def test_eval_orbit_copy_of_a_baseline_on_a_zoo_spanning_two_groups(tmp_path):
    """The orbit copy draws each hidden layer from its own group."""
    zoo = str(save_two_group_zoo(tmp_path / "zoo"))
    cfg = write_config(tmp_path, "train.json", {"task": "inr-classify", "zoo": zoo,
                                                "baseline": "flat-mlp", "epochs": 1,
                                                "batch_size": 4})
    out = tmp_path / "run"
    assert run_cli("train", "--config", cfg, "--seed", "5", "--out", str(out)) == 0
    eval_cfg = write_config(tmp_path, "eval.json", {
        "zoo": zoo, "checkpoint": str(out / "checkpoint"), "with_orbit_augmented_copy": True})
    assert run_cli("eval", "--config", eval_cfg, "--seed", "9", "--out", str(tmp_path / "ev")) == 0
    report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    assert 0.0 <= report["orbit_accuracy"] <= 1.0


def test_certify_default_exits_zero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"trials": 4, "nets": 2})
    assert run_cli("certify", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "c")) == 0
    reports = json.loads((tmp_path / "c" / "certify_report.json").read_text())
    assert all(r["passed"] for r in reports)
    assert {r["metric"] for r in reports} == {"relative", "absolute"}


@pytest.mark.parametrize("counts", [{"trials": 0}, {"nets": 0}])
def test_certify_without_trials_exits_nonzero(tmp_path, capsys, counts):
    """No certificate rests on zero trials: the count is rejected before any combo runs."""
    cfg = write_config(tmp_path, "c.json", dict({"trials": 2, "nets": 1}, **counts))
    (key, value), = counts.items()
    with pytest.raises(ValueError, match="^" + re.escape(
            f"certify: {key} must be >= 1, got {value}")):
        run_cli("certify", "--config", cfg, "--out", str(tmp_path / "c"))
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "c").exists()


def test_certify_reports_seconds_per_combination(tmp_path, capsys):
    combos = [{"activation": "relu", "direction": "forward"}]
    cfg = write_config(tmp_path, "c.json", {"trials": 3, "nets": 1, "combos": combos})
    assert run_cli("certify", "--config", cfg, "--out", str(tmp_path / "c")) == 0
    reports = json.loads((tmp_path / "c" / "certify_report.json").read_text())
    assert len(reports) == 2 and all(r["seconds"] > 0.0 for r in reports)
    lines = capsys.readouterr().out.splitlines()
    for line, report in zip(lines, reports):
        assert re.fullmatch(rf"certify {re.escape(report['name'])}: pass \(max deviation "
                            r"\S+, 3 trials, \d+\.\d\d s\)", line), line


def test_canonicalize_idempotent(tiny_inr_zoo, tmp_path):
    cfg = write_config(tmp_path, "canon.json", {"zoo": str(tiny_inr_zoo), "grid_side": 16})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run_cli("canonicalize", "--config", cfg, "--out", str(out1)) == 0
    cfg2 = write_config(tmp_path, "canon2.json", {"zoo": str(out1), "grid_side": 16})
    assert run_cli("canonicalize", "--config", cfg2, "--out", str(out2)) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["meta"]["nets_checked"] == len(manifest["entries"]) == 10
    for row in manifest["entries"]:
        a = (out1 / row["weights_path"]).read_bytes()
        b = (out2 / row["weights_path"]).read_bytes()
        assert a == b  # canonicalizing twice equals once


def test_canonicalize_fails_when_no_net_is_checked(tiny_cnn_zoo, tmp_path, capsys):
    """The grid evaluates FFNNs with two inputs only, so a CNN zoo has no net
    to check: the run fails rather than certify nothing."""
    cfg = write_config(tmp_path, "canon.json", {"zoo": str(tiny_cnn_zoo)})
    out = tmp_path / "canon"
    assert run_cli("canonicalize", "--config", cfg, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "14 entries, 0 nets checked" in captured.out
    assert "no net was checked" in captured.err
    assert json.loads((out / "manifest.json").read_text())["meta"]["nets_checked"] == 0


def test_simulate_reports_deviation(tmp_path):
    cfg = write_config(tmp_path, "sim.json", {"count": 3, "dims": [2, 5, 4, 1]})
    assert run_cli("simulate", "--config", cfg, "--seed", "4", "--out", str(tmp_path / "s")) == 0
    report = json.loads((tmp_path / "s" / "simulate_report.json").read_text())
    assert report["max_forward_deviation"] < 1e-6
    assert report["max_backward_rel_deviation"] < 1e-6
    assert report["passed"]


@pytest.mark.parametrize("activation", ["relu", "gelu"])
def test_simulate_rejects_an_activation_the_relay_cannot_invert(tmp_path, activation):
    """ReLU's derivative is zero on dead units, and the relay divides by it."""
    cfg = write_config(tmp_path, "sim.json", {"count": 10, "activation": activation})
    out = tmp_path / "s"
    with pytest.raises(ValueError, match=re.escape(
            f"simulate: activation must be one of ('sine', 'tanh', 'identity'), "
            f"got '{activation}'")):
        run_cli("simulate", "--config", cfg, "--seed", "3", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("command,config,bad", [
    ("gen-zoo", {"kind": "cnn-accuracy", "cout": 3}, "cout"),
    ("eval", {"zoo": "z", "checkpoint": "c", "splt": "val"}, "splt"),
    ("certify", {"trails": 4, "nets": 2}, "trails"),
    ("canonicalize", {"zoo": "z", "grid_sides": 16}, "grid_sides"),
    ("simulate", {"count": 3, "activaton": "tanh"}, "activaton"),
    ("train", {"task": "inr-classify", "zoo": "z", "augmentation_lam": 1.0}, "augmentation_lam"),
])
def test_unknown_config_key_is_rejected_before_any_work(tmp_path, command, config, bad):
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"^{command}: unknown config key\(s\) \['{bad}'\]"):
        run_cli(command, "--config", cfg, "--out", str(out))
    assert not out.exists()


EVAL_CONFIG = {"zoo": "no-such-zoo", "checkpoint": "no-such-checkpoint"}


@pytest.mark.parametrize("command,config,message", [
    ("certify", {"trials": True}, "trials must be an int >= 1, got True"),
    ("certify", {"trials": 2.7}, "trials must be an int >= 1, got 2.7"),
    ("certify", {"tol": -1}, "tol must be > 0, got -1"),
    ("certify", {"dims": [2]}, "dims must be a list of at least 3 ints >= 1, got [2]"),
    ("certify", {"dims": [2, 0, 2]}, "dims must be a list of at least 3 ints >= 1, got [2, 0, 2]"),
    ("certify", {"combos": []}, "combos must be a list of at least 1 dicts, got []"),
    ("certify", [], "a config must be a dict, got []"),
    ("simulate", {"count": 0}, "count must be >= 1, got 0"),
    ("simulate", {"dims": [3]}, "dims must be a list of at least 2 ints >= 1, got [3]"),
    ("simulate", {"dims": [2, 0, 1]}, "dims must be a list of at least 2 ints >= 1, got [2, 0, 1]"),
    ("gen-zoo", {"count": 0}, "count must be >= 1, got 0"),
    ("gen-zoo", {"count": -3}, "count must be >= 1, got -3"),
    ("gen-zoo", {"kind": "cnn-accuracy", "steps": 10},
     "steps is read only by kind 'inr-2class'; got steps 10 with kind 'cnn-accuracy'"),
    ("canonicalize", {"zoo": "z", "orbit_canon": "false"},
     "orbit_canon must be a bool, got 'false'"),
    ("canonicalize", {"zoo": "z", "grid_side": 0}, "grid_side must be >= 1, got 0"),
    ("canonicalize", {"zoo": "z", "tol": "x"}, "tol must be a number > 0, got 'x'"),
    ("eval", dict(EVAL_CONFIG, with_orbit_augmented_copy="false"),
     "with_orbit_augmented_copy must be a bool, got 'false'"),
    ("eval", dict(EVAL_CONFIG, split="valid"),
     "split must be one of ('train', 'val', 'test'), got 'valid'"),
    ("eval", dict(EVAL_CONFIG, checkpoint=3), "checkpoint must be a path, got 3"),
    ("train", {"task": "inr-classify", "zoo": "z", "epochs": 1.5},
     "epochs must be an int >= 0, got 1.5"),
    ("train", {"task": "inr-classify", "zoo": "z", "model": {"d_v": 0}}, "d_v must be >= 1, got 0"),
    ("train", {"task": "inr-classify", "zoo": "z", "model": {"n_rounds": -1}},
     "n_rounds must be >= 0, got -1"),
    ("train", {"task": "inr-classify", "zoo": "z", "model": {"pe_dim": 2.5}},
     "pe_dim must be an int >= 1, got 2.5"),
    ("train", {"task": "inr-classify", "zoo": "z", "model": {"d_e": "8"}},
     "d_e must be an int >= 1, got '8'"),
    ("train", {"task": "inr-classify", "zoo": "z", "model": {"mlp_hidden": True}},
     "mlp_hidden must be an int >= 1, got True"),
])
def test_bad_config_value_is_rejected_before_any_work(tmp_path, monkeypatch, command, config,
                                                      message):
    """No zoo is read or fitted, no model built, no trial run, no --out made."""
    def work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("load_zoo", "gen_inr_zoo", "gen_cnn_zoo", "Runner", "certify_model_combo",
                 "simulate_ffnn"):
        monkeypatch.setattr(f"scalegmn.cli.{name}", work)
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^" + re.escape(f"{command}: {message}")):
        run_cli(command, "--config", cfg, "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("command,config,missing", [
    ("eval", {"zoo": "z"}, ["checkpoint"]),
    ("eval", {"split": "val"}, ["checkpoint", "zoo"]),
    ("canonicalize", {"orbit_canon": False}, ["zoo"]),
    ("train", {"zoo": "z", "epochs": 1}, ["task"]),
    ("train", {"task": "inr-classify"}, ["zoo"]),
])
def test_missing_required_config_key_is_named_before_any_work(tmp_path, command, config,
                                                              missing):
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(
            f"{command}: missing required config key(s) {missing}")):
        run_cli(command, "--config", cfg, "--out", str(out))
    assert not out.exists()


def _trained(tmp_path, zoo, *argv, **settings) -> Path:
    """The checkpoint of a `train` run of inr-classify on `zoo`."""
    run = tmp_path / "run"
    cfg = write_config(tmp_path, "train.json", {"task": "inr-classify", "zoo": str(zoo),
                                                "epochs": 0, **settings})
    assert run_cli("train", "--config", cfg, "--out", str(run), *argv) == 0
    return run / "checkpoint"


def _no_work(monkeypatch):
    """Make reading a zoo or building a Runner fail the test."""
    def work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("load_zoo", "Runner"):
        monkeypatch.setattr(f"scalegmn.cli.{name}", work)


def test_eval_names_a_checkpoint_whose_config_has_a_removed_key(tiny_inr_zoo, tmp_path):
    ckpt = _trained(tmp_path, tiny_inr_zoo, model=TINY_MODEL)
    manifest_path = ckpt / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["skip_connections"] = True
    manifest_path.write_text(json.dumps(manifest))
    eval_cfg = write_config(tmp_path, "eval.json", {"zoo": str(tiny_inr_zoo),
                                                    "checkpoint": str(ckpt)})
    out = tmp_path / "ev"
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest_path}: unknown model config key(s) ['skip_connections']")):
        run_cli("eval", "--config", eval_cfg, "--out", str(out))
    assert not out.exists()


def test_a_failed_eval_leaves_no_out_directory(tiny_inr_zoo, tmp_path):
    ckpt = _trained(tmp_path, tiny_inr_zoo, model=TINY_MODEL)
    cfg = write_config(tmp_path, "eval.json", {"zoo": str(tmp_path / "no-zoo"),
                                               "checkpoint": str(ckpt)})
    out = tmp_path / "ev"
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        run_cli("eval", "--config", cfg, "--out", str(out))
    assert not out.exists()


def test_eval_rejects_a_checkpoint_trained_for_another_task(tiny_inr_zoo, tmp_path):
    """An inr-classify model has two outputs; a run record naming
    cnn-generalization, which needs one, is rejected naming the file."""
    ckpt = _trained(tmp_path, tiny_inr_zoo, model=TINY_MODEL)
    manifest_path = ckpt / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["run"]["task"] = "cnn-generalization"
    manifest_path.write_text(json.dumps(manifest))
    eval_cfg = write_config(tmp_path, "eval.json", {"zoo": "no-such-zoo",
                                                    "checkpoint": str(ckpt)})
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest_path}: task 'cnn-generalization' needs model.out_dim = 1, got 2")):
        run_cli("eval", "--config", eval_cfg, "--out", str(tmp_path / "ev"))


def test_eval_rejects_a_baseline_for_a_scalegmn_checkpoint(tmp_path, monkeypatch):
    """It used to score the ScaleGMN checkpoint and exit 0, ignoring the
    baseline; the checkpoint names its model, so the key is unknown."""
    _no_work(monkeypatch)
    eval_cfg = write_config(tmp_path, "eval.json", dict(EVAL_CONFIG, baseline="flat-mlp"))
    out = tmp_path / "ev"
    with pytest.raises(ValueError, match="^" + re.escape(
            "eval: unknown config key(s) ['baseline']")):
        run_cli("eval", "--config", eval_cfg, "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("task", "inr-classify"), ("baseline", "none"),
                                       ("split_seed", 0)], ids=["task", "baseline", "split_seed"])
def test_eval_takes_its_run_from_the_checkpoint(tmp_path, monkeypatch, key, value):
    """The task, the model and the split seed are the training run's, so an
    eval config that sets one fails before any work."""
    _no_work(monkeypatch)
    eval_cfg = write_config(tmp_path, "eval.json", dict(EVAL_CONFIG, **{key: value}))
    out = tmp_path / "ev"
    with pytest.raises(ValueError, match="^" + re.escape(
            f"eval: unknown config key(s) ['{key}']; known keys: ['checkpoint', 'split', "
            "'with_orbit_augmented_copy', 'zoo']")):
        run_cli("eval", "--config", eval_cfg, "--out", str(out))
    assert not out.exists()


def test_eval_scores_the_test_split_of_the_training_seed(tiny_inr_zoo, tmp_path):
    """It used to score seed 0's test split, whose one item seed 3 trains on."""
    splits = {seed: split_indices(10, seed) for seed in (0, 3)}
    assert set(splits[0]["test"]) <= set(splits[3]["train"])
    ckpt = _trained(tmp_path, tiny_inr_zoo, "--seed", "3", model=TINY_MODEL, epochs=1,
                    batch_size=4)
    eval_cfg = write_config(tmp_path, "eval.json", {"zoo": str(tiny_inr_zoo),
                                                    "checkpoint": str(ckpt)})
    assert run_cli("eval", "--config", eval_cfg, "--out", str(tmp_path / "ev")) == 0
    runner = Runner(ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                                     out_dir=str(tmp_path / "other"), model=TINY_MODEL, seed=3))
    runner.load(ckpt)
    expected = runner.eval_report("test")
    assert expected["n"] == len(splits[3]["test"])
    assert (tmp_path / "ev" / "eval_report.json").read_text() == json.dumps(expected, indent=1)


def test_eval_of_a_baseline_checkpoint_needs_only_zoo_and_checkpoint(tiny_inr_zoo, tmp_path):
    """It used to build a ScaleGMN model and die on a missing checkpoint.json."""
    ckpt = _trained(tmp_path, tiny_inr_zoo, "--seed", "2", baseline="flat-mlp")
    assert (ckpt / "checkpoint.json").exists() and not (ckpt / "baseline.npz").exists()
    eval_cfg = write_config(tmp_path, "eval.json", {"zoo": str(tiny_inr_zoo),
                                                    "checkpoint": str(ckpt), "split": "val"})
    assert run_cli("eval", "--config", eval_cfg, "--out", str(tmp_path / "ev")) == 0
    runner = Runner(ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                                     out_dir=str(tmp_path / "other"), baseline="flat-mlp",
                                     seed=2))
    runner.load(ckpt)
    report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    assert report == runner.eval_report("val")


def test_eval_rejects_a_checkpoint_without_a_run_record(tiny_inr_zoo, tmp_path, monkeypatch):
    """A checkpoint written before runs were recorded names no split seed:
    `eval` takes no default for it, and `Runner.load` rejects it too."""
    ckpt = _trained(tmp_path, tiny_inr_zoo, model=TINY_MODEL)
    manifest_path = ckpt / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["run"]
    manifest_path.write_text(json.dumps(manifest))
    _no_work(monkeypatch)
    eval_cfg = write_config(tmp_path, "eval.json", {"zoo": str(tiny_inr_zoo),
                                                    "checkpoint": str(ckpt)})
    out = tmp_path / "ev"
    with pytest.raises(ValueError, match="^" + re.escape(
            f"eval: {manifest_path}: lacks the field 'run'")):
        run_cli("eval", "--config", eval_cfg, "--out", str(out))
    assert not out.exists()
    runner = Runner(ExperimentConfig(task="inr-classify", zoo=str(tiny_inr_zoo),
                                     out_dir=str(out), model=TINY_MODEL))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{manifest_path}: lacks the field 'run'")):
        runner.load(ckpt)


@pytest.mark.parametrize("combo,problem", [
    ({"activation": "tanh"}, r"missing key\(s\) \['direction'\]"),
    ({"activaton": "tanh", "direction": "forward"},
     r"missing key\(s\) \['activation'\]; unknown key\(s\) \['activaton'\]"),
    ({"activation": "tanh", "direction": "forward", "kernel": 3},
     r"unknown key\(s\) \['kernel'\]"),
])
def test_certify_rejects_a_combo_with_missing_or_unknown_keys(tmp_path, combo, problem):
    """Every combo is checked before the first is certified; the bad one is named."""
    good = {"activation": "tanh", "direction": "forward"}
    cfg = write_config(tmp_path, "c.json", {"trials": 1, "nets": 1, "combos": [good, combo]})
    out = tmp_path / "c"
    with pytest.raises(ValueError, match=rf"^certify: combo 1: {problem}; each combo sets "
                                         r"exactly \['activation', 'direction'\]"):
        run_cli("certify", "--config", cfg, "--out", str(out))
    assert not (out / "certify_report.json").exists()


@pytest.mark.parametrize("combo,problem", [
    ({"activation": "tanhh", "direction": "forward"}, "unknown activation 'tanhh'"),
    # the activation's group is the model's; a combo no longer names it
    ({"group_kind": "positive", "activation": "relu", "direction": "forward"},
     "unknown key(s) ['group_kind']"),
    ({"activation": 3, "direction": "forward"}, "activation must be a string, got 3"),
    ({"activation": "sine", "direction": "backward"},
     "direction must be one of ('forward', 'bidirectional'), got 'backward'"),
])
def test_certify_rejects_a_bad_combo_before_certifying_any(tmp_path, capsys, combo, problem):
    """The valid first combo is not certified: nothing is printed, no report written."""
    good = {"activation": "tanh", "direction": "forward"}
    cfg = write_config(tmp_path, "c.json", {"trials": 1, "nets": 1, "combos": [good, combo]})
    out = tmp_path / "c"
    with pytest.raises(ValueError, match="^" + re.escape(f"certify: combo 1: {problem}")):
        run_cli("certify", "--config", cfg, "--out", str(out))
    assert capsys.readouterr().out == ""
    assert not (out / "certify_report.json").exists()


def test_certify_model_combo_rejects_a_bad_direction():
    """It used to certify a forward model under the name tanh/sign/backward/invariant."""
    combo = {"activation": "tanh", "direction": "backward"}
    with pytest.raises(ValueError, match=re.escape(
            "direction must be one of ('forward', 'bidirectional'), got 'backward'")):
        certify_model_combo(combo, (2, 4, 4, 2), trials=1, nets=1, tol=1e-8, seed=0)


README_TABLES = {"gen-zoo": GEN_ZOO, "train": table(ExperimentConfig),
                 "model": table(ScaleGMNConfig), "eval": EVAL, "certify": CERTIFY,
                 "certify combo": COMBO, "canonicalize": CANONICALIZE, "simulate": SIMULATE}


@pytest.mark.parametrize("heading", sorted(README_TABLES))
def test_readme_lists_the_keys_of_each_config_table(heading):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n#### {heading}\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(README_TABLES[heading])


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _distribution_installed("scalegmn"),
                    reason="the scalegmn console script exists only after "
                           "`pip install -e .`")
def test_cli_entry_point_installed():
    assert shutil.which("scalegmn") is not None


def test_cli_entry_point_declared():
    """pyproject.toml maps the console script to the main the tests drive."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    target = data["project"]["scripts"]["scalegmn"]
    assert target == "scalegmn.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main
