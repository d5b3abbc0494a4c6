"""CLI commands: determinism, formats, exit codes."""

import importlib
import importlib.metadata
import json
import re
import shutil
from pathlib import Path

import pytest

from scalegmn.cli import certify_model_combo, main


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
    assert run_cli("gen-zoo", "--config", cfg, "--out", str(tmp_path / "z")) == 2
    assert not (tmp_path / "z").exists()


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
            "task": "inr-classify",
            "zoo": str(tiny_inr_zoo),
            "checkpoint": str(out / "checkpoint"),
            "split": "test",
            "with_orbit_augmented_copy": True,
            "split_seed": 5,
        },
    )
    assert run_cli("eval", "--config", eval_cfg, "--seed", "9", "--out", str(tmp_path / "ev")) == 0
    report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    assert "accuracy" in report and "orbit_accuracy" in report
    assert abs(report["orbit_accuracy"] - report["accuracy"]) < 1e-12


def test_certify_default_exits_zero(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"trials": 4, "nets": 2})
    assert run_cli("certify", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "c")) == 0
    reports = json.loads((tmp_path / "c" / "certify_report.json").read_text())
    assert all(r["passed"] for r in reports)
    assert {r["metric"] for r in reports} == {"relative", "absolute"}


def test_certify_reports_seconds_per_combination(tmp_path, capsys):
    combos = [{"group_kind": "positive", "activation": "relu", "direction": "forward"}]
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
    entries = json.loads((out1 / "manifest.json").read_text())["entries"]
    for row in entries:
        a = (out1 / row["weights_path"]).read_bytes()
        b = (out2 / row["weights_path"]).read_bytes()
        assert a == b  # canonicalizing twice equals once


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
    with pytest.raises(ValueError, match=rf"^simulate: activation '{activation}' is not "
                                         r"supported.*\['sine', 'tanh', 'identity'\]"):
        run_cli("simulate", "--config", cfg, "--seed", "3", "--out", str(out))
    assert not out.exists()


@pytest.mark.parametrize("command,config,bad", [
    ("gen-zoo", {"kind": "cnn-accuracy", "cout": 3}, "cout"),
    ("eval", {"task": "inr-classify", "zoo": "z", "checkpoint": "c", "splt": "val"}, "splt"),
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


@pytest.mark.parametrize("command,config,missing", [
    ("eval", {"task": "inr-classify", "zoo": "z"}, ["checkpoint"]),
    ("eval", {"split": "val"}, ["checkpoint", "task", "zoo"]),
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


def test_eval_names_a_checkpoint_whose_config_has_a_removed_key(tiny_inr_zoo, tmp_path):
    run = tmp_path / "run"
    cfg = write_config(tmp_path, "train.json", {
        "task": "inr-classify", "zoo": str(tiny_inr_zoo), "epochs": 0,
        "model": {"d_v": 8, "d_e": 8, "d_msg": 8, "d_inv": 6, "d_readout": 8,
                  "pe_dim": 4, "mlp_hidden": 10, "n_rounds": 1}})
    assert run_cli("train", "--config", cfg, "--out", str(run)) == 0
    manifest_path = run / "checkpoint" / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["skip_connections"] = True
    manifest_path.write_text(json.dumps(manifest))
    eval_cfg = write_config(tmp_path, "eval.json", {
        "task": "inr-classify", "zoo": str(tiny_inr_zoo), "checkpoint": str(run / "checkpoint")})
    out = tmp_path / "ev"
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest_path}: unknown model config key(s) ['skip_connections']")):
        run_cli("eval", "--config", eval_cfg, "--out", str(out))
    assert not out.exists()


def test_a_failed_eval_leaves_no_out_directory(tmp_path):
    cfg = write_config(tmp_path, "eval.json", {
        "task": "inr-classify", "zoo": str(tmp_path / "no-zoo"),
        "checkpoint": str(tmp_path / "no-checkpoint")})
    out = tmp_path / "ev"
    with pytest.raises(FileNotFoundError, match="manifest.json"):
        run_cli("eval", "--config", cfg, "--out", str(out))
    assert not out.exists()


def test_eval_rejects_a_checkpoint_trained_for_another_task(tiny_inr_zoo, tmp_path):
    """An inr-classify checkpoint has two outputs; cnn-generalization needs one."""
    run = tmp_path / "run"
    cfg = write_config(tmp_path, "train.json", {
        "task": "inr-classify", "zoo": str(tiny_inr_zoo), "epochs": 0,
        "model": {"d_v": 8, "d_e": 8, "d_msg": 8, "d_inv": 6, "d_readout": 8,
                  "pe_dim": 4, "mlp_hidden": 10, "n_rounds": 1}})
    assert run_cli("train", "--config", cfg, "--out", str(run)) == 0
    eval_cfg = write_config(tmp_path, "eval.json", {
        "task": "cnn-generalization", "zoo": "no-such-zoo",
        "checkpoint": str(run / "checkpoint")})
    with pytest.raises(ValueError, match=re.escape(
            "task 'cnn-generalization' needs model.out_dim = 1, got 2")):
        run_cli("eval", "--config", eval_cfg, "--out", str(tmp_path / "ev"))


@pytest.mark.parametrize("combo,problem", [
    ({"activation": "tanh", "direction": "forward"}, r"missing key\(s\) \['group_kind'\]"),
    ({"group_kind": "sign", "activaton": "tanh", "direction": "forward"},
     r"missing key\(s\) \['activation'\]; unknown key\(s\) \['activaton'\]"),
    ({"group_kind": "sign", "activation": "tanh", "direction": "forward", "kernel": 3},
     r"unknown key\(s\) \['kernel'\]"),
])
def test_certify_rejects_a_combo_with_missing_or_unknown_keys(tmp_path, combo, problem):
    """Every combo is checked before the first is certified; the bad one is named."""
    good = {"group_kind": "sign", "activation": "tanh", "direction": "forward"}
    cfg = write_config(tmp_path, "c.json", {"trials": 1, "nets": 1, "combos": [good, combo]})
    out = tmp_path / "c"
    with pytest.raises(ValueError, match=rf"^certify: combo 1: {problem}; each combo sets "
                                         r"exactly \['activation', 'direction', 'group_kind'\]"):
        run_cli("certify", "--config", cfg, "--out", str(out))
    assert not (out / "certify_report.json").exists()


@pytest.mark.parametrize("combo,problem", [
    ({"group_kind": "sign", "activation": "tanhh", "direction": "forward"},
     "unknown activation 'tanhh'"),
    ({"group_kind": "positive", "activation": "tanh", "direction": "forward"},
     "group_kind 'positive' is not the group of activation 'tanh', 'sign'"),
    ({"group_kind": "sign", "activation": "relu", "direction": "forward"},
     "group_kind 'sign' is not the group of activation 'relu', 'positive'"),
    ({"group_kind": "sign", "activation": "sine", "direction": "backward"},
     "direction must be one of ('forward', 'bidirectional'), got 'backward'"),
])
def test_certify_rejects_a_bad_combo_before_certifying_any(tmp_path, capsys, combo, problem):
    """The valid first combo is not certified: nothing is printed, no report written."""
    good = {"group_kind": "sign", "activation": "tanh", "direction": "forward"}
    cfg = write_config(tmp_path, "c.json", {"trials": 1, "nets": 1, "combos": [good, combo]})
    out = tmp_path / "c"
    with pytest.raises(ValueError, match="^" + re.escape(f"certify: combo 1: {problem}")):
        run_cli("certify", "--config", cfg, "--out", str(out))
    assert capsys.readouterr().out == ""
    assert not (out / "certify_report.json").exists()


def test_certify_model_combo_rejects_a_bad_direction():
    """It used to certify a forward model under the name tanh/sign/backward/invariant."""
    combo = {"group_kind": "sign", "activation": "tanh", "direction": "backward"}
    with pytest.raises(ValueError, match=re.escape(
            "direction must be one of ('forward', 'bidirectional'), got 'backward'")):
        certify_model_combo(combo, (2, 4, 4, 2), trials=1, nets=1, tol=1e-8, seed=0)


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
