"""Command-line entry points: zoo synthesis, training, evaluation, certification.

Every command takes --config (JSON), --seed, and --out; each run is
deterministic under its seed. Reports are JSON, training metrics are CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import activations
from .config import PATH, ConfigError, Key, build, read, read_json, table
from .ffnn import FfnnParams, canonicalize_net, ffnn_forward_taped, sample_orbit, shift_sine_biases
from .graph import DIRECTIONS, template_for
from .harness import (
    SymmetryReport,
    certify_equivariance,
    certify_invariance,
    check_function_preservation,
    simulate_ffnn,
)
from .model import HEADS, ScaleGMNConfig, ScaleGMNModel
from .tensor import backward
from .train import SPLIT, ExperimentConfig, Runner
from .zoo import gen_cnn_zoo, gen_inr_zoo, grid_coords, load_zoo, save_zoo
from . import tensor as T


def _load_config(path) -> dict:
    return read_json(path) if path else {}


def _out_path(out) -> Path:
    return Path(out) if out else Path("runs/out")


def _out_dir(out) -> Path:
    path = _out_path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- gen-zoo ----------------------------------------------------------------------------

# steps: Adam steps per INR, which only inr-2class fits
GEN_ZOO = {"kind": Key(str, "inr-2class", choices=("inr-2class", "cnn-accuracy")),
           "count": Key(int, 50, least=1), "steps": Key(int, 2000, least=1)}


def cmd_gen_zoo(config: dict, seed: int, out) -> int:
    cfg = read(GEN_ZOO, config)
    if "steps" in config and cfg["kind"] != "inr-2class":
        raise ConfigError(f"steps is read only by kind 'inr-2class'; got steps "
                          f"{config['steps']!r} with kind {cfg['kind']!r}")
    seed = seed if seed is not None else 0
    out_dir = _out_dir(out)
    if cfg["kind"] == "inr-2class":
        entries = gen_inr_zoo(out_dir, cfg["count"], seed, steps=cfg["steps"])
    else:
        entries = gen_cnn_zoo(out_dir, cfg["count"], seed)
    print(f"gen-zoo: wrote {len(entries)} {cfg['kind']} entries to {out_dir}")
    return 0


# -- train / eval --------------------------------------------------------------------------

def cmd_train(config: dict, seed: int, out) -> int:
    data = dict(config)
    if seed is not None:
        data["seed"] = seed
    if out is not None:
        data["out_dir"] = str(out)
    runner = Runner(build(ExperimentConfig, data))
    summary = runner.train()
    print(json.dumps(summary))
    return 0


# the checkpoint names the task, the model and the split seed of its run
EVAL = {"zoo": table(ExperimentConfig)["zoo"], "checkpoint": Key(PATH), "split": SPLIT,
        "with_orbit_augmented_copy": Key(bool, False)}


def cmd_eval(config: dict, seed: int, out) -> int:
    cfg = read(EVAL, config)
    runner = Runner(ExperimentConfig.from_checkpoint(
        cfg["checkpoint"], zoo=cfg["zoo"],
        out_dir=str(_out_path(out)),   # made only once the report is written
        epochs=0))
    runner.load(cfg["checkpoint"])
    report = runner.eval_report(split=cfg["split"],
                                with_orbit_copy=cfg["with_orbit_augmented_copy"],
                                **({} if seed is None else {"orbit_seed": seed}))
    out_path = _out_dir(out) / "eval_report.json"
    out_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(report))
    return 0


# -- certify -----------------------------------------------------------------------------

# each activation with a scaling group, in each direction
CERTIFY_COMBOS = tuple({"activation": act, "direction": direction}
                       for act in ("tanh", "sine", "relu") for direction in DIRECTIONS)


def _certify_activations(dims, act_name) -> list:
    return [activations.by_name(act_name, 30.0)] * (len(dims) - 2) + [activations.identity()]


def _net_sampler(dims, act_name):
    def sampler(rng):
        acts = _certify_activations(dims, act_name)
        weights, biases = [], []
        for i in range(len(dims) - 1):
            w = rng.standard_normal((dims[i + 1], dims[i]))
            if activations.group(acts[0].kind).reciprocal:
                w[np.abs(w) < 1e-3] = 1e-3  # keep reciprocal features conditioned
            weights.append(w)
            biases.append(rng.standard_normal(dims[i + 1]))
        return FfnnParams(weights, biases, acts)

    return sampler


def certify_model_combo(combo: dict, dims, trials: int, nets: int, tol: float,
                        seed: int, head: str = "invariant") -> SymmetryReport:
    kind = activations.by_name(combo["activation"]).kind
    direction = combo["direction"]
    sampler = _net_sampler(dims, combo["activation"])
    template = template_for("ffnn", dims, _certify_activations(dims, combo["activation"]),
                            direction)
    cfg = ScaleGMNConfig(
        d_v=16, d_e=16, d_msg=16, d_inv=8, d_readout=16, pe_dim=6, mlp_hidden=16,
        n_rounds=2, direction=direction, group_kind=kind, head=head,
        out_dim=3 if head == "invariant" else 1,
    )
    model = ScaleGMNModel(cfg, template, np.random.default_rng(seed + 1))
    widths = dims[1:-1]
    orbit = lambda rng_: sample_orbit(kind, list(widths), rng_)
    name = f"{combo['activation']}/{kind}/{direction}/{head}"
    if head == "invariant":
        return certify_invariance(model, sampler, orbit, trials=trials, nets=nets,
                                  tol=tol, seed=seed, name=name)
    return certify_equivariance(model, sampler, orbit, trials=trials, nets=nets,
                                tol=tol, seed=seed, name=name)


# dims: at least one hidden layer
CERTIFY = {"trials": Key(int, 50, least=1), "nets": Key(int, 5, least=1),
           "tol": Key(float, 1e-8, above=0),
           "dims": Key(list, (2, 4, 4, 2), item=int, least=1, min_len=3),
           "combos": Key(list, CERTIFY_COMBOS, item=dict, min_len=1)}
# by_name rejects an unknown activation, naming it; the activation's group is the model's
COMBO = {"activation": Key(str), "direction": Key(str, choices=DIRECTIONS)}


def _read_combo(i: int, combo: dict) -> dict:
    """Combo i read under COMBO, with a known activation."""
    try:
        combo = read(COMBO, combo, noun="", known="each combo sets exactly")
        activations.by_name(combo["activation"])
    except ValueError as err:
        raise ConfigError(f"combo {i}: {err}") from None
    return combo


def cmd_certify(config: dict, seed: int, out) -> int:
    cfg = read(CERTIFY, config)
    combos = [_read_combo(i, combo) for i, combo in enumerate(cfg["combos"])]
    seed = seed if seed is not None else 0
    reports = []
    for combo in combos:
        for head in HEADS:
            rep = certify_model_combo(combo, cfg["dims"], cfg["trials"], cfg["nets"], cfg["tol"],
                                      seed, head=head)
            reports.append(rep)
            status = "pass" if rep.passed else "FAIL"
            print(f"certify {rep.name}: {status} (max deviation {rep.max_deviation:.3e}, "
                  f"{rep.trials} trials, {rep.seconds:.2f} s)")
    out_path = _out_dir(out) / "certify_report.json"
    out_path.write_text(
        json.dumps([r.to_dict() for r in reports], indent=1), encoding="utf-8"
    )
    return 0 if all(r.passed for r in reports) else 1


# -- canonicalize --------------------------------------------------------------------------

CANONICALIZE = {"zoo": Key(PATH), "orbit_canon": Key(bool, True),
                "grid_side": Key(int, 16, least=1), "tol": Key(float, 1e-6, above=0)}


def cmd_canonicalize(config: dict, seed: int, out) -> int:
    cfg = read(CANONICALIZE, config)
    entries, nets, meta = load_zoo(cfg["zoo"])
    grid = grid_coords(cfg["grid_side"])
    out_dir = _out_dir(out)
    new_entries, new_nets = [], []
    worst, checked = 0.0, 0
    for entry, net in zip(entries, nets):
        if entry.kind != "ffnn":
            new_entries.append(entry)
            new_nets.append(net)
            continue
        canon = shift_sine_biases(net)
        if cfg["orbit_canon"]:
            canon = canonicalize_net(canon)
        if grid.shape[1] == net.dims[0]:
            worst = max(worst, check_function_preservation(net, canon, grid))
            checked += 1
        new_entries.append(entry)
        new_nets.append(canon)
    save_zoo(out_dir, new_entries, new_nets, {**meta, "canonicalized": True,
                                              "max_function_deviation": worst,
                                              "nets_checked": checked})
    print(f"canonicalize: {len(new_nets)} entries, {checked} nets checked, "
          f"max function deviation {worst:.3e}")
    if not checked:
        print("canonicalize: no net was checked: only FFNNs with 2 inputs, the grid's "
              "coordinates, are evaluated", file=sys.stderr)
    return 0 if checked and worst < cfg["tol"] else 1


# -- simulate ---------------------------------------------------------------------------

# The relay divides by activation derivatives, so it takes activations whose
# derivative does not vanish on whole intervals; a dead ReLU unit makes a zero.
SIMULATE = {"count": Key(int, 10, least=1),
            "dims": Key(list, (2, 6, 6, 1), item=int, least=1, min_len=2),
            "activation": Key(str, "sine", choices=("sine", "tanh", "identity")),
            "tol_forward": Key(float, 1e-9, above=0), "tol_backward": Key(float, 1e-6, above=0)}


def cmd_simulate(config: dict, seed: int, out) -> int:
    cfg = read(SIMULATE, config)
    count, dims, act_name = cfg["count"], cfg["dims"], cfg["activation"]
    rng = np.random.default_rng(seed if seed is not None else 0)
    sampler = _net_sampler(dims, act_name)
    max_fw = max_bw = 0.0
    for _ in range(count):
        if act_name == "sine":
            from .zoo import siren_init

            net = siren_init(dims, 30.0, rng)
            for b in net.biases:
                b += rng.uniform(-0.5, 0.5, size=b.shape)
        else:
            net = sampler(rng)
            net.weights = [w * 0.7 for w in net.weights]
        x0 = rng.uniform(-1, 1, size=dims[0])
        g = rng.uniform(0.5, 1.5, size=dims[-1])
        res = simulate_ffnn(net, x0, g)
        collect = []
        out_t = ffnn_forward_taped(net, x0[None, :], collect=collect)
        backward(T.sum_(T.mul(out_t, T.constant(g[None, :]))))
        for l, (z_t, x_t) in enumerate(collect, start=1):
            z_direct = z_t.data[0]
            x_direct = x_t.data[0]
            max_fw = max(max_fw, float(np.max(np.abs(res.z[l - 1] - z_direct))))
            max_fw = max(max_fw, float(np.max(np.abs(res.x[l - 1] - x_direct))))
            gz = z_t.grad[0]
            max_bw = max(
                max_bw,
                float(np.max(np.abs(res.grad_z[l] - gz) / np.maximum(np.abs(gz), 1e-12))),
            )
    report = {
        "count": count,
        "dims": list(dims),
        "activation": act_name,
        "max_forward_deviation": max_fw,
        "max_backward_rel_deviation": max_bw,
        "tol_forward": cfg["tol_forward"],
        "tol_backward": cfg["tol_backward"],
        "passed": max_fw < cfg["tol_forward"] and max_bw < cfg["tol_backward"],
    }
    (_out_dir(out) / "simulate_report.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    print(
        f"simulate: max forward deviation {max_fw:.3e}, "
        f"max backward relative deviation {max_bw:.3e}"
    )
    return 0 if report["passed"] else 1


# -- entry point ----------------------------------------------------------------------------

COMMANDS = {
    "gen-zoo": cmd_gen_zoo,
    "train": cmd_train,
    "eval": cmd_eval,
    "certify": cmd_certify,
    "canonicalize": cmd_canonicalize,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scalegmn",
        description="Scale-equivariant graph metanetworks: zoos, training, certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    try:
        return COMMANDS[args.command](config, args.seed, args.out)
    except ConfigError as err:
        raise ConfigError(f"{args.command}: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
