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
from .ffnn import FfnnParams, canonicalize_net, ffnn_forward_taped, sample_orbit, shift_sine_biases
from .graph import check_direction, template_for
from .harness import (
    SymmetryReport,
    certify_equivariance,
    certify_invariance,
    check_function_preservation,
    simulate_ffnn,
)
from .model import ScaleGMNConfig, ScaleGMNModel, read_manifest
from .tensor import backward
from .train import ExperimentConfig, Runner
from .zoo import gen_cnn_zoo, gen_inr_zoo, grid_coords, load_zoo, save_zoo
from . import tensor as T


def _load_config(path) -> dict:
    if not path:
        return {}
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _check_keys(command: str, config: dict, known: frozenset, required=()) -> None:
    """Reject config keys the command does not read, and a config without a key
    the command cannot run without, before it does any work."""
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"{command}: unknown config key(s) {unknown}; "
                         f"known keys: {sorted(known)}")
    missing = sorted(set(required) - set(config))
    if missing:
        raise ValueError(f"{command}: missing required config key(s) {missing}")


def _out_path(out) -> Path:
    return Path(out) if out else Path("runs/out")


def _out_dir(out) -> Path:
    path = _out_path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- gen-zoo ----------------------------------------------------------------------------

GEN_ZOO_KEYS = frozenset({"kind", "count", "steps"})


def cmd_gen_zoo(config: dict, seed: int, out) -> int:
    _check_keys("gen-zoo", config, GEN_ZOO_KEYS)
    kind = config.get("kind", "inr-2class")
    if kind not in ("inr-2class", "cnn-accuracy"):
        print(f"unknown zoo kind {kind!r}", file=sys.stderr)
        return 2
    count = int(config.get("count", 50))
    out_dir = _out_dir(out)
    if kind == "inr-2class":
        entries = gen_inr_zoo(out_dir, count, seed, steps=int(config.get("steps", 2000)))
    else:
        entries = gen_cnn_zoo(out_dir, count, seed)
    print(f"gen-zoo: wrote {len(entries)} {kind} entries to {out_dir}")
    return 0


# -- train / eval --------------------------------------------------------------------------

TRAIN_KEYS = frozenset(ExperimentConfig.__dataclass_fields__)


def cmd_train(config: dict, seed: int, out) -> int:
    _check_keys("train", config, TRAIN_KEYS, required=("task", "zoo"))
    data = dict(config)
    if seed is not None:
        data["seed"] = seed
    if out is not None:
        data["out_dir"] = str(out)
    cfg = ExperimentConfig(**data)
    runner = Runner(cfg)
    summary = runner.train()
    print(json.dumps(summary))
    return 0


EVAL_KEYS = frozenset({"task", "zoo", "checkpoint", "baseline", "split", "split_seed",
                       "with_orbit_augmented_copy"})


def cmd_eval(config: dict, seed: int, out) -> int:
    _check_keys("eval", config, EVAL_KEYS, required=("task", "zoo", "checkpoint"))
    ckpt = Path(config["checkpoint"])
    baseline = config.get("baseline", "none")
    model_overrides = {}
    if (ckpt / "checkpoint.json").exists():
        model_overrides = read_manifest(ckpt)[0].to_dict()
        baseline = "none"
    cfg = ExperimentConfig(
        task=config["task"],
        zoo=config["zoo"],
        out_dir=str(_out_path(out)),   # made only once the report is written
        model=model_overrides,
        baseline=baseline,
        seed=int(config.get("split_seed", 0)),
        epochs=0,
    )
    runner = Runner(cfg)
    runner.load(ckpt)
    report = runner.eval_report(
        split=config.get("split", "test"),
        with_orbit_copy=bool(config.get("with_orbit_augmented_copy", False)),
        orbit_seed=seed if seed is not None else 1234,
    )
    out_path = _out_dir(out) / "eval_report.json"
    out_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(report))
    return 0


# -- certify -----------------------------------------------------------------------------

CERTIFY_COMBOS = (
    {"group_kind": "sign", "activation": "tanh", "direction": "forward"},
    {"group_kind": "sign", "activation": "tanh", "direction": "bidirectional"},
    {"group_kind": "sign", "activation": "sine", "direction": "forward"},
    {"group_kind": "sign", "activation": "sine", "direction": "bidirectional"},
    {"group_kind": "positive", "activation": "relu", "direction": "forward"},
    {"group_kind": "positive", "activation": "relu", "direction": "bidirectional"},
)


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
    kind = combo["group_kind"]
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


CERTIFY_KEYS = frozenset({"trials", "nets", "tol", "dims", "combos"})
COMBO_KEYS = frozenset({"group_kind", "activation", "direction"})


def _check_combos(combos) -> None:
    """Reject a combo that lacks or adds a key, names an unknown activation or
    direction, or pairs its activation with another group kind, before any
    combo is certified."""
    for i, combo in enumerate(combos):
        problems = [f"{what} key(s) {keys}" for what, keys in (
            ("missing", sorted(COMBO_KEYS - set(combo))),
            ("unknown", sorted(set(combo) - COMBO_KEYS))) if keys]
        if problems:
            raise ValueError(f"certify: combo {i}: {'; '.join(problems)}; each combo sets "
                             f"exactly {sorted(COMBO_KEYS)}")
        try:
            kind = activations.by_name(combo["activation"]).kind
            check_direction(combo["direction"])
        except ValueError as err:
            raise ValueError(f"certify: combo {i}: {err}") from None
        if combo["group_kind"] != kind:
            raise ValueError(f"certify: combo {i}: group_kind {combo['group_kind']!r} is not "
                             f"the group of activation {combo['activation']!r}, {kind!r}")


def cmd_certify(config: dict, seed: int, out) -> int:
    _check_keys("certify", config, CERTIFY_KEYS)
    trials = int(config.get("trials", 50))
    nets = int(config.get("nets", 5))
    tol = float(config.get("tol", 1e-8))
    dims = tuple(config.get("dims", (2, 4, 4, 2)))
    seed = seed if seed is not None else 0
    combos = config.get("combos", CERTIFY_COMBOS)
    _check_combos(combos)
    reports = []
    for combo in combos:
        for head in ("invariant", "equivariant-edit"):
            rep = certify_model_combo(dict(combo), dims, trials, nets, tol,
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

CANONICALIZE_KEYS = frozenset({"zoo", "orbit_canon", "grid_side", "tol"})


def cmd_canonicalize(config: dict, seed: int, out) -> int:
    _check_keys("canonicalize", config, CANONICALIZE_KEYS, required=("zoo",))
    entries, nets, meta = load_zoo(config["zoo"])
    orbit_canon = bool(config.get("orbit_canon", True))
    grid = grid_coords(int(config.get("grid_side", 16)))
    out_dir = _out_dir(out)
    new_entries, new_nets = [], []
    worst = 0.0
    for entry, net in zip(entries, nets):
        if entry.kind != "ffnn":
            new_entries.append(entry)
            new_nets.append(net)
            continue
        canon = shift_sine_biases(net)
        if orbit_canon:
            canon = canonicalize_net(canon)
        if grid.shape[1] == net.dims[0]:
            worst = max(worst, check_function_preservation(net, canon, grid))
        new_entries.append(entry)
        new_nets.append(canon)
    save_zoo(out_dir, new_entries, new_nets,
             {**meta, "canonicalized": True, "max_function_deviation": worst})
    print(f"canonicalize: {len(new_nets)} entries, max function deviation {worst:.3e}")
    return 0 if worst < float(config.get("tol", 1e-6)) else 1


# -- simulate ---------------------------------------------------------------------------

SIMULATE_KEYS = frozenset({"count", "dims", "activation", "tol_forward", "tol_backward"})
# The relay divides by activation derivatives, so it takes activations whose
# derivative does not vanish on whole intervals; a dead ReLU unit makes a zero.
SIMULATE_ACTIVATIONS = ("sine", "tanh", "identity")


def cmd_simulate(config: dict, seed: int, out) -> int:
    _check_keys("simulate", config, SIMULATE_KEYS)
    count = int(config.get("count", 10))
    dims = tuple(config.get("dims", (2, 6, 6, 1)))
    act_name = config.get("activation", "sine")
    if act_name not in SIMULATE_ACTIVATIONS:
        raise ValueError(f"simulate: activation {act_name!r} is not supported; the relay "
                         f"divides by activation derivatives and accepts "
                         f"{list(SIMULATE_ACTIVATIONS)}")
    tol_fw = float(config.get("tol_forward", 1e-9))
    tol_bw = float(config.get("tol_backward", 1e-6))
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
        "tol_forward": tol_fw,
        "tol_backward": tol_bw,
        "passed": max_fw < tol_fw and max_bw < tol_bw,
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
    return COMMANDS[args.command](config, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
