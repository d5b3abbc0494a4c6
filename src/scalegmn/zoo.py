"""Desk-scale model zoos: fitting INRs, training toy CNNs, disk serialization.

A zoo is a directory with `manifest.json` and one flat little-endian float32
weight file per entry. FFNN weight files store W1 (row-major), b1, ..., WL,
bL; CNN files store each conv layer's kernels in (out, in, kh, kw) order then
its bias, followed by the linear head. Weights are widened to float64 on load.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .activations import by_name, identity, sine
from .cnn import CnnParams, cnn_forward, cnn_forward_taped
from .ffnn import FfnnParams, ffnn_forward_taped
from .nn import cross_entropy, mse
from .optim import AdamState
from .tensor import NumericsError, Tensor, gradients


def worker_count() -> int:
    """Parallelism cap from SCALEGMN_THREADS (default: sequential)."""
    try:
        return max(1, int(os.environ.get("SCALEGMN_THREADS", "1")))
    except ValueError:
        return 1


# -- signals ---------------------------------------------------------------------

@dataclass
class Signal:
    """A coordinate grid in [-1, 1]^2 with one target value per coordinate."""

    coords: np.ndarray  # [n, 2]
    values: np.ndarray  # [n, c]

    def __post_init__(self):
        if self.coords.shape[0] != self.values.shape[0]:
            raise ValueError("one target per coordinate required")


def grid_coords(side: int) -> np.ndarray:
    g = np.linspace(-1.0, 1.0, side)
    yy, xx = np.meshgrid(g, g, indexing="ij")
    return np.stack([yy.reshape(-1), xx.reshape(-1)], axis=1)


def image_signal(image: np.ndarray) -> Signal:
    image = np.asarray(image, dtype=np.float64)
    side = image.shape[0]
    return Signal(grid_coords(side), image.reshape(-1, 1))


def make_shape_image(kind: str, rng: np.random.Generator, side: int = 16) -> np.ndarray:
    """Binary disk or axis-aligned square with mild position/size jitter.

    The jitter ranges are deliberately modest: the family (disk vs square)
    must stay the dominant factor of variation in the fitted INR weights at
    desk-scale zoo sizes.
    """
    g = np.linspace(-1.0, 1.0, side)
    yy, xx = np.meshgrid(g, g, indexing="ij")
    cy, cx = rng.uniform(-0.1, 0.1, size=2)
    r = rng.uniform(0.45, 0.6)
    if kind == "disk":
        img = ((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r).astype(np.float64)
    elif kind == "square":
        img = ((np.abs(yy - cy) <= r * 0.85) & (np.abs(xx - cx) <= r * 0.85)).astype(np.float64)
    else:
        raise ValueError(f"unknown shape kind {kind!r}")
    return img


def dilate3x3(image: np.ndarray) -> np.ndarray:
    """Grey dilation with a 3x3 window (max over the 8-neighbourhood)."""
    padded = np.pad(image, 1, mode="edge")
    stack = [
        padded[1 + dr : 1 + dr + image.shape[0], 1 + dc : 1 + dc + image.shape[1]]
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
    ]
    return np.max(np.stack(stack), axis=0)


# -- INR fitting -------------------------------------------------------------------

def siren_init(dims, omega0: float, rng: np.random.Generator) -> FfnnParams:
    """Standard SIREN scheme: first layer U(-1/d0, 1/d0), rest U(-sqrt(6/d)/w0, ...)."""
    weights, biases = [], []
    for i in range(len(dims) - 1):
        d_in, d_out = dims[i], dims[i + 1]
        bound = 1.0 / d_in if i == 0 else math.sqrt(6.0 / d_in) / omega0
        weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
        biases.append(np.zeros(d_out))
    acts = [sine(omega0)] * (len(dims) - 2) + [identity()]
    return FfnnParams(weights, biases, acts)


def train_inr(signal: Signal, dims=(2, 12, 12, 1), steps: int = 2000, lr: float = 5e-3,
              omega0: float = 30.0, rng: np.random.Generator | None = None,
              mse_threshold: float = 0.0) -> tuple[FfnnParams, float]:
    """Overfit a SIREN to one signal with Adam; returns (net, final MSE).

    Stops early once the reconstruction MSE drops below `mse_threshold`.
    Divergence raises NumericsError annotated with the failing step.
    """
    rng = rng or np.random.default_rng(0)
    net = siren_init(dims, omega0, rng)
    params = [Tensor(w) for w in net.weights] + [Tensor(b) for b in net.biases]
    n_layers = net.n_layers
    holder = SimpleNamespace(
        weights=params[:n_layers], biases=params[n_layers:], activations=net.activations
    )
    state = AdamState(params, lr=lr)
    fit_mse = math.inf
    for step in range(steps):
        try:
            loss = mse(ffnn_forward_taped(holder, signal.coords), signal.values)
            state.step(gradients(loss, params))
        except NumericsError as err:
            raise NumericsError(f"INR fit diverged at step {step}: {err}") from err
        fit_mse = float(loss.data)
        if fit_mse < mse_threshold:
            break
    fitted = FfnnParams(
        [p.data.copy() for p in params[:n_layers]],
        [p.data.copy() for p in params[n_layers:]],
        net.activations,
    )
    return fitted, fit_mse


# -- toy CNN task ------------------------------------------------------------------

def make_blob_task(rng: np.random.Generator, n_train: int = 160, n_test: int = 200,
                   side: int = 8, noise: float = 0.25, overlap: float = 0.8):
    """Two-class 8x8 grayscale task: Gaussian blob on the left vs right half.

    The class regions overlap slightly and the noise is substantial, so the
    achievable accuracy tops out well below 1.0: zoo labels then spread over
    [0.5, ~0.9] as training budgets vary, which is what a rank-correlation
    metric needs.
    """

    def batch(n):
        xs = np.zeros((n, 1, side, side))
        ys = rng.integers(0, 2, size=n)
        g = np.arange(side)
        yy, xx = np.meshgrid(g, g, indexing="ij")
        for i in range(n):
            cy = rng.uniform(1.5, side - 2.5)
            if ys[i] == 0:
                cx = rng.uniform(1.0, side / 2 - 1.0 + overlap)
            else:
                cx = rng.uniform(side / 2 - overlap, side - 2.0)
            blob = np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 1.2**2)))
            xs[i, 0] = blob + rng.normal(0, noise, size=(side, side))
        return xs, ys

    return batch(n_train) + batch(n_test)


@dataclass
class ToyCnnResult:
    net: CnnParams
    accuracy: float
    diverged: bool = False


def train_toy_cnn(seed: int, lr: float = 3e-3, steps: int = 300, init_scale: float = 1.0,
                  channels=(4, 4), kernel: int = 3, activation: str = "relu") -> ToyCnnResult:
    """Train one toy CNN on the seeded blob task; label is held-out accuracy.

    Hyperparameters (lr, steps, init_scale) are meant to be varied across a
    zoo so the resulting accuracies spread. Divergence is recorded as chance
    accuracy with the flag set rather than raised.
    """
    rng = np.random.default_rng(seed)
    train_x, train_y, test_x, test_y = make_blob_task(rng)
    act = by_name(activation)
    chain = [1] + list(channels)
    kernels, biases = [], []
    for i in range(len(chain) - 1):
        fan_in = chain[i] * kernel * kernel
        kernels.append(
            Tensor(rng.normal(0, init_scale / math.sqrt(fan_in), size=(chain[i + 1], chain[i], kernel, kernel)))
        )
        biases.append(Tensor(np.zeros(chain[i + 1])))
    head_w = Tensor(rng.normal(0, init_scale / math.sqrt(chain[-1]), size=(2, chain[-1])))
    head_b = Tensor(np.zeros(2))
    params = kernels + biases + [head_w, head_b]
    acts = [act] * len(kernels)
    state = AdamState(params, lr=lr)
    diverged = False
    try:
        for step in range(steps):
            idx = rng.integers(0, len(train_x), size=32)
            logits = cnn_forward_taped(kernels, biases, acts, head_w, head_b, train_x[idx])
            loss = cross_entropy(logits, train_y[idx])
            state.step(gradients(loss, params))
    except NumericsError:
        diverged = True
    net = CnnParams(
        [k.data.copy() for k in kernels],
        [b.data.copy() for b in biases],
        acts,
        head_w.data.copy(),
        head_b.data.copy(),
    )
    if diverged:
        return ToyCnnResult(net, 0.5, diverged=True)
    preds = cnn_forward(net, test_x).argmax(axis=1)
    return ToyCnnResult(net, float((preds == test_y).mean()))


# -- zoo serialization ---------------------------------------------------------------

@dataclass
class ZooEntry:
    id: str
    kind: str  # "ffnn" | "cnn"
    layer_dims: list[int]
    activations: list[str]
    omega0: float
    label: float
    weights_path: str
    extra: dict = field(default_factory=dict)

    def manifest_row(self) -> dict:
        row = {
            "id": self.id,
            "kind": self.kind,
            "layer_dims": self.layer_dims,
            "activations": self.activations,
            "omega0": self.omega0,
            "label": self.label,
            "weights_path": self.weights_path,
        }
        row.update(self.extra)
        return row


def _write_f32(path: Path, vec: np.ndarray) -> None:
    np.asarray(vec, dtype="<f4").tofile(path)


def _read_f32(path: Path) -> np.ndarray:
    return np.fromfile(path, dtype="<f4").astype(np.float64)


def save_zoo(directory, entries: list[ZooEntry], nets, meta: dict | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for entry, net in zip(entries, nets):
        _write_f32(directory / entry.weights_path, net.flatten())
    manifest = {"meta": meta or {}, "entries": [e.manifest_row() for e in entries]}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def _layer_shapes(entry: ZooEntry) -> list[tuple[int, ...]]:
    """Per-layer weight shapes [out, in, *kernel] that a manifest row declares.

    `layer_dims` is the layer chain (a CNN's: channels, then the head width);
    every CNN layer but the head carries the `kernel_hw` axes.
    """
    dims = entry.layer_dims
    kernel = tuple(entry.extra["kernel_hw"]) if entry.kind == "cnn" else ()
    last = len(dims) - 2
    return [(d_out, d_in) + (kernel if l < last else ())
            for l, (d_in, d_out) in enumerate(zip(dims, dims[1:]))]


def _unflatten(vec: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inverse of `LayerChain.flatten`: per-layer (weights, biases) views of vec."""
    weights, biases, pos = [], [], 0
    for shape in shapes:
        n = math.prod(shape)
        weights.append(vec[pos : pos + n].reshape(shape))
        biases.append(vec[pos + n : pos + n + shape[0]])
        pos += n + shape[0]
    return weights, biases


def load_zoo(directory):
    """Returns (entries, nets, meta); nets are FfnnParams or CnnParams."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    entries, nets = [], []
    for row in manifest["entries"]:
        extra = {k: v for k, v in row.items()
                 if k not in ("id", "kind", "layer_dims", "activations", "omega0",
                              "label", "weights_path")}
        entry = ZooEntry(row["id"], row["kind"], row["layer_dims"], row["activations"],
                         row["omega0"], row["label"], row["weights_path"], extra)
        if entry.kind not in ("ffnn", "cnn"):
            raise ValueError(f"unknown zoo entry kind {entry.kind!r}")
        if entry.kind == "cnn" and "kernel_hw" not in extra:
            raise ValueError(f"{directory / 'manifest.json'}: entry {entry.id!r} "
                             f"lacks the field 'kernel_hw'")
        path = directory / entry.weights_path
        vec = _read_f32(path)
        shapes = _layer_shapes(entry)
        expected = sum(math.prod(s) + s[0] for s in shapes)
        if vec.size != expected:
            raise ValueError(f"{path}: expected {expected} float32 values for layer_dims "
                             f"{entry.layer_dims}, found {vec.size}")
        params = FfnnParams if entry.kind == "ffnn" else CnnParams
        acts = [by_name(name, entry.omega0) for name in entry.activations]
        nets.append(params.from_layers(*_unflatten(vec, shapes), acts))
        entries.append(entry)
    return entries, nets, manifest.get("meta", {})


# -- zoo synthesis -------------------------------------------------------------------

INR_DIMS = (2, 12, 12, 1)
INR_OMEGA0 = 10.0  # lower-frequency SIRENs keep weight geometry learnable
INR_SIDE = 16


def inr_source_image(zoo_seed: int, index: int, side: int = INR_SIDE) -> tuple[np.ndarray, int]:
    """Deterministic source signal for entry `index`: disks are class 0, squares 1."""
    label = index % 2
    rng = np.random.default_rng([zoo_seed, index])
    return make_shape_image("disk" if label == 0 else "square", rng, side), label


def _fit_inr_job(args):
    zoo_seed, index, steps, retry = args
    image, label = inr_source_image(zoo_seed, index)
    # one initialization per zoo: weight variation then tracks signal content,
    # which is what makes the classification task learnable at 200 samples
    rng = np.random.default_rng([zoo_seed, 777 + retry])
    try:
        net, mse = train_inr(image_signal(image), dims=INR_DIMS, steps=steps,
                             omega0=INR_OMEGA0, rng=rng, mse_threshold=2e-3)
    except NumericsError:
        return index, None
    return index, (label, mse, list(net.weights), list(net.biases))


def gen_inr_zoo(directory, count: int, seed: int, steps: int = 2000) -> list[ZooEntry]:
    """Fit `count` SIRENs to alternating disk/square signals; labels balanced ±1.

    A failed fit is retried once with a shifted rng stream, then skipped with
    a note in the manifest meta.
    """
    jobs = [(seed, i, steps, 0) for i in range(count)]
    workers = worker_count()
    if workers > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = dict(pool.map(_fit_inr_job, jobs))
    else:
        raw = dict(_fit_inr_job(j) for j in jobs)
    results, skipped = {}, []
    for i in range(count):
        res = raw.get(i)
        if res is None:
            _, res = _fit_inr_job((seed, i, steps, 1))
        if res is None:
            skipped.append(i)
        else:
            results[i] = (i, *res)
    entries, nets = [], []
    act_names = ["sine"] * (len(INR_DIMS) - 2) + ["identity"]
    for i in sorted(results):
        index, label, mse, weights, biases = results[i]
        acts = [by_name(n, INR_OMEGA0) for n in act_names]
        net = FfnnParams(weights, biases, acts)
        entry = ZooEntry(
            id=f"inr-{index:05d}",
            kind="ffnn",
            layer_dims=list(INR_DIMS),
            activations=act_names,
            omega0=INR_OMEGA0,
            label=float(label),
            weights_path=f"inr-{index:05d}.bin",
            extra={"mse": mse, "source_index": index},
        )
        entries.append(entry)
        nets.append(net)
    meta = {"kind": "inr-2class", "seed": seed, "image_side": INR_SIDE,
            "skipped": skipped, "count": len(entries)}
    save_zoo(directory, entries, nets, meta)
    return entries


def _cnn_job(args):
    seed, index = args
    rng = np.random.default_rng([seed, index])
    # ranges stretch from under-trained to solid so the accuracies spread
    lr = float(10 ** rng.uniform(-4.0, -0.8))
    steps = int(rng.integers(5, 300))
    init_scale = float(rng.uniform(0.3, 2.5))
    result = train_toy_cnn(int(rng.integers(0, 2**31)), lr=lr, steps=steps,
                           init_scale=init_scale)
    return index, result


def gen_cnn_zoo(directory, count: int, seed: int) -> list[ZooEntry]:
    """Train `count` toy CNNs with spread hyperparameters; label = test accuracy."""
    jobs = [(seed, i) for i in range(count)]
    workers = worker_count()
    if workers > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_cnn_job, jobs))
    else:
        results = dict(_cnn_job(j) for j in jobs)
    entries, nets = [], []
    for i in sorted(results):
        res = results[i]
        net = res.net
        entry = ZooEntry(
            id=f"cnn-{i:05d}",
            kind="cnn",
            layer_dims=net.dims,
            activations=[a.name for a in net.activations],
            omega0=0.0,
            label=res.accuracy,
            weights_path=f"cnn-{i:05d}.bin",
            extra={"kernel_hw": list(net.kernel_hw), "image_hw": [8, 8],
                   "diverged": res.diverged},
        )
        entries.append(entry)
        nets.append(net)
    meta = {"kind": "cnn-accuracy", "seed": seed, "count": len(entries)}
    save_zoo(directory, entries, nets, meta)
    return entries
