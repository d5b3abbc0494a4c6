"""Desk-scale model zoos: fitting INRs, training toy CNNs, disk serialization.

Fits run stacked: N networks of one architecture are one problem with
parameters [N, out, in(, kh, kw)], one tape and one elementwise Adam step
per iteration, and the per-net losses summed. Every stack row does exactly
the arithmetic of its network fitted alone, so a zoo's bytes do not depend
on how its networks are grouped; a network leaves the stack when it is done
or diverges. A zoo is fitted as `worker_count()` such stacks.

The architectures are fixed: the INRs are `INR_DIMS` SIRENs fitted at Adam
rate `INR_LR`, and the toy CNNs take one input channel through conv layers
of `CNN_CHANNELS` channels, `CNN_KERNEL` x `CNN_KERNEL` kernels and
`CNN_ACTIVATION`, then a 2-way linear head.

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

from . import tensor as T
from .activations import by_name, identity, sine
from .cnn import CnnParams, cnn_forward, cnn_forward_taped
from .config import read_json
from .ffnn import FfnnParams, ffnn_forward_taped
from .nn import cross_entropy, mse
from .optim import AdamState
from .tensor import NumericsError, Tensor, gradients


def worker_count() -> int:
    """Worker width from SCALEGMN_THREADS (default 1: in-process).

    A zoo is fitted as this many stacked chunks, one per process-pool
    worker; its bytes are the same for every width. A training `Runner`
    runs a large batch as up to this many shards on a thread pool.
    """
    raw = os.environ.get("SCALEGMN_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"SCALEGMN_THREADS must be a positive integer, got {raw!r}")
    return workers


INR_DIMS = (2, 12, 12, 1)
INR_LR = 5e-3  # Adam rate of the INR fits
INR_OMEGA0 = 10.0  # lower-frequency SIRENs keep weight geometry learnable
INR_SIDE = 16
CNN_CHANNELS = (4, 4)  # toy CNN conv widths after its one input channel
CNN_KERNEL = 3  # side of its square kernels
CNN_ACTIVATION = "relu"


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


# -- stacked fitting ----------------------------------------------------------------

def _fit_stack(state: AdamState, budgets, draw, loss_of, stop=None) -> list:
    """Adam steps on a stack of nets until every row is done or has diverged.

    Row r takes at most ``budgets[r]`` steps. Each step draws its batch once,
    ``draw(rows)``: a tuple of arrays with one leading entry per active row
    (`rows` holds their indices into the stack). ``loss_of(params, batch)``
    records one tape for the stack and gives the rows' losses; Adam steps on
    the gradient of their sum. A row leaves when its budget is spent or
    ``stop(loss)`` holds, with its post-update parameters and that loss (the
    loss before the update).
    When a step raises NumericsError, each row retries it alone, as a stack
    of one from the same state and batch; the rows that fail leave as
    diverged with their pre-step parameters, and the others redo the step.

    Returns per row: (parameter arrays, last loss, steps taken, the error
    or None).
    """

    def take_step(state, batch):
        losses = loss_of(state.params, batch)
        state.step(gradients(T.sum_(losses), state.params))
        return losses.data

    budgets = np.asarray(budgets)
    rows = np.arange(len(budgets))
    last = np.full(len(budgets), math.inf)
    results = [None] * len(budgets)

    def leave(positions, taken, failures=None):
        """Record the rows at these stack positions and drop them from the stack."""
        nonlocal state, rows
        for pos in positions:
            results[rows[pos]] = ([p.data[pos].copy() for p in state.params],
                                  last[rows[pos]], taken, failures[pos] if failures else None)
        keep = np.setdiff1d(np.arange(rows.size), positions)
        if keep.size < rows.size:
            state, rows = state.take(keep), rows[keep]
        return keep

    step = 0
    while True:
        leave(np.flatnonzero(budgets[rows] <= step), step)
        batch = draw(rows) if rows.size else ()
        while rows.size:
            try:
                losses = take_step(state, batch)
            except NumericsError:
                failures = {}
                for pos in range(rows.size):
                    try:
                        take_step(state.take([pos]), tuple(a[pos:pos + 1] for a in batch))
                    except NumericsError as err:
                        failures[pos] = err
                if not failures:
                    raise
                keep = leave(sorted(failures), step, failures)
                batch = tuple(a[keep] for a in batch)
                continue
            last[rows] = losses
            if stop is not None:
                leave(np.flatnonzero(stop(losses)), step + 1)
            break
        if not rows.size:
            return results
        step += 1


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


@dataclass
class InrFit:
    """One fitted INR and the Adam steps it took. A fit that diverged carries
    the error, which names the step, and its last finite parameters."""

    net: FfnnParams
    mse: float
    steps: int
    error: NumericsError | None = None


def train_inr(signals, dims=INR_DIMS, steps: int = 2000, omega0: float = 30.0, rng: np.random.Generator | None = None,
              mse_threshold: float = 0.0) -> list[InrFit]:
    """Overfit one SIREN per signal with Adam at INR_LR, all as one stacked fit.

    Every net starts from the one initialization drawn from `rng`; the
    signals share a grid shape. A net stops after `steps` steps, or once its
    reconstruction MSE (taken before the step's update) drops below
    `mse_threshold`; it keeps that step's update and reports that MSE. Each
    stack row is bitwise the fit of its signal alone, and a net that
    diverges leaves the stack without touching the others.
    """
    signals = list(signals)
    net = siren_init(dims, omega0, rng or np.random.default_rng(0))
    n, n_layers = len(signals), net.n_layers
    if not n:
        return []
    state = AdamState([Tensor(np.repeat(w[None], n, axis=0)) for w in net.weights]
                      + [Tensor(np.repeat(b[None, None], n, axis=0)) for b in net.biases],
                      lr=np.full(n, INR_LR))
    coords = np.stack([s.coords for s in signals])
    values = np.stack([s.values for s in signals])

    def loss_of(params, batch):
        holder = SimpleNamespace(weights=params[:n_layers], biases=params[n_layers:],
                                 activations=net.activations)
        return mse(ffnn_forward_taped(holder, batch[0]), batch[1], axis=(-2, -1))

    rows = _fit_stack(state, np.full(n, steps), lambda r: (coords[r], values[r]), loss_of,
                      stop=lambda losses: losses < mse_threshold)
    fits = []
    for arrays, fit_mse, taken, failure in rows:
        fitted = FfnnParams(arrays[:n_layers], [b.reshape(-1) for b in arrays[n_layers:]],
                            net.activations)
        error = None
        if failure is not None:
            error = NumericsError(f"INR fit diverged at step {taken}: {failure}")
        fits.append(InrFit(fitted, float(fit_mse), taken, error))
    return fits


# -- toy CNN task ------------------------------------------------------------------

def make_blob_task(rng: np.random.Generator):
    """Two-class 8x8 grayscale task: Gaussian blob on the left vs right half,
    160 training and 200 test images.

    The class regions overlap slightly and the noise is substantial, so the
    achievable accuracy tops out well below 1.0: zoo labels then spread over
    [0.5, ~0.9] as training budgets vary, which is what a rank-correlation
    metric needs.
    """
    side, noise, overlap = 8, 0.25, 0.8  # image side, pixel noise sd, class-region overlap

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

    return batch(160) + batch(200)


@dataclass
class ToyCnnResult:
    net: CnnParams
    accuracy: float
    diverged: bool = False


def train_toy_cnn(seeds, lr=3e-3, steps=300, init_scale=1.0) -> list[ToyCnnResult]:
    """Train one toy CNN per seed on its seeded blob task, all as one stacked
    fit of the CNN_* architecture; each label is the net's held-out accuracy.

    `lr`, `steps` and `init_scale` are one value for all nets or one per
    seed; they are meant to be varied across a zoo so the resulting
    accuracies spread. Each net draws its data, initialization and batches
    from its own seed's stream, and each stack row is bitwise that net
    trained alone. Divergence is recorded, not raised: the net leaves the
    stack with chance accuracy, the flag set and its last finite parameters.
    """
    seeds = list(seeds)
    n = len(seeds)
    if not n:
        return []
    lrs, budgets, scales = (np.broadcast_to(v, (n,)) for v in (lr, steps, init_scale))
    chain, k = [1] + list(CNN_CHANNELS), CNN_KERNEL
    n_conv = len(chain) - 1
    acts = [by_name(CNN_ACTIVATION)] * n_conv
    # (fan-in, weight shape) of each conv layer, then of the 2-way head
    layers = [(chain[i] * k * k, (chain[i + 1], chain[i], k, k))
              for i in range(n_conv)] + [(chain[-1], (2, chain[-1]))]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    tasks, inits = [], []
    for rng, scale in zip(rngs, scales):
        tasks.append(make_blob_task(rng))
        inits.append([rng.normal(0, scale / math.sqrt(fan), size=shape)
                      for fan, shape in layers])
    train_x, train_y, test_x, test_y = (np.stack(arrays) for arrays in zip(*tasks))
    weights = [np.stack(layer) for layer in zip(*inits)]
    state = AdamState([Tensor(w) for w in weights]
                      + [Tensor(np.zeros((n, 1, w.shape[1]))) for w in weights],
                      lr=lrs)

    def draw(rows):
        idx = np.stack([rngs[r].integers(0, train_x.shape[1], size=32) for r in rows])
        return train_x[rows[:, None], idx], train_y[rows[:, None], idx]

    def loss_of(params, batch):
        holder = SimpleNamespace(weights=params[:n_conv + 1], biases=params[n_conv + 1:],
                                 activations=acts)
        return cross_entropy(cnn_forward_taped(holder, batch[0]), batch[1])

    results = []
    for r, (arrays, _, _, failure) in enumerate(_fit_stack(state, budgets, draw, loss_of)):
        net = CnnParams(arrays[:n_conv + 1], [b.reshape(-1) for b in arrays[n_conv + 1:]], acts)
        if failure is not None:
            results.append(ToyCnnResult(net, 0.5, diverged=True))
        else:
            preds = cnn_forward(net, test_x[r]).argmax(axis=1)
            results.append(ToyCnnResult(net, float((preds == test_y[r]).mean())))
    return results


# -- zoo serialization ---------------------------------------------------------------

# The fields every manifest entry sets, in ZooEntry's order; the rest go to `extra`.
ENTRY_FIELDS = ("id", "kind", "layer_dims", "activations", "omega0", "label", "weights_path")


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
        return {**{k: getattr(self, k) for k in ENTRY_FIELDS}, **self.extra}


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
    """Returns (entries, nets, meta); nets are FfnnParams or CnnParams. A
    malformed entry fails naming the manifest, the entry and the field."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_json(manifest_path)
    if "entries" not in manifest:
        raise ValueError(f"{manifest_path} lacks the field 'entries'")
    entries, nets = [], []
    for i, row in enumerate(manifest["entries"]):
        where = f"{manifest_path}: entry " + (repr(row["id"]) if "id" in row else f"#{i}")
        required = ENTRY_FIELDS + (("kernel_hw",) if row.get("kind") == "cnn" else ())
        missing = [k for k in required if k not in row]
        if missing:
            raise ValueError(f"{where} lacks the field {missing[0]!r}")
        entry = ZooEntry(*(row[k] for k in ENTRY_FIELDS),
                         {k: v for k, v in row.items() if k not in ENTRY_FIELDS})
        if entry.kind not in ("ffnn", "cnn"):
            raise ValueError(f"{where}: unknown zoo entry kind {entry.kind!r}")
        # an activation per layer, but for the CNN head
        n_acts = len(entry.layer_dims) - (1 if entry.kind == "ffnn" else 2)
        if len(entry.activations) != n_acts:
            raise ValueError(f"{where}: field 'activations' lists {len(entry.activations)} "
                             f"activation(s), layer_dims {entry.layer_dims} take {n_acts}")
        path = directory / entry.weights_path
        vec = _read_f32(path)
        shapes = _layer_shapes(entry)
        expected = sum(math.prod(s) + s[0] for s in shapes)
        if vec.size != expected:
            raise ValueError(f"{path}: expected {expected} float32 values for layer_dims "
                             f"{entry.layer_dims}, found {vec.size}")
        params = FfnnParams if entry.kind == "ffnn" else CnnParams
        acts = [by_name(name, entry.omega0) for name in entry.activations]
        nets.append(params(*_unflatten(vec, shapes), acts))
        entries.append(entry)
    return entries, nets, manifest.get("meta", {})


# -- zoo synthesis -------------------------------------------------------------------

def inr_source_image(zoo_seed: int, index: int, side: int = INR_SIDE) -> tuple[np.ndarray, int]:
    """Deterministic source signal for entry `index`: disks are class 0, squares 1."""
    label = index % 2
    rng = np.random.default_rng([zoo_seed, index])
    return make_shape_image("disk" if label == 0 else "square", rng, side), label


def _chunks(costs, workers: int) -> list[list[int]]:
    """Indices of `costs` split into at most `workers` chunks of about equal
    total cost (largest first, each to the lightest chunk), each in index
    order."""
    chunks = [[] for _ in range(min(workers, len(costs)))]
    loads = [0] * len(chunks)
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        c = loads.index(min(loads))
        chunks[c].append(i)
        loads[c] += costs[i]
    return [sorted(c) for c in chunks]


def _run_chunks(fn, jobs: list[dict]) -> list:
    """fn(**job) for every job: one process-pool worker each when there are
    several, otherwise in this process."""
    if len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(fn, **job) for job in jobs]
            return [f.result() for f in futures]
    return [fn(**job) for job in jobs]


def gen_inr_zoo(directory, count: int, seed: int, steps: int = 2000) -> list[ZooEntry]:
    """Fit `count` SIRENs to alternating disk/square signals; labels balanced ±1.

    The fits run as `worker_count()` stacked chunks. A failed fit is retried
    once with a shifted rng stream, then skipped with a note in the manifest
    meta.
    """
    sources = [inr_source_image(seed, i) for i in range(count)]

    def fit(indices, retry):
        chunks = [[indices[i] for i in c] for c in _chunks([1] * len(indices), worker_count())]
        # one initialization per zoo: weight variation then tracks signal content,
        # which is what makes the classification task learnable at 200 samples
        jobs = [dict(signals=[image_signal(sources[i][0]) for i in chunk], dims=INR_DIMS,
                     steps=steps, omega0=INR_OMEGA0, mse_threshold=2e-3,
                     rng=np.random.default_rng([seed, 777 + retry]))
                for chunk in chunks]
        return {i: f for chunk, fits in zip(chunks, _run_chunks(train_inr, jobs))
                for i, f in zip(chunk, fits)}

    fits = fit(list(range(count)), 0)
    failed = [i for i in range(count) if fits[i].error is not None]
    if failed:
        fits.update(fit(failed, 1))
    skipped = [i for i in range(count) if fits[i].error is not None]
    entries, nets = [], []
    act_names = ["sine"] * (len(INR_DIMS) - 2) + ["identity"]
    for index in range(count):
        if index in skipped:
            continue
        entry = ZooEntry(
            id=f"inr-{index:05d}",
            kind="ffnn",
            layer_dims=list(INR_DIMS),
            activations=act_names,
            omega0=INR_OMEGA0,
            label=float(sources[index][1]),
            weights_path=f"inr-{index:05d}.bin",
            extra={"mse": fits[index].mse, "source_index": index},
        )
        entries.append(entry)
        nets.append(fits[index].net)
    meta = {"kind": "inr-2class", "seed": seed, "image_side": INR_SIDE,
            "skipped": skipped, "count": len(entries)}
    save_zoo(directory, entries, nets, meta)
    return entries


def gen_cnn_zoo(directory, count: int, seed: int) -> list[ZooEntry]:
    """Train `count` toy CNNs with spread hyperparameters; label = test accuracy.

    Each net's hyperparameters come from its own stream ``[seed, index]``;
    the nets train as `worker_count()` stacked chunks balanced by step budget.
    """
    hyper = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        # ranges stretch from under-trained to solid so the accuracies spread
        lr = float(10 ** rng.uniform(-4.0, -0.8))
        steps = int(rng.integers(5, 300))
        init_scale = float(rng.uniform(0.3, 2.5))
        hyper.append((int(rng.integers(0, 2**31)), lr, steps, init_scale))
    chunks = _chunks([h[2] for h in hyper], worker_count())
    jobs = [dict(zip(("seeds", "lr", "steps", "init_scale"), zip(*(hyper[i] for i in chunk))))
            for chunk in chunks]
    results = {i: res for chunk, chunk_results in zip(chunks, _run_chunks(train_toy_cnn, jobs))
               for i, res in zip(chunk, chunk_results)}
    entries, nets = [], []
    for i in range(count):
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
