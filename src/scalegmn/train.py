"""Task training/evaluation loops for the three desk-scale experiments.

Each task is one `Task` record in `TASKS`: its selection metric and whether
higher is better, the head and output width it fixes, the fewest nets a split
needs to be scored, its loss and its score. Training and evaluation call the
same `loss`, and `evaluate` and `eval_report` the same `score`. The tasks are
2-class INR classification (cross-entropy, scored by accuracy), CNN
generalization prediction (MSE on held-out accuracy, scored by Kendall tau-b)
and INR editing (functional MSE of the edited nets against dilated source
signals on the signal grid; the loss is its metric, so it has no score, and
it takes no baseline and no augmentation).

Every run is deterministic under its seed and `SCALEGMN_THREADS`; metrics
stream to a CSV with header epoch,split,metric,value (each epoch's rows are
appended as it ends, so a crashed run keeps the epochs it finished) and the
best-validation checkpoint is kept.

A ScaleGMN batch is a disjoint union of graphs, and every task loss is a
mean over its nets. So `SCALEGMN_THREADS` (`worker_count()`) shards of
whole graphs can run a large training or evaluation batch on a thread pool,
each shard building its own tape; `tensor.shard_sum` joins the shard losses,
weighted by shard size, into one node whose backward sweeps the shards'
tapes on the same pool. A batch is cut into at most as many shards as keep
`MIN_SHARD_ROWS` forward-edge rows each; one shard runs on the calling
thread exactly as an unsharded batch, so width 1 starts no thread.

Checkpoint selection (`selection_key`) ranks epochs by the task's validation
metric (accuracy and Kendall tau-b higher, functional MSE lower) and breaks an
exact tie on the lower validation loss; the earliest epoch wins a full tie.
Small validation splits make such ties common: accuracy on 30 items or tau-b
on 22 takes few distinct values.

The default sign canonicalizer (`ScaleGMNConfig.sign_canon = "abs"`) was
chosen on validation loss alone: training inr-classify at the acceptance
settings on 200-INR zoos of seeds other than the acceptance zoo's, `abs`
reached the lower minimum validation loss in 3 of 4 runs against
`symmetrize` (0.0026 vs 0.0247 on zoo seed 2; 0.060 vs 0.093, 0.143 vs 0.058
and 0.193 vs 0.274 on zoo seed 1, training seeds 0-2), at about 55% of its
epoch time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .baselines import make_flat_baseline, make_stat_baseline
from .ffnn import LayerChain, OrbitElement, apply_orbit, ffnn_forward_taped, sample_orbit
from .graph import graph_for
from .harness import kendall_tau
from .model import (
    ScaleGMNConfig, ScaleGMNModel, check_tensors, read_manifest, read_params, save_checkpoint,
)
from .nn import cross_entropy, mse
from .optim import AdamState
from .tensor import (
    NumericsError, ShapeError, Tensor, constant, gradients, no_tape, recording, shard_sum,
)
from .zoo import dilate3x3, grid_coords, inr_source_image, load_zoo, worker_count

AUGMENTATIONS = ("none", "sign", "positive")
EDIT_HEAD = "equivariant-edit"

# -- the tasks ------------------------------------------------------------------------------

def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    return float((preds.argmax(axis=1) == labels.astype(int)).mean())


def tau_b(preds: np.ndarray, labels: np.ndarray) -> float:
    return kendall_tau(preds[:, 0], labels, variant="b")


@dataclass(frozen=True)
class Task:
    """Everything one task decides. `loss(pred, targets)` is a tape op on
    the batch's predictions; `score(preds, labels)` reads value arrays, and
    a task without one (`None`) is scored by its loss alone."""

    name: str
    metric: str                   # the selection metric, a key of `evaluate`
    higher_is_better: bool
    head: str                     # the ScaleGMNConfig.head it fixes
    out_dim: int                  # the ScaleGMNConfig.out_dim it fixes
    min_scored: int               # the fewest nets a split needs to be scored
    loss: Callable[[Tensor, np.ndarray], Tensor]
    score: Callable[[np.ndarray, np.ndarray], float] | None

    @property
    def edits(self) -> bool:
        """Predicts edited nets: no baseline, no augmentation, edit targets."""
        return self.head == EDIT_HEAD


TASKS = {t.name: t for t in (
    Task("inr-classify", "accuracy", higher_is_better=True, head="invariant", out_dim=2,
         min_scored=1, loss=cross_entropy, score=accuracy),
    Task("cnn-generalization", "kendall_tau", higher_is_better=True, head="invariant",
         out_dim=1, min_scored=2,  # Kendall tau ranks pairs
         loss=lambda pred, acc: mse(pred, acc[:, None]), score=tau_b),
    Task("inr-edit", "functional_mse", higher_is_better=False, head=EDIT_HEAD, out_dim=1,
         min_scored=1, loss=mse, score=None),
)}

# Fewest forward-edge rows (nets x template.n_e) a shard may hold. Measured on
# a 2-core host with BLAS on one thread: against one tape, two shards of 224
# to 720 rows ran slower or no faster, of about 900 rows even, and of 1,036
# to 1,792 rows 13-32% faster in most runs (CHANGES.md has the table).
MIN_SHARD_ROWS = 1024


@dataclass
class ExperimentConfig:
    task: str
    zoo: str
    out_dir: str = "runs/default"
    model: dict = field(default_factory=dict)      # ScaleGMNConfig overrides
    baseline: str = "none"                          # none | flat-mlp | stat-mlp
    lr: float = 2e-3
    weight_decay: float = 0.0
    epochs: int = 50
    batch_size: int = 16
    seed: int = 0
    augmentation: str = "none"                      # none | the zoo's group kind

    def __post_init__(self):
        task = TASKS.get(self.task)
        if task is None:
            raise ValueError(f"unknown task {self.task!r}")
        for key, rule, ok in (("batch_size", ">= 1", self.batch_size >= 1),
                              ("epochs", ">= 0", self.epochs >= 0),  # eval runs 0 epochs
                              ("lr", "> 0", self.lr > 0),
                              ("weight_decay", ">= 0", self.weight_decay >= 0)):
            if not ok:
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        self.model = dict(self.model)  # the head default below must not leak to the caller
        ScaleGMNConfig.from_dict(self.model)  # unknown keys fail here, before any zoo is read
        if not task.edits and self.model.get("head") == EDIT_HEAD:
            raise ValueError("equivariant-edit head requires the inr-edit task")
        for key in ("head", "out_dim"):
            required = getattr(task, key)
            given = self.model.get(key, required)
            if given != required:
                raise ValueError(f"task {self.task!r} needs model.{key} = {required!r}, "
                                 f"got {given!r}")
        if task.edits:
            self.model.setdefault("head", task.head)
            if self.baseline != "none":
                raise ValueError("baselines do not implement the editing head")
        if self.augmentation not in AUGMENTATIONS:
            raise ValueError(f"augmentation must be one of {AUGMENTATIONS}, "
                             f"got {self.augmentation!r}")
        if task.edits and self.augmentation != "none":
            # augmentation is implemented and tested for the invariant heads only
            raise ValueError(f"task {self.task!r} does not support augmentation "
                             f"{self.augmentation!r}; use \"none\"")


def split_indices(n: int, seed: int) -> dict[str, np.ndarray]:
    """Disjoint 70/15/15 split covering all n items, by seeded shuffle."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.70 * n))
    n_val = int(round(0.15 * n))
    return {
        "train": order[:n_train],
        "val": order[n_train : n_train + n_val],
        "test": order[n_train + n_val :],
    }


class TaskData:
    """A loaded zoo with graphs, labels, and split indices.

    The zoo's nets are also kept as one stack (`stack`), so its graphs, its
    orbit copies and its augmented batches are each built in one stacked
    pass."""

    def __init__(self, zoo_path, seed: int, direction: str):
        self.entries, self.nets, self.meta = load_zoo(zoo_path)
        if not self.nets:
            raise ValueError(f"zoo at {zoo_path} is empty")
        try:
            self.stack = LayerChain.stack(self.nets)
        except ShapeError as err:
            raise ShapeError(f"zoo at {zoo_path}: {err}") from None
        self.kind = self.entries[0].kind
        self.labels = np.array([e.label for e in self.entries])
        self.graphs = graph_for(self.stack, direction)
        self.template = self.graphs[0].template
        self.splits = split_indices(len(self.nets), seed)
        self.group_kind = self.template.group_kind

    def items(self, idx):
        """The indexed nets and their graphs."""
        return [self.nets[i] for i in idx], [self.graphs[i] for i in idx]

    def orbit_copy(self, idx, seed: int, direction: str):
        """Orbit-transformed copies of the indexed nets (fresh graphs)."""
        return self.transformed(idx, np.random.default_rng(seed), direction)

    def transformed(self, idx, rng, direction: str, **orbit_kw):
        """Each indexed net moved by an orbit element of the zoo's group kind,
        drawn from `rng` in index order, with its fresh graph. The elements
        move the indexed stack in one `apply_orbit`."""
        if len(idx) == 0:
            return [], []
        widths = self.template.dims[1:-1]
        elements = OrbitElement.stack(
            [sample_orbit(self.group_kind, widths, rng, **orbit_kw) for _ in idx])
        moved = apply_orbit(self.stack[np.asarray(idx)], elements)
        return list(moved), graph_for(moved, direction)


# -- run records ------------------------------------------------------------------------

def numeric_environment(width: int) -> dict:
    """What a run's numbers depend on beyond its seed: numpy, its BLAS, the
    BLAS thread setting and the shard width."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SCALEGMN_THREADS": width,
    }


def selection_key(task: str, val_stats: dict) -> tuple[float, float]:
    """Checkpoint rank of one epoch's validation stats; the lower key wins.

    The task metric decides; an equal metric falls to the lower validation
    loss. A task without a score has no separate loss: its metric is the loss.
    """
    record = TASKS[task]
    metric = val_stats[record.metric]
    return (-metric if record.higher_is_better else metric, val_stats.get("loss", metric))


# -- the training engine ------------------------------------------------------------------

class Runner:
    """Owns the model (ScaleGMN or baseline) and the per-task plumbing."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.task = task = TASKS[cfg.task]
        model_overrides = dict(cfg.model)
        self.direction = model_overrides.get("direction", "forward")
        self.data = TaskData(cfg.zoo, cfg.seed, self.direction)
        if cfg.augmentation not in ("none", self.data.group_kind):
            raise ValueError(f"augmentation {cfg.augmentation!r} does not match the zoo's "
                             f"group kind {self.data.group_kind!r}")
        defaults = dict(group_kind=self.data.group_kind, direction=self.direction,
                        head=task.head, out_dim=task.out_dim)
        defaults.update(model_overrides)
        self.model_config = ScaleGMNConfig.from_dict(defaults)
        rng = np.random.default_rng(cfg.seed)
        if cfg.baseline == "none":
            self.model = ScaleGMNModel(self.model_config, self.data.template, rng)
        elif cfg.baseline == "flat-mlp":
            self.model = make_flat_baseline(self.data.nets[0], task.out_dim, rng)
        elif cfg.baseline == "stat-mlp":
            self.model = make_stat_baseline(self.data.nets[0], task.out_dim, rng)
        else:
            raise ValueError(f"unknown baseline {cfg.baseline!r}")
        self.is_scalegmn = isinstance(self.model, ScaleGMNModel)
        self.width = worker_count()
        self._pool = None   # the shard thread pool, made on the first sharded batch
        self.params = self.model.parameters()
        self.opt = AdamState(self.params, lr=cfg.lr)
        # what each net's prediction is compared with: its label, or for an
        # edit task its dilated source signal on the grid
        self.targets = self._edit_targets() if task.edits else self.data.labels

    # -- edit-task targets: dilated source signals ---------------------------------

    def _edit_targets(self) -> np.ndarray:
        """The source signals are rebuilt from the zoo's seed, image side and
        each entry's source index; a zoo that lacks one fails naming it."""
        manifest = Path(self.cfg.zoo) / "manifest.json"
        meta = self.data.meta
        for key in ("seed", "image_side"):
            if key not in meta:
                raise ValueError(f"{manifest}: meta lacks the field {key!r}")
        side = int(meta["image_side"])
        self.grid = grid_coords(side)
        targets = []
        for e in self.data.entries:
            if "source_index" not in e.extra:
                raise ValueError(f"{manifest}: entry {e.id!r} lacks the field 'source_index'")
            image, _ = inr_source_image(int(meta["seed"]), int(e.extra["source_index"]), side)
            targets.append(dilate3x3(image).reshape(-1, 1))
        return np.stack(targets)

    # -- prediction paths ------------------------------------------------------------

    def _predict(self, nets, graphs) -> Tensor:
        """The task's prediction, on the tape: the invariant head's output,
        or the edited nets' signals on the grid."""
        if self.task.edits:
            return ffnn_forward_taped(self.model.edit(graphs, nets), self.grid)
        return self.model.forward(graphs if self.is_scalegmn else nets)

    def _shards(self, count: int) -> list[slice]:
        """A batch of `count` nets cut into the most shards, up to the width,
        that each hold at least MIN_SHARD_ROWS forward-edge rows."""
        shards = 1
        if self.is_scalegmn:
            per_shard = -(-MIN_SHARD_ROWS // self.data.template.n_e)  # fewest nets a shard holds
            shards = max(1, min(self.width, count // per_shard))
        size, extra = divmod(count, shards)
        bounds = [k * size + min(k, extra) for k in range(shards + 1)]
        return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def _run(self, fn, items) -> list:
        """[fn(x) for x in items]: on the calling thread for one item, else on
        the shard pool, returning once every call has finished. A caller
        inside `no_tape()` has each pool call enter it too: the mode is per
        thread, and a pool thread leaves it again when its call returns."""
        if len(items) == 1:
            return [fn(items[0])]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.width, thread_name_prefix="scalegmn-shard")
        call = fn
        if not recording():
            def call(x):
                with no_tape():
                    return fn(x)
        futures = [self._pool.submit(call, x) for x in items]
        wait(futures)
        return [f.result() for f in futures]

    def _loss(self, nets, graphs, targets) -> Tensor:
        """Task loss of the given nets: one tape, or a shard_sum of shard tapes."""
        def shard_loss(s):
            return self.task.loss(self._predict(nets[s], graphs[s]), targets[s])

        shards = self._shards(len(nets))
        losses = self._run(shard_loss, shards)
        if len(losses) == 1:
            return losses[0]
        return shard_sum(losses, [(s.stop - s.start) / len(nets) for s in shards],
                         self.params, run=self._run)

    def _predictions(self, nets, graphs) -> np.ndarray:
        """Predictions of the given nets, computed by shards with no tape
        recorded."""
        with no_tape():
            preds = self._run(lambda s: self._predict(nets[s], graphs[s]).data,
                              self._shards(len(nets)))
        return preds[0] if len(preds) == 1 else np.concatenate(preds)

    def _batch_loss(self, idx) -> Tensor:
        if self.cfg.augmentation != "none":
            # orbit elements are drawn for the whole batch, before it is sharded
            nets, graphs = self.data.transformed(
                idx, self._aug_rng, self.direction, permute=False)
        else:
            nets, graphs = self.data.items(idx)
        return self._loss(nets, graphs, self.targets[idx])

    # -- metrics -----------------------------------------------------------------------

    def evaluate(self, split: str) -> dict[str, float]:
        """The task's metrics on one split; a split too small to score fails
        naming the zoo, the split and its size."""
        self._check_scorable(split)
        idx = self.data.splits[split]
        nets, graphs = self.data.items(idx)
        task, targets = self.task, self.targets[idx]
        if task.score is None:
            with no_tape():
                loss = self._loss(nets, graphs, targets)
            return {task.metric: float(loss.data)}
        preds = self._predictions(nets, graphs)
        return {task.metric: task.score(preds, targets),
                "loss": float(task.loss(constant(preds), targets).data)}

    def metric_name(self) -> str:
        return self.task.metric

    def _check_scorable(self, split: str) -> None:
        """Raise unless `split` holds the task's `min_scored` nets."""
        least = self.task.min_scored
        size = len(self.data.splits[split])
        if size < least:
            raise ValueError(f"zoo {self.cfg.zoo}: the {split} split holds {size} net(s); "
                             f"{self.cfg.task} needs at least {least}, use a larger zoo")

    # -- the loop -----------------------------------------------------------------------

    def train(self) -> dict:
        cfg = self.cfg
        # every epoch scores the train and val splits
        for split in ("train", "val"):
            self._check_scorable(split)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([cfg.seed, 1])
        self._aug_rng = np.random.default_rng([cfg.seed, 2])
        metrics_path = out_dir / "metrics.csv"
        self._write_csv(metrics_path, [("epoch", "split", "metric", "value")], mode="w")
        train_idx = self.data.splits["train"]
        metric = self.metric_name()
        best_key, best_stats, best_epoch = (math.inf, math.inf), {}, -1
        diverged = False
        epochs_run = 0
        t_start = time.perf_counter()

        def record(epoch: int) -> dict:
            stats, rows = {}, []
            for split in ("train", "val"):
                stats = self.evaluate(split)
                rows.extend((epoch, split, k, v) for k, v in stats.items())
            self._write_csv(metrics_path, rows)  # written out before the next epoch starts
            return stats  # val stats (last split evaluated)

        # epoch 0 is the initialization; zero-epoch runs keep exactly that
        for epoch in range(cfg.epochs + 1):
            if epoch:
                epochs_run = epoch
                order = rng.permutation(train_idx)
                try:
                    for start in range(0, len(order), cfg.batch_size):
                        batch = order[start : start + cfg.batch_size]
                        loss = self._batch_loss(batch)
                        grads = gradients(loss, self.params)
                        if cfg.weight_decay:
                            grads = [g + cfg.weight_decay * p.data
                                     for g, p in zip(grads, self.params)]
                        self.opt.step(grads)
                except NumericsError:
                    diverged = True
            val_stats = record(epoch)
            key = selection_key(cfg.task, val_stats)
            if key < best_key:
                best_key, best_stats, best_epoch = key, val_stats, epoch
                self._save(out_dir / "checkpoint")
            if diverged:
                break
        summary = {
            "task": cfg.task,
            "baseline": cfg.baseline,
            "epochs_run": epochs_run,
            "best_val_" + metric: best_stats.get(metric),
            # a task without a score has no separate loss: its metric is the loss
            "best_val_loss": best_stats.get("loss", best_stats.get(metric)),
            "best_epoch": best_epoch,
            "diverged": diverged,
            "seed": cfg.seed,
            **numeric_environment(self.width),
            "train_wall_s": time.perf_counter() - t_start,
        }
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=1),
                                              encoding="utf-8")
        return summary

    def _save(self, path: Path):
        if self.is_scalegmn:
            save_checkpoint(self.model, path)
        else:
            path.mkdir(parents=True, exist_ok=True)
            named = dict(self.model.named_parameters())
            np.savez(path / "baseline.npz",
                     **{k: v.data for k, v in named.items()})

    def load(self, path: Path):
        """Assign every parameter the saved tensor of its name. Missing,
        unexpected or mis-shaped tensors fail naming the checkpoint file."""
        params = dict(self.model.named_parameters())
        shapes = {name: p.shape for name, p in params.items()}
        if self.is_scalegmn:
            saved = read_params(path, read_manifest(path)[1], shapes)
        else:
            source = Path(path) / "baseline.npz"
            with np.load(source) as blob:
                saved = {name: blob[name] for name in blob.files}
            check_tensors(source, shapes, {name: a.shape for name, a in saved.items()})
        for name, p in params.items():
            p.assign(saved[name])

    @staticmethod
    def _write_csv(path: Path, rows, mode: str = "a"):
        with open(path, mode, newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)

    # -- evaluation with orbit copies ------------------------------------------------------

    def eval_report(self, split: str = "test", with_orbit_copy: bool = False,
                    orbit_seed: int = 1234) -> dict:
        idx = self.data.splits[split]
        report = {"split": split, "n": int(len(idx))}
        report.update(self.evaluate(split))
        if with_orbit_copy:
            key = "orbit_" + self.task.metric
            if self.task.score is None:
                report[key] = None  # edited nets differ by the orbit
            else:
                nets, graphs = self.data.orbit_copy(idx, orbit_seed, self.direction)
                report[key] = self.task.score(self._predictions(nets, graphs),
                                              self.targets[idx])
        return report
