"""Datapoint feedforward networks: evaluation, symmetry orbits, canonicalization.

These are the networks the metanetwork consumes. An orbit element is a
per-hidden-layer (permutation, diagonal multiplier) pair; applying it to the
parameters leaves the represented function unchanged, which is the property
every symmetry test downstream certifies.

`LayerChain` is the one container FFNNs and CNNs share: per-layer weights
[out, in, *kernel], biases [out] and activations, the last layer being the
output layer. Each kind only adds its shape checks (`FfnnParams` here,
`cnn.CnnParams`), so `copy`, `flatten` and `apply_orbit` are written once.

There is one evaluator: `ffnn_forward` is `ffnn_forward_taped` on constant
leaves, so it builds no tape and computes exactly what training
differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import tensor as T
from .activations import KIND_NONE, KIND_POSITIVE, KIND_SIGN, ActivationDescriptor, in_group
from .tensor import ShapeError, Tensor

MIN_SCALE = 1e-6  # sampled positive multipliers are resampled below this


@dataclass
class LayerChain:
    """Parameters as a chain of layers: `weights[l]` is [out, in, *kernel] and
    maps layer l to l + 1, `biases[l]` is [out]. Subclasses check the shapes
    of their kind in `__post_init__`."""

    weights: list
    biases: list
    activations: list[ActivationDescriptor]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self):
        return type(self)([w.copy() for w in self.weights],
                          [b.copy() for b in self.biases], list(self.activations))

    def flatten(self) -> np.ndarray:
        """All parameters as one vector: W1 (row-major), b1, ..., WL, bL."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.reshape(-1))
            parts.append(b)
        return np.concatenate(parts)


@dataclass
class FfnnParams(LayerChain):
    """Per-layer (weight [out, in], bias, activation); weights[i] maps layer i to i+1."""

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("layer lists must have equal length")
        if len(self.weights) < 1:
            raise ShapeError("need at least one layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} malformed")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(f"layer {i}: input width breaks the chain")


def ffnn_forward(net: FfnnParams, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on inputs x of shape [d0] or [n, d0], taped on constants."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.shape[1] != net.dims[0]:
        raise ShapeError(f"input width {h.shape[1]} != network input dim {net.dims[0]}")
    leaves = type(net)([T.constant(w) for w in net.weights],
                       [T.constant(b) for b in net.biases], net.activations)
    out = ffnn_forward_taped(leaves, h).data
    return out[0] if np.asarray(x).ndim == 1 else out


def ffnn_forward_taped(net, x: np.ndarray, collect=None):
    """Tape-recorded forward with Tensor parameters; returns the output Tensor.

    `net` may hold Tensors or raw arrays (lifted to leaves), for one net or
    for a stack of B nets (weights [B, out, in], biases [B, 1, out]); a stack
    maps the shared inputs x to outputs [B, n, d_out]. When `collect`
    is a list, the per-layer (pre-activation, post-activation) tensors are
    appended to it so their gradients can be read after a backward sweep.
    """
    h = T.constant(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    for w, b, act in zip(net.weights, net.biases, net.activations):
        wt = w if isinstance(w, Tensor) else Tensor(w)
        bt = b if isinstance(b, Tensor) else Tensor(b)
        z = act.preact_t(T.linear(h, wt), bt)
        h = act.apply(z)
        if collect is not None:
            collect.append((z, h))
    return h


@dataclass
class OrbitElement:
    """One (P_l, Q_l) choice per hidden layer; identity is forced at the ends.

    `perms[l][i]` is the new position of old neuron i in hidden layer l+1;
    `scales[l][i]` is the multiplier q applied to old neuron i.
    """

    perms: list[np.ndarray]
    scales: list[np.ndarray]
    kind: str = KIND_SIGN

    def __post_init__(self):
        for p, q in zip(self.perms, self.scales):
            if sorted(p.tolist()) != list(range(len(p))):
                raise ValueError("perm is not a bijection")
            if len(p) != len(q):
                raise ShapeError("perm/scale length mismatch")
            if not np.all(in_group(self.kind, q)):
                raise ValueError(f"multiplier outside the {self.kind} scaling group")

    @staticmethod
    def identity_for(widths: list[int], kind: str = KIND_SIGN) -> "OrbitElement":
        return OrbitElement(
            [np.arange(w) for w in widths], [np.ones(w) for w in widths], kind
        )

    def compose(self, first: "OrbitElement") -> "OrbitElement":
        """The single element equal to applying `first` then self."""
        perms, scales = [], []
        for p2, q2, p1, q1 in zip(self.perms, self.scales, first.perms, first.scales):
            perms.append(p2[p1])
            scales.append(q2[p1] * q1)
        return OrbitElement(perms, scales, self.kind)


def apply_orbit(net: LayerChain, g: OrbitElement) -> LayerChain:
    """Transform parameters by the orbit element; the function is preserved.

    New row i of layer l gets old row inv(i) scaled by q; columns are divided
    by the previous layer's multipliers. Input and output neurons stay fixed.
    Trailing kernel axes ride along, so a CNN channel moves as a neuron does.
    """
    hidden = net.dims[1:-1]
    if [len(p) for p in g.perms] != hidden:
        raise ShapeError(f"orbit widths {[len(p) for p in g.perms]} != hidden dims {hidden}")
    for l, (q, act) in enumerate(zip(g.scales, net.activations)):
        if not np.all(in_group(act.kind, q)):
            raise ValueError(
                f"hidden layer {l}: multiplier outside the {act.name} scaling group"
            )
    src = net.copy()
    n_hidden = len(hidden)
    weights, biases = [], []
    for l, (w, b) in enumerate(zip(src.weights, src.biases)):
        kernel_axes = (1,) * (w.ndim - 2)
        if l < n_hidden:  # rows of layer l+1 are hidden: scale + permute rows
            q, p = g.scales[l], g.perms[l]
            inv = np.argsort(p)
            w = (q.reshape(-1, 1, *kernel_axes) * w)[inv]
            b = (q * b)[inv]
        if l > 0:  # columns follow the previous hidden layer
            q_prev, p_prev = g.scales[l - 1], g.perms[l - 1]
            inv_prev = np.argsort(p_prev)
            w = (w / q_prev.reshape(1, -1, *kernel_axes))[:, inv_prev]
        weights.append(w)
        biases.append(b)
    return type(net)(weights, biases, src.activations)


def sample_orbit(kind: str, widths: list[int], rng: np.random.Generator,
                 lam: float = 1.0, permute: bool = True) -> OrbitElement:
    """Random orbit element: sign entries are fair coin flips, positive entries
    are Exponential(rate=lam) resampled away from zero; permutations uniform."""
    perms, scales = [], []
    for w in widths:
        perms.append(rng.permutation(w) if permute else np.arange(w))
        if kind == KIND_SIGN:
            scales.append(rng.choice([-1.0, 1.0], size=w))
        elif kind == KIND_POSITIVE:
            if lam <= 0:
                raise ValueError("lam must be > 0 for positive scaling")
            q = rng.exponential(scale=1.0 / lam, size=w)
            while np.any(q < MIN_SCALE):
                bad = q < MIN_SCALE
                q[bad] = rng.exponential(scale=1.0 / lam, size=int(bad.sum()))
            scales.append(q)
        elif kind == KIND_NONE:
            scales.append(np.ones(w))
        else:
            raise ValueError(f"unknown group kind {kind!r}")
    return OrbitElement(perms, scales, kind)


def bias_shift(b: float, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Canonicalize the phase of one sine neuron sin(omega0 * w.x + b).

    Returns (b', w') with sin(omega0 * w'.x + b') identical to the original
    for all x and b' in (-pi/2, pi/2] up to the single boundary point -pi/2
    (reached only when the accumulated sign is -1 and the reduced phase is
    exactly pi/2). Idempotent.
    """
    w = np.asarray(w, dtype=np.float64)
    s = 1.0
    if b < 0:
        b, w, s = -b, -w, -s
    if b > 2 * math.pi:
        b = math.fmod(b, 2 * math.pi)
    if math.pi < b <= 2 * math.pi:
        b -= math.pi
        s = -s
    if b > math.pi / 2:
        b -= math.pi
        s = -s
    return s * b, s * w


def shift_sine_biases(net: FfnnParams) -> FfnnParams:
    """Apply bias_shift to every hidden sine neuron; other layers untouched."""
    out = net.copy()
    for l in range(net.n_layers - 1):
        if net.activations[l].name != "sine":
            continue
        for i in range(out.biases[l].shape[0]):
            b2, w2 = bias_shift(out.biases[l][i], out.weights[l][i])
            out.biases[l][i] = b2
            out.weights[l][i] = w2
    return out


def canonicalize_net(net: FfnnParams) -> FfnnParams:
    """Map the net to a canonical representative of its scaling orbit.

    Positive-scale layers divide each hidden neuron's incoming (row, bias) by
    its norm; sign layers flip so the largest-magnitude incoming entry is
    positive. Outgoing weights absorb the inverse. Layers are processed from
    the input side so each step sees already-canonical columns.
    """
    out = net.copy()
    for l in range(net.n_layers - 1):
        act = net.activations[l]
        row_block = np.concatenate([out.weights[l], out.biases[l][:, None]], axis=1)
        if act.kind == KIND_POSITIVE:
            norms = np.linalg.norm(row_block, axis=1)
            q = np.where(norms > MIN_SCALE, 1.0 / np.maximum(norms, MIN_SCALE), 1.0)
        elif act.kind == KIND_SIGN:
            lead = row_block[np.arange(row_block.shape[0]), np.argmax(np.abs(row_block), axis=1)]
            q = np.where(lead < 0, -1.0, 1.0)
        else:
            continue
        out.weights[l] = q[:, None] * out.weights[l]
        out.biases[l] = q * out.biases[l]
        out.weights[l + 1] = out.weights[l + 1] / q[None, :]
    return out

