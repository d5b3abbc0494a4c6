"""Datapoint feedforward networks: evaluation, symmetry orbits, canonicalization.

These are the networks the metanetwork consumes. An orbit element is a
per-hidden-layer (permutation, diagonal multiplier) pair; applying it to the
parameters leaves the represented function unchanged, which is the property
every symmetry test downstream certifies.

`LayerChain` is the one container FFNNs and CNNs share: per-layer weights
[out, in, *kernel], biases [out] and activations, the last layer being the
output layer. Each kind only adds its shape checks (`FfnnParams` here,
`cnn.CnnParams`), so `copy`, `flatten` and `apply_orbit` are written once.

Orbits act on stacks. K nets of one architecture are one chain with a
leading stack axis (`LayerChain.stack`), K orbit elements one element with
perms and scales [K, w] (`OrbitElement.stack`), and `apply_orbit` moves the
whole stack in one pass per layer; a single net or element is the K = 1
case. The certify trials, the orbit copies and the augmented batches all
take this one path, and `graph.build_graph` reads a stack's features the
same way. `shift_sine_biases` applies the sine bias-shift rule to a whole
stack at once; `bias_shift` is that rule on one neuron.

There is one evaluator: `ffnn_forward` is `ffnn_forward_taped` on constant
leaves, so it builds no tape and computes exactly what training
differentiates.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import tensor as T
from .activations import ActivationDescriptor, group
from .tensor import ShapeError, Tensor


@dataclass
class LayerChain:
    """Parameters as a chain of layers: `weights[l]` is [out, in, *kernel] and
    maps layer l to l + 1, `biases[l]` is [out]. Subclasses check the shapes
    of their kind in `__post_init__`.

    A stack of K nets of one architecture is the same chain with a leading
    axis on every array: weights [K, out, in, *kernel], biases [K, out]. A
    net is the K = 1 case without the axis; `stacked` tells them apart by
    the biases' rank. Indexing or iterating a stack gives its nets.
    """

    weights: list
    biases: list
    activations: list[ActivationDescriptor]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def stacked(self) -> bool:
        return self.biases[0].ndim == 2

    @property
    def size(self) -> int:
        """How many nets the chain holds: K for a stack, 1 for a net."""
        return self.biases[0].shape[0] if self.stacked else 1

    @property
    def dims(self) -> list[int]:
        s = int(self.stacked)
        return [self.weights[0].shape[s + 1]] + [w.shape[s] for w in self.weights]

    def _stack_axes(self) -> int:
        """1 for a stack, 0 for a net, once every layer holds the same K."""
        s = int(self.stacked)
        k = self.biases[0].shape[:s]
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape[:s] != k or b.shape[:s] != k:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} do not "
                                 f"stack {k[0]} nets as layer 0 does")
        return s

    def copy(self):
        return type(self)([w.copy() for w in self.weights],
                          [b.copy() for b in self.biases], list(self.activations))

    def flatten(self) -> np.ndarray:
        """All parameters as one vector: W1 (row-major), b1, ..., WL, bL; a
        stack gives one such row per net, [K, P]."""
        lead = self.biases[0].shape[:-1]
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.reshape(lead + (-1,)))
            parts.append(b)
        return np.concatenate(parts, axis=-1)

    def as_stack(self):
        """This stack, or this net as a stack of one (views either way)."""
        if self.stacked:
            return self
        return type(self)([w[None] for w in self.weights], [b[None] for b in self.biases],
                          list(self.activations))

    def __getitem__(self, k):
        """Net k of a stack, or the sub-stack that an index array selects."""
        if not self.stacked:
            raise TypeError("a net is not a stack; index a stack of nets")
        return type(self)([w[k] for w in self.weights], [b[k] for b in self.biases],
                          list(self.activations))

    def __iter__(self):
        return iter([self[k] for k in range(self.size)])

    @staticmethod
    def stack(chains) -> "LayerChain":
        """Nets and stacks of one architecture joined, in order, into one stack."""
        chains = list(chains)
        first = chains[0]
        shapes = [w.shape[int(first.stacked):] for w in first.weights]
        for i, c in enumerate(chains):
            mine = [w.shape[int(c.stacked):] for w in c.weights]
            if type(c) is not type(first) or mine != shapes or c.activations != first.activations:
                raise ShapeError(
                    f"net {i} ({type(c).__name__}, weights {mine}, activations "
                    f"{[a.name for a in c.activations]}) does not share net 0's architecture "
                    f"({type(first).__name__}, weights {shapes}, activations "
                    f"{[a.name for a in first.activations]})")
        parts = [c.as_stack() for c in chains]
        return type(first)(
            [np.concatenate(ws) for ws in zip(*(p.weights for p in parts))],
            [np.concatenate(bs) for bs in zip(*(p.biases for p in parts))],
            list(first.activations))


@dataclass
class FfnnParams(LayerChain):
    """Per-layer (weight [out, in], bias, activation); weights[i] maps layer i to i+1."""

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("layer lists must have equal length")
        if len(self.weights) < 1:
            raise ShapeError("need at least one layer")
        s = self._stack_axes()
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 + s or b.ndim != 1 + s or w.shape[s] != b.shape[s]:
                raise ShapeError(f"layer {i}: weight {w.shape} / bias {b.shape} malformed")
            if i > 0 and w.shape[s + 1] != self.weights[i - 1].shape[s]:
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
    `scales[l][i]` is the multiplier q applied to old neuron i. A stack of K
    elements carries a leading axis: perms and scales [K, w] per layer.
    An element names no group: `apply_orbit` checks, where it acts, that each
    permutation is a bijection and each multiplier lies in its own layer's
    group, once for a whole stack.
    """

    perms: list[np.ndarray]
    scales: list[np.ndarray]

    @property
    def stacked(self) -> bool:
        return bool(self.perms) and self.perms[0].ndim == 2

    @property
    def size(self) -> int:
        """How many elements: K for a stack, 1 for an element."""
        return self.perms[0].shape[0] if self.stacked else 1

    @staticmethod
    def identity_for(widths: list[int]) -> "OrbitElement":
        return OrbitElement([np.arange(w) for w in widths], [np.ones(w) for w in widths])

    @staticmethod
    def stack(elements) -> "OrbitElement":
        """Elements (or stacks) of one widths joined, in order, into one stack."""
        elements = list(elements)
        widths = [p.shape[-1] for p in elements[0].perms]
        for i, e in enumerate(elements):
            if [p.shape[-1] for p in e.perms] != widths:
                raise ShapeError(f"orbit element {i} (widths {[p.shape[-1] for p in e.perms]}) "
                                 f"does not share element 0's widths ({widths})")
        return OrbitElement(
            [np.concatenate([p.reshape(-1, w) for p in ps]) for w, ps in
             zip(widths, zip(*(e.perms for e in elements)))],
            [np.concatenate([q.reshape(-1, w) for q in qs]) for w, qs in
             zip(widths, zip(*(e.scales for e in elements)))])

    def compose(self, first: "OrbitElement") -> "OrbitElement":
        """The single element equal to applying `first` then self."""
        perms, scales = [], []
        for p2, q2, p1, q1 in zip(self.perms, self.scales, first.perms, first.scales):
            perms.append(p2[p1])
            scales.append(q2[p1] * q1)
        return OrbitElement(perms, scales)


def apply_orbit(net: LayerChain, g: OrbitElement) -> LayerChain:
    """Transform parameters by the orbit element; the function is preserved.

    New row i of layer l gets old row inv(i) scaled by q; columns are divided
    by the previous layer's multipliers. Input and output neurons stay fixed.
    Trailing kernel axes ride along, so a CNN channel moves as a neuron does.

    Nets and elements may be stacks: K nets under K elements, one net under
    K elements or K nets under one element give a stack of K nets, a net
    under an element gives a net. Each layer's rows and columns are one
    multiply (or divide) and one `take_along_axis` over the whole stack.
    """
    hidden = net.dims[1:-1]
    widths = [p.shape[-1] for p in g.perms]
    if widths != hidden:
        raise ShapeError(f"orbit widths {widths} != hidden dims {hidden}")
    k = max(net.size, g.size)
    if {net.size, g.size} - {1, k}:
        raise ShapeError(f"{net.size} nets under {g.size} orbit elements")
    scales, inverse = [], []
    for l, (p, q, act) in enumerate(zip(g.perms, g.scales, net.activations)):
        if p.shape != q.shape or p.shape[:-1] != g.perms[0].shape[:-1]:
            raise ShapeError(f"hidden layer {l}: perms {p.shape} / scales {q.shape} malformed")
        p, q = p.reshape(-1, p.shape[-1]), q.reshape(-1, q.shape[-1])
        inv = np.argsort(p, axis=-1)
        if not np.all(np.take_along_axis(p, inv, axis=-1) == np.arange(p.shape[-1])):
            raise ValueError(f"hidden layer {l}: perm is not a bijection")
        if not np.all(group(act.kind).member(q)):
            raise ValueError(
                f"hidden layer {l}: multiplier outside the {act.name} scaling group"
            )
        scales.append(q)
        inverse.append(inv)
    src = net.as_stack()
    n_hidden = len(hidden)
    weights, biases = [], []
    for l, (w, b) in enumerate(zip(src.weights, src.biases)):
        kernel_axes = (1,) * (w.ndim - 3)
        if l < n_hidden:  # rows of layer l+1 are hidden: scale + permute rows
            q, inv = scales[l], inverse[l]
            w = np.take_along_axis(q.reshape(q.shape + (1,) + kernel_axes) * w,
                                   inv.reshape(inv.shape + (1,) + kernel_axes), axis=1)
            b = np.take_along_axis(q * b, inv, axis=1)
        else:  # the output layer's biases stay
            b = np.broadcast_to(b, (k,) + b.shape[1:]).copy()
        if l > 0:  # columns follow the previous hidden layer
            q, inv = scales[l - 1], inverse[l - 1]
            cols = (q.shape[0], 1, q.shape[1]) + kernel_axes
            w = np.take_along_axis(w / q.reshape(cols), inv.reshape(cols), axis=2)
        elif not n_hidden:  # a single layer has no hidden neuron to move
            w = np.broadcast_to(w, (k,) + w.shape[1:]).copy()
        weights.append(w)
        biases.append(b)
    out = type(net)(weights, biases, list(net.activations))
    return out if net.stacked or g.stacked else out[0]


def sample_orbit(kinds: str | list[str], widths: list[int], rng: np.random.Generator,
                 permute: bool = True) -> OrbitElement:
    """Random orbit element: per hidden layer, a uniform permutation (the
    identity when `permute` is off), then multipliers from the draw of its
    group; `kinds` names one group for all hidden layers or one for each."""
    if isinstance(kinds, str):
        kinds = [kinds] * len(widths)
    perms, scales = [], []
    for kind, w in zip(kinds, widths, strict=True):
        perms.append(rng.permutation(w) if permute else np.arange(w))
        scales.append(group(kind).draw(rng, w))
    return OrbitElement(perms, scales)


def bias_shift(b: float, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Canonicalize the phase of one sine neuron sin(omega0 * w.x + b).

    Returns (b', w') with sin(omega0 * w'.x + b') identical to the original
    for all x and b' in (-pi/2, pi/2] up to the single boundary point -pi/2
    (reached only when the accumulated sign is -1 and the reduced phase is
    exactly pi/2). Idempotent. One neuron of `_phase_shift`.
    """
    b2, w2 = _phase_shift(np.array([b], dtype=np.float64),
                          np.asarray(w, dtype=np.float64)[None])
    return float(b2[0]), w2[0]


def _phase_shift(b: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bias-shift rule on every neuron at once: biases b [...] with their
    incoming weights w [..., *fan_in]. A negative phase flips the neuron, a
    phase past 2 pi is reduced, one in (pi, 2 pi] or (pi/2, pi] moves down by
    pi, and each flip or shift negates the sign s that scales (b, w) at the
    end."""
    neg = b < 0
    b = np.where(neg, -b, b)
    s = np.where(neg, -1.0, 1.0)
    b = np.where(b > 2 * math.pi, np.fmod(b, 2 * math.pi), b)
    down = (math.pi < b) & (b <= 2 * math.pi)
    b, s = np.where(down, b - math.pi, b), np.where(down, -s, s)
    down = b > math.pi / 2
    b, s = np.where(down, b - math.pi, b), np.where(down, -s, s)
    rows = s.reshape(s.shape + (1,) * (w.ndim - s.ndim))
    return s * b, rows * np.where(neg.reshape(rows.shape), -w, w)


def shift_sine_biases(net: FfnnParams) -> FfnnParams:
    """Apply the bias shift to every hidden sine neuron of a net or a stack;
    other layers untouched."""
    out = net.copy()
    for l in range(net.n_layers - 1):
        if net.activations[l].name == "sine":
            out.biases[l], out.weights[l] = _phase_shift(net.biases[l], net.weights[l])
    return out


def canonicalize_net(net: FfnnParams) -> FfnnParams:
    """Map the net to a canonical representative of its scaling orbit.

    Each hidden neuron's incoming (row, bias) is scaled by its group's
    `representative` (positive: unit norm; sign: largest-magnitude entry
    positive). Outgoing weights absorb the inverse. Layers are processed from
    the input side so each step sees already-canonical columns.
    """
    out = net.copy()
    for l in range(net.n_layers - 1):
        representative = group(net.activations[l].kind).representative
        if representative is None:
            continue
        q = representative(np.concatenate([out.weights[l], out.biases[l][:, None]], axis=1))
        out.weights[l] = q[:, None] * out.weights[l]
        out.biases[l] = q * out.biases[l]
        out.weights[l + 1] = out.weights[l + 1] / q[None, :]
    return out

