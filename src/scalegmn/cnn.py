"""Small convolutional classifiers: evaluation over the layer chain.

Architecture handled here: a stack of valid (no padding) convolutions with a
pointwise activation, global average pooling, then one linear head. Channel
permutations and per-channel scalings of hidden conv layers preserve the
computed function exactly like hidden-neuron transforms do for FFNNs; the
head columns absorb the inverse because pooling is linear. `CnnParams` is a
`ffnn.LayerChain`: its weights are the conv kernels [out, in, kh, kw], then
the head [classes, c] as the last layer, with one bias per layer and one
activation per conv layer (a stack of K nets adds a leading K axis to
each). So `ffnn.apply_orbit` is its orbit action too.

There is one evaluator: `cnn_forward` is `cnn_forward_taped` on constant
leaves, so zoo labels and function-preservation checks compute exactly what
training differentiates, and build no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .ffnn import LayerChain
from .tensor import ShapeError, Tensor


@dataclass
class CnnParams(LayerChain):
    """Conv kernels [out, in, kh, kw], then the linear head [classes, c]; one
    bias per layer and one activation per conv layer."""

    def __post_init__(self):
        n = len(self.weights)
        if n < 2 or len(self.biases) != n:
            raise ShapeError(f"need conv layers and a head with one bias each, got {n} "
                             f"weight(s) and {len(self.biases)} bias(es)")
        if len(self.activations) != n - 1:
            raise ShapeError(f"{n - 1} conv layer(s) but {len(self.activations)} activation(s)")
        s = self._stack_axes()
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            head = i == n - 1
            layer = f"head (layer {i})" if head else f"conv layer {i}"
            if w.ndim != (2 if head else 4) + s or b.ndim != 1 + s or w.shape[s] != b.shape[s]:
                raise ShapeError(f"{layer}: weight {w.shape} / bias {b.shape} malformed")
            if i > 0 and w.shape[s + 1] != self.weights[i - 1].shape[s]:
                raise ShapeError(f"{layer}: {w.shape[s + 1]} input channels, but layer {i - 1} "
                                 f"has {self.weights[i - 1].shape[s]}")

    @property
    def channels(self) -> list[int]:
        return self.dims[:-1]

    @property
    def kernel_hw(self) -> tuple[int, int]:
        return self.weights[0].shape[-2], self.weights[0].shape[-1]


def cnn_forward(net: CnnParams, image: np.ndarray) -> np.ndarray:
    """Logits for image(s) of shape [c, H, W] or [n, c, H, W], taped on constants."""
    x = np.asarray(image, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or x.shape[1] != net.channels[0]:
        raise ShapeError(f"image shape {x.shape} does not match {net.channels[0]} input channels")
    leaves = type(net)([T.constant(w) for w in net.weights],
                       [T.constant(b) for b in net.biases], net.activations)
    logits = cnn_forward_taped(leaves, x).data
    return logits[0] if single else logits


def cnn_forward_taped(net, images: np.ndarray) -> Tensor:
    """Differentiable forward over a chain of Tensors; images are constants.

    The conv layers are ``weights[:-1]``, the head is the last layer. Images
    arrive as [n, c, H, W]; internally channels-last, so each conv layer is
    one ``T.conv2d_valid`` node (a 2-D matmul per kernel offset, summed in
    row-major offset order) and a reshape back to images. A stack of N nets,
    each with its own images, takes images [N, n, c, H, W], kernels
    [N, out, in, kh, kw], head weights [N, classes, c] and biases
    [N, 1, out]; it returns logits [N, n, classes], each row bitwise those
    of its net alone.
    """
    x = T.constant(np.moveaxis(np.asarray(images, dtype=np.float64), -3, -1))
    for k, b, act in zip(net.weights[:-1], net.biases[:-1], net.activations):
        c_out, _, kh, kw = k.shape[-4:]
        n, h, w, _ = x.shape[-4:]
        rows = T.conv2d_valid(x, k, b)
        x = act.apply(T.reshape(rows, rows.shape[:-2] + (n, h - kh + 1, w - kw + 1, c_out)))
    n, h, w, c = x.shape[-4:]
    pooled = T.mean_(T.reshape(x, x.shape[:-4] + (n, h * w, c)), axis=-2)
    return T.linear(pooled, net.weights[-1], net.biases[-1])
