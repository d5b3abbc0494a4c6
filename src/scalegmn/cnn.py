"""Small convolutional classifiers: evaluation and the layer-chain view.

Architecture handled here: a stack of valid (no padding) convolutions with a
pointwise activation, global average pooling, then one linear head. Channel
permutations and per-channel scalings of hidden conv layers preserve the
computed function exactly like hidden-neuron transforms do for FFNNs; the
head columns absorb the inverse because pooling is linear. `CnnParams` is a
`ffnn.LayerChain` (the head is its last layer, with no kernel axes), so
`ffnn.apply_orbit` is its orbit action too.

There is one evaluator: `cnn_forward` is `cnn_forward_taped` on constant
leaves, so zoo labels and function-preservation checks compute exactly what
training differentiates, and build no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .activations import ActivationDescriptor
from .ffnn import LayerChain
from .tensor import ShapeError, Tensor


@dataclass
class CnnParams(LayerChain):
    """Per-conv-layer kernels [out, in, kh, kw] and biases, plus the linear head."""

    kernels: list[np.ndarray]
    conv_biases: list[np.ndarray]
    activations: list[ActivationDescriptor]
    head_weight: np.ndarray  # [n_classes, last_channels]
    head_bias: np.ndarray

    def __post_init__(self):
        if not (len(self.kernels) == len(self.conv_biases) == len(self.activations)):
            raise ShapeError("conv layer lists must align")
        for i, (k, b) in enumerate(zip(self.kernels, self.conv_biases)):
            if k.ndim != 4 or b.ndim != 1 or k.shape[0] != b.shape[0]:
                raise ShapeError(f"conv layer {i}: kernel {k.shape} / bias {b.shape} malformed")
            if i > 0 and k.shape[1] != self.kernels[i - 1].shape[0]:
                raise ShapeError(f"conv layer {i}: channel chain broken")
        if self.head_weight.shape[1] != self.kernels[-1].shape[0]:
            raise ShapeError("head width does not match last conv channels")

    @classmethod
    def from_layers(cls, weights, biases, activations):
        return cls(weights[:-1], biases[:-1], activations, weights[-1], biases[-1])

    @property
    def weights(self) -> list[np.ndarray]:
        """The layer chain's weights, as a new list: assign through the fields."""
        return self.kernels + [self.head_weight]

    @property
    def biases(self) -> list[np.ndarray]:
        return self.conv_biases + [self.head_bias]

    @property
    def channels(self) -> list[int]:
        return self.dims[:-1]

    @property
    def kernel_hw(self) -> tuple[int, int]:
        return self.kernels[0].shape[2], self.kernels[0].shape[3]


def cnn_forward(net: CnnParams, image: np.ndarray) -> np.ndarray:
    """Logits for image(s) of shape [c, H, W] or [n, c, H, W], taped on constants."""
    x = np.asarray(image, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.ndim != 4 or x.shape[1] != net.channels[0]:
        raise ShapeError(f"image shape {x.shape} does not match {net.channels[0]} input channels")
    logits = cnn_forward_taped([T.constant(k) for k in net.kernels],
                               [T.constant(b) for b in net.conv_biases], net.activations,
                               T.constant(net.head_weight), T.constant(net.head_bias), x).data
    return logits[0] if single else logits


def cnn_forward_taped(kernels, conv_biases, activations, head_w, head_b,
                      images: np.ndarray) -> Tensor:
    """Differentiable forward over Tensor parameters; images are constants.

    Images arrive as [n, c, H, W]; internally channels-last, so each conv
    layer is one ``T.conv2d_valid`` node (a 2-D matmul per kernel offset,
    summed in row-major offset order) and a reshape back to images. A stack
    of N nets, each with its own images, takes images [N, n, c, H, W],
    kernels [N, out, in, kh, kw], head weights [N, classes, c] and biases
    [N, 1, out]; it returns logits [N, n, classes], each row bitwise those
    of its net alone.
    """
    x = T.constant(np.moveaxis(np.asarray(images, dtype=np.float64), -3, -1))
    for k, b, act in zip(kernels, conv_biases, activations):
        c_out, _, kh, kw = k.shape[-4:]
        n, h, w, _ = x.shape[-4:]
        rows = T.conv2d_valid(x, k, b)
        x = act.apply(T.reshape(rows, rows.shape[:-2] + (n, h - kh + 1, w - kw + 1, c_out)))
    n, h, w, c = x.shape[-4:]
    pooled = T.mean_(T.reshape(x, x.shape[:-4] + (n, h * w, c)), axis=-2)
    return T.linear(pooled, head_w, head_b)
