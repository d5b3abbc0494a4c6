"""Pointwise activations with their scaling groups.

Each descriptor records the 1-D multiplier group of its nonlinearity: the
scalars a with sigma(a*x) = a * sigma(x). ReLU admits every a > 0, tanh and
sine admit {-1, +1}, the identity head admits none that we exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Multiplier group kinds.
KIND_POSITIVE = "positive"
KIND_SIGN = "sign"
KIND_NONE = "none"


def in_group(kind: str, q) -> np.ndarray:
    """Elementwise membership of multipliers in a kind's scaling group:
    positive q > 0, sign q in {-1, 1}, none q = 1."""
    q = np.asarray(q, dtype=np.float64)
    if kind == KIND_POSITIVE:
        return q > 0.0
    if kind == KIND_SIGN:
        return np.abs(q) == 1.0
    if kind == KIND_NONE:
        return q == 1.0
    raise ValueError(f"unknown group kind {kind!r}")


@dataclass(frozen=True)
class ActivationDescriptor:
    """A pointwise nonlinearity plus the symmetry data attached to it.

    For sine layers the layer map is sin(omega0 * W x + b): the frequency
    multiplies only the linear term, so the bias is directly the phase that
    the bias-shift canonicalization constrains to (-pi/2, pi/2].
    """

    name: str
    kind: str
    omega0: float = 0.0

    def __post_init__(self):
        if self.name == "sine":
            k = self.omega0 / math.pi
            if abs(k - round(k)) < 1e-9:
                raise ValueError("sine frequency must not be an integer multiple of pi")

    # Pre-activation: the argument handed to the pointwise nonlinearity.
    def preact(self, lin: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.name == "sine":
            return self.omega0 * lin + b
        return lin + b

    def preact_t(self, lin: Tensor, b: Tensor) -> Tensor:
        if self.name == "sine":
            return T.add(T.mul(lin, T.constant(self.omega0)), b)
        return T.add(lin, b)

    def fn(self, z: np.ndarray) -> np.ndarray:
        if self.name == "relu":
            return np.maximum(z, 0.0)
        if self.name == "tanh":
            return np.tanh(z)
        if self.name == "sine":
            return np.sin(z)
        return z

    def deriv(self, z: np.ndarray) -> np.ndarray:
        if self.name == "relu":
            return (z > 0).astype(np.float64)
        if self.name == "tanh":
            t = np.tanh(z)
            return 1.0 - t * t
        if self.name == "sine":
            return np.cos(z)
        return np.ones_like(z)

    def apply(self, z: Tensor) -> Tensor:
        if self.name == "relu":
            return T.relu(z)
        if self.name == "tanh":
            return T.tanh(z)
        if self.name == "sine":
            return T.sin(z)
        return z


def relu() -> ActivationDescriptor:
    return ActivationDescriptor("relu", KIND_POSITIVE)


def tanh_act() -> ActivationDescriptor:
    return ActivationDescriptor("tanh", KIND_SIGN)


def sine(omega0: float = 30.0) -> ActivationDescriptor:
    return ActivationDescriptor("sine", KIND_SIGN, omega0=omega0)


def identity() -> ActivationDescriptor:
    return ActivationDescriptor("identity", KIND_NONE)


def by_name(name: str, omega0: float = 30.0) -> ActivationDescriptor:
    if name == "relu":
        return relu()
    if name == "tanh":
        return tanh_act()
    if name == "sine":
        return sine(omega0)
    if name == "identity":
        return identity()
    raise ValueError(f"unknown activation {name!r}")
