"""Pointwise activations and their scaling groups, one table each.

A nonlinearity's group holds the scalars a with sigma(a*x) = a * sigma(x):
ReLU admits every a > 0, tanh and sine admit {-1, +1}, the identity head
admits none that we exploit. Every rule that depends on a layer's group reads
its `GROUPS` record; one that depends on its nonlinearity, its `ACTIVATIONS` row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import tensor as T
from .tensor import Tensor

# Multiplier group kinds.
KIND_POSITIVE = "positive"
KIND_SIGN = "sign"
KIND_NONE = "none"
MIXED = "mixed"  # the kind of hidden layers that span two groups

SIGN_CANONS = ("abs", "symmetrize")
MIN_SCALE = 1e-6  # drawn positive multipliers and canonicalized norms stay above this


@dataclass(frozen=True)
class Group:
    """One multiplier group and every rule that depends on it."""

    member: Callable  # q -> elementwise membership of multipliers
    draw: Callable  # (rng, width) -> one hidden layer's multipliers
    modes: Mapping[str, str]  # sign_canon -> Canonicalizer mode of the invariant blocks
    reciprocal: bool  # backward edges carry 1/w; else every member is self-inverse, so w
    representative: Callable | None  # [w | b] rows -> multipliers to the orbit representative


def _draw_positive(rng: np.random.Generator, width: int) -> np.ndarray:
    q = rng.exponential(scale=1.0, size=width)
    while np.any(q < MIN_SCALE):
        bad = q < MIN_SCALE
        q[bad] = rng.exponential(scale=1.0, size=int(bad.sum()))
    return q


def _unit_norm(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    return np.where(norms > MIN_SCALE, 1.0 / np.maximum(norms, MIN_SCALE), 1.0)


def _lead_positive(rows: np.ndarray) -> np.ndarray:
    lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    return np.where(lead < 0, -1.0, 1.0)


GROUPS = {
    KIND_NONE: Group(lambda q: q == 1.0, lambda rng, width: np.ones(width),
                     dict.fromkeys(SIGN_CANONS, "identity"), reciprocal=False,
                     representative=None),
    KIND_SIGN: Group(lambda q: np.abs(q) == 1.0,
                     lambda rng, width: rng.choice([-1.0, 1.0], size=width),
                     {"abs": "sign-abs", "symmetrize": "sign-symmetrize"}, reciprocal=False,
                     representative=_lead_positive),
    KIND_POSITIVE: Group(lambda q: q > 0.0, _draw_positive,
                         dict.fromkeys(SIGN_CANONS, "norm-divide"), reciprocal=True,
                         representative=_unit_norm),
}


def group(kind: str) -> Group:
    if kind not in GROUPS:
        raise ValueError(f"unknown group kind {kind!r}")
    return GROUPS[kind]


def hidden_kind(acts) -> str:
    """The group kind of hidden-layer activations: `none` without any."""
    kinds = {a.kind for a in acts} or {KIND_NONE}
    return MIXED if len(kinds) > 1 else next(iter(kinds))


def hidden_group(acts, needs: str) -> Group:
    """The one group of hidden-layer activations; `needs` names what needs it."""
    kind = hidden_kind(acts)
    if kind == MIXED:
        got = ", ".join(dict.fromkeys(f"{a.name} ({a.kind})" for a in acts))
        raise ValueError(f"{needs} needs one scaling group across the hidden layers; "
                         f"got {got}")
    return group(kind)


@dataclass(frozen=True)
class Activation:
    """One nonlinearity; its tape op finds its `tensor` op per call, so a rebound op is used."""

    kind: str  # its group kind
    fn: Callable  # numpy map
    deriv: Callable  # numpy derivative
    op: Callable  # tape op
    periodic: bool = False  # a frequency omega0 scales the linear term


ACTIVATIONS = {
    "relu": Activation(KIND_POSITIVE, lambda z: np.maximum(z, 0.0),
                       lambda z: (z > 0).astype(np.float64), lambda z: T.relu(z)),
    "tanh": Activation(KIND_SIGN, np.tanh, lambda z: 1.0 - np.tanh(z) ** 2,
                       lambda z: T.tanh(z)),
    "sine": Activation(KIND_SIGN, np.sin, np.cos, lambda z: T.sin(z), periodic=True),
    "identity": Activation(KIND_NONE, lambda z: z, np.ones_like, lambda z: z),
}


@dataclass(frozen=True)
class ActivationDescriptor:
    """A layer's nonlinearity: its `ACTIVATIONS` row by name and group kind.

    For sine layers the layer map is sin(omega0 * W x + b): the frequency
    multiplies only the linear term, so the bias is directly the phase that
    the bias-shift canonicalization constrains to (-pi/2, pi/2].
    """

    name: str
    kind: str
    omega0: float = 0.0

    def __post_init__(self):
        if ACTIVATIONS[self.name].periodic:
            k = self.omega0 / math.pi
            if abs(k - round(k)) < 1e-9:
                raise ValueError("sine frequency must not be an integer multiple of pi")

    # Pre-activation: the argument handed to the pointwise nonlinearity.
    def preact(self, lin: np.ndarray, b: np.ndarray) -> np.ndarray:
        if ACTIVATIONS[self.name].periodic:
            return self.omega0 * lin + b
        return lin + b

    def preact_t(self, lin: Tensor, b: Tensor) -> Tensor:
        if ACTIVATIONS[self.name].periodic:
            return T.add(T.mul(lin, T.constant(self.omega0)), b)
        return T.add(lin, b)

    def fn(self, z: np.ndarray) -> np.ndarray:
        return ACTIVATIONS[self.name].fn(z)

    def deriv(self, z: np.ndarray) -> np.ndarray:
        return ACTIVATIONS[self.name].deriv(z)

    def apply(self, z: Tensor) -> Tensor:
        return ACTIVATIONS[self.name].op(z)


def by_name(name: str, omega0: float = 30.0) -> ActivationDescriptor:
    """The activation `name`; only a periodic one keeps `omega0`."""
    if name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    row = ACTIVATIONS[name]
    return ActivationDescriptor(name, row.kind, omega0 if row.periodic else 0.0)


def relu() -> ActivationDescriptor:
    return by_name("relu")


def tanh_act() -> ActivationDescriptor:
    return by_name("tanh")


def sine(omega0: float = 30.0) -> ActivationDescriptor:
    return by_name("sine", omega0)


def identity() -> ActivationDescriptor:
    return by_name("identity")
