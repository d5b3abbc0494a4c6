"""Parameter containers and MLP plumbing on top of the tape engine."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Minimal parameter container: children and named leaf tensors."""

    def _entries(self):
        for name, value in vars(self).items():
            yield name, value

    def named_parameters(self, prefix: str = ""):
        for name, value in self._entries():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield key, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{key}.{i}.")
                    elif isinstance(item, Tensor):
                        yield f"{key}.{i}", item
            elif isinstance(value, dict):
                for k, item in value.items():
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{key}.{k}.")
                    elif isinstance(item, Tensor):
                        yield f"{key}.{k}", item

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def checkpoint_spec(self) -> dict:
        """What a checkpoint records, beyond the parameters, to rebuild this module."""
        return {}


class Linear(Module):
    """Affine map x @ W.T (+ b). `bias=False` gives the purely linear maps
    that scale-equivariant blocks require (a bias would break q-scaling).

    He-style uniform init (bound sqrt(6/d_in)): the deep message-passing
    stack contracts activations to nothing with narrower inits.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        bound = np.sqrt(6.0 / max(d_in, 1))
        self.weight = Tensor(rng.uniform(-bound, bound, size=(d_out, d_in)), name="weight")
        self.bias = Tensor(np.zeros(d_out), name="bias") if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Per-row normalization with learnable gain and shift (one ``T.layer_norm``
    node); the variance is guarded by 1e-5."""

    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d), name="gain")
        self.shift = Tensor(np.zeros(d), name="shift")

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.shift, 1e-5)


class MLP(Module):
    """Stack of Linear layers, SiLU between layers, none after the last.

    `layer_norm=True` normalizes each hidden pre-activation; use it only
    where inputs carry no scaling symmetry (after canonicalization, or on
    input/output-vertex paths).
    """

    def __init__(self, dims, rng, layer_norm: bool = False):
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self.norms = (
            [LayerNorm(dims[i + 1]) for i in range(len(dims) - 2)] if layer_norm else []
        )

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i + 1 < len(self.layers):
                if self.norms:
                    x = self.norms[i](x)
                x = T.silu(x)
        return x


def mse(pred: Tensor, target: np.ndarray, axis=None) -> Tensor:
    """Mean squared error against a constant target of pred's shape: over
    every entry, or over `axis` (an axis or a tuple of them), leaving one
    mean per remaining index, e.g. per stack row with ``axis=(-2, -1)``."""
    diff = T.sub(pred, T.constant(target))
    return T.mean_(T.mul(diff, diff), axis=axis)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer class labels, via logsumexp with a
    detached max shift.

    logits [n, C] with labels [n] give a scalar; a stack [N, n, C] with
    labels [N, n] gives one mean per stack row.
    """
    shift = T.constant(logits.data.max(axis=-1, keepdims=True))
    z = T.sub(logits, shift)
    lse = T.log(T.sum_(T.exp(z), axis=-1, keepdims=True))
    onehot = (np.asarray(labels).astype(int)[..., None] == np.arange(logits.shape[-1]))
    z_true = T.sum_(T.mul(z, T.constant(onehot)), axis=-1, keepdims=True)
    return T.mean_(T.sub(lse, z_true), axis=(-2, -1))
