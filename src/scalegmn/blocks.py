"""Building blocks that are invariant or equivariant to scalar multiplier groups.

The three nets here carry the symmetry contracts everything else composes:

* ScaleInvNet:  f(q1 x1, ..., qn xn) = f(x1, ..., xn)
* ScaleEqNet:   slot i of f(q1 x1, ..., qn xn) = qi * slot i of f(x1, ..., xn)
* ReScaleEqNet: g(q1 x1, ..., qn xn) = (prod qi) * g(x1, ..., xn)

with each qi drawn from that slot's 1-D group ({-1,+1} or positive reals).
Invariance is obtained by canonicalizing each slot (norm division for positive
scaling; symmetrization MLP(x) + MLP(-x) or elementwise |x| for sign) and
feeding representatives to an unconstrained MLP. Equivariance multiplies a
bias-free linear image of each slot elementwise with an invariant block, so
the multiplier rides through untouched. A ScaleEqNet is one such layer
(K = 1); depth comes from the message-passing rounds. An optional
non-symmetric input (the positional encodings) enters only the invariant
block, through an identity canonicalizer — that is the "augmented" variant.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import MLP, Linear, Module
from .tensor import Tensor


class Canonicalizer(Module):
    """Maps every group orbit to one representative.

    norm-divide: x / ||x|| (the zero vector for an exactly-zero row);
    sign-abs: |x| elementwise; sign-symmetrize: MLP(x) + MLP(-x) (bitwise
    sign-invariant since float addition commutes); identity: x unchanged.
    """

    def __init__(self, mode: str, d_in: int, rng=None, d_out: int | None = None,
                 hidden: int = 32):
        if mode not in ("norm-divide", "sign-symmetrize", "sign-abs", "identity"):
            raise ValueError(f"unknown canonicalization mode {mode!r}")
        self.mode = mode
        self.d_in = d_in
        if mode == "sign-symmetrize":
            if rng is None:
                raise ValueError("sign-symmetrize needs an rng for its MLP")
            self.mlp = MLP([d_in, hidden, d_out or d_in], rng)
            self.d_out = d_out or d_in
        else:
            self.mlp = None
            self.d_out = d_in

    def __call__(self, x: Tensor) -> Tensor:
        if self.mode == "norm-divide":
            return T.l2_normalize(x)
        if self.mode == "sign-abs":
            return T.abs_(x)
        if self.mode == "sign-symmetrize":
            return T.add(self.mlp(x), self.mlp(T.neg(x)))
        return x


class ScaleInvNet(Module):
    """rho(canon(x1), ..., canon(xn) [, p]) — invariant per slot, free in p."""

    def __init__(self, slot_dims, d_out: int, rng, mode: str = "sign-symmetrize",
                 extra_dim: int = 0, hidden: int = 32, layer_norm: bool = False):
        self.canons = [Canonicalizer(mode, d, rng, hidden=hidden) for d in slot_dims]
        width = sum(c.d_out for c in self.canons) + extra_dim
        self.rho = MLP([width, hidden, d_out], rng, layer_norm=layer_norm)
        self.extra_dim = extra_dim
        self.d_out = d_out

    def __call__(self, xs, extra: Tensor | None = None) -> Tensor:
        parts = [c(x) for c, x in zip(self.canons, xs)]
        if self.extra_dim:
            if extra is None:
                raise ValueError("this net was built with a non-symmetric input slot")
            parts.append(extra)
        joined = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
        return self.rho(joined)

    def set_constant(self, value: float) -> None:
        """Make the net output `value` everywhere (test/configuration hook)."""
        for layer in self.rho.layers:
            layer.weight.assign(np.zeros(layer.weight.shape))
            layer.bias.assign(np.zeros(layer.bias.shape))
        last = self.rho.layers[-1]
        last.bias.assign(np.full(last.bias.shape, value))


class ScaleEqNet(Module):
    """One (Gamma_i x_i) ⊙ invariant-block layer over n slots (K = 1); the
    augmented variant feeds `extra` (positional encodings) to the invariant
    block only."""

    def __init__(self, slot_dims, out_dims, rng, mode: str = "sign-symmetrize",
                 extra_dim: int = 0, hidden: int = 32, layer_norm: bool = False):
        self.gammas = [Linear(d, o, rng, bias=False) for d, o in zip(slot_dims, out_dims)]
        self.inv = ScaleInvNet(slot_dims, sum(out_dims), rng, mode=mode,
                               extra_dim=extra_dim, hidden=hidden,
                               layer_norm=layer_norm)
        self.out_dims = list(out_dims)

    def __call__(self, xs, extra=None):
        inv_out = self.inv(xs, extra=extra)
        outs, offset = [], 0
        for gamma, x, width in zip(self.gammas, xs, self.out_dims):
            block = T.narrow(inv_out, 1, offset, width)
            outs.append(T.mul(gamma(x), block))
            offset += width
        return outs

    def single(self, x: Tensor, extra=None) -> Tensor:
        """Convenience for the common one-slot usage."""
        return self([x], extra=extra)[0]


class ReScaleEqNet(Module):
    """Multiplier-product equivariance: hadamard or outer-product variant.

    hadamard: ⊙_i Gamma_i x_i (linear, no invariant factor). outer: the outer
    product of all slots is vectorized — every entry is a degree-n monomial,
    so the whole vector scales by prod(qi) — and handed to a ScaleEqNet.
    """

    def __init__(self, slot_dims, d_out: int, rng, variant: str = "hadamard",
                 mode: str = "sign-symmetrize"):
        if variant not in ("hadamard", "outer"):
            raise ValueError(f"unknown rescale variant {variant!r}")
        self.variant = variant
        self.slot_dims = list(slot_dims)
        if variant == "hadamard":
            self.gammas = [Linear(d, d_out, rng, bias=False) for d in slot_dims]
            self.eq = None
        else:
            prod = int(np.prod(slot_dims))
            self.gammas = None
            self.eq = ScaleEqNet([prod], [d_out], rng, mode=mode)
        self.d_out = d_out

    def __call__(self, xs) -> Tensor:
        if len(xs) != len(self.slot_dims):
            raise ValueError("slot count mismatch")
        if self.variant == "hadamard":
            out = self.gammas[0](xs[0])
            for gamma, x in zip(self.gammas[1:], xs[1:]):
                out = T.mul(out, gamma(x))
            return out
        vec = xs[0]
        for x in xs[1:]:
            n = vec.shape[0]
            left = T.reshape(vec, (n, vec.shape[1], 1))
            right = T.reshape(x, (n, 1, x.shape[1]))
            vec = T.reshape(T.mul(left, right), (n, vec.shape[1] * x.shape[1]))
        return self.eq.single(vec)
