"""Adam optimizer and the finite-difference gradient checker."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import NumericsError, ShapeError, Tensor, gradients

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


class AdamState:
    """Per-parameter first/second moment accumulators plus the step counter.

    `lr` is one float, or one rate per stack row when every parameter
    carries a leading stack axis of N rows (a stack of N nets fitted as one
    problem); each row then takes exactly the update a lone net with that
    rate would. :meth:`take` keeps a subset of the rows.
    """

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr if np.isscalar(lr) else np.asarray(lr, dtype=np.float64)
        self.t = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        if not np.isscalar(self.lr):
            for i, p in enumerate(self.params):
                if p.shape[:1] != self.lr.shape:
                    raise ShapeError(f"parameter {i} shape {p.shape} has no stack axis of "
                                     f"{self.lr.size} rows, one per learning rate")

    def step(self, grads) -> None:
        """Standard Adam update with bias correction; rebinds each param's data.

        Fails fast on non-finite gradients so a diverging run stops at the
        first bad step instead of poisoning the moments. Nothing changes unless
        every parameter's update is finite and there is one gradient per
        parameter, so a failed step leaves the state as it was.
        """
        grads = [np.asarray(g, dtype=np.float64) for g in grads]
        if len(grads) != len(self.params):
            raise ShapeError(f"{len(grads)} gradient(s) for {len(self.params)} parameter(s)")
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if g.shape != p.shape:
                raise ShapeError(f"grad {i} shape {g.shape} != param shape {p.shape}")
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient for parameter {i}")
        t = self.t + 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        updates = []
        for i, (p, g) in enumerate(zip(self.params, grads)):
            m = b1 * self.m[i] + (1.0 - b1) * g
            v = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            lr = self.lr if np.isscalar(self.lr) else self.lr.reshape((-1,) + (1,) * (p.ndim - 1))
            new = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)
            if T.CHECK_FINITE and not np.all(np.isfinite(new)):
                raise NumericsError(f"non-finite update for parameter {i}")
            updates.append((m, v, new))
        self.t = t
        for i, (p, (m, v, new)) in enumerate(zip(self.params, updates)):
            self.m[i], self.v[i] = m, v
            p.data = new

    def take(self, rows) -> "AdamState":
        """A new state for the given stack rows: fresh leaf copies of their
        parameters, their moments and rates, and the same step count."""
        rows = np.asarray(rows, dtype=np.intp)
        lr = self.lr if np.isscalar(self.lr) else self.lr[rows]
        out = AdamState([Tensor(p.data[rows]) for p in self.params], lr)
        out.t = self.t
        out.m = [m[rows] for m in self.m]
        out.v = [v[rows] for v in self.v]
        return out


def finite_diff_check(f, params, step: float = 1e-6) -> float:
    """Max relative error between autodiff and central differences.

    `f` maps the given parameter tensors to a scalar Tensor. Every coordinate
    of every parameter is perturbed by ±step. The per-coordinate denominator
    is max(|ad|, |fd|, floor) with floor = max(1e-6, 1e-3 * gmax), gmax
    the largest autodiff gradient entry: central differences in float64
    cannot resolve deviations far below the gradient's own scale, so
    near-zero coordinates are compared at that scale instead of blowing up.
    The perturbed evaluations record no tape.
    """
    params = list(params)
    loss = f(params)
    ad = gradients(loss, params)
    gmax = max((float(np.max(np.abs(g))) for g in ad), default=0.0)
    floor = max(1e-6, 1e-3 * gmax)
    worst = 0.0
    for p, g in zip(params, ad):
        base = p.data.copy()
        flat = base.reshape(-1)
        g_flat = np.asarray(g).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            with T.no_tape():
                flat[k] = orig + step
                p.assign(base.reshape(p.shape))
                hi = float(f(params).data.reshape(-1)[0])
                flat[k] = orig - step
                p.assign(base.reshape(p.shape))
                lo = float(f(params).data.reshape(-1)[0])
            flat[k] = orig
            p.assign(base.reshape(p.shape))
            fd = (hi - lo) / (2.0 * step)
            denom = max(abs(g_flat[k]), abs(fd), floor)
            worst = max(worst, abs(g_flat[k] - fd) / denom)
    return worst
