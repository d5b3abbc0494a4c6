"""Adam optimizer and the finite-difference gradient checker."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import NumericsError, ShapeError, Tensor, gradients

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


class AdamState:
    """Adam over a list of parameters: first and second moments as one flat
    vector each, plus the step counter.

    The parameters lie end to end in list order, and :attr:`m` and
    :attr:`v` give each one's moments as views of the flat vectors. A step
    is a handful of vector ops with the per-element arithmetic of a
    per-tensor Adam, so each entry's update is bitwise the same; it then
    rebinds every parameter's ``.data`` to its view of one new flat
    parameter vector, which the next step reads without a copy while the
    parameters still hold those views.

    `lr` is one float, or one rate per stack row when every parameter
    carries a leading stack axis of N rows (a stack of N nets fitted as one
    problem); each row then takes exactly the update a lone net with that
    rate would. :meth:`take` keeps a subset of the rows.
    """

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr if np.isscalar(lr) else np.asarray(lr, dtype=np.float64)
        self.t = 0
        sizes = [p.size for p in self.params]
        self._ends = np.cumsum(sizes)
        self._m = np.zeros(sum(sizes))
        self._v = np.zeros(sum(sizes))
        self._rates = self.lr   # the rate of each flat entry
        if not np.isscalar(self.lr):
            for i, p in enumerate(self.params):
                if p.shape[:1] != self.lr.shape:
                    raise ShapeError(f"parameter {i} shape {p.shape} has no stack axis of "
                                     f"{self.lr.size} rows, one per learning rate")
            self._rates = T.flat_concat(
                [np.broadcast_to(self.lr.reshape((-1,) + (1,) * (p.ndim - 1)), p.shape)
                 for p in self.params])
        self._data, self._views = None, ()   # the last step's parameter vector and its views

    @property
    def m(self) -> list[np.ndarray]:
        """Each parameter's first moment, a view of the flat vector."""
        return self._split(self._m)

    @property
    def v(self) -> list[np.ndarray]:
        """Each parameter's second moment, a view of the flat vector."""
        return self._split(self._v)

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        starts = [0, *self._ends[:-1]]
        return [flat[a:b].reshape(p.shape) for p, a, b in zip(self.params, starts, self._ends)]

    def _param(self, flat: np.ndarray) -> int:
        """The index of the parameter that holds flat's first non-finite entry."""
        first = np.flatnonzero(~np.isfinite(flat))[0]
        return int(np.searchsorted(self._ends, first, side="right"))

    def step(self, grads) -> None:
        """Standard Adam update with bias correction; rebinds each param's data.

        Fails fast on non-finite gradients so a diverging run stops at the
        first bad step instead of poisoning the moments. Nothing changes unless
        every parameter's update is finite and there is one gradient per
        parameter, so a failed step leaves the state as it was.
        """
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ShapeError(f"{len(grads)} gradient(s) for {len(self.params)} parameter(s)")
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if np.shape(g) != p.shape:
                raise ShapeError(f"grad {i} shape {np.shape(g)} != param shape {p.shape}")
        g = T.flat_concat([np.asarray(g, dtype=np.float64) for g in grads])
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {self._param(g)}")
        t = self.t + 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        m = b1 * self._m + (1.0 - b1) * g
        v = b2 * self._v + (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        new = self._current() - self._rates * m_hat / (np.sqrt(v_hat) + EPS)
        if T.CHECK_FINITE and not np.isfinite(new).all():
            raise NumericsError(f"non-finite update for parameter {self._param(new)}")
        self.t, self._m, self._v = t, m, v
        self._data, self._views = new, self._split(new)
        for p, view in zip(self.params, self._views):
            p.data = view

    def _current(self) -> np.ndarray:
        """The parameters as one flat vector: the last step's, unless some
        parameter has been rebound since (by `assign`, a load)."""
        if self._data is not None and all(p.data is w for p, w in zip(self.params, self._views)):
            return self._data
        return T.flat_concat([p.data for p in self.params])

    def take(self, rows) -> "AdamState":
        """A new state for the given stack rows: fresh leaf copies of their
        parameters, their moments and rates, and the same step count."""
        rows = np.asarray(rows, dtype=np.intp)
        lr = self.lr if np.isscalar(self.lr) else self.lr[rows]
        out = AdamState([Tensor(p.data[rows]) for p in self.params], lr)
        out.t = self.t
        out._m = T.flat_concat([m[rows] for m in self.m])
        out._v = T.flat_concat([v[rows] for v in self.v])
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
