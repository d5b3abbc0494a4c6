"""Dense float64 tensors with define-by-run reverse-mode autodiff.

Every operation records its parents and a backward closure on the produced
Tensor; calling :func:`backward` on a scalar runs one reverse sweep in
topological order. The recorded graph is rebuilt on every forward pass, so
tensors behave as immutable values and distinct passes never share state.

All public operations keep entries finite (checked when ``CHECK_FINITE`` is
on) and everything is float64: the symmetry tests downstream assert
near-exact equalities that 32-bit arithmetic cannot hold.
"""

from __future__ import annotations

import numpy as np

# Toggle for the finiteness invariant on op outputs. Costs one pass per op;
# cheap at the array sizes this engine is built for.
CHECK_FINITE = True

# Denominators smaller than this are an error: reciprocal edge features and
# the simulation relay divide by data values and silent infs must not leak.
DIV_EPS = 1e-12


class NumericsError(FloatingPointError):
    """Non-finite values or a near-zero denominator in a tape op."""


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class Tensor:
    """A float64 ndarray plus the tape metadata produced by the op that made it.

    ``data`` is row-major and never mutated by ops; optimizers swap in a fresh
    array via :meth:`assign`. ``grad`` is populated by :func:`backward`.
    """

    __slots__ = ("data", "grad", "_parents", "_bw", "name")

    def __init__(self, data, _parents=(), _bw=None, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if CHECK_FINITE and not np.all(np.isfinite(arr)):
            raise NumericsError(f"non-finite entries in tensor {name or ''}".strip())
        self.data = arr
        self.grad = None
        self._parents = _parents
        self._bw = _bw
        self.name = name

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_not_scalar(self)

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def assign(self, new_data) -> None:
        """Rebind the underlying array (optimizer step). Not a tape op."""
        arr = np.array(new_data, dtype=np.float64, copy=True)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign shape {arr.shape} != {self.data.shape}")
        if CHECK_FINITE and not np.all(np.isfinite(arr)):
            raise NumericsError("assign with non-finite entries")
        self.data = arr

    # -- operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _raise_not_scalar(t):
    raise ShapeError(f"expected scalar tensor, got shape {t.shape}")


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def constant(x, name=None) -> Tensor:
    """A leaf tensor that takes no gradient (no parents, like any leaf)."""
    return Tensor(x, name=name)


def _out(data, parents, bw, name=None) -> Tensor:
    return Tensor(data, _parents=parents, _bw=bw, name=name)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient g down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic primitives ----------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, out):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _out(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, out):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _out(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, out):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _out(a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(np.abs(b.data) < DIV_EPS):
        raise NumericsError("division by near-zero denominator (|denom| < 1e-12)")

    def bw(g, out):
        return (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        )

    return _out(a.data / b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _out(-a.data, (a,), lambda g, out: (-g,))


def pow_(a: Tensor, p: float) -> Tensor:
    if not isinstance(p, (int, float)):
        raise TypeError("exponent must be a python number")

    def bw(g, out):
        return (g * p * a.data ** (p - 1),)

    return _out(a.data**p, (a,), bw)


def exp(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * out.data,)

    return _out(np.exp(a.data), (a,), bw)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericsError("log of non-positive value")

    def bw(g, out):
        return (g / a.data,)

    return _out(np.log(a.data), (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise NumericsError("sqrt of negative value")

    def bw(g, out):
        return (g * 0.5 / np.maximum(out.data, DIV_EPS),)

    return _out(np.sqrt(a.data), (a,), bw)


def sin(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * np.cos(a.data),)

    return _out(np.sin(a.data), (a,), bw)


def cos(a: Tensor) -> Tensor:
    def bw(g, out):
        return (-g * np.sin(a.data),)

    return _out(np.cos(a.data), (a,), bw)


def tanh(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * (1.0 - out.data * out.data),)

    return _out(np.tanh(a.data), (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    e = np.exp(-np.abs(a.data))
    y = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bw(g, out):
        return (g * out.data * (1.0 - out.data),)

    return _out(y, (a,), bw)


def relu(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * (a.data > 0),)

    return _out(np.maximum(a.data, 0.0), (a,), bw)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, the activation used inside metanetwork MLPs."""
    return mul(a, sigmoid(a))


def abs_(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * np.sign(a.data),)

    return _out(np.abs(a.data), (a,), bw)


# -- linear algebra / structure ------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading (stack) axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2 dims, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def bw(g, out):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _out(a.data @ b.data, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError("transpose expects a tensor of at least 2 dims")
    return _out(np.swapaxes(a.data, -1, -2).copy(), (a,),
                lambda g, out: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bw(g, out):
        return (g.reshape(a.shape),)

    return _out(a.data.reshape(shape), (a,), bw)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g, out):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _out(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g, out):
        full = np.zeros(a.shape)
        full[idx] = g
        return (full,)

    return _out(a.data[idx].copy(), (a,), bw)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g, out):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _out(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), constant(1.0 / count))


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows a[idx]; backward scatter-adds into the source rows."""
    idx = np.asarray(idx, dtype=np.intp)

    def bw(g, out):
        full = np.zeros(a.shape)
        np.add.at(full, idx, g)
        return (full,)

    return _out(a.data[idx], (a,), bw)


def scatter_sum(a: Tensor, idx, n_rows: int) -> Tensor:
    """Sum rows of `a` into `n_rows` buckets given by idx (segment sum)."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.ndim != 2:
        raise ShapeError("scatter_sum expects a 2-D tensor")
    out_data = np.zeros((n_rows, a.shape[1]))
    np.add.at(out_data, idx, a.data)

    def bw(g, out):
        return (g[idx],)

    return _out(out_data, (a,), bw)


def l2_normalize(a: Tensor) -> Tensor:
    """Rows divided by their euclidean norm; near-zero rows map to zero.

    The zero-row convention keeps positive-scale canonicalization total; its
    gradient there is defined as zero.
    """
    if a.ndim != 2:
        raise ShapeError("l2_normalize expects a 2-D tensor")
    norms = np.sqrt(np.sum(a.data * a.data, axis=1, keepdims=True))
    ok = norms >= DIV_EPS
    safe = np.where(ok, norms, 1.0)
    y = np.where(ok, a.data / safe, 0.0)

    def bw(g, out):
        dot = np.sum(g * y, axis=1, keepdims=True)
        gx = np.where(ok, (g - y * dot) / safe, 0.0)
        return (gx,)

    return _out(y, (a,), bw)


def detach(a: Tensor) -> Tensor:
    """Value copy that blocks gradient flow."""
    return Tensor(a.data.copy())


# -- reverse sweep --------------------------------------------------------------

def _topo(root: Tensor):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """One reverse sweep from a scalar; populates .grad on every reachable node."""
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topo(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._bw is None or node.grad is None:
            continue
        parent_grads = node._bw(node.grad, node)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            if parent.grad is None:
                parent.grad = np.array(pg, dtype=np.float64, copy=True)
            else:
                parent.grad = parent.grad + pg


def gradients(loss: Tensor, params) -> list[np.ndarray]:
    """Backward sweep returning the gradient for each listed leaf (zeros if unused)."""
    params = list(params)
    for p in params:
        p.grad = None
    backward(loss)
    return [p.grad if p.grad is not None else np.zeros(p.shape) for p in params]
