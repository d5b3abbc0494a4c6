"""Dense float64 tensors with define-by-run reverse-mode autodiff.

Every operation records its parents and a backward closure on the produced
Tensor; :func:`gradients` and :func:`backward` on a scalar run one reverse
sweep in topological order. The recorded graph is rebuilt on every forward
pass, so tensors behave as immutable values and distinct passes never share
state.

A sweep keeps its gradients in a table of its own, keyed by node, not on
the nodes. :func:`gradients` reads the listed leaves' entries from it, drops
each inner node's entry as soon as that node's closure has consumed it, and
writes no ``.grad``; so two threads may sweep tapes that share parameter
leaves at once. :func:`backward` copies the whole table onto ``.grad`` of
every node it reached, for callers that read inner nodes' gradients.
:func:`shard_sum` joins scalar losses built on separate tapes (shards of one
batch) into one weighted sum; its closure sweeps each shard's tape, on a
thread pool when given one, and adds each parameter's shard gradients in
shard order.

Leaves come in two kinds. A plain ``Tensor(x)`` is a parameter-like leaf with
``requires_grad`` set; :func:`constant` and :func:`detach` make leaves
without it (inputs, images, grids, one-hots, ``1/count``). An op's output
requires grad when any of its parents does; one whose parents are all
constants is itself a constant and records neither parents nor a closure.
The reverse sweep only visits nodes that require grad, and the closures of
``matmul``, ``mul``, ``div``, ``linear`` (and the other binary ops) skip the
product for an operand that needs none. A node keeps the first gradient it
receives as is, without a copy: no op writes into a gradient array, so
arrays may be shared along the tape, and :func:`gradients` hands the caller
arrays of its own.

``linear`` (``x @ wᵀ + b``) and ``silu`` are single nodes whose forward and
backward use the same operands and the same summation order as the
composites they fuse (``matmul(x, transpose(w)) + b`` and
``x * sigmoid(x)``), so results are bitwise equal to those. So are the
single-node ``conv2d_valid`` and ``layer_norm``, and each keeps its
composite's summation order: ``conv2d_valid`` adds the per-offset products
and, in the backward, the per-offset input-gradient windows in row-major
offset order (reverse order is not bitwise equal); ``layer_norm`` sums the
centered input's gradient as ``(g/sd + g_sq*c) + g_sq*c``. A fused op may
fold a negation into a sum (``sum(-t) == -sum(t)`` bit for bit, as IEEE
rounding is sign-symmetric) and write into its own temporaries; neither
changes a bit. Segment sums (``gather_rows`` backward, ``scatter_sum``) are
one flat ``np.bincount``, which adds each slot's entries in index order
exactly as ``np.add.at`` does. A :class:`RowIndex`, an index whose bounds
are read once and whose flat bincount index is kept per row width, spares
a gather or scatter the pass over its index that any other index gets.

Inside :func:`no_tape` an op records nothing, whatever its parents: its
output is a constant with no parents and no closure, so a values-only
forward (evaluation, certification) frees each intermediate as soon as the
next op has read it, and its values are bitwise those of the recorded
forward. The mode is one flag per thread, read only by ``_out``; a pool
thread does not inherit it, so a caller that fans a forward out over
threads enters the mode inside each call (``Runner._run`` does).

All public operations keep entries finite (checked when ``CHECK_FINITE`` is
on) and everything is float64: the symmetry tests downstream assert
near-exact equalities that 32-bit arithmetic cannot hold. The invariant
holds by induction, so only the places where a non-finite entry can first
appear check: leaves (``Tensor``, :func:`constant`), :meth:`Tensor.assign`,
and every op that can turn finite operands into a non-finite entry
(arithmetic, ``pow_``, ``matmul``/``linear``/``conv2d_valid``, reductions,
``scatter_sum``, ``exp``/``log``/``sqrt``/``div``, ``l2_normalize``,
``layer_norm``, ``shard_sum``). The structural ops (``reshape``,
``concat``, ``gather_rows``, ``narrow``, ``transpose``) only move finite
entries, and ``neg``, ``abs_``, ``relu``, ``sin``, ``cos``, ``tanh``,
``sigmoid`` and ``silu`` map a finite entry to one bounded by it or by a
constant; these skip the pass over their output.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

# Toggle for the finiteness invariant on leaves and op outputs. Costs one pass
# per leaf and per checked op; cheap at the array sizes this engine is built for.
CHECK_FINITE = True

# Denominators smaller than this are an error: reciprocal edge features and
# the simulation relay divide by data values and silent infs must not leak.
DIV_EPS = 1e-12


class _Mode(threading.local):
    """Per-thread tape mode: `record` is False inside :func:`no_tape`."""

    record = True


_MODE = _Mode()


def recording() -> bool:
    """Whether ops on the calling thread record a tape."""
    return _MODE.record


@contextmanager
def no_tape():
    """Values only, on the calling thread: ops record no parents and no
    closures. The previous mode comes back on exit, also on an error, so
    the context nests."""
    prev = _MODE.record
    _MODE.record = False
    try:
        yield
    finally:
        _MODE.record = prev


class NumericsError(FloatingPointError):
    """Non-finite values or a near-zero denominator in a tape op."""


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class Tensor:
    """A float64 ndarray plus the tape metadata produced by the op that made it.

    ``data`` is row-major and never mutated by ops; optimizers swap in a fresh
    array via :meth:`assign`. ``grad`` is populated by :func:`backward` (not
    by :func:`gradients`) when ``requires_grad`` is set; it may share memory
    with other nodes' gradients.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw", "name")

    def __init__(self, data, _parents=(), _bw=None, name: str | None = None,
                 requires_grad: bool = True, _check: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if _check and CHECK_FINITE and not np.isfinite(arr).all():
            raise NumericsError(f"non-finite entries in tensor {name or ''}".strip())
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
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

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def assign(self, new_data) -> None:
        """Rebind the underlying array (optimizer step). Not a tape op."""
        arr = np.array(new_data, dtype=np.float64, copy=True)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign shape {arr.shape} != {self.data.shape}")
        if CHECK_FINITE and not np.isfinite(arr).all():
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


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def constant(x) -> Tensor:
    """A leaf tensor that takes no gradient (no parents, like any leaf)."""
    return Tensor(x, requires_grad=False)


def _out(data, parents, bw, check=True) -> Tensor:
    """An op's output; a constant when no parent requires grad or no tape is
    recorded. `check=False` skips the finiteness pass, for ops that cannot
    turn finite operands into non-finite entries."""
    if _MODE.record and any(p.requires_grad for p in parents):
        return Tensor(data, _parents=parents, _bw=bw, _check=check)
    return Tensor(data, requires_grad=False, _check=check)


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
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _out(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, out):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _out(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, out):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _out(a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    if (np.abs(b.data) < DIV_EPS).any():
        raise NumericsError("division by near-zero denominator (|denom| < 1e-12)")

    def bw(g, out):
        return (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None,
        )

    return _out(a.data / b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return _out(-a.data, (a,), lambda g, out: (-g,), check=False)  # |-x| = |x|


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
    if (a.data <= 0.0).any():
        raise NumericsError("log of non-positive value")

    def bw(g, out):
        return (g / a.data,)

    return _out(np.log(a.data), (a,), bw)


def sqrt(a: Tensor) -> Tensor:
    if (a.data < 0.0).any():
        raise NumericsError("sqrt of negative value")

    def bw(g, out):
        return (g * 0.5 / np.maximum(out.data, DIV_EPS),)

    return _out(np.sqrt(a.data), (a,), bw)


def sin(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * np.cos(a.data),)

    return _out(np.sin(a.data), (a,), bw, check=False)  # in [-1, 1]


def cos(a: Tensor) -> Tensor:
    def bw(g, out):
        return (-g * np.sin(a.data),)

    return _out(np.cos(a.data), (a,), bw, check=False)  # in [-1, 1]


def tanh(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * (1.0 - out.data * out.data),)

    return _out(np.tanh(a.data), (a,), bw, check=False)  # in [-1, 1]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e) for x >= 0 and e/(1+e) below, e = exp(-|x|): one division
    of the selected numerator, the same quotients as dividing both."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    s = np.where(x >= 0, 1.0, e)
    s /= 1.0 + e
    return s


def sigmoid(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * out.data * (1.0 - out.data),)

    return _out(_sigmoid(a.data), (a,), bw, check=False)  # in [0, 1]: exp(-|x|) <= 1


def relu(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * (a.data > 0),)

    return _out(np.maximum(a.data, 0.0), (a,), bw, check=False)  # |relu(x)| <= |x|


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x); smooth, the activation used inside metanetwork MLPs.

    One node. The backward g*s + g*x*s*(1-s) sums the two paths of
    ``mul(x, sigmoid(x))`` in the order that composite's sweep adds them.
    """
    s = _sigmoid(a.data)

    def bw(g, out):
        path = g * a.data   # the path through x: ((g*x)*s)*(1-s)
        path *= s
        path *= 1.0 - s
        gx = g * s
        gx += path
        return (gx,)

    return _out(a.data * s, (a,), bw, check=False)  # |x * s| <= |x|, s in [0, 1]


def abs_(a: Tensor) -> Tensor:
    def bw(g, out):
        return (g * np.sign(a.data),)

    return _out(np.abs(a.data), (a,), bw, check=False)  # ||x|| = |x|


# -- linear algebra / structure ------------------------------------------------

def _product(a: np.ndarray, b: np.ndarray, shapes: str) -> np.ndarray:
    """a @ b whose inner dims already match; stack axes that do not
    broadcast raise a ShapeError naming both operands."""
    try:
        return a @ b
    except ValueError:
        raise ShapeError(f"stack axes do not broadcast: {shapes}") from None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; leading (stack) axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of at least 2 dims, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")

    def bw(g, out):
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None)

    return _out(_product(a.data, b.data, f"{a.shape} @ {b.shape}"), (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ wᵀ (+ b) as one node; w is [out, in] or a stack [..., out, in].

    Takes one contiguous copy of wᵀ and multiplies the same operand layouts
    as ``add(matmul(x, transpose(w)), b)``, so values and gradients are
    bitwise equal to that composite's.
    """
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError(f"linear expects operands of at least 2 dims, "
                         f"got x {x.shape}, w {w.shape}")
    if x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"linear input dims differ: x {x.shape}, w {w.shape}")
    wt = np.swapaxes(w.data, -1, -2).copy()
    y = _product(x.data, wt, f"x {x.shape}, w {w.shape}")
    if b is not None:
        try:
            y += b.data
        except ValueError:   # b's stack axes widen the product's
            y = y + b.data

    def bw(g, out):
        gx = _unbroadcast(g @ np.swapaxes(wt, -1, -2), x.shape) if x.requires_grad else None
        gw = (np.swapaxes(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, wt.shape), -1, -2)
              if w.requires_grad else None)
        if b is None:
            return gx, gw
        return gx, gw, _unbroadcast(g, b.shape) if b.requires_grad else None

    return _out(y, (x, w) if b is None else (x, w, b), bw)


def conv2d_valid(x: Tensor, k: Tensor, b: Tensor) -> Tensor:
    """Valid (unpadded, stride-1) convolution of channels-last images, one node.

    x [..., n, H, W, c_in], k [..., c_out, c_in, kh, kw] -> rows
    [..., n*H'*W', c_out] in (image, row, column) order, plus b, which
    broadcasts against those rows: [c_out] for one net, [N, 1, c_out] for a
    stack of N nets (leading stack axes of x and k broadcast, as in
    ``linear``). The forward adds the per-offset products
    ``flat @ k[..., dr, dc]ᵀ`` in row-major offset order, then b. The
    backward writes each kernel slot's ``(flatᵀ @ g)ᵀ`` and adds the offsets'
    input-gradient windows in that same forward order. Operand layouts are
    those of the narrow/reshape/``linear``/``add`` composite, so values and
    gradients are bitwise equal to it, and each stack row to its own net's.
    """
    if x.ndim < 4 or k.ndim < 4:
        raise ShapeError(f"conv2d_valid expects x [..., n, H, W, c_in] and "
                         f"k [..., c_out, c_in, kh, kw], got x {x.shape}, k {k.shape}")
    *lead, n, h, w, c_in = x.shape
    c_out, k_in, kh, kw = k.shape[-4:]
    if k_in != c_in:
        raise ShapeError(f"conv2d_valid channels differ: x {x.shape}, k {k.shape}")
    ho, wo = h - kh + 1, w - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    try:
        stack = np.broadcast_shapes(tuple(lead), k.shape[:-4])
        rows = stack + (n * ho * wo, c_out)
        if np.broadcast_shapes(b.shape, rows) != rows:
            raise ValueError
    except ValueError:
        raise ShapeError(f"conv2d_valid: stack axes or bias do not broadcast: x {x.shape}, "
                         f"k {k.shape}, b {b.shape}") from None
    offsets = [(dr, dc) for dr in range(kh) for dc in range(kw)]
    flat_shape = (*lead, n * ho * wo, c_in)
    slice_shape = k.shape[:-4] + (c_in, c_out)
    # flats[i]: the contiguous [..., n*ho*wo, c_in] input window under offset i
    # (row-major offset order); slices[i]: contiguous k[..., dr, dc]ᵀ. Unit
    # axes line the shorter stack up with the longer under the offset axis.
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (ho, wo), axis=(-3, -2))
    flats = np.ascontiguousarray(np.moveaxis(windows, (-5, -4, -3), (0, 1, -1)))
    flats = flats.reshape((kh * kw,) + (1,) * (len(stack) - len(lead)) + flat_shape)
    slices = np.ascontiguousarray(np.moveaxis(k.data, (-2, -1), (0, 1)).swapaxes(-1, -2))
    slices = slices.reshape((kh * kw,) + (1,) * (len(stack) + 2 - len(slice_shape))
                            + slice_shape)
    products = flats @ slices   # one gemm per offset and stack row
    y = products[0].copy()
    for p in products[1:]:
        y += p
    y += b.data

    def bw(g, out):
        gx = gk = None
        if x.requires_grad:
            gx = np.zeros(x.shape)
            wins = g @ np.swapaxes(slices, -1, -2)
            for (dr, dc), win in zip(offsets, wins):
                win = _unbroadcast(win, flat_shape)
                gx[..., dr:dr + ho, dc:dc + wo, :] += win.reshape(*lead, n, ho, wo, c_in)
        if k.requires_grad:
            gk = np.empty(k.shape)
            for (dr, dc), gs in zip(offsets, np.swapaxes(flats, -1, -2) @ g):
                gk[..., dr, dc] = np.swapaxes(_unbroadcast(gs, slice_shape), -1, -2)
        return gx, gk, _unbroadcast(g, b.shape) if b.requires_grad else None

    return _out(y, (x, k, b), bw)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float) -> Tensor:
    """Each row of x [rows, d] centered and scaled to unit variance, then
    ``* gain + shift``; one node.

    The forward evaluates the mean_/sub/mul/sqrt/div/add composite's numpy
    expressions in its order. The backward replays that composite's reverse
    sweep, summing the centered input's gradient as
    ``(g/sd + g_sq*c) + g_sq*c`` (the path through the division first, then
    both operands of ``c*c``), so values and gradients are bitwise equal to
    it. It negates the two row sums instead of their terms and takes
    ``g_sq*c`` once. A non-finite variance raises where the composite's
    intermediate tensors would.
    """
    if x.ndim != 2:
        raise ShapeError(f"layer_norm expects rows [n, d], got {x.shape}")
    inv_d = 1.0 / x.shape[1]
    mu = x.data.sum(axis=1, keepdims=True) * inv_d
    c = x.data - mu
    y = c * c
    var = y.sum(axis=1, keepdims=True) * inv_d
    if CHECK_FINITE and not np.isfinite(var).all():
        raise NumericsError("non-finite variance in layer_norm")
    ve = var + eps
    if (ve < 0.0).any():
        raise NumericsError("sqrt of negative value")
    sd = np.sqrt(ve)
    if (sd < DIV_EPS).any():   # sd >= 0
        raise NumericsError("division by near-zero denominator (|denom| < 1e-12)")
    normed = c / sd
    np.multiply(normed, gain.data, out=y)
    y += shift.data

    def bw(g, out):
        gx = None
        if x.requires_grad:
            gn = g * gain.data
            t = gn * c
            t /= sd * sd
            g_sd = -t.sum(axis=1, keepdims=True)   # the sum of -gn*c/(sd*sd), negated once
            g_sq = g_sd * 0.5 / np.maximum(sd, DIV_EPS) * inv_d
            gx = np.divide(gn, sd, out=gn)
            np.multiply(g_sq, c, out=t)
            gx += t
            gx += t
            gx -= gx.sum(axis=1, keepdims=True) * inv_d   # gx + sum(-gx) * inv_d
        return (gx,
                _unbroadcast(g * normed, gain.shape) if gain.requires_grad else None,
                _unbroadcast(g, shift.shape) if shift.requires_grad else None)

    return _out(y, (x, gain, shift), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError("transpose expects a tensor of at least 2 dims")
    return _out(np.swapaxes(a.data, -1, -2).copy(), (a,),
                lambda g, out: (np.swapaxes(g, -1, -2),), check=False)  # moves entries


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bw(g, out):
        return (g.reshape(a.shape),)

    return _out(a.data.reshape(shape), (a,), bw, check=False)  # moves entries


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g, out):
        return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                     for t, p in zip(tensors, np.split(g, splits, axis=axis)))

    return _out(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw,
                check=False)  # moves entries


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bw(g, out):
        full = np.zeros(a.shape)
        full[idx] = g
        return (full,)

    return _out(a.data[idx].copy(), (a,), bw, check=False)  # moves entries


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g, out):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _out(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over all entries, one axis, or a tuple of axes."""
    axes = range(a.ndim) if axis is None else np.atleast_1d(axis)
    count = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), constant(1.0 / count))


class RowIndex(np.ndarray):
    """A read-only row index whose bounds are read once.

    ``lo`` and ``hi`` are its least and greatest entries, so
    :func:`gather_rows` and :func:`scatter_sum` check it against a row count
    without a pass over it, and :meth:`spread` keeps the flat segment-sum
    index of each row width it has been used with. Cache one per index
    that many calls share (``graph.BatchRows`` holds them). An array derived
    from one (a slice, an arithmetic result) is an unchecked plain index.
    """

    def __new__(cls, idx):
        arr = np.array(idx, dtype=np.intp)
        out = arr.view(cls)
        out.lo, out.hi = (int(arr.min()), int(arr.max())) if arr.size else (0, -1)
        out._spread = {}
        out.flags.writeable = False
        return out

    def __array_finalize__(self, obj):
        self.lo = self.hi = self._spread = None

    def spread(self, width: int) -> np.ndarray:
        """``idx * width + column`` for every entry and column, flat; built
        on first use per width. Threads that race build equal arrays."""
        flat = self._spread.get(width)
        if flat is None:
            flat = _spread(self, width)
            flat.flags.writeable = False
            self._spread[width] = flat
        return flat


def _row_index(idx, n_rows: int) -> np.ndarray:
    """`idx` as an index array, its entries checked to lie in [0, n_rows): a
    `RowIndex` by its recorded bounds, anything else by a pass over it."""
    if isinstance(idx, RowIndex) and idx.lo is not None:
        lo, hi = idx.lo, idx.hi
    else:
        idx = np.asarray(idx, dtype=np.intp)
        lo, hi = (int(idx.min()), int(idx.max())) if idx.size else (0, -1)
    if lo < 0 or hi >= n_rows:
        raise IndexError(f"row indices must lie in [0, {n_rows}), got [{lo}, {hi}]")
    return idx


def _spread(idx: np.ndarray, width: int) -> np.ndarray:
    return (np.asarray(idx).reshape(-1, 1) * width + np.arange(width)).reshape(-1)


def _segment_sum(rows: np.ndarray, idx: np.ndarray, shape) -> np.ndarray:
    """Zeros of `shape` plus each row of `rows` added into row idx[i].

    One flat bincount over idx * width + column: every slot sums its entries
    sequentially in index order, the same bits as ``np.add.at``
    (``np.add.reduceat`` is not bitwise equal).
    """
    width = int(np.prod(shape[1:]))
    flat = idx.spread(width) if isinstance(idx, RowIndex) else _spread(idx, width)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=shape[0] * width).reshape(shape)


def gather_rows(a: Tensor, idx) -> Tensor:
    """Rows a[idx]; backward scatter-adds into the source rows."""
    idx = _row_index(idx, a.shape[0])

    def bw(g, out):
        return (_segment_sum(g, idx, a.shape),)

    return _out(a.data[idx], (a,), bw, check=False)  # copies entries


def scatter_sum(a: Tensor, idx, n_rows: int) -> Tensor:
    """Sum rows of `a` into `n_rows` buckets given by idx (segment sum)."""
    idx = _row_index(idx, n_rows)
    if a.ndim != 2:
        raise ShapeError("scatter_sum expects a 2-D tensor")
    if idx.shape != a.shape[:1]:
        raise ShapeError(f"scatter_sum needs one index per row, got {idx.shape} for {a.shape}")

    def bw(g, out):
        return (g[idx],)

    return _out(_segment_sum(a.data, idx, (n_rows, a.shape[1])), (a,), bw)


def l2_normalize(a: Tensor) -> Tensor:
    """Rows divided by their euclidean norm; zero rows map to zero.

    The zero-row convention keeps positive-scale canonicalization total; its
    gradient there is defined as zero. Only a norm of exactly zero takes it:
    any cutoff above zero would split the orbit of a row whose norm a
    positive scale moves across it.
    """
    if a.ndim != 2:
        raise ShapeError("l2_normalize expects a 2-D tensor")
    norms = np.sqrt(np.sum(a.data * a.data, axis=1, keepdims=True))
    ok = norms > 0.0
    safe = np.where(ok, norms, 1.0)
    y = np.where(ok, a.data / safe, 0.0)

    def bw(g, out):
        dot = np.sum(g * y, axis=1, keepdims=True)
        gx = np.where(ok, (g - y * dot) / safe, 0.0)
        return (gx,)

    return _out(y, (a,), bw)


def detach(a: Tensor) -> Tensor:
    """Value copy that blocks gradient flow."""
    return constant(a.data.copy())


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
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _sweep(loss: Tensor, order, keep=None) -> dict:
    """The reverse sweep from `loss` over `order` (its topological order).

    Returns the gradient table, id(node) -> array, local to this sweep, so
    sweeps over tapes that share leaves never touch each other's state. A
    parent's incoming gradients are added in the order the sweep produces
    them. With `keep` (a set of ids) given, the gradient of every node not
    in it is dropped as soon as its closure has consumed it; leaves keep
    theirs.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    table = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        if node._bw is None:
            continue
        key = id(node)
        g = table.get(key) if keep is None or key in keep else table.pop(key, None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._bw(g, node)):
            if pg is None or not parent.requires_grad:
                continue
            prev = table.get(id(parent))
            table[id(parent)] = pg if prev is None else prev + pg
    return table


def backward(loss: Tensor) -> None:
    """One reverse sweep from a scalar; populates .grad on every reachable
    node that requires grad.

    A node's first incoming gradient is kept without a copy, so ``.grad``
    arrays may be views of, or the same array as, other nodes' gradients.
    A :func:`shard_sum` node's shard tapes are swept inside its closure, so
    their nodes get no ``.grad``; its parameters do.
    """
    order = _topo(loss)
    table = _sweep(loss, order)
    for node in order:
        node.grad = table.get(id(node))


def gradients(loss: Tensor, params) -> list[np.ndarray]:
    """Backward sweep returning the gradient for each listed leaf (zeros if unused).

    Writes no ``.grad``: the gradients live in the sweep's own table, and
    each node's is freed once its closure has run, so several threads may
    sweep tapes that share leaves at once. Each returned array is the
    caller's own: writing into one changes no other returned gradient. Only
    views and repeats are copied.
    """
    params = list(params)
    table = _sweep(loss, _topo(loss), keep={id(p) for p in params})
    grads, seen = [], set()
    for p in params:
        g = table.get(id(p))
        if g is None:
            g = np.zeros(p.shape)
        elif g.base is not None or id(g) in seen:
            g = np.array(g, copy=True)
        seen.add(id(g))
        grads.append(g)
    return grads


def flat_concat(arrays) -> np.ndarray:
    """The arrays' entries end to end, each in row-major order, as one new
    vector (empty for no arrays)."""
    return np.concatenate([np.zeros(0)] + [np.reshape(a, -1) for a in arrays])


def shard_sum(losses, weights, params, run) -> Tensor:
    """``sum_k weights[k] * losses[k]`` as one node over `params` and `losses`.

    Each loss is a scalar on its own tape, a shard of one batch, and the
    tapes share only the listed leaves; a leaf not listed gets no gradient
    through this node. The losses are the node's last parents, so a walk of
    its tape reaches every shard's nodes, but the enclosing sweep passes
    them no gradient: the node's closure sweeps each shard's tape itself,
    through `run(fn, losses)`, which returns ``[fn(l) for l in losses]`` and
    may make the calls on a thread pool. It adds the shards' weighted
    parameter gradients in shard order. An error raised in a shard's sweep
    reaches the caller.

    The shards' gradients are joined per parameter: its ``gp * (w * g)``
    terms, added in shard order into a fresh array, so `gradients` hands it
    on without a copy. A shard that does not reach the parameter adds no
    term, and a parameter that no shard reaches gets no gradient.
    """
    losses, weights = list(losses), [float(w) for w in weights]
    params = [p for p in params if p.requires_grad]
    if not losses or len(losses) != len(weights):
        raise ShapeError(f"shard_sum needs one weight per loss, got {len(weights)} "
                         f"for {len(losses)}")
    if any(loss.size != 1 for loss in losses):
        raise ShapeError("shard_sum needs scalar losses")
    total = weights[0] * losses[0].data
    for w, loss in zip(weights[1:], losses[1:]):
        total = total + w * loss.data
    keep = {id(p) for p in params}

    def sweep(loss):
        return _sweep(loss, _topo(loss), keep)

    def bw(g, out):
        scale = float(np.reshape(g, -1)[0])
        grads = [None] * len(params)
        for w, table in zip(weights, run(sweep, losses)):
            for i, p in enumerate(params):
                gp = table.get(id(p))
                if gp is None:
                    continue
                term = gp * (w * scale)
                grads[i] = term if grads[i] is None else np.add(grads[i], term, out=grads[i])
        return tuple(grads) + (None,) * len(losses)

    return _out(total, tuple(params) + tuple(losses), bw)
