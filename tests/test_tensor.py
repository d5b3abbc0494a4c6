"""Tape primitives: values, broadcasting, and gradients vs central differences."""

import numpy as np
import pytest

from scalegmn import tensor as T
from scalegmn.tensor import NumericsError, ShapeError, Tensor, backward, gradients

RNG = np.random.default_rng(0)


def _fd_check(op, shapes, step=1e-6, tol=1e-4, positive=False):
    """Central-difference check of a scalar-reducing composite of `op`."""
    arrs = [RNG.standard_normal(s) for s in shapes]
    if positive:
        arrs = [np.abs(a) + 0.5 for a in arrs]
    params = [Tensor(a) for a in arrs]

    def f(ps):
        out = op(*ps)
        # weight the output so the reduction is not symmetric
        w = np.linspace(1.0, 2.0, out.size).reshape(out.shape)
        return T.sum_(T.mul(out, Tensor(w)))

    loss = f(params)
    grads = gradients(loss, params)
    for p, g in zip(params, grads):
        base = p.data.copy()
        flat_g = g.reshape(-1)
        for k in range(base.size):
            pert = base.reshape(-1).copy()
            pert[k] = base.reshape(-1)[k] + step
            p.assign(pert.reshape(base.shape))
            hi = float(f(params).data)
            pert[k] = base.reshape(-1)[k] - step
            p.assign(pert.reshape(base.shape))
            lo = float(f(params).data)
            p.assign(base)
            fd = (hi - lo) / (2 * step)
            denom = max(abs(fd), abs(flat_g[k]), 1e-6)
            assert abs(fd - flat_g[k]) / denom < tol, f"coord {k}: ad={flat_g[k]} fd={fd}"


@pytest.mark.parametrize(
    "op,shapes,positive",
    [
        (T.add, [(3, 4), (3, 4)], False),
        (T.add, [(3, 4), (4,)], False),  # broadcast bias
        (T.sub, [(3, 4), (3, 4)], False),
        (T.mul, [(3, 4), (3, 4)], False),
        (T.mul, [(3, 1), (1, 4)], False),  # broadcast outer
        (T.div, [(3, 4), (3, 4)], True),
        (T.exp, [(3, 4)], False),
        (T.log, [(3, 4)], True),
        (T.sqrt, [(3, 4)], True),
        (T.sin, [(3, 4)], False),
        (T.cos, [(3, 4)], False),
        (T.tanh, [(3, 4)], False),
        (T.sigmoid, [(3, 4)], False),
        (T.silu, [(3, 4)], False),
        (T.relu, [(3, 4)], False),
        (T.abs_, [(3, 4)], False),
        (T.matmul, [(3, 4), (4, 5)], False),
        (T.transpose, [(3, 4)], False),
        (T.l2_normalize, [(3, 4)], False),
        (lambda a: T.reshape(a, (4, 3)), [(3, 4)], False),
        (lambda a: T.narrow(a, 1, 1, 2), [(3, 4)], False),
        (lambda a, b: T.concat([a, b], axis=1), [(3, 2), (3, 3)], False),
        (lambda a: T.sum_(a, axis=0), [(3, 4)], False),
        (lambda a: T.mean_(a, axis=1, keepdims=True), [(3, 4)], False),
        (lambda a: T.gather_rows(a, np.array([2, 0, 0, 1])), [(3, 4)], False),
        (lambda a: T.scatter_sum(a, np.array([1, 0, 1, 2, 0]), 3), [(5, 4)], False),
        (T.matmul, [(2, 3, 4), (2, 4, 5)], False),  # stacked
        (T.matmul, [(3, 4), (2, 4, 5)], False),  # 2-D left operand against a stack
        (T.transpose, [(2, 3, 4)], False),  # swaps the last two axes
    ],
)
def test_primitive_gradients(op, shapes, positive):
    _fd_check(op, shapes, positive=positive)


def test_backward_square():
    x = Tensor([3.0])
    loss = T.sum_(T.mul(x, x))
    backward(loss)
    assert np.allclose(x.grad, [6.0])


def test_backward_linear_map():
    w = Tensor(RNG.standard_normal((3, 2)))
    x = np.array([[1.5, -2.0]])
    loss = T.sum_(T.matmul(Tensor(x), T.transpose(w)))
    backward(loss)
    # d/dW of sum(W x) has x broadcast across output rows
    assert np.allclose(w.grad, np.tile(x, (3, 1)))


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ShapeError):
        backward(T.mul(x, x))


def test_grad_accumulates_over_reuse():
    x = Tensor([2.0])
    y = T.add(T.mul(x, x), T.mul(x, Tensor([3.0])))  # x^2 + 3x
    backward(T.sum_(y))
    assert np.allclose(x.grad, [7.0])


def test_division_guard():
    a, b = Tensor([1.0]), Tensor([1e-13])
    with pytest.raises(NumericsError):
        T.div(a, b)


def test_non_finite_rejected():
    with pytest.raises(NumericsError):
        Tensor([np.inf])
    x = Tensor([800.0])
    with pytest.raises(NumericsError):
        T.exp(x)  # overflows to inf


def test_l2_normalize_values_and_zero_row():
    x = Tensor([[3.0, 4.0], [0.0, 0.0]])
    y = T.l2_normalize(x)
    assert np.allclose(y.data[0], [0.6, 0.8])
    assert np.allclose(y.data[1], [0.0, 0.0])
    # positive-scale invariance
    y2 = T.l2_normalize(Tensor([[6.0, 8.0], [0.0, 0.0]]))
    assert np.allclose(y.data, y2.data)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 3, 5))))


def test_determinism_bitwise():
    a = RNG.standard_normal((5, 5))
    b = RNG.standard_normal((5, 5))
    r1 = T.matmul(T.tanh(Tensor(a)), Tensor(b)).data
    r2 = T.matmul(T.tanh(Tensor(a)), Tensor(b)).data
    assert np.array_equal(r1, r2)


def test_detach_blocks_gradient():
    x = Tensor([2.0])
    y = T.mul(T.detach(x), x)
    backward(T.sum_(y))
    assert np.allclose(x.grad, [2.0])  # only the live factor contributes
