"""Tape primitives: values, broadcasting, and gradients vs central differences."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scalegmn import tensor as T
from scalegmn.nn import MLP
from scalegmn.optim import finite_diff_check
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
        (T.linear, [(3, 4), (5, 4)], False),  # no bias
        (T.linear, [(3, 4), (5, 4), (5,)], False),
        (T.linear, [(2, 3, 4), (2, 5, 4), (2, 1, 5)], False),  # stacked weights
        (T.linear, [(3, 4), (2, 5, 4)], False),  # 2-D input against a stack
        (T.silu, [(2, 3, 4)], False),
        (lambda x, g, s: T.layer_norm(x, g, s, 1e-5), [(3, 4), (4,), (4,)], False),
        (T.conv2d_valid, [(2, 4, 5, 2), (3, 2, 2, 3), (3,)], False),
        (T.conv2d_valid, [(2, 2, 4, 5, 2), (2, 3, 2, 2, 3), (2, 1, 3)], False),  # stacked
        (T.conv2d_valid, [(2, 4, 5, 2), (2, 3, 2, 2, 3), (2, 1, 3)], False),  # shared images
        (T.conv2d_valid, [(2, 2, 4, 5, 2), (3, 2, 2, 3), (3,)], False),  # shared kernels
        (lambda a: T.mean_(a, axis=(-2, -1)), [(2, 3, 4)], False),  # one mean per stack row
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


def test_l2_normalize_keeps_a_tiny_row_under_a_positive_scale():
    """Only an exactly-zero row maps to zero: a row of norm about 1e-13 and
    its positive multiples normalize alike (a cutoff at 1e-12 split them)."""
    row = np.array([[-1.58e-10, 2.0e-11]])
    for scale in (1.0, 0.00166, 1e3):
        y = T.l2_normalize(Tensor(row * scale))
        np.testing.assert_allclose(y.data, row / np.linalg.norm(row), rtol=1e-12)
    assert np.linalg.norm(row * 0.00166) < T.DIV_EPS


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


def test_matmul_stack_axes_must_broadcast():
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 5, 4\)"):
        T.linear(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 5, 4))))


WIDE_RNG = np.random.default_rng(1)   # own stream: the other tests keep their draws from RNG


def _wide(shape, rng=WIDE_RNG):
    """Entries spread over many magnitudes, so summation order shows in the bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape)


def tape_size(root) -> int:
    """Nodes reachable from `root` through their parents, leaves included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _grads_of(out, leaves, w):
    return gradients(T.sum_(T.mul(out, T.constant(w))), leaves)


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((6, 4), (5, 4), None),
    ((6, 4), (5, 4), (5,)),
    ((3, 6, 4), (3, 5, 4), (3, 1, 5)),
    ((6, 4), (3, 5, 4), (3, 1, 5)),
])
def test_linear_is_bitwise_the_matmul_transpose_add_composite(x_shape, w_shape, b_shape):
    arrays = [_wide(s) for s in (x_shape, w_shape, b_shape) if s is not None]
    fused_leaves = [Tensor(a) for a in arrays]
    ref_leaves = [Tensor(a) for a in arrays]
    fused = T.linear(*fused_leaves)
    ref = T.matmul(ref_leaves[0], T.transpose(ref_leaves[1]))
    if b_shape is not None:
        ref = T.add(ref, ref_leaves[2])
    assert np.array_equal(fused.data, ref.data)
    w = _wide(ref.shape)
    for a, b in zip(_grads_of(fused, fused_leaves, w), _grads_of(ref, ref_leaves, w)):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_silu_is_bitwise_the_mul_sigmoid_composite():
    x = _wide((7, 5)) * 1e-5
    fused_x, ref_x = Tensor(x), Tensor(x)
    fused = T.silu(fused_x)
    ref = T.mul(ref_x, T.sigmoid(ref_x))
    assert np.array_equal(fused.data, ref.data)
    w = _wide(x.shape)
    assert np.array_equal(_grads_of(fused, [fused_x], w)[0], _grads_of(ref, [ref_x], w)[0])


SEGMENT_CASES = [
    ((4, 3), WIDE_RNG.integers(0, 2, size=300)),   # duplicate-heavy, rows 2 and 3 unused
    ((4, 3), np.zeros(0, dtype=int)),              # empty
    ((5, 3, 2), WIDE_RNG.integers(0, 5, size=40)),  # rows that are themselves 2-D
]


@pytest.mark.parametrize("shape,idx", SEGMENT_CASES)
def test_gather_rows_backward_is_bitwise_np_add_at(shape, idx):
    a = Tensor(_wide(shape))
    w = _wide((len(idx),) + shape[1:])
    (g,) = gradients(T.sum_(T.mul(T.gather_rows(a, idx), T.constant(w))), [a])
    ref = np.zeros(shape)
    np.add.at(ref, idx, w)
    assert np.array_equal(g, ref)


@pytest.mark.parametrize("shape,idx", [c for c in SEGMENT_CASES if len(c[0]) == 2])
def test_scatter_sum_is_bitwise_np_add_at(shape, idx):
    rows = _wide((len(idx), shape[1]))
    out = T.scatter_sum(T.constant(rows), idx, shape[0])
    ref = np.zeros(shape)
    np.add.at(ref, idx, rows)
    assert np.array_equal(out.data, ref)


@pytest.mark.parametrize("shape,idx", [c for c in SEGMENT_CASES if len(c[0]) == 2])
def test_a_row_index_gives_the_plain_index_bits_at_every_width(shape, idx):
    checked = T.RowIndex(idx)
    assert not checked.flags.writeable
    for width in (shape[1], 3, shape[1]):   # the last reuses the kept spread
        a = Tensor(_wide((shape[0], width)))
        w = _wide((len(idx), width))
        grads = [gradients(T.sum_(T.mul(T.gather_rows(a, i), T.constant(w))), [a])[0]
                 for i in (idx, checked)]
        assert np.array_equal(grads[0], grads[1])
        rows = T.constant(w)
        assert np.array_equal(T.scatter_sum(rows, idx, shape[0]).data,
                              T.scatter_sum(rows, checked, shape[0]).data)
    assert sorted(checked._spread) == sorted({shape[1], 3})
    assert checked[1:].lo is None   # a derived array is checked as a plain one


def test_threads_sharing_a_row_index_get_the_plain_index_bits():
    """More threads than cores scatter through one RowIndex at widths it has
    not kept yet, with a short switch interval: each spread one builds or
    reads gives the plain index's bits."""
    idx = WIDE_RNG.integers(0, 30, size=500)
    checked, n_threads = T.RowIndex(idx), 4
    widths = [1, 2, 3, 5, 8, 13]
    rows = {w: _wide((idx.size, w)) for w in widths}
    expected = {w: T.scatter_sum(T.constant(rows[w]), idx, 30).data for w in widths}
    mismatches = []
    start = threading.Barrier(n_threads)

    def scatter(i):
        start.wait(timeout=30)
        for w in widths[i % 2::2] + widths:
            if not np.array_equal(T.scatter_sum(T.constant(rows[w]), checked, 30).data,
                                  expected[w]):
                mismatches.append((i, w))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scatter, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [] and sorted(checked._spread) == widths


def test_segment_ops_reject_out_of_range_indices():
    with pytest.raises(IndexError):
        T.gather_rows(Tensor(np.ones((3, 2))), np.array([0, 3]))
    with pytest.raises(IndexError):
        T.scatter_sum(Tensor(np.ones((2, 2))), np.array([0, -1]), 3)
    with pytest.raises(ShapeError):
        T.scatter_sum(Tensor(np.ones((2, 2))), np.array([0, 1, 1]), 3)


def test_backward_skips_products_for_constants(monkeypatch):
    c_mul, c_mat = _wide((1, 4)), _wide((2, 3))
    p = _wide((3, 4))
    unbroadcast, shapes = T._unbroadcast, []

    def counting(g, shape):
        shapes.append(tuple(shape))
        return unbroadcast(g, shape)

    def loss_of(make_leaf):
        param, k_mul, k_mat = Tensor(p), make_leaf(c_mul), make_leaf(c_mat)
        out = T.matmul(k_mat, T.div(T.mul(param, k_mul), T.constant(3.0)))
        weights = T.constant(np.linspace(1.0, 2.0, 8).reshape(2, 4))
        return T.sum_(T.mul(out, weights)), param, k_mul, k_mat

    loss, param, k_mul, k_mat = loss_of(Tensor)   # reference: operands take gradients
    g_ref, g_mul, g_mat = gradients(loss, [param, k_mul, k_mat])
    assert np.any(g_mul) and np.any(g_mat)
    monkeypatch.setattr(T, "_unbroadcast", counting)
    loss, param, k_mul, k_mat = loss_of(T.constant)
    g, g_mul, g_mat = gradients(loss, [param, k_mul, k_mat])
    assert not np.any(g_mul) and not np.any(g_mat)
    assert (1, 4) not in shapes and (2, 3) not in shapes and () not in shapes
    assert (3, 4) in shapes
    assert np.array_equal(g, g_ref)


def test_op_on_constants_is_a_constant():
    out = T.mul(T.constant(np.ones(3)), T.sigmoid(T.constant(np.ones(3))))
    assert not out.requires_grad and out._parents == () and out._bw is None
    assert T.add(out, Tensor(np.ones(3))).requires_grad


def test_gradients_are_caller_owned():
    a, b = Tensor(_wide((3, 4))), Tensor(_wide((3, 4)))
    loss = T.sum_(T.mul(T.add(a, b), T.constant(_wide((3, 4)))))
    for i in range(3):   # a and b share one upstream gradient; a is listed twice
        grads = gradients(loss, [a, b, a])
        before = [g.copy() for g in grads]
        grads[i] += 1.0
        for j, other in enumerate(grads):
            if j != i:
                assert np.array_equal(other, before[j]), (i, j)


def _layer_norm_composite(x, gain, shift, eps):
    """The mean_/sub/mul/sqrt/div/add chain ``T.layer_norm`` fuses."""
    mu = T.mean_(x, axis=1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean_(T.mul(centered, centered), axis=1, keepdims=True)
    normed = T.div(centered, T.sqrt(T.add(var, T.constant(eps))))
    return T.add(T.mul(normed, gain), shift)


def _assert_bitwise_like_composite(fused_op, ref_op, arrays, leaf_kinds, rng):
    """Same value bits and, for every leaf that takes a gradient, the same
    gradient bits from the fused op as from its composite."""
    fused_leaves = [kind(a) for kind, a in zip(leaf_kinds, arrays)]
    ref_leaves = [kind(a) for kind, a in zip(leaf_kinds, arrays)]
    fused, ref = fused_op(*fused_leaves), ref_op(*ref_leaves)
    assert fused.shape == ref.shape and np.array_equal(fused.data, ref.data)
    grad_leaves = [i for i, kind in enumerate(leaf_kinds) if kind is Tensor]
    if not grad_leaves:
        assert not fused.requires_grad
        return
    w = _wide(ref.shape, rng)
    fused_grads = _grads_of(fused, [fused_leaves[i] for i in grad_leaves], w)
    ref_grads = _grads_of(ref, [ref_leaves[i] for i in grad_leaves], w)
    for i, a, b in zip(grad_leaves, fused_grads, ref_grads):
        assert a.shape == b.shape and np.array_equal(a, b), f"leaf {i}"


LN_RNG = np.random.default_rng(2)


@pytest.mark.parametrize("leaf_kinds", [
    (Tensor, Tensor, Tensor),
    (T.constant, Tensor, Tensor),      # constant input: only gain/shift take gradients
    (Tensor, T.constant, T.constant),  # constant gain and shift
    (T.constant, T.constant, T.constant),
])
@pytest.mark.parametrize("shape", [(7, 5), (4, 1), (6, 33)])
def test_layer_norm_is_bitwise_the_composite(shape, leaf_kinds):
    x = _wide(shape, LN_RNG)
    x[0] = 3.25   # a constant row: zero variance, sd = sqrt(eps)
    arrays = [x, _wide(shape[1:], LN_RNG), _wide(shape[1:], LN_RNG)]
    _assert_bitwise_like_composite(
        lambda a, g, s: T.layer_norm(a, g, s, 1e-5),
        lambda a, g, s: _layer_norm_composite(a, g, s, 1e-5),
        arrays, leaf_kinds, LN_RNG)


def test_mlp_layer_norm_is_one_node():
    x = T.constant(np.ones((5, 4)))
    plain = MLP([4, 8, 8, 3], np.random.default_rng(0))(x)
    normed = MLP([4, 8, 8, 3], np.random.default_rng(0), layer_norm=True)(x)
    # each of the two norms adds its node and its gain and shift leaves
    assert tape_size(normed) == tape_size(plain) + 2 * 3


def _conv_composite(x, k, b):
    """The per-offset narrow/reshape/linear/add loop ``T.conv2d_valid`` fuses."""
    c_out, c_in, kh, kw = k.shape
    n, h, w, _ = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    acc = None
    for dr in range(kh):
        for dc in range(kw):
            patch = T.narrow(T.narrow(x, 1, dr, ho), 2, dc, wo)
            flat = T.reshape(patch, (n * ho * wo, c_in))
            k_slice = T.reshape(T.narrow(T.narrow(k, 2, dr, 1), 3, dc, 1), (c_out, c_in))
            term = T.linear(flat, k_slice)
            acc = term if acc is None else T.add(acc, term)
    return T.add(acc, b)


CONV_RNG = np.random.default_rng(3)


@pytest.mark.parametrize("x_kind", [Tensor, T.constant])
@pytest.mark.parametrize("c_in", [1, 4])
@pytest.mark.parametrize("kernel_hw", [(1, 1), (3, 3), (2, 3)])
def test_conv2d_valid_is_bitwise_the_per_offset_composite(kernel_hw, c_in, x_kind):
    c_out = 3
    arrays = [_wide((2, 6, 5, c_in), CONV_RNG), _wide((c_out, c_in) + kernel_hw, CONV_RNG),
              _wide((c_out,), CONV_RNG)]
    _assert_bitwise_like_composite(T.conv2d_valid, _conv_composite, arrays,
                                   (x_kind, Tensor, Tensor), CONV_RNG)


def test_conv2d_valid_shape_errors():
    x = Tensor(np.ones((1, 4, 4, 2)))
    with pytest.raises(ShapeError, match="larger than input"):
        T.conv2d_valid(x, Tensor(np.ones((3, 2, 5, 1))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="channels differ"):
        T.conv2d_valid(x, Tensor(np.ones((3, 1, 2, 2))), Tensor(np.zeros(3)))
    with pytest.raises(ShapeError, match="do not broadcast"):   # a bias per stack row, no stack
        T.conv2d_valid(x, Tensor(np.ones((3, 2, 2, 2))), Tensor(np.zeros((2, 1, 3))))
    with pytest.raises(ShapeError, match="do not broadcast"):   # stacks of 2 and 3 nets
        T.conv2d_valid(Tensor(np.ones((2, 1, 4, 4, 2))), Tensor(np.ones((3, 3, 2, 2, 2))),
                       Tensor(np.zeros(3)))


def test_layer_norm_raises_where_the_composite_does():
    gain, shift = Tensor(np.ones(3)), Tensor(np.zeros(3))
    huge = Tensor(np.array([[1e200, -1e200, 0.0]]))   # finite input, variance overflows
    for op in (T.layer_norm, _layer_norm_composite):
        with pytest.raises(NumericsError), np.errstate(over="ignore"):
            op(huge, gain, shift, 1e-5)
        with pytest.raises(NumericsError):   # zero variance and no eps: sd = 0
            op(Tensor(np.ones((2, 3))), gain, shift, 0.0)
        with pytest.raises(NumericsError):   # variance + eps below zero
            op(Tensor(np.ones((2, 3))), gain, shift, -1.0)


# -- the sweep-local gradient table and shard_sum ---------------------------------------------

SWEEP_RNG = np.random.default_rng(4)


def _mlp_losses(n_tapes, rows=6, rng=SWEEP_RNG):
    """One LayerNorm MLP's parameters and n_tapes weighted-sum losses of it
    on separate inputs: tapes that share only the parameter leaves."""
    mlp = MLP([4, 8, 8, 3], rng, layer_norm=True)
    losses = []
    for _ in range(n_tapes):
        out = mlp(T.constant(_wide((rows, 4), rng) * 1e-3))
        losses.append(T.sum_(T.mul(out, T.constant(_wide(out.shape, rng)))))
    return mlp.parameters(), losses


def _leaves(root):
    seen, stack, leaves = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if not node._parents:
            leaves.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return leaves


def test_gradients_are_bitwise_backward_and_write_no_grad():
    params, (loss,) = _mlp_losses(1)
    grads = gradients(loss, params)
    assert all(leaf.grad is None for leaf in _leaves(loss))
    backward(loss)
    for p, g in zip(params, grads):
        assert p.grad is not None and np.array_equal(p.grad, g)


def test_concurrent_sweeps_over_shared_leaves_match_sequential():
    """More threads than cores sweep tapes sharing every parameter leaf, with
    a short switch interval; each gets exactly its sequential gradients."""
    n_threads, reps = 4, 25
    params, losses = _mlp_losses(n_threads, rows=40)
    expected = [gradients(loss, params) for loss in losses]
    mismatches = []
    start = threading.Barrier(n_threads)

    def sweep(i):
        start.wait(timeout=30)
        for _ in range(reps):
            got = gradients(losses[i], params)
            if not all(np.array_equal(a, b) for a, b in zip(got, expected[i])):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_shard_sum_is_the_weighted_sum_and_passes_finite_differences():
    mlp = MLP([3, 5, 2], SWEEP_RNG, layer_norm=True)
    x = SWEEP_RNG.standard_normal((5, 3))
    params = mlp.parameters()

    def mean_square(rows):
        out = mlp(T.constant(rows))
        return T.mean_(T.mul(out, out))

    with ThreadPoolExecutor(2) as pool:
        def run(fn, items):
            return list(pool.map(fn, items))

        def sharded(ps):
            return T.shard_sum([mean_square(x[:3]), mean_square(x[3:])], [0.6, 0.4], ps,
                               run=run)

        joined = sharded(params)
        # the shard losses are parents too, so a walk of the tape sees every shard
        assert joined._parents[:len(params)] == tuple(params)
        assert len(joined._parents) == len(params) + 2
        whole = mean_square(x)   # the same mean over all five rows, one tape
        assert float(joined.data) == pytest.approx(float(whole.data), rel=1e-14)
        for a, b in zip(gradients(joined, params), gradients(whole, params)):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        assert finite_diff_check(sharded, params) < 1e-4


def test_shard_sum_sweeps_each_shard_once_and_passes_on_errors():
    params, losses = _mlp_losses(2)
    calls = []

    def run(fn, items):
        calls.append(len(items))
        return [fn(item) for item in items]

    joined = T.shard_sum(losses, [0.5, 0.5], params, run=run)
    expected = [0.5 * (a + b) for a, b in zip(*(gradients(loss, params) for loss in losses))]
    for got, want in zip(gradients(joined, params), expected):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    assert calls == [2]

    def failing(fn, items):
        raise NumericsError("shard sweep")

    with pytest.raises(NumericsError, match="shard sweep"):
        gradients(T.shard_sum(losses, [0.5, 0.5], params, run=failing), params)
    with pytest.raises(ShapeError):
        T.shard_sum(losses, [1.0], params, run=run)


def test_shard_sum_of_a_parameter_one_shard_does_not_reach():
    """The flat join adds -0.0 for it, which keeps every value's bits: the
    reached shard's term alone, its signed zeros included."""
    a, b = Tensor(np.array([1.0, -2.0, 0.0])), Tensor(np.array([3.0]))
    only_a = T.sum_(T.mul(a, T.constant([0.5, 0.0, -0.0])))
    both = T.sum_(T.add(T.mul(a, T.constant([-1.0, 2.0, 0.0])), T.mul(b, b)))
    for losses, weights in (([only_a, both], [0.25, 0.75]), ([both, only_a], [0.75, 0.25])):
        joined = T.shard_sum(losses, weights, [a, b], run=lambda fn, xs: [fn(x) for x in xs])
        ga, gb = gradients(joined, [a, b])
        (sa,), (ba, bb) = gradients(only_a, [a]), gradients(both, [a, b])
        terms = [sa * weights[losses.index(only_a)], ba * weights[losses.index(both)]]
        want_a = terms[0] + terms[1] if losses[0] is only_a else terms[1] + terms[0]
        assert np.array_equal(ga, want_a)
        assert np.array_equal(np.signbit(ga), np.signbit(want_a))
        assert np.array_equal(gb, bb * 0.75) and np.array_equal(np.signbit(gb), np.signbit(bb))
    unused = Tensor([5.0])
    joined = T.shard_sum([only_a, both], [0.5, 0.5], [a, b, unused],
                         run=lambda fn, xs: [fn(x) for x in xs])
    assert np.array_equal(gradients(joined, [unused])[0], [0.0])


# -- values-only evaluation (no_tape) and the finiteness invariant ----------------------------

def _mixed_forward(mlp, x):
    """A forward over parameter leaves through most op kinds."""
    h = mlp(x)
    y = T.concat([T.tanh(h), T.relu(h), T.sin(h), T.abs_(T.neg(h))], axis=1)
    rows = T.scatter_sum(T.gather_rows(y, [3, 0, 2, 1, 0]), np.array([0, 1, 1, 0, 1]), 2)
    return T.mean_(T.reshape(T.transpose(T.narrow(rows, 1, 1, 5)), (1, 10)), axis=1)


def test_no_tape_forward_is_one_node_with_the_recorded_values():
    mlp = MLP([3, 6, 4], np.random.default_rng(40), layer_norm=True)
    x = T.constant(np.random.default_rng(41).standard_normal((4, 3)))
    recorded = _mixed_forward(mlp, x)
    assert tape_size(recorded) > 20 and recorded.requires_grad
    with T.no_tape():
        assert not T.recording()
        values = _mixed_forward(mlp, x)
    assert T.recording()
    assert tape_size(values) == 1
    assert values._parents == () and values._bw is None and not values.requires_grad
    assert np.array_equal(values.data, recorded.data)
    assert all(p.requires_grad for p in mlp.parameters())   # leaves keep their flag


def test_no_tape_nests_and_an_error_inside_leaves_recording_on():
    with T.no_tape():
        with T.no_tape():
            assert not T.recording()
        assert not T.recording()   # the inner exit restores the outer mode
    assert T.recording()
    with pytest.raises(NumericsError):
        with T.no_tape():
            T.exp(Tensor([800.0]))   # overflows
    assert T.recording()
    assert T.add(Tensor([1.0]), Tensor([2.0])).requires_grad


def test_no_tape_is_per_thread():
    with T.no_tape(), ThreadPoolExecutor(1) as pool:
        assert pool.submit(T.recording).result()   # a fresh thread records
        assert not T.recording()


# The ops that skip the pass over their output: their finite operands give
# finite entries, so a non-finite value can only come in through a leaf.
UNCHECKED_OPS = {
    "reshape": lambda t: T.reshape(t, (-1,)),
    "concat": lambda t: T.concat([t, t], axis=0),
    "gather_rows": lambda t: T.gather_rows(t, [1, 0]),
    "narrow": lambda t: T.narrow(t, 1, 0, 1),
    "transpose": T.transpose,
    "neg": T.neg, "abs_": T.abs_, "relu": T.relu, "sin": T.sin, "cos": T.cos,
    "tanh": T.tanh, "sigmoid": T.sigmoid, "silu": T.silu,
}


@pytest.mark.parametrize("op", sorted(UNCHECKED_OPS))
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_unchecked_ops_still_reject_a_non_finite_leaf(op, bad):
    data = np.array([[1.0, bad], [0.5, -2.0]])
    for leaf in (Tensor, T.constant):
        with pytest.raises(NumericsError, match="non-finite"):
            UNCHECKED_OPS[op](leaf(data))
        with pytest.raises(NumericsError, match="non-finite"), T.no_tape():
            UNCHECKED_OPS[op](leaf(data))


@pytest.mark.parametrize("op", sorted(UNCHECKED_OPS))
def test_unchecked_ops_keep_extreme_finite_entries_finite(op):
    data = np.array([[1e308, -1e308], [5e-324, -np.finfo(float).max]])
    with np.errstate(over="raise", invalid="raise"):
        out = UNCHECKED_OPS[op](Tensor(data))
    assert np.all(np.isfinite(out.data))
