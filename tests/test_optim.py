"""Adam, the finite-difference checker, and plain MLP evaluation."""

import numpy as np
import pytest

from scalegmn import activations, tensor as T
from scalegmn.ffnn import FfnnParams, ffnn_forward_taped
from scalegmn.nn import MLP
from scalegmn.optim import AdamState, finite_diff_check
from scalegmn.tensor import NumericsError, ShapeError, Tensor, gradients


def plain_mlp(layers, hidden_act):
    """Per-layer (weight, bias) pairs with `hidden_act` between layers."""
    weights, biases = zip(*layers)
    acts = [hidden_act] * (len(layers) - 1) + [activations.identity()]
    return FfnnParams(list(weights), list(biases), acts)


def test_mlp_forward_identity():
    out = ffnn_forward_taped(plain_mlp([(np.eye(2), np.zeros(2))], activations.identity()),
                             np.array([1.0, 2.0]))
    assert np.allclose(out.data, [[1.0, 2.0]])


def test_mlp_forward_relu_head():
    # activation applies between layers, not after the last one; add an extra
    # identity layer so the ReLU acts on the first layer's output max(-3,0)=0
    layers = [(np.array([[-2.0]]), np.array([1.0])), (np.eye(1), np.zeros(1))]
    out = ffnn_forward_taped(plain_mlp(layers, activations.relu()), np.array([2.0]))
    assert np.allclose(out.data, [[0.0]])


def test_mlp_forward_matches_manual_evaluation():
    rng = np.random.default_rng(7)
    w1, b1 = rng.standard_normal((5, 3)), rng.standard_normal(5)
    w2, b2 = rng.standard_normal((2, 5)), rng.standard_normal(2)
    x = rng.standard_normal((4, 3))
    out = ffnn_forward_taped(plain_mlp([(w1, b1), (w2, b2)], activations.tanh_act()), x)
    manual = np.tanh(x @ w1.T + b1) @ w2.T + b2
    assert np.max(np.abs(out.data - manual)) < 1e-12


def test_mlp_forward_shape_error_names_layer():
    layers = [(np.ones((2, 2)), np.zeros(2)), (np.ones((3, 5)), np.zeros(3))]
    with pytest.raises(ShapeError, match="layer 1"):
        plain_mlp(layers, activations.identity())


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = [
        Tensor(rng.standard_normal((4, 3)) * 0.5),
        Tensor(rng.standard_normal(4) * 0.5),
        Tensor(rng.standard_normal((1, 4)) * 0.5),
        Tensor(rng.standard_normal(1) * 0.5),
    ]
    x = rng.standard_normal((6, 3))

    def f(ps):
        net = plain_mlp([(ps[0], ps[1]), (ps[2], ps[3])], activations.tanh_act())
        out = ffnn_forward_taped(net, x)
        return T.sum_(T.mul(out, out))

    assert finite_diff_check(f, params, step=1e-5) < 1e-4


def test_finite_diff_analytic_cubic():
    x = Tensor([2.0])

    def f(ps):
        return T.sum_(T.mul(T.mul(ps[0], ps[0]), ps[0]))

    err = finite_diff_check(f, [x], step=1e-5)
    assert err < 1e-8
    assert np.allclose(gradients(f([x]), [x])[0], [12.0])


def test_finite_diff_constant_function():
    x = Tensor([1.0, -1.0])

    def f(ps):
        return T.sum_(T.mul(ps[0], T.constant([0.0, 0.0])))

    assert finite_diff_check(f, [x]) == 0.0


def test_adam_zero_gradients_keep_params():
    p = Tensor([1.0, 2.0])
    state = AdamState([p], lr=0.1)
    state.step([np.zeros(2)])
    assert np.allclose(p.data, [1.0, 2.0])
    assert state.t == 1


def test_adam_step_counter_increments():
    p = Tensor([0.0])
    state = AdamState([p], lr=0.01)
    for expected in (1, 2, 3):
        state.step([np.array([1.0])])
        assert state.t == expected


def test_adam_minimizes_quadratic():
    p = Tensor([0.0])
    state = AdamState([p], lr=0.05)
    for _ in range(2000):
        diff = T.sub(p, T.constant([5.0]))
        loss = T.sum_(T.mul(diff, diff))
        (g,) = gradients(loss, [p])
        state.step([g])
    assert abs(p.data[0] - 5.0) < 1e-2


def test_adam_rejects_non_finite_grads():
    p = Tensor([0.0])
    state = AdamState([p])
    with pytest.raises(NumericsError):
        state.step([np.array([np.nan])])


@pytest.mark.parametrize("count", [1, 3])
def test_adam_rejects_a_gradient_list_of_the_wrong_length(count):
    """A refused step changes nothing: not the counter, moments or parameters."""
    a, b = Tensor([1.0, 2.0]), Tensor([3.0])
    state = AdamState([a, b], lr=0.1)
    state.step([np.array([0.5, -0.5]), np.array([1.0])])
    before = (state.t, [m.copy() for m in state.m], [v.copy() for v in state.v],
              a.data.copy(), b.data.copy())
    grads = [np.array([1.0, 1.0]), np.array([1.0]), np.array([1.0])][:count]
    with pytest.raises(ShapeError, match=rf"^{count} gradient\(s\) for 2 parameter\(s\)"):
        state.step(grads)
    assert state.t == before[0] == 1
    for now, then in zip(state.m + state.v + [a.data, b.data],
                         before[1] + before[2] + [before[3], before[4]]):
        assert np.array_equal(now, then)


def test_mlp_module_trains():
    rng = np.random.default_rng(11)
    mlp = MLP([2, 8, 1], rng)
    xs = rng.standard_normal((32, 2))
    ys = (xs[:, :1] + 2 * xs[:, 1:])  # linear target
    params = mlp.parameters()
    state = AdamState(params, lr=0.02)
    first = None
    for _ in range(300):
        diff = T.sub(mlp(Tensor(xs)), Tensor(ys))
        loss = T.mean_(T.mul(diff, diff))
        if first is None:
            first = float(loss.data)
        state.step(gradients(loss, params))
    assert float(loss.data) < 0.05 * first


class PerTensorAdam:
    """Adam one parameter at a time, the reference the flat AdamState keeps
    to: each step's entries must be bitwise these."""

    def __init__(self, arrays, lr):
        self.data = [a.copy() for a in arrays]
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(a.shape) for a in arrays]
        self.v = [np.zeros(a.shape) for a in arrays]

    def step(self, grads):
        self.t += 1
        bc1, bc2 = 1.0 - 0.9**self.t, 1.0 - 0.999**self.t
        for i, g in enumerate(grads):
            self.m[i] = 0.9 * self.m[i] + (1.0 - 0.9) * g
            self.v[i] = 0.999 * self.v[i] + (1.0 - 0.999) * g * g
            lr = self.lr if np.isscalar(self.lr) else self.lr.reshape(
                (-1,) + (1,) * (g.ndim - 1))
            self.data[i] = self.data[i] - lr * (self.m[i] / bc1) / (
                np.sqrt(self.v[i] / bc2) + 1e-8)


def _assert_adam_tracks_the_reference(state, ref, rng, steps=20):
    for _ in range(steps):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for p in state.params]
        state.step(grads)
        ref.step(grads)
        assert state.t == ref.t
        for got, want in zip([p.data for p in state.params] + state.m + state.v,
                             ref.data + ref.m + ref.v):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("per_row", [False, True])
def test_flat_adam_is_bitwise_the_per_tensor_update(per_row):
    rng = np.random.default_rng(12)
    shapes = [(3, 4, 2), (3, 1, 5), (3,), (3, 2, 2, 3, 3)]
    arrays = [rng.standard_normal(s) for s in shapes]
    lr = np.array([1e-3, 5e-3, 2e-2]) if per_row else 3e-3
    state = AdamState([Tensor(a) for a in arrays], lr=lr)
    _assert_adam_tracks_the_reference(state, PerTensorAdam(arrays, lr), rng)


def test_flat_adam_after_take_is_bitwise_the_per_tensor_update():
    rng = np.random.default_rng(13)
    arrays = [rng.standard_normal(s) for s in [(4, 3, 2), (4, 1, 3)]]
    lr = np.array([1e-3, 2e-3, 3e-3, 4e-3])
    state, ref = AdamState([Tensor(a) for a in arrays], lr=lr), PerTensorAdam(arrays, lr)
    _assert_adam_tracks_the_reference(state, ref, rng, steps=5)
    rows = np.array([3, 1])
    kept = state.take(rows)
    sub = PerTensorAdam([a[rows] for a in ref.data], lr[rows])
    sub.t, sub.m, sub.v = ref.t, [m[rows] for m in ref.m], [v[rows] for v in ref.v]
    _assert_adam_tracks_the_reference(kept, sub, rng)


def test_flat_adam_reads_a_parameter_rebound_between_steps():
    p, q = Tensor([1.0, 2.0]), Tensor([3.0])
    state = AdamState([p, q], lr=0.1)
    ref = PerTensorAdam([p.data, q.data], 0.1)
    state.step([np.array([0.5, -0.5]), np.array([1.0])])
    ref.step([np.array([0.5, -0.5]), np.array([1.0])])
    q.assign([7.0])   # a load between steps
    ref.data[1] = np.array([7.0])
    state.step([np.array([1.0, 1.0]), np.array([-2.0])])
    ref.step([np.array([1.0, 1.0]), np.array([-2.0])])
    assert np.array_equal(p.data, ref.data[0]) and np.array_equal(q.data, ref.data[1])


def test_adam_names_the_parameter_of_a_non_finite_gradient():
    state = AdamState([Tensor([1.0, 2.0]), Tensor(np.ones((2, 2))), Tensor([3.0])])
    with pytest.raises(NumericsError, match="parameter 1$"):
        state.step([np.zeros(2), np.array([[0.0, 0.0], [np.inf, 0.0]]), np.zeros(1)])
    assert state.t == 0
