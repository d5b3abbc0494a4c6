"""Datapoint networks: forward oracle, orbit transforms, sine phase shifts."""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalegmn import activations, cnn, ffnn
from scalegmn import tensor as T
from scalegmn.activations import GROUPS
from scalegmn.baselines import stat_features
from scalegmn.ffnn import (
    FfnnParams,
    OrbitElement,
    apply_orbit,
    bias_shift,
    canonicalize_net,
    ffnn_forward,
    ffnn_forward_taped,
    sample_orbit,
    shift_sine_biases,
)


def random_siren(rng, dims=(2, 16, 16, 1), omega0=30.0):
    acts = [activations.sine(omega0)] * (len(dims) - 2) + [activations.identity()]
    weights, biases = [], []
    for i in range(len(dims) - 1):
        d_in, d_out = dims[i], dims[i + 1]
        if i == 0:
            w = rng.uniform(-1.0 / d_in, 1.0 / d_in, size=(d_out, d_in))
        else:
            bound = math.sqrt(6.0 / d_in) / omega0
            w = rng.uniform(-bound, bound, size=(d_out, d_in))
        weights.append(w)
        biases.append(rng.uniform(-0.5, 0.5, size=d_out))
    return FfnnParams(weights, biases, acts)


def random_net(rng, dims, act):
    acts = [act] * (len(dims) - 2) + [activations.identity()]
    weights = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(len(dims) - 1)]
    biases = [rng.standard_normal(dims[i + 1]) for i in range(len(dims) - 1)]
    return FfnnParams(weights, biases, acts)


def eval_grid(dim, n=101):
    if dim == 1:
        return np.linspace(-1, 1, n)[:, None]
    side = int(math.isqrt(n)) + 1
    g = np.linspace(-1, 1, side)
    return np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)[:n]


# -- forward -------------------------------------------------------------------

def test_forward_identity_net():
    net = FfnnParams([np.eye(3)], [np.zeros(3)], [activations.identity()])
    x = np.array([0.3, -1.2, 4.0])
    assert np.allclose(ffnn_forward(net, x), x)


def test_forward_single_sine_neuron():
    net = FfnnParams([np.array([[1.0]])], [np.zeros(1)], [activations.sine(math.pi / 2)])
    assert np.allclose(ffnn_forward(net, np.array([1.0])), [1.0])


def test_forward_matches_bruteforce_siren():
    rng = np.random.default_rng(5)
    net = random_siren(rng)
    xs = rng.uniform(-1, 1, size=(50, 2))
    # independent per-layer evaluation with explicit loops
    expected = np.zeros((50, 1))
    for r, x in enumerate(xs):
        h = x
        for l in range(net.n_layers):
            z = np.zeros(net.weights[l].shape[0])
            for i in range(net.weights[l].shape[0]):
                acc = 0.0
                for j in range(net.weights[l].shape[1]):
                    acc += net.weights[l][i, j] * h[j]
                if net.activations[l].name == "sine":
                    z[i] = math.sin(30.0 * acc + net.biases[l][i])
                else:
                    z[i] = acc + net.biases[l][i]
            h = z
        expected[r] = h
    assert np.max(np.abs(ffnn_forward(net, xs) - expected)) < 1e-12


@pytest.mark.parametrize("act", ["relu", "tanh", "sine", "identity"])
def test_forward_is_the_taped_forward_on_constants(monkeypatch, act):
    """`ffnn_forward` is bitwise the taped forward; neither evaluator leaves a
    tape behind (its taped output takes no gradient and has no parents)."""
    rng = np.random.default_rng(12)
    descriptor = activations.by_name(act, 30.0)
    net = random_net(rng, (3, 6, 5, 2), descriptor)
    x = rng.uniform(-1, 1, size=(40, 3))
    kernels = [rng.standard_normal((4, 1, 3, 3)), rng.standard_normal((3, 4, 2, 2))]
    biases = [rng.standard_normal(4), rng.standard_normal(3)]
    head = rng.standard_normal((2, 3))
    conv = cnn.CnnParams(kernels + [head], biases + [rng.standard_normal(2)],
                         [descriptor] * 2)
    outputs = []  # what the evaluators' own taped calls return
    for module, name in ((ffnn, "ffnn_forward_taped"), (cnn, "cnn_forward_taped")):
        def recorded(*args, taped=getattr(module, name), **kwargs):
            outputs.append(taped(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(module, name, recorded)
    # `ffnn_forward_taped` here is the name imported above, so it is not recorded
    assert np.array_equal(ffnn_forward(net, x), ffnn_forward_taped(net, x).data)
    assert np.array_equal(ffnn_forward(net, x[0]), ffnn_forward_taped(net, x[:1]).data[0])
    cnn.cnn_forward(conv, rng.standard_normal((2, 1, 7, 7)))
    assert len(outputs) == 3
    for out in outputs:
        assert not out.requires_grad and out._parents == ()


# -- orbits --------------------------------------------------------------------

def test_identity_orbit_is_noop():
    rng = np.random.default_rng(1)
    net = random_net(rng, (2, 5, 3), activations.tanh_act())
    g = OrbitElement.identity_for([5])
    out = apply_orbit(net, g)
    for a, b in zip(out.weights, net.weights):
        assert np.array_equal(a, b)


def test_relu_scaling_111():
    net = FfnnParams(
        [np.array([[1.5]]), np.array([[-0.7]])],
        [np.array([0.3]), np.array([0.1])],
        [activations.relu(), activations.identity()],
    )
    g = OrbitElement([np.array([0])], [np.array([2.0])])
    out = apply_orbit(net, g)
    assert np.allclose(out.weights[0], [[3.0]])
    assert np.allclose(out.biases[0], [0.6])
    assert np.allclose(out.weights[1], [[-0.35]])
    grid = eval_grid(1)
    dev = np.max(np.abs(ffnn_forward(out, grid) - ffnn_forward(net, grid)))
    assert dev < 1e-9


def test_tanh_sign_flip_rows_and_columns():
    rng = np.random.default_rng(2)
    net = random_net(rng, (3, 4, 2), activations.tanh_act())
    q = np.ones(4)
    q[1] = -1.0
    g = OrbitElement([np.arange(4)], [q])
    out = apply_orbit(net, g)
    assert np.allclose(out.weights[0][1], -net.weights[0][1])
    assert np.allclose(out.biases[0][1], -net.biases[0][1])
    assert np.allclose(out.weights[1][:, 1], -net.weights[1][:, 1])
    # untouched rows identical
    assert np.allclose(out.weights[0][0], net.weights[0][0])


@pytest.mark.parametrize(
    "act,kind",
    [
        (activations.tanh_act(), "sign"),
        (activations.sine(30.0), "sign"),
        (activations.relu(), "positive"),
    ],
)
def test_orbit_preserves_function(act, kind):
    rng = np.random.default_rng(9)
    for trial in range(5):
        net = random_net(rng, (2, 6, 6, 2), act)
        net.weights = [w * 0.6 for w in net.weights]
        g = sample_orbit(kind, [6, 6], rng)
        out = apply_orbit(net, g)
        grid = eval_grid(2)
        dev = np.max(np.abs(ffnn_forward(out, grid) - ffnn_forward(net, grid)))
        assert dev < 1e-8, f"trial {trial}: deviation {dev}"


def test_orbit_group_closure():
    rng = np.random.default_rng(4)
    net = random_net(rng, (2, 5, 4, 1), activations.relu())
    g1 = sample_orbit("positive", [5, 4], rng)
    g2 = sample_orbit("positive", [5, 4], rng)
    seq = apply_orbit(apply_orbit(net, g1), g2)
    combined = apply_orbit(net, g2.compose(g1))
    for a, b in zip(seq.weights, combined.weights):
        assert np.max(np.abs(a - b)) < 1e-12
    for a, b in zip(seq.biases, combined.biases):
        assert np.max(np.abs(a - b)) < 1e-12


def test_orbit_rejects_invalid_multiplier():
    rng = np.random.default_rng(6)
    net = random_net(rng, (2, 4, 1), activations.relu())
    g = OrbitElement([np.arange(4)], [np.array([1.0, -1.0, 1.0, 1.0])])
    with pytest.raises(ValueError, match="scaling group"):
        apply_orbit(net, g)


@pytest.mark.parametrize("kind", [*GROUPS, pytest.param(["positive", "sign"], id="mixed")])
def test_sample_orbit_kinds(kind):
    """Each hidden layer draws from its own group; one kind names it for every
    layer, with the same draws. Each group's draw and representative give
    members; a group whose backward edges copy the weights has only
    self-inverse members."""
    rng = np.random.default_rng(8)
    kinds = kind if isinstance(kind, list) else [kind]
    g = sample_orbit(kind, [7] * len(kinds), rng, permute=False)
    assert all(np.all(p == np.arange(7)) for p in g.perms)
    scales = sample_orbit(kind, [500] * len(kinds), rng).scales
    for layer_kind, q in zip(kinds, scales, strict=True):
        rules = GROUPS[layer_kind]
        assert not np.any(rules.member(np.array([0.0, -2.0])))  # in no group
        assert q.shape == (500,) and np.all(rules.member(q))
        rows = rng.standard_normal((40, 5))
        rows[0] = 0.0  # a dead neuron keeps its multiplier 1
        if rules.representative is not None:
            assert np.all(rules.member(rules.representative(rows)))
        if not rules.reciprocal:
            assert np.array_equal(q, 1.0 / q)
    if kind == ["positive", "sign"]:
        assert np.all(scales[0] > 0) and not np.all(np.abs(scales[0]) == 1.0)
        assert set(scales[1]) == {-1.0, 1.0}
    else:
        one, each = (sample_orbit(k, [5, 3], np.random.default_rng(2))
                     for k in (kind, [kind] * 2))
        assert all(np.array_equal(a, b) for a, b in
                   zip(one.perms + one.scales, each.perms + each.scales))


@pytest.mark.parametrize("factory,op", [(activations.relu, "relu"),
                                        (activations.tanh_act, "tanh"),
                                        (activations.sine, "sin"),
                                        (activations.identity, None)])
def test_forward_taped_reaches_a_rebound_tensor_op(monkeypatch, factory, op):
    """perfbench's tracer counts an op by rebinding every `scalegmn` module
    binding of the `tensor` function; each activation's tape op must look it
    up at call time, once per hidden layer."""
    calls = Counter()
    for name in ("relu", "tanh", "sin"):
        original = getattr(T, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.split(".")[0] == "scalegmn":
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    net = random_net(np.random.default_rng(2), (2, 5, 4, 1), factory())
    ffnn_forward_taped(net, np.ones((3, 2)))
    assert calls == Counter({op: 2} if op else {})


# -- sine phase canonicalization ------------------------------------------------

def _sine_grid_identity(b, w, b2, w2, omega0=1.0):
    xs = np.linspace(-3, 3, 101)[:, None] if np.size(w) == 1 else None
    if xs is None:
        xs = np.random.default_rng(0).uniform(-3, 3, size=(101, np.size(w)))
    lhs = np.sin(omega0 * xs @ np.atleast_1d(w2) + b2)
    rhs = np.sin(omega0 * xs @ np.atleast_1d(w) + b)
    return np.max(np.abs(lhs - rhs))


def test_bias_shift_already_canonical():
    b2, w2 = bias_shift(0.3, np.array([2.0]))
    assert b2 == 0.3 and np.allclose(w2, [2.0])


def test_bias_shift_three_quarter_pi():
    b2, w2 = bias_shift(3 * math.pi / 4, np.array([1.0]))
    assert abs(b2 - math.pi / 4) < 1e-12
    assert np.allclose(w2, [-1.0])
    assert _sine_grid_identity(3 * math.pi / 4, np.array([1.0]), b2, w2) < 1e-12


def test_bias_shift_negative_bias_unchanged():
    b2, w2 = bias_shift(-0.2, np.array([5.0]))
    assert abs(b2 - (-0.2)) < 1e-15
    assert np.allclose(w2, [5.0])


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(-25.0, 25.0),
    w0=st.floats(-3.0, 3.0),
    w1=st.floats(-3.0, 3.0),
)
def test_bias_shift_properties(b, w0, w1):
    w = np.array([w0, w1])
    b2, w2 = bias_shift(b, w)
    # lands in the target interval (single documented boundary point -pi/2)
    assert -math.pi / 2 - 1e-12 <= b2 <= math.pi / 2 + 1e-12
    # function is preserved on a grid
    assert _sine_grid_identity(b, w, b2, w2) < 1e-9
    # idempotent
    b3, w3 = bias_shift(b2, w2)
    assert abs(b3 - b2) < 1e-12
    assert np.max(np.abs(w3 - w2)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    b=st.floats(-1.5, 1.5),
    w0=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
    m=st.integers(-3, 3),
    q=st.sampled_from([-1.0, 1.0]),
)
def test_bias_shift_is_canonical_across_phase_orbit(b, w0, m, q):
    # two parameterizations of the same neuron function map to one canonical form
    w = np.array([w0])
    inv_sign = 1.0 if q >= 0 else 0.0  # adds pi when the sign flips
    b_alt = q * b + (2 * m + (0.0 if q > 0 else 1.0)) * math.pi
    w_alt = q * w
    c1 = bias_shift(b, w)
    c2 = bias_shift(b_alt, w_alt)
    assert abs(c1[0] - c2[0]) < 1e-9
    assert np.max(np.abs(c1[1] - c2[1])) < 1e-9


def test_shift_sine_biases_preserves_function():
    rng = np.random.default_rng(12)
    net = random_siren(rng, dims=(2, 8, 8, 1))
    # push some biases far outside the canonical interval
    net.biases[0] += rng.uniform(-8, 8, size=8)
    shifted = shift_sine_biases(net)
    grid = eval_grid(2)
    dev = np.max(np.abs(ffnn_forward(shifted, grid) - ffnn_forward(net, grid)))
    assert dev < 1e-6
    for b in shifted.biases[:-1]:
        assert np.all(b <= math.pi / 2 + 1e-12) and np.all(b >= -math.pi / 2 - 1e-12)


# -- net-level canonicalization ---------------------------------------------------

@pytest.mark.parametrize(
    "act,kind",
    [(activations.relu(), "positive"), (activations.tanh_act(), "sign")],
)
def test_canonicalize_net_idempotent_and_function_preserving(act, kind):
    rng = np.random.default_rng(13)
    net = random_net(rng, (2, 5, 5, 1), act)
    canon = canonicalize_net(net)
    grid = eval_grid(2)
    assert np.max(np.abs(ffnn_forward(canon, grid) - ffnn_forward(net, grid))) < 1e-8
    twice = canonicalize_net(canon)
    for a, b in zip(twice.weights, canon.weights):
        assert np.max(np.abs(a - b)) < 1e-12
    # orbit copies collapse to the same representative
    g = sample_orbit(kind, [5, 5], rng, permute=False)
    canon2 = canonicalize_net(apply_orbit(net, g))
    for a, b in zip(canon2.weights, canon.weights):
        assert np.max(np.abs(a - b)) < 1e-9


# -- statistics -------------------------------------------------------------------

def test_stat_features_constant_layer():
    net = FfnnParams([np.full((3, 2), 0.7)], [np.zeros(3)], [activations.identity()])
    f = stat_features(net)
    assert f.shape == (14,)
    assert abs(f[0] - 0.7) < 1e-15  # mean of weights
    assert f[1] < 1e-12  # std of constant weights (rounding only)


def test_stat_features_length_and_perm_invariance():
    rng = np.random.default_rng(14)
    net = random_net(rng, (2, 6, 6, 2), activations.tanh_act())
    f = stat_features(net)
    assert f.shape == (7 * 2 * 3,)
    g = sample_orbit("none", [6, 6], rng, permute=True)
    g = OrbitElement(g.perms, [np.ones(6), np.ones(6)])
    f2 = stat_features(apply_orbit(net, g))
    assert np.max(np.abs(f - f2)) < 1e-12
