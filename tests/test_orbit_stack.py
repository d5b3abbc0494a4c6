"""The stacked orbit-and-graph path against the per-element loop it replaced.

`apply_orbit`, `shift_sine_biases` and the graph builders act on a stack of
nets in one pass. The references below are the one-net-at-a-time loops they
replaced, kept here so every stacked result can be checked bitwise.
"""

import math

import numpy as np
import pytest

from scalegmn import activations
from scalegmn.cnn import CnnParams
from scalegmn.ffnn import (
    FfnnParams,
    LayerChain,
    OrbitElement,
    apply_orbit,
    bias_shift,
    sample_orbit,
    shift_sine_biases,
)
from scalegmn.graph import build_graph_cnn, graph_for
from scalegmn.tensor import DIV_EPS, ShapeError

from test_ffnn import random_net


# -- per-element references -----------------------------------------------------------

def reference_apply_orbit(net, g):
    """One net moved by one element, layer by layer."""
    n_hidden = len(net.dims) - 2
    weights, biases = [], []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        w, b = w.copy(), b.copy()
        kernel_axes = (1,) * (w.ndim - 2)
        if l < n_hidden:
            q, inv = g.scales[l], np.argsort(g.perms[l])
            w = (q.reshape(-1, 1, *kernel_axes) * w)[inv]
            b = (q * b)[inv]
        if l > 0:
            q, inv = g.scales[l - 1], np.argsort(g.perms[l - 1])
            w = (w / q.reshape(1, -1, *kernel_axes))[:, inv]
        weights.append(w)
        biases.append(b)
    return type(net)(weights, biases, list(net.activations))


def reference_bias_shift(b, w):
    """The bias-shift rule on one neuron, branch by branch."""
    w = np.asarray(w, dtype=np.float64)
    s = 1.0
    if b < 0:
        b, w, s = -b, -w, -s
    if b > 2 * math.pi:
        b = math.fmod(b, 2 * math.pi)
    if math.pi < b <= 2 * math.pi:
        b -= math.pi
        s = -s
    if b > math.pi / 2:
        b -= math.pi
        s = -s
    return s * b, s * w


def reference_shift(net):
    out = net.copy()
    for l in range(net.n_layers - 1):
        if net.activations[l].name == "sine":
            for i in range(out.biases[l].shape[0]):
                out.biases[l][i], out.weights[l][i] = reference_bias_shift(
                    out.biases[l][i], out.weights[l][i])
    return out


def reference_features(net, direction, kernel_hw=(1, 1)):
    """(x_v, x_e, x_e_bw) of one net, read edge block by edge block."""
    if any(a.name == "sine" for a in net.activations):
        net = reference_shift(net)
    dims = net.dims
    x_v = np.ones((sum(dims), 1))
    x_v[dims[0]:, 0] = np.concatenate(net.biases)
    blocks, slot_blocks = [], []
    for w in net.weights:
        k = w.reshape(w.shape[:2] + (w.shape[2:] or (1, 1)))
        padded = np.zeros(k.shape[:2] + tuple(kernel_hw))
        padded[:, :, :k.shape[2], :k.shape[3]] = k
        slots = np.zeros(padded.shape, dtype=bool)
        slots[:, :, :k.shape[2], :k.shape[3]] = True
        blocks.append(padded.reshape(k.shape[0] * k.shape[1], -1))
        slot_blocks.append(slots.reshape(k.shape[0] * k.shape[1], -1))
    x_e, slots = np.concatenate(blocks), np.concatenate(slot_blocks)
    if direction != "bidirectional":
        return x_v, x_e, None
    if net.activations[0].kind != "positive":
        return x_v, x_e, x_e.copy()
    x_bw = np.zeros_like(x_e)
    x_bw[slots] = 1.0 / x_e[slots]
    return x_v, x_e, x_bw


# -- the nets ---------------------------------------------------------------------------

def sine_net(rng):
    net = random_net(rng, (2, 5, 4, 2), activations.sine(30.0))
    for b in net.biases:  # phases on every branch of the shift rule
        b *= 6.0
    return net


def mixed_kernel_cnn(rng):
    """A positive CNN whose 3x3 and 2x2 kernels pad to 3x3 feature slots."""
    relu = activations.relu()
    return CnnParams(
        [rng.standard_normal((3, 1, 3, 3)), rng.standard_normal((2, 3, 2, 2)),
         rng.standard_normal((2, 2))],
        [rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(2)],
        [relu, relu])


NETS = {
    "sine": (sine_net, "sign"),
    "tanh": (lambda rng: random_net(rng, (2, 5, 4, 2), activations.tanh_act()), "sign"),
    "relu": (lambda rng: random_net(rng, (2, 5, 4, 2), activations.relu()), "positive"),
    "cnn": (mixed_kernel_cnn, "positive"),
}
CASES = [(name, direction, k) for name in NETS for direction in ("forward", "bidirectional")
         for k in (1, 5)]


def draw(name, k, seed=0):
    make, kind = NETS[name]
    rng = np.random.default_rng(seed)
    nets = [make(rng) for _ in range(k)]
    elements = [sample_orbit(kind, nets[0].dims[1:-1], rng) for _ in range(k)]
    return nets, elements


def assert_chains_equal(a, b):
    assert type(a) is type(b)
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.shape == y.shape and np.array_equal(x, y)


# -- orbits ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,k", [(name, k) for name in NETS for k in (1, 5)])
def test_stacked_apply_orbit_is_bitwise_the_per_element_loop(name, k):
    nets, elements = draw(name, k)
    moved = apply_orbit(LayerChain.stack(nets), OrbitElement.stack(elements))
    assert moved.stacked and moved.size == k
    for got, net, g in zip(moved, nets, elements):
        assert_chains_equal(got, reference_apply_orbit(net, g))
    # one net under k elements, k nets under one element, one net under one element
    for got, g in zip(apply_orbit(nets[0], OrbitElement.stack(elements)), elements):
        assert_chains_equal(got, reference_apply_orbit(nets[0], g))
    for got, net in zip(apply_orbit(LayerChain.stack(nets), elements[0]), nets):
        assert_chains_equal(got, reference_apply_orbit(net, elements[0]))
    single = apply_orbit(nets[0], elements[0])
    assert not single.stacked
    assert_chains_equal(single, reference_apply_orbit(nets[0], elements[0]))


def test_stacks_keep_order_and_index_like_arrays():
    nets, elements = draw("tanh", 4)
    stack = LayerChain.stack([nets[0], LayerChain.stack(nets[1:])])
    assert stack.size == 4 and stack.dims == nets[0].dims
    assert np.array_equal(stack.flatten(), np.stack([n.flatten() for n in nets]))
    sub = stack[np.array([3, 1])]
    assert sub.size == 2 and np.array_equal(sub[0].weights[1], nets[3].weights[1])
    g = OrbitElement.stack([elements[0], OrbitElement.stack(elements[1:])])
    assert g.size == 4 and all(p.shape == (4, w) for p, w in zip(g.perms, (5, 4)))
    with pytest.raises(TypeError, match="not a stack"):
        nets[0][0]


def test_stacking_other_architectures_names_the_net():
    rng = np.random.default_rng(1)
    nets = [random_net(rng, (2, 5, 4, 2), activations.tanh_act()),
            random_net(rng, (2, 5, 3, 2), activations.tanh_act())]
    with pytest.raises(ShapeError, match=r"^net 1 \(FfnnParams, weights \[\(5, 2\), \(3, 5\)"):
        LayerChain.stack(nets)
    with pytest.raises(ShapeError, match=r"^orbit element 1 \(widths \[5, 3\]\) does not "
                                         r"share element 0's widths \(\[5, 4\]\)"):
        OrbitElement.stack([sample_orbit("sign", [5, 4], rng), sample_orbit("sign", [5, 3], rng)])


def test_stacked_orbit_names_the_hidden_layer_outside_its_group():
    nets, elements = draw("relu", 4)
    elements[2].scales[1][0] = -1.0
    with pytest.raises(ValueError, match="^hidden layer 1: multiplier outside the relu"):
        apply_orbit(LayerChain.stack(nets), OrbitElement.stack(elements))
    nets, elements = draw("tanh", 3)
    elements[1].perms[0][:2] = 0
    with pytest.raises(ValueError, match="^hidden layer 0: perm is not a bijection"):
        apply_orbit(nets[0], OrbitElement.stack(elements))
    with pytest.raises(ShapeError, match="3 nets under 2 orbit elements"):
        apply_orbit(LayerChain.stack(nets), OrbitElement.stack(elements[:2]))


# -- sine phases ----------------------------------------------------------------------

def test_stacked_bias_shift_is_bitwise_the_per_neuron_loop():
    nets, _ = draw("sine", 6)
    shifted = shift_sine_biases(LayerChain.stack(nets))
    for got, net in zip(shifted, nets):
        assert_chains_equal(got, reference_shift(net))
    edges = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi,
             3 * math.pi / 4, 7.0, -7.0, 1e3, -1e3]
    for b in edges + list(np.random.default_rng(2).uniform(-50, 50, size=200)):
        got, want = bias_shift(b, np.array([0.5, -2.0])), reference_bias_shift(b, [0.5, -2.0])
        assert np.array_equal(np.float64(got[0]), np.float64(want[0]))
        assert np.array_equal(got[1], want[1])


# -- graph features -------------------------------------------------------------------

@pytest.mark.parametrize("name,direction,k", CASES)
def test_stacked_graph_features_are_bitwise_the_per_net_build(name, direction, k):
    nets, elements = draw(name, k)
    moved = apply_orbit(LayerChain.stack(nets), OrbitElement.stack(elements))
    kernel_hw = (3, 3) if name == "cnn" else (1, 1)
    graphs = graph_for(moved, direction)
    assert len(graphs) == k and len({id(g.template) for g in graphs}) == 1
    for g, net in zip(graphs, moved):
        x_v, x_e, x_bw = reference_features(net, direction, kernel_hw)
        assert np.array_equal(g.x_v, x_v) and np.array_equal(g.x_e, x_e)
        assert (g.x_e_bw is None) == (x_bw is None)
        assert x_bw is None or np.array_equal(g.x_e_bw, x_bw)
        single = graph_for(net, direction)
        assert single.template is g.template
        for a, b in ((single.x_v, x_v), (single.x_e, x_e), (single.x_e_bw, x_bw)):
            assert (a is None and b is None) or np.array_equal(a, b)


def test_near_zero_positive_weight_names_the_net_and_its_edges():
    nets, _ = draw("relu", 4)
    nets[2].weights[1][3, 1] = 0.0          # layer 1 -> 2: target 3, source 1
    nets[3].weights[0][0, 0] = DIV_EPS / 2
    stack = LayerChain.stack(nets)
    target, source = 2 + 5 + 3, 2 + 1
    with pytest.raises(ValueError, match=(
            rf"net 2 of 4, offending \(target, source\) edges: \[\({target}, {source}\)\]; "
            r"1 more net\(s\) offend")):
        graph_for(stack, "bidirectional")
    assert len(graph_for(stack, "forward")) == 4   # forward features divide by nothing


def test_padded_kernel_slots_are_not_reported_as_zero_weights():
    nets, _ = draw("cnn", 3)
    nets[1].weights[1][0, 2, 1, 0] = 0.0
    with pytest.raises(ValueError, match=r"net 1 of 3, offending \(target, source\) edges: "
                                         r"\[\(4, 3\)\]$"):
        build_graph_cnn(LayerChain.stack(nets), "bidirectional")
    assert len(build_graph_cnn(LayerChain.stack(nets[:1] + nets[2:]), "bidirectional")) == 2
