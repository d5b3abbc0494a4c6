"""Graph construction: counts, features, PE classes, backward edges."""

import numpy as np
import pytest

from scalegmn import activations
from scalegmn.cnn import CnnParams
from scalegmn.ffnn import FfnnParams, apply_orbit, sample_orbit
from scalegmn.graph import (
    GraphTemplate,
    add_backward_edges,
    build_graph,
    build_graph_cnn,
)

from test_ffnn import random_net, random_siren


def test_counts_2_4_1():
    rng = np.random.default_rng(0)
    g = build_graph(random_net(rng, (2, 4, 1), activations.tanh_act()))
    assert g.n_vertices == 7
    assert g.n_edges == 2 * 4 + 4 * 1


def test_input_vertex_feature_is_one():
    rng = np.random.default_rng(1)
    g = build_graph(random_net(rng, (3, 5, 2), activations.relu()))
    assert np.all(g.x_v[:3] == 1.0)


def test_hidden_vertex_feature_is_bias():
    rng = np.random.default_rng(2)
    net = random_net(rng, (2, 4, 1), activations.tanh_act())
    g = build_graph(net)
    assert np.allclose(g.x_v[2:6, 0], net.biases[0])
    assert np.allclose(g.x_v[6, 0], net.biases[1])


def test_edge_features_are_weights_rowmajor():
    rng = np.random.default_rng(3)
    net = random_net(rng, (2, 3, 1), activations.tanh_act())
    g = build_graph(net)
    expected = np.concatenate([net.weights[0].reshape(-1), net.weights[1].reshape(-1)])
    assert np.allclose(g.x_e[:, 0], expected)


def test_sine_graph_has_canonical_biases():
    rng = np.random.default_rng(4)
    net = random_siren(rng, dims=(2, 6, 6, 1))
    net.biases[0] += rng.uniform(-7, 7, size=6)
    g = build_graph(net)
    hidden = g.x_v[(g.layer_of >= 1) & (g.layer_of < g.n_layers), 0]
    assert np.all(hidden <= np.pi / 2 + 1e-12)
    assert np.all(hidden >= -np.pi / 2 - 1e-12)


# -- positional encoding classes --------------------------------------------------

def test_pe_class_counts_2_4_4_1():
    rng = np.random.default_rng(5)
    g = build_graph(random_net(rng, (2, 4, 4, 1), activations.tanh_act()))
    assert len(g.class_names["vertex"]) == 2 + 1 + 1 + 1
    # edges: 2 input-source classes, 1 hidden-pair class, 1 output-target class
    assert len(g.class_names["edge"]) == 2 + 1 + 1


def test_pe_edges_into_same_output_share_class():
    rng = np.random.default_rng(6)
    g = build_graph(random_net(rng, (2, 3, 2), activations.tanh_act()))
    last = g.layer_of[g.fw_tgt] == g.n_layers
    tgt_idx = g.index_in_layer[g.fw_tgt[last]]
    classes = g.edge_class[last]
    for out in (0, 1):
        vals = set(classes[tgt_idx == out].tolist())
        assert len(vals) == 1
    assert set(classes[tgt_idx == 0]) != set(classes[tgt_idx == 1])


def test_pe_class_multiset_invariant_under_hidden_permutation():
    rng = np.random.default_rng(7)
    net = random_net(rng, (2, 5, 5, 2), activations.tanh_act())
    g1 = build_graph(net)
    orbit = sample_orbit("none", [5, 5], rng, permute=True)
    g2 = build_graph(apply_orbit(net, orbit))
    assert sorted(g1.vertex_class.tolist()) == sorted(g2.vertex_class.tolist())
    assert sorted(g1.edge_class.tolist()) == sorted(g2.edge_class.tolist())


# -- backward edges -----------------------------------------------------------------

def test_backward_positive_reciprocal():
    rng = np.random.default_rng(8)
    net = random_net(rng, (2, 3, 1), activations.relu())
    net.weights[0][0, 0] = 0.5
    g = build_graph(net)
    add_backward_edges(g, "positive")
    assert g.x_e_bw.shape == g.x_e.shape
    assert np.allclose(g.x_e_bw, 1.0 / g.x_e)
    assert abs(g.x_e_bw[0, 0] - 2.0) < 1e-15


def test_backward_sign_keeps_features():
    rng = np.random.default_rng(9)
    net = random_net(rng, (2, 3, 1), activations.tanh_act())
    net.weights[0][0, 0] = -0.7
    g = build_graph(net, direction="bidirectional")
    assert np.array_equal(g.x_e_bw, g.x_e)
    assert g.x_e_bw[0, 0] == -0.7


def test_backward_positive_rejects_tiny_weights():
    rng = np.random.default_rng(10)
    net = random_net(rng, (2, 3, 1), activations.relu())
    net.weights[0][1, 0] = 0.0
    g = build_graph(net)
    with pytest.raises(ValueError, match="offending"):
        add_backward_edges(g, "positive")


# -- CNN graphs -----------------------------------------------------------------------

def make_cnn(rng, channels=(1, 4, 2), kernel=3, n_out=2, acts="relu"):
    kernels = [
        rng.standard_normal((channels[i + 1], channels[i], kernel, kernel))
        for i in range(len(channels) - 1)
    ]
    biases = [rng.standard_normal(channels[i + 1]) for i in range(len(channels) - 1)]
    a = activations.by_name(acts)
    return CnnParams(kernels, biases, [a] * len(kernels),
                     rng.standard_normal((n_out, channels[-1])), rng.standard_normal(n_out))


def test_cnn_vertex_count():
    rng = np.random.default_rng(11)
    net = make_cnn(rng, channels=(1, 4), n_out=2)
    g = build_graph_cnn(net)
    assert g.n_vertices == 1 + 4 + 2


def test_cnn_kernel_padding_top_left():
    rng = np.random.default_rng(12)
    net = make_cnn(rng, channels=(1, 2), kernel=3, n_out=1)
    g = build_graph_cnn(net, max_hw=(5, 5))
    assert g.x_e.shape[1] == 25
    feat = g.x_e[0].reshape(5, 5)
    assert np.allclose(feat[:3, :3], net.kernels[0][0, 0])
    assert np.all(feat[3:, :] == 0) and np.all(feat[:, 3:] == 0)
    assert np.count_nonzero(g.x_e[0]) <= 9


def test_cnn_1x1_kernel_single_nonzero():
    rng = np.random.default_rng(13)
    net = make_cnn(rng, channels=(1, 2), kernel=1, n_out=1)
    g = build_graph_cnn(net, max_hw=(3, 3))
    conv_edges = g.x_e[:2]
    assert np.all(np.count_nonzero(conv_edges, axis=1) == 1)
    # head entries also live in slot 0 only
    assert np.all(np.count_nonzero(g.x_e[2:], axis=1) <= 1)


def test_cnn_kernel_exceeds_maxima():
    rng = np.random.default_rng(14)
    net = make_cnn(rng, channels=(1, 2), kernel=3, n_out=1)
    with pytest.raises(Exception, match="maxima"):
        build_graph_cnn(net, max_hw=(2, 2))


# -- orbit/feature equivalence --------------------------------------------------------

def _transformed_features(graph, net, orbit):
    """Directly permute/scale raw graph features per the symmetry equations."""
    L = graph.n_layers
    q_full, perm_full = [], []
    for l, d in enumerate(graph.dims):
        if 0 < l < L:
            q_full.append(orbit.scales[l - 1])
            perm_full.append(orbit.perms[l - 1])
        else:
            q_full.append(np.ones(d))
            perm_full.append(np.arange(d))
    x_v = graph.x_v.copy()
    offs = np.concatenate([[0], np.cumsum(graph.dims)])
    for l, d in enumerate(graph.dims):
        inv = np.argsort(perm_full[l])
        x_v[offs[l] : offs[l] + d] = (q_full[l][:, None] * graph.x_v[offs[l] : offs[l] + d])[inv]
    lookup = {(int(t), int(s)): e for e, (t, s) in enumerate(zip(graph.fw_tgt, graph.fw_src))}
    x_e = np.zeros_like(graph.x_e)
    for e in range(graph.n_edges):
        t, s = int(graph.fw_tgt[e]), int(graph.fw_src[e])
        lt, ls = int(graph.layer_of[t]), int(graph.layer_of[s])
        it, i_s = int(graph.index_in_layer[t]), int(graph.index_in_layer[s])
        nt = offs[lt] + perm_full[lt][it]
        ns = offs[ls] + perm_full[ls][i_s]
        scale = q_full[lt][it] / q_full[ls][i_s]
        x_e[lookup[(int(nt), int(ns))]] = scale * graph.x_e[e]
    return x_v, x_e


@pytest.mark.parametrize(
    "act,kind",
    [(activations.tanh_act(), "sign"), (activations.relu(), "positive")],
)
def test_rebuild_equals_direct_feature_transform(act, kind):
    rng = np.random.default_rng(15)
    net = random_net(rng, (2, 5, 4, 2), act)
    orbit = sample_orbit(kind, [5, 4], rng)
    g = build_graph(net)
    g2 = build_graph(apply_orbit(net, orbit))
    x_v, x_e = _transformed_features(g, net, orbit)
    assert np.max(np.abs(g2.x_v - x_v)) < 1e-12
    assert np.max(np.abs(g2.x_e - x_e)) < 1e-12


def test_dump_golden_stable():
    rng = np.random.default_rng(16)
    net = random_net(rng, (2, 3, 1), activations.tanh_act())
    g = build_graph(net)
    d1, d2 = g.dump(), build_graph(net).dump()
    assert d1 == d2
    assert d1.splitlines()[0].startswith("vertex 0 0 1")


GOLDEN_DUMP = """\
vertex 0 0 1
vertex 0 1 1
vertex 1 0 0.5
vertex 1 1 -0.25
vertex 2 0 2
edge fw 2 0 1
edge fw 2 1 -2
edge fw 3 0 3
edge fw 3 1 4
edge fw 4 2 -1
edge fw 4 3 0.125
"""


def test_dump_golden_literal():
    net = FfnnParams(
        [np.array([[1.0, -2.0], [3.0, 4.0]]), np.array([[-1.0, 0.125]])],
        [np.array([0.5, -0.25]), np.array([2.0])],
        [activations.tanh_act(), activations.identity()],
    )
    assert build_graph(net).dump() == GOLDEN_DUMP


def test_template_batching_shapes():
    rng = np.random.default_rng(17)
    nets = [random_net(rng, (2, 4, 1), activations.tanh_act()) for _ in range(3)]
    graphs = [build_graph(n, direction="bidirectional") for n in nets]
    tpl = GraphTemplate(graphs[0])
    x_v, x_e, x_bw = tpl.batch(graphs)
    assert x_v.shape == (3 * 7, 1)
    assert x_e.shape == (3 * 12, 1)
    assert x_bw.shape == x_e.shape
    src, tgt = tpl.flat_indices(3)
    assert src.shape == (36,) and tgt.shape == (36,)
    assert src.max() < 21 and tgt.max() < 21
