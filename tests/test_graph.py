"""Graph construction: counts, features, PE classes, backward edges."""

import dataclasses
import re

import numpy as np
import pytest

from scalegmn import activations, tensor as T
from scalegmn.cnn import CnnParams
from scalegmn.ffnn import FfnnParams, apply_orbit, sample_orbit
from scalegmn.graph import build_graph, build_graph_cnn
from scalegmn.tensor import RowIndex, ShapeError, Tensor

from test_ffnn import random_net, random_siren

# The error for a net whose hidden layers span two scaling groups.
TWO_GROUPS = re.escape("needs one scaling group across the hidden layers; "
                       "got relu (positive), tanh (sign)")


def relu_then_tanh_net(rng, dims=(2, 4, 3, 2)):
    net = random_net(rng, dims, activations.relu())
    net.activations[1] = activations.tanh_act()
    return net


def test_counts_2_4_1():
    rng = np.random.default_rng(0)
    t = build_graph(random_net(rng, (2, 4, 1), activations.tanh_act())).template
    assert t.n_v == 7
    assert t.n_e == 2 * 4 + 4 * 1


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
    hidden = g.x_v[g.template.is_hidden, 0]
    assert np.all(hidden <= np.pi / 2 + 1e-12)
    assert np.all(hidden >= -np.pi / 2 - 1e-12)


# -- positional encoding classes --------------------------------------------------

def test_pe_class_counts_2_4_4_1():
    rng = np.random.default_rng(5)
    t = build_graph(random_net(rng, (2, 4, 4, 1), activations.tanh_act())).template
    assert len(t.vertex_class_names) == 2 + 1 + 1 + 1
    # edges: 2 input-source classes, 1 hidden-pair class, 1 output-target class
    assert len(t.edge_class_names) == 2 + 1 + 1


def test_pe_edges_into_same_output_share_class():
    rng = np.random.default_rng(6)
    t = build_graph(random_net(rng, (2, 3, 2), activations.tanh_act())).template
    last = t.fw_tgt_is_output
    tgt_idx = t.index_in_layer[t.fw_tgt[last]]
    classes = t.edge_class[last]
    for out in (0, 1):
        vals = set(classes[tgt_idx == out].tolist())
        assert len(vals) == 1
    assert set(classes[tgt_idx == 0]) != set(classes[tgt_idx == 1])


# Class ids as the sharing rule numbers them: names in order of first
# appearance over the vertices, then the forward, then the backward edges.
# The ids index the positional-encoding rows and the names key the edit-head
# parameters, so checkpoints depend on both.
CLASS_TABLES = {
    (2, 4, 4, 1): dict(
        v_names=["v:in:0", "v:in:1", "v:hidden:1", "v:hidden:2", "v:out:0"],
        v=[0, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4],
        e_names=["e:from-in:0", "e:from-in:1", "e:hidden:2", "e:to-out:0"],
        e=[0, 1] * 4 + [2] * 16 + [3] * 4,
    ),
    (2, 3): dict(
        v_names=["v:in:0", "v:in:1", "v:out:0", "v:out:1", "v:out:2"],
        v=[0, 1, 2, 3, 4],
        e_names=["e:in-out"],
        e=[0] * 6,
    ),
}


@pytest.mark.parametrize("direction", ["forward", "bidirectional"])
@pytest.mark.parametrize("dims", sorted(CLASS_TABLES))
def test_pe_class_table_golden(dims, direction):
    rng = np.random.default_rng(18)
    t = build_graph(random_net(rng, dims, activations.tanh_act()), direction=direction).template
    want = CLASS_TABLES[dims]
    assert t.vertex_class_names == want["v_names"]
    assert t.vertex_class.tolist() == want["v"]
    assert t.edge_class.tolist() == want["e"]
    n_fw = len(want["e_names"])
    if direction == "forward":
        assert t.edge_class_names == want["e_names"]
        assert t.bw_edge_class is None
    else:
        assert t.edge_class_names == want["e_names"] + ["bw:" + n for n in want["e_names"]]
        assert t.bw_edge_class.tolist() == [c + n_fw for c in want["e"]]


def test_one_template_per_architecture():
    rng = np.random.default_rng(19)
    a, b = (random_net(rng, (2, 5, 3), activations.tanh_act()) for _ in range(2))
    assert build_graph(a).template is build_graph(b).template
    bid = build_graph(a, direction="bidirectional").template
    assert build_graph(a).template is not bid
    assert build_graph(b, direction="bidirectional").template is bid


def test_a_misspelt_direction_is_rejected():
    """An unknown direction used to build a forward-only graph under that name."""
    net = random_net(np.random.default_rng(19), (2, 5, 3), activations.tanh_act())
    with pytest.raises(ValueError, match=re.escape(
            "direction must be one of ('forward', 'bidirectional'), got 'bidirectonal'")):
        build_graph(net, direction="bidirectonal")


def test_pe_class_multiset_invariant_under_hidden_permutation():
    rng = np.random.default_rng(7)
    net = random_net(rng, (2, 5, 5, 2), activations.tanh_act())
    t1 = build_graph(net).template
    orbit = sample_orbit("none", [5, 5], rng, permute=True)
    t2 = build_graph(apply_orbit(net, orbit)).template
    assert sorted(t1.vertex_class.tolist()) == sorted(t2.vertex_class.tolist())
    assert sorted(t1.edge_class.tolist()) == sorted(t2.edge_class.tolist())


# -- backward edges -----------------------------------------------------------------

def test_backward_positive_reciprocal():
    rng = np.random.default_rng(8)
    net = random_net(rng, (2, 3, 1), activations.relu())
    net.weights[0][0, 0] = 0.5
    g = build_graph(net, direction="bidirectional")
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


def test_backward_edges_need_one_group_across_the_hidden_layers():
    """The backward features' rule is the group's, so a net spanning two
    groups gets forward graphs only, and the error names each group."""
    net = relu_then_tanh_net(np.random.default_rng(11))
    assert build_graph(net).template.group_kind == "mixed"
    with pytest.raises(ValueError, match="^a bidirectional graph " + TWO_GROUPS):
        build_graph(net, direction="bidirectional")


def test_backward_positive_rejects_tiny_weights():
    rng = np.random.default_rng(10)
    net = random_net(rng, (2, 3, 1), activations.relu())
    net.weights[0][1, 0] = 0.0
    with pytest.raises(ValueError, match="offending"):
        build_graph(net, direction="bidirectional")


def test_backward_positive_rejects_zero_kernel_weight():
    rng = np.random.default_rng(20)
    net = make_cnn(rng, channels=(1, 3, 2), kernel=3)
    net.weights[1][1, 2, 0, 1] = 0.0
    with pytest.raises(ValueError, match="offending"):
        build_graph_cnn(net, direction="bidirectional")


# -- CNN graphs -----------------------------------------------------------------------

def make_cnn(rng, channels=(1, 4, 2), kernel=3, n_out=2, acts="relu"):
    kernels = [
        rng.standard_normal((channels[i + 1], channels[i], kernel, kernel))
        for i in range(len(channels) - 1)
    ]
    biases = [rng.standard_normal(channels[i + 1]) for i in range(len(channels) - 1)]
    a = activations.by_name(acts)
    head = rng.standard_normal((n_out, channels[-1]))
    return CnnParams(kernels + [head], biases + [rng.standard_normal(n_out)],
                     [a] * len(kernels))


def test_cnn_vertex_count():
    rng = np.random.default_rng(11)
    net = make_cnn(rng, channels=(1, 4), n_out=2)
    g = build_graph_cnn(net)
    assert g.template.n_v == 1 + 4 + 2


def test_cnn_kernel_padding_top_left():
    rng = np.random.default_rng(12)
    net = make_cnn(rng, channels=(1, 2, 1), kernel=3, n_out=1)
    net.weights[1] = rng.standard_normal((1, 2, 5, 5))  # the net's largest kernel
    g = build_graph_cnn(net)
    assert g.x_e.shape[1] == 25
    feat = g.x_e[0].reshape(5, 5)
    assert np.allclose(feat[:3, :3], net.weights[0][0, 0])
    assert np.all(feat[3:, :] == 0) and np.all(feat[:, 3:] == 0)
    assert np.count_nonzero(g.x_e[0]) <= 9


def test_cnn_1x1_kernel_single_nonzero():
    rng = np.random.default_rng(13)
    net = make_cnn(rng, channels=(1, 2, 1), kernel=1, n_out=1)
    net.weights[1] = rng.standard_normal((1, 2, 3, 3))
    g = build_graph_cnn(net)
    assert g.x_e.shape[1] == 9
    conv_edges = g.x_e[:2]
    assert np.all(np.count_nonzero(conv_edges, axis=1) == 1)
    # head entries also live in slot 0 only
    assert np.all(np.count_nonzero(g.x_e[4:], axis=1) <= 1)


def test_cnn_bidirectional_relu_inverts_weight_slots_only():
    rng = np.random.default_rng(21)
    net = make_cnn(rng, channels=(1, 2, 3), kernel=2, n_out=2)
    net.weights[1] = rng.standard_normal((3, 2, 3, 1))
    g = build_graph_cnn(net, direction="bidirectional")
    slots = np.zeros((g.template.n_e, 3, 2), dtype=bool)
    slots[:2, :2, :2] = True          # 2x2 kernels, top-left anchored
    slots[2:8, :, :1] = True          # 3x1 kernels
    slots[8:, 0, 0] = True            # the head holds its weight in slot 0
    slots = slots.reshape(g.template.n_e, 6)
    assert np.array_equal(g.x_e_bw[slots], 1.0 / g.x_e[slots])
    assert np.all(g.x_e_bw[~slots] == 0.0) and np.all(g.x_e[~slots] == 0.0)


def test_batch_rejects_other_kernel_extent():
    rng = np.random.default_rng(15)
    net = make_cnn(rng, channels=(1, 2), kernel=3, n_out=1)
    wide = make_cnn(rng, channels=(1, 2), kernel=5, n_out=1)
    small, large = build_graph_cnn(net), build_graph_cnn(wide)
    with pytest.raises(ShapeError, match=r"width 25\).*width 9\)"):
        small.template.batch([small, large])


# -- orbit/feature equivalence --------------------------------------------------------

def _transformed_features(graph, net, orbit):
    """Directly permute/scale raw graph features per the symmetry equations."""
    t = graph.template
    L = len(t.dims) - 1
    q_full, perm_full = [], []
    for l, d in enumerate(t.dims):
        if 0 < l < L:
            q_full.append(orbit.scales[l - 1])
            perm_full.append(orbit.perms[l - 1])
        else:
            q_full.append(np.ones(d))
            perm_full.append(np.arange(d))
    x_v = graph.x_v.copy()
    offs = np.concatenate([[0], np.cumsum(t.dims)])
    for l, d in enumerate(t.dims):
        inv = np.argsort(perm_full[l])
        x_v[offs[l] : offs[l] + d] = (q_full[l][:, None] * graph.x_v[offs[l] : offs[l] + d])[inv]
    lookup = {(int(tg), int(s)): e for e, (tg, s) in enumerate(zip(t.fw_tgt, t.fw_src))}
    x_e = np.zeros_like(graph.x_e)
    for e in range(t.n_e):
        tg, s = int(t.fw_tgt[e]), int(t.fw_src[e])
        lt, ls = int(t.layer_of[tg]), int(t.layer_of[s])
        it, i_s = int(t.index_in_layer[tg]), int(t.index_in_layer[s])
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
    tpl = graphs[0].template
    x_v, x_e, x_bw = tpl.batch(graphs)
    assert x_v.shape == (3 * 7, 1)
    assert x_e.shape == (3 * 12, 1)
    assert x_bw.shape == x_e.shape
    src, tgt = tpl.flat_indices(3)
    assert src.shape == (36,) and tgt.shape == (36,)
    assert src.max() < 21 and tgt.max() < 21


def _batch_indices(value):
    """Every index array in a BatchRows field (tuples and routes opened)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _batch_indices(v)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value)
                for a in _batch_indices(getattr(value, f.name))]
    return []


@pytest.mark.parametrize("direction", ["forward", "bidirectional"])
def test_batch_rows_are_read_only_checked_indices(direction):
    rng = np.random.default_rng(18)
    tpl = build_graph(random_net(rng, (2, 4, 3, 1), activations.tanh_act()),
                      direction=direction).template
    rows = tpl.rows(16)
    assert tpl.rows(16) is rows
    arrays = _batch_indices(rows)
    assert len(arrays) >= 20
    for idx in arrays:
        assert isinstance(idx, RowIndex) and not idx.flags.writeable
        assert (idx.lo, idx.hi) == ((int(idx.min()), int(idx.max())) if idx.size else (0, -1))
    assert rows.tgt.hi == 16 * tpl.n_v - 1   # the last graph's output vertex


def test_a_batch_index_applied_to_too_few_rows_still_raises():
    tpl = build_graph(random_net(np.random.default_rng(19), (2, 4, 1),
                                 activations.tanh_act())).template
    rows = tpl.rows(16)
    small = Tensor(np.ones((15 * tpl.n_v, 3)))   # one graph short of the batch
    with pytest.raises(IndexError, match=rf"\[0, {15 * tpl.n_v}\)"):
        T.gather_rows(small, rows.tgt)
    with pytest.raises(IndexError):
        T.scatter_sum(Tensor(np.ones((rows.fw.into.size, 3))), rows.fw.into, 15 * tpl.n_v)
    whole = Tensor(np.ones((16 * tpl.n_v, 3)))
    assert T.gather_rows(whole, rows.tgt).shape == (rows.tgt.size, 3)
