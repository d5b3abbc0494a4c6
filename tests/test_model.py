"""Metanetwork symmetry properties, determinism, and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

from scalegmn import activations, tensor as T
from scalegmn.ffnn import LayerChain, apply_orbit, sample_orbit
from scalegmn.graph import build_graph, build_graph_cnn
from scalegmn.model import (
    ScaleGMNConfig,
    ScaleGMNModel,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    template_from_spec,
    template_spec,
)
from scalegmn.optim import finite_diff_check
from scalegmn.tensor import ShapeError, Tensor, gradients

from test_ffnn import eval_grid, random_net, random_siren
from test_graph import TWO_GROUPS, make_cnn, relu_then_tanh_net

ACT_OF = {"sign": activations.tanh_act(), "positive": activations.relu()}


def make_model(kind="sign", direction="forward", dims=(2, 4, 4, 2), head="invariant",
               seed=0, act=None, **overrides):
    rng = np.random.default_rng(seed)
    act = act or ACT_OF[kind]
    net = random_net(rng, dims, act)
    if kind == "positive":
        for w in net.weights:  # keep reciprocal features well-conditioned
            w[np.abs(w) < 1e-3] = 1e-3
    tpl = build_graph(net, direction=direction).template
    base_kwargs = dict(
        d_v=8, d_e=8, d_msg=8, d_inv=6, d_readout=8, pe_dim=4, mlp_hidden=12,
        n_rounds=2, direction=direction, group_kind=kind, head=head, out_dim=3,
    )
    base_kwargs.update(overrides)
    cfg = ScaleGMNConfig(**base_kwargs)
    model = ScaleGMNModel(cfg, tpl, np.random.default_rng(seed + 1))
    return model, net, act


def with_sign_canons(cases):
    """Each (kind, act, direction) case under the default "abs" sign
    canonicalizer, plus each sign case again under "symmetrize"."""
    params = []
    for i, (kind, act, direction) in enumerate(cases):
        case_id = f"{kind}-act{i}-{direction}"
        params.append(pytest.param(kind, act, direction, "abs", id=case_id))
        if kind == "sign":
            params.append(pytest.param(kind, act, direction, "symmetrize",
                                       id=f"{case_id}-symmetrize"))
    return params


def rel_dev(a, b):
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-9)))


def random_valid_net(rng, dims, act, kind):
    net = random_net(rng, dims, act)
    if kind == "positive":
        for w in net.weights:
            w[np.abs(w) < 1e-3] = 1e-3
    return net


# -- component-level randomized properties -------------------------------------------


@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_hidden_init_is_equivariant_in_raw_bias(kind):
    model, net, act = make_model(kind)
    rng = np.random.default_rng(5)
    init = model.init_v_hidden
    pe = Tensor(rng.standard_normal((3, model.config.pe_dim)))
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((3, 1))
        q = float(rng.choice([-1, 1])) if kind == "sign" else float(rng.uniform(0.1, 10))
        base = init.single(Tensor(x), extra=pe).data
        scaled = init.single(Tensor(q * x), extra=pe).data
        worst = max(worst, rel_dev(q * base, scaled))
    assert worst < 1e-10


def test_hidden_init_identity_configuration_broadcasts_bias():
    """All-ones Gamma and a constant-one invariant block reproduce the bias."""
    model, net, _ = make_model("sign")
    init = model.init_v_hidden
    init.gammas[0].weight.assign(np.ones((model.config.d_v, 1)))
    init.inv.set_constant(1.0)
    rng = np.random.default_rng(3)
    biases = rng.standard_normal((5, 1))
    pe = Tensor(rng.standard_normal((5, model.config.pe_dim)))
    out = init.single(Tensor(biases), extra=pe)
    assert np.max(np.abs(out.data - biases)) < 1e-15  # b broadcast across width


@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_message_symmetry(kind):
    """MSG(q_x x, q_y y, q_x q_y^-1 e) = q_x MSG(x, y, e) on the hidden path."""
    model, _, _ = make_model(kind)
    layer = model.rounds[0]
    rng = np.random.default_rng(6)
    cfg = model.config
    pe = Tensor(rng.standard_normal((4, 3 * cfg.pe_dim)))

    def msg(x, y, e):
        re = layer.rescale_fw([y, e])
        return layer.msg_fw_hidden.single(T.concat([x, re], axis=1), extra=pe).data

    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((4, cfg.d_v))
        y = rng.standard_normal((4, cfg.d_v))
        e = rng.standard_normal((4, cfg.d_e))
        if kind == "sign":
            qx, qy = (float(rng.choice([-1, 1])) for _ in range(2))
        else:
            qx, qy = (float(rng.uniform(0.1, 10)) for _ in range(2))
        base = msg(Tensor(x), Tensor(y), Tensor(e))
        scaled = msg(Tensor(qx * x), Tensor(qy * y), Tensor(qx / qy * e))
        worst = max(worst, rel_dev(qx * base, scaled))
    assert worst < 1e-10


@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_backward_message_symmetry(kind):
    """MSG_BW(q_x x, q_y y, q_y^-1 q_x e) = q_x MSG_BW(x, y, e)."""
    model, _, _ = make_model(kind, direction="bidirectional")
    layer = model.rounds[0]
    rng = np.random.default_rng(7)
    cfg = model.config
    pe = Tensor(rng.standard_normal((4, 3 * cfg.pe_dim)))

    def msg(x, y, e):
        re = layer.rescale_bw([y, e])
        return layer.msg_bw_hidden.single(T.concat([x, re], axis=1), extra=pe).data

    worst = 0.0
    for _ in range(50):
        x, y = rng.standard_normal((4, cfg.d_v)), rng.standard_normal((4, cfg.d_v))
        e = rng.standard_normal((4, cfg.d_e))
        if kind == "sign":
            qx, qy = (float(rng.choice([-1, 1])) for _ in range(2))
        else:
            qx, qy = (float(rng.uniform(0.1, 10)) for _ in range(2))
        base = msg(Tensor(x), Tensor(y), Tensor(e))
        scaled = msg(Tensor(qx * x), Tensor(qy * y), Tensor(qx / qy * e))
        worst = max(worst, rel_dev(qx * base, scaled))
    assert worst < 1e-10


@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_update_symmetry(kind):
    model, _, _ = make_model(kind)
    layer = model.rounds[0]
    rng = np.random.default_rng(8)
    cfg = model.config
    pe = Tensor(rng.standard_normal((4, cfg.pe_dim)))
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal((4, cfg.d_v))
        m = rng.standard_normal((4, cfg.d_v))
        q = float(rng.choice([-1, 1])) if kind == "sign" else float(rng.uniform(0.1, 10))
        base = layer.upd_hidden.single(T.concat([Tensor(x), Tensor(m)], axis=1), extra=pe).data
        scaled = layer.upd_hidden.single(
            T.concat([Tensor(q * x), Tensor(q * m)], axis=1), extra=pe
        ).data
        worst = max(worst, rel_dev(q * base, scaled))
    assert worst < 1e-10


@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_edge_update_symmetry(kind):
    """UPD_E(q_x x, q_y y, q_x q_y^-1 e) = q_x q_y^-1 UPD_E(x, y, e)."""
    model, _, _ = make_model(kind)
    layer = model.rounds[0]
    rng = np.random.default_rng(9)
    cfg = model.config
    pe = Tensor(rng.standard_normal((4, 3 * cfg.pe_dim)))

    def upd(x, y, e):
        si = layer.edge_inv([x, y])
        return layer.upd_e.single(e, extra=T.concat([si, pe], axis=1)).data

    worst = 0.0
    for _ in range(50):
        x, y = rng.standard_normal((4, cfg.d_v)), rng.standard_normal((4, cfg.d_v))
        e = rng.standard_normal((4, cfg.d_e))
        if kind == "sign":
            qx, qy = (float(rng.choice([-1, 1])) for _ in range(2))
        else:
            qx, qy = (float(rng.uniform(0.1, 10)) for _ in range(2))
        base = upd(Tensor(x), Tensor(y), Tensor(e))
        scaled = upd(Tensor(qx * x), Tensor(qy * y), Tensor(qx / qy * e))
        worst = max(worst, rel_dev(qx / qy * base, scaled))
    assert worst < 1e-10


# -- end-to-end invariance / equivariance ---------------------------------------------


@pytest.mark.parametrize(
    "kind,act,direction,sign_canon",
    with_sign_canons([
        ("sign", activations.tanh_act(), "forward"),
        ("sign", activations.tanh_act(), "bidirectional"),
        ("sign", activations.sine(30.0), "forward"),
        ("sign", activations.sine(30.0), "bidirectional"),
        ("positive", activations.relu(), "forward"),
        ("positive", activations.relu(), "bidirectional"),
    ]),
)
def test_readout_invariant_under_orbits(kind, act, direction, sign_canon):
    model, net, _ = make_model(kind, direction=direction, act=act, seed=3,
                               sign_canon=sign_canon)
    rng = np.random.default_rng(10)
    base = model.forward([build_graph(net, direction=direction)]).data
    worst = 0.0
    for _ in range(20):
        orbit = sample_orbit(kind, [4, 4], rng)
        g2 = build_graph(apply_orbit(net, orbit), direction=direction)
        out = model.forward([g2]).data
        worst = max(worst, float(np.max(np.abs(out - base) / (np.abs(base) + 1e-9))))
    assert worst < 1e-8


def test_bidirectional_relu_cnn_readout_invariant_under_orbits():
    rng = np.random.default_rng(23)
    net = make_cnn(rng, channels=(1, 3, 2), n_out=2)
    cfg = ScaleGMNConfig(d_v=8, d_e=8, d_msg=8, d_inv=6, d_readout=8, pe_dim=4,
                         mlp_hidden=12, direction="bidirectional", group_kind="positive",
                         out_dim=3)
    graph = build_graph_cnn(net, direction="bidirectional")
    model = ScaleGMNModel(cfg, graph.template, np.random.default_rng(24))
    base = model.forward([graph]).data
    worst = 0.0
    for _ in range(20):
        orbit = sample_orbit("positive", [3, 2], rng)
        g2 = build_graph_cnn(apply_orbit(net, orbit), direction="bidirectional")
        out = model.forward([g2]).data
        worst = max(worst, float(np.max(np.abs(out - base) / (np.abs(base) + 1e-9))))
    assert worst < 1e-8


def test_readout_changes_when_outputs_permuted():
    """Permuting output neurons is NOT a symmetry; PEs must break it
    (asserted as not-all-equal over random trials)."""
    model, net, _ = make_model("sign", dims=(2, 4, 4, 3), seed=5)
    base = model.forward([build_graph(net)]).data
    rng = np.random.default_rng(11)
    for _ in range(3):
        perm = rng.permutation(3)
        while np.all(perm == np.arange(3)):
            perm = rng.permutation(3)
        swapped = net.copy()
        swapped.weights[-1] = swapped.weights[-1][perm]
        swapped.biases[-1] = swapped.biases[-1][perm]
        out = model.forward([build_graph(swapped)]).data
        assert np.max(np.abs(out - base)) > 1e-10


def test_readout_changes_when_inputs_permuted():
    model, net, _ = make_model("sign", dims=(3, 4, 4, 1), seed=6)
    base = model.forward([build_graph(net)]).data
    rng = np.random.default_rng(12)
    for _ in range(3):
        perm = rng.permutation(3)
        while np.all(perm == np.arange(3)):
            perm = rng.permutation(3)
        swapped = net.copy()
        swapped.weights[0] = swapped.weights[0][:, perm]
        out = model.forward([build_graph(swapped)]).data
        assert np.max(np.abs(out - base)) > 1e-10


def test_t0_readout_of_initial_representations():
    model, net, _ = make_model("sign", n_rounds=0)
    out = model.forward([build_graph(net)])
    assert out.shape == (1, 3)


def test_forward_deterministic():
    model, net, _ = make_model("sign")
    g = build_graph(net)
    a = model.forward([g]).data
    b = model.forward([g]).data
    assert np.array_equal(a, b)


def test_batched_forward_matches_single():
    model, net, _ = make_model("sign")
    rng = np.random.default_rng(13)
    nets = [net] + [random_net(rng, (2, 4, 4, 2), activations.tanh_act()) for _ in range(2)]
    graphs = [build_graph(n) for n in nets]
    batched = model.forward(graphs).data
    singles = np.concatenate([model.forward([g]).data for g in graphs], axis=0)
    assert np.max(np.abs(batched - singles)) < 1e-12


# -- edit head ---------------------------------------------------------------------------


def test_edit_gamma_zero_is_identity():
    model, net, _ = make_model("sign", head="equivariant-edit", gamma_init=0.0)
    edited = model.edit_params([build_graph(net)], net)[0]
    for a, b in zip(edited.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(edited.biases, net.biases):
        assert np.array_equal(a, b)


def test_edit_needs_one_net_per_graph():
    model, net, _ = make_model("sign", head="equivariant-edit")
    with pytest.raises(ShapeError, match="1 nets for 2 graphs"):
        model.edit([build_graph(net), build_graph(net)], net)


def test_edit_output_shapes_match_input():
    model, net, _ = make_model("sign", head="equivariant-edit")
    edited = model.edit_params([build_graph(net)], net)[0]
    for a, b in zip(edited.weights, net.weights):
        assert a.shape == b.shape
    for a, b in zip(edited.biases, net.biases):
        assert a.shape == b.shape


@pytest.mark.parametrize(
    "kind,act,direction,sign_canon",
    with_sign_canons([
        ("sign", activations.tanh_act(), "forward"),
        ("sign", activations.sine(30.0), "bidirectional"),
        ("positive", activations.relu(), "forward"),
    ]),
)
def test_edit_is_equivariant(kind, act, direction, sign_canon):
    """edit(psi(theta)) equals psi(edit(theta)) entrywise."""
    model, net, _ = make_model(kind, act=act, direction=direction,
                               head="equivariant-edit", seed=8,
                               sign_canon=sign_canon)
    rng = np.random.default_rng(15)
    for _ in range(10):
        orbit = sample_orbit(kind, [4, 4], rng)
        net_t = apply_orbit(net, orbit)
        edited_then = apply_orbit(
            model.edit_params([build_graph(net, direction=direction)], net)[0], orbit
        )
        then_edited = model.edit_params(
            [build_graph(net_t, direction=direction)], net_t
        )[0]
        for a, b in zip(edited_then.weights, then_edited.weights):
            assert np.max(np.abs(a - b)) < 1e-8
        for a, b in zip(edited_then.biases, then_edited.biases):
            assert np.max(np.abs(a - b)) < 1e-8


def test_edit_sine_nets_function_changes_smoothly():
    rng = np.random.default_rng(16)
    model, _, _ = make_model("sign", act=activations.sine(30.0),
                             head="equivariant-edit", dims=(2, 4, 4, 1), seed=9)
    net = random_siren(rng, dims=(2, 4, 4, 1))
    edited = model.edit_params([build_graph(net)], net)[0]
    grid = eval_grid(2)
    from scalegmn.ffnn import ffnn_forward

    base = ffnn_forward(net, grid)
    out = ffnn_forward(edited, grid)
    assert out.shape == base.shape
    assert np.max(np.abs(out - base)) < 1.0  # gamma=0.01 keeps the edit small


# -- gradients through the whole model ----------------------------------------------------


def test_end_to_end_gradient_check():
    """Finite differences on a 3-vertex-per-layer graph loss, rel err < 1e-4.

    Pinned to the symmetrizing sign canonicalizer; acceptance criterion 6
    runs the same check under the default ("abs").
    """
    model, net, _ = make_model(
        "sign", dims=(3, 3, 3), seed=10, d_v=6, d_e=6, d_msg=6, d_inv=4,
        d_readout=6, pe_dim=3, mlp_hidden=8, n_rounds=1, out_dim=2,
        sign_canon="symmetrize",
    )
    g = build_graph(net)
    target = np.array([[0.3, -0.7]])
    params = model.parameters()

    def f(ps):
        out = model.forward([g])
        diff = T.sub(out, T.constant(target))
        return T.sum_(T.mul(diff, diff))

    err = finite_diff_check(f, params, step=1e-6)
    assert err < 1e-4, f"max relative error {err}"


# -- dead work --------------------------------------------------------------------------------


class _SingleCounter:
    """Stands in for a ScaleEqNet and counts its `single` calls."""

    def __init__(self, module):
        self.module, self.calls = module, 0

    def single(self, x, extra=None):
        self.calls += 1
        return self.module.single(x, extra=extra)


@pytest.mark.parametrize("direction,head,upd_e_calls", [
    ("forward", "invariant", 1),
    ("bidirectional", "invariant", 2),
    ("forward", "equivariant-edit", 2),
    ("bidirectional", "equivariant-edit", 3),
])
def test_no_round_computes_an_edge_state_that_no_head_reads(direction, head, upd_e_calls,
                                                            monkeypatch):
    """At T = 2 the last round updates the forward edges for the edit head only,
    and the backward edges never; every op node of the call reaches its output."""
    model, net, _ = make_model("sign", direction=direction, head=head)
    assert model.config.n_rounds == 2
    counters = [_SingleCounter(layer.upd_e) for layer in model.rounds]
    for layer, counter in zip(model.rounds, counters):
        layer.upd_e = counter
    recorded, init = [], Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._parents:
            recorded.append(self)

    graphs = [build_graph(net, direction=direction)]
    monkeypatch.setattr(Tensor, "__init__", recording_init)
    out = model.forward(graphs) if head == "invariant" else model.edit(graphs, net)
    monkeypatch.undo()
    assert sum(c.calls for c in counters) == upd_e_calls
    roots = [out] if head == "invariant" else out.weights + out.biases
    reached, stack = {id(t) for t in roots}, list(roots)
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in reached:
                reached.add(id(p))
                stack.append(p)
    dead = [t for t in recorded if id(t) not in reached]
    assert recorded and not dead, f"{len(dead)} of {len(recorded)} op nodes reach no output"


# -- role routing ---------------------------------------------------------------------------


class _RowCounter:
    """Stands in for a module and records the rows of every call."""

    def __init__(self, module, calls, key):
        self.module, self.calls, self.key = module, calls, key

    def __call__(self, x):
        first = x[0] if isinstance(x, list) else x
        self.calls.append((self.key, first.shape[0]))
        return self.module(x)


def _count_role_rows(model):
    """Wrap each role-specific module; returns (calls, expected rows per graph)."""
    tpl, calls, expected = model.template, [], {}

    def wrap(owner, name, key, per_graph):
        container = owner if isinstance(owner, dict) else vars(owner)
        container[name] = _RowCounter(container[name], calls, key)
        expected[key] = per_graph

    n_in, n_out = int(tpl.is_input.sum()), int(tpl.is_output.sum())
    wrap(model, "init_v_in", "init_v_in", n_in)
    wrap(model, "init_v_out", "init_v_out", n_out)
    for layer in model.rounds:
        wrap(layer, "upd_in", "upd_in", n_in)
        wrap(layer, "upd_out", "upd_out", n_out)
        wrap(layer, "msg_fw_out", "msg_fw_out", int(tpl.fw_tgt_is_output.sum()))
        wrap(layer, "rescale_fw_out", "rescale_fw_out", int(tpl.fw_tgt_is_output.sum()))
        if model.config.direction == "bidirectional":
            wrap(layer, "msg_bw_in", "msg_bw_in", int(tpl.bw_tgt_is_input.sum()))
            wrap(layer, "rescale_bw_in", "rescale_bw_in", int(tpl.bw_tgt_is_input.sum()))
    if model.config.head == "invariant":
        n_hidden = int(tpl.n_v - n_in - n_out)
        wrap(model, "read_canon", "read_canon", n_hidden)
        wrap(model, "read_phi", "read_phi", n_hidden)
    else:
        for name in list(model.edit_v):
            cls = tpl.vertex_class_names.index(name)
            wrap(model.edit_v, name, name, int((tpl.vertex_class == cls).sum()))
        for name in list(model.edit_e):
            cls = tpl.edge_class_names.index(name)
            wrap(model.edit_e, name, name, int((tpl.edge_class == cls).sum()))
    return calls, expected


@pytest.mark.parametrize("direction", ["forward", "bidirectional"])
@pytest.mark.parametrize("head", ["invariant", "equivariant-edit"])
def test_role_modules_run_only_on_their_rows(direction, head):
    batch = 3
    model, net, act = make_model("sign", direction=direction, head=head, dims=(2, 4, 3, 2))
    rng = np.random.default_rng(20)
    nets = [net] + [random_net(rng, (2, 4, 3, 2), act) for _ in range(batch - 1)]
    graphs = [build_graph(n, direction=direction) for n in nets]
    calls, expected = _count_role_rows(model)
    if head == "invariant":
        model.forward(graphs)
    else:
        model.edit(graphs, LayerChain.stack(nets))
    assert {key for key, _ in calls} == set(expected)
    for key, rows in calls:
        assert rows == batch * expected[key], key


def test_role_modules_run_only_on_their_rows_cnn():
    rng = np.random.default_rng(21)
    nets = [make_cnn(rng, channels=(1, 3, 2), n_out=2) for _ in range(2)]
    graphs = [build_graph_cnn(n) for n in nets]
    cfg = ScaleGMNConfig(d_v=8, d_e=8, d_msg=8, d_inv=6, d_readout=8, pe_dim=4,
                         mlp_hidden=12, group_kind="positive", out_dim=1)
    model = ScaleGMNModel(cfg, graphs[0].template, np.random.default_rng(22))
    calls, expected = _count_role_rows(model)
    model.forward(graphs)
    assert {key for key, _ in calls} == set(expected)
    for key, rows in calls:
        assert rows == len(graphs) * expected[key], key


@pytest.mark.parametrize("kind,act", [("sign", activations.relu()),
                                      ("positive", activations.tanh_act()),
                                      ("none", activations.relu())])
def test_group_kind_that_disagrees_with_the_template_is_rejected(kind, act):
    """A sign model on a ReLU net is not invariant under positive orbits."""
    with pytest.raises(ValueError, match=rf"group kind '{kind}' != template '{act.kind}'"):
        make_model(kind, act=act)


def test_a_net_spanning_two_groups_is_rejected_naming_them():
    tpl = build_graph(relu_then_tanh_net(np.random.default_rng(5))).template
    cfg = ScaleGMNConfig(d_v=8, d_e=8, d_msg=8, d_inv=6, d_readout=8, pe_dim=4,
                         mlp_hidden=12, group_kind=tpl.group_kind, out_dim=2)
    with pytest.raises(ValueError, match="^ScaleGMN " + TWO_GROUPS):
        ScaleGMNModel(cfg, tpl, np.random.default_rng(6))


@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_unknown_sign_canon_is_rejected(kind):
    with pytest.raises(ValueError, match="sign_canon.*'abs'.*'symmetrize'"):
        make_model(kind, sign_canon="symmetrise")


# -- checkpoints ----------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model, net, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt")
    # the float64 parameters come back exactly
    orig = dict(model.named_parameters())
    for name, p in restored.named_parameters():
        assert np.array_equal(orig[name].data, p.data), name
    save_checkpoint(restored, tmp_path / "ckpt2")
    a = (tmp_path / "ckpt" / "params.bin").read_bytes()
    b = (tmp_path / "ckpt2" / "params.bin").read_bytes()
    assert a == b


def test_template_spec_roundtrip():
    model, net, _ = make_model("sign", direction="bidirectional")
    spec = template_spec(model.template)
    tpl2 = template_from_spec(spec)
    assert tpl2.dims == model.template.dims
    assert tpl2.n_vertex_classes == model.template.n_vertex_classes
    assert tpl2.n_edge_classes == model.template.n_edge_classes


@pytest.mark.parametrize("kind", ["ffnn", "cnn"])
@pytest.mark.parametrize("direction", ["forward", "bidirectional"])
def test_template_spec_roundtrip_keeps_class_arrays(kind, direction):
    rng = np.random.default_rng(25)
    if kind == "ffnn":
        tpl = build_graph(random_siren(rng, dims=(3, 5, 4, 2)), direction=direction).template
    else:
        tpl = build_graph_cnn(make_cnn(rng, channels=(2, 3, 4), n_out=3),
                              direction=direction).template
    tpl2 = template_from_spec(template_spec(tpl))
    assert (tpl2.kind, tpl2.dims, tpl2.direction, tpl2.de_raw) == (
        tpl.kind, tpl.dims, tpl.direction, tpl.de_raw)
    assert tpl2.vertex_class_names == tpl.vertex_class_names
    assert tpl2.edge_class_names == tpl.edge_class_names
    assert np.array_equal(tpl2.vertex_class, tpl.vertex_class)
    assert np.array_equal(tpl2.edge_class, tpl.edge_class)
    if direction == "bidirectional":
        assert np.array_equal(tpl2.bw_edge_class, tpl.bw_edge_class)
    else:
        assert tpl2.bw_edge_class is None and tpl.bw_edge_class is None


def test_checkpoint_roundtrip_non_square_kernel(tmp_path):
    rng = np.random.default_rng(26)

    def net():  # a 3x3 then a 2x5 kernel: the edges are padded to 3x5
        cnn = make_cnn(rng, channels=(1, 3, 2), n_out=2)
        cnn.weights[1] = rng.standard_normal((2, 3, 2, 5))
        return cnn

    graphs = [build_graph_cnn(net()) for _ in range(2)]
    cfg = ScaleGMNConfig(d_v=8, d_e=8, d_msg=8, d_inv=6, d_readout=8, pe_dim=4,
                         mlp_hidden=12, group_kind="positive", out_dim=2)
    model = ScaleGMNModel(cfg, graphs[0].template, np.random.default_rng(27))
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt")
    assert restored.template is model.template
    assert restored.template.kernel_hw == (3, 5)
    assert np.array_equal(restored.forward(graphs).data, model.forward(graphs).data)


@pytest.mark.parametrize("delta", [-1, 1])
def test_checkpoint_rejects_wrong_size_params(tmp_path, delta):
    model, _, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    blob = tmp_path / "ckpt" / "params.bin"
    manifest = json.loads((tmp_path / "ckpt" / "checkpoint.json").read_text())
    flat = np.fromfile(blob, dtype=manifest["dtype"])
    n = flat.size
    flat = flat[:-1] if delta < 0 else np.concatenate([flat, flat[:1]])
    flat.tofile(blob)
    with pytest.raises(ValueError, match=rf"params\.bin.*expected {n}\b.*found {n + delta}\b"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_without_a_recorded_dtype_is_rejected(tmp_path):
    """Checkpoints written before the manifest recorded a dtype held float32;
    no such checkpoint is read."""
    model, net, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest.pop("dtype") == "<f8"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"checkpoint\.json: records no dtype; expected '<f8'"):
        load_checkpoint(tmp_path / "ckpt")


def test_read_manifest_names_a_truncated_checkpoint_json(tmp_path):
    model, _, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "checkpoint.json"
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: not a JSON file")):
        read_manifest(tmp_path / "ckpt")


def test_a_checkpoint_json_without_its_tensor_index_is_named(tmp_path):
    """It used to raise a bare KeyError: 'tensors'."""
    model, _, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "checkpoint.json"
    manifest = json.loads(path.read_text())
    del manifest["tensors"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: lacks the field 'tensors'")):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("dtype", ["<f2", ">f8", "float64"])
def test_checkpoint_rejects_an_unknown_dtype(tmp_path, dtype):
    model, _, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["dtype"] = dtype
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"checkpoint\.json: unknown dtype '{dtype}'"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_a_params_file_with_stray_bytes(tmp_path):
    model, _, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    blob = tmp_path / "ckpt" / "params.bin"
    n = blob.stat().st_size // 8
    blob.write_bytes(blob.read_bytes() + b"\0" * 4)
    with pytest.raises(ValueError, match=rf"params\.bin: expected {n} <f8 values, found {n} "
                                         rf"and 4 stray bytes"):
        load_checkpoint(tmp_path / "ckpt")


@pytest.mark.parametrize("change", ["missing", "unexpected", "shape"])
def test_checkpoint_rejects_mismatched_manifest(tmp_path, change):
    model, _, _ = make_model("sign")
    save_checkpoint(model, tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "checkpoint.json"
    manifest = json.loads(path.read_text())
    tensors = manifest["tensors"]
    if change == "missing":
        name = tensors.pop(0)["name"]
    elif change == "unexpected":
        name = "no_such_parameter"
        tensors.append({"name": name, "shape": [1], "offset": 0})
    else:
        name = tensors[0]["name"]
        tensors[0]["shape"] = tensors[0]["shape"] + [1]
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"checkpoint\.json.*{change}.*{name}"):
        load_checkpoint(tmp_path / "ckpt")


def test_config_rejects_a_misspelt_direction():
    """It used to build a model with no backward modules."""
    with pytest.raises(ValueError, match=r"direction must be one of \('forward', "
                                         r"'bidirectional'\), got 'bidirectonal'"):
        ScaleGMNConfig(direction="bidirectonal")
