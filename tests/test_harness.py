"""Certification machinery: function preservation, simulation relay, kendall tau."""

import hashlib
import json

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from scalegmn import activations, tensor as T
from scalegmn.cli import CERTIFY_COMBOS, certify_model_combo
from scalegmn.ffnn import (
    FfnnParams,
    apply_orbit,
    ffnn_forward,
    ffnn_forward_taped,
    sample_orbit,
)
from scalegmn.graph import build_graph, graph_for
from scalegmn.harness import (
    SymmetryReport,
    check_function_preservation,
    certify_equivariance,
    certify_invariance,
    kendall_tau,
    simulate_ffnn,
)
from scalegmn.model import ScaleGMNConfig, ScaleGMNModel
from scalegmn.tensor import Tensor, backward

from test_ffnn import eval_grid, random_net, random_siren
from test_graph import make_cnn
from test_model import make_model


# -- function preservation --------------------------------------------------------

def test_preservation_identical_nets():
    rng = np.random.default_rng(0)
    net = random_net(rng, (2, 5, 1), activations.tanh_act())
    assert check_function_preservation(net, net, eval_grid(2)) == 0.0


def test_preservation_under_random_orbit():
    rng = np.random.default_rng(1)
    net = random_net(rng, (2, 6, 6, 1), activations.tanh_act())
    g = sample_orbit("sign", [6, 6], rng)
    dev = check_function_preservation(net, apply_orbit(net, g), eval_grid(2))
    assert dev < 1e-8


def test_preservation_detects_live_perturbation():
    rng = np.random.default_rng(2)
    net = random_net(rng, (2, 6, 1), activations.tanh_act())
    other = net.copy()
    other.weights[1][0, 0] += 0.1  # output weight: always on a live path
    dev = check_function_preservation(net, other, eval_grid(2))
    assert dev > 1e-4


# -- certification reports ----------------------------------------------------------

def _tanh_sampler(dims=(2, 4, 4, 2)):
    def sampler(rng):
        return random_net(rng, dims, activations.tanh_act())

    return sampler


def _orbit_sampler(widths=(4, 4), kind="sign"):
    def sampler(rng):
        return sample_orbit(kind, list(widths), rng)

    return sampler


def test_certify_invariance_zero_trials_vacuous():
    """A report of zero trials certifies nothing, so it does not pass."""
    model, _, _ = make_model("sign")
    for trials, nets in ((0, 2), (3, 0)):
        report = certify_invariance(model, _tanh_sampler(), _orbit_sampler(), trials=trials,
                                    nets=nets)
        assert report.trials == 0 and report.max_deviation == 0.0
        assert not report.passed and not report.to_dict()["passed"]


def test_certify_invariance_scalegmn_passes():
    model, _, _ = make_model("sign", seed=21)
    report = certify_invariance(model, _tanh_sampler(), _orbit_sampler(),
                                trials=10, nets=3, tol=1e-8, seed=5)
    assert report.trials == 30
    assert report.passed, report.max_deviation


def test_certify_invariance_negative_control_fails():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 17))  # 2-4-1 net flattens to 17 parameters

    def broken(net):  # raw-feature linear readout: not scale invariant
        return w @ net.flatten()

    report = certify_invariance(broken, _tanh_sampler((2, 4, 1)),
                                _orbit_sampler((4,)), trials=10, nets=2, seed=6)
    assert not report.passed


def test_certify_equivariance_identity_orbit_zero():
    model, net, _ = make_model("sign", head="equivariant-edit", seed=22)
    from scalegmn.ffnn import OrbitElement

    report = certify_equivariance(
        model,
        lambda rng: net,
        lambda rng: OrbitElement.identity_for([4, 4]),
        trials=2,
        nets=1,
    )
    assert report.max_deviation == 0.0


def test_certify_equivariance_scalegmn_passes_and_mlp_fails():
    model, _, _ = make_model("sign", head="equivariant-edit", seed=23)
    report = certify_equivariance(model, _tanh_sampler(), _orbit_sampler(),
                                  trials=8, nets=2, tol=1e-8, seed=7)
    assert report.passed, report.max_deviation

    rng = np.random.default_rng(4)
    mats = None

    def mlp_editor(net):  # plain parameter-space perturbation: not equivariant
        out = net.copy()
        out.weights[0] = out.weights[0] + 0.1 * np.tanh(out.weights[0].sum())
        return out

    bad = certify_equivariance(mlp_editor, _tanh_sampler(), _orbit_sampler(),
                               trials=8, nets=2, tol=1e-8, seed=8)
    assert not bad.passed


@pytest.mark.parametrize("direction", ["forward", "bidirectional"])
def test_certify_invariance_relu_cnn_at_criterion_1_settings(direction):
    """ReLU CNNs under positive channel orbits, through the one orbit action
    and `graph_for`: criterion 1's model, 5 nets x 50 trials and 1e-8 bound."""
    def cnn_sampler(rng):
        return make_cnn(rng, channels=(1, 3, 2), kernel=3)

    template = graph_for(cnn_sampler(np.random.default_rng(0)), direction).template
    cfg = ScaleGMNConfig(d_v=16, d_e=16, d_msg=16, d_inv=8, d_readout=16, pe_dim=6,
                         mlp_hidden=16, n_rounds=2, direction=direction,
                         group_kind="positive", out_dim=3)
    model = ScaleGMNModel(cfg, template, np.random.default_rng(1))
    report = certify_invariance(model, cnn_sampler, _orbit_sampler((3, 2), "positive"),
                                trials=50, nets=5, tol=1e-8, seed=9)
    assert report.trials == 250
    assert report.passed, report.max_deviation


@pytest.mark.parametrize("head, method", [("invariant", "forward"),
                                          ("equivariant-edit", "edit_params")])
def test_certify_runs_each_net_and_its_orbits_as_one_batch(monkeypatch, head, method):
    model, _, _ = make_model("sign", head=head, seed=24)
    original = getattr(model, method)
    sizes = []

    def counted(graphs, *rest):
        sizes.append(len(graphs))
        return original(graphs, *rest)

    monkeypatch.setattr(model, method, counted)
    certify = certify_invariance if head == "invariant" else certify_equivariance
    report = certify(model, _tanh_sampler(), _orbit_sampler(), trials=6, nets=3, seed=9)
    assert report.trials == 18
    assert sizes == [7, 7, 7]


def test_certify_equivariance_matches_per_trial_reference():
    model, _, _ = make_model("sign", head="equivariant-edit", seed=25)
    trials, nets, seed = 4, 2, 11
    report = certify_equivariance(model, _tanh_sampler(), _orbit_sampler(),
                                  trials=trials, nets=nets, seed=seed)

    def edit(net):
        return model.edit_params([build_graph(net)], net)[0]

    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(nets):
        net = _tanh_sampler()(rng)
        base = edit(net)
        for _ in range(trials):
            orbit = _orbit_sampler()(rng)
            edited, moved = edit(apply_orbit(net, orbit)), apply_orbit(base, orbit)
            expected.append(max(float(np.max(np.abs(a - b))) for a, b in
                                zip(edited.weights + edited.biases, moved.weights + moved.biases)))
    assert len(report.deviations) == len(expected)
    assert np.max(np.abs(np.array(report.deviations) - expected)) < 1e-12
    assert max(expected) > 0.0  # the reference is not vacuous


def test_report_json_fields():
    report = SymmetryReport(name="x", metric="relative", tolerance=1e-8, seed=3,
                            deviations=[1e-12, 1e-10])
    data = report.to_dict()
    assert data["trials"] == 2
    assert data["passed"]
    assert "deviations" in data


def test_report_records_the_seconds_of_its_trials():
    for certify, head in ((certify_invariance, "invariant"),
                          (certify_equivariance, "equivariant-edit")):
        model, _, _ = make_model("sign", head=head, seed=21)
        report = certify(model, _tanh_sampler(), _orbit_sampler(), trials=3, nets=2, seed=5)
        assert report.seconds > 0.0
        assert report.to_dict()["seconds"] == report.seconds
    assert SymmetryReport(name="x", metric="relative", tolerance=1.0, seed=0).seconds == 0.0


# sha256 of the 12 deviation lists (CERTIFY_COMBOS x both heads, 1 net x 10
# trials, seed 0) as the per-net orbit loop computed them. A change to how
# orbits are drawn, applied or read into graphs that changes any certified
# trial changes it.
CERTIFY_TRIALS_SHA256 = "59a417030383b9dc852c19858589cf59cc4b9e37e8e6fb60664efc766e9bb21c"


def test_certify_trials_are_pinned():
    deviations = [certify_model_combo(dict(combo), (2, 4, 4, 2), trials=10, nets=1,
                                      tol=1e-8, seed=0, head=head).deviations
                  for combo in CERTIFY_COMBOS for head in ("invariant", "equivariant-edit")]
    assert all(len(d) == 10 for d in deviations)
    digest = hashlib.sha256(json.dumps(deviations).encode()).hexdigest()
    assert digest == CERTIFY_TRIALS_SHA256


# -- simulation ------------------------------------------------------------------------

def test_simulation_one_layer_identity_net():
    net = FfnnParams([np.array([[2.0]])], [np.array([0.5])], [activations.identity()])
    res = simulate_ffnn(net, np.array([3.0]), np.array([1.5]))
    # z1 = 2*3 + 0.5 after one round
    assert abs(res.history[1][1, 1] - 6.5) < 1e-15
    assert abs(res.z[0][0] - 6.5) < 1e-15


@pytest.mark.parametrize("act", [activations.sine(30.0), activations.tanh_act()])
def test_simulation_forward_channel(act):
    rng = np.random.default_rng(5)
    for trial in range(3):
        if act.name == "sine":
            net = random_siren(rng, dims=(2, 5, 4, 2))
        else:
            net = random_net(rng, (2, 5, 4, 2), act)
            net.weights = [w * 0.7 for w in net.weights]
        x0 = rng.uniform(-1, 1, size=2)
        g = rng.uniform(0.5, 1.5, size=2)
        res = simulate_ffnn(net, x0, g)
        # per-layer recovery at exactly round l
        offsets = np.concatenate([[0], np.cumsum(net.dims)])
        h = x0
        for l, (w, b, a) in enumerate(zip(net.weights, net.biases, net.activations), start=1):
            z = a.preact(h @ w.T, b)
            h = a.fn(z)
            seg = slice(offsets[l], offsets[l + 1])
            assert np.max(np.abs(res.history[l][seg, 1] - z)) < 1e-9
            assert np.max(np.abs(res.history[l][seg, 2] - h)) < 1e-9
        assert np.max(np.abs(res.x[-1] - ffnn_forward(net, x0))) < 1e-9


@pytest.mark.parametrize("act", [activations.sine(30.0), activations.tanh_act()])
def test_simulation_backward_channel_matches_autodiff(act):
    rng = np.random.default_rng(6)
    for trial in range(3):
        if act.name == "sine":
            net = random_siren(rng, dims=(2, 5, 4, 2))
        else:
            net = random_net(rng, (2, 5, 4, 2), act)
            net.weights = [w * 0.7 for w in net.weights]
        x0 = rng.uniform(-1, 1, size=2)
        g = rng.uniform(0.5, 1.5, size=2)
        res = simulate_ffnn(net, x0, g)
        # autodiff oracle: loss = sum(g * output); read grads of taped z, x
        collect = []
        x_in = Tensor(x0[None, :])
        out = ffnn_forward_taped(net, x0[None, :], collect=collect)
        loss = T.sum_(T.mul(out, T.constant(g[None, :])))
        backward(loss)
        for l, (z_t, x_t) in enumerate(collect):
            gz = z_t.grad[0]
            rel = np.abs(res.grad_z[l + 1] - gz) / np.maximum(np.abs(gz), 1e-12)
            assert np.max(rel) < 1e-6, f"layer {l + 1} grad_z mismatch"
            if l + 1 < net.n_layers:  # grad_x defined through the next layer
                gx = x_t.grad[0]
                rel = np.abs(res.grad_x[l + 1] - gx) / np.maximum(np.abs(gx), 1e-12)
                assert np.max(rel) < 1e-6, f"layer {l + 1} grad_x mismatch"


def test_simulation_gradient_recovery_round_exactness():
    rng = np.random.default_rng(7)
    net = random_siren(rng, dims=(2, 4, 4, 1))
    x0 = rng.uniform(-1, 1, size=2)
    g = np.array([1.0])
    res = simulate_ffnn(net, x0, g)
    L = net.n_layers
    offsets = np.concatenate([[0], np.cumsum(net.dims)])
    final = res.history[-1]
    for l in range(L + 1):
        seg = slice(offsets[l], offsets[l + 1])
        at_round = res.history[2 * L - l]
        assert np.array_equal(at_round[seg, 3], final[seg, 3])
        assert np.array_equal(at_round[seg, 4], final[seg, 4])


def test_simulation_relay_facts_bitwise():
    rng = np.random.default_rng(8)
    net = random_siren(rng, dims=(2, 4, 4, 1))
    before = net.copy()
    res = simulate_ffnn(net, rng.uniform(-1, 1, size=2), np.array([1.0]))
    for state in res.history[1:]:
        assert np.array_equal(state[:, 0], res.history[0][:, 0])  # bias channel
    for a, b in zip(net.weights + net.biases, before.weights + before.biases):
        assert np.array_equal(a, b)  # edge channel: the weights are never written


def test_simulation_channel_symmetry_under_orbits():
    """Channels of the psi(theta) run relate to the theta run by q factors."""
    rng = np.random.default_rng(9)
    net = random_siren(rng, dims=(2, 5, 4, 1))
    x0 = rng.uniform(-1, 1, size=2)
    g = np.array([1.3])
    base = simulate_ffnn(net, x0, g)
    for _ in range(5):
        orbit = sample_orbit("sign", [5, 4], rng)
        res = simulate_ffnn(apply_orbit(net, orbit), x0, g)
        for l in range(1, net.n_layers):  # hidden layers only
            q, p = orbit.scales[l - 1], orbit.perms[l - 1]
            inv = np.argsort(p)
            # res.z/x index from layer 1; grad lists index from layer 0
            assert np.max(np.abs(res.z[l - 1] - (q * base.z[l - 1])[inv])) < 1e-9
            assert np.max(np.abs(res.x[l - 1] - (q * base.x[l - 1])[inv])) < 1e-9
            # gradients scale by 1/q (their inverted channels scale by q)
            assert np.max(np.abs(res.grad_z[l] - (base.grad_z[l] / q)[inv])) < 1e-9
            assert np.max(np.abs(res.grad_x[l] - (base.grad_x[l] / q)[inv])) < 1e-9
        # ends fixed
        assert np.max(np.abs(res.x[-1] - base.x[-1])) < 1e-9
        assert np.max(np.abs(res.grad_x[0] - base.grad_x[0])) < 1e-9


def test_simulation_rejects_zero_weight():
    net = FfnnParams(
        [np.array([[1.0, 0.0]]), np.array([[1.0]])],
        [np.array([0.1]), np.array([0.2])],
        [activations.tanh_act(), activations.identity()],
    )
    with pytest.raises(ValueError, match="zero"):
        simulate_ffnn(net, np.array([0.5, 0.5]), np.array([1.0]))


# -- kendall tau -----------------------------------------------------------------------

def kendall_bruteforce(pred, true, variant="b"):
    n = len(pred)
    num = 0.0
    ties_p = ties_t = 0
    for i in range(n):
        for j in range(i + 1, n):
            sp = np.sign(pred[i] - pred[j])
            st_ = np.sign(true[i] - true[j])
            num += sp * st_
            ties_p += sp == 0
            ties_t += st_ == 0
    n0 = n * (n - 1) / 2
    if variant == "a":
        return num / n0
    denom = np.sqrt((n0 - ties_p) * (n0 - ties_t))
    return num / denom if denom > 0 else 0.0  # fully tied: same convention as the library


def test_kendall_identical_and_reversed():
    r = np.arange(10, dtype=float)
    assert kendall_tau(r, r) == 1.0
    assert kendall_tau(r, r[::-1]) == -1.0


def test_kendall_spec_example():
    tau = kendall_tau([1, 3, 2, 4], [1, 2, 3, 4], variant="a")
    assert abs(tau - 4.0 / 6.0) < 1e-15


def test_kendall_requires_two():
    with pytest.raises(ValueError):
        kendall_tau([1.0], [1.0])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 50),
    seed=st.integers(0, 10_000),
    variant=st.sampled_from(["a", "b"]),
    with_ties=st.booleans(),
)
def test_kendall_matches_bruteforce(n, seed, variant, with_ties):
    rng = np.random.default_rng(seed)
    if with_ties:
        pred = rng.integers(0, max(2, n // 2), size=n).astype(float)
        true = rng.integers(0, max(2, n // 2), size=n).astype(float)
    else:
        pred, true = rng.standard_normal(n), rng.standard_normal(n)
    if variant == "a" and with_ties:
        variant = "b"  # tau-a is only used without ties
    expected = kendall_bruteforce(pred, true, variant)
    assert kendall_tau(pred, true, variant) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 10_000))
def test_kendall_b_matches_scipy(n, seed):
    rng = np.random.default_rng(seed)
    pred = rng.integers(0, n // 2 + 2, size=n).astype(float)
    true = rng.integers(0, n // 2 + 2, size=n).astype(float)
    if np.all(pred == pred[0]) or np.all(true == true[0]):
        return  # scipy returns nan for fully tied inputs
    expected = scipy.stats.kendalltau(pred, true, variant="b").statistic
    assert kendall_tau(pred, true, "b") == pytest.approx(expected, abs=1e-12)
