"""CNN evaluation, the CNN layer chain, and channel-orbit function preservation."""

import dataclasses

import numpy as np
import pytest

from scalegmn import activations
from scalegmn.cnn import CnnParams, cnn_forward, cnn_forward_taped
from scalegmn.ffnn import FfnnParams, OrbitElement, apply_orbit, ffnn_forward, sample_orbit
from scalegmn.nn import cross_entropy
from scalegmn.tensor import ShapeError, Tensor
from scalegmn.zoo import make_blob_task

from test_graph import make_cnn
from test_tensor import tape_size


def einsum_conv_valid(x: np.ndarray, k: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference convolution, independent of the tape: x [n, c_in, H, W] *
    k [c_out, c_in, kh, kw] -> [n, c_out, H', W'], one channels-first einsum
    per kernel offset."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = k.shape
    ho, wo = h - kh + 1, w - kw + 1
    out = np.zeros((n, c_out, ho, wo))
    for dr in range(kh):
        for dc in range(kw):
            patch = x[:, :, dr : dr + ho, dc : dc + wo]
            out += np.einsum("nchw,oc->nohw", patch, k[:, :, dr, dc])
    return out + b[None, :, None, None]


def einsum_cnn_forward(net: CnnParams, images: np.ndarray) -> np.ndarray:
    """Logits for images [n, c, H, W] through `einsum_conv_valid`."""
    x = images
    for k, b, act in zip(net.weights[:-1], net.biases[:-1], net.activations):
        x = act.fn(einsum_conv_valid(x, k, b))
    return x.mean(axis=(2, 3)) @ net.weights[-1].T + net.biases[-1]


def leaves(net: CnnParams) -> CnnParams:
    """The same chain with every weight and bias a Tensor leaf."""
    return CnnParams([Tensor(w) for w in net.weights], [Tensor(b) for b in net.biases],
                     net.activations)


def test_1x1_kernels_on_1x1_image_equals_ffnn():
    rng = np.random.default_rng(0)
    net = make_cnn(rng, channels=(3, 5), kernel=1, n_out=2)
    image = rng.standard_normal((3, 1, 1))
    logits = cnn_forward(net, image)
    # conv with 1x1 kernels on a single pixel is a plain linear layer; GAP is
    # the identity; so the CNN equals a 2-layer FFNN on the channel vector
    ffnn = FfnnParams(
        [net.weights[0][:, :, 0, 0], net.weights[-1]],
        [net.biases[0], net.biases[-1]],
        [net.activations[0], activations.identity()],
    )
    expected = ffnn_forward(ffnn, image[:, 0, 0])
    assert np.max(np.abs(logits - expected)) < 1e-12


def test_zero_kernels_propagate_bias():
    rng = np.random.default_rng(1)
    net = make_cnn(rng, channels=(1, 4), kernel=3, n_out=2)
    net.weights[0][:] = 0.0
    image = rng.standard_normal((1, 8, 8))
    logits = cnn_forward(net, image)
    pooled = np.maximum(net.biases[0], 0.0)  # relu of bias everywhere
    expected = net.weights[-1] @ pooled + net.biases[-1]
    assert np.allclose(logits, expected)


def test_channel_scaling_preserves_logits():
    rng = np.random.default_rng(2)
    net = make_cnn(rng, channels=(1, 4, 3), kernel=3, n_out=2, acts="relu")
    image = rng.standard_normal((5, 1, 8, 8))
    base = cnn_forward(net, image)
    # manual single-channel compensation: scale channel c of layer 1 by q,
    # divide the next layer's matching input slice by q
    q = 3.5
    manual = net.copy()
    manual.weights[0][1] *= q
    manual.biases[0][1] *= q
    manual.weights[1][:, 1] /= q
    assert np.max(np.abs(cnn_forward(manual, image) - base)) < 1e-9


@pytest.mark.parametrize("acts,kind", [("relu", "positive"), ("tanh", "sign")])
def test_orbit_preserves_cnn_function(acts, kind):
    rng = np.random.default_rng(3)
    net = make_cnn(rng, channels=(1, 4, 3), kernel=3, n_out=2, acts=acts)
    image = rng.standard_normal((4, 1, 8, 8))
    base = cnn_forward(net, image)
    for _ in range(5):
        orbit = sample_orbit(kind, [4, 3], rng)
        moved = apply_orbit(net, orbit)
        assert np.max(np.abs(cnn_forward(moved, image) - base)) < 1e-9


def test_orbit_rejects_wrong_group():
    rng = np.random.default_rng(4)
    net = make_cnn(rng, channels=(1, 4), kernel=3, n_out=2, acts="relu")
    bad = OrbitElement([np.arange(4)], [np.array([1.0, -1.0, 1.0, 1.0])])
    with pytest.raises(ValueError, match="scaling group"):
        apply_orbit(net, bad)


def test_shape_mismatch_errors():
    rng = np.random.default_rng(5)
    net = make_cnn(rng, channels=(1, 4), kernel=3, n_out=2)
    with pytest.raises(ShapeError):
        cnn_forward(net, rng.standard_normal((2, 8, 8)))  # wrong channel count
    with pytest.raises(ShapeError):
        cnn_forward(net, rng.standard_normal((1, 2, 2)))  # kernel larger than input


MALFORMED_CHAINS = {
    # case: (change to a 1-4-3 channel, 3x3 chain with a 2-way head, message)
    "bias count": (lambda w, b, a: (w, b[:-1], a), r"3 weight\(s\) and 2 bias\(es\)"),
    "activation count": (lambda w, b, a: (w, b, a + a[:1]),
                         r"2 conv layer\(s\) but 3 activation\(s\)"),
    "2-D conv layer": (lambda w, b, a: ([w[0], w[1][:, :, 0, 0], w[2]], b, a),
                       r"^conv layer 1: weight \(3, 4\) / bias \(3,\) malformed"),
    "4-D head": (lambda w, b, a: (w[:2] + [w[2][:, :, None, None]], b, a),
                 r"^head \(layer 2\): weight \(2, 3, 1, 1\) / bias \(2,\) malformed"),
    "channel chain": (lambda w, b, a: ([w[0], w[1][:, :2], w[2]], b, a),
                      r"^conv layer 1: 2 input channels, but layer 0 has 4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHAINS))
def test_cnn_params_rejects_a_malformed_chain(case):
    net = make_cnn(np.random.default_rng(8), channels=(1, 4, 3), kernel=3, n_out=2)
    assert [f.name for f in dataclasses.fields(net)] == ["weights", "biases", "activations"]
    change, message = MALFORMED_CHAINS[case]
    with pytest.raises(ShapeError, match=message):
        CnnParams(*change(list(net.weights), list(net.biases), list(net.activations)))


def test_taped_forward_matches_numpy():
    rng = np.random.default_rng(6)
    net = make_cnn(rng, channels=(1, 4, 3), kernel=3, n_out=2)
    images = rng.standard_normal((3, 1, 8, 8))
    out = cnn_forward_taped(leaves(net), images)
    assert np.max(np.abs(out.data - einsum_cnn_forward(net, images))) < 1e-12


def test_toy_cnn_fit_step_tape_is_one_node_per_conv_layer():
    """A zoo fit step (two 3x3 conv layers, batch of 32) records each conv
    layer as one node, not a handful per kernel offset."""
    rng = np.random.default_rng(7)
    train_x, train_y, _, _ = make_blob_task(rng)
    net = make_cnn(rng, channels=(1, 4, 4), kernel=3, n_out=2)
    logits = cnn_forward_taped(leaves(net), train_x[:32])
    assert tape_size(cross_entropy(logits, train_y[:32])) <= 30
