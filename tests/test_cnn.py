"""CNN evaluation and channel-orbit function preservation."""

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
    for k, b, act in zip(net.kernels, net.conv_biases, net.activations):
        x = act.fn(einsum_conv_valid(x, k, b))
    return x.mean(axis=(2, 3)) @ net.head_weight.T + net.head_bias


def test_1x1_kernels_on_1x1_image_equals_ffnn():
    rng = np.random.default_rng(0)
    net = make_cnn(rng, channels=(3, 5), kernel=1, n_out=2)
    image = rng.standard_normal((3, 1, 1))
    logits = cnn_forward(net, image)
    # conv with 1x1 kernels on a single pixel is a plain linear layer; GAP is
    # the identity; so the CNN equals a 2-layer FFNN on the channel vector
    ffnn = FfnnParams(
        [net.kernels[0][:, :, 0, 0], net.head_weight],
        [net.conv_biases[0], net.head_bias],
        [net.activations[0], activations.identity()],
    )
    expected = ffnn_forward(ffnn, image[:, 0, 0])
    assert np.max(np.abs(logits - expected)) < 1e-12


def test_zero_kernels_propagate_bias():
    rng = np.random.default_rng(1)
    net = make_cnn(rng, channels=(1, 4), kernel=3, n_out=2)
    net.kernels[0][:] = 0.0
    image = rng.standard_normal((1, 8, 8))
    logits = cnn_forward(net, image)
    pooled = np.maximum(net.conv_biases[0], 0.0)  # relu of bias everywhere
    expected = net.head_weight @ pooled + net.head_bias
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
    manual.kernels[0][1] *= q
    manual.conv_biases[0][1] *= q
    manual.kernels[1][:, 1] /= q
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
    bad = OrbitElement([np.arange(4)], [np.array([1.0, -1.0, 1.0, 1.0])], kind="sign")
    with pytest.raises(ValueError, match="scaling group"):
        apply_orbit(net, bad)


def test_shape_mismatch_errors():
    rng = np.random.default_rng(5)
    net = make_cnn(rng, channels=(1, 4), kernel=3, n_out=2)
    with pytest.raises(ShapeError):
        cnn_forward(net, rng.standard_normal((2, 8, 8)))  # wrong channel count
    with pytest.raises(ShapeError):
        cnn_forward(net, rng.standard_normal((1, 2, 2)))  # kernel larger than input


def test_taped_forward_matches_numpy():
    rng = np.random.default_rng(6)
    net = make_cnn(rng, channels=(1, 4, 3), kernel=3, n_out=2)
    images = rng.standard_normal((3, 1, 8, 8))
    kernels = [Tensor(k) for k in net.kernels]
    biases = [Tensor(b) for b in net.conv_biases]
    out = cnn_forward_taped(kernels, biases, net.activations,
                            Tensor(net.head_weight), Tensor(net.head_bias), images)
    assert np.max(np.abs(out.data - einsum_cnn_forward(net, images))) < 1e-12


def test_toy_cnn_fit_step_tape_is_one_node_per_conv_layer():
    """A zoo fit step (two 3x3 conv layers, batch of 32) records each conv
    layer as one node, not a handful per kernel offset."""
    rng = np.random.default_rng(7)
    train_x, train_y, _, _ = make_blob_task(rng)
    net = make_cnn(rng, channels=(1, 4, 4), kernel=3, n_out=2)
    logits = cnn_forward_taped([Tensor(k) for k in net.kernels],
                               [Tensor(b) for b in net.conv_biases], net.activations,
                               Tensor(net.head_weight), Tensor(net.head_bias), train_x[:32])
    assert tape_size(cross_entropy(logits, train_y[:32])) <= 30
