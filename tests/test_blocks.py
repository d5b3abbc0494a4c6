"""Randomized group-action properties of the equivariant building blocks."""

import numpy as np
import pytest

from scalegmn import tensor as T
from scalegmn.blocks import (
    Canonicalizer,
    ReScaleEqNet,
    ScaleEqNet,
    ScaleInvNet,
)
from scalegmn.nn import MLP
from scalegmn.tensor import Tensor

N_TRIALS = 100
TOL = 1e-10


def rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-9)))


def sample_q(kind: str, rng) -> float:
    if kind == "sign":
        return float(rng.choice([-1.0, 1.0]))
    return float(rng.uniform(0.1, 10.0))


MODE_OF = {"sign": "sign-symmetrize", "positive": "norm-divide"}


# -- canonicalizers ----------------------------------------------------------------

def test_canonicalize_norm_divide_values():
    c = Canonicalizer("norm-divide", 2)
    out = c(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]])


def test_canonicalize_norm_divide_scale_invariant():
    rng = np.random.default_rng(0)
    c = Canonicalizer("norm-divide", 5)
    x = rng.standard_normal((4, 5))
    a = c(Tensor(x)).data
    b = c(Tensor(2.0 * x)).data
    assert np.max(np.abs(a - b)) < 1e-14


def test_sign_symmetrize_linear_mlp_vanishes():
    rng = np.random.default_rng(1)
    c = Canonicalizer("sign-symmetrize", 3, rng, d_out=4)
    # single linear layer with its zero initial bias (an odd map): symmetrization
    # cancels exactly
    c.mlp = MLP([3, 4], rng)
    out = c(Tensor(rng.standard_normal((6, 3))))
    assert np.max(np.abs(out.data)) == 0.0


def test_sign_symmetrize_bitwise_invariant():
    rng = np.random.default_rng(2)
    c = Canonicalizer("sign-symmetrize", 4, rng)
    x = rng.standard_normal((5, 4))
    a = c(Tensor(x)).data
    b = c(Tensor(-x)).data
    assert np.array_equal(a, b)


def test_sign_abs():
    c = Canonicalizer("sign-abs", 3)
    x = np.array([[-1.0, 2.0, -3.0]])
    assert np.allclose(c(Tensor(x)).data, [[1.0, 2.0, 3.0]])


def test_zero_vector_convention():
    c = Canonicalizer("norm-divide", 3)
    out = c(Tensor(np.zeros((2, 3))))
    assert np.all(out.data == 0.0)


# -- scale invariant nets ------------------------------------------------------------

@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_scale_inv_randomized(kind):
    rng = np.random.default_rng(3)
    net = ScaleInvNet([4, 3], 5, rng, mode=MODE_OF[kind])
    worst = 0.0
    for _ in range(N_TRIALS):
        x1 = rng.standard_normal((2, 4))
        x2 = rng.standard_normal((2, 3))
        q1, q2 = sample_q(kind, rng), sample_q(kind, rng)
        base = net([Tensor(x1), Tensor(x2)]).data
        scaled = net([Tensor(q1 * x1), Tensor(q2 * x2)]).data
        worst = max(worst, rel_dev(base, scaled))
    assert worst < TOL


def test_scale_inv_constant_rho():
    rng = np.random.default_rng(4)
    net = ScaleInvNet([4], 3, rng, mode="norm-divide")
    net.set_constant(0.7)
    for _ in range(5):
        out = net([Tensor(rng.standard_normal((3, 4)))])
        assert np.allclose(out.data, 0.7)


def test_scale_inv_missing_extra_slot_errors():
    rng = np.random.default_rng(5)
    net = ScaleInvNet([4], 3, rng, extra_dim=2)
    with pytest.raises(ValueError):
        net([Tensor(np.ones((1, 4)))])


# -- scale equivariant nets ------------------------------------------------------------

def test_scale_eq_identity_configuration():
    rng = np.random.default_rng(6)
    net = ScaleEqNet([3], [3], rng, mode="sign-symmetrize")
    net.gammas[0].weight.assign(np.eye(3))
    net.inv.set_constant(1.0)
    x = rng.standard_normal((4, 3))
    (out,) = net([Tensor(x)])
    assert np.max(np.abs(out.data - x)) < 1e-15


@pytest.mark.parametrize("kind", ["sign", "positive"])
@pytest.mark.parametrize("depth", [1, 2])
def test_scale_eq_randomized(kind, depth):
    """A ScaleEqNet, and a composition of `depth` of them, is equivariant."""
    rng = np.random.default_rng(7)
    nets = [ScaleEqNet(dims, [5, 6], rng, mode=MODE_OF[kind])
            for dims in ([4, 3], [5, 6])[:depth]]

    def net(xs):
        for layer in nets:
            xs = layer(xs)
        return xs

    worst = 0.0
    for _ in range(N_TRIALS):
        x1, x2 = rng.standard_normal((2, 4)), rng.standard_normal((2, 3))
        q1, q2 = sample_q(kind, rng), sample_q(kind, rng)
        base = net([Tensor(x1), Tensor(x2)])
        scaled = net([Tensor(q1 * x1), Tensor(q2 * x2)])
        worst = max(worst, rel_dev(q1 * base[0].data, scaled[0].data))
        worst = max(worst, rel_dev(q2 * base[1].data, scaled[1].data))
    assert worst < TOL


def test_scale_eq_sign_oddness():
    rng = np.random.default_rng(8)
    net = ScaleEqNet([4], [4], rng, mode="sign-symmetrize")
    worst = 0.0
    for _ in range(N_TRIALS):
        x = rng.standard_normal((1, 4))
        (base,) = net([Tensor(x)])
        (flipped,) = net([Tensor(-x)])
        worst = max(worst, rel_dev(-base.data, flipped.data))
    assert worst < TOL


# -- rescale equivariant nets ------------------------------------------------------------

def test_rescale_hadamard_identity_gammas():
    rng = np.random.default_rng(9)
    net = ReScaleEqNet([3, 3], 3, rng, variant="hadamard")
    net.gammas[0].weight.assign(np.eye(3))
    net.gammas[1].weight.assign(np.eye(3))
    y = rng.standard_normal((2, 3))
    e = rng.standard_normal((2, 3))
    out = net([Tensor(y), Tensor(e)]).data
    assert np.max(np.abs(out - y * e)) < 1e-15
    # multiplier algebra: g(q_y y, q_x q_y^{-1} e) = q_x g(y, e)
    q_x, q_y = 3.0, 0.5
    out2 = net([Tensor(q_y * y), Tensor(q_x / q_y * e)]).data
    assert np.max(np.abs(out2 - q_x * out)) < 1e-12


def test_rescale_outer_shape():
    rng = np.random.default_rng(10)
    net = ReScaleEqNet([2, 3], 4, rng, variant="outer")
    out = net([Tensor(rng.standard_normal((5, 2))), Tensor(rng.standard_normal((5, 3)))])
    assert out.shape == (5, 4)
    # the intermediate outer product flattens 2*3 = 6 entries
    assert net.eq.gammas[0].weight.shape == (4, 6)


@pytest.mark.parametrize("kind", ["sign", "positive"])
@pytest.mark.parametrize("variant", ["hadamard", "outer"])
def test_rescale_randomized(kind, variant):
    rng = np.random.default_rng(11)
    net = ReScaleEqNet([4, 3], 5, rng, variant=variant, mode=MODE_OF[kind])
    worst = 0.0
    for _ in range(N_TRIALS):
        x1, x2 = rng.standard_normal((2, 4)), rng.standard_normal((2, 3))
        q1, q2 = sample_q(kind, rng), sample_q(kind, rng)
        base = net([Tensor(x1), Tensor(x2)]).data
        scaled = net([Tensor(q1 * x1), Tensor(q2 * x2)]).data
        worst = max(worst, rel_dev(q1 * q2 * base, scaled))
    assert worst < TOL


def test_outer_equals_hadamard_on_diagonal():
    rng = np.random.default_rng(12)
    d = 3
    outer = ReScaleEqNet([d, d], d, rng, variant="outer")
    # K=1 layer: select the diagonal entries of the outer product, constant inv
    diag_select = np.zeros((d, d * d))
    for i in range(d):
        diag_select[i, i * d + i] = 1.0
    outer.eq.gammas[0].weight.assign(diag_select)
    outer.eq.inv.set_constant(1.0)
    hadamard = ReScaleEqNet([d, d], d, rng, variant="hadamard")
    hadamard.gammas[0].weight.assign(np.eye(d))
    hadamard.gammas[1].weight.assign(np.eye(d))
    x1, x2 = rng.standard_normal((4, d)), rng.standard_normal((4, d))
    a = outer([Tensor(x1), Tensor(x2)]).data
    b = hadamard([Tensor(x1), Tensor(x2)]).data
    assert np.max(np.abs(a - b)) < 1e-12


# -- augmented variants -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["sign", "positive"])
def test_aug_scale_eq_fixed_positional_input(kind):
    rng = np.random.default_rng(13)
    net = ScaleEqNet([4], [4], rng, mode=MODE_OF[kind], extra_dim=3)
    p = Tensor(rng.standard_normal((2, 3)))
    worst = 0.0
    for _ in range(N_TRIALS):
        x = rng.standard_normal((2, 4))
        q = sample_q(kind, rng)
        (base,) = net([Tensor(x)], extra=p)
        (scaled,) = net([Tensor(q * x)], extra=p)
        worst = max(worst, rel_dev(q * base.data, scaled.data))
    assert worst < TOL


def test_aug_changing_p_changes_output():
    rng = np.random.default_rng(14)
    net = ScaleEqNet([4], [4], rng, extra_dim=3)
    x = Tensor(rng.standard_normal((2, 4)))
    (a,) = net([x], extra=Tensor(rng.standard_normal((2, 3))))
    (b,) = net([x], extra=Tensor(rng.standard_normal((2, 3))))
    assert np.max(np.abs(a.data - b.data)) > 1e-6


def test_aug_width_zero_degenerates_to_plain():
    rng = np.random.default_rng(15)
    net = ScaleEqNet([4], [4], rng, extra_dim=0)
    x = Tensor(rng.standard_normal((2, 4)))
    (a,) = net([x])
    (b,) = net([x], extra=None)
    assert np.array_equal(a.data, b.data)


def test_symmetrize_matches_explicit_two_term_sum():
    rng = np.random.default_rng(16)
    net = ScaleInvNet([4], 3, rng, mode="sign-symmetrize")
    x = rng.standard_normal((2, 4))
    canon = net.canons[0]
    explicit = canon.mlp(Tensor(x)).data + canon.mlp(Tensor(-x)).data
    via_net = canon(Tensor(x)).data
    assert np.max(np.abs(explicit - via_net)) < 1e-12
