"""Non-equivariant reference models: the negative controls.

Both baselines read a fixed feature vector off the input network and run a
plain MLP. Neither respects scaling symmetries; orbit-transformed copies of
a test set are expected to degrade them, which is exactly what the
comparison reports measure.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import MLP, Module
from .tensor import Tensor

HIDDEN = 64  # width of both hidden layers of a baseline's MLP


def flat_features(net) -> np.ndarray:
    return net.flatten()


def stat_features(net) -> np.ndarray:
    """Per-layer summary statistics of weights and biases, fixed order.

    Seven statistics (mean, std, min, max, quartiles) for the weights then
    the biases of each layer: 7 * 2 * L entries. A CNN's layers are its
    kernel/bias pairs, then the head. Invariant to hidden-neuron
    permutations by construction.
    """
    feats = []
    for w, b in zip(net.weights, net.biases):
        for arr in (np.asarray(w).reshape(-1), np.asarray(b).reshape(-1)):
            q25, q50, q75 = np.percentile(arr, [25, 50, 75])
            feats.extend([arr.mean(), arr.std(), arr.min(), arr.max(), q25, q50, q75])
    return np.asarray(feats)


class VectorMlpBaseline(Module):
    """MLP over per-network feature vectors (flattened params or statistics)."""

    def __init__(self, feature_fn, d_in: int, d_out: int, rng):
        self.feature_fn = feature_fn
        self.mlp = MLP([d_in, HIDDEN, HIDDEN, d_out], rng)
        self.d_in = d_in
        self.d_out = d_out

    def features(self, nets) -> np.ndarray:
        return np.stack([self.feature_fn(n) for n in nets])

    def forward(self, nets) -> Tensor:
        return self.mlp(T.constant(self.features(nets)))


def make_flat_baseline(example_net, d_out: int, rng) -> VectorMlpBaseline:
    return VectorMlpBaseline(flat_features, flat_features(example_net).size, d_out, rng)


def make_stat_baseline(example_net, d_out: int, rng) -> VectorMlpBaseline:
    return VectorMlpBaseline(stat_features, stat_features(example_net).size, d_out, rng)
