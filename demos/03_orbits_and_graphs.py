"""Parameter symmetries in action: orbit transforms preserve the function.

Hidden neurons of a tanh network can be permuted and sign-flipped, ReLU
neurons can be positively rescaled, without changing what the network
computes. Sine networks additionally admit phase shifts of each neuron's
bias, removable by the bias-shift canonicalization.
"""

import numpy as np

from scalegmn import activations
from scalegmn.ffnn import FfnnParams, apply_orbit, bias_shift, ffnn_forward, sample_orbit
from scalegmn.graph import build_graph

rng = np.random.default_rng(1)
net = FfnnParams(
    [rng.standard_normal((6, 2)), rng.standard_normal((6, 6)), rng.standard_normal((1, 6))],
    [rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(1)],
    [activations.tanh_act()] * 2 + [activations.identity()],
)

grid = rng.uniform(-1, 1, size=(101, 2))
for trial in range(3):
    orbit = sample_orbit("sign", [6, 6], rng)
    transformed = apply_orbit(net, orbit)
    dev = np.max(np.abs(ffnn_forward(net, grid) - ffnn_forward(transformed, grid)))
    n_flips = int(sum((q < 0).sum() for q in orbit.scales))
    print(f"orbit {trial}: {n_flips} sign flips + permutations, "
          f"max output deviation {dev:.2e}")

# The same holds for positive rescalings of ReLU networks.
relu_net = FfnnParams(
    [rng.standard_normal((6, 2)), rng.standard_normal((1, 6))],
    [rng.standard_normal(6), rng.standard_normal(1)],
    [activations.relu(), activations.identity()],
)
orbit = sample_orbit("positive", [6], rng)
dev = np.max(np.abs(ffnn_forward(relu_net, grid)
                    - ffnn_forward(apply_orbit(relu_net, orbit), grid)))
print(f"ReLU positive rescaling (q in [{min(orbit.scales[0]):.2f}, "
      f"{max(orbit.scales[0]):.2f}]): deviation {dev:.2e}")

# Sine phase canonicalization: a wildly out-of-range bias folds back into
# (-pi/2, pi/2] while computing the identical neuron function.
b, w = 3 * np.pi / 4, np.array([1.0])
b2, w2 = bias_shift(b, w)
xs = np.linspace(-3, 3, 7)
lhs = np.sin(10.0 * xs * w2[0] + b2)
rhs = np.sin(10.0 * xs * w[0] + b)
print(f"bias shift: {b:.3f} -> {b2:.3f}, weight {w[0]:.0f} -> {w2[0]:.0f}, "
      f"grid identity deviation {np.max(np.abs(lhs - rhs)):.2e}")

# Graphs read the canonical parameters: vertices carry biases, edges weights.
template = build_graph(net).template
print(f"graph: {template.n_v} vertices, {template.n_e} edges, "
      f"{template.n_vertex_classes} vertex PE classes, "
      f"{template.n_edge_classes} edge PE classes")
