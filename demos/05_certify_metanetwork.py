"""Certify a freshly built metanetwork: invariant readout, equivariant editing.

The orbit certification is the executable counterpart of the symmetry
guarantee: transform the input network by random permutations and scalings
and measure how much the metanetwork's output moves. A flat-MLP readout is
run as a negative control — it has no reason to be invariant, and is not.
"""

import numpy as np

from scalegmn import activations
from scalegmn.ffnn import FfnnParams, sample_orbit
from scalegmn.graph import build_graph
from scalegmn.harness import certify_equivariance, certify_invariance
from scalegmn.model import ScaleGMNConfig, ScaleGMNModel

DIMS = (2, 5, 5, 2)


def net_sampler(rng):
    acts = [activations.tanh_act()] * 2 + [activations.identity()]
    return FfnnParams(
        [rng.standard_normal((DIMS[i + 1], DIMS[i])) for i in range(3)],
        [rng.standard_normal(DIMS[i + 1]) for i in range(3)],
        acts,
    )


def orbit_sampler(rng):
    return sample_orbit("sign", [5, 5], rng)


rng = np.random.default_rng(0)
template = build_graph(net_sampler(rng)).template

inv_model = ScaleGMNModel(
    ScaleGMNConfig(d_v=16, d_e=16, d_msg=16, pe_dim=6, n_rounds=2,
                   group_kind="sign", out_dim=4),
    template, np.random.default_rng(1),
)
report = certify_invariance(inv_model, net_sampler, orbit_sampler,
                            trials=30, nets=4, tol=1e-8, seed=2)
print(f"invariant readout: max relative deviation {report.max_deviation:.2e} "
      f"over {report.trials} orbit trials -> {'PASS' if report.passed else 'FAIL'}")

edit_model = ScaleGMNModel(
    ScaleGMNConfig(d_v=16, d_e=16, d_msg=16, pe_dim=6, n_rounds=2,
                   group_kind="sign", head="equivariant-edit"),
    template, np.random.default_rng(3),
)
report = certify_equivariance(edit_model, net_sampler, orbit_sampler,
                              trials=30, nets=4, tol=1e-8, seed=4)
print(f"equivariant edit: max sup-norm gap {report.max_deviation:.2e} "
      f"over {report.trials} trials -> {'PASS' if report.passed else 'FAIL'}")

# Negative control: a readout on raw flattened parameters (57 of them here).
w = np.random.default_rng(5).standard_normal((4, 57))
broken = lambda net: w @ net.flatten()
report = certify_invariance(broken, net_sampler, orbit_sampler,
                            trials=30, nets=4, tol=1e-8, seed=6)
print(f"flat-MLP negative control: max deviation {report.max_deviation:.2e} "
      f"-> correctly {'FAILS' if not report.passed else 'passes?!'}")
