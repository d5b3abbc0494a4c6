"""Executable symmetry certification, task metrics, and the relay simulation.

Three kinds of evidence live here: orbit-based invariance/equivariance
reports for a metanetwork, function-preservation checks for datapoint
networks under orbit transforms, and a hand-wired (non-learned) message
passing run that reconstructs an input network's forward pass and the
gradients of its backward pass inside vertex representations.

Both certifiers share one trial loop on the stacked orbit path: each
sampled net's trial elements are one stacked `OrbitElement`, one
`apply_orbit` moves the net to all of its copies, one `graph_for` reads the
net and its copies as one stack of graphs, and the stack goes through the
model as one batch, through `forward` for the invariant head and
`edit_params` for the edit head, recording no tape. The equivariance gaps
are one array difference between the edited stack and one `apply_orbit`
of the edited net.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .cnn import CnnParams, cnn_forward
from .ffnn import FfnnParams, LayerChain, OrbitElement, apply_orbit, ffnn_forward
from .graph import graph_for
from .model import ScaleGMNModel
from .tensor import DIV_EPS, ShapeError, no_tape


# -- function preservation ------------------------------------------------------------

def check_function_preservation(net_a, net_b, grid: np.ndarray) -> float:
    """Max absolute output deviation between two same-architecture networks."""
    if isinstance(net_a, CnnParams):
        out_a, out_b = cnn_forward(net_a, grid), cnn_forward(net_b, grid)
    else:
        out_a, out_b = ffnn_forward(net_a, grid), ffnn_forward(net_b, grid)
    return float(np.max(np.abs(out_a - out_b)))


# -- certification reports ------------------------------------------------------------

@dataclass
class SymmetryReport:
    """Outcome of a randomized orbit certification run. Deterministic per seed."""

    name: str
    metric: str                    # "relative" or "absolute"
    tolerance: float
    seed: int
    deviations: list[float] = field(default_factory=list)
    config_hash: str = ""
    seconds: float = 0.0           # wall time of the trials

    @property
    def trials(self) -> int:
        return len(self.deviations)

    @property
    def max_deviation(self) -> float:
        return max(self.deviations) if self.deviations else 0.0

    @property
    def passed(self) -> bool:
        return bool(self.deviations) and self.max_deviation < self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "trials": self.trials,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
            "config_hash": self.config_hash,
            "seconds": self.seconds,
            "deviations": self.deviations,
        }


def config_hash(config) -> str:
    blob = json.dumps(config.to_dict() if hasattr(config, "to_dict") else config,
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def certify_invariance(model, net_sampler, orbit_sampler, trials: int = 50,
                       nets: int = 5, tol: float = 1e-8, seed: int = 0,
                       name: str = "invariance") -> SymmetryReport:
    """Relative readout deviation under random orbits of random networks.

    trials counts orbit elements per sampled network; trials=0 (or nets=0)
    records no trial, and a report without trials does not pass.
    """
    report = SymmetryReport(name=name, metric="relative", tolerance=tol, seed=seed)
    return _orbit_trials(model, net_sampler, orbit_sampler, trials, nets, report, edit=False)


def certify_equivariance(model, net_sampler, orbit_sampler, trials: int = 50,
                         nets: int = 5, tol: float = 1e-8, seed: int = 0,
                         name: str = "equivariance") -> SymmetryReport:
    """Sup-norm gap between the flattened edit(psi(theta)) and psi(edit(theta))."""
    report = SymmetryReport(name=name, metric="absolute", tolerance=tol, seed=seed)
    return _orbit_trials(model, net_sampler, orbit_sampler, trials, nets, report, edit=True)


def _orbit_trials(model, net_sampler, orbit_sampler, trials: int, nets: int,
                  report: SymmetryReport, edit: bool) -> SymmetryReport:
    """Per sampled net: draw `trials` orbits, then run the net and its copies at once.

    The net and its copies are one stack: one `apply_orbit` of the stacked
    elements and, for a ScaleGMN model, one stacked graph build and one batch
    of trials + 1 graphs (`forward`, or `edit_params` when `edit`); a plain
    callable is called on each net. The equivariance gaps compare the
    edited stack with one `apply_orbit` of the edited net. The net is drawn
    before its orbits, so a seed fixes both.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(report.seed)
    scalegmn = isinstance(model, ScaleGMNModel)
    if scalegmn:
        report.config_hash = config_hash(model.config)
    for _ in range(nets):
        net = net_sampler(rng)
        orbits = [orbit_sampler(rng) for _ in range(trials)]
        if not orbits:
            continue
        elements = OrbitElement.stack(orbits)
        batch = LayerChain.stack([net, apply_orbit(net, elements)])
        if not scalegmn:
            outs = [model(n) for n in batch]
            if edit:
                outs = LayerChain.stack(outs)
        else:
            graphs = graph_for(batch, model.config.direction)
            with no_tape():
                outs = model.edit_params(graphs, batch) if edit else model.forward(graphs).data
        if edit:
            moved = apply_orbit(outs[0], elements)
            gaps = np.max(np.abs(outs.flatten()[1:] - moved.flatten()), axis=1)
        else:
            out = np.stack([np.asarray(o, dtype=np.float64).reshape(-1) for o in outs])
            gaps = (np.abs(out[1:] - out[0]) / (np.abs(out[0]) + 1e-9)).max(axis=1)
        report.deviations.extend(float(d) for d in gaps)
    report.seconds = time.perf_counter() - t0
    return report


# -- forward/backward relay simulation ---------------------------------------------------

@dataclass
class SimulationResult:
    """Channels recovered by the relay plus the per-round vertex history.

    history[t] is the [V, 5] state after t rounds with channels
    [bias, pre-activation, post-activation, 1/grad_pre, 1/grad_post].
    Gradients are stored inverted inside the run (the relay divides by
    them); extraction inverts once.
    """

    dims: list[int]
    history: list[np.ndarray]
    z: list[np.ndarray]
    x: list[np.ndarray]
    grad_z: list[np.ndarray]
    grad_x: list[np.ndarray]

    @property
    def rounds(self) -> int:
        return len(self.history) - 1


def _round_state(net, x0, out_grad):
    """Initial vertex state and the constant edge features of the relay."""
    dims = net.dims
    L = net.n_layers
    offsets = np.concatenate([[0], np.cumsum(dims)])
    V = int(offsets[-1])
    state = np.zeros((V, 5))
    # input vertices: bias channel 1, forward channels carry (z0, x0) = inputs
    state[: dims[0], 0] = 1.0
    state[: dims[0], 1] = x0
    state[: dims[0], 2] = x0
    for l, b in enumerate(net.biases):
        state[offsets[l + 1] : offsets[l + 2], 0] = b
    # output vertices: inverse gradients of the (optional) loss
    zs, h = [], np.asarray(x0, dtype=np.float64)
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = act.preact(h @ w.T, b)
        zs.append(z)
        h = act.fn(z)
    dzL = net.activations[-1].deriv(zs[-1]) * out_grad
    for name, vec in (("grad_z_L", dzL), ("grad_x_L", out_grad)):
        zero = np.where(np.abs(vec) < DIV_EPS)[0]
        if zero.size:
            raise ValueError(
                f"{name} is zero at output vertex {int(zero[0])}; "
                "the reciprocal relay channels need nonzero gradients"
            )
    state[offsets[L] :, 3] = 1.0 / dzL
    state[offsets[L] :, 4] = 1.0 / out_grad
    return state, offsets


def simulate_ffnn(net: FfnnParams, x0: np.ndarray, out_grad: np.ndarray) -> SimulationResult:
    """Run the hand-wired relay: 2L rounds recover all channels.

    Forward messages relay post-activations through the stored weights;
    backward messages and updates apply elementwise reciprocals (g_m, g_U)
    to the inverted-gradient channels through reciprocal backward edges.
    After round l the layer-l vertices hold (z_l, x_l); after round 2L - l
    they hold the inverted gradients. Requires nonzero weights and nonzero
    intermediate gradients; zeros are reported with their vertex/edge.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    out_grad = np.asarray(out_grad, dtype=np.float64).reshape(-1)
    dims = net.dims
    L = net.n_layers
    if x0.shape[0] != dims[0] or out_grad.shape[0] != dims[-1]:
        raise ShapeError("input / output-gradient widths do not match the network")
    for l, w in enumerate(net.weights):
        zi, zj = np.where(np.abs(w) < DIV_EPS)
        if zi.size:
            raise ValueError(
                f"weight ({l + 1},{int(zi[0])},{int(zj[0])}) is zero; backward "
                "relay edges carry reciprocal weights"
            )
    state, offsets = _round_state(net, x0, out_grad)
    history = [state.copy()]
    omega = [
        (act.omega0 if act.name == "sine" else 1.0) for act in net.activations
    ]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2 * L):
            prev = state
            state = prev.copy()
            # forward messages: sum_j x[j] * W(i, j), then z = omega * m + bias
            for l in range(1, L + 1):
                seg = slice(offsets[l], offsets[l + 1])
                prev_seg = slice(offsets[l - 1], offsets[l])
                m_fw = net.weights[l - 1] @ prev[prev_seg, 2]
                z = omega[l - 1] * m_fw + prev[seg, 0]
                act = net.activations[l - 1]
                state[seg, 1] = z
                state[seg, 2] = act.fn(z)
            # backward messages: g_U(sum_j g_m(invgz[j] * (1/W)(j, i)))
            for l in range(0, L):
                seg = slice(offsets[l], offsets[l + 1])
                nxt_seg = slice(offsets[l + 1], offsets[l + 2])
                g_m = _recip(prev[nxt_seg, 3][:, None] * _recip(net.weights[l]))
                m_bw = g_m.sum(axis=0)
                inv_gx = _recip(omega[l] * m_bw)
                if l == 0:
                    inv_gz = inv_gx  # identity pre-layer: grad_z0 = grad_x0
                else:
                    act = net.activations[l - 1]
                    inv_gz = inv_gx / act.deriv(prev[seg, 1])
                state[seg, 4] = inv_gx
                state[seg, 3] = inv_gz
            state[np.isnan(state)] = 0.0
            state[np.isinf(state)] = 0.0
            history.append(state.copy())
    # extraction: forward channels directly, gradient channels inverted once
    z_out, x_out, gz_out, gx_out = [], [], [], []
    final = history[-1]
    for l in range(1, L + 1):
        seg = slice(offsets[l], offsets[l + 1])
        z_out.append(final[seg, 1].copy())
        x_out.append(final[seg, 2].copy())
    for l in range(0, L + 1):
        seg = slice(offsets[l], offsets[l + 1])
        for channel, sink in ((3, gz_out), (4, gx_out)):
            vals = final[seg, channel]
            zero = np.where(np.abs(vals) < DIV_EPS)[0]
            if zero.size:
                raise ValueError(
                    f"gradient channel at layer {l}, vertex {int(zero[0])} is zero; "
                    "cannot invert the relay value"
                )
            sink.append(1.0 / vals)
    return SimulationResult(dims=list(dims), history=history, z=z_out, x=x_out,
                            grad_z=gz_out, grad_x=gx_out)


def _recip(a: np.ndarray) -> np.ndarray:
    """Reciprocal with zeros mapped to zero: transient relay channels only."""
    out = np.zeros_like(a)
    mask = np.abs(a) > 0
    out[mask] = 1.0 / a[mask]
    return out


# -- rank correlation ------------------------------------------------------------------

def kendall_tau(pred, true, variant: str = "b") -> float:
    """Concordant-minus-discordant pair statistic.

    variant "a" divides by n(n-1)/2 (no tie handling); variant "b" divides by
    sqrt((n0 - ties_pred)(n0 - ties_true)), the form used when labels can tie.
    """
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    true = np.asarray(true, dtype=np.float64).reshape(-1)
    n = pred.shape[0]
    if n != true.shape[0]:
        raise ShapeError("rankings must have equal length")
    if n < 2:
        raise ValueError("need at least two items to rank")
    iu = np.triu_indices(n, k=1)
    sp = np.sign(pred[:, None] - pred[None, :])[iu]
    st = np.sign(true[:, None] - true[None, :])[iu]
    num = float(np.sum(sp * st))
    n0 = n * (n - 1) / 2.0
    if variant == "a":
        return num / n0
    if variant == "b":
        ties_p = float(np.sum(sp == 0))
        ties_t = float(np.sum(st == 0))
        denom = np.sqrt((n0 - ties_p) * (n0 - ties_t))
        if denom == 0:
            return 0.0
        return num / denom
    raise ValueError(f"unknown kendall tau variant {variant!r}")
