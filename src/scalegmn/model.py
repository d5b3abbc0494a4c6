"""The metanetwork: equivariant message passing over parameter graphs.

Hidden-vertex paths from raw features to output are composed exclusively of
the scale-equivariant/invariant blocks, so every hidden representation keeps
the exact symmetry of the bias it started from; input/output vertices carry
no valid scaling symmetry and use unconstrained MLPs instead.

Each role's functions run only on that role's rows. The roles are hidden,
input and output vertices, forward edges into hidden or output vertices and
backward edges into hidden or input vertices; `GraphTemplate.rows` gives
their row indices once per batch size. A role's rows are gathered, its module
runs on them, and the results go back by one concat and one gather (vertex
updates) or through the scatter-sum into target vertices (messages). Every
block acts row by row, so this routing leaves each row's value, and the
symmetry argument, unchanged. The edit head's per-class maps are routed the
same way, and it decodes the whole batch at once: one stacked weight and
bias tensor per layer, for every net of the batch. No round computes a
state that no head reads: the last round updates the forward edge states
only for the edit head, which decodes them, and never the backward ones.

Positional encodings are fixed across datapoints and enter equivariant
components only through the invariant block (the augmented layers), breaking
the permutation symmetries that input networks do not actually have.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import tensor as T
from .activations import by_name
from .blocks import Canonicalizer, ReScaleEqNet, ScaleEqNet, ScaleInvNet, canon_mode_for
from .ffnn import FfnnParams, LayerChain
from .graph import BatchRows, GraphTemplate, check_direction, template_for
from .nn import MLP, Linear, Module
from .tensor import ShapeError, Tensor


@dataclass
class ScaleGMNConfig:
    """What a config sets. Fixed: K = 1, Hadamard rescale, edge updates, skip
    connections, PEs in messages, LayerNorm and the DeepSets + i/o readout."""

    d_v: int = 32                 # vertex representation width
    d_e: int = 32                 # edge representation width
    d_msg: int = 32               # rescale-product width inside messages
    d_inv: int = 16               # invariant block width in edge updates
    d_readout: int = 32
    pe_dim: int = 8
    n_rounds: int = 2             # T message-passing layers
    mlp_hidden: int = 32
    direction: str = "forward"    # or "bidirectional"
    group_kind: str = "sign"      # positive | sign | none
    # "abs": elementwise |x|, sign-invariant but not injective on orbits; chosen
    # as the default on validation loss (see train.py). "symmetrize":
    # MLP(x) + MLP(-x), the universal sign-invariant form.
    sign_canon: str = "abs"
    head: str = "invariant"       # or "equivariant-edit"
    out_dim: int = 1
    gamma_init: float = 0.01

    def __post_init__(self):
        check_direction(self.direction)  # a misspelt direction would build a forward model

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ScaleGMNConfig":
        known = ScaleGMNConfig.__dataclass_fields__
        unknown = [k for k in d if k not in known]
        if unknown:
            raise ValueError(f"unknown model config key(s) {unknown}; "
                             f"known fields: {sorted(known)}")
        return ScaleGMNConfig(**d)

    @property
    def mode(self) -> str:
        return canon_mode_for(self.group_kind, self.sign_canon)


class _MessageLayer(Module):
    """One round's learnable functions (no weight tying across rounds)."""

    def __init__(self, cfg: ScaleGMNConfig, rng, bidirectional: bool):
        d_v, d_e, d_m, pe, hid = cfg.d_v, cfg.d_e, cfg.d_msg, cfg.pe_dim, cfg.mlp_hidden
        eq = dict(mode=cfg.mode, hidden=hid, layer_norm=True)
        self.rescale_fw = ReScaleEqNet([d_v, d_e], d_m, rng)
        self.msg_fw_hidden = ScaleEqNet([d_v + d_m], [d_v], rng, extra_dim=3 * pe, **eq)
        self.rescale_fw_out = ReScaleEqNet([d_v, d_e], d_m, rng)
        self.msg_fw_out = MLP([d_v + d_m + 3 * pe, hid, d_v], rng, layer_norm=True)
        n_slots = 3 if bidirectional else 2
        self.upd_hidden = ScaleEqNet([n_slots * d_v], [d_v], rng, extra_dim=pe, **eq)
        self.upd_in = MLP([n_slots * d_v + pe, hid, d_v], rng, layer_norm=True)
        self.upd_out = MLP([n_slots * d_v + pe, hid, d_v], rng, layer_norm=True)
        if bidirectional:
            self.rescale_bw = ReScaleEqNet([d_v, d_e], d_m, rng)
            self.msg_bw_hidden = ScaleEqNet([d_v + d_m], [d_v], rng, extra_dim=3 * pe, **eq)
            self.rescale_bw_in = ReScaleEqNet([d_v, d_e], d_m, rng)
            self.msg_bw_in = MLP([d_v + d_m + 3 * pe, hid, d_v], rng, layer_norm=True)
        self.edge_inv = ScaleInvNet([d_v, d_v], cfg.d_inv, rng, **eq)
        self.upd_e = ScaleEqNet([d_e], [d_e], rng, extra_dim=cfg.d_inv + 3 * pe, **eq)


class ScaleGMNModel(Module):
    """Learnable parameters bound to one graph template (architecture)."""

    def __init__(self, config: ScaleGMNConfig, template: GraphTemplate, rng):
        if config.direction != template.direction:
            raise ShapeError(
                f"config direction {config.direction!r} != template {template.direction!r}"
            )
        if config.group_kind != template.group_kind:
            raise ValueError(f"config group kind {config.group_kind!r} != template "
                             f"{template.group_kind!r}")
        self.config = cfg = config
        self.template = template
        d_v, d_e, pe, hid = cfg.d_v, cfg.d_e, cfg.pe_dim, cfg.mlp_hidden
        self.pe_v = Tensor(rng.normal(0, 1.0, size=(template.n_vertex_classes, pe)), name="pe_v")
        self.pe_e = Tensor(rng.normal(0, 1.0, size=(template.n_edge_classes, pe)), name="pe_e")
        eq = dict(mode=cfg.mode, extra_dim=pe, hidden=hid, layer_norm=True)
        self.init_v_hidden = ScaleEqNet([template.dv_raw], [d_v], rng, **eq)
        self.init_v_in = MLP([template.dv_raw + pe, hid, d_v], rng, layer_norm=True)
        self.init_v_out = MLP([template.dv_raw + pe, hid, d_v], rng, layer_norm=True)
        self.init_e = ScaleEqNet([template.de_raw], [d_e], rng, **eq)
        bid = cfg.direction == "bidirectional"
        self.rounds = [_MessageLayer(cfg, rng, bid) for _ in range(cfg.n_rounds)]
        if cfg.head == "invariant":
            self._build_readout(rng)
        elif cfg.head == "equivariant-edit":
            self._build_edit_head(rng)
        else:
            raise ValueError(f"unknown head {cfg.head!r}")

    # -- construction helpers ---------------------------------------------------

    def _build_readout(self, rng):
        cfg, tpl = self.config, self.template
        self.read_canon = Canonicalizer(cfg.mode, cfg.d_v, rng,
                                        d_out=cfg.d_readout, hidden=cfg.mlp_hidden)
        phi_in = self.read_canon.d_out
        self.read_phi = MLP([phi_in, cfg.mlp_hidden, cfg.d_readout], rng, layer_norm=True)
        n_io = int((tpl.is_input | tpl.is_output).sum())
        self.read_final = MLP([cfg.d_readout + n_io * cfg.d_v, cfg.mlp_hidden, cfg.out_dim],
                              rng, layer_norm=True)

    def _build_edit_head(self, rng):
        cfg, tpl = self.config, self.template
        if tpl.kind != "ffnn":
            raise ShapeError("equivariant edit head supports FFNN graphs")
        self.gamma = Tensor(np.array([cfg.gamma_init]), name="gamma")
        self.edit_v: dict[str, Module] = {}
        for name in tpl.vertex_class_names:
            if name.startswith("v:hidden"):
                self.edit_v[name] = Linear(cfg.d_v, 1, rng, bias=False)
            elif name.startswith("v:out"):
                self.edit_v[name] = MLP([cfg.d_v, cfg.mlp_hidden, 1], rng)
            # input vertices carry no bias parameter: no map
        self.edit_e: dict[str, Module] = {}
        for name in tpl.edge_class_names:
            if not name.startswith("bw:"):
                self.edit_e[name] = Linear(cfg.d_e, tpl.de_raw, rng, bias=False)

    # -- batched message passing ---------------------------------------------------

    def embed(self, graphs: list) -> tuple[Tensor, Tensor, BatchRows]:
        """Run init + T rounds; returns (h_v, h_e, role rows of the batch).

        Edge states feed the next round's messages. The last round updates
        only the forward ones, and only for the edit head: the readout pools
        vertex states alone, and no head reads the backward edges."""
        tpl, cfg = self.template, self.config
        batch = len(graphs)
        x_v, x_e, x_bw = tpl.batch(graphs)
        rows = tpl.rows(batch)
        bid = cfg.direction == "bidirectional"
        n_rows = batch * tpl.n_v
        roles = (rows.v_hidden, rows.v_input, rows.v_output)

        pe_v = [T.gather_rows(self.pe_v, rows.v_class[idx]) for idx in roles]
        pe_e_rows = T.gather_rows(self.pe_e, rows.e_class)
        pe_bw_rows = T.gather_rows(self.pe_e, rows.bw_class) if bid else None

        h_v = _regroup([
            self.init_v_hidden.single(T.constant(x_v[rows.v_hidden]), extra=pe_v[0]),
            self.init_v_in(T.concat([T.constant(x_v[rows.v_input]), pe_v[1]], axis=1)),
            self.init_v_out(T.concat([T.constant(x_v[rows.v_output]), pe_v[2]], axis=1)),
        ], rows.v_order)
        h_e = self.init_e.single(T.constant(x_e), extra=pe_e_rows)
        h_e_bw = self.init_e.single(T.constant(x_bw), extra=pe_bw_rows) if bid else None

        src, tgt = rows.src, rows.tgt
        pe_tgt = T.gather_rows(self.pe_v, rows.v_class[tgt])
        pe_src = T.gather_rows(self.pe_v, rows.v_class[src])
        pe_cat = T.concat([pe_tgt, pe_src, pe_e_rows], axis=1)
        pe_fw = [T.gather_rows(pe_cat, idx) for idx in (rows.fw_hidden, rows.fw_output)]
        if bid:
            pe_cat_bw = T.concat([pe_src, pe_tgt, pe_bw_rows], axis=1)
            pe_bw = [T.gather_rows(pe_cat_bw, idx) for idx in (rows.bw_hidden, rows.bw_input)]
        edit = cfg.head == "equivariant-edit"
        for t, layer in enumerate(self.rounds, start=1):
            more = t < len(self.rounds)  # a later round's messages read the edge states
            m_fw = _messages(h_v, h_e, src, tgt, n_rows,
                             (rows.fw_hidden, pe_fw[0], layer.rescale_fw, layer.msg_fw_hidden),
                             (rows.fw_output, pe_fw[1], layer.rescale_fw_out, layer.msg_fw_out))
            parts = [h_v, m_fw]
            if bid:  # backward edges target the forward source
                parts.append(_messages(
                    h_v, h_e_bw, tgt, src, n_rows,
                    (rows.bw_hidden, pe_bw[0], layer.rescale_bw, layer.msg_bw_hidden),
                    (rows.bw_input, pe_bw[1], layer.rescale_bw_in, layer.msg_bw_in)))
            upd = T.concat(parts, axis=1)
            u_hidden, u_in, u_out = (T.gather_rows(upd, idx) for idx in roles)
            h_new = _regroup([
                layer.upd_hidden.single(u_hidden, extra=pe_v[0]),
                layer.upd_in(T.concat([u_in, pe_v[1]], axis=1)),
                layer.upd_out(T.concat([u_out, pe_v[2]], axis=1)),
            ], rows.v_order)
            if more or edit:
                x_t, y_s = T.gather_rows(h_v, tgt), T.gather_rows(h_v, src)
                si = layer.edge_inv([x_t, y_s])
                h_e = T.add(h_e, layer.upd_e.single(h_e, extra=T.concat([si, pe_cat], axis=1)))
                if more and bid:
                    si_b = layer.edge_inv([y_s, x_t])
                    h_e_bw = T.add(h_e_bw, layer.upd_e.single(
                        h_e_bw, extra=T.concat([si_b, pe_cat_bw], axis=1)))
            h_v = T.add(h_v, h_new)
        return h_v, h_e, rows

    # -- heads -----------------------------------------------------------------------

    def readout(self, h_v: Tensor, rows: BatchRows, batch: int) -> Tensor:
        """DeepSets pooling of the hidden vertices, concatenated with every
        input and output vertex's state, then an MLP: [batch, out_dim]."""
        tpl = self.template
        hidden = T.gather_rows(h_v, rows.v_hidden)
        per_vertex = self.read_phi(self.read_canon(hidden))
        pooled = T.scatter_sum(per_vertex, rows.v_hidden // tpl.n_v, batch)
        io_idx = np.where(tpl.is_input | tpl.is_output)[0]
        io_rows = (np.arange(batch)[:, None] * tpl.n_v + io_idx[None, :]).reshape(-1)
        io = T.reshape(T.gather_rows(h_v, io_rows), (batch, io_idx.size * self.config.d_v))
        return self.read_final(T.concat([pooled, io], axis=1))

    def forward(self, graphs: list) -> Tensor:
        """Invariant-head forward: [batch, out_dim] embedding/prediction."""
        if self.config.head != "invariant":
            raise ShapeError("forward() needs the invariant head; use edit()")
        h_v, _, rows = self.embed(graphs)
        return self.readout(h_v, rows, len(graphs))

    def __call__(self, graphs: list) -> Tensor:
        return self.forward(graphs)

    def edit(self, graphs: list, nets) -> SimpleNamespace:
        """Equivariant edit of the whole batch: theta' = theta + gamma * decode(h).

        `nets` is a list of nets or a stack of them, one per graph. Returns
        one layer chain of stacked Tensors, weights [B, out, in] and biases
        [B, 1, out], that `ffnn_forward_taped` evaluates for all nets at
        once, so a functional loss on the edited networks can backpropagate
        into the metanetwork.
        """
        cfg, tpl = self.config, self.template
        if cfg.head != "equivariant-edit":
            raise ShapeError("edit() needs the equivariant-edit head")
        theta = nets if isinstance(nets, LayerChain) else LayerChain.stack(nets)
        if theta.size != len(graphs):
            raise ShapeError(f"edit() needs one net per graph, got {theta.size} nets "
                             f"for {len(graphs)} graphs")
        h_v, h_e, rows = self.embed(graphs)
        batch, dims = len(graphs), tpl.dims
        # delta_b holds each net's non-input vertex rows (inputs carry no
        # bias), delta_w its forward edge rows, both in flat (layer) order.
        delta_b = T.reshape(_per_class(h_v, self.edit_v, tpl.vertex_class_names,
                                       rows.v_class_rows), (batch, tpl.n_v - dims[0]))
        delta_w = T.reshape(_per_class(h_e, self.edit_e, tpl.edge_class_names,
                                       rows.e_class_rows), (batch, tpl.n_e))
        weights, biases = [], []
        w_off = b_off = 0
        for l, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            dw = T.reshape(T.narrow(delta_w, 1, w_off, d_out * d_in), (batch, d_out, d_in))
            db = T.reshape(T.narrow(delta_b, 1, b_off, d_out), (batch, 1, d_out))
            weights.append(T.add(T.constant(theta.weights[l]), T.mul(self.gamma, dw)))
            biases.append(T.add(T.constant(theta.biases[l][:, None, :]), T.mul(self.gamma, db)))
            w_off += d_out * d_in
            b_off += d_out
        return SimpleNamespace(weights=weights, biases=biases,
                               activations=list(tpl.activations))

    def edit_params(self, graphs: list, nets) -> FfnnParams:
        """Edit head as a plain parameter map (numpy in, numpy out): the
        edited nets as one stack, whose items are the nets in batch order."""
        e = self.edit(graphs, nets)
        return FfnnParams([w.data for w in e.weights], [v.data[:, 0] for v in e.biases],
                          list(e.activations))


def _regroup(parts: list[Tensor], order: np.ndarray) -> Tensor:
    """Row blocks computed role by role, gathered back into flat row order."""
    return T.gather_rows(T.concat(parts, axis=0), order)


def _messages(h_v, h_e, src, tgt, n_rows, to_hidden, to_io) -> Tensor:
    """Messages along edges, summed into their target vertex rows.

    `src`/`tgt` give each edge row's source and target vertex rows. Each of
    `to_hidden` and `to_io` is (edge rows, their positional rows, rescale
    net, message net) for the edges into one target role: the hidden-target
    message is a ScaleEqNet that takes the positional rows as its
    non-symmetric input, the i/o-target one an MLP over all inputs.
    """
    def inputs(idx, rescale):
        x_t = T.gather_rows(h_v, tgt[idx])
        return [x_t, rescale([T.gather_rows(h_v, src[idx]), T.gather_rows(h_e, idx)])]

    hid_rows, hid_pe, hid_rescale, hid_msg = to_hidden
    io_rows, io_pe, io_rescale, io_msg = to_io
    m_hidden = hid_msg.single(T.concat(inputs(hid_rows, hid_rescale), axis=1), extra=hid_pe)
    m_io = io_msg(T.concat(inputs(io_rows, io_rescale) + [io_pe], axis=1))
    return T.scatter_sum(T.concat([m_hidden, m_io], axis=0),
                         np.concatenate([tgt[hid_rows], tgt[io_rows]]), n_rows)


def _per_class(h: Tensor, maps: dict, names: list[str], class_rows: tuple) -> Tensor:
    """Each class's map on that class's rows; the rows come back in flat order."""
    idx = [class_rows[names.index(name)] for name in maps]
    parts = [mod(T.gather_rows(h, rows)) for mod, rows in zip(maps.values(), idx)]
    return _regroup(parts, np.argsort(np.concatenate(idx)))


# -- template (re)construction ---------------------------------------------------------

def template_from_spec(spec: dict) -> GraphTemplate:
    """The template a serialized description names."""
    kind = spec["kind"]
    if kind not in ("ffnn", "cnn"):
        raise ValueError(f"unknown template kind {kind!r}")
    acts = [by_name(n, spec.get("omega0", 0.0)) for n in spec["activations"]]
    kernel_hw = spec["kernel_hw"] if kind == "cnn" else (1, 1)
    return template_for(kind, spec["dims"], acts, spec["direction"], kernel_hw)


def template_spec(tpl: GraphTemplate) -> dict:
    omega0 = 0.0
    for a in tpl.activations:
        if a.name == "sine":
            omega0 = a.omega0
    spec = {
        "kind": tpl.kind,
        "dims": list(tpl.dims),
        "direction": tpl.direction,
        "activations": [a.name for a in tpl.activations],
        "omega0": omega0,
    }
    if tpl.kind == "cnn":
        spec["kernel_hw"] = list(tpl.kernel_hw)
    return spec


# -- checkpoints --------------------------------------------------------------------------

# params.bin holds the parameters exactly (little-endian float64), so a
# reloaded checkpoint is the model that selection picked. A manifest that
# records no dtype comes from before the dtype was recorded, when the
# parameters were rounded to float32; it is read as such.
CHECKPOINT_DTYPE = "<f8"
UNRECORDED_DTYPE = "<f4"


def save_checkpoint(model: ScaleGMNModel, path) -> None:
    """Manifest (config + template + tensor index + dtype) plus the flat
    parameters in `CHECKPOINT_DTYPE`."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    named = sorted(model.named_parameters(), key=lambda kv: kv[0])
    index, offset = [], 0
    blobs = []
    for name, p in named:
        index.append({"name": name, "shape": list(p.shape), "offset": offset})
        blobs.append(np.asarray(p.data, dtype=CHECKPOINT_DTYPE).reshape(-1))
        offset += p.size
    manifest = {
        "config": model.config.to_dict(),
        "template": template_spec(model.template),
        "dtype": CHECKPOINT_DTYPE,
        "tensors": index,
    }
    (path / "checkpoint.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    np.concatenate(blobs).tofile(path / "params.bin")


def read_manifest(path) -> tuple[ScaleGMNConfig, dict]:
    """A checkpoint's config and manifest; a config key that `ScaleGMNConfig`
    lacks (a switch of an older architecture) fails naming the file."""
    file = Path(path) / "checkpoint.json"
    manifest = json.loads(file.read_text(encoding="utf-8"))
    try:
        return ScaleGMNConfig.from_dict(manifest["config"]), manifest
    except ValueError as err:
        raise ValueError(f"{file}: {err}") from None


def check_tensors(source, wanted: dict, found: dict) -> None:
    """Raise, naming `source`, unless `found` maps wanted's names to its shapes."""
    if found != wanted:
        wrong = sorted(n for n in found.keys() & wanted.keys() if found[n] != wanted[n])
        raise ValueError(f"{source}: tensors do not match the model; missing "
                         f"{sorted(wanted.keys() - found.keys())}, unexpected "
                         f"{sorted(found.keys() - wanted.keys())}, wrong shape {wrong}")


def read_params(path, manifest: dict, wanted: dict) -> dict[str, np.ndarray]:
    """`params.bin`'s tensors by name, as float64. The manifest must list
    exactly `wanted`'s names and shapes, record a known dtype and index a
    file of its size; otherwise this fails naming the offending file."""
    path = Path(path)
    listed = {e["name"]: tuple(e["shape"]) for e in manifest["tensors"]}
    check_tensors(path / "checkpoint.json", wanted, listed)
    dtype = manifest.get("dtype", UNRECORDED_DTYPE)
    if dtype not in (CHECKPOINT_DTYPE, UNRECORDED_DTYPE):
        raise ValueError(f"{path / 'checkpoint.json'}: unknown dtype {dtype!r}; expected "
                         f"{CHECKPOINT_DTYPE!r} (or {UNRECORDED_DTYPE!r}, read when none is "
                         f"recorded)")
    blob = path / "params.bin"
    raw = blob.read_bytes()
    expected = sum(int(np.prod(s)) for s in listed.values())
    found, stray = divmod(len(raw), np.dtype(dtype).itemsize)
    if found != expected or stray:
        raise ValueError(f"{blob}: expected {expected} {dtype} values, found {found}"
                         + (f" and {stray} stray bytes" if stray else ""))
    flat = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    return {e["name"]: flat[e["offset"] : e["offset"] + int(np.prod(e["shape"]))]
            .reshape(e["shape"]) for e in manifest["tensors"]}


def load_checkpoint(path) -> ScaleGMNModel:
    config, manifest = read_manifest(path)
    model = ScaleGMNModel(config, template_from_spec(manifest["template"]),
                          np.random.default_rng(0))
    params = dict(model.named_parameters())
    saved = read_params(path, manifest, {name: p.shape for name, p in params.items()})
    for name, p in params.items():
        p.assign(saved[name])
    return model
