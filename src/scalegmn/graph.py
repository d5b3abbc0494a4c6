"""Parameter graphs: one vertex per neuron/channel, one edge per weight.

Vertex features are biases (inputs get the constant 1), edge features are
weights (CNN kernels are flattened with top-left anchored zero-padding to the
maximum kernel extent). Sine networks are phase-canonicalized before any
feature is read, so every downstream consumer sees biases in (-pi/2, pi/2].

Positional-encoding sharing classes break exactly the symmetries the input
networks do not have: i/o vertices get individual classes, hidden vertices
share one class per layer, and edge classes follow the same three-case rule
(per source input neuron / per hidden layer pair / per target output neuron).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activations import (
    KIND_NONE,
    KIND_POSITIVE,
    KIND_SIGN,
    ActivationDescriptor,
    identity,
)
from .cnn import CnnParams
from .ffnn import FfnnParams, shift_sine_biases
from .tensor import ShapeError

BW_WEIGHT_EPS = 1e-12


@dataclass
class ParamGraph:
    """A built graph: structure arrays plus raw vertex/edge features."""

    dims: list[int]                      # vertices per layer, input first
    layer_of: np.ndarray                 # [V]
    index_in_layer: np.ndarray           # [V]
    x_v: np.ndarray                      # [V, dv_raw]
    fw_src: np.ndarray                   # [E] source vertex ids (previous layer)
    fw_tgt: np.ndarray                   # [E] target vertex ids
    x_e: np.ndarray                      # [E, de_raw]
    activations: list[ActivationDescriptor]  # per layer 1..L
    kind: str = "ffnn"
    direction: str = "forward"
    x_e_bw: np.ndarray | None = None     # backward features, aligned with fw edges
    vertex_class: np.ndarray | None = None
    edge_class: np.ndarray | None = None
    bw_edge_class: np.ndarray | None = None
    class_names: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return int(self.layer_of.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.fw_src.shape[0])

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def group_kind(self) -> str:
        kinds = {a.kind for a in self.activations[:-1]} or {KIND_NONE}
        if len(kinds) > 1:
            return "mixed"
        return next(iter(kinds))

    def dump(self) -> str:
        """Line-oriented text for golden-file comparisons."""
        lines = []
        for v in range(self.n_vertices):
            feat = " ".join(f"{x:.17g}" for x in self.x_v[v])
            lines.append(f"vertex {self.layer_of[v]} {self.index_in_layer[v]} {feat}")
        for e in range(self.n_edges):
            feat = " ".join(f"{x:.17g}" for x in self.x_e[e])
            lines.append(f"edge fw {self.fw_tgt[e]} {self.fw_src[e]} {feat}")
        if self.x_e_bw is not None:
            for e in range(self.n_edges):
                feat = " ".join(f"{x:.17g}" for x in self.x_e_bw[e])
                lines.append(f"edge bw {self.fw_src[e]} {self.fw_tgt[e]} {feat}")
        return "\n".join(lines) + "\n"


def _layer_arrays(dims):
    layer_of = np.concatenate([np.full(d, l, dtype=np.intp) for l, d in enumerate(dims)])
    index_in_layer = np.concatenate([np.arange(d, dtype=np.intp) for d in dims])
    return layer_of, index_in_layer


def _edge_lists(dims):
    """Edges ordered by layer, then target neuron, then source neuron."""
    src, tgt = [], []
    offsets = np.concatenate([[0], np.cumsum(dims)])
    for l in range(1, len(dims)):
        for i in range(dims[l]):
            for j in range(dims[l - 1]):
                tgt.append(offsets[l] + i)
                src.append(offsets[l - 1] + j)
    return np.asarray(src, dtype=np.intp), np.asarray(tgt, dtype=np.intp)


def build_graph(net: FfnnParams, direction: str = "forward") -> ParamGraph:
    """FFNN to graph: bias vertex features, weight edge features.

    Sine layers are bias-shifted first so phases are canonical. With
    direction="bidirectional" the backward features follow the group kind:
    reciprocal weights for positive scaling, the weights themselves for sign.
    """
    if any(a.name == "sine" for a in net.activations):
        net = shift_sine_biases(net)
    dims = net.dims
    layer_of, index_in_layer = _layer_arrays(dims)
    x_v = np.ones((sum(dims), 1))
    pos = dims[0]
    for b in net.biases:
        x_v[pos : pos + b.shape[0], 0] = b
        pos += b.shape[0]
    fw_src, fw_tgt = _edge_lists(dims)
    x_e = np.concatenate([w.reshape(-1) for w in net.weights])[:, None]
    graph = ParamGraph(
        dims=list(dims),
        layer_of=layer_of,
        index_in_layer=index_in_layer,
        x_v=x_v,
        fw_src=fw_src,
        fw_tgt=fw_tgt,
        x_e=x_e,
        activations=list(net.activations),
        kind="ffnn",
        direction=direction,
    )
    if direction == "bidirectional":
        add_backward_edges(graph, graph.group_kind)
    assign_pe(graph)
    return graph


def build_graph_cnn(net: CnnParams, direction: str = "forward",
                    max_hw: tuple[int, int] | None = None) -> ParamGraph:
    """CNN to graph: one vertex per i/o channel plus the head outputs.

    Edge features are kernels flattened to h_max*w_max with top-left anchored
    zero padding; head entries sit in slot 0 of an otherwise-zero feature.
    """
    sizes = [k.shape[2:] for k in net.kernels]
    h_max = max(s[0] for s in sizes)
    w_max = max(s[1] for s in sizes)
    if max_hw is not None:
        if h_max > max_hw[0] or w_max > max_hw[1]:
            raise ShapeError(f"kernel {h_max}x{w_max} exceeds declared maxima {max_hw}")
        h_max, w_max = max_hw
    de = h_max * w_max
    dims = net.channels + [net.head_weight.shape[0]]
    layer_of, index_in_layer = _layer_arrays(dims)
    x_v = np.ones((sum(dims), 1))
    pos = dims[0]
    for b in net.conv_biases:
        x_v[pos : pos + b.shape[0], 0] = b
        pos += b.shape[0]
    x_v[pos : pos + net.head_bias.shape[0], 0] = net.head_bias
    fw_src, fw_tgt = _edge_lists(dims)
    feats = []
    for k in net.kernels:
        c_out, c_in, kh, kw = k.shape
        padded = np.zeros((c_out, c_in, h_max, w_max))
        padded[:, :, :kh, :kw] = k  # top-left anchor
        feats.append(padded.reshape(c_out * c_in, de))
    feats.append(
        np.concatenate(
            [net.head_weight.reshape(-1, 1), np.zeros((net.head_weight.size, de - 1))],
            axis=1,
        )
    )
    x_e = np.concatenate(feats, axis=0)
    acts = list(net.activations) + [identity()]
    graph = ParamGraph(
        dims=dims,
        layer_of=layer_of,
        index_in_layer=index_in_layer,
        x_v=x_v,
        fw_src=fw_src,
        fw_tgt=fw_tgt,
        x_e=x_e,
        activations=acts,
        kind="cnn",
        direction=direction,
    )
    if direction == "bidirectional":
        add_backward_edges(graph, graph.group_kind)
    assign_pe(graph)
    return graph


def add_backward_edges(graph: ParamGraph, group_kind: str) -> ParamGraph:
    """Materialize backward features mirroring every forward edge.

    Positive scaling inverts features elementwise (a zero weight would make
    the backward symmetry undefined, hence the error); the sign group keeps
    them as-is since 1/q = q for q = ±1.
    """
    if group_kind == KIND_POSITIVE:
        bad = np.where(np.any(np.abs(graph.x_e) < BW_WEIGHT_EPS, axis=1))[0]
        if bad.size:
            pairs = [(int(graph.fw_tgt[e]), int(graph.fw_src[e])) for e in bad[:8]]
            raise ValueError(
                f"backward features need |weight| >= {BW_WEIGHT_EPS}; "
                f"offending (target, source) edges: {pairs}"
                + ("..." if bad.size > 8 else "")
            )
        graph.x_e_bw = 1.0 / graph.x_e
    elif group_kind in (KIND_SIGN, KIND_NONE):
        graph.x_e_bw = graph.x_e.copy()
    else:
        raise ValueError(f"unknown group kind {group_kind!r}")
    graph.direction = "bidirectional"
    if graph.edge_class is not None:
        assign_pe(graph)  # refresh backward classes
    return graph


def assign_pe(graph: ParamGraph) -> None:
    """Assign sharing classes per the i/o-individual, hidden-shared rule."""
    L = graph.n_layers
    v_names: list[str] = []
    v_ids: dict[str, int] = {}

    def vclass(name: str) -> int:
        if name not in v_ids:
            v_ids[name] = len(v_names)
            v_names.append(name)
        return v_ids[name]

    vertex_class = np.zeros(graph.n_vertices, dtype=np.intp)
    for v in range(graph.n_vertices):
        l, i = int(graph.layer_of[v]), int(graph.index_in_layer[v])
        if l == 0:
            vertex_class[v] = vclass(f"v:in:{i}")
        elif l == L:
            vertex_class[v] = vclass(f"v:out:{i}")
        else:
            vertex_class[v] = vclass(f"v:hidden:{l}")

    e_names: list[str] = []
    e_ids: dict[str, int] = {}

    def eclass(name: str) -> int:
        if name not in e_ids:
            e_ids[name] = len(e_names)
            e_names.append(name)
        return e_ids[name]

    def edge_name(l_tgt: int, tgt_idx: int, src_idx: int) -> str:
        if L == 1:
            return "e:in-out"  # source-shared and target-shared collapse together
        if l_tgt == 1:
            return f"e:from-in:{src_idx}"
        if l_tgt == L:
            return f"e:to-out:{tgt_idx}"
        return f"e:hidden:{l_tgt}"

    edge_class = np.zeros(graph.n_edges, dtype=np.intp)
    for e in range(graph.n_edges):
        t, s = int(graph.fw_tgt[e]), int(graph.fw_src[e])
        edge_class[e] = eclass(
            edge_name(int(graph.layer_of[t]), int(graph.index_in_layer[t]),
                      int(graph.index_in_layer[s]))
        )
    bw_edge_class = None
    if graph.x_e_bw is not None:
        bw_edge_class = np.zeros(graph.n_edges, dtype=np.intp)
        for e in range(graph.n_edges):
            t, s = int(graph.fw_tgt[e]), int(graph.fw_src[e])
            bw_edge_class[e] = eclass(
                "bw:" + edge_name(int(graph.layer_of[t]), int(graph.index_in_layer[t]),
                                  int(graph.index_in_layer[s]))
            )
    graph.vertex_class = vertex_class
    graph.edge_class = edge_class
    graph.bw_edge_class = bw_edge_class
    graph.class_names = {"vertex": v_names, "edge": e_names}


@dataclass(frozen=True)
class BatchRows:
    """Flat row indices into the stacked arrays of a batch, by role.

    Vertex rows index [B*V] arrays and edge rows index [B*E] arrays; every
    index array runs graph by graph, in the template's row order. Backward
    edge e mirrors forward edge e, so it targets vertex ``src[e]``.
    """

    src: np.ndarray          # [B*E] source vertex row of each forward edge
    tgt: np.ndarray          # [B*E] target vertex row of each forward edge
    v_hidden: np.ndarray
    v_input: np.ndarray
    v_output: np.ndarray
    v_order: np.ndarray      # gathers concat(hidden, input, output) rows into flat order
    fw_hidden: np.ndarray    # forward edges into hidden vertices
    fw_output: np.ndarray    # forward edges into output vertices
    bw_hidden: np.ndarray    # backward edges into hidden vertices
    bw_input: np.ndarray     # backward edges into input vertices
    v_class: np.ndarray      # [B*V] sharing class of each vertex row
    e_class: np.ndarray      # [B*E] sharing class of each forward edge row
    bw_class: np.ndarray | None
    v_class_rows: tuple      # vertex rows of each vertex class
    e_class_rows: tuple      # forward edge rows of each edge class (empty for bw:)


class GraphTemplate:
    """Shared structure for a batch of same-architecture graphs.

    Precomputes flattened gather/scatter indices, per role and per batch
    size, so a whole batch runs as a handful of 2-D tensor ops.
    """

    def __init__(self, graph: ParamGraph):
        if graph.vertex_class is None:
            assign_pe(graph)
        self.dims = list(graph.dims)
        self.kind = graph.kind
        self.direction = graph.direction
        self.activations = list(graph.activations)
        self.group_kind = graph.group_kind
        self.layer_of = graph.layer_of.copy()
        self.fw_src = graph.fw_src.copy()
        self.fw_tgt = graph.fw_tgt.copy()
        self.vertex_class = graph.vertex_class.copy()
        self.edge_class = graph.edge_class.copy()
        self.bw_edge_class = None if graph.bw_edge_class is None else graph.bw_edge_class.copy()
        self.vertex_class_names = list(graph.class_names["vertex"])
        self.edge_class_names = list(graph.class_names["edge"])
        self.n_vertex_classes = len(self.vertex_class_names)
        self.n_edge_classes = len(self.edge_class_names)
        self.dv_raw = graph.x_v.shape[1]
        self.de_raw = graph.x_e.shape[1]
        self.n_v = graph.n_vertices
        self.n_e = graph.n_edges
        L = graph.n_layers
        self.is_input = graph.layer_of == 0
        self.is_output = graph.layer_of == L
        self.is_hidden = ~(self.is_input | self.is_output)
        tgt_layer = graph.layer_of[self.fw_tgt]
        src_layer = graph.layer_of[self.fw_src]
        self.fw_tgt_is_output = tgt_layer == L
        self.bw_tgt_is_input = src_layer == 0  # backward edges target the fw source
        self._rows: dict[int, BatchRows] = {}

    def compatible(self, graph: ParamGraph) -> bool:
        return (
            graph.dims == self.dims
            and graph.kind == self.kind
            and [a.name for a in graph.activations] == [a.name for a in self.activations]
        )

    def batch(self, graphs: list[ParamGraph]):
        """Stack raw features: x_v [B*V, dv], x_e [B*E, de], x_e_bw or None."""
        for g in graphs:
            if not self.compatible(g):
                raise ShapeError("graph does not match template")
        x_v = np.concatenate([g.x_v for g in graphs], axis=0)
        x_e = np.concatenate([g.x_e for g in graphs], axis=0)
        x_bw = None
        if self.direction == "bidirectional":
            missing = [g for g in graphs if g.x_e_bw is None]
            if missing:
                raise ShapeError("bidirectional template needs backward features")
            x_bw = np.concatenate([g.x_e_bw for g in graphs], axis=0)
        return x_v, x_e, x_bw

    def flat_indices(self, batch_size: int):
        """(src, tgt) vertex row indices for the batched edge arrays."""
        return (_tile_rows(self.fw_src, self.n_v, batch_size),
                _tile_rows(self.fw_tgt, self.n_v, batch_size))

    def rows(self, batch_size: int) -> BatchRows:
        """Role and class row indices of a batch, computed once per batch size."""
        if batch_size not in self._rows:
            self._rows[batch_size] = self._build_rows(batch_size)
        return self._rows[batch_size]

    def _build_rows(self, batch: int) -> BatchRows:
        def vertices(mask):
            return _tile_rows(np.flatnonzero(mask), self.n_v, batch)

        def edges(mask):
            return _tile_rows(np.flatnonzero(mask), self.n_e, batch)

        src, tgt = self.flat_indices(batch)
        v_hidden, v_input, v_output = (vertices(self.is_hidden), vertices(self.is_input),
                                       vertices(self.is_output))
        bw_class = None if self.bw_edge_class is None else np.tile(self.bw_edge_class, batch)
        return BatchRows(
            src=src,
            tgt=tgt,
            v_hidden=v_hidden,
            v_input=v_input,
            v_output=v_output,
            v_order=np.argsort(np.concatenate([v_hidden, v_input, v_output])),
            fw_hidden=edges(~self.fw_tgt_is_output),
            fw_output=edges(self.fw_tgt_is_output),
            bw_hidden=edges(~self.bw_tgt_is_input),
            bw_input=edges(self.bw_tgt_is_input),
            v_class=np.tile(self.vertex_class, batch),
            e_class=np.tile(self.edge_class, batch),
            bw_class=bw_class,
            v_class_rows=tuple(vertices(self.vertex_class == c)
                               for c in range(self.n_vertex_classes)),
            e_class_rows=tuple(edges(self.edge_class == c)
                               for c in range(self.n_edge_classes)),
        )


def _tile_rows(idx: np.ndarray, per_graph: int, batch: int) -> np.ndarray:
    """Per-graph row indices repeated for each graph of a stacked batch."""
    offs = np.arange(batch)[:, None] * per_graph
    return (offs + idx[None, :]).reshape(-1)
