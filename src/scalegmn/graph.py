"""Parameter graphs: one vertex per neuron/channel, one edge per weight.

The structure of a graph depends only on the architecture, so a
`GraphTemplate` owns it: vertex layers, edge lists, sharing classes and role
masks are computed once per architecture (`template_for` memoizes them), and
a `ParamGraph` holds its template plus one network's features. The builders
take a net or a stack of nets (`ffnn.LayerChain`); a stack's features are
read in one numpy pass and come back as one graph per net.

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

from dataclasses import dataclass, fields

import numpy as np

from .activations import ActivationDescriptor, hidden_group, hidden_kind, identity
from .cnn import CnnParams
from .config import Key, check
from .ffnn import FfnnParams, shift_sine_biases
from .tensor import DIV_EPS, RowIndex, ShapeError

# Forward edges only, or forward plus reciprocal backward edges.
DIRECTIONS = ("forward", "bidirectional")


@dataclass
class ParamGraph:
    """One network's raw features on its architecture's template."""

    template: GraphTemplate
    x_v: np.ndarray                      # [V, dv_raw]
    x_e: np.ndarray                      # [E, de_raw]
    x_e_bw: np.ndarray | None = None     # backward features, aligned with fw edges

    def dump(self) -> str:
        """Line-oriented text for golden-file comparisons."""
        t = self.template
        lines = [f"vertex {l} {i} {_fmt(x)}"
                 for l, i, x in zip(t.layer_of, t.index_in_layer, self.x_v)]
        lines += [f"edge fw {tg} {s} {_fmt(x)}" for tg, s, x in zip(t.fw_tgt, t.fw_src, self.x_e)]
        if self.x_e_bw is not None:
            lines += [f"edge bw {s} {tg} {_fmt(x)}"
                      for tg, s, x in zip(t.fw_tgt, t.fw_src, self.x_e_bw)]
        return "\n".join(lines) + "\n"


def _fmt(row) -> str:
    return " ".join(f"{x:.17g}" for x in row)


def build_graph(net: FfnnParams, direction: str = "forward"):
    """FFNN to graph: bias vertex features, weight edge features.

    Sine layers are bias-shifted first so phases are canonical. With
    direction="bidirectional" the backward features follow the hidden layers'
    group: reciprocal weights if its record says so, else the weights.
    A net gives its `ParamGraph`; a stack of nets gives one graph per net,
    all read in one pass.
    """
    if any(a.name == "sine" for a in net.activations):
        net = shift_sine_biases(net)
    return _chain_graph(net, template_of(net, direction))


def graph_for(net, direction: str = "forward"):
    """The graph of an FFNN or a CNN (a list of graphs for a stack)."""
    if isinstance(net, CnnParams):
        return build_graph_cnn(net, direction=direction)
    return build_graph(net, direction=direction)


def build_graph_cnn(net: CnnParams, direction: str = "forward"):
    """CNN to graph: one vertex per i/o channel plus the head outputs.

    Edge features are kernels flattened to the net's largest extent h_max*w_max
    with top-left anchored zero padding; head entries sit in slot 0 of an
    otherwise-zero feature. A stack of nets gives one graph per net.
    """
    return _chain_graph(net, template_of(net, direction))


def template_of(net, direction: str = "forward") -> GraphTemplate:
    """The template of a net's (or a stack's) architecture: an FFNN's is its
    activations with 1x1 kernels; a CNN's is its activations plus the
    identity head, with kernels padded to the net's largest extent."""
    if not isinstance(net, CnnParams):
        return template_for("ffnn", net.dims, net.activations, direction)
    hw = tuple(map(max, zip(*(k.shape[-2:] for k in net.weights[:-1]))))
    return template_for("cnn", net.dims, list(net.activations) + [identity()], direction, hw)


def _chain_graph(net, template: GraphTemplate):
    """Features of a layer chain: biases on the non-input vertices (inputs get
    the constant 1), each weight [out, in, *kernel] as one edge row per
    (out, in) pair, zero-padded top-left to `template.kernel_hw`. A stack's
    features are [K, rows, width] arrays and each graph holds its net's rows."""
    kernel_hw, stack = template.kernel_hw, net.as_stack()
    x_v = np.ones((stack.size, template.n_v, 1))
    x_v[:, net.dims[0]:, 0] = np.concatenate(stack.biases, axis=1)
    x_e = np.concatenate([_edge_rows(w, kernel_hw) for w in stack.weights], axis=1)
    x_bw = (_backward_features(template, stack.weights, x_e)
            if template.direction == "bidirectional" else [None] * stack.size)
    graphs = [ParamGraph(template, *rows) for rows in zip(x_v, x_e, x_bw)]
    return graphs if net.stacked else graphs[0]


def _edge_rows(w: np.ndarray, kernel_hw: tuple[int, int]) -> np.ndarray:
    """Stacked weights [K, out, in, *kernel] to [K, out*in, kh*kw] rows; a
    kernel smaller than `kernel_hw` (an FFNN weight or the CNN head is 1x1)
    is padded top-left."""
    k = w.reshape(w.shape[:3] + (w.shape[3:] or (1, 1)))
    if k.shape[3:] != kernel_hw:
        padded = np.zeros(k.shape[:3] + kernel_hw)
        padded[..., :k.shape[3], :k.shape[4]] = k
        k = padded
    return k.reshape(k.shape[0], k.shape[1] * k.shape[2], -1)


def _backward_features(template: GraphTemplate, weights, x_e: np.ndarray) -> np.ndarray:
    """Backward features mirroring the forward edge rows `x_e` [K, E, width]
    of the stacked `weights`.

    The hidden layers' group decides: one whose members are self-inverse
    keeps the weights; a `reciprocal` one inverts them (a zero weight would
    make the backward symmetry undefined, hence the error, which names the
    first offending net of the stack and its edges). Entries that pad a
    kernel to `template.kernel_hw` hold no weight; every orbit element maps
    them to zero, and they stay zero.
    """
    if not hidden_group(template.activations[:-1], "a bidirectional graph").reciprocal:
        return x_e.copy()
    hw = template.kernel_hw
    slots = None  # every entry holds a weight unless some kernel was padded
    if any((w.shape[3:] or (1, 1)) != hw for w in weights):
        slots = np.concatenate([_edge_rows(np.ones((1,) + w.shape[1:]), hw) > 0
                                for w in weights], axis=1)
    tiny = np.abs(x_e) < DIV_EPS
    bad = np.any(tiny if slots is None else tiny & slots, axis=2)
    if bad.any():
        nets = np.flatnonzero(bad.any(axis=1))
        edges = np.flatnonzero(bad[nets[0]])
        pairs = [(int(template.fw_tgt[e]), int(template.fw_src[e])) for e in edges[:8]]
        raise ValueError(
            f"backward features need |weight| >= {DIV_EPS}; net {nets[0]} of {len(x_e)}, "
            f"offending (target, source) edges: {pairs}" + ("..." if edges.size > 8 else "")
            + (f"; {nets.size - 1} more net(s) offend" if nets.size > 1 else ""))
    if slots is None:
        return 1.0 / x_e
    return np.divide(1.0, x_e, out=np.zeros_like(x_e), where=slots)


@dataclass(frozen=True)
class EdgeRoute:
    """One direction's edges, by the role of the vertex each one targets:
    hidden first, then input or output. Each part holds its edge rows and
    the vertex rows those edges leave and enter; `into` is the parts'
    target rows in part order, where their messages are summed."""

    edges: tuple            # (edges into hidden vertices, edges into i/o vertices)
    sources: tuple          # the source vertex row of each part's edges
    targets: tuple          # the target vertex row of each part's edges
    into: np.ndarray        # concat(targets)


@dataclass(frozen=True)
class BatchRows:
    """Every row index a batch's model pass gathers or scatters with, by role.

    Vertex rows index [B*V] arrays and edge rows index [B*E] arrays; every
    index array runs graph by graph, in the template's row order. Backward
    edge e mirrors forward edge e, so it targets vertex ``src[e]``. Each
    array is a read-only ``tensor.RowIndex``: its bounds are read once, when
    `GraphTemplate.rows` builds it, and its segment-sum spreads are kept, so
    a gather or scatter with it makes no pass over the index.
    """

    src: np.ndarray          # [B*E] source vertex row of each forward edge
    tgt: np.ndarray          # [B*E] target vertex row of each forward edge
    src_class: np.ndarray    # [B*E] sharing class of each edge's source vertex
    tgt_class: np.ndarray    # [B*E] sharing class of each edge's target vertex
    v_roles: tuple           # (hidden, input, output) vertex rows
    v_role_class: tuple      # the sharing class of each role's rows
    v_order: np.ndarray      # gathers concat(hidden, input, output) rows into flat order
    fw: EdgeRoute            # forward edges; they target `tgt`
    bw: EdgeRoute | None     # backward edges; they target `src`
    e_class: np.ndarray      # [B*E] sharing class of each forward edge row
    bw_class: np.ndarray | None
    hidden_graph: np.ndarray  # the batch position of each hidden vertex row
    v_io: np.ndarray         # input and output vertex rows
    bias_class_rows: tuple   # vertex rows of each class but the inputs' (those carry no bias)
    bias_order: np.ndarray   # gathers concat(bias_class_rows) into flat order
    e_class_rows: tuple      # forward edge rows of each edge class (empty for bw:)
    e_order: np.ndarray      # gathers concat(e_class_rows) into flat order


class GraphTemplate:
    """The structure shared by every graph of one architecture.

    Holds the vertex layers, the forward edge lists, the sharing classes and
    the role masks, and precomputes flattened gather/scatter indices per
    batch size, so a whole batch runs as a handful of 2-D tensor ops. Build
    it through `template_for`, so each architecture has one template.
    `kernel_hw` is the padded (h, w) extent of a CNN's edge features; an
    FFNN's is (1, 1).
    """

    def __init__(self, kind: str, dims, activations: list[ActivationDescriptor],
                 direction: str, kernel_hw: tuple[int, int] = (1, 1)):
        self.kind = kind
        self.dims = [int(d) for d in dims]
        self.activations = list(activations)
        self.direction = direction
        self.group_kind = hidden_kind(self.activations[:-1])
        self.kernel_hw = (int(kernel_hw[0]), int(kernel_hw[1]))
        self.dv_raw, self.de_raw = 1, self.kernel_hw[0] * self.kernel_hw[1]
        dims, L = np.asarray(self.dims), len(self.dims) - 1
        offsets = np.concatenate([[0], np.cumsum(dims)])
        self.n_v = int(offsets[-1])
        self.layer_of = np.repeat(np.arange(L + 1), dims)
        self.index_in_layer = np.arange(self.n_v) - offsets[self.layer_of]
        # edges by layer, then target neuron, then source neuron
        self.fw_tgt = np.concatenate([offsets[l] + np.repeat(np.arange(dims[l]), dims[l - 1])
                                      for l in range(1, L + 1)])
        self.fw_src = np.concatenate([offsets[l - 1] + np.tile(np.arange(dims[l - 1]), dims[l])
                                      for l in range(1, L + 1)])
        self.n_e = int(self.fw_src.size)
        self.is_input = self.layer_of == 0
        self.is_output = self.layer_of == L
        self.is_hidden = ~(self.is_input | self.is_output)
        self.fw_tgt_is_output = self.is_output[self.fw_tgt]
        self.bw_tgt_is_input = self.is_input[self.fw_src]  # backward edges target the fw source

        # Class ids count names in order of first appearance over the
        # vertices, then the forward edges, then the backward edges: they
        # index the positional-encoding rows and name the edit-head maps.
        n_in, n_out, idx = self.dims[0], self.dims[-1], self.index_in_layer
        self.vertex_class_names = ([f"v:in:{i}" for i in range(n_in)]
                                   + [f"v:hidden:{l}" for l in range(1, L)]
                                   + [f"v:out:{i}" for i in range(n_out)])
        self.vertex_class = np.select([self.is_input, self.is_hidden],
                                      [idx, n_in - 1 + self.layer_of], n_in + L - 1 + idx)
        if L == 1:  # source-shared and target-shared collapse together
            names, self.edge_class = ["e:in-out"], np.zeros(self.n_e, dtype=np.intp)
        else:
            names = ([f"e:from-in:{j}" for j in range(n_in)]
                     + [f"e:hidden:{l}" for l in range(2, L)]
                     + [f"e:to-out:{i}" for i in range(n_out)])
            tgt_layer = self.layer_of[self.fw_tgt]
            self.edge_class = np.select([tgt_layer == 1, tgt_layer < L],
                                        [idx[self.fw_src], n_in - 2 + tgt_layer],
                                        n_in + L - 2 + idx[self.fw_tgt])
        self.bw_edge_class = None
        if direction == "bidirectional":
            self.bw_edge_class = self.edge_class + len(names)
            names = names + ["bw:" + n for n in names]
        self.edge_class_names = names
        self.n_vertex_classes = len(self.vertex_class_names)
        self.n_edge_classes = len(self.edge_class_names)
        for value in vars(self).values():  # every graph of the architecture shares them
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        self._rows: dict[int, BatchRows] = {}

    def _signature(self) -> tuple:
        return (self.kind, self.dims, [a.name for a in self.activations], self.kernel_hw)

    def compatible(self, graph: ParamGraph) -> bool:
        t = graph.template
        return t is self or t._signature() == self._signature()

    def batch(self, graphs: list[ParamGraph]):
        """Stack raw features: x_v [B*V, dv], x_e [B*E, de], x_e_bw or None."""
        for g in graphs:
            if not self.compatible(g):
                t = g.template
                raise ShapeError(
                    f"graph {t._signature()} (edge-feature width {t.de_raw}) does not match "
                    f"template {self._signature()} (edge-feature width {self.de_raw}); "
                    "fields: kind, dims, activations, kernel_hw")
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
        """Every row index of a batch (`BatchRows`), built and checked once
        per batch size."""
        if batch_size not in self._rows:
            self._rows[batch_size] = self._build_rows(batch_size)
        return self._rows[batch_size]

    def _build_rows(self, batch: int) -> BatchRows:
        def vertices(mask):
            return _tile_rows(np.flatnonzero(mask), self.n_v, batch)

        def edges(mask):
            return _tile_rows(np.flatnonzero(mask), self.n_e, batch)

        def route(into_hidden, sources, targets):
            parts = (edges(into_hidden), edges(~into_hidden))
            return EdgeRoute(edges=parts, sources=tuple(sources[e] for e in parts),
                             targets=tuple(targets[e] for e in parts),
                             into=np.concatenate([targets[e] for e in parts]))

        def order(parts):
            return np.argsort(np.concatenate(parts))

        src, tgt = self.flat_indices(batch)
        v_class = np.tile(self.vertex_class, batch)
        v_roles = (vertices(self.is_hidden), vertices(self.is_input), vertices(self.is_output))
        bias_class_rows = tuple(vertices(self.vertex_class == c)
                                for c in range(self.dims[0], self.n_vertex_classes))
        e_class_rows = tuple(edges(self.edge_class == c) for c in range(self.n_edge_classes))
        bid = self.direction == "bidirectional"
        rows = BatchRows(
            src=src,
            tgt=tgt,
            src_class=v_class[src],
            tgt_class=v_class[tgt],
            v_roles=v_roles,
            v_role_class=tuple(v_class[r] for r in v_roles),
            v_order=order(v_roles),
            fw=route(~self.fw_tgt_is_output, src, tgt),
            bw=route(~self.bw_tgt_is_input, tgt, src) if bid else None,
            e_class=np.tile(self.edge_class, batch),
            bw_class=np.tile(self.bw_edge_class, batch) if bid else None,
            hidden_graph=v_roles[0] // self.n_v,
            v_io=vertices(~self.is_hidden),
            bias_class_rows=bias_class_rows,
            bias_order=order(bias_class_rows),
            e_class_rows=e_class_rows,
            e_order=order(e_class_rows),
        )
        return _checked(rows)


def _checked(value):
    """`value` with every index array in it, however nested in tuples and
    routes, made a `RowIndex`."""
    if isinstance(value, np.ndarray):
        return RowIndex(value)
    if isinstance(value, tuple):
        return tuple(_checked(v) for v in value)
    if isinstance(value, (BatchRows, EdgeRoute)):
        return type(value)(**{f.name: _checked(getattr(value, f.name)) for f in fields(value)})
    return value


def _tile_rows(idx: np.ndarray, per_graph: int, batch: int) -> np.ndarray:
    """Per-graph row indices repeated for each graph of a stacked batch."""
    offs = np.arange(batch)[:, None] * per_graph
    return (offs + idx[None, :]).reshape(-1)


_TEMPLATES: dict[tuple, GraphTemplate] = {}


def template_for(kind: str, dims, activations, direction: str,
                 kernel_hw: tuple[int, int] = (1, 1)) -> GraphTemplate:
    """The one template of an architecture, built on its first use."""
    key = (kind, tuple(dims), tuple(activations), direction, tuple(kernel_hw))
    if key not in _TEMPLATES:
        check("direction", Key(str, choices=DIRECTIONS), direction)
        _TEMPLATES[key] = GraphTemplate(*key)
    return _TEMPLATES[key]
