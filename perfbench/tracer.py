"""Span tracer that wraps scalegmn's public functions from outside the package.

Nothing under ``src/`` changes: :meth:`Tracer.install` rebinds the public
functions and methods named in ``MODULE_SPANS``, ``TRACKED_OPS`` and
``OTHER_OPS`` in every ``scalegmn`` module that holds them, including names
bound at import time (``from .tensor import gradients`` in
``train``/``zoo``/``optim``, ``from .graph import build_graph`` in
``harness``/``train``/``cli``), and :meth:`Tracer.uninstall` puts every
original back.

Module-level calls become :class:`Span` records kept in memory. Tape ops are
too many for spans, so they go to per-tag counters instead: calls and
forward time of the outermost tracked op (a composite such as ``mean_`` owns
the ``sum_``/``mul`` it calls), and backward time taken by wrapping the
``_bw`` closure on the op's output.
``tag`` names the benchmark step a span belongs to (``inr_classify``,
``inr_fit``, ...); each ``gradients`` call under a tag counts one step and
records the tape size by walking the loss's parents, as ``backward`` does.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict, namedtuple

# Tape ops reported one by one; every other public op is counted as "other".
TRACKED_OPS = ("matmul", "transpose", "add", "sub", "mul", "div", "sigmoid",
               "concat", "gather_rows", "scatter_sum", "mean_", "sqrt")
OTHER_OPS = ("neg", "pow_", "exp", "log", "sin", "cos", "tanh", "relu",
             "abs_", "reshape", "narrow", "sum_", "l2_normalize")
OP_LABELS = TRACKED_OPS + ("other",)


def _rows_first(args):
    x = args[1]
    return int(x.shape[0])


def _rows_slots(args):
    return int(args[1][0].shape[0])


def _rows_graphs(args):
    return len(args[1])


def _rows_split(args):
    runner, split = args[0], args[1]
    return len(runner.data.splits[split])


# (module, attribute path, span name, rows-of-call). Methods are patched on
# the class, so instance calls such as ``self.mlp(x)`` go through them.
MODULE_SPANS = (
    ("tensor", "gradients", "tensor.gradients", None),
    ("nn", "MLP.__call__", "nn.mlp", _rows_first),
    ("nn", "LayerNorm.__call__", "nn.layernorm", _rows_first),
    ("nn", "Linear.__call__", "nn.linear", _rows_first),
    ("optim", "AdamState.step", "optim.adam", None),
    ("blocks", "ScaleEqNet.__call__", "blocks.scale_eq", _rows_slots),
    ("blocks", "ReScaleEqNet.__call__", "blocks.rescale_eq", _rows_slots),
    ("blocks", "ScaleInvNet.__call__", "blocks.scale_inv", _rows_slots),
    ("blocks", "Canonicalizer.__call__", "blocks.canonicalizer", _rows_first),
    ("model", "ScaleGMNModel.embed", "model.embed", _rows_graphs),
    ("model", "ScaleGMNModel.readout", "model.readout", None),
    ("model", "ScaleGMNModel.forward", "model.forward", _rows_graphs),
    ("model", "ScaleGMNModel.edit", "model.edit", _rows_graphs),
    ("model", "ScaleGMNModel.edit_params", "model.edit_params", _rows_graphs),
    ("model", "save_checkpoint", "train.checkpoint", None),
    ("graph", "build_graph", "graph.build.ffnn", None),
    ("graph", "build_graph_cnn", "graph.build.cnn", None),
    ("graph", "GraphTemplate.batch", "graph.batch", _rows_graphs),
    ("ffnn", "apply_orbit", "ffnn.apply_orbit", None),
    ("ffnn", "ffnn_forward_taped", "ffnn.forward_taped", None),
    ("cnn", "cnn_forward_taped", "cnn.forward_taped", None),
    ("zoo", "train_inr", "zoo.train_inr", None),
    ("zoo", "train_toy_cnn", "zoo.train_toy_cnn", None),
    ("zoo", "save_zoo", "zoo.save", lambda a: len(a[1])),
    ("zoo", "load_zoo", "zoo.load", None),
    ("harness", "certify_invariance", "harness.certify_invariance", None),
    ("harness", "certify_equivariance", "harness.certify_equivariance", None),
    ("train", "Runner.evaluate", "train.evaluate", _rows_split),
)

# Inside these calls every gradients() call is one step of the named tag.
FIT_TAGS = {"zoo.train_inr": "inr_fit", "zoo.train_toy_cnn": "cnn_fit"}

# Module calls whose rows count toward model.masked_row_share.
ROLE_SPANS = ("nn.mlp", "nn.linear", "blocks.rescale_eq")

# parent: index of the enclosing span (-1 at top level); tag: benchmark step
# tag or None; rows: batch rows (or graphs) handed to the call; nested: an
# enclosing span has the same name; section: train | certify | zoo.
Span = namedtuple("Span", "name start end parent tag rows nested section")


def tape_size(root) -> int:
    """Nodes reachable from `root` through `_parents`, leaves included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Spans and op counters for one traced pass; install/uninstall around it."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._active: dict = defaultdict(int)
        self.tag: str | None = None
        self.section: str | None = None
        self.steps: dict = defaultdict(int)
        self.nodes: dict = defaultdict(int)
        self.op_calls: dict = defaultdict(int)
        self.op_fwd: dict = defaultdict(float)
        self.op_bwd: dict = defaultdict(float)
        self.roles: dict = {}           # id(module) -> (kept rows, rows) per graph
        self.role_rows: dict = defaultdict(int)
        self.role_kept: dict = defaultdict(int)
        self._op_label = None
        self._saved: list = []

    # -- spans ------------------------------------------------------------------

    def _span(self, name, fn, rows_of):
        tracer = self

        def wrapped(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            rows = rows_of(args) if rows_of is not None else None
            nested = tracer._active[name] > 0
            prev_tag = tracer.tag
            if name in FIT_TAGS:
                tracer.tag = FIT_TAGS[name]
            if name == "tensor.gradients" and tracer.tag is not None:
                tracer.steps[tracer.tag] += 1
                tracer.nodes[tracer.tag] += tape_size(args[0])
            if name in ROLE_SPANS:
                role = tracer.roles.get(id(args[0]))
                if role is not None:
                    kept, per_graph = role
                    tracer.role_rows[tracer.tag] += rows
                    tracer.role_kept[tracer.tag] += rows // per_graph * kept
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, t0, t1, parent, tracer.tag, rows,
                                         nested, tracer.section)
                tracer.tag = prev_tag

        wrapped.__wrapped__ = fn
        return wrapped

    # -- tape ops ---------------------------------------------------------------

    def _timed_bw(self, bw, label):
        tracer = self
        tag = self.tag

        def timed(g, out):
            t0 = time.perf_counter()
            try:
                return bw(g, out)
            finally:
                tracer.op_bwd[(tag, label)] += time.perf_counter() - t0

        timed.orig = bw
        return timed

    def _op(self, label, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            outer = tracer._op_label
            if outer is not None:   # inside another tracked op: it owns this one
                out = fn(*args, **kwargs)
                label_now = outer
            else:
                tracer._op_label = label
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._op_label = None
                tracer.op_fwd[(tracer.tag, label)] += time.perf_counter() - t0
                tracer.op_calls[(tracer.tag, label)] += 1
                label_now = label
            bw = getattr(out, "_bw", None)
            if bw is not None:
                out._bw = self._timed_bw(getattr(bw, "orig", bw), label_now)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    # -- install / restore ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every scalegmn binding of `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "scalegmn" or mod_name.startswith("scalegmn.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        import importlib

        for mod_name, path, name, rows_of in MODULE_SPANS:
            mod = importlib.import_module(f"scalegmn.{mod_name}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._span(name, original, rows_of))
            else:
                original = getattr(mod, path)
                self._rebind(original, self._span(name, original, rows_of))
        tensor = importlib.import_module("scalegmn.tensor")
        for op in TRACKED_OPS + OTHER_OPS:
            label = op if op in TRACKED_OPS else "other"
            original = getattr(tensor, op)
            self._rebind(original, self._op(label, original))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- queries used by the per-layer metrics --------------------------------------

    def select(self, name, tag=..., section=None):
        """Finished spans of `name` not nested in another span of the same name."""
        return [s for s in self.spans
                if s.name == name and not s.nested
                and (tag is ... or s.tag == tag)
                and (section is None or s.section == section)]

    def total_ms(self, name, tag=..., section=None) -> float:
        return sum(s.end - s.start for s in self.select(name, tag, section)) * 1e3

    def count(self, name, tag=..., section=None) -> int:
        return len(self.select(name, tag, section))

    def rows(self, name, tag=..., section=None) -> int:
        return sum(s.rows or 0 for s in self.select(name, tag, section))

    def register_roles(self, model):
        """Mark the modules whose output rows are masked down to one role.

        Kept rows per graph come from the template's role counts; every call
        of such a module receives all vertex (or edge) rows of the batch.
        """
        tpl = model.template
        n_in, n_out = int(tpl.is_input.sum()), int(tpl.is_output.sum())
        out_edges = int(tpl.fw_tgt_is_output.sum())
        in_edges = int(tpl.bw_tgt_is_input.sum())
        nv, ne = tpl.n_v, tpl.n_e
        self.roles[id(model.init_v_in)] = (n_in, nv)
        self.roles[id(model.init_v_out)] = (n_out, nv)
        for layer in model.rounds:
            self.roles[id(layer.upd_in)] = (n_in, nv)
            self.roles[id(layer.upd_out)] = (n_out, nv)
            self.roles[id(layer.msg_fw_out)] = (out_edges, ne)
            self.roles[id(layer.rescale_fw_out)] = (out_edges, ne)
            if hasattr(layer, "msg_bw_in"):
                self.roles[id(layer.msg_bw_in)] = (in_edges, ne)
                self.roles[id(layer.rescale_bw_in)] = (in_edges, ne)
        for name, mod in getattr(model, "edit_v", {}).items():
            cls = tpl.vertex_class_names.index(name)
            self.roles[id(mod)] = (int((tpl.vertex_class == cls).sum()), nv)
        for name, mod in getattr(model, "edit_e", {}).items():
            cls = tpl.edge_class_names.index(name)
            self.roles[id(mod)] = (int((tpl.edge_class == cls).sum()), ne)

    def dump(self) -> dict:
        """Spans and op counters as plain JSON-ready data."""
        return {
            "span_fields": list(Span._fields),
            "spans": [list(s) for s in self.spans if s is not None],
            "ops": [
                {"tag": tag, "op": op, "calls": self.op_calls[(tag, op)],
                 "fwd_s": self.op_fwd[(tag, op)], "bwd_s": self.op_bwd.get((tag, op), 0.0)}
                for (tag, op) in sorted(self.op_calls, key=lambda k: (str(k[0]), k[1]))
            ],
            "steps": dict(self.steps),
            "nodes": dict(self.nodes),
        }
