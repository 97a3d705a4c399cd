"""Spans around the public entry points of every sketchpca layer, from outside.

``Tracer.install`` wraps each layer's public functions and the methods
listed below, and rebinds every ``sketchpca.*`` namespace entry that holds
one: modules import functions by name, so patching the defining module
alone would miss ``batch.truncated_svd`` and its like.  ``uninstall``
restores every binding.  Spans stay in memory (id, parent, name, layer,
start, end, solve) and are written as JSON lines on request.

Self time is a span's duration minus its child spans.  Time a layer spends
in code this wrapper cannot see lands in the nearest visible caller: direct
``np.linalg`` calls inside column_select and column_select_sparse count as
those layers' self time, private helpers (``_fold``, ``_run_probe``) as
their caller's.  ``Cluster.map_machines`` is transparent: the per-machine
closures it runs are protocol code, so its self time goes to the layer
that called it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("fileio", "sketches", "linalg", "sparse", "cluster", "batch",
          "arbitrary_partition", "column_select", "column_partition",
          "column_select_sparse", "streaming")

# Constructors worth a span; other dunders (dataclass-generated) are not.
_INIT_SPANNED = {"Cluster", "SparseColMatrix", "TurnstileSketchState"}
# Per-element accessors: counted, not spanned.
_COUNTED = {("SparseColMatrix", "col"), ("SparseColMatrix", "col_nnz")}
# The stream state's per-update methods run inside consume; only the two
# boundaries the layer metrics need are spanned.
_ONLY = {"TurnstileSketchState": ("__init__", "consume")}
_EXTRA = {"SparseColMatrix": ("_validate",)}
_TRANSPARENT = {"Cluster.map_machines"}

# Self-time metric per span name where it is not "<layer>.self_s".
_SELF_KEY = {
    "TurnstileSketchState.__init__": "streaming.init_s",
    "TurnstileSketchState.consume": "streaming.ingest_s",
}
# Layers whose spans all feed one named metric instead of "<layer>.self_s".
_LAYER_KEY = {"fileio": "fileio.read_s", "streaming": "streaming.readout_s"}
_FACTORIZATIONS = {"svd", "numeric_rank", "pinv", "qr", "tail_sq"}
_MATERIALIZE = {"SignSketch.materialize", "SignSketch.materialize_cols",
                "SrhtSketch.materialize", "SparseEmbedding.materialize"}


def _self_key(layer: str, name: str) -> str:
    return _SELF_KEY.get(name, _LAYER_KEY.get(layer, f"{layer}.self_s"))


def _counter(layer: str, name: str):
    """Count hook for a span, run after the call returns, or None."""
    if layer == "linalg" and name in _FACTORIZATIONS:
        def hook(t, args, out):
            t.count("linalg.factorizations", 1)
            t.count("linalg.factor_cells", np.size(args[0]))
    elif layer == "linalg" and name == "rank_constrained_affine_solve":
        # two direct np.linalg.svd calls, on N and L; the truncated SVD of
        # the core goes through svd and is counted there
        def hook(t, args, out):
            t.count("linalg.factorizations", 2)
            t.count("linalg.factor_cells", np.size(args[1]) + np.size(args[2]))
    elif name == "prf_cells":
        def hook(t, args, out):
            t.count("sketches.prf_cells", np.broadcast(args[1], args[2]).size)
    elif name == "fwht_axis0":
        def hook(t, args, out):
            t.count("sketches.fwht_cells", np.size(args[0]))
    elif name in _MATERIALIZE:
        def hook(t, args, out):
            t.count("sketches.materialized_words", out.size)
    elif name == "Cluster.materialize":
        def hook(t, args, out):
            t.count("cluster.materialize_cells", out.size)
    elif name.startswith("SparseColMatrix."):
        def hook(t, args, out):
            t.count("sparse.calls", 1)
    elif name == "TurnstileSketchState.__init__":
        def hook(t, args, out):
            st = args[0]
            t.count("streaming.sketch_words",
                    st.S.size + st.R.size + st.T_left.size + st.T_right.size)
    elif layer == "fileio" and name.startswith("read_"):
        def hook(t, args, out):
            t.count("fileio.bytes", os.path.getsize(args[0]))
    else:
        hook = None
    return hook


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [id, parent, name, key, start, end, solve]
        self._stack: list[int] = []
        self.solve = None
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def count(self, key: str, value) -> None:
        self.counts[self.solve][key] += int(value)

    def _span(self, fn, name: str, key: str | None, hook):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, key, 0.0, 0.0,
                   tracer.solve]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, out)
                return out
            finally:
                rec[5] = perf_counter()
                stack.pop()
        return wrapper

    def _tally(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key, 1)
            return fn(*args, **kwargs)
        return wrapper

    def root(self, solve, fn, *args):
        """Run fn(*args) as the root span of one solve (or of the load)."""
        self.solve = solve
        try:
            return self._span(fn, "bench", "bench", None)(*args)
        finally:
            self.solve = None

    # -- binding --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer entry point and rebind it wherever it is held."""
        import importlib

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sketchpca.{layer}")
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replaced[id(obj)] = self._span(
                        obj, name, _self_key(layer, name), _counter(layer, name))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "sketchpca" and not modname.startswith("sketchpca."):
                continue
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    self._set(mod, name, replaced[id(obj)])

    def _install_class(self, cls, layer: str) -> None:
        cname = cls.__name__
        for name, attr in list(vars(cls).items()):
            qual = f"{cname}.{name}"
            fn = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
            if not isinstance(fn, types.FunctionType):
                continue
            if (cname, name) in _COUNTED:
                self._set(cls, name, self._tally(fn, "sparse.calls"))
                continue
            if cname in _ONLY:
                wanted = name in _ONLY[cname]
            else:
                wanted = (not name.startswith("_")
                          or (name == "__init__" and cname in _INIT_SPANNED)
                          or name in _EXTRA.get(cname, ()))
            if not wanted:
                continue
            key = None if qual in _TRANSPARENT else _self_key(layer, qual)
            wrapped = self._span(fn, qual, key, _counter(layer, qual))
            if isinstance(attr, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(wrapped)
            self._set(cls, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reading --------------------------------------------------------

    def self_times(self) -> dict:
        """{solve: {metric key: seconds}}, plus "bench.total" per solve."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in spans:
            key, up = s[3], s
            while key is None:             # transparent: charge the caller
                up = spans[up[1]]
                key = up[3]
            out[s[6]][key] += (s[5] - s[4]) - child[s[0]]
            if s[1] < 0:
                out[s[6]]["bench.total"] += s[5] - s[4]
        return out

    def write_json_lines(self, path) -> None:
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, name, key, start, end, solve in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": key.split(".")[0] if key else "cluster",
                    "start": start - t0, "end": end - t0, "solve": solve}) + "\n")
