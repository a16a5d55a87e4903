"""Spans and counters recorded from outside the program.

A ``Tracer`` replaces public protfit functions and methods with timing
wrappers under every name a caller looks them up by (the defining module,
each protfit module that imported the name, and the class for methods).
Each call records one span (name, start, end, parent span, run id) in
memory; counters are taken in hooks that run after the span closes, and
the hook's own time is recorded as a ``trace.hook`` span so that it is
excluded from every layer's self time. ``uninstall`` puts the originals
back. A target that no longer exists is listed in ``absent`` and skipped.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

HOOK = "trace.hook"


def _tape_nodes(tensor) -> int:
    """Nodes reachable from ``tensor`` through the autodiff tape."""
    seen = {id(tensor)}
    stack = [tensor]
    while stack:
        node = stack.pop()
        for parent in getattr(node, "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _mp_name(tracer, args, kwargs):
    blocks = args[0] if args else kwargs.get("blocks")
    model = tracer.current_model
    if model is not None and blocks is getattr(model, "structure_blocks", None):
        return "gvp.mp_structure"
    if model is not None and blocks is getattr(model, "surface_blocks", None):
        return "gvp.mp_surface"
    return "gvp.mp_other"


def _on_forward_enter(tracer, args, kwargs):
    tracer.current_model = args[0]


def _count_queries(tracer, args, kwargs, result):
    queries = args[0] if args else kwargs["queries"]
    tracer.counters["geometry.cross_knn.queries"] += len(queries)


def _count_points(tracer, args, kwargs, result):
    tracer.samples["surface.points"].append(result.n_points)


def _count_written(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["surface.cloud_io.bytes"] += os.path.getsize(path)


def _count_read(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counters["surface.cloud_io.bytes"] += os.path.getsize(path)


def _count_excised(tracer, args, kwargs, result):
    cloud = args[0] if args else kwargs["cloud"]
    tracer.counters["surface.excise.points_in"] += cloud.n_points
    tracer.counters["surface.excise.points_kept"] += len(result[1].kept)


def _count_tape(tracer, args, kwargs, result):
    tracer.samples["autodiff.tape_nodes"].append(_tape_nodes(result))


def _count_edges(tracer, args, kwargs, result):
    graph = args[1] if len(args) > 1 else kwargs["graph"]
    key = {"gvp.mp_structure": "gvp.structure_edges",
           "gvp.mp_surface": "gvp.surface_edges"}.get(_mp_name(tracer, args, kwargs))
    if key is not None:
        tracer.counters[key] += graph.n_edges


def _count_grad_norm(tracer, args, kwargs, result):
    grads = args[0] if args else kwargs["grads"]
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    norm = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads.values())))
    tracer.samples["training.grad_norm"].append(norm)
    tracer.counters["training.clipped"] += bool(max_norm and norm > max_norm)


def _count_scored(tracer, args, kwargs, result):
    for vs in result:
        if vs.provenance:
            tracer.counters["scoring.variants"] += 1
        if vs.summary in ("baseline", "mixed"):
            tracer.counters["scoring.baseline_fallbacks"] += 1


# (span name or naming function, module, attribute path, enter hook, exit hook)
TARGETS = (
    ("geometry.cross_knn", "protfit.geometry", "cross_knn", None, _count_queries),
    ("geometry.build_knn_graph", "protfit.geometry", "build_knn_graph", None, None),
    ("geometry.build_radius_graph", "protfit.geometry", "build_radius_graph", None, None),
    ("surface.generate_surface", "protfit.surface", "generate_surface", None, _count_points),
    ("surface.surface_features", "protfit.surface", "surface_features", None, None),
    ("surface.cloud_io", "protfit.surface", "write_cloud_tsv", None, _count_written),
    ("surface.cloud_io", "protfit.surface", "read_cloud_tsv", None, _count_read),
    ("surface.excise_near_residue", "protfit.surface", "excise_near_residue", None,
     _count_excised),
    ("gvp.forward_logits", "protfit.gvp", "FitnessModel.forward_logits",
     _on_forward_enter, _count_tape),
    ("gvp.embed", "protfit.gvp", "FitnessModel.embed", None, None),
    (_mp_name, "protfit.gvp", "run_message_passing", None, _count_edges),
    ("gvp.surface_init", "protfit.gvp", "surface_init", None, None),
    ("gvp.fuse", "protfit.gvp", "fuse_residue_surface", None, None),
    ("autodiff.backward", "protfit.autodiff", "Tensor.backward", None, None),
    ("training.pretrain_step", "protfit.training", "pretrain_step", None, None),
    ("training.optimizer_step", "protfit.training", "Adam.step", None, None),
    ("training.clip_gradients", "protfit.training", "clip_gradients", None,
     _count_grad_norm),
    ("training.load_corpus", "protfit.training", "load_corpus", None, None),
    ("scoring.score_assay", "protfit.scoring", "score_assay", None, _count_scored),
    ("scoring.ensemble_zscores", "protfit.scoring", "ensemble_zscores", None, None),
    ("scoring.write_scores_csv", "protfit.scoring", "write_scores_csv", None, None),
    ("io.load_checkpoint", "protfit.gvp", "load_checkpoint", None, None),
    ("io.save_checkpoint", "protfit.gvp", "save_checkpoint", None, None),
    ("io.parse_mutation", "protfit.io", "parse_mutation", None, None),
    ("metrics.evaluate_assay", "protfit.metrics", "evaluate_assay", None, None),
    ("metrics.bootstrap_diff_stderr", "protfit.metrics", "bootstrap_diff_stderr",
     None, None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []            # [name, start, end, parent index]
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.absent = []
        self.current_model = None
        self._stack = []
        self._restore = []         # (namespace, attribute, original)

    # ---- wrapping ----

    def _wrap(self, name, fn, on_enter, on_exit):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            label = name(tracer, args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            record = [label, clock(), None, parent]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                tracer._stack.pop()
            if on_exit is not None:
                hook = [HOOK, clock(), None, parent]
                tracer.spans.append(hook)
                on_exit(tracer, args, kwargs, result)
                hook[2] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "protfit" or key.startswith("protfit."))]
        for name, module_name, path, on_enter, on_exit in TARGETS:
            owner = sys.modules.get(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(parts[-1]) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, on_enter, on_exit)
            namespaces = [owner] if len(parts) > 1 else []
            namespaces += [m for m in modules if m.__dict__.get(parts[-1]) is original]
            for namespace in namespaces:
                self._restore.append((namespace, parts[-1], original))
                setattr(namespace, parts[-1], wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    # ---- results ----

    def self_times(self):
        """(self seconds, calls) per span name; hook spans are left out."""
        covered = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for index, (label, start, end, _) in enumerate(self.spans):
            if label == HOOK:
                continue
            self_s[label] += end - start - covered[index]
            calls[label] += 1
        return self_s, calls

    def count_nested(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` that run inside a span named ``ancestor``."""
        total = 0
        for label, _, _, parent in self.spans:
            if label != child:
                continue
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def dump(self):
        return [{"name": label, "start": start, "end": end, "parent": parent,
                 "run": self.run_id}
                for label, start, end, parent in self.spans]
