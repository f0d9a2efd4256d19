"""Spans around the calls into each affrig layer, installed from outside.

``Tracer.install`` replaces every listed public function with a timing
wrapper in every namespace that binds it (``is_k_vertex_connected`` is bound
in ``hypergraph``, ``rigidity``, ``cli`` and the package itself), and
``uninstall`` puts the originals back. Spans nest through a stack, so a
span's self time is its duration minus the time of the spans it caused.
Statistics are kept in memory per op kind and read out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

import numpy as np

ITEM = 8  # bytes per float64 entry


def _shape(matrix) -> tuple[int, int]:
    shape = np.shape(matrix)
    return (shape[-2], shape[-1]) if len(shape) >= 2 else (0, 0)


def _file_bytes(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path) if path != "-" else 0}


def _written_bytes(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path) if path != "-" else 0}


def _kernel_cells(args, kwargs, result) -> dict:
    rows, cols = _shape(args[0] if args else kwargs["m"])
    return {"cells": rows * cols, "tall_calls": int(rows > cols)}


def _field_cells(args, kwargs, result) -> dict:
    m = args[0] if args else kwargs["m"]
    return {"cells": m.rows * m.cols}


def _svd_bytes(args, kwargs, result) -> dict:
    """Computed bytes of the input copy and outputs implied by shape and flags."""
    rows, cols = _shape(args[0] if args else kwargs["a"])
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    k = min(rows, cols)
    computed = rows * cols + k
    full_u = 0
    if uv and full:
        computed += rows * rows + cols * cols
        full_u = rows * (rows - k)
    elif uv:
        computed += rows * k + k * cols
    return {"computed_bytes": ITEM * computed, "full_u_bytes": ITEM * full_u}


def _affinity_rows(args, kwargs, result) -> dict:
    return {"rows": result.matrix.shape[0]}


def _interior(args, kwargs, result) -> dict:
    gamma, d = args[0], (args[1] if len(args) > 1 else kwargs["d"])
    return {"interior": gamma.vertex_count - d - 1}


# (module, attribute path, span name, counter hook, spans whose calls inside
# this one are counted as "within.<name>").
SPANS = [
    ("affrig.cli", "main", "cli.main", None, ()),
    ("affrig.formats", "load_document", "formats.load_document", _file_bytes, ()),
    ("affrig.formats", "write_document", "formats.write_document",
     _written_bytes, ()),
    ("affrig.formats", "structure_from_document",
     "formats.structure_from_document", None, ()),
    ("affrig.formats", "scan_set_from_document",
     "formats.scan_set_from_document", None, ()),
    ("affrig.formats", "coordinates_from_document",
     "formats.coordinates_from_document", None, ()),
    ("affrig.hypergraph", "is_k_vertex_connected",
     "hypergraph.is_k_vertex_connected", None, ()),
    ("affrig.hypergraph", "zha_zhang_condition", "hypergraph.zha_zhang_condition",
     None, ()),
    ("affrig.hypergraph", "neighborhood_hypergraph",
     "hypergraph.neighborhood_hypergraph", None, ()),
    ("affrig.hypergraph", "squared_graph", "hypergraph.squared_graph", None, ()),
    ("affrig.hypergraph", "body_graph", "hypergraph.body_graph", None, ()),
    ("affrig.hypergraph", "Graph.from_edges", "hypergraph.Graph.from_edges",
     None, ()),
    ("affrig.hypergraph", "Hypergraph.from_hyperedges",
     "hypergraph.Hypergraph.from_hyperedges", None, ()),
    ("affrig.numkernel", "numerical_kernel", "numkernel.numerical_kernel",
     _kernel_cells, ()),
    ("affrig.numkernel", "numerical_rank", "numkernel.numerical_rank", None, ()),
    ("affrig.numkernel", "prime_field_rank", "numkernel.prime_field_rank",
     _field_cells, ()),
    ("affrig.numkernel", "prime_field_nullspace", "numkernel.prime_field_nullspace",
     None, ()),
    ("affrig.numkernel", "PrimeFieldMatrix.from_integers",
     "numkernel.PrimeFieldMatrix.from_integers", None, ()),
    ("affrig.numkernel", "least_squares", "numkernel.least_squares", None, ()),
    ("affrig.numkernel", "psd_cholesky", "numkernel.psd_cholesky", None, ()),
    ("numpy.linalg", "svd", "linalg.svd", _svd_bytes, ()),
    ("scipy.optimize", "linprog", "optimize.linprog", None, ()),
    ("affrig.rigidity", "strong_affinity_matrix", "rigidity.strong_affinity_matrix",
     _affinity_rows, ()),
    ("affrig.rigidity", "affinity_corank", "rigidity.affinity_corank", None, ()),
    ("affrig.rigidity", "field_affinity_corank", "rigidity.field_affinity_corank",
     None, ()),
    ("affrig.rigidity", "affine_rigidity_test", "rigidity.affine_rigidity_test",
     None, ()),
    ("affrig.rigidity", "generic_affine_rigidity_test",
     "rigidity.generic_affine_rigidity_test", None,
     ("rigidity.field_affinity_corank",)),
    ("affrig.rigidity", "neighborhood_affine_rigidity_test",
     "rigidity.neighborhood_affine_rigidity_test", None, ()),
    ("affrig.rigidity", "nonsymmetric_stress", "rigidity.nonsymmetric_stress",
     None, ()),
    ("affrig.rigidity", "stress_corank", "rigidity.stress_corank", None, ()),
    ("affrig.rigidity", "positive_stress", "rigidity.positive_stress", None, ()),
    ("affrig.rigidity", "rubber_band_embedding", "rigidity.rubber_band_embedding",
     _interior, ("optimize.linprog",)),
    ("affrig.rigidity", "conic_at_infinity_test", "rigidity.conic_at_infinity_test",
     None, ()),
    ("affrig.rigidity", "universal_rigidity_certificate",
     "rigidity.universal_rigidity_certificate", None, ()),
    ("affrig.rigidity", "affinity_residuals", "rigidity.affinity_residuals",
     None, ()),
    ("affrig.registration", "affine_register", "registration.affine_register",
     None, ()),
    ("affrig.registration", "euclidean_register", "registration.euclidean_register",
     None, ()),
    ("affrig.registration", "remove_affine", "registration.remove_affine", None, ()),
    ("affrig.registration", "best_fit_affine", "registration.best_fit_affine",
     None, ()),
    ("affrig.registration", "best_fit_euclidean", "registration.best_fit_euclidean",
     None, ()),
]


class Tracer:
    def __init__(self):
        self.kind = "-"
        self.stats: dict[str, dict[str, dict[str, float]]] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, elapsed: float, own: float, counts: dict) -> None:
        entry = self.stats.setdefault(self.kind, {}).setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += elapsed
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
        self.calls[name] = self.calls.get(name, 0) + 1

    def wrap(self, fn, name: str, hook, within: tuple[str, ...]):
        tracer = self

        def span(*args, **kwargs):
            before = [tracer.calls.get(inner, 0) for inner in within]
            tracer._stack.append(0.0)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += elapsed
                counts = hook(args, kwargs, result) if hook and ok else {}
                for inner, old in zip(within, before):
                    counts[f"within.{inner}"] = tracer.calls.get(inner, 0) - old
                tracer._record(name, elapsed, elapsed - children, counts)

        span.__wrapped__ = fn
        return span

    def _namespaces(self, owner_name: str) -> list[object]:
        names = {owner_name} | {m for m in sys.modules if m.split(".")[0] == "affrig"}
        return [sys.modules[m] for m in sorted(names) if m in sys.modules]

    def install(self) -> None:
        for module_name, attribute, name, hook, within in SPANS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self.wrap(original.__func__, name, hook, within))
                self._patches.append((cls, method, original))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(original, name, hook, within)
            for namespace in self._namespaces(module_name):
                if namespace.__dict__.get(attribute) is original:
                    self._patches.append((namespace, attribute, original))
                    setattr(namespace, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
