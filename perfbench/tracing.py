"""Spans around the package's layer boundaries, installed from outside.

The traced run replaces selected functions with thin wrappers *where
their callers look them up*: ``certify`` imports ``z_crossing`` and
``fold_add_logs`` by name, so wrapping only ``kinematics.z_crossing``
would miss every call the certificate makes.  Each site below names the
module attribute its callers read.  A site whose attribute no longer
exists is reported as absent instead of failing the run.

Each wrapped call records one span (name, start, end, parent, item) in
plain lists; nothing is written until the run ends.  A span's self time
is its duration minus the durations of its direct children (the run is
single threaded, so children never overlap).
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# log-sum terms more than this many nats below a fold's largest term
# change the sum by less than e^-40 each
USEFUL_NATS = 40.0


def _fold_counter(counts: Dict[str, int]):
    def count(args, kwargs):
        logs = np.asarray(args[0] if args else kwargs["logs"], dtype=np.float64)
        counts["xreal.fold.terms"] += logs.size
        finite = logs[np.isfinite(logs)]
        if finite.size:
            counts["xreal.fold.useful_terms"] += int(np.count_nonzero(finite >= finite.max() - USEFUL_NATS))

    return count


def _node_counter(counts: Dict[str, int]):
    def count(args, kwargs):
        counts["kinematics.z_crossing_vec.nodes"] += int(np.size(args[0] if args else kwargs["omega_inv"]))

    return count


# (module, attribute path, layer name, counter factory or None)
SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("abcertify.certify", "fold_add_logs", "xreal.fold", _fold_counter),
    ("abcertify.xreal", "fold_add_logs", "xreal.fold", _fold_counter),
    ("abcertify.certify", "z_crossing_vec", "kinematics.z_crossing_vec", _node_counter),
    ("abcertify.certify", "z_crossing", "kinematics.z_crossing", None),
    ("abcertify.kinematics", "z_crossing", "kinematics.z_crossing", None),
    ("abcertify.certify", "_build_window", "certify.build_window", None),
    ("abcertify.certify", "grid_majorant", "certify.grid_majorant", None),
    ("abcertify.certify", "check_pair", "certify.check_pair", None),
    ("abcertify.certify", "write_csv", "certify.write_csv", None),
    ("abcertify.certify", "calibrated_coefficients", "bounds.calibrated_coefficients", None),
    ("abcertify.bounds", "calibrated_coefficients", "bounds.calibrated_coefficients", None),
    ("abcertify.certify", "coupling_constants", "fields.coupling_constants", None),
    ("abcertify.fields", "quad", "fields.quad", None),
    ("abcertify.fields", "FieldModel.b_field", "fields.FieldModel.b_field", None),
    ("abcertify.fields", "FieldModel.b_partials", "fields.FieldModel.b_partials", None),
    ("abcertify.fields", "FieldModel.a3", "fields.FieldModel.a3", None),
    ("abcertify.fields", "FieldModel.a_potential", "fields.FieldModel.a_potential", None),
    ("abcertify.fields", "FieldModel.chi", "fields.FieldModel.chi", None),
    ("abcertify.fields", "FieldModel.chi_curvature", "fields.FieldModel.chi_curvature", None),
    ("abcertify.bounds", "interval_certificates", "bounds.interval_certificates", None),
    ("abcertify.bounds", "threshold_sigma", "bounds.threshold_sigma", None),
    ("abcertify.bounds", "final_bound", "bounds.final_bound", None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(site[2] for site in SITES))
COUNTERS = ("xreal.fold.terms", "xreal.fold.useful_terms", "kinematics.z_crossing_vec.nodes")
ITEM = "bench.item"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = [ITEM, *LAYERS]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name: List[int] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.item: List[int] = []
        self._stack: List[int] = []
        self._item = -1
        self.counts: Dict[str, int] = {c: 0 for c in COUNTERS}
        self.absent: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def run_item(self, index: int, fn, arg):
        """Run one benchmark item under a root span that carries its index."""
        self._item = index
        i = self.open(0)
        try:
            return fn(arg)
        finally:
            self.close(i)
            self._item = -1

    def _wrap(self, fn, nid: int, count):
        tracer = self

        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            i = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -------------------------------------------

    def install(self, sites: Sequence[Tuple[str, str, str, Optional[Callable]]] = SITES) -> None:
        installed = set()
        for module_name, path, layer, counter in sites:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for p in parents:
                    owner = getattr(owner, p)
                fn = getattr(owner, attr)
            except AttributeError:
                continue
            count = counter(self.counts) if counter is not None else None
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, self._ids[layer], count))
            installed.add(layer)
        self.absent = sorted({site[2] for site in sites} - installed)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------

    def self_ns(self) -> np.ndarray:
        """Total self time per name id, in nanoseconds."""
        dur = np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
        own = dur.copy()
        parent = np.asarray(self.parent, dtype=np.int64)
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return np.bincount(np.asarray(self.name, dtype=np.int64), weights=own, minlength=len(self.names))

    def calls(self) -> np.ndarray:
        return np.bincount(np.asarray(self.name, dtype=np.int64), minlength=len(self.names))

    def write(self, path: Path) -> None:
        """One line per span: name, start_ns, end_ns, parent, item."""
        lines = ["name,start_ns,end_ns,parent,item"]
        names = self.names
        for n, s, e, p, it in zip(self.name, self.start, self.end, self.parent, self.item):
            lines.append(f"{names[n]},{s},{e},{p},{it}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> Dict[str, float]:
    """Per-layer counts, ratios and self-time shares of the traced wall time."""
    calls = tracer.calls()
    own = tracer.self_ns()
    ids = {n: i for i, n in enumerate(tracer.names)}
    wall_ns = traced_wall_s * 1e9

    def n_calls(layer):
        return int(calls[ids[layer]])

    def pct(layer):
        return float(100.0 * own[ids[layer]] / wall_ns) if wall_ns > 0 else 0.0

    c = tracer.counts
    terms = c["xreal.fold.terms"]
    nodes = c["kinematics.z_crossing_vec.nodes"]
    out: Dict[str, float] = {
        "xreal.fold.calls": n_calls("xreal.fold"),
        "xreal.fold.terms": terms,
        "xreal.fold.useful_ratio": c["xreal.fold.useful_terms"] / terms if terms else 0.0,
        "kinematics.z_crossing_vec.calls": n_calls("kinematics.z_crossing_vec"),
        "kinematics.z_crossing_vec.nodes": nodes,
        "certify.window.useful_ratio": terms / nodes if nodes else 0.0,
        "kinematics.z_crossing.calls": n_calls("kinematics.z_crossing"),
        "bounds.calibrated_coefficients.calls": n_calls("bounds.calibrated_coefficients"),
        "fields.coupling_constants.calls": n_calls("fields.coupling_constants"),
        "fields.quad.calls": n_calls("fields.quad"),
        "bounds.threshold_sigma.calls": n_calls("bounds.threshold_sigma"),
        "bounds.final_bound.calls": n_calls("bounds.final_bound"),
    }
    for m in ("b_field", "b_partials", "a3", "a_potential", "chi", "chi_curvature"):
        out[f"fields.FieldModel.{m}.calls"] = n_calls(f"fields.FieldModel.{m}")
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = pct(layer)
    attributed = sum(out[f"{layer}.self_pct"] for layer in LAYERS)
    out["trace.unattributed_pct"] = 100.0 - attributed if wall_ns > 0 else 0.0
    out["trace.spans"] = len(tracer.start)
    return out

