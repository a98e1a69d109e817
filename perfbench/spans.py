"""Span recorder for the traced benchmark run.

Spans are recorded around calls into voxprop's public functions by
replacing, for the duration of one operation, the module attributes that
voxprop's own callers look up (``voxprop.propagate.build_lattice``,
``voxprop.cli.majority_vote``, ...). Nothing inside voxprop is edited.

A span has a name ``<layer>.<function>``, a start and end on the
system-wide monotonic clock (comparable across processes), the id of the
span that caused it, the operation id, and counts taken from the call's
arguments and result. Spans stay in memory and are written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time

now = time.monotonic


class Recorder:
    """In-memory spans of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = "setup"

    def add(self, name, start, end, parent=None, counts=None) -> int:
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "op": self.op, "counts": counts or {}}
        )
        return sid

    @contextlib.contextmanager
    def span(self, name):
        sid = self.add(name, now(), None)
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = now()

    def adopt(self, child_spans, parent: int) -> None:
        """Attach spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        for s in child_spans:
            self.spans.append(
                dict(s, id=base + s["id"], op=self.op,
                     parent=parent if s["parent"] is None else base + s["parent"])
            )

    def dump(self, path) -> None:
        with open(path, "w") as fp:
            json.dump(self.spans, fp)


# --- counters: read at the call boundary from arguments and results ----------

def _count_propagate(args, kwargs, result):
    r = result.report
    return {"seedless_voxels": r["n_seedless_voxels"], "filled_voxels": r["n_policy_filled"]}


def _count_bilateral(args, kwargs, result):
    r = result.report
    return {"seedless_voxels": r["n_gap_voxels"], "filled_voxels": r["n_gap_filled"]}


def _count_lattice(args, kwargs, graph):
    return {"n_nodes": graph.n_nodes, "n_edges": graph.n_edges}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_solve(args, kwargs, field):
    system = _arg(args, kwargs, 0, "sys")
    n_u = system.n_unseeded
    iters = sum(int(s.iterations) for s in field.stats)
    # computed, not measured: per PCG iteration one CSR matvec (8-byte value
    # + 4-byte index per nonzero) and 25 passes over 8-byte n-vectors
    # (matvec in/out 2, two dots 4, two axpys with temporaries 10, Jacobi
    # scaling 3, direction update 5, norm 1)
    return {
        "iterations": iters,
        "n_unseeded": n_u,
        "solve_bytes_est": iters * (12 * system.L_U.nnz + 200 * n_u),
    }


def _count_read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_write(args, kwargs, result):
    return {"bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path"))}


#: (module, attribute looked up by voxprop's callers, span name, counter)
TARGETS = (
    ("voxprop.propagate", "propagate", "propagate.propagate", _count_propagate),
    ("voxprop.propagate", "propagate_bilateral", "propagate.propagate_bilateral", _count_bilateral),
    ("voxprop.propagate", "strip_conflicts", "volume.strip_conflicts", None),
    ("voxprop.propagate", "argmax_labels", "volume.argmax_labels", None),
    ("voxprop.propagate", "build_lattice", "lattice.build_lattice", _count_lattice),
    ("voxprop.propagate", "connected_components", "lattice.connected_components", None),
    ("voxprop.dirichlet", "connected_components", "lattice.connected_components", None),
    ("voxprop.propagate", "assemble", "dirichlet.assemble", None),
    ("voxprop.propagate", "solve_all", "dirichlet.solve_all", _count_solve),
    ("voxprop.nifti", "read_volume", "nifti.read_volume", _count_read),
    ("voxprop.nifti", "read_annotation", "nifti.read_annotation", None),
    ("voxprop.nifti", "write_volume", "nifti.write_volume", _count_write),
    ("voxprop.cli", "propagate", "propagate.propagate", _count_propagate),
    ("voxprop.cli", "majority_vote", "fusion.majority_vote", None),
    ("voxprop.cli", "build_eval_mask", "fusion.build_eval_mask", None),
    ("voxprop.cli", "dice_report", "fusion.dice_report", None),
    ("voxprop.cli", "make_phantom", "phantom.make_phantom", None),
)


def _wrap(rec: Recorder, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name) as sp:
            result = fn(*args, **kwargs)
            if counter is not None:
                sp["counts"] = counter(args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(rec: Recorder):
    """Route the calls listed in TARGETS through `rec` while active.

    Only modules already imported are patched; a target that no longer
    exists is skipped, so its span is simply absent.
    """
    saved = []
    try:
        for module, attr, name, counter in TARGETS:
            mod = sys.modules.get(module)
            if mod is None or not hasattr(mod, attr):
                continue
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(rec, fn, name, counter))
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# --- per-layer metrics ---------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part covered by its direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child.get(s["id"], 0.0) for s in spans}


#: metric -> (unit, "higher"/"lower"); the order is the order printed.
PER_LAYER = {
    "dirichlet.solve_s": ("s", "lower"),
    "dirichlet.assemble_s": ("s", "lower"),
    "dirichlet.iterations": ("count", "lower"),
    "dirichlet.n_unseeded": ("count", "lower"),
    "dirichlet.solve_bytes_est": ("bytes", "lower"),
    "dirichlet.self_s": ("s", "lower"),
    "lattice.build_s": ("s", "lower"),
    "lattice.build_calls": ("count", "lower"),
    "lattice.components_s": ("s", "lower"),
    "lattice.components_calls": ("count", "lower"),
    "lattice.n_nodes": ("count", "lower"),
    "lattice.n_edges": ("count", "lower"),
    "lattice.self_s": ("s", "lower"),
    "volume.strip_conflicts_s": ("s", "lower"),
    "volume.argmax_s": ("s", "lower"),
    "volume.self_s": ("s", "lower"),
    "propagate.total_s": ("s", "lower"),
    "propagate.self_s": ("s", "lower"),
    "propagate.bilateral_s": ("s", "lower"),
    "propagate.seedless_voxels": ("count", "lower"),
    "propagate.filled_voxels": ("count", "lower"),
    "nifti.read_s": ("s", "lower"),
    "nifti.write_s": ("s", "lower"),
    "nifti.bytes_read": ("bytes", "lower"),
    "nifti.bytes_written": ("bytes", "lower"),
    "nifti.self_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.propagate_s": ("s", "lower"),
    "cli.fuse_s": ("s", "lower"),
    "cli.evaluate_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "fusion.majority_vote_s": ("s", "lower"),
    "fusion.dice_report_s": ("s", "lower"),
    "fusion.self_s": ("s", "lower"),
    "phantom.make_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.spans_per_op": ("count", "lower"),
}

#: inclusive time of every call to one function, summed per operation
_INCLUSIVE = {
    "dirichlet.solve_s": "dirichlet.solve_all",
    "dirichlet.assemble_s": "dirichlet.assemble",
    "lattice.build_s": "lattice.build_lattice",
    "lattice.components_s": "lattice.connected_components",
    "volume.strip_conflicts_s": "volume.strip_conflicts",
    "volume.argmax_s": "volume.argmax_labels",
    "nifti.read_s": "nifti.read_volume",
    "nifti.write_s": "nifti.write_volume",
    "cli.propagate_s": "cli.propagate",
    "cli.fuse_s": "cli.fuse",
    "cli.evaluate_s": "cli.evaluate",
    "fusion.majority_vote_s": "fusion.majority_vote",
    "fusion.dice_report_s": "fusion.dice_report",
}
_CALLS = {
    "lattice.build_calls": "lattice.build_lattice",
    "lattice.components_calls": "lattice.connected_components",
}
_COUNTS = {
    "dirichlet.iterations": "iterations",
    "dirichlet.n_unseeded": "n_unseeded",
    "dirichlet.solve_bytes_est": "solve_bytes_est",
    "lattice.n_nodes": "n_nodes",
    "lattice.n_edges": "n_edges",
    "propagate.seedless_voxels": "seedless_voxels",
    "propagate.filled_voxels": "filled_voxels",
    "nifti.bytes_read": "bytes_read",
    "nifti.bytes_written": "bytes_written",
}
LAYERS = ("dirichlet", "lattice", "volume", "propagate", "nifti", "cli", "fusion", "bench")


def op_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one operation (every span of one op id)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out = {k: 0.0 for k in PER_LAYER}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        for metric, fn in _INCLUSIVE.items():
            if name == fn:
                out[metric] += dur
        for metric, fn in _CALLS.items():
            if name == fn:
                out[metric] += 1
        for metric, key in _COUNTS.items():
            out[metric] += s["counts"].get(key, 0)
        layer = layer_of(name)
        if layer in LAYERS:
            out[f"{layer}.self_s"] += own[s["id"]]
        parent = by_id.get(s["parent"])
        if layer == "propagate" and (parent is None or layer_of(parent["name"]) != "propagate"):
            out["propagate.total_s"] += dur
        if name == "propagate.propagate_bilateral":
            out["propagate.bilateral_s"] += own[s["id"]]
    imports = [s["end"] - s["start"] for s in spans if s["name"] == "cli.import"]
    if imports:
        out["cli.import_s"] = statistics.fmean(imports)
    out["trace.self_sum_s"] = sum(own.values())
    out["trace.spans_per_op"] = len(spans)
    return out


def layer_report(spans, traced_walls, untraced_walls) -> dict[str, float]:
    """Mean per-operation layer metrics over the traced operations.

    Means (not medians) keep the identity sum(layer self times) =
    trace.wall_s exact; trace.overhead_s is the mean traced wall time minus
    the mean untraced one, measured in the same run.
    """
    ops = sorted({s["op"] for s in spans if s["op"] != "setup"})
    per_op = [op_metrics([s for s in spans if s["op"] == op]) for op in ops]
    out = {k: statistics.fmean(m[k] for m in per_op) if per_op else 0.0 for k in PER_LAYER}
    makes = [s["end"] - s["start"] for s in spans if s["name"] == "phantom.make_phantom"]
    out["phantom.make_s"] = statistics.median(makes) if makes else 0.0
    out["trace.wall_s"] = statistics.fmean(traced_walls)
    out["trace.untraced_wall_s"] = statistics.fmean(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out
