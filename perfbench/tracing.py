"""Spans and counts around the calls into each octorail layer.

The wrappers live here, not in the package: ``install`` replaces a function
by a traced wrapper in every module that holds a reference to it, and
``uninstall`` puts the originals back.  Functions that a module imports at
call time (``scipy.sparse.csr_matrix``, ``scipy.sparse.csgraph.dijkstra``,
``networkx.min_weight_matching``, ``scipy.optimize.least_squares``) are
wrapped in their own module, which is where the caller looks them up.

Each span records its name, start, end and parent span.  Spans are kept in
flat arrays while the run lasts and written out once, at its end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span store with per-name call counts, total and self time."""

    def __init__(self):
        self.enabled = False
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, time covered by child spans]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.t0 = time.perf_counter()

    def current(self):
        """Name of the innermost open span, or None."""
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1][0]]]

    def open(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(time.perf_counter())
        return index

    def close(self, index):
        end = time.perf_counter()
        top, child_s = self._stack.pop()
        if top != index:
            raise RuntimeError("spans closed out of order")
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def write(self, path):
        """Write every span as columns of one compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_s=np.frombuffer(self.span_start) - self.t0,
            end_s=np.frombuffer(self.span_end) - self.t0)


def _wrap(tracer, fn, name, after=None):
    """Traced stand-in for ``fn``.  ``name`` is a span name or a function
    of the tracer that returns one; ``after(tracer, args, kwargs, result)``
    adds counts once the call has returned."""

    @functools.wraps(fn, updated=())
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        index = tracer.open(name if isinstance(name, str) else name(tracer))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced


def _count_trials(tracer, args, kwargs, result):
    tracer.counts["surface.trials"] += result.trials


def _count_defects(tracer, args, kwargs, result):
    defects = args[0] if args else kwargs["defects"]
    if defects:
        tracer.counts["surface.decoded_trials"] += 1
        tracer.counts["surface.defects"] += len(defects)


def _count_converged(tracer, args, kwargs, result):
    tracer.counts["gates.converged_starts"] += bool(result.success)


def _dijkstra_name(tracer):
    # the boundary pass runs in memory_experiment itself, the defect
    # distances inside decode_matching
    if tracer.current() == "surface.decode_matching":
        return "surface.decode_dijkstra"
    return "surface.boundary_dijkstra"


#: (module, attribute, span name, count hook).  A target missing from the
#: program is skipped, so its metrics read 0.
TARGETS = (
    ("octorail.surface", "memory_experiment", "surface.memory_experiment",
     _count_trials),
    ("octorail.surface", "_flip_weights", "surface.flip_weights", None),
    ("scipy.sparse", "csr_matrix", "surface.graph_build", None),
    ("scipy.sparse.csgraph", "dijkstra", _dijkstra_name, None),
    ("octorail.surface", "_path_crossings", "surface.path_crossings", None),
    ("octorail.surface", "decode_matching", "surface.decode_matching",
     _count_defects),
    ("octorail.surface", "_exhaustive_pairing", "surface.pairing_exhaustive",
     None),
    ("networkx", "min_weight_matching", "surface.pairing_blossom", None),
    ("octorail.networks", "x_block", "networks.x_block", None),
    ("octorail.gates", "induced_gate", "gates.induced_gate", None),
    ("scipy.optimize", "least_squares", "gates.least_squares",
     _count_converged),
    ("octorail.exact", "solve_exact", "exact.solve_exact", None),
    ("octorail.surface", "macronode_model", "surface.macronode_model", None),
    ("octorail.surface", "verify_relation", "surface.verify_relation", None),
    ("octorail.surface", "_solve_displacement", "surface.record_solver", None),
    ("octorail.permutations", "_closure", "permutations.closure", None),
    ("octorail.permutations", "cosets", "permutations.cosets", None),
    ("octorail.permutations", "basis_transform",
     "permutations.basis_transform", None),
    ("octorail.gkp", "_bell_amplitude", "gkp.bell_amplitude", None),
    ("octorail.gkp", "qunaught_amplitude", "gkp.qunaught_amplitude", None),
    ("octorail.gkp", "magic_probe_single", "gkp.magic_probe_single", None),
    ("octorail.gkp", "_damping_kernel", "gkp.damping_kernel", None),
)


def install(tracer):
    """Wrap every target; returns the (module, attribute, original) triples
    that ``uninstall`` restores."""
    replaced = []
    for module_name, attr, name, after in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        traced = _wrap(tracer, original, name, after)
        holders = [module] + [m for key, m in sys.modules.items()
                              if key.split(".")[0] == "octorail"]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
                    replaced.append((holder, key, original))
    return replaced


def uninstall(replaced):
    for holder, key, original in reversed(replaced):
        setattr(holder, key, original)
