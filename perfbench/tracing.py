"""In-memory span recorder for the traced run.

Spans are recorded at layer boundaries by wrapping public functions under
the name their caller looks them up by (``qndprep.protocol.sample_outcome``
is the binding ``run_protocol``'s sequences call), and by the benchmark
around its own calls into the package (the engines, ``cli.main`` and
``povm_projector_discrepancy``).  Each span keeps its name, parent,
start and end; self time is a span's duration minus its children's.  The
spans stay in memory until ``dump`` writes them out after the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[Tuple[int, float]] = []  # (span index, child seconds)
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self._patched: List[Tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append((idx, 0.0))
        self.start.append(time.perf_counter())
        return idx

    def _close(self, name: str):
        t = time.perf_counter()
        idx, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            pidx, pchild = self._stack[-1]
            self._stack[-1] = (pidx, pchild + dur)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name)

        return traced

    def patch(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each (module, attr, span name)."""
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: str):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )


class NullTracer:
    """Stands in for ``Tracer`` in the untraced run: records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


def layer_targets(qndprep) -> list:
    """(caller module, attribute, span name) for every layer boundary traced."""
    fock, measurement, protocol, analysis, cli = (
        qndprep.fock, qndprep.measurement, qndprep.protocol, qndprep.analysis, qndprep.cli)
    out = []
    for module in (fock, protocol, analysis, cli):
        out.append((module, "rotation_matrix", "fock.rotation_matrix"))
    for module in (measurement, protocol, analysis):
        out.append((module, "to_measurement_frame", "measurement.frame"))
        out.append((module, "from_measurement_frame", "measurement.frame"))
    out += [
        (protocol, "sample_outcome", "measurement.sample_outcome"),
        (measurement, "outcome_probabilities", "measurement.outcome_probabilities"),
        (measurement, "projector_apply", "measurement.projector_apply"),
        (cli, "projector_apply", "measurement.projector_apply"),
        (protocol, "apply_correction", "protocol.apply_correction"),
        (protocol, "repeat_until_success", "protocol.repeat_until_success"),
        (analysis, "run_protocol", "protocol.run_protocol"),
        (cli, "fock_grid", "analysis.fock_grid"),
    ]
    return out
