"""Span tracing of the solver's layers, installed from outside the package.

:class:`Tracer` replaces selected functions of ``submodqp`` with wrappers that
record one span (name, start, end, parent) per call, plus the counts that
only a call's arguments or result reveal (box-QP iterations, chain lengths,
binary dimension).  Each function is wrapped at the name its callers look it
up by, so the solver itself is unchanged.  Leaving the ``with`` block puts
every original function back.

Spans are kept in flat typed arrays, because one traced solve of the larger
workloads makes several hundred thousand Cholesky calls.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from submodqp import boxqp, model, pathtrace, sfm
from submodqp.cholesky import UpdatableCholesky

ROOT_SPAN = "sfm.solve_full"


def _count_split(counts, result):
    smap, bincost = result
    counts["lattice.binary_dim"] += smap.binary_dim
    counts["lattice.zero_cost_coords"] += int(np.count_nonzero(bincost.linear == 0.0))


def _count_chain(counts, result):
    counts["pathtrace.stages"] += len(result.order)
    counts["pathtrace.breakpoints"] += len(result.breakpoints)


def _count_boxqp(counts, result):
    counts["boxqp.iterations"] += result.iterations


# (owner, attribute, span name, layer, result counter)
WRAPPED = (
    (model, "compile_instance", "model.compile_instance", "model", None),
    (sfm, "split", "lattice.split", "lattice", _count_split),
    (sfm, "greedy_subgradient", "sfm.greedy_subgradient", "sfm", None),
    (sfm.IndicatorOracle, "chain", "sfm.IndicatorOracle.chain", "sfm", None),
    (sfm.IndicatorOracle, "eval", "sfm.IndicatorOracle.eval", "sfm", None),
    (pathtrace, "chain_general", "pathtrace.chain_general", "pathtrace", _count_chain),
    (pathtrace, "chain_nonnegative", "pathtrace.chain_nonnegative", "pathtrace", _count_chain),
    (pathtrace, "trace_path", "pathtrace.trace_path", "pathtrace", None),
    (boxqp, "solve", "boxqp.solve", "boxqp", _count_boxqp),
    (UpdatableCholesky, "insert", "cholesky.insert", "cholesky", None),
    (UpdatableCholesky, "remove", "cholesky.remove", "cholesky", None),
    (UpdatableCholesky, "solve", "cholesky.solve", "cholesky", None),
)

LAYER_OF = {name: layer for _, _, name, layer, _ in WRAPPED}
LAYER_OF[ROOT_SPAN] = "sfm"


def originals():
    """The objects currently bound at every wrapped name."""
    return {name: owner.__dict__[attr] for owner, attr, name, _, _ in WRAPPED}


class Tracer:
    """Records spans while active; ``with Tracer() as t:`` installs the wrappers."""

    def __init__(self):
        self.names = [ROOT_SPAN] + [name for _, _, name, _, _ in WRAPPED]
        self._name_id = {name: k for k, name in enumerate(self.names)}
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts = {
            "lattice.binary_dim": 0,
            "lattice.zero_cost_coords": 0,
            "pathtrace.stages": 0,
            "pathtrace.breakpoints": 0,
            "boxqp.iterations": 0,
        }
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, _, counter in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _open(self, name):
        idx = len(self.start)
        self.name_id.append(self._name_id[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper

    def solve(self, fn, *args, **kwargs):
        """Call ``fn`` (the benchmark's own call into ``sfm.solve_full``) as a root span."""
        idx = self._open(ROOT_SPAN)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int16).astype(np.intp)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        excl = np.bincount(ids, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "seconds": float(incl[i]), "self_seconds": float(excl[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        """Write every span to a compressed ``.npz`` (times relative to the first span)."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            start=start - t0,
            end=np.frombuffer(self.end, dtype=float) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def layer_self_seconds(summary):
    """Self seconds per layer, from :meth:`Tracer.summary`."""
    out = {}
    for name, row in summary.items():
        layer = LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + row["self_seconds"]
    return out
