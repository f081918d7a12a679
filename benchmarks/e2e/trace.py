"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`Tracer` installs class-level timing wrappers around the public
callables of each layer (the :data:`TARGETS` table) and removes them
afterwards; nothing under ``src/`` changes.  Each call records one span:
name, start, end, parent span and process.  A span's self time is its
duration minus its children's durations.  Spans stay in memory and are
written as JSON when the run ends, with a per-layer table of calls,
busy time, self time and share of the traced wall time.

Per-ping ingest is not wrapped (a span would cost about as much as the
ingest itself); the driver opens one ``stream.ingest`` span around each
window's ingest loop instead.

Serve workers are forked after the wrappers are installed, so they
record their own spans.  A wrapper on the worker's ``apply_command``
names each command's span and, on a ``stats`` command, hands the
worker's spans back inside the stats payload (:data:`WORKER_KEY`), which
:meth:`Tracer.absorb` merges into the frontend's timeline.  Spans in
different processes share ``perf_counter``'s monotonic clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["TARGETS", "WORKER_KEY", "Tracer"]

#: (layer, module, attribute) of every wrapped callable.  Functions are
#: patched in every module that calls them by a bare name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("processing.sanitize", "repro.pipeline.lead", "sanitize_trajectory"),
    ("processing.noise_filter", "repro.processing.noise",
     "NoiseFilter.filter"),
    ("processing.staypoints", "repro.processing.staypoints",
     "StayPointExtractor.extract"),
    ("processing.candidates", "repro.processing.candidates",
     "CandidateGenerator.generate"),
    ("processing.candidates", "repro.processing.pipeline",
     "extract_move_points"),
    ("processing.candidates", "repro.stream.session", "extract_move_points"),
    ("features", "repro.features.sequences",
     "CandidateFeaturizer.segment_features"),
    ("encoding", "repro.encoding.autoencoder",
     "HierarchicalAutoencoder.encode_trajectories"),
    ("detection.score", "repro.detection.detectors",
     "GroupDetector.score_indexed"),
    ("detection.merge", "repro.pipeline.lead", "merge_distributions"),
    ("pipeline", "repro.pipeline.lead", "LEAD.detect_batch"),
    ("pipeline", "repro.pipeline.lead", "LEAD.detect_many"),
    ("stream.tick", "repro.stream.fleet", "FleetSessionManager.tick"),
    ("stream.flush", "repro.stream.fleet", "FleetSessionManager.flush_all"),
    ("stream.snapshot", "repro.stream.session", "TruckSession.snapshot"),
    ("serve.submit", "repro.serve.service", "FleetService.submit"),
    ("serve.wait", "repro.serve.service", "FleetService.wait"),
    ("serve.drain", "repro.serve.service", "FleetService.drain"),
)

#: Key under which a traced serve worker returns its spans in ``stats``.
WORKER_KEY = "bench_trace"

_MISSING = object()


def _candidates_encoded(args) -> int:
    """Work count of ``encode_trajectories(self, stays, moves, pairs)``."""
    return sum(len(pairs) for pairs in args[3])


_COUNTS = {"HierarchicalAutoencoder.encode_trajectories": _candidates_encoded}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self._reset()
        self._patched: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self._name = array("i")
        self._parent = array("q")
        self._pidcol = array("q")
        self._count = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []

    # -- recording ------------------------------------------------------
    def _intern(self, name: str, layer: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return key

    def _claim(self) -> None:
        """In a freshly forked worker, drop the parent's copied spans."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._reset()

    def _enter(self, name_id: int) -> int:
        self._claim()
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._pidcol.append(self._pid)
        self._count.append(0)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _exit(self, index: int, count: int = 0) -> None:
        self._end[index] = time.perf_counter()
        self._count[index] = count
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span around a block of the benchmark's own code."""
        index = self._enter(self._intern(name, layer))
        try:
            yield
        finally:
            self._exit(index)

    # -- wrappers -------------------------------------------------------
    def _wrapped(self, fn, name: str, layer: str):
        name_id = self._intern(name, layer)
        count = _COUNTS.get(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index, count(args) if count is not None else 0)
        return wrapper

    def _worker_wrapped(self, fn):
        """``apply_command`` wrapper: names spans, ships them on stats."""
        tracer = self

        @functools.wraps(fn)
        def apply_command(manager, command):
            kind = command[0]
            if kind == "stats":
                payload = fn(manager, command)
                payload[WORKER_KEY] = tracer.take()
                return payload
            layer = "stream.ingest" if kind == "ingest" else "serve.worker"
            index = tracer._enter(tracer._intern(f"serve.worker.{kind}",
                                                 layer))
            try:
                return fn(manager, command)
            finally:
                tracer._exit(index)
        return apply_command

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every target (and the serve worker's command loop)."""
        for layer, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            self._patch(owner, attr,
                        self._wrapped(getattr(owner, attr), path, layer))
        worker = importlib.import_module("repro.serve.worker")
        self._patch(worker, "apply_command",
                    self._worker_wrapped(worker.apply_command))
        return self

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- cross-process merge ------------------------------------------------
    def take(self) -> dict:
        """This process's finished spans as plain lists, then forget them."""
        self._claim()
        payload = {"names": list(self.names), "layers": list(self.layers),
                   "name": self._name.tolist(),
                   "parent": self._parent.tolist(),
                   "pid": self._pidcol.tolist(),
                   "count": self._count.tolist(),
                   "start": self._start.tolist(), "end": self._end.tolist()}
        self._reset()
        return payload

    def absorb(self, payload: dict) -> None:
        """Append spans another process handed over with :meth:`take`."""
        remap = [self._intern(n, lay)
                 for n, lay in zip(payload["names"], payload["layers"])]
        offset = len(self._start)
        self._name.extend(remap[k] for k in payload["name"])
        self._parent.extend(p + offset if p >= 0 else -1
                            for p in payload["parent"])
        self._pidcol.extend(payload["pid"])
        self._count.extend(payload["count"])
        self._start.extend(payload["start"])
        self._end.extend(payload["end"])

    # -- analysis -------------------------------------------------------------
    def _columns(self):
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        layer_ids = np.array([self.layers.index(layer)
                              for layer in self.layers], dtype=np.int64)
        span_layer = layer_ids[np.frombuffer(self._name, dtype=np.int32)] \
            if len(self._start) else np.zeros(0, dtype=np.int64)
        return start, end, parent, span_layer

    def layer_table(self, wall_s: float) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy time, self time, share of wall, count.

        Busy time sums the spans whose parent is in another layer, so a
        layer's nested calls are not counted twice; self time subtracts
        every child span.  Worker spans run beside the frontend, so on
        ``serve-eod`` the shares can add up to more than 1.
        """
        start, end, parent, span_layer = self._columns()
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        outer = ~nested
        outer[nested] = span_layer[parent[nested]] != span_layer[nested]
        counts = np.frombuffer(self._count, dtype=np.int64)
        table: dict[str, dict[str, float]] = {}
        for layer in sorted(set(self.layers)):
            mask = span_layer == self.layers.index(layer)
            if not mask.any():
                continue
            table[layer] = {
                "calls": int(mask.sum()),
                "busy_s": float(duration[mask & outer].sum()),
                "self_s": float(own[mask].sum()),
                "share": float(own[mask].sum() / wall_s),
                "count": int(counts[mask].sum()),
            }
        return table

    def coverage(self, wall_s: float) -> float:
        """Share of this process's wall time inside top-level spans."""
        start, end, parent, _ = self._columns()
        pids = np.frombuffer(self._pidcol, dtype=np.int64)
        roots = (parent < 0) & (pids == os.getpid())
        return float((end[roots] - start[roots]).sum() / wall_s)

    def dump(self, path: Path, wall_s: float, meta: dict) -> Path:
        """Write the spans and the per-layer table as one JSON file."""
        start, end, parent, _ = self._columns()
        origin = float(start.min()) if len(start) else 0.0
        root = np.arange(len(parent))
        for i in np.flatnonzero(parent >= 0):
            root[i] = root[parent[i]]     # parents precede their children
        payload = {
            **meta,
            "wall_s": wall_s,
            "coverage": self.coverage(wall_s),
            "layers": self.layer_table(wall_s),
            "spans": {
                "names": self.names, "span_layers": self.layers,
                "name": self._name.tolist(), "parent": parent.tolist(),
                "root": root.tolist(), "pid": self._pidcol.tolist(),
                "count": self._count.tolist(),
                "start_s": np.round(start - origin, 7).tolist(),
                "end_s": np.round(end - origin, 7).tolist(),
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return path
