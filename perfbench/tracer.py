"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: the tracer replaces attributes
on egsolve's modules and classes with timing wrappers and puts the originals
back afterwards. A span is (name, start, end, parent). Each thread keeps its
own parent stack and its own span buffers, because fig4 cells run in the
CLI's pool threads; a pool cell's parent is the pool span of the thread that
submitted it.

Span ids are ``local_index * MAX_THREADS + thread_slot``, so a span's id is
its position in its thread's buffers and never has to be stored.
"""
from __future__ import annotations

import threading
import time
from array import array
from collections import Counter

MAX_THREADS = 1024
_clock = time.perf_counter


class _ThreadBuf:
    __slots__ = ("slot", "names", "parents", "times", "stack")

    def __init__(self, slot: int):
        self.slot = slot
        self.names = array("H")      # name id per span
        self.parents = array("q")    # parent span id, -1 for a root span
        self.times = array("d")      # start, end per span
        self.stack: list = []        # ids of the open spans, innermost last


class Tracer:
    """Collects spans and event counts until the run ends."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._bufs: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list = []
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def id_of(self, name: str):
        """Id of a recorded span name, None if no span had that name."""
        return self._ids.get(name)

    def _buf(self) -> _ThreadBuf:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                if len(self._bufs) >= MAX_THREADS:
                    raise RuntimeError(f"more than {MAX_THREADS} traced threads")
                b = _ThreadBuf(len(self._bufs))
                self._bufs.append(b)
            self._local.buf = b
            return b

    def current(self) -> int:
        """Id of the innermost open span of the calling thread, -1 if none."""
        st = self._buf().stack
        return st[-1] if st else -1

    def begin(self, nid: int, parent: int = None):
        b = self._buf()
        i = len(b.names)
        b.names.append(nid)
        b.parents.append((b.stack[-1] if b.stack else -1) if parent is None else parent)
        b.stack.append(i * MAX_THREADS + b.slot)
        b.times.append(_clock())
        b.times.append(0.0)
        return b, i

    @staticmethod
    def end(token) -> None:
        b, i = token
        b.times[2 * i + 1] = _clock()
        b.stack.pop()

    def add(self, key: str, n) -> None:
        with self._lock:
            self.counts[key] += n

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str):
        """Record one span named `name` around every call of fn."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            tok = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(tok)
        return traced

    def wrap_keyed(self, fn, prefix: str, key_of):
        """Like wrap, with the span name `prefix.<key_of(args)>` per call."""
        ids: dict = {}
        begin, end, name_id = self.begin, self.end, self.name_id

        def traced(*args, **kwargs):
            key = key_of(args)
            nid = ids.get(key)
            if nid is None:
                nid = ids[key] = name_id(f"{prefix}.{key}")
            tok = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(tok)
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------

    def spans(self):
        """All spans as numpy arrays: name id, parent row, duration, self time.

        `parent` is the parent's row in these arrays (-1 for a root span) and
        `self_s` is the span's duration minus the durations of its children.
        """
        import numpy as np

        names, parents, durs, ids = [], [], [], []
        for b in self._bufs:
            if b.stack:
                raise RuntimeError("spans still open at read-out")
            n = len(b.names)
            tt = np.frombuffer(b.times, dtype=np.float64).reshape(n, 2)
            names.append(np.frombuffer(b.names, dtype=np.uint16).astype(np.int64))
            parents.append(np.frombuffer(b.parents, dtype=np.int64))
            durs.append(tt[:, 1] - tt[:, 0])
            ids.append(np.arange(n, dtype=np.int64) * MAX_THREADS + b.slot)
        name = np.concatenate(names) if names else np.zeros(0, dtype=np.int64)
        pid = np.concatenate(parents) if names else np.zeros(0, dtype=np.int64)
        dur = np.concatenate(durs) if names else np.zeros(0)
        gid = np.concatenate(ids) if names else np.zeros(0, dtype=np.int64)
        order = np.argsort(gid)
        has_parent = pid >= 0
        parent = np.full(name.shape, -1, dtype=np.int64)
        parent[has_parent] = order[np.searchsorted(gid[order], pid[has_parent])]
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        return {"name": name, "parent": parent, "dur": dur, "self_s": dur - child}
