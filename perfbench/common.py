"""Shared helpers of the benchmark: spans, statistics, correctness checks.

Everything here is benchmark-side: spans are recorded around calls *into*
the library from the benchmark's own files, never inside it.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time

import numpy as np

clock = time.perf_counter

#: Relative-residual ceiling every fp64 solution must meet.
RESIDUAL_TOL = 1e-10

#: Worker threads or processes: the box has two cores, no workload uses more.
WORKERS = 2


class Recorder:
    """In-memory span tree, kept as parallel lists (name, start, end,
    parent index) so that hundreds of thousands of spans add no objects
    for the garbage collector to walk.

    Spans are recorded on the benchmark's own thread only, so children nest
    strictly inside their parent and a span's self time is its duration
    minus its children's durations.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    def open(self, name):
        """Start a span without a ``with`` block (cheaper, for per-supernode
        calls); returns the index :meth:`close` takes."""
        idx = len(self.names)
        stack = self._stack
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(clock())
        return idx

    def close(self, idx):
        self.ends[idx] = clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def call(self, name, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    def duration(self, idx):
        return self.ends[idx] - self.starts[idx]

    def durations(self, name):
        """Durations of every span called ``name``."""
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends)
                if n == name]

    def span_cost(self, n=20000):
        """Seconds one :meth:`open`/:meth:`close` pair adds to the run,
        measured here; the calibration spans are discarded."""
        base = len(self.names)
        t0 = clock()
        for _ in range(n):
            self.close(self.open("calibration"))
        cost = (clock() - t0) / n
        for column in (self.names, self.starts, self.ends, self.parents):
            del column[base:]
        return cost

    def self_times(self, root=None, cost=0.0):
        """``{name: total self seconds}`` over the subtree of span ``root``
        (the root excluded), or over every span when ``root`` is None.
        ``cost`` (see :meth:`span_cost`) is taken off once per span, so the
        recording overhead of many small spans does not count as work."""
        first = 0 if root is None else root + 1
        inside = None if root is None else {root}
        child_sum = {}
        picked = []
        for idx in range(first, len(self.names)):
            parent = self.parents[idx]
            if inside is not None:
                if parent not in inside:
                    continue
                inside.add(idx)
            dur = self.ends[idx] - self.starts[idx]
            child_sum[parent] = child_sum.get(parent, 0.0) + dur
            picked.append((idx, dur))
        totals = {}
        for idx, dur in picked:
            name = self.names[idx]
            own = dur - child_sum.get(idx, 0.0) - cost
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def origin(self):
        return self.starts[0] if self.starts else 0.0

    def to_tracer(self, tracer, origin, lane="bench"):
        """Copy the spans onto ``lane`` of a :class:`repro.gpu.trace.Tracer`
        (seconds since ``origin``); nesting shows by time containment."""
        for name, start, end in zip(self.names, self.starts, self.ends):
            tracer.record(lane, name, start - origin, end - origin)


class Tally:
    """Attempted / failed operation counts with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def ok(self):
        self.attempted += 1

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, passed, reason):
        """Count one checked operation; a failed check is a failure."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed


def percentile(values, q):
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100); NaN when
    there are no samples, e.g. when every operation of a kind failed."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values):
    """Median; NaN when there are no samples."""
    if len(values) == 0:
        return float("nan")
    return float(statistics.median(values))


def stop_children():
    """Stop and reap every helper process the run started, so none outlives
    it: live ``multiprocessing`` children, and the shared-memory resource
    tracker that ``ProcessPool`` starts, which would otherwise linger after
    this process exits until it sees its pipe close."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def full_matrix(A):
    """``A`` (lower-triangle :class:`SymmetricCSC`) as a full SciPy CSR
    matrix, built here from the raw arrays so the residual check does not
    go through the library's own matvec."""
    from scipy.sparse import csc_matrix

    L = csc_matrix((A.data, A.indices, A.indptr), shape=(A.n, A.n))
    return (L + L.T - csc_matrix((A.data[A.indptr[:-1]],
                                  (np.arange(A.n), np.arange(A.n))),
                                 shape=(A.n, A.n))).tocsr()


def relative_residual(S, x, b, Ws=()):
    """``||b - (S + sum W W^T) x|| / ||b||`` for a full sparse ``S``."""
    r = b - S @ x
    for W in Ws:
        r -= W @ (W.T @ x)
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def same_bits(a, b):
    """Bitwise equality of two arrays (dtype, shape and every byte)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def same_panels(storage_a, storage_b):
    """Bitwise equality of two factor storages, panel by panel."""
    pa, pb = storage_a.panels, storage_b.panels
    return len(pa) == len(pb) and all(same_bits(p, q) for p, q in zip(pa, pb))


def peak_rss_mb():
    """Peak resident set of this process plus its largest reaped child,
    in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def edge_updates(A, rng, count, rank, scale=0.3):
    """``count`` rank-``rank`` modification matrices ``W`` (n x rank) for
    ``A + W W^T``.  Each column couples the two ends of a random stored
    off-diagonal entry of ``A`` (an added spring between connected nodes),
    which never creates fill: for ``i < j`` in any ordering, ``A[j, i] != 0``
    puts ``j`` in the structure of factor column ``i``."""
    cols = np.repeat(np.arange(A.n), np.diff(A.indptr))
    off = np.flatnonzero(A.indices != cols)
    out = []
    for _ in range(count):
        W = np.zeros((A.n, rank))
        picks = rng.choice(off, size=rank, replace=False)
        for r, t in enumerate(picks):
            W[A.indices[t], r] = scale * (1.0 + rng.random())
            W[cols[t], r] = scale * (rng.random() - 0.5)
        out.append(W)
    return out
