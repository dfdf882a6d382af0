"""Per-layer measurements for the traced run.

Each function here drives one layer through its *public* functions from
the benchmark's side, inside :class:`common.Recorder` spans named after
the per-layer metric they feed, and checks the result against the layer's
own entry point:

* :func:`replay_analysis` — ``analyze``'s call sequence, stage by stage;
  ``perm`` and ``snptr`` must equal :func:`repro.analyze`'s.
* :func:`replay_rl` / :func:`replay_rlb` — the serial numeric loops built
  from ``factor_snode``/``snode_update``/``assemble_update`` and
  ``snode_blocks``/``compute_block_pair``/``commit_block_pair``; panels
  must be bitwise equal to ``factorize_rl_cpu``/``factorize_rlb_cpu``.
* :func:`replay_solve` — forward and backward sweeps; bitwise equal to
  ``Factor.solve``.
* probes of the executor, the process pool, the gateway, rank-k update,
  the modeled GPU clock and a dgemm rate reference.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

from common import WORKERS, clock, median, same_bits, same_panels


def permuted(plan, values):
    """The permuted system ``P A P^T`` holding same-pattern ``values``,
    sharing the analyzed matrix's structure arrays (so the plan's cached
    scatter plan applies)."""
    from repro.sparse.csc import SymmetricCSC

    B = plan.system.matrix
    return SymmetricCSC(B.n, B.indptr, B.indices,
                        np.asarray(values)[plan.gather], check=False)


#: Engine runs and replays, alternated, per numeric loop in a traced run.
REPLAY_PAIRS = 3

DENSE_SPANS = {
    "rl": ("numeric.rl.factor_snode", "numeric.rl.snode_update"),
    "rlb": ("numeric.rlb.factor_snode", "numeric.rlb.compute_pair"),
}


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
def replay_analysis(rec, A):
    """Replay :func:`repro.symbolic.analyze.analyze` (default options) with
    one span per stage.  Returns ``(perm, B, symb)``."""
    from repro.ordering import order_matrix
    from repro.sparse.permute import compose_permutations, symmetric_permute
    from repro.symbolic.amalgamate import amalgamate
    from repro.symbolic.colcounts import column_counts
    from repro.symbolic.etree import elimination_tree, postorder
    from repro.symbolic.partition_refinement import partition_refinement
    from repro.symbolic.structure import symbolic_factorization
    from repro.symbolic.supernodes import fundamental_supernodes

    c = rec.call
    perm = c("ordering.nd", order_matrix, A, "nd")
    B = c("symbolic.permute", symmetric_permute, A, perm)
    parent = c("symbolic.etree", elimination_tree, B)
    post = c("symbolic.etree", postorder, parent)
    perm = c("symbolic.permute", compose_permutations, post, perm)
    B = c("symbolic.permute", symmetric_permute, A, perm)
    parent = c("symbolic.etree", elimination_tree, B)
    counts = c("symbolic.colcounts", column_counts, B, parent)
    snptr = c("symbolic.supernodes", fundamental_supernodes, parent, counts,
              fundamental=True)
    symb = c("symbolic.symbfact", symbolic_factorization, B, snptr)
    snptr = c("symbolic.amalgamate", amalgamate, symb, growth_cap=0.25)
    symb = c("symbolic.symbfact", symbolic_factorization, B, snptr)
    rperm = c("symbolic.refine", partition_refinement, symb, method="best")
    perm = c("symbolic.permute", compose_permutations, rperm, perm)
    B = c("symbolic.permute", symmetric_permute, A, perm)
    symb = c("symbolic.symbfact", symbolic_factorization, B, snptr)
    return perm, B, symb


# ---------------------------------------------------------------------------
# numeric loops
# ---------------------------------------------------------------------------
class TimedAccumulator:
    """Wraps a :class:`~repro.numeric.result.CpuCostAccumulator`: every
    modeled-cost call runs in a ``<prefix>.bookkeeping`` span, and each
    BLAS call's real ``(kind, m, n, k)`` is logged for executed-work
    accounting."""

    def __init__(self, rec, acc, prefix, calls):
        self._rec = rec
        self._acc = acc
        self._name = prefix + ".bookkeeping"
        self.calls = calls

    def kernel(self, kind, m=0, n=0, k=0):
        self.calls.append((kind, m, n, k))
        idx = self._rec.open(self._name)
        self._acc.kernel(kind, m=m, n=n, k=k)
        self._rec.close(idx)

    def assembly(self, nbytes):
        idx = self._rec.open(self._name)
        self._acc.assembly(nbytes)
        self._rec.close(idx)

    def best(self):
        with self._rec.span(self._name):
            return self._acc.best()


def _accumulator(rec, prefix, storage, calls):
    from repro.gpu.costmodel import CPU_THREAD_CHOICES, MachineModel
    from repro.numeric.result import CpuCostAccumulator

    acc = CpuCostAccumulator(MachineModel(), CPU_THREAD_CHOICES,
                             assembly_threads=None,
                             itemsize=storage.itemsize)
    return TimedAccumulator(rec, acc, prefix, calls)


def replay_rl(rec, symb, M):
    """The serial RL loop of ``factorize_rl_cpu``.  Returns
    ``(storage, calls, assembly_bytes)``."""
    from repro.numeric.rl import (assemble_update, factor_snode,
                                  snode_update, update_workspace_entries)
    from repro.numeric.storage import FactorStorage

    storage = rec.call("numeric.storage.scatter", FactorStorage.from_matrix,
                       symb, M)
    calls = []
    acc = _accumulator(rec, "numeric.rl", storage, calls)
    bmax = int(np.sqrt(update_workspace_entries(symb))) if symb.nsup else 0
    W = (np.zeros((bmax, bmax), dtype=storage.dtype, order="F")
         if bmax else None)
    moved_total = 0
    begin, end = rec.open, rec.close
    for s in range(symb.nsup):
        idx = begin("numeric.rl.factor_snode")
        _, _, b = factor_snode(symb, storage, s, acc=acc)
        end(idx)
        if b:
            idx = begin("numeric.rl.snode_update")
            U = snode_update(symb, storage, s, W=W, acc=acc)
            end(idx)
            idx = begin("numeric.rl.assemble")
            moved = assemble_update(symb, storage, s, U)
            end(idx)
            acc.assembly(moved)
            moved_total += moved
    acc.best()
    return storage, calls, moved_total


def replay_rlb(rec, symb, M):
    """The serial RLB loop of ``factorize_rlb_cpu``.  Returns
    ``(storage, calls, block_pairs)``."""
    from repro.numeric.rl import factor_snode
    from repro.numeric.rlb import commit_block_pair, compute_block_pair
    from repro.numeric.storage import FactorStorage
    from repro.symbolic.blocks import snode_blocks

    storage = rec.call("numeric.storage.scatter", FactorStorage.from_matrix,
                       symb, M)
    calls = []
    acc = _accumulator(rec, "numeric.rlb", storage, calls)
    pairs = 0
    begin, end = rec.open, rec.close
    for s in range(symb.nsup):
        idx = begin("numeric.rlb.factor_snode")
        panel, w, b = factor_snode(symb, storage, s, acc=acc)
        end(idx)
        if not b:
            continue
        blocks = snode_blocks(symb, s)
        for i, bi in enumerate(blocks):
            for bj in blocks[i:]:
                idx = begin("numeric.rlb.compute_pair")
                u = compute_block_pair(panel, w, bi, bj, acc=acc)
                end(idx)
                idx = begin("numeric.rlb.commit_pair")
                commit_block_pair(symb, storage, bi, bj, u)
                end(idx)
                pairs += 1
    acc.best()
    return storage, calls, pairs


def executed_work(calls):
    """``(flops, bytes)`` of the logged BLAS calls at their real
    dimensions.  Flops use :mod:`repro.dense.flops`; bytes are *computed*
    from operand sizes (8 bytes per fp64 entry read or written, triangles
    counted whole), not measured traffic."""
    from repro.dense.flops import (gemm_flops, potrf_flops, syrk_flops,
                                   trsm_flops)

    flops = 0.0
    entries = 0
    for kind, m, n, k in calls:
        if kind == "potrf":
            flops += potrf_flops(n)
            entries += 2 * n * n
        elif kind == "trsm":
            flops += trsm_flops(m, n)
            entries += n * n + 2 * m * n
        elif kind == "syrk":
            flops += syrk_flops(n, k)
            entries += n * k + n * n
        elif kind == "gemm":
            flops += gemm_flops(m, n, k)
            entries += m * k + n * k + m * n
        else:
            raise ValueError(f"unknown kernel kind {kind!r}")
    return flops, 8.0 * entries


def numeric_layers(rec, plan, values, family):
    """Warm RL and RLB replays on ``plan`` with ``values`` next to the
    engines they replay.  Returns ``(metrics, ok, engine_results)`` where
    ``ok`` is True when both replays are bitwise equal to the engines and
    ``engine_results`` maps ``"rl"``/``"rlb"`` to the engine's result."""
    from repro.numeric.rl import factorize_rl_cpu
    from repro.numeric.rlb import factorize_rlb_cpu

    M = permuted(plan, values)
    symb = plan.symb
    out = {}
    ok = True
    results = {}
    cost = rec.span_cost()
    out["bench.span_cost_s"] = cost
    replays = {"rl": (replay_rl, factorize_rl_cpu),
               "rlb": (replay_rlb, factorize_rlb_cpu)}
    for name, (replay, engine) in replays.items():
        replay(rec, symb, M)  # cold pass: fills the lazy per-pattern caches
        # engine and replay alternate, so each pair sees the same host speed
        walls, owns = [], []
        for _ in range(REPLAY_PAIRS):
            t0 = clock()
            with rec.span(f"engine.{name}"):
                res = engine(symb, M)
            walls.append(clock() - t0)
            with rec.span(f"replay.{name}") as root:
                storage, calls, count = replay(rec, symb, M)
            ok &= same_panels(storage, res.storage)
            owns.append(rec.self_times(root, cost))
        results[name] = res
        prefix = f"numeric.{name}"
        parts = [n for n in owns[0] if n.startswith(prefix + ".")]
        for n in parts:
            out[n + "_s"] = median([own.get(n, 0.0) for own in owns])
        scatter = median([own["numeric.storage.scatter"] for own in owns])
        out[prefix + ".glue_s"] = median(
            [wall - own["numeric.storage.scatter"]
             - sum(own.get(n, 0.0) for n in parts)
             for wall, own in zip(walls, owns)])
        out[prefix + ".engine_s"] = median(walls)
        if name == "rl":
            out["numeric.rl.assembly_bytes"] = float(count)
        else:
            out["numeric.rlb.block_pairs"] = float(count)
        if name == family:
            flops, nbytes = executed_work(calls)
            busy = sum(out[n + "_s"] for n in DENSE_SPANS[name])
            out["dense.calls"] = float(len(calls))
            out["dense.flops_executed"] = flops
            out["dense.flops_dilated"] = float(res.flops)
            out["dense.bytes_computed"] = nbytes
            out["dense.busy_s"] = busy
            out["dense.gflops"] = flops / busy / 1e9
            out["numeric.storage.scatter_s"] = scatter
    return out, ok, results


def dgemm_probe_gflops(n=768, repeats=3):
    """Best-of-``repeats`` dgemm rate (GF/s) at ``n x n x n`` through the
    same SciPy BLAS the kernels use (768: three 4.7 MB operands, about
    0.9 GFLOP a call)."""
    from scipy.linalg.blas import dgemm

    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((n, n)))
    b = np.asfortranarray(rng.standard_normal((n, n)))
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        dgemm(1.0, a, b, trans_b=True)
        best = min(best, clock() - t0)
    return 2.0 * n ** 3 / best / 1e9


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------
def solve_flops(symb):
    """Flops of one forward plus one backward sweep for a single vector."""
    from repro.dense.flops import gemm_flops, trsm_flops

    total = 0.0
    for s in range(symb.nsup):
        m, w = symb.panel_shape(s)
        total += trsm_flops(1, w) + gemm_flops(m - w, 1, w)
    return 2.0 * total


def replay_solve(rec, factor, b):
    """Forward and backward sweeps of ``factor.solve(b)`` as two spans.
    Returns ``(x, bitwise_equal_to_solve)``."""
    from repro.solve.triangular import backward_solve, forward_solve

    perm = factor.plan.perm
    y = b[perm]
    rec.call("solve.forward", forward_solve, factor.storage, y,
             overwrite_b=True)
    rec.call("solve.backward", backward_solve, factor.storage, y,
             overwrite_y=True)
    x = np.empty_like(y)
    x[perm] = y
    return x, same_bits(x, factor.solve(b))


# ---------------------------------------------------------------------------
# task runtimes
# ---------------------------------------------------------------------------
def lane_stats(tracer, prefix):
    """``(tasks, busy_seconds)`` over tracer lanes named ``prefix*``."""
    lanes = [ln for ln in tracer.lane_names() if ln.startswith(prefix)]
    tasks = sum(len(tracer.by_lane(ln)) for ln in lanes)
    busy = sum(tracer.lane_busy(ln) for ln in lanes)
    return tasks, busy


def executor_probe(rec, plan, values, family, serial_s):
    """One traced ``factorize_batch`` on the threaded engine of the
    workload's family.  ``serial_s`` is the serial twin's seconds per
    matrix, for the speed-up."""
    from repro.gpu.trace import Tracer

    tracer = Tracer()
    engine = family + "_par"
    t0 = clock()
    with rec.span("probe.executor"):
        batch = plan.factorize_batch(values, engine=engine, workers=WORKERS,
                                     tracer=tracer)
    wall = clock() - t0
    tasks, busy = lane_stats(tracer, "repro-exec")
    return {
        "numeric.executor.tasks": float(tasks),
        "numeric.executor.busy_s": busy,
        "numeric.executor.idle_frac": 1.0 - busy / (WORKERS * wall),
        "numeric.executor.speedup_vs_serial": len(batch) * serial_s / wall,
    }, (tracer, t0)


def procpool_probe(rec, plan, values, family, serial_s):
    """Start a fresh process pool, warm it on the pattern, then time one
    traced factorization on it."""
    from repro.gpu.trace import Tracer
    from repro.numeric.procpool import ProcessPool, factorize_process

    if threading.active_count() != 1:
        raise RuntimeError("process pool probe needs a thread-free parent")
    M = permuted(plan, values)
    granularity = "coarse" if family == "rl" else "fine"
    tracer = Tracer()
    t0 = clock()
    with rec.span("probe.procpool.start"):
        pool = ProcessPool(WORKERS)
    start_s = clock() - t0
    try:
        with rec.span("probe.procpool.warm"):
            factorize_process(plan.symb, M, granularity=granularity,
                              pool=pool)
        t0 = clock()
        with rec.span("probe.procpool.factorize"):
            factorize_process(plan.symb, M, granularity=granularity,
                              pool=pool, tracer=tracer)
        wall = clock() - t0
    finally:
        pool.close()
    tasks, busy = lane_stats(tracer, "proc")
    return {
        "numeric.procpool.pool_start_s": start_s,
        "numeric.procpool.tasks": float(tasks),
        "numeric.procpool.busy_s": busy,
        "numeric.procpool.idle_frac": 1.0 - busy / (WORKERS * wall),
        "numeric.procpool.speedup_vs_serial": serial_s / wall,
    }, (tracer, t0)


def serving_metrics(stats, tracer, wall):
    """The gateway's own counters plus its traced lanes over ``wall``
    seconds of serving."""
    analyses = [e.duration for e in tracer.by_lane("gateway-analysis")]
    in_flight = [v for _, v in tracer.counter_samples("gateway", "in_flight")]
    _, busy = lane_stats(tracer, "repro-gateway")
    return {
        "serving.hit_rate": stats.hit_rate,
        "serving.evictions": float(stats.evictions),
        "serving.rejected": float(stats.rejected_overloaded
                                  + stats.rejected_tenant),
        "serving.timeouts": float(stats.timeouts),
        "serving.in_flight_max": float(max(in_flight, default=0.0)),
        "serving.analysis_s_p50": median(analyses) if analyses else 0.0,
        "serving.pool_busy_frac": busy / (WORKERS * wall),
    }


def serving_probe(rec, plan, values, b, engine):
    """A gateway serving only ``plan``'s pattern: one cold request, then
    warm ones, one at a time.  Returns the serving metrics, the tracer with
    its clock origin, and whether every answer is bitwise equal to a direct
    serial-twin factorize + solve of the same matrix."""
    from repro.gpu.trace import Tracer
    from repro.numeric.registry import serial_twin
    from repro.serving import Gateway
    from repro.sparse.csc import SymmetricCSC

    tracer = Tracer()
    origin = clock()

    async def drive():
        gw = Gateway(workers=WORKERS, engine=engine, tracer=tracer,
                     trace_origin=origin)
        try:
            t0 = clock()
            for v in values:
                M = SymmetricCSC(A.n, A.indptr, A.indices, v, check=False)
                answers.append(await gw.submit(M, b))
            return gw.stats(), clock() - t0
        finally:
            await gw.close()

    A = plan.matrix
    answers = []
    with rec.span("probe.serving"):
        stats, wall = asyncio.run(drive())
    twin = serial_twin(engine)
    same = all(same_bits(x, plan.factorize(v, engine=twin).solve(b))
               for v, x in zip(values, answers))
    return serving_metrics(stats, tracer, wall), (tracer, origin), same


# ---------------------------------------------------------------------------
# update, modeled GPU
# ---------------------------------------------------------------------------
def update_layer(rec, factor, Ws):
    """Rank-k ``Factor.update`` of ``factor`` by each ``W``: median
    seconds and the supernodes on the elimination-tree path union."""
    from repro.numeric.updown import path_union

    times = []
    for W in Ws:
        t0 = clock()
        with rec.span("update.rank_k"):
            factor.update(W)
        times.append(clock() - t0)
    Wp = Ws[-1][factor.plan.perm]
    roots = [int(np.flatnonzero(Wp[:, r])[0]) for r in range(Wp.shape[1])]
    symb = factor.storage.symb
    path = path_union(symb, roots)
    return {
        "update.rank_k_s": median(times),
        "update.path_snodes": float(np.unique(symb.col2sn[path]).size),
    }


def modeled_gpu(rec, plan, values, cpu_results):
    """The paper's modeled clock on this pattern.  ``cpu_results`` holds
    the RL and RLB CPU engine results already computed on ``values``."""
    from repro.gpu.device import DeviceOutOfMemory
    from repro.numeric.rl_gpu import factorize_rl_gpu
    from repro.numeric.rlb_gpu import factorize_rlb_gpu

    M = permuted(plan, values)
    cpu = min(r.modeled_seconds for r in cpu_results.values())
    with rec.span("probe.modeled_gpu"):
        try:
            rl_gpu = factorize_rl_gpu(plan.symb, M).modeled_seconds
        except DeviceOutOfMemory:
            rl_gpu = float("nan")
        rlb_gpu = factorize_rlb_gpu(plan.symb, M, version=2).modeled_seconds
    return {
        "gpu.modeled_cpu_best_s": cpu,
        "gpu.modeled_rl_gpu_s": rl_gpu,
        "gpu.modeled_rlb_gpu_s": rlb_gpu,
        "gpu.modeled_speedup_rl": cpu / rl_gpu,
        "gpu.modeled_speedup_rlb": cpu / rlb_gpu,
    }
