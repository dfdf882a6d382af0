"""The workloads of the benchmark, their inputs and their checks.

Each runner takes ``(cfg, seed, seconds, rec=None)`` and returns an
:class:`Outcome`.  Inputs come from ``seed`` alone; the library receives
only the generated matrices, values, right-hand sides and update vectors.
Without a recorder a runner measures the end-to-end metrics; with one
(:class:`common.Recorder`) it records spans and measures the per-layer
metrics of :mod:`layers` on the workload's pattern instead.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

import layers
from common import (RESIDUAL_TOL, Recorder, Tally, clock,
                    edge_updates, full_matrix, median, peak_rss_mb,
                    percentile, relative_residual)

import repro
from repro.api import SymbolicPlan, same_pattern_values
from repro.sparse import grid_laplacian, spd_value_sweep
from repro.sparse.csc import SymmetricCSC
from repro.sparse.generators import vector_stencil

#: Workload definitions.  ``latency_limit_s`` is the goodput limit on one
#: request (a time step or a sweep round).
WORKLOADS = {
    "stepping-serial": dict(kind="stepping", shape=(30, 30, 8), nvalues=8,
                            nrhs=4, setup_reps=5, updates=8, rank=4,
                            update_every=4, latency_limit_s=1.0),
    # The serial RLB engine: with the threaded one (rlb_par, 2 workers, then
    # 1) the run-to-run spread of the timings was two to eight times
    # stepping-serial's (see README.md); the executor is measured in the
    # traced run (numeric.executor.*).
    "sweep-rlb": dict(kind="sweep", shape=(12, 12, 8), dof=3, batch=2,
                      engine="rlb", value_pool=4, setup_reps=4, updates=8,
                      rank=4, solves_per_round=3, updates_per_round=1,
                      latency_limit_s=4.0),
}


@dataclasses.dataclass
class Outcome:
    """What one run measured (metric values by name; units come from
    ``BENCHMARK.json``), and the checks."""

    metrics: dict
    tally: Tally
    notes: dict = dataclasses.field(default_factory=dict)
    recorder: Recorder = None
    tracers: list = dataclasses.field(default_factory=list)


def with_values(A, data):
    """Same-pattern matrix holding ``data`` (structure arrays shared)."""
    return SymmetricCSC(A.n, A.indptr, A.indices, data, check=False)


def end_to_end(*, setup, factor, solve, requests, cold, update, solved,
               wall, good, sent, lag):
    """The end-to-end metrics from raw samples, and the notes printed
    beside them (medians, sample counts, loop lag).  A statistic of no
    samples is NaN (see :func:`common.median`).

    The host's speed drifts between a fast and a slow state for seconds to
    minutes at a time (about 1.6x apart on the two-core box), and a run's
    median lands on either side depending on the mix it happened to see.
    So each steady latency distribution is gated at its tail, which the slow
    state sets in nearly every run, and its median is printed, not gated.
    Throughput is printed, not gated: with one caller in a closed loop it is
    the inverse of the mean step time, so it moves with the share of the run
    the host spent slow, as the median does.  Cold and update requests are
    too few per run for a steady tail or median: they are printed, not
    gated, and still count in set-up time."""
    return {
        "setup_s": median(setup),
        "factor_s_p90": percentile(factor, 90),
        "solve_s_p90": percentile(solve, 90),
        "request_s_p90": percentile(requests, 90),
        "goodput_frac": good / sent,
        "peak_rss_mb": peak_rss_mb(),
    }, {
        "throughput_sps": solved / wall,
        "factor_s_p50": median(factor),
        "solve_s_p50": median(solve),
        "request_s_p50": median(requests),
        "request_cold_s_p50": median(cold),
        "request_update_s_p50": median(update),
        "request_update_s_p90": percentile(update, 90),
        "samples.setup": len(setup), "samples.factor": len(factor),
        "samples.solve": len(solve), "samples.request": len(requests),
        "samples.cold": len(cold), "samples.update": len(update),
        "bench.gen_lag_s_p95": percentile(lag, 95),
    }


def untimed(_name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; the untraced stand-in for ``Recorder.call``."""
    return fn(*args, **kwargs)


def steady_seconds(seconds, trace):
    """Length of the steady loop: all of the run, or half of it in a traced
    run, whose other half goes to the layer profile."""
    return seconds / 2 if trace else seconds


def setup_due(done, reps, elapsed, seconds):
    """Whether set-up number ``done`` (0-based) of ``reps`` is due after
    ``elapsed`` of ``seconds`` steady seconds.  The first set-up runs
    before the steady loop and the rest at even intervals inside it, so the
    median set-up time sees the same host speeds as the steps; the loop's
    steady time leaves the set-ups out."""
    return done < reps and elapsed >= done * seconds / reps


def timed_update(tally, update_s, factor, W, b):
    """``factor.update(W).solve(b)``, timed into ``update_s``; returns the
    solution, or None after counting the failure.  The steady loops
    interleave these with their steps, so the update samples see the same
    host speed as the rest of the run."""
    t0 = clock()
    try:
        x = factor.update(W).solve(b)
    except Exception as exc:  # every failure is counted, never dropped
        tally.fail(type(exc).__name__)
        return None
    update_s.append(clock() - t0)
    return x


def check_solution(tally, S, x, b, Ws=()):
    res = relative_residual(S, x, b, Ws)
    tally.check(np.isfinite(res) and res <= RESIDUAL_TOL, "residual")


# ---------------------------------------------------------------------------
# traced run: the layer profile of one pattern (shared by every workload)
# ---------------------------------------------------------------------------
ANALYSIS_LAYERS = ("ordering.nd", "symbolic.permute", "symbolic.etree",
                   "symbolic.colcounts", "symbolic.supernodes",
                   "symbolic.symbfact", "symbolic.amalgamate",
                   "symbolic.refine", "api.plan_overhead")


def traced_plan(rec, tally, A):
    """``repro.plan(A)`` inside a ``plan`` span, with ``analyze`` replayed
    stage by stage beside it (the replay must reproduce ``perm`` and
    ``snptr``) and the plan built by the public constructor from the
    analysis.  Returns ``(plan, metrics)``."""
    with rec.span("plan") as root:
        perm, B, symb = layers.replay_analysis(rec, A)
        system = rec.call("check.analyze", repro.analyze, A)
        tally.check(np.array_equal(perm, system.perm)
                    and np.array_equal(symb.snptr, system.symb.snptr),
                    "analysis_replay")
        plan = rec.call("api.plan_overhead", SymbolicPlan, A, system)
    own = rec.self_times(root)
    return plan, {name + "_s": own.get(name, 0.0) for name in ANALYSIS_LAYERS}


def traced_factorize(rec, plan, values, **kwargs):
    """``plan.factorize`` in a ``factorize`` span, with the API's own work
    (values check, permutation gather, value copy) replayed beside it."""
    with rec.span("factorize"):
        with rec.span("api.factorize_overhead"):
            data = same_pattern_values(plan.matrix, values)
            B = plan.system.matrix
            with_values(B, data[plan.gather])
            data.copy()
        return plan.factorize(values, **kwargs)


def layer_profile(rec, tally, A, plan, values, b, Ws, family, *, batch=1):
    """Every per-layer metric on ``plan``'s pattern; a small gateway probe
    on this pattern supplies the serving metrics."""
    out = {}
    tracers = []
    with rec.span("replays"):
        numeric, bits_ok, engines = layers.numeric_layers(
            rec, plan, values[0], family)
        tally.check(bits_ok, f"{family}_replay_bits")
        out.update(numeric)
        factor = traced_factorize(rec, plan, values[0], engine="rl")
        with rec.span("replay.solve") as root:
            x, same = layers.replay_solve(rec, factor, b)
        tally.check(same, "solve_replay_bits")
        own = rec.self_times(root)
        fwd, bwd = own["solve.forward"], own["solve.backward"]
        out["solve.forward_s"] = fwd
        out["solve.backward_s"] = bwd
        out["solve.gflops"] = layers.solve_flops(plan.symb) / (fwd + bwd) / 1e9
    serial_s = out[f"numeric.{family}.engine_s"]
    with rec.span("probes"):
        procpool, tr = layers.procpool_probe(rec, plan, values[0], family,
                                             serial_s)
        tracers.append(tr)
        out.update(procpool)
        executor, tr = layers.executor_probe(rec, plan, values[:batch],
                                             family, serial_s)
        tracers.append(tr)
        out.update(executor)
        serving, tr, same = layers.serving_probe(rec, plan, values[:3], b,
                                                 family + "_par")
        tally.check(same, "gateway_bits")
        tracers.append(tr)
        out.update(serving)
        out.update(layers.update_layer(rec, factor, Ws))
        out.update(layers.modeled_gpu(rec, plan, values[0], engines))
        probe = rec.call("probe.dgemm", layers.dgemm_probe_gflops)
        out["dense.dgemm_probe_gflops"] = probe
        out["dense.probe_frac"] = out["dense.gflops"] / probe
    out["symbolic.nsup"] = float(plan.nsup)
    out["symbolic.factor_nnz"] = float(plan.symb.factor_nnz_dense())
    return out, tracers


def finish_trace(rec, tally, metrics, analysis, untraced, traced, lag,
                 tracers):
    """Complete a traced run's metrics: the analysis stages, the API's
    per-call factorize overhead, tracing overhead and generator lag."""
    metrics.update(analysis)
    calls = rec.durations("api.factorize_overhead")
    metrics["api.factorize_overhead_s"] = median(calls)
    metrics["bench.trace_overhead_frac"] = overhead(untraced, traced)
    metrics["bench.gen_lag_s_p95"] = percentile(lag, 95)
    return Outcome(metrics, tally, recorder=rec, tracers=tracers)


def overhead(untraced, traced):
    """Relative extra wall time of the traced steps over the untraced."""
    return (median(traced) - median(untraced)) / median(untraced)


# ---------------------------------------------------------------------------
# stepping-serial
# ---------------------------------------------------------------------------
def stepping_inputs(cfg, seed):
    rng = np.random.default_rng(seed)
    A = grid_laplacian(cfg["shape"])
    values = spd_value_sweep(A, cfg["nvalues"], seed=seed)
    rhs = rng.standard_normal((cfg["nrhs"], A.n))
    Ws = edge_updates(A, rng, cfg["updates"], cfg["rank"])
    return A, values, rhs, Ws


def run_stepping(cfg, seed, seconds, rec=None, bad_steps=(), bad_updates=False):
    """``bad_steps`` (step numbers given a non-SPD value set) and
    ``bad_updates`` (update matrices of the wrong shape, so every update
    raises) let the smoke test check that failures are counted."""
    A, values, rhs, Ws = stepping_inputs(cfg, seed)
    if bad_updates:
        Ws = [W[1:] for W in Ws]
    S = [full_matrix(with_values(A, v)) for v in values]
    trace = rec is not None
    tally = Tally()
    kw = dict(engine="rl")
    setup, cold = [], []

    def set_up():
        """A fresh plan and its first solution; returns the plan and, in a
        traced run, its analysis stages."""
        t0 = clock()
        if trace:
            with rec.span("setup"):
                plan, analysis = traced_plan(rec, tally, A)
                f = traced_factorize(rec, plan, values[0], **kw)
                x = rec.call("solve", f.solve, rhs[0])
        else:
            plan, analysis = repro.plan(A), None
            t1 = clock()
            x = plan.factorize(values[0], **kw).solve(rhs[0])
            cold.append(clock() - t1)
        setup.append(clock() - t0)
        check_solution(tally, S[0], x, rhs[0])
        return plan, analysis

    def step(k, traced):
        vi, ri = k % len(values), k % len(rhs)
        v = -values[vi] if k in bad_steps else values[vi]
        t0 = clock()
        if traced:
            with rec.span("step"):
                f = traced_factorize(rec, plan, v, **kw)
                t1 = clock()
                x = rec.call("solve", f.solve, rhs[ri])
        else:
            f = plan.factorize(v, **kw)
            t1 = clock()
            x = f.solve(rhs[ri])
        t2 = clock()
        return f, x, vi, ri, t0, t1, t2

    plan, analysis = set_up()
    factor_s, solve_s, req_s, lag, answers = [], [], [], [], []
    update_s, updated = [], []
    untraced, traced = [], []
    sent = 0
    steady = steady_seconds(seconds, trace)
    start = prev = clock()
    paused = 0.0  # set-up time inside the loop
    while clock() - start - paused < steady:
        if not trace and setup_due(len(setup), cfg["setup_reps"],
                                   clock() - start - paused, steady):
            t0 = clock()
            plan, _ = set_up()
            prev = clock()
            paused += prev - t0
            continue
        k = sent
        sent += 1
        on = trace and k % 2 == 1
        try:
            f, x, vi, ri, t0, t1, t2 = step(k, on)
        except Exception as exc:  # every failure is counted, never dropped
            tally.fail(type(exc).__name__)
            prev = clock()
            continue
        (traced if on else untraced).append(t2 - t0)
        lag.append(t0 - prev)
        prev = t2
        factor_s.append(t1 - t0)
        solve_s.append(t2 - t1)
        req_s.append(t2 - t0)
        answers.append((vi, ri, x))
        if not trace and k % cfg["update_every"] == 0:
            W = Ws[k // cfg["update_every"] % len(Ws)]
            x = timed_update(tally, update_s, f, W, rhs[ri])
            if x is not None:
                updated.append((vi, ri, x, W))
            prev = clock()
    wall = prev - start - paused
    for vi, ri, x in answers:
        check_solution(tally, S[vi], x, rhs[ri])
    for vi, ri, x, W in updated:
        check_solution(tally, S[vi], x, rhs[ri], [W])

    if trace:
        with rec.span("layers"):
            metrics, tracers = layer_profile(rec, tally, A, plan, values,
                                             rhs[0], Ws, "rl")
        return finish_trace(rec, tally, metrics, analysis, untraced, traced,
                            lag, tracers)

    good = sum(t <= cfg["latency_limit_s"] for t in req_s)
    metrics, notes = end_to_end(setup=setup, factor=factor_s, solve=solve_s,
                                requests=req_s, cold=cold, update=update_s,
                                solved=len(answers) + len(updated), wall=wall,
                                good=good, sent=sent, lag=lag)
    return Outcome(metrics, tally, notes)


# ---------------------------------------------------------------------------
# sweep-rlb
# ---------------------------------------------------------------------------
def run_sweep(cfg, seed, seconds, rec=None):
    rng = np.random.default_rng(seed)
    A = vector_stencil(cfg["shape"], cfg["dof"])
    nb = cfg["batch"]
    pool = [spd_value_sweep(A, nb, seed=seed * 101 + r)
            for r in range(cfg["value_pool"])]
    rhs = [rng.standard_normal((nb, A.n)) for _ in range(cfg["value_pool"])]
    Ws = edge_updates(A, rng, cfg["updates"], cfg["rank"])
    S = [[full_matrix(with_values(A, v)) for v in vals] for vals in pool]
    trace = rec is not None
    tally = Tally()
    kw = dict(engine=cfg["engine"])
    setup, cold = [], []

    def set_up():
        """A fresh plan, its first batch factorization and ``solve_all``;
        returns the plan and, in a traced run, its analysis stages."""
        t0 = clock()
        if trace:
            with rec.span("setup"):
                plan, analysis = traced_plan(rec, tally, A)
                batch = rec.call("factorize", plan.factorize_batch, pool[0],
                                 **kw)
                xs = rec.call("solve", batch.solve_all, list(rhs[0]))
        else:
            plan, analysis = repro.plan(A), None
            t1 = clock()
            xs = plan.factorize_batch(pool[0], **kw).solve_all(list(rhs[0]))
            cold.append(clock() - t1)
        setup.append(clock() - t0)  # to the first solutions
        for i, x in enumerate(xs):
            check_solution(tally, S[0][i], x, rhs[0][i])
        return plan, analysis

    def round_(r, traced):
        """One point of the sweep on the current plan: a batch
        factorization, then ``solve_all`` on each of ``solves_per_round``
        right-hand-side sets.  Returns the batch and the clock at the
        round's start, after the factorization and after each
        ``solve_all``."""
        call = rec.call if traced else untimed
        vals = r % len(pool)
        marks = [clock()]
        answers = []
        with rec.span("step") if traced else contextlib.nullcontext():
            batch = call("factorize", plan.factorize_batch, pool[vals], **kw)
            marks.append(clock())
            for j in range(cfg["solves_per_round"]):
                bs = list(rhs[(r + j) % len(rhs)])
                answers.append((bs, call("solve", batch.solve_all, bs)))
                marks.append(clock())
        for bs, xs in answers:
            for i, x in enumerate(xs):
                check_solution(tally, S[vals][i], x, bs[i])
        return batch, marks

    plan, analysis = set_up()
    factor_s, solve_s, req_s, lag, update_s = [], [], [], [], []
    untraced, traced = [], []
    sent = solved = 0
    steady = steady_seconds(seconds, trace)
    start = prev = clock()
    paused = 0.0  # set-up time inside the loop
    while clock() - start - paused < steady:
        if not trace and setup_due(len(setup), cfg["setup_reps"],
                                   clock() - start - paused, steady):
            t0 = clock()
            plan, _ = set_up()
            prev = clock()
            paused += prev - t0
            continue
        r = sent
        sent += 1
        on = trace and r % 2 == 1
        try:
            batch, marks = round_(r, on)
        except Exception as exc:  # every failure is counted, never dropped
            tally.fail(type(exc).__name__)
            prev = clock()
            continue
        t0, t1, t2 = marks[0], marks[1], marks[-1]
        (traced if on else untraced).append(t2 - t0)
        lag.append(t0 - prev)
        prev = t2
        factor_s.append((t1 - t0) / nb)
        # one sample per round: a single solve_all of two short solves is
        # too short to time steadily
        solve_s.append((t2 - t1) / (nb * cfg["solves_per_round"]))
        req_s.append(t2 - t0)
        solved += nb * cfg["solves_per_round"]
        if trace:
            continue
        for u in range(cfg["updates_per_round"]):
            W = Ws[(r * cfg["updates_per_round"] + u) % len(Ws)]
            b = rhs[r % len(rhs)][0]
            x = timed_update(tally, update_s, batch[0], W, b)
            if x is not None:
                check_solution(tally, S[r % len(pool)][0], x, b, [W])
                solved += 1
        prev = clock()
    wall = prev - start - paused

    if trace:
        with rec.span("layers"):
            metrics, tracers = layer_profile(rec, tally, A, plan, pool[0],
                                             rhs[0][0], Ws, "rlb", batch=nb)
        return finish_trace(rec, tally, metrics, analysis, untraced, traced,
                            lag, tracers)

    good = sum(t <= cfg["latency_limit_s"] for t in req_s)
    metrics, notes = end_to_end(setup=setup, factor=factor_s, solve=solve_s,
                                requests=req_s, cold=cold, update=update_s,
                                solved=solved, wall=wall, good=good,
                                sent=sent, lag=lag)
    return Outcome(metrics, tally, notes)


RUNNERS = {"stepping": run_stepping, "sweep": run_sweep}


def run(name, seed, seconds, trace=False, cfg=None):
    """Run workload ``name`` (``cfg`` overrides its definition); a traced
    run records its spans under one ``workload:<name>`` span."""
    cfg = dict(WORKLOADS[name], **(cfg or {}))
    runner = RUNNERS[cfg["kind"]]
    if not trace:
        return runner(cfg, seed, seconds)
    rec = Recorder()
    with rec.span(f"workload:{name}"):
        return runner(cfg, seed, seconds, rec=rec)
