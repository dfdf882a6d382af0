"""Smoke test of the benchmark itself, at tiny sizes (about ten seconds).

Run from the repository root::

    python3 perfbench/smoke.py

Checks that

* every workload prints every metric ``BENCHMARK.json`` declares, with its unit, in both the untraced and the
  traced mode, and passes its own correctness checks;
* the traced run's RL and RLB loop replays are bitwise equal to
  ``factorize_rl_cpu`` / ``factorize_rlb_cpu`` (and the analysis and solve
  replays to ``analyze`` / ``Factor.solve``);
* a deliberately non-SPD value set is counted as a failed operation;
* a run in which every rank-k update fails still prints its verdict, with
  ``correct`` false and the update failures counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY = {
    "stepping-serial": dict(shape=(6, 6, 4), nvalues=3, nrhs=2,
                            setup_reps=2, updates=2, rank=2),
    "sweep-rlb": dict(shape=(4, 4, 3), dof=2, batch=2, value_pool=2,
                      setup_reps=2, updates=2, rank=2),
}
SECONDS = 1.0


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def printed_metrics(spec, outcome, trace):
    """Run the benchmark's own reporter; returns what it printed and the
    JSON metrics block."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        block = run.report(spec, outcome, trace)
    return buf.getvalue(), block


def main():
    spec = run.load_spec()
    run.pin_blas()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            outcome = workloads.run(name, 7, SECONDS, trace=trace,
                                    cfg=TINY[name])
            tally = outcome.tally
            check(tally.failed == 0,
                  f"{name} trace={trace}: failures {tally.reasons}")
            check(tally.attempted > 0, f"{name}: nothing attempted")
            text, _ = printed_metrics(spec, outcome, trace)
            for m in spec["per_layer" if trace else "end_to_end"]:
                line = [ln for ln in text.splitlines()
                        if ln.split()[:1] == [m["name"]]]
                check(line and line[0].split()[-1] == m["unit"],
                      f"{name}: {m['name']} not printed with {m['unit']}")
            if trace:
                run.write_trace(outcome, name, 7)
            print(f"ok   {name} trace={int(trace)} "
                  f"({tally.attempted} checked operations)")

    # the replays carry their own bitwise checks; prove they can fail
    # nothing silently by rerunning them on a fresh tiny plan
    import numpy as np

    import layers
    import repro
    from common import Recorder
    from repro.sparse import grid_laplacian, spd_value_sweep

    A = grid_laplacian((6, 5, 4))
    plan = repro.plan(A)
    values = spd_value_sweep(A, 1, seed=3)[0]
    rec = Recorder()
    for family in ("rl", "rlb"):
        _, bits_ok, _ = layers.numeric_layers(rec, plan, values, family)
        check(bits_ok, f"{family} replay differs from the engine")
    perm, _, symb = layers.replay_analysis(rec, A)
    check(np.array_equal(perm, plan.perm)
          and np.array_equal(symb.snptr, plan.symb.snptr),
          "analysis replay differs from analyze")
    print("ok   rl/rlb/analysis replays bitwise equal")

    cfg = dict(workloads.WORKLOADS["stepping-serial"],
               **TINY["stepping-serial"])
    outcome = workloads.run_stepping(cfg, 7, SECONDS, bad_steps=(1,))
    reasons = outcome.tally.reasons
    check(reasons.get("NotPositiveDefiniteError") == 1,
          f"non-SPD step not counted as one failure: {reasons}")
    print("ok   non-SPD value set counted as a failure")

    outcome = workloads.run_stepping(cfg, 7, SECONDS, bad_updates=True)
    _, block = printed_metrics(spec, outcome, False)
    line = json.loads(run.verdict(outcome.tally, block))
    failures = sum(outcome.tally.reasons.values())
    check(line["correct"] is False and line["failed"] == failures > 0
          and outcome.notes["samples.update"] == 0
          and set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          f"failed updates not reported: {line}")
    print("ok   a run whose every update fails is reported incorrect")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        import common  # after main() has pinned BLAS

        common.stop_children()
