"""Benchmark of the staged Cholesky pipeline: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stepping-serial --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` measures its per-layer metrics, writes the span
tree as a Chrome trace under ``perfbench/out/`` and prints each layer's
self time.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, printed also when the workload raises (then ``correct`` is
false and the run exits with 1).  The library is imported from ``src/`` of
the same checkout; BLAS is pinned to one thread before NumPy loads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import pathlib
import re
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"


def pin_blas():
    """Pin every BLAS/OpenMP pool to one thread with the library's own
    ``limit_blas_threads``.  It must run before NumPy is first imported, so
    its module (NumPy-free by design) is loaded from its source file rather
    than through the ``repro`` package, which imports NumPy."""
    path = ROOT / "src" / "repro" / "numeric" / "blas_limits.py"
    spec = importlib.util.spec_from_file_location("_blas_limits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.limit_blas_threads(1, override=True)


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # checked against workloads.WORKLOADS
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def write_trace(outcome, workload, seed):
    """Spans of the run plus the library's own lanes, as one Chrome trace."""
    from repro.gpu.trace import Tracer

    rec = outcome.recorder
    origin = rec.origin()
    merged = Tracer()
    rec.to_tracer(merged, origin)
    for tracer, offset in outcome.tracers:
        for e in tracer.events:
            merged.record(e.lane, e.name, e.start + offset - origin,
                          e.end + offset - origin, e.nbytes)
        for lane, name, t, value in tracer.counters:
            merged.counter(lane, name, t + offset - origin, value)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    merged.save_chrome_trace(path)
    return path


def report(spec, outcome, trace):
    """Print every metric by name with its unit; return the JSON metrics
    block of the metrics ``BENCHMARK.json`` declares for this mode."""
    declared = spec["per_layer" if trace else "end_to_end"]
    values = outcome.metrics
    block = {}
    missing = []
    for m in declared:
        if m["name"] not in values:
            missing.append(m["name"])
            continue
        value = float(values[m["name"]])
        # a statistic of no samples is NaN; JSON has no NaN, so null
        block[m["name"]] = {"value": value if math.isfinite(value) else None,
                            "unit": m["unit"]}
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    for name, entry in block.items():
        print(f"  {name:40s} {float(values[name]):>14.6g} {entry['unit']}")
    tally = outcome.tally
    print(f"  {'failed_frac':40s} {tally.failed / max(tally.attempted, 1):>14.6g}"
          f" fraction  ({tally.failed} of {tally.attempted} operations)")
    for reason, count in sorted(tally.reasons.items()):
        print(f"    failure {reason}: {count}")
    extra = {name: value for name, value in values.items()
             if name not in block}
    extra.update(outcome.notes)
    print("not gated:")
    for name, value in sorted(extra.items()):
        print(f"  {name:40s} {value:>14.6g} {note_unit(name)}")
    return block


def note_unit(name):
    """Unit of a printed, ungated value, read off its name."""
    if name.startswith("samples."):
        return "count"
    if name.endswith("_sps"):
        return "1/s"
    if re.search(r"_s(_p\d+)?$", name):
        return "s"
    return ""


def verdict(tally, block):
    """The last line of standard output."""
    return json.dumps({"correct": tally.failed == 0,
                       "attempted": tally.attempted,
                       "failed": tally.failed,
                       "metrics": block})


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(src))
    import common
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                trace=trace)
    except Exception as exc:  # the run failed; say so on the verdict line
        traceback.print_exc()
        tally = common.Tally()
        tally.fail(type(exc).__name__)
        print(verdict(tally, {}))
        return 1
    finally:
        common.stop_children()
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {int(trace)}")
    block = report(spec, outcome, trace)
    if trace:
        print("self time by span (s):")
        own = outcome.recorder.self_times()
        for name, secs in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:40s} {secs:>12.6f}")
        path = write_trace(outcome, args.workload, args.seed)
        print(f"chrome trace: {path.relative_to(ROOT)}")
    print(verdict(outcome.tally, block))
    return 0


if __name__ == "__main__":
    sys.exit(main())
