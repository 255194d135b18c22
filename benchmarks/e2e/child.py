"""Measure one workload in this (fresh) interpreter; print one JSON object.

Spawned by ``run.py``; not meant to be run by hand.  The sequence is:
build inputs from the seed -> one cold operation -> timed steady-state
operations until ``--seconds`` of them have run -> read ``ru_maxrss`` ->
(``--trace 1``) one traced operation with the wrappers installed.

Timed operations carry no instrumentation except the phase marks: one
timestamp per ``ProtocolEnvironment.set_phase`` call and one at entry to
``verify_cost_exactness`` — at most six per operation.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

# Run as a script, so this directory leads sys.path: ``trace`` is the
# trace.py beside this file, not the standard library's.
from trace import Patches, Recorder

import layers
import workloads

from repro.accounting import symbolic
from repro.engine import engine
from repro.observability import hooks
from repro.observability.tracer import Tracer
from repro.yoso.network import ProtocolEnvironment

HERE = Path(__file__).resolve().parent

#: End-to-end metrics that are counts, not timings: they must repeat.
EXACT = ("online_mul_bytes_per_gate", "offline_bytes_per_gate", "board_bytes")
TIMED = ("run_wall_s", "offline_wall_s", "online_wall_s", "ingest_per_s")


def phase_marks(patches, marks) -> None:
    """Install the phase-mark wrappers; they append to ``marks``."""
    clock = time.perf_counter

    def mark_phase(set_phase):
        def marked(env, phase):
            marks.append((phase, clock()))
            return set_phase(env, phase)
        return marked

    def mark_cost_check(check):
        def marked(*args, **kwargs):
            marks.append(("cost_check", clock()))
            return check(*args, **kwargs)
        return marked

    patches.method(ProtocolEnvironment, "set_phase", mark_phase)
    patches.function(symbolic, "verify_cost_exactness", mark_cost_check)


def summary(values) -> dict:
    """Median, min, max and n; no tail percentile below eleven samples."""
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference-ops", type=int, default=0,
                        help="stop after this many timed ops (0: run --seconds)")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, args.seed, args.smoke)
    ready_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"ready_s": ready_s}))
        return 0
    if args.inject_fault:
        workload.corrupt_reference()

    failures: list[str] = []
    marks: list = []
    attempted = 0

    def attempt(tracer=None):
        nonlocal attempted
        attempted += 1
        try:
            facts = workload.op(marks, tracer)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            failures.append(f"{type(exc).__name__}: {exc}")
            return None
        if not facts["ok"]:
            failures.append("output differs from the plaintext reference")
        return facts

    with Patches() as patches:
        phase_marks(patches, marks)
        cold = attempt()
        timed = []
        measured_s = 0.0
        while True:
            facts = attempt()
            if facts is None:
                break
            timed.append(facts)
            measured_s += facts["run_wall_s"]
            if args.reference_ops:
                if len(timed) >= args.reference_ops:
                    break
            elif measured_s >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "workload": args.workload,
        "R": len(timed),
        "backend": workload.backend,
        "engine": engine.active().describe(),
        "gates": workload.gates,
        "mul_gates": workload.mul_gates,
    }
    if cold is not None and timed:
        builds = [f["build_s"] for f in [cold, *timed] if "build_s" in f]
        out["end_to_end"] = {
            "cold_run_wall_s": cold["run_wall_s"],
            **{name: summary([f[name] for f in timed]) for name in TIMED + EXACT},
            "peak_rss_mb": peak_rss_mb,
        }
        out["ready_s"] = ready_s
        out["client_build_s"] = summary(builds) if builds else None
        out["unstable_counters"] = [
            name for name in EXACT if len({f[name] for f in timed}) > 1
        ]

    if args.trace and timed:
        tracer = Tracer()
        rec = Recorder(op=attempted)
        with Patches() as patches, hooks.activated(tracer):
            layers.install(patches, rec, tracer)
            phase_marks(patches, marks)
            started = time.perf_counter()
            facts = attempt(tracer)
            elapsed_s = time.perf_counter() - started
        if facts is not None:
            counters = tracer.counter_totals()
            walls = [f["run_wall_s"] for f in timed]
            reference_s = statistics.median(walls)
            if workload.ordered:
                # Service epochs get slower as the board grows: compare the
                # traced epoch with where the untraced ones were heading.
                reference_s = walls[-1] + (walls[-1] - walls[0]) / max(1, len(walls) - 1)
            out["per_layer"] = layers.per_layer(
                rec, counters, facts, elapsed_s, reference_s
            )
            out["self_s_by_layer"] = layers.self_s_by_layer(rec)
            out["counters"] = {**counters, **rec.counts}
            out["traced_wall_s"] = facts["run_wall_s"]
            out["rejections"] = facts.get("rejections")
            trace_dir = HERE / "out"
            trace_dir.mkdir(exist_ok=True)
            shape = ".smoke" if args.smoke else ""
            rec.write_jsonl(trace_dir / f"{args.workload}{shape}.trace.jsonl")

    out["attempted"] = attempted
    out["failed"] = len(failures)
    out["failures"] = failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
