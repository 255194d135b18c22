"""One benchmark for the whole stack: four workloads, end to end and per layer.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--workload NAME ...]
                                                [--seconds S] [--smoke] [--out FILE]

runs the selected workloads (default: all four) one after another, each
in a fresh child interpreter, prints every metric by name with its unit,
checks every output against a plaintext reference, writes the results to
``--out`` and exits 1 if any operation failed.

The benchmark driver calls the same file with
``--workload NAME --seed N --seconds S --trace 0|1``: one workload, and
the last line of standard output is one JSON object with the end-to-end
(``--trace 0``) or the per-layer (``--trace 1``) metrics.

Metric names, units, directions and bounds are declared once, in
``BENCHMARK.json`` at the root; this file reads them from there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Fresh interpreters timed from spawn to "ready for the cold op", per run.
SETUP_SAMPLES = 3


def child_env() -> dict:
    """The environment users get: auto backend, cost check on, one thread."""
    env = dict(os.environ)
    env.pop("REPRO_SHARING_BACKEND", None)
    env.pop("REPRO_COST_CHECK", None)
    env.update(
        PYTHONHASHSEED="0", OMP_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src")
    )
    return env


def spawn(workload, seed, seconds, trace, smoke, *flags) -> dict:
    """Run ``child.py`` once and return the object it printed."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        *(["--smoke"] if smoke else []), *flags,
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace, smoke, *flags) -> dict:
    """One measuring child plus the extra set-up samples; adds ``setup_s``.

    Set-up is spawn -> ready for the cold op (imports, circuit build and
    compile, input generation, service keygen), the median of
    ``SETUP_SAMPLES`` fresh interpreters, plus — for the service — the
    median client-side build + encode of one epoch's submissions.
    """
    result = spawn(workload, seed, seconds, trace, smoke, *flags)
    if "end_to_end" not in result:
        return result
    ready = [result["ready_s"]] + [
        spawn(workload, seed, seconds, 0, smoke, "--setup-only")["ready_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    build = result["client_build_s"]
    result["end_to_end"]["setup_s"] = statistics.median(ready) + (
        build["median"] if build else 0.0
    )
    result["setup_ready_s"] = ready
    return result


def point(value) -> float:
    """The reported value of a metric: its median, or the single reading."""
    return value["median"] if isinstance(value, dict) else value


def driver_line(result, declared, values) -> str:
    """The driver's result object: the declared metrics found in ``values``."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": point(values[m["name"]]), "unit": m["unit"]}
            for m in declared if m["name"] in values
        },
    })


def print_metrics(result, spec) -> None:
    name = result["workload"]
    print(f"\n== {name}: {result['attempted']} operations, "
          f"{result['failed']} failed, R={result['R']} timed ==")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for section in ("end_to_end", "per_layer"):
        values = result.get(section)
        if values is None:
            continue
        for metric in spec[section]:
            value = values.get(metric["name"])
            if value is None:
                continue
            line = f"  {metric['name']:44s} {point(value):16.6f} {metric['unit']}"
            if isinstance(value, dict):
                line += (f"   (median of n={value['n']}, "
                         f"min {value['min']:.6f}, max {value['max']:.6f})")
            print(line)
    if "self_s_by_layer" in result:
        print("  self time by layer (s): " + ", ".join(
            f"{layer} {own:.3f}" for layer, own in result["self_s_by_layer"].items()
        ))
    if "counts_repeat" in result:
        print(f"  counts_repeat: {result['counts_repeat']}"
              f"   unstable_counters: {result['unstable_counters']}")


def counts_guard(result, workload, seed, smoke) -> None:
    """Record whether the workload's counts repeat exactly.

    Within the run, every timed op must have reported identical byte
    counts (the child lists those that did not); across runs, the traced
    counters of two same-seed smoke runs must be identical.  A ``--smoke``
    run is itself the first of the two.
    """
    runs = [result["counters"]] if smoke else []
    while len(runs) < 2:
        runs.append(spawn(workload, seed, 0, 1, True, "--reference-ops", "2")["counters"])
    first, second = runs
    unstable = result["unstable_counters"] + sorted(
        name for name in first.keys() | second.keys()
        if first.get(name) != second.get(name)
    )
    result["unstable_counters"] = unstable
    result["counts_repeat"] = not unstable


def fingerprint(seed, seconds, smoke) -> dict:
    def commit():
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "sympy": importlib.metadata.version("sympy"),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="see benchmarks/e2e/README.md",
    )
    parser.add_argument("--workload", nargs="+", default=names, choices=names,
                        metavar="NAME")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed operations per workload run until this many "
                        "seconds of them have been measured "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one workload, one result line with the "
                        "end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk shapes, under a minute in total")
    parser.add_argument("--out", default=str(HERE / "out" / "results.json"))
    parser.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)  # test_harness.py: corrupt the reference
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark measures "
              "the repository it sits in", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    flags = ["--inject-fault"] if args.inject_fault else []
    if args.trace == 1 or (args.smoke and args.seconds is None):
        # R = 2: a driver's traced run needs untraced reference ops, not
        # --seconds of them; smoke ops are so short that seconds would buy dozens.
        flags += ["--reference-ops", "2"]
    # Byte-compile once, so the first run in a fresh checkout does not time it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(HERE)],
        check=True, stdout=subprocess.DEVNULL,
    )

    if args.trace is not None:
        if len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        result = measure(args.workload[0], args.seed, seconds, args.trace, args.smoke, *flags)
        print_metrics(result, spec)
        section = "per_layer" if args.trace else "end_to_end"
        print(driver_line(result, spec[section], result.get(section, {})))
        return 1 if result["failed"] else 0

    started = time.monotonic()
    print("every timing is a median with min, max and n; with n < 11 samples "
          "no tail percentile is reported")
    results = {}
    for workload in args.workload:
        result = measure(workload, args.seed, seconds, 1, args.smoke, *flags)
        counts_guard(result, workload, args.seed, args.smoke)
        result["failed_share"] = result["failed"] / result["attempted"]
        print_metrics(result, spec)
        results[workload] = result
    report = {
        "fingerprint": {
            **fingerprint(args.seed, seconds, args.smoke),
            "wall_s": time.monotonic() - started,
        },
        "claim": None,
        "workloads": results,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(r["failed"] for r in results.values())
    print(f"\nwrote {out}; {failed} failed operations; "
          f"{report['fingerprint']['wall_s']:.0f} s in total")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
