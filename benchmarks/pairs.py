"""Alternated parent/change pairs of the end-to-end benchmark, in one command.

    python benchmarks/pairs.py --workload core_dot_256 --pairs 10
    make pairs WORKLOAD=core_dot_256 N=10 [BASE=HEAD~1]

The loop every performance or simplicity change has to run (choosing-metrics
§8): the parent commit ``--base`` (default ``HEAD``, i.e. the working tree
against its last commit) is unpacked into a temporary directory, and for
seeds 1..N the frozen ``benchmarks/e2e/run.py --trace 0`` is run once on the
parent and once on the working tree — each side with *its own* copy of the
harness, the side that goes first alternating from seed to seed — for the
claimed workload and for the other workloads of ``BENCHMARK.json`` as
controls.  Runs are strictly one after another.

Per workload it prints every run of the wall-clock metrics, then one row
per end-to-end metric: both medians, the parent's quartile distance, the
change, wins x/N (ties count for neither side) and the verdict of
``benchmarks/e2e/compare.py`` on the two sets of runs.  Exit status 1 if
a larger share of operations failed than on the parent or — except under
``--smoke``, whose shapes are too short to time — any row regressed.

The parent is materialised with ``git archive`` rather than ``git
worktree``: nothing is registered under ``.git/``, so a killed run leaves
no stale worktree to prune.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import compare  # noqa: E402  (benchmarks/e2e/compare.py: the verdict rule)

#: Printed run by run; the byte metrics and ``peak_rss_mb`` only as rows.
WALLS = ("cold_run_wall_s", "run_wall_s", "offline_wall_s", "online_wall_s")


def unpack(base: str, target: Path) -> None:
    """The committed files of ``base`` under ``target`` (no ``.git``)."""
    archive = target / "base.tar"
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), base],
        check=True,
    )
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_once(checkout: Path, workload: str, seed: int, smoke: bool) -> dict:
    """One ``run.py --trace 0`` of ``checkout``; its result line as a dict."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
        *(["--smoke"] if smoke else []),
    ]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1):     # 1: an operation failed its check
        raise SystemExit(f"{workload} seed {seed} in {checkout}: exit {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values) -> dict:
    """The shape ``compare.verdict`` reads: median, min, max of a side's runs."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def quartile_distance(values) -> float:
    if len(values) < 4:
        return max(values) - min(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def report(workload, runs, declared) -> tuple[bool, bool]:
    """Print one workload's runs and rows; (no more failures, no row regressed)."""
    seeds = sorted(runs)
    parents = [runs[seed]["parent"] for seed in seeds]
    changes = [runs[seed]["change"] for seed in seeds]
    print(f"\n== {workload}: {len(seeds)} pairs (seeds {seeds[0]}..{seeds[-1]}) ==")
    print(f"  {'seed':>4s} {'first':>6s}  " + "  ".join(
        f"{name + ' p -> c':>28s}" for name in WALLS
    ))
    for seed, parent, change in zip(seeds, parents, changes):
        print(f"  {seed:4d} {runs[seed]['first']:>6s}  " + "  ".join(
            f"{parent['metrics'][name]['value']:13.3f} -> "
            f"{change['metrics'][name]['value']:<11.3f}" for name in WALLS
        ))
    failed_share = [
        sum(r["failed"] for r in side) / sum(r["attempted"] for r in side)
        for side in (parents, changes)
    ]
    print(f"  failed share of operations: parent {failed_share[0]:.3f}, "
          f"change {failed_share[1]:.3f}")
    regressed = False
    print(f"  {'metric':28s} {'parent':>14s} {'change':>14s} {'change%':>8s} "
          f"{'parent IQR':>11s} {'wins':>6s} {'bound':>6s}  verdict")
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in parents]
        change = [r["metrics"][name]["value"] for r in changes]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        verdict = compare.verdict(
            spread(parent), spread(change), metric["better"], metric["bound"]
        )
        regressed = regressed or verdict == "regressed"
        base, new = statistics.median(parent), statistics.median(change)
        print(f"  {name:28s} {base:14.4f} {new:14.4f} {100 * (new - base) / base:+8.2f} "
              f"{quartile_distance(parent):11.4f} {wins:3d}/{len(seeds):<2d} "
              f"{metric['bound']:6.2f}  {verdict}  [{metric['unit']}]")
    return failed_share[1] <= failed_share[0], not regressed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names,
                        help="the claimed workload; the others run as controls")
    parser.add_argument("--pairs", type=int, default=10, metavar="N",
                        help="seeds 1..N, one parent run and one change run each")
    parser.add_argument("--base", default="HEAD",
                        help="the parent commit (default: HEAD)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk shapes: checks the loop, measures nothing")
    parser.add_argument("--out", default=None,
                        help="write every run's result line to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    workloads = [args.workload] + [n for n in names if n != args.workload]
    results: dict[str, dict[int, dict]] = {}
    clean = True
    with tempfile.TemporaryDirectory(prefix="repro-pairs-") as scratch:
        parent_root = Path(scratch)
        unpack(args.base, parent_root)
        for workload in workloads:
            runs = results[workload] = {}
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                runs[seed] = {"first": order[0]} | {
                    side: run_once(
                        parent_root if side == "parent" else ROOT,
                        workload, seed, args.smoke,
                    )
                    for side in order
                }
            operations_ok, rows_ok = report(workload, runs, spec["end_to_end"])
            clean = clean and operations_ok and (rows_ok or args.smoke)
            if args.out:    # after every workload: a killed run keeps what it measured
                Path(args.out).write_text(json.dumps(
                    {"base": args.base, "smoke": args.smoke, "workloads": results},
                    indent=1,
                ) + "\n")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
