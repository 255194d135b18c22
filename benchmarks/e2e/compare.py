"""Compare two result files of ``run.py``: one row per (metric, workload).

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the base, ``B`` the new side.  Each row gives base, new, the
ratio new/base, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own min..max spread is wider than the bound
  and the two sides' ranges overlap, so the runs cannot tell;
* ``ok``         — neither.

Exits 1 on any ``regressed``.  Two sets of runs of one commit agree when
this exits 0 in both directions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def reading(value) -> tuple[float, float, float]:
    """(median, min, max) of a summarized metric or a single reading."""
    if isinstance(value, dict):
        return value["median"], value["min"], value["max"]
    return value, value, value


def verdict(base, new, better, bound) -> str:
    base_mid, base_lo, base_hi = reading(base)
    new_mid, new_lo, new_hi = reading(new)
    spread = max((base_hi - base_lo) / base_mid, (new_hi - new_lo) / new_mid)
    overlap = base_lo <= new_hi and new_lo <= base_hi
    if spread > bound and overlap:
        return "unresolved"
    change = (new_mid - base_mid) / base_mid
    worse = change if better == "lower" else -change
    return "regressed" if worse > bound else "ok"


def compare(base_report, new_report, declared) -> list[tuple]:
    rows = []
    for workload, base in base_report["workloads"].items():
        new = new_report["workloads"].get(workload)
        if new is None:
            continue
        for metric in declared:
            name = metric["name"]
            if name not in base["end_to_end"] or name not in new["end_to_end"]:
                continue
            a, b = base["end_to_end"][name], new["end_to_end"][name]
            rows.append((
                workload, name, reading(a)[0], reading(b)[0], metric["unit"],
                metric["bound"], verdict(a, b, metric["better"], metric["bound"]),
            ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_report, new_report = (json.loads(Path(p).read_text()) for p in argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(base_report, new_report, declared)
    print(f"{'workload':18s} {'metric':28s} {'base':>16s} {'new':>16s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for workload, name, base, new, unit, bound, outcome in rows:
        print(f"{workload:18s} {name:28s} {base:16.6f} {new:16.6f} "
              f"{new / base:9.4f} {bound:6.2f}  {outcome}  [{unit}]")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    print(f"{len(rows)} rows, {regressed} regressed, "
          f"{sum(1 for row in rows if row[-1] == 'unresolved')} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
